import importlib.util
import textwrap
from pathlib import Path

import numpy as np
import pytest

from rtdcorr import experiments, netsim
from rtdcorr.errors import ValidationError


def load_script(name: str):
    """The module of ``scripts/<name>.py``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def pair_rtts(table) -> dict:
    """{(probe_id, landmark_id): rtt_ms} of a min-RTT table, in row order."""
    return {
        (table.probe_ids[p], table.landmark_ids[lm]): rtt
        for p, lm, rtt in zip(table.probe.tolist(), table.landmark.tolist(), table.rtt_ms.tolist())
    }


#: (correlation, strong?) against the default threshold: strong iff strictly
#: above it; negative or undefined is weak
THRESHOLD_CASES = [
    (0.6701, False),
    (0.9064, True),
    (-0.2964, False),
    (0.7, False),  # strictly "beyond"
    (None, False),
]


@pytest.fixture(scope="session")
def cn_config():
    return netsim.resolve_config("cn-like")


@pytest.fixture(scope="session")
def cn_campaign(cn_config):
    """Default-seed campaign on the bundled config; shared across tests."""
    return experiments.prepare_campaign(cn_config, seed=42)


MINI_YAML = textwrap.dedent(
    """
    scatter_km: 5.0
    path_model:
      v_km_s: 200000.0
      intra_r: {mu: -0.7, sigma: 0.3}
      inter_r: {mu: 0.7, sigma: 1.0}
      jitter: 0.2
      samples_per_pair: 3
    cities:
      - {id: a, lat: 30.0, lon: 100.0, region: r0, is_center: true}
      - {id: b, lat: 32.0, lon: 104.0, region: r1, is_center: true}
      - {id: b2, lat: 33.5, lon: 105.0, region: r1, is_center: false}
    isps:
      - {id: x, ixps: [a]}
      - {id: y, ixps: [a]}
    hosts:
      - {id: p1, role: probe, city: a, isp: x}
      - {id: p2, role: probe, city: b, isp: y}
      - {id: l1, role: landmark, city: a, isp: x}
      - {id: l2, role: landmark, city: b, isp: x}
      - {id: l3, role: landmark, city: b2, isp: y}
    """
)


#: MINI_YAML with ISP y renamed w: netsim.load_config leaves the word y, a
#: bool in YAML 1.1 (though not to pyyaml), to the YAML loader, and reads
#: this text's flow items without it
PLAIN_MINI = MINI_YAML.replace(": y", ": w")


@pytest.fixture(scope="session")
def mini_config_path(tmp_path_factory):
    p = tmp_path_factory.mktemp("cfg") / "mini.yaml"
    p.write_text(MINI_YAML)
    return p


@pytest.fixture(scope="session")
def mini_campaign(mini_config_path):
    """Default-seed campaign on the mini config; shared across tests."""
    return experiments.prepare_campaign(netsim.load_config(mini_config_path), seed=42)


def read_outcome(read, path):
    """("table", what read(path) returns) or ("error", its ValidationError's
    text)."""
    try:
        return "table", read(path)
    except ValidationError as exc:
        return "error", str(exc)


def assert_same_read(new, old, path):
    """new(path) and old(path) raise the same ValidationError text, or give
    tables equal field for field (arrays in dtype and bytes)."""
    got, want = read_outcome(new, path), read_outcome(old, path)
    assert got[0] == want[0], (got, want)
    if got[0] == "error" or isinstance(want[1], list):
        assert got == want
        return
    assert_same_table(got[1], want[1])


def assert_same_table(got, want):
    """Two tables equal field for field (arrays in dtype, shape and bytes)."""
    for name in want.__dataclass_fields__:
        a, b = getattr(got, name), getattr(want, name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name
        else:
            assert a == b, name
