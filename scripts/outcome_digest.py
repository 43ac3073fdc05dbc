#!/usr/bin/env python3
"""Print digests of the geolocation outcomes on the bundled cn-like config,
so two versions of the code can be compared for exact equality.

Usage: PYTHONPATH=src python scripts/outcome_digest.py [--seeds 42,7]

It first prints one seed-independent line, ``kernel_edges_sha256``: a sha256
over the Vincenty kernel's distance bytes and fallback-mask bytes on a fixed
set of pairs over the whole globe (random pairs, near-antipodal pairs and
rows at the poles, at +-180 deg, on one meridian and coincident), since the
cn-like sites all lie in China and never reach those edges.

For each seed it then prints one JSON line for the campaign, then one per
algorithm x mode.  The campaign line holds sha256 digests of the site
distance matrix, of the joined sample distances and of the campaign's raw
observations (``rtt_sha256``, over the ``rtt_ms`` column of
``netsim.simulate_campaign``), over their raw float64 bytes;
``rtt_csv_sha256`` and ``samples_csv_sha256``, over the bytes that
``dataset.write_rtt_csv`` and ``dataset.write_samples_csv`` write for those
observations and the campaign's samples; ``rtt_read_sha256`` and
``samples_read_sha256``, over the tables ``dataset.read_rtt_csv`` and
``dataset.read_samples_csv`` read back from those bytes (each field in
order: an id tuple as its ``repr``, an array of codes or values as its raw
bytes; a sample table's per-host tags are hashed gathered to its rows, as
``probe_isp[probe]``, ``landmark_isp[landmark]``, ``probe_city[probe]`` and
``landmark_city[landmark]``, so the digest reads as it did when the table
kept a tag on every row).  Each table is read twice: through the table
cache the writer leaves beside the file, and parsed with the cache removed;
if the two digests differ, the script exits 1 naming the table.  The line
also holds ``bestlines_sha256``: a
sha256 over the ``repr`` of every probe's bestline (slope, intercept), or
None, over all its landmarks and then over each landmark ISP in code order,
probes in code order.  Its ``corr_sha256``
is a sha256 over the full-precision bytes of both correlation grids: the
per-ISP matrix's correlations (nan where undefined) and then its group sizes,
read cell by cell over the ISPs in code order, then the per-probe grid's
``corr`` and ``n`` arrays.  The CSV outputs round correlations to 6 decimals;
this digest sees any change in the last bits.

A target-rows line follows: ``target_rows_sha256`` is a sha256 over the raw
float64 bytes of every landmark's target-side row,
``netsim.simulate_row(..., stream="target")`` from that landmark to every
landmark (landmarks in id order, both ways), the rows GeoGet's locates read;
it checks that row path bit for bit, not only through the winners.  An
outcome line holds:
- the target count and the located count;
- the total number of region cells (CBG; GeoGet names a city, not a region);
- ``sha256_6dp``: a sha256 of the outcomes with coordinates at 6 decimals,
  the precision of ``results.csv``;
- ``sha256_repr``: the same with coordinates at full ``repr``, which any
  change in the last bits moves.

CBG runs on the spec's default 100 targets, GeoGet on every landmark (as the
benchmark's ``geoget`` workload does).  Campaign and experiment share the seed.
"""

import argparse
import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from rtdcorr import corr_model, dataset, experiments, geodesy, netsim

CONFIG = "cn-like"
LOCATE = {"cbg": experiments.cbg_locate_target, "geoget": experiments.geoget_locate_target}
MODES = ("original", "modified")
#: (lat1, lon1, lat2, lon2) rows the kernel digest holds besides its random
#: pairs: two that take the great-circle fallback, pole to pole, two points on
#: one pole, a turn apart in longitude and apart along it, the equator's two
#: ends and its antipodes, two pairs on one meridian and a coincident pair
EDGE_ROWS = [
    (0.0, 0.0, 0.5, 179.7), (10.0, 20.0, -10.3, -160.2), (90.0, 0.0, -90.0, 45.0),
    (90.0, -180.0, 90.0, 180.0), (90.0, 0.0, 90.0, 50.0), (-90.0, 10.0, -90.0, -170.0),
    (0.0, -180.0, 0.0, 180.0), (0.0, 0.0, 0.0, 180.0), (30.0, 50.0, -20.0, 50.0),
    (-45.0, -180.0, 45.0, -180.0), (12.5, 100.0, 12.5, 100.0),
]


def sha256(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def cells(res):
    return 0 if res.region_lats is None else res.region_lats.size


def outcome_line(target, res, fmt):
    lat, lon = ("", "") if res.coordinate is None else (
        fmt(res.coordinate.lat), fmt(res.coordinate.lon))
    return "|".join([target.id, res.status, res.city or "", lat, lon, res.reason, str(cells(res))])


def bestline_line(line):
    return repr(None if line is None else (line.slope_ms_per_km, line.intercept_ms))


def corr_sha256(campaign):
    isps = campaign.samples.isps
    matrix = corr_model.corr_matrix(campaign.samples)
    cells = [matrix.cell(a, b) for a in isps for b in isps]
    grid = campaign.reports
    arrays = (np.array([math.nan if c.corr is None else c.corr for c in cells]),
              np.array([c.n_samples for c in cells], dtype=np.int64),
              grid.corr, grid.n.astype(np.int64))
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()


#: a sample table's per-host tags, each by the column of host codes that
#: gathers it to the rows
ROW_OF_TAG = {"probe_isp": "probe", "landmark_isp": "landmark",
              "probe_city": "probe", "landmark_city": "landmark"}


def table_sha256(table):
    """sha256 over a table's fields in order: an id tuple as its repr, an
    array as its raw bytes, a per-host tag gathered to the rows first."""
    h = hashlib.sha256()
    for name in table.__dataclass_fields__:
        value = getattr(table, name)
        if name in ROW_OF_TAG:
            value = value[getattr(table, ROW_OF_TAG[name])]
        h.update(value.tobytes() if isinstance(value, np.ndarray) else repr(value).encode())
    return h.hexdigest()


def csv_sha256s(write, read, table):
    """sha256 of the bytes ``write(table, path)`` puts in a file, and
    ``table_sha256`` of what ``read(path)`` reads back from them: read
    through the table cache that ``write`` leaves beside the file, and again
    parsed with the cache removed.  Two digests that differ exit 1, naming
    the table."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        write(table, path)
        cached = table_sha256(read(path))
        Path(f"{path}.cache").unlink(missing_ok=True)
        parsed = table_sha256(read(path))
        if cached != parsed:
            sys.exit(f"error: {type(table).__name__}: the cached read's sha256 {cached} "
                     f"differs from the parse's {parsed}")
        return hashlib.sha256(path.read_bytes()).hexdigest(), parsed


def kernel_edges_line():
    """The kernel digest over 16,384 random pairs, 1,024 pairs within half a
    degree of antipodal, and EDGE_ROWS: three passes of the kernel."""
    rng = np.random.default_rng(0)
    lat1, lat2 = rng.uniform(-90.0, 90.0, (2, 16_384 + 1_024))
    lon1, lon2 = rng.uniform(-180.0, 180.0, (2, 16_384 + 1_024))
    off = rng.uniform(-0.5, 0.5, (2, 1_024))
    lat2[-1_024:] = np.clip(-lat1[-1_024:] + off[0], -90.0, 90.0)
    lon2[-1_024:] = (lon1[-1_024:] + off[1]) % 360.0 - 180.0
    rows = np.concatenate([np.stack([lat1, lon1, lat2, lon2], axis=1), EDGE_ROWS])
    km, fell_back = geodesy._vincenty(*rows.T)
    return {"pairs": len(rows), "fallbacks": int(fell_back.sum()),
            "kernel_edges_sha256": hashlib.sha256(km.tobytes() + fell_back.tobytes()).hexdigest()}


def target_rows_line(campaign, seed):
    topology = campaign.topology
    ids = sorted(h.id for h in topology.registry.landmarks())
    positions = topology._host_positions(ids)
    h = hashlib.sha256()
    for src in ids:
        h.update(netsim.simulate_row(
            topology, campaign.config, seed, src, positions, stream="target").tobytes())
    return {"seed": seed, "landmarks": len(ids), "target_rows_sha256": h.hexdigest()}


def digest_seed(config, seed):
    campaign = experiments.prepare_campaign(config, seed)
    isps = [None, *np.unique(campaign.samples.landmark_isp).tolist()]
    observations = netsim.simulate_campaign(campaign.topology, config, seed)
    rtt_csv, rtt_read = csv_sha256s(dataset.write_rtt_csv, dataset.read_rtt_csv, observations)
    samples_csv, samples_read = csv_sha256s(
        dataset.write_samples_csv, dataset.read_samples_csv, campaign.samples)
    yield {
        "seed": seed,
        "sites": len(campaign.topology._sites),
        "site_matrix_sha256": hashlib.sha256(campaign.topology._dist.tobytes()).hexdigest(),
        "join_sha256": hashlib.sha256(campaign.samples.distance_km.tobytes()).hexdigest(),
        "rtt_sha256": hashlib.sha256(observations.rtt_ms.tobytes()).hexdigest(),
        "rtt_csv_sha256": rtt_csv,
        "samples_csv_sha256": samples_csv,
        "rtt_read_sha256": rtt_read,
        "samples_read_sha256": samples_read,
        "bestlines_sha256": sha256(
            bestline_line(campaign.bestline(p, isp))
            for p in range(len(campaign.samples.probe_ids)) for isp in isps),
        "corr_sha256": corr_sha256(campaign),
    }
    yield target_rows_line(campaign, seed)
    n_landmarks = len(campaign.topology.registry.landmarks())
    for algorithm, locate in LOCATE.items():
        for mode in MODES:
            size = {"n_targets": n_landmarks} if algorithm == "geoget" else {}
            spec = experiments.ExperimentSpec(
                config=CONFIG, algorithm=algorithm, mode=mode, seed=seed, **size)
            targets = experiments.pick_targets(campaign, spec.n_targets, seed)
            results = [(t, locate(campaign, t, spec)) for t in targets]
            yield {
                "seed": seed,
                "algorithm": algorithm,
                "mode": mode,
                "targets": len(results),
                "located": sum(r.status == "located" for _, r in results),
                "region_cells": sum(cells(r) for _, r in results),
                "sha256_6dp": sha256(outcome_line(t, r, lambda v: f"{v:.6f}") for t, r in results),
                "sha256_repr": sha256(outcome_line(t, r, repr) for t, r in results),
            }


def parse_seeds(text):
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated seeds, got {text!r}") from None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=parse_seeds, default=[42, 7],
                    help="comma-separated seeds (default 42,7)")
    args = ap.parse_args()
    config = netsim.resolve_config(CONFIG)
    print(json.dumps(kernel_edges_line()), flush=True)
    for seed in args.seeds:
        for line in digest_seed(config, seed):
            print(json.dumps(line), flush=True)


if __name__ == "__main__":
    main()
