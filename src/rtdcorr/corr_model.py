"""Delay-distance correlation: classical Pearson form, the analytic model in
terms of path factors (routing-delay ratio R, path tortuosity T, direct
distance D), per-ISP correlation matrices and rich sub-network discovery.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import NotFoundError, ValidationError

#: Default propagation speed in fiber, km/s (about 2/3 of light speed).
DEFAULT_SPEED_KM_S = 200000.0

#: Correlation above this value marks a rich-connected (sub-)network.
STRONG_CORR_THRESHOLD = 0.7

#: Groups smaller than this yield an undefined correlation.
MIN_SAMPLES_FOR_CORR = 3

# relative variance floor below which Pearson is reported undefined
_VAR_REL_EPS = 1e-12

#: A correlation value; None marks "undefined" (degenerate input).
CorrValue = Optional[float]


class CorrStrength(Enum):
    STRONG = "strong"
    WEAK = "weak"


@dataclass(frozen=True)
class DelayDistanceSample:
    """One (probe, landmark) pair: minimum RTT in ms and geodesic distance in km."""

    probe_id: str
    landmark_id: str
    delay_ms: float
    distance_km: float
    probe_isp: str
    landmark_isp: str
    probe_city: str
    landmark_city: str

    def __post_init__(self):
        if not (math.isfinite(self.delay_ms) and self.delay_ms > 0):
            raise ValidationError(f"delay must be finite and > 0, got {self.delay_ms}")
        if not (math.isfinite(self.distance_km) and self.distance_km >= 0):
            raise ValidationError(f"distance must be finite and >= 0, got {self.distance_km}")


@dataclass(frozen=True)
class PathFactors:
    """The (R, T, D) description of one network path.

    r: whole delay / propagation delay, > 1.
    t: routed path length / direct geodesic distance, >= 1.
    d_km: direct geodesic distance, > 0.
    """

    r: float
    t: float
    d_km: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and self.r > 1.0):
            raise ValidationError(f"r must be > 1, got {self.r}")
        if not (math.isfinite(self.t) and self.t >= 1.0):
            raise ValidationError(f"t must be >= 1, got {self.t}")
        if not (math.isfinite(self.d_km) and self.d_km > 0.0):
            raise ValidationError(f"d_km must be > 0, got {self.d_km}")

    @property
    def detour_km(self) -> float:
        """Geographic length of the routed path (T * D)."""
        return self.t * self.d_km

    def propagation_ms(self, v_km_s: float = DEFAULT_SPEED_KM_S) -> float:
        return self.t * self.d_km / v_km_s * 1000.0

    def ideal_ms(self, v_km_s: float = DEFAULT_SPEED_KM_S) -> float:
        return self.d_km / v_km_s * 1000.0


def synth_delay(f: PathFactors, v_km_s: float = DEFAULT_SPEED_KM_S) -> float:
    """Whole-path delay in ms implied by the path factors: R*T*D/v."""
    if v_km_s <= 0:
        raise ValidationError(f"propagation speed must be > 0, got {v_km_s}")
    return f.r * f.t * f.d_km / v_km_s * 1000.0


def pearson_xy(xs: Sequence[float], ys: Sequence[float]) -> CorrValue:
    """Pearson correlation of two aligned sequences; None when degenerate.

    Undefined (None) for fewer than MIN_SAMPLES_FOR_CORR points or when a
    margin's variance is negligible relative to its magnitude.
    """
    if len(xs) != len(ys):
        raise ValidationError("x and y lengths differ")
    if len(xs) < MIN_SAMPLES_FOR_CORR:
        return None
    x = np.asarray(xs, dtype=float)
    y = np.asarray(ys, dtype=float)
    vx = float(np.var(x))
    vy = float(np.var(y))
    # relative floor so the check is invariant under positive rescaling
    if vx <= _VAR_REL_EPS * max(1e-300, float(np.mean(x * x))):
        return None
    if vy <= _VAR_REL_EPS * max(1e-300, float(np.mean(y * y))):
        return None
    c = float(np.mean((x - x.mean()) * (y - y.mean())) / math.sqrt(vx * vy))
    return max(-1.0, min(1.0, c))


def pearson_corr(samples: Sequence[DelayDistanceSample]) -> CorrValue:
    """Delay-distance correlation of a sample set (first-order linear)."""
    if not samples:
        raise ValidationError("pearson_corr: empty sample list")
    return pearson_xy([s.distance_km for s in samples], [s.delay_ms for s in samples])


def classify_corr(c: CorrValue, threshold: float = STRONG_CORR_THRESHOLD) -> CorrStrength:
    """Strong iff strictly above the threshold; negative or undefined is weak."""
    if c is None or c <= threshold:
        return CorrStrength.WEAK
    return CorrStrength.STRONG


def rtd_model_corr(factors: Sequence[PathFactors]) -> CorrValue:
    """Model correlation from (R, T, D) factors via population sample moments.

    Computed as sqrt of
        E^2(RT) * (E(D^2) - E^2(D))  over  E((RT)^2) * E(D^2) - E^2(RT) * E^2(D).
    None when the denominator vanishes (all RT equal and all D equal).
    """
    if len(factors) < 2:
        raise ValidationError("rtd_model_corr: need at least 2 factor sets")
    rt = np.array([f.r * f.t for f in factors], dtype=float)
    d = np.array([f.d_km for f in factors], dtype=float)
    e_rt = float(rt.mean())
    e_rt2 = float((rt * rt).mean())
    e_d = float(d.mean())
    e_d2 = float((d * d).mean())
    num = e_rt ** 2 * (e_d2 - e_d ** 2)
    den = e_rt2 * e_d2 - e_rt ** 2 * e_d ** 2
    if den <= 0.0:
        return None
    return math.sqrt(max(0.0, num / den))


@dataclass(frozen=True)
class CorrCell:
    corr: CorrValue
    n_samples: int


@dataclass(frozen=True)
class CorrMatrix:
    """Per (probe ISP, landmark ISP) correlation; diagonal cells are intra-ISP."""

    probe_isps: tuple[str, ...]
    landmark_isps: tuple[str, ...]
    cells: dict  # (probe_isp, landmark_isp) -> CorrCell

    def cell(self, probe_isp: str, landmark_isp: str) -> CorrCell:
        return self.cells.get((probe_isp, landmark_isp), CorrCell(None, 0))


def corr_matrix(samples: Sequence[DelayDistanceSample]) -> CorrMatrix:
    """One Pearson correlation per (probe ISP, landmark ISP) group."""
    groups: dict[tuple[str, str], list[DelayDistanceSample]] = {}
    for s in samples:
        groups.setdefault((s.probe_isp, s.landmark_isp), []).append(s)
    probe_isps = tuple(sorted({s.probe_isp for s in samples}))
    landmark_isps = tuple(sorted({s.landmark_isp for s in samples}))
    cells = {}
    for pi in probe_isps:
        for li in landmark_isps:
            grp = groups.get((pi, li), [])
            corr = pearson_corr(grp) if grp else None
            cells[(pi, li)] = CorrCell(corr, len(grp))
    return CorrMatrix(probe_isps, landmark_isps, cells)


@dataclass(frozen=True)
class ProbeCorrReport:
    probe_id: str
    probe_isp: str
    intra: CorrCell
    inter: dict  # foreign isp -> CorrCell


def probe_corr_report(
    samples: Sequence[DelayDistanceSample], probe_id: str
) -> ProbeCorrReport:
    """Intra-ISP and per-foreign-ISP correlations of one probing host."""
    mine = [s for s in samples if s.probe_id == probe_id]
    if not mine:
        raise NotFoundError(f"probe {probe_id!r} has no samples")
    probe_isp = mine[0].probe_isp
    intra_grp = [s for s in mine if s.landmark_isp == probe_isp]
    inter: dict[str, CorrCell] = {}
    for isp in sorted({s.landmark_isp for s in mine if s.landmark_isp != probe_isp}):
        grp = [s for s in mine if s.landmark_isp == isp]
        inter[isp] = CorrCell(pearson_corr(grp) if grp else None, len(grp))
    intra = CorrCell(pearson_corr(intra_grp) if intra_grp else None, len(intra_grp))
    return ProbeCorrReport(probe_id, probe_isp, intra, inter)


def all_probe_reports(samples: Sequence[DelayDistanceSample]) -> list[ProbeCorrReport]:
    return [
        probe_corr_report(samples, pid)
        for pid in sorted({s.probe_id for s in samples})
    ]


@dataclass(frozen=True)
class RichSubnetReport:
    rich_probes_intra: tuple[str, ...]
    rich_probes_inter: tuple[tuple[str, str], ...]  # (probe, foreign isp)
    intra_fraction: float
    inter_fraction: float
    overall_fraction: float


def discover_rich_subnets(
    samples: Sequence[DelayDistanceSample], threshold: float = STRONG_CORR_THRESHOLD
) -> RichSubnetReport:
    """Probes whose intra-ISP correlation (or some inter-ISP correlation)
    strictly exceeds the threshold, plus the corresponding fractions."""
    reports = all_probe_reports(samples)
    rich_intra = []
    rich_inter = []
    n_inter_cells = 0
    for rep in reports:
        if rep.intra.corr is not None and rep.intra.corr > threshold:
            rich_intra.append(rep.probe_id)
        for isp, cell in sorted(rep.inter.items()):
            n_inter_cells += 1
            if cell.corr is not None and cell.corr > threshold:
                rich_inter.append((rep.probe_id, isp))
    n_probes = len(reports)
    intra_frac = len(rich_intra) / n_probes if n_probes else 0.0
    inter_frac = len(rich_inter) / n_inter_cells if n_inter_cells else 0.0
    total = n_probes + n_inter_cells
    overall = (len(rich_intra) + len(rich_inter)) / total if total else 0.0
    return RichSubnetReport(
        tuple(rich_intra), tuple(rich_inter), intra_frac, inter_frac, overall
    )


def _fmt_corr(c: CorrValue) -> str:
    return "" if c is None else f"{c:.6f}"


def write_corr_matrix_csv(matrix: CorrMatrix, path) -> None:
    """Wide CSV: one row per probe ISP, one column per landmark ISP.

    Undefined cells are empty fields; a trailing n_<isp> column block carries
    the per-cell sample counts.
    """
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(
            ["probe_isp"]
            + list(matrix.landmark_isps)
            + [f"n_{isp}" for isp in matrix.landmark_isps]
        )
        for pi in matrix.probe_isps:
            cells = [matrix.cell(pi, li) for li in matrix.landmark_isps]
            w.writerow(
                [pi]
                + [_fmt_corr(c.corr) for c in cells]
                + [c.n_samples for c in cells]
            )


def write_probe_reports_csv(reports: Iterable[ProbeCorrReport], path) -> None:
    """Long CSV: probe_id,probe_isp,scope,landmark_isp,corr,n_samples."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["probe_id", "probe_isp", "scope", "landmark_isp", "corr", "n_samples"])
        for rep in reports:
            w.writerow(
                [rep.probe_id, rep.probe_isp, "intra", rep.probe_isp,
                 _fmt_corr(rep.intra.corr), rep.intra.n_samples]
            )
            for isp, cell in sorted(rep.inter.items()):
                w.writerow(
                    [rep.probe_id, rep.probe_isp, "inter", isp,
                     _fmt_corr(cell.corr), cell.n_samples]
                )
