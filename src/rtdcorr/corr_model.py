"""Delay-distance correlation: classical Pearson form, the analytic model in
terms of path factors (routing-delay ratio R, path tortuosity T, direct
distance D), the per-ISP and per-probe correlation grids (one ``CorrGrid``
type, one builder) and rich sub-network discovery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import SampleTable, write_csv
from .errors import ValidationError

#: Default propagation speed in fiber, km/s (about 2/3 of light speed).
DEFAULT_SPEED_KM_S = 200000.0

#: Correlation above this value marks a rich-connected (sub-)network.
STRONG_CORR_THRESHOLD = 0.7

#: Groups smaller than this yield an undefined correlation.
MIN_SAMPLES_FOR_CORR = 3

# relative variance floor below which a variance is rounding noise
# (``_clears_floor``): Pearson is then undefined
_VAR_REL_EPS = 1e-12

#: A correlation value; None marks "undefined" (degenerate input).
CorrValue = Optional[float]

# each path factor's lower bound, and whether the bound itself is allowed
_FACTOR_RANGES = (("r", 1.0, False), ("t", 1.0, True), ("d_km", 0.0, False))


@dataclass(frozen=True, eq=False)  # arrays have no single truth value to compare by
class PathFactors:
    """The (R, T, D) description of network paths, one path per element.

    r: whole delay / propagation delay, > 1.
    t: routed path length / direct geodesic distance, >= 1.
    d_km: direct geodesic distance, > 0.

    The three are stored as float arrays broadcast to one shape; scalars
    give a 0-d instance.  Construction checks every element and names the
    first one out of range.
    """

    r: np.ndarray
    t: np.ndarray
    d_km: np.ndarray

    def __post_init__(self):
        values = np.broadcast_arrays(
            *(np.asarray(getattr(self, name), dtype=float) for name, _, _ in _FACTOR_RANGES)
        )
        for (name, low, closed), v in zip(_FACTOR_RANGES, values):
            ok = np.isfinite(v) & (v >= low if closed else v > low)
            if not ok.all():
                raise ValidationError(
                    f"{name} must be {'>=' if closed else '>'} {low:g}, got {v[~ok][0]}"
                )
            object.__setattr__(self, name, v)


def synth_delay(f: PathFactors, v_km_s: float = DEFAULT_SPEED_KM_S) -> np.ndarray:
    """Whole-path delay in ms implied by the path factors, elementwise: R*T*D/v."""
    if not (math.isfinite(v_km_s) and v_km_s > 0):
        raise ValidationError(f"propagation speed must be finite and > 0, got {v_km_s}")
    return f.r * f.t * f.d_km / v_km_s * 1000.0


@dataclass(frozen=True)
class CorrCell:
    corr: CorrValue
    n_samples: int


def _clears_floor(var, mean_sq):
    """Whether a variance (or an array of them) exceeds ``_VAR_REL_EPS``
    times its values' mean square, the floor below which it is rounding
    noise; relative, so the check is invariant under positive rescaling."""
    return var > _VAR_REL_EPS * np.maximum(1e-300, mean_sq)


def pearson_cells(groups: np.ndarray, n_groups: int, x, y) -> tuple[np.ndarray, np.ndarray]:
    """Pearson correlation of x and y within each group, and the group's
    size, for group labels 0 .. n_groups - 1: the one Pearson formula.

    Two passes, each a ``np.bincount`` per sum: the group means, then the
    centred sums.  A group's correlation is undefined (nan) for fewer than
    MIN_SAMPLES_FOR_CORR points or when a margin's variance is negligible
    relative to its magnitude; it is clamped to [-1, 1].
    """
    n = np.bincount(groups, minlength=n_groups)
    per = np.maximum(n, 1)

    def centred(v):
        """Deviations from the group means, group variances, and whether each
        variance clears the floor."""
        d = v - (np.bincount(groups, v, n_groups) / per)[groups]
        var = np.bincount(groups, d * d, n_groups) / per
        mean_sq = np.bincount(groups, v * v, n_groups) / per
        return d, var, _clears_floor(var, mean_sq)

    dx, vx, x_ok = centred(np.asarray(x, dtype=float))
    dy, vy, y_ok = centred(np.asarray(y, dtype=float))
    ok = (n >= MIN_SAMPLES_FOR_CORR) & x_ok & y_ok
    cov = np.bincount(groups, dx * dy, n_groups) / per
    corr = np.clip(cov / np.sqrt(np.where(ok, vx * vy, 1.0)), -1.0, 1.0)
    return np.where(ok, corr, np.nan), n


def _value(corr: float) -> CorrValue:
    return None if math.isnan(corr) else corr


def pearson_xy(xs: Sequence[float], ys: Sequence[float]) -> CorrValue:
    """Pearson correlation of two aligned sequences; None when degenerate
    (see ``pearson_cells``)."""
    if len(xs) != len(ys):
        raise ValidationError("x and y lengths differ")
    return _value(pearson_cells(np.zeros(len(xs), dtype=np.intp), 1, xs, ys)[0].item())


def pearson_corr(samples: SampleTable) -> CorrValue:
    """Delay-distance correlation of a sample table (first-order linear)."""
    if not len(samples):
        raise ValidationError("pearson_corr: empty sample table")
    return pearson_xy(samples.distance_km, samples.delay_ms)


def rtd_model_corr(f: PathFactors) -> CorrValue:
    """Model correlation over the paths of ``f`` via population sample moments.

    The paper's form is the sqrt of
        E^2(RT) * V(D)  over  E((RT)^2) * E(D^2) - E^2(RT) * E^2(D).
    Its denominator equals V(RT) * E(D^2) + E^2(RT) * V(D), which is computed
    instead: the raw moments' difference cancels when the spreads are small.
    A variance that does not clear the floor of ``_clears_floor`` is
    rounding noise (np.var of equal values is ~1e-33, not 0) and counts as
    0: so constant D gives 0, constant RT gives 1, and both give None.
    """
    if f.d_km.size < 2:
        raise ValidationError("rtd_model_corr: need at least 2 factor sets")
    rt = f.r * f.t
    d = f.d_km
    e_rt = float(rt.mean())
    e_d2 = float((d * d).mean())
    v_rt, v_d = float(rt.var()), float(d.var())
    if not _clears_floor(v_rt, float((rt * rt).mean())):
        v_rt = 0.0
    if not _clears_floor(v_d, e_d2):
        v_d = 0.0
    num = e_rt ** 2 * v_d
    den = v_rt * e_d2 + num
    if den <= 0.0:
        return None
    return math.sqrt(max(0.0, num / den))


@dataclass(frozen=True, eq=False)  # arrays have no single truth value to compare by
class CorrGrid:
    """A grouped delay-distance correlation: row r is ``rows[r]``, column i
    landmark ISP ``isps[i]``.  A row is a probe ISP in the per-ISP matrix and
    a probe id in the per-probe grid.  Column ``own[r]`` is the row's own ISP,
    so ``corr[r, own[r]]`` is its intra-ISP correlation and its other columns
    with ``n > 0`` are its inter-ISP ones.  ``corr`` is nan where undefined;
    ``n`` holds the group sizes."""

    rows: tuple[str, ...]
    isps: tuple[str, ...]
    own: np.ndarray
    corr: np.ndarray
    n: np.ndarray

    def cell(self, row: str, isp: str) -> CorrCell:
        """The (row, landmark ISP) cell; CorrCell(None, 0) for an unknown row or ISP."""
        try:
            r, i = self.rows.index(row), self.isps.index(isp)
        except ValueError:
            return CorrCell(None, 0)
        return CorrCell(_value(self.corr[r, i].item()), self.n[r, i].item())


def _grid(samples: SampleTable, row_codes: np.ndarray, rows: tuple, own: np.ndarray) -> CorrGrid:
    """The one grid builder: one Pearson per (row, landmark ISP) group, where
    sample k falls in row ``row_codes[k]``."""
    shape = (len(rows), len(samples.isps))
    corr, n = pearson_cells(
        row_codes * shape[1] + samples.landmark_isp[samples.landmark], shape[0] * shape[1],
        samples.distance_km, samples.delay_ms,
    )
    return CorrGrid(rows, samples.isps, own, corr.reshape(shape), n.reshape(shape))


def corr_matrix(samples: SampleTable) -> CorrGrid:
    """The per-ISP matrix: one Pearson per (probe ISP, landmark ISP) group;
    row r is ISP ``isps[r]``, so the diagonal cells are intra-ISP."""
    return _grid(samples, samples.probe_isp[samples.probe], samples.isps, np.arange(len(samples.isps)))


def all_probe_reports(samples: SampleTable) -> CorrGrid:
    """The per-probe grid: one Pearson per (probe, landmark ISP) group; row p
    is probe ``probe_ids[p]``, and its own ISP is the table's tag of probe p."""
    return _grid(samples, samples.probe, samples.probe_ids, samples.probe_isp)


@dataclass(frozen=True)
class RichSubnetReport:
    rich_probes_intra: tuple[str, ...]
    rich_probes_inter: tuple[tuple[str, str], ...]  # (probe, foreign isp)
    intra_fraction: float
    inter_fraction: float
    overall_fraction: float


def discover_rich_subnets(
    samples: SampleTable, threshold: float = STRONG_CORR_THRESHOLD
) -> RichSubnetReport:
    """Probes whose intra-ISP correlation (or some inter-ISP correlation)
    strictly exceeds the threshold, plus the corresponding fractions."""
    if not math.isfinite(threshold):
        raise ValidationError(f"threshold must be finite, got {threshold}")
    grid = all_probe_reports(samples)
    probes = np.arange(len(grid.rows))
    intra = grid.corr[probes, grid.own] > threshold
    rich_intra = [grid.rows[p] for p in np.flatnonzero(intra).tolist()]
    # the inter cells, in (probe, ISP) order
    inter = grid.n > 0
    inter[probes, grid.own] = False
    p, i = np.nonzero(inter)
    strong = grid.corr[p, i] > threshold
    rich_inter = [(grid.rows[a], grid.isps[b])
                  for a, b in zip(p[strong].tolist(), i[strong].tolist())]
    n_probes, n_inter_cells = len(probes), len(p)
    intra_frac = len(rich_intra) / n_probes if n_probes else 0.0
    inter_frac = len(rich_inter) / n_inter_cells if n_inter_cells else 0.0
    total = n_probes + n_inter_cells
    overall = (len(rich_intra) + len(rich_inter)) / total if total else 0.0
    return RichSubnetReport(
        tuple(rich_intra), tuple(rich_inter), intra_frac, inter_frac, overall
    )


def _fmt_corr(c: CorrValue) -> str:
    return "" if c is None or math.isnan(c) else f"{c:.6f}"


def write_corr_matrix_csv(matrix: CorrGrid, path) -> None:
    """Wide CSV: one row per probe ISP, one column per landmark ISP, each with samples.

    Undefined cells are empty fields; a trailing n_<isp> column block carries
    the per-cell sample counts.
    """
    rows, cols = (np.flatnonzero(matrix.n.any(axis=a)).tolist() for a in (1, 0))
    corr, n = matrix.corr.tolist(), matrix.n.tolist()
    isps = [matrix.isps[i] for i in cols]
    write_csv(path, ["probe_isp", *isps, *(f"n_{isp}" for isp in isps)], (
        [matrix.rows[r], *(_fmt_corr(corr[r][i]) for i in cols), *(n[r][i] for i in cols)]
        for r in rows))


def write_probe_reports_csv(grid: CorrGrid, path) -> None:
    """Long CSV: probe_id,probe_isp,scope,landmark_isp,corr,n_samples; each
    probe's intra row, then its inter rows in ISP order."""
    own, corr, n = grid.own.tolist(), grid.corr.tolist(), grid.n.tolist()
    write_csv(path, ["probe_id", "probe_isp", "scope", "landmark_isp", "corr", "n_samples"], (
        [probe_id, grid.isps[own[p]], "intra" if i == own[p] else "inter", grid.isps[i],
         _fmt_corr(corr[p][i]), n[p][i]]
        for p, probe_id in enumerate(grid.rows)
        for i in [own[p]] + [i for i, k in enumerate(n[p]) if k and i != own[p]]))


def write_rich_csv(report: RichSubnetReport, path) -> None:
    """kind,probe_id,landmark_isp: an intra row (blank ISP) per intra-rich
    probe, then an inter row per inter-rich (probe, ISP) pair."""
    write_csv(path, ["kind", "probe_id", "landmark_isp"], [
        *(["intra", pid, ""] for pid in report.rich_probes_intra),
        *(["inter", pid, isp] for pid, isp in report.rich_probes_inter)])
