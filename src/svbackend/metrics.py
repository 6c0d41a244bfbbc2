"""Detection metrics: equal error rate and minimum detection cost.

Threshold semantics: a trial is accepted as "target" when its score is
at least the threshold, so ties are evaluated at the tied value.  Each
threshold yields an operating point (false-alarm rate, miss rate); the
thresholds from the lowest score up to +inf trace the DET staircase from
(1, 0) to (0, 1).

EER is read off the lower convex hull of the operating points in the
(FA, MISS) plane: the hull is the set of error-rate pairs achievable by
interpolating between thresholds, and its crossing with FA == MISS is
the smallest achievable equal error rate.  minDCF is the minimum of the
weighted detection cost over the operating points themselves.  Both are
taken from one point per distinct target score, the last point of its
horizontal run, plus both ends.

Both metrics depend only on the ordering of scores, so any strictly
increasing transform of the scores leaves them unchanged.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Iterable

import numpy as np

from .dataset import check_fields, write_csv
from .gplda import ScoreSet


@dataclass(frozen=True)
class DcfParams:
    """Detection cost weights; defaults match telephone-speech evaluations.
    Costs are finite numbers > 0, ``p_target`` one > 0 and < 1, or fail naming the field."""

    c_miss: float = 10.0
    c_fa: float = 1.0
    p_target: float = 0.01

    def __post_init__(self) -> None:
        check_fields(self, dict(c_miss=(0.0, math.inf), c_fa=(0.0, math.inf), p_target=(0.0, 1.0)))

    @property
    def floor(self) -> float:
        """Cost of the better degenerate policy (accept all / reject all)."""
        return min(self.c_miss * self.p_target, self.c_fa * (1.0 - self.p_target))


def _corner_candidates(values: np.ndarray, is_target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(FA, MISS) points in staircase order: (1, 0), the point at each
    distinct target score v (FA: nontargets >= v, MISS: targets < v), and
    (0, 1).  Each is the low-FA end of a horizontal run of the staircase;
    the rest of the run has the same MISS and no smaller FA, so it is never
    a strict lower-hull vertex and never costs less."""
    tar = np.sort(values[is_target])
    n_tar, n_non = tar.size, values.size - tar.size
    if n_tar == 0 or n_non == 0:
        raise ValueError("score set needs at least one target and one nontarget trial")
    at = np.unique(tar)
    tar_below, all_below = np.searchsorted(tar, at), np.searchsorted(np.sort(values), at)
    fa = np.concatenate([[1.0], (n_non - (all_below - tar_below)) / n_non, [0.0]])
    miss = np.concatenate([[0.0], tar_below / n_tar, [1.0]])
    return fa, miss


def _cross(o: tuple[float, float], a: tuple[float, float], b: tuple[float, float]) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull_eer(fa: np.ndarray, miss: np.ndarray) -> float:
    """Crossing with FA == MISS of the candidates' lower convex hull.

    The chain takes the points in reverse staircase order, FA ascending and,
    at one FA, MISS descending, so it needs no sort: a point is popped by a
    next point at its FA, unless it is the start (0, 1), whose vertical
    edge meets the diagonal only at (0, 0).  The start lies above the
    diagonal, so a vertex on it is reached as the end of an edge (t == 1)."""
    hull: list[tuple[float, float]] = []
    for p in zip(fa[::-1].tolist(), miss[::-1].tolist()):
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    for a, b in zip(hull, hull[1:]):
        da = a[1] - a[0]
        db = b[1] - b[0]
        if da >= 0.0 and db <= 0.0:
            t = da / (da - db)
            return a[0] + t * (b[0] - a[0])
    # endpoints (1, 0) and (0, 1) guarantee a crossing; unreachable
    raise AssertionError("no diagonal crossing on DET hull")


def _min_dcf(fa: np.ndarray, miss: np.ndarray, params: DcfParams) -> tuple[float, float]:
    """Minimum detection cost over the operating points, raw and divided by
    the better degenerate policy's cost (1.0: the scores are useless here)."""
    costs = params.c_miss * params.p_target * miss + params.c_fa * (1.0 - params.p_target) * fa
    value = float(costs.min())
    return value, value / params.floor


# ---------------------------------------------------------------------------
# report CSV


@dataclass(frozen=True)
class MetricReportRow:
    condition: str
    system: str
    eer: float
    min_dcf: float
    min_dcf_normalized: float
    n_target: int
    n_nontarget: int


REPORT_COLUMNS = [f.name for f in fields(MetricReportRow)]


def evaluate(
    scores: ScoreSet,
    condition: str = "-",
    system: str = "-",
    params: DcfParams = DcfParams(),
    which: str = "raw",
) -> MetricReportRow:
    """EER (in [0, 1]) and minDCF, raw and normalized, of the chosen score
    column, from one point per distinct target score, as a report row."""
    is_target = scores.trial_list.is_target
    fa, miss = _corner_candidates(scores.values(which), is_target)
    n_target = int(np.count_nonzero(is_target))
    return MetricReportRow(
        condition, system, _hull_eer(fa, miss),
        *_min_dcf(fa, miss, params), n_target, len(scores) - n_target,
    )


def write_metric_report(rows: Iterable[MetricReportRow], path: str | Path) -> None:
    """One CSV row per report row, in ``REPORT_COLUMNS`` order, ``repr`` of each float."""
    write_csv(path, REPORT_COLUMNS, map(astuple, rows))
