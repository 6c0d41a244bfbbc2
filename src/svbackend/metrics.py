"""Detection metrics: equal error rate and minimum detection cost.

Threshold semantics: a trial is accepted as "target" when its score is
at least the threshold; candidate thresholds are the distinct score
values plus +inf (-inf would repeat the lowest score's point), so ties
are evaluated at the tied value.
Each threshold yields an operating point (false-alarm rate, miss rate).

EER is read off the lower convex hull of the operating points in the
(FA, MISS) plane: the hull is the set of error-rate pairs achievable by
interpolating between thresholds, and its crossing with FA == MISS is
the smallest achievable equal error rate.  minDCF is the minimum of the
weighted detection cost over the operating points themselves.

Both metrics depend only on the ordering of scores, so any strictly
increasing transform of the scores leaves them unchanged.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass, fields
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .dataset import check_fields, write_csv
from .gplda import ScoreSet


@dataclass(frozen=True)
class DcfParams:
    """Detection cost weights; defaults match telephone-speech evaluations."""

    c_miss: float = 10.0
    c_fa: float = 1.0
    p_target: float = 0.01

    def __post_init__(self) -> None:
        check_fields(self, dict(c_miss=0.0, c_fa=0.0, p_target=0.0))
        if self.c_miss == 0 or self.c_fa == 0:
            raise ValueError("costs must be positive")
        if not 0.0 < self.p_target < 1.0:
            raise ValueError("p_target must be in (0, 1)")

    @property
    def floor(self) -> float:
        """Cost of the better degenerate policy (accept all / reject all)."""
        return min(self.c_miss * self.p_target, self.c_fa * (1.0 - self.p_target))


def _staircase(values: np.ndarray, is_target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Operating points (FA, MISS) at each distinct score, ascending, then at +inf.

    Counted from the pooled scores: the number of targets and nontargets
    below each threshold.  The first point, the lowest score, accepts every
    trial and is (1, 0); the last is (0, 1).  Each distinct score moves at
    least one count, so no two consecutive points are equal.
    """
    thresholds, at = np.unique(values, return_counts=True)
    tar_values, tar_counts = np.unique(values[is_target], return_counts=True)
    tar_at = np.zeros_like(at)
    tar_at[np.searchsorted(thresholds, tar_values)] = tar_counts
    tar_below = np.concatenate([[0], np.cumsum(tar_at)])
    non_below = np.concatenate([[0], np.cumsum(at - tar_at)])
    n_tar, n_non = tar_below[-1], non_below[-1]
    return (n_non - non_below) / n_non, tar_below / n_tar


def _corners(fa: np.ndarray, miss: np.ndarray) -> list[tuple[float, float]]:
    """Staircase points without the interior points of horizontal and
    vertical runs.

    Such an interior point is exactly collinear with its neighbours (the
    cross product in ``_lower_hull`` is exactly 0), so the hull pops it
    anyway: dropping it first leaves the hull, and the EER, unchanged.
    """
    keep = np.ones(fa.size, dtype=bool)
    keep[1:-1] = ~(
        ((fa[:-2] == fa[1:-1]) & (fa[1:-1] == fa[2:]))
        | ((miss[:-2] == miss[1:-1]) & (miss[1:-1] == miss[2:]))
    )
    return list(zip(fa[keep].tolist(), miss[keep].tolist()))


def _cross(o: tuple[float, float], a: tuple[float, float], b: tuple[float, float]) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _lower_hull(points: Sequence[tuple[float, float]]) -> list[tuple[float, float]]:
    hull: list[tuple[float, float]] = []
    for p in sorted(set(points)):
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    return hull


def _hull_eer(points: Sequence[tuple[float, float]]) -> float:
    hull = _lower_hull(points)
    for a, b in zip(hull, hull[1:]):
        da = a[1] - a[0]
        db = b[1] - b[0]
        if da >= 0.0 and db <= 0.0:
            if da == 0.0:
                return a[0]
            t = da / (da - db)
            return a[0] + t * (b[0] - a[0])
    # endpoints (1, 0) and (0, 1) guarantee a crossing; unreachable
    raise AssertionError("no diagonal crossing on DET hull")


def _staircase_of(scores: ScoreSet, which: str) -> tuple[np.ndarray, np.ndarray]:
    """``_staircase`` of one score column."""
    values, is_target = scores.values(which), scores.trial_list.is_target
    if is_target.all() or not is_target.any():
        raise ValueError("score set needs at least one target and one nontarget trial")
    return _staircase(values, is_target)


def _min_dcf(fa: np.ndarray, miss: np.ndarray, params: DcfParams) -> tuple[float, float]:
    """Minimum detection cost over the operating points, raw and divided by
    the better degenerate policy's cost (1.0: the scores are useless here)."""
    costs = params.c_miss * params.p_target * miss + params.c_fa * (1.0 - params.p_target) * fa
    value = float(costs.min())
    return value, value / params.floor


def det_points(scores: ScoreSet, which: str = "raw") -> list[tuple[float, float]]:
    """DET staircase: (FA, MISS) per threshold, FA non-increasing, no two
    consecutive points equal."""
    fa, miss = _staircase_of(scores, which)
    return list(zip(fa.tolist(), miss.tolist()))


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
    column, from one staircase, as a report row."""
    fa, miss = _staircase_of(scores, which)
    n_target = int(np.count_nonzero(scores.trial_list.is_target))
    return MetricReportRow(
        condition, system, _hull_eer(_corners(fa, miss)), *_min_dcf(fa, miss, params),
        n_target, len(scores) - n_target,
    )


def write_metric_report(rows: Iterable[MetricReportRow], path: str | Path) -> None:
    """One CSV row per report row, in ``REPORT_COLUMNS`` order, ``repr`` of each float."""
    write_csv(path, REPORT_COLUMNS, map(astuple, rows))
