import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svbackend.dataset import TrialList
from svbackend.gplda import ScoreSet
from svbackend.metrics import (
    DcfParams,
    MetricReportRow,
    _corner_candidates,
    evaluate,
    write_metric_report,
)

from conftest import make_scoreset, traced_peak
from oracles import (
    eer_brute,
    hull_eer,
    inner_corners,
    min_dcf_brute,
    operating_points,
    sorted_staircase,
    staircase_corners,
)


class TestPinnedCases:
    def test_worked_example(self):
        # targets {2, 3} vs nontargets {1, 2.5}: interpolating between the
        # thresholds at 2 and 3 reaches FA == MISS == 1/4
        row = evaluate(make_scoreset([2.0, 3.0], [1.0, 2.5]))
        assert row.eer == pytest.approx(0.25, abs=1e-12)

    def test_perfect_separation(self):
        ss = make_scoreset([3.0, 4.0], [1.0, 2.0])
        assert evaluate(ss).eer == 0.0
        assert evaluate(ss).min_dcf == 0.0

    def test_chance_on_ties(self):
        ss = make_scoreset([1.0, 1.0], [1.0, 1.0])
        assert evaluate(ss).eer == pytest.approx(0.5, abs=1e-12)

    def test_hull_vertex_on_the_diagonal_is_the_end_of_its_edge(self):
        # hull (0, 1), (1/3, 1/3), (1, 0): the first edge ends on the diagonal
        ss = make_scoreset([0.0, 1.0, 1.0], [0.0, 0.0, 1.0])
        fa, miss = _corner_candidates(ss.values("raw"), ss.trial_list.is_target)
        assert list(zip(fa, miss)) == [(1.0, 0.0), (1.0, 0.0), (1 / 3, 1 / 3), (0.0, 1.0)]
        assert evaluate(ss).eer == 1 / 3

    def test_all_equal_min_dcf_is_degenerate_floor(self):
        ss = make_scoreset([1.0, 1.0], [1.0, 1.0])
        res = evaluate(ss)
        assert res.min_dcf == pytest.approx(0.1, abs=1e-12)
        assert res.min_dcf_normalized == pytest.approx(1.0, abs=1e-12)

    def test_dcf_params_validation(self):
        with pytest.raises(ValueError):
            DcfParams(c_miss=0.0)
        with pytest.raises(ValueError):
            DcfParams(p_target=1.0)
        assert DcfParams().floor == pytest.approx(0.1)


class TestOracleEquivalence:
    def test_random_50_trial_set(self, rng):
        tar = rng.standard_normal(20).tolist()
        non = (rng.standard_normal(30) - 0.5).tolist()
        ss = make_scoreset(tar, non)
        p = DcfParams()
        row = evaluate(ss, params=p)
        assert row.eer == pytest.approx(eer_brute(np.array(tar), np.array(non)), abs=1e-12)
        assert row.min_dcf == pytest.approx(
            min_dcf_brute(np.array(tar), np.array(non), p.c_miss, p.c_fa, p.p_target),
            abs=1e-12,
        )

    @settings(max_examples=150, deadline=None)
    @given(
        tar=st.lists(
            st.integers(min_value=-6, max_value=6).map(lambda i: i / 2.0),
            min_size=1, max_size=6,
        ),
        non=st.lists(
            st.integers(min_value=-6, max_value=6).map(lambda i: i / 2.0),
            min_size=1, max_size=6,
        ),
    )
    def test_small_sets_match_brute_force(self, tar, non):
        # half-integer grid forces plenty of ties across the two classes
        ss = make_scoreset(tar, non)
        t, n = np.array(tar), np.array(non)
        assert evaluate(ss).eer == pytest.approx(eer_brute(t, n), abs=1e-12)
        p = DcfParams()
        assert evaluate(ss, params=p).min_dcf == pytest.approx(
            min_dcf_brute(t, n, p.c_miss, p.c_fa, p.p_target), abs=1e-12
        )

    @settings(max_examples=60, deadline=None)
    @given(
        tar=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8),
        non=st.lists(st.floats(-5, 5, allow_nan=False), min_size=1, max_size=8),
    )
    def test_bounds_hold(self, tar, non):
        ss = make_scoreset(tar, non)
        e = evaluate(ss).eer
        assert 0.0 <= e <= 1.0
        p = DcfParams()
        res = evaluate(ss, params=p)
        assert 0.0 <= res.min_dcf <= p.floor + 1e-12


_HALF_INTEGERS = st.lists(
    st.integers(min_value=-6, max_value=6).map(lambda i: i / 2.0), min_size=1, max_size=40
)


def pooled_scoreset(values: np.ndarray, is_target: np.ndarray) -> ScoreSet:
    """Scores of one enrol/test id pair per trial, built without per-trial ids."""
    code = np.zeros(values.size, dtype=np.intp)
    return ScoreSet(TrialList(["e"], ["t"], code, code, is_target), values)


def candidates_of(ss: ScoreSet) -> list[tuple[float, float]]:
    fa, miss = _corner_candidates(ss.raw, ss.trial_list.is_target)
    return list(zip(fa.tolist(), miss.tolist()))


def check_against_full_staircase(ss: ScoreSet) -> None:
    """The candidates are staircase points in staircase order and hold
    every inner corner; EER and minDCF equal the full staircase's hull
    crossing and minimum cost, bit for bit."""
    is_target = ss.trial_list.is_target
    fa, miss = sorted_staircase(ss.raw[is_target], ss.raw[~is_target])
    full = list(zip(fa.tolist(), miss.tolist()))
    position = {p: i for i, p in enumerate(full)}
    candidates = candidates_of(ss)
    at = [position[p] for p in candidates]
    assert at == sorted(at)
    assert set(inner_corners(fa, miss)) <= set(candidates)
    p = DcfParams()
    row = evaluate(ss, params=p)
    assert row.eer == hull_eer(full)
    loop_costs = [p.c_miss * p.p_target * m + p.c_fa * (1.0 - p.p_target) * f for f, m in full]
    assert row.min_dcf == min(loop_costs)


class TestCornerCandidates:
    @settings(max_examples=150, deadline=None)
    @given(tar=_HALF_INTEGERS, non=_HALF_INTEGERS)
    def test_candidates_hold_the_corners_and_the_metrics(self, tar, non):
        # ties on the half-integer grid make long horizontal, vertical and
        # diagonal runs in the staircase
        check_against_full_staircase(make_scoreset(tar, non))

    @pytest.mark.parametrize("target_share", [0.001, 0.3])
    def test_candidates_hold_the_corners_and_the_metrics_at_scale(self, rng, target_share):
        # 1M interleaved trials on a 0.01 grid: most thresholds are tied
        is_target = rng.random(1_000_000) < target_share
        values = np.round(rng.standard_normal(is_target.size) + 2.0 * is_target, 2)
        check_against_full_staircase(pooled_scoreset(values, is_target))

    @settings(max_examples=50, deadline=None)
    @given(tar=_HALF_INTEGERS, non=_HALF_INTEGERS)
    def test_one_candidate_per_distinct_target_score(self, tar, non):
        values = np.array([*tar, *non])
        fa, miss = _corner_candidates(values, np.arange(values.size) < len(tar))
        assert fa.size == miss.size == len(set(tar)) + 2

    def test_oracle_corners_of_a_separated_set(self):
        tar, non = np.arange(100.0, 200.0), np.arange(100.0)
        fa, miss = sorted_staircase(tar, non)
        assert fa.size == 201
        assert staircase_corners(fa, miss) == [(1.0, 0.0), (0.0, 0.0), (0.0, 1.0)]

    def test_evaluate_holds_under_two_score_columns(self, rng):
        # 1M continuous scores, 0.1% targets as in a full cross of 1000
        # speakers: one sorted copy of the pooled column, no full staircase
        n = 1_000_000
        is_target = rng.random(n) < 0.001
        ss = pooled_scoreset(rng.standard_normal(n) + is_target, is_target)
        assert traced_peak(evaluate, ss) < 2 * ss.raw.nbytes

    def test_evaluate_of_a_target_heavy_set_holds_under_four_score_columns(self, rng):
        # 1M continuous scores, 30% targets: 300k distinct target scores,
        # whose points the hull chains as Python floats
        n = 1_000_000
        is_target = rng.random(n) < 0.3
        ss = pooled_scoreset(rng.standard_normal(n) + is_target, is_target)
        assert traced_peak(evaluate, ss) < 4 * ss.raw.nbytes


class TestInvariance:
    def test_monotone_transforms(self, rng):
        tar = rng.standard_normal(15).tolist()
        non = (rng.standard_normal(25) - 0.4).tolist()
        base = make_scoreset(tar, non)
        affine = make_scoreset([2 * s + 3 for s in tar], [2 * s + 3 for s in non])
        tanh = make_scoreset([math.tanh(s) for s in tar], [math.tanh(s) for s in non])
        assert evaluate(base).eer == pytest.approx(evaluate(affine).eer, abs=1e-12)
        assert evaluate(base).eer == pytest.approx(evaluate(tanh).eer, abs=1e-12)
        assert evaluate(base).min_dcf == pytest.approx(evaluate(affine).min_dcf, abs=1e-12)
        assert evaluate(base).min_dcf == pytest.approx(evaluate(tanh).min_dcf, abs=1e-12)


class TestCandidatePoints:
    def test_monotone(self, rng):
        ss = make_scoreset(rng.standard_normal(10).tolist(), rng.standard_normal(10).tolist())
        pts = candidates_of(ss)
        fa = [p[0] for p in pts]
        miss = [p[1] for p in pts]
        assert all(a >= b for a, b in zip(fa, fa[1:]))
        assert all(a <= b for a, b in zip(miss, miss[1:]))

    def test_extremes_always_present(self):
        # reversed scores: every threshold misorders the classes
        pts = candidates_of(make_scoreset([1.0, 2.0], [3.0, 4.0]))
        assert (1.0, 0.0) in pts and (0.0, 1.0) in pts

    def test_perfect_contains_origin(self):
        assert (0.0, 0.0) in candidates_of(make_scoreset([3.0], [1.0]))

    def test_are_loop_operating_points(self, rng):
        tar = rng.standard_normal(5)
        non = rng.standard_normal(5)
        ref = operating_points(tar, non)
        at = [ref.index(p) for p in candidates_of(make_scoreset(tar.tolist(), non.tolist()))]
        assert at == sorted(at)


class TestErrorsAndReport:
    def test_one_class_rejected(self):
        with pytest.raises(ValueError, match="at least one target"):
            evaluate(make_scoreset([], [1.0]))
        with pytest.raises(ValueError, match="at least one target"):
            evaluate(make_scoreset([1.0], []))

    def test_which_normalized_requires_normalized(self):
        ss = make_scoreset([1.0], [0.0])
        with pytest.raises(ValueError, match="no normalized"):
            evaluate(ss, which="normalized")
        ss2 = ScoreSet(ss.trial_list, ss.raw, [2.0, 1.0])
        assert evaluate(ss2, which="normalized").eer == 0.0

    def test_report_csv(self, tmp_path):
        row = evaluate(make_scoreset([2.0, 3.0], [1.0, 2.5]), "cond", "sys")
        path = tmp_path / "report.csv"
        write_metric_report([row], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "condition,system,eer,min_dcf,min_dcf_normalized,n_target,n_nontarget"
        assert lines[1].startswith("cond,sys,0.25,")
        assert isinstance(row, MetricReportRow)
