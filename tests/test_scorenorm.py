import numpy as np
import pytest

from svbackend.dataset import DurationNoiseModel, Trial
from svbackend.gplda import PldaModel, ScoredTrial, ScoreSet, score_trials
from svbackend.scorenorm import (
    Cohort,
    cohort_score_matrix,
    matched_length_cohort,
    snorm,
    snorm_from_cohort_scores,
)

from conftest import make_dataset


def two_trial_scores():
    return ScoreSet(
        (
            ScoredTrial(Trial("e1", "t1", True), 1.0),
            ScoredTrial(Trial("e2", "t2", False), 2.0),
        )
    )


def simple_model(rng, k=4, q=2):
    u1 = 0.8 * rng.standard_normal((k, q))
    r = 0.3 * rng.standard_normal((k, k))
    sw = r @ r.T + 0.4 * np.eye(k)
    lam = np.linalg.inv(sw)
    return PldaModel(rng.standard_normal(k), u1, (lam + lam.T) / 2)


class TestFormula:
    def test_hand_case_matches_direct_computation(self):
        scores = two_trial_scores()
        enrol_cohort = {"e1": np.array([0.0, 1.0, 2.0]), "e2": np.array([1.0, 2.0, 3.0])}
        test_cohort = {"t1": np.array([0.0, 2.0, 4.0]), "t2": np.array([-1.0, 0.0, 1.0])}
        out = snorm_from_cohort_scores(scores, enrol_cohort, test_cohort)

        # spreadsheet-style oracle: population mean/std per side
        def norm_one(s, e_arr, t_arr):
            mu_e, sd_e = np.mean(e_arr), np.std(e_arr)
            mu_t, sd_t = np.mean(t_arr), np.std(t_arr)
            return 0.5 * ((s - mu_e) / sd_e + (s - mu_t) / sd_t)

        expected = [
            norm_one(1.0, enrol_cohort["e1"], test_cohort["t1"]),
            norm_one(2.0, enrol_cohort["e2"], test_cohort["t2"]),
        ]
        got = out.values("normalized")
        np.testing.assert_allclose(got, expected, atol=1e-12)
        # frozen literals: -(1/2)*sqrt(3/8) and sqrt(3/2)
        assert got[0] == pytest.approx(-0.5 * np.sqrt(3.0 / 8.0), abs=1e-12)
        assert got[1] == pytest.approx(np.sqrt(3.0 / 2.0), abs=1e-12)

    def test_identity_when_cohort_scores_standardized(self):
        scores = two_trial_scores()
        std = np.array([-1.0, 0.0, 1.0]) * np.sqrt(3.0 / 2.0)  # zero mean, unit pop std
        table_e = {"e1": std, "e2": std}
        table_t = {"t1": std, "t2": std}
        out = snorm_from_cohort_scores(scores, table_e, table_t)
        np.testing.assert_allclose(out.values("normalized"), out.values("raw"), atol=1e-12)

    def test_affine_invariance(self, rng):
        scores = two_trial_scores()
        e_arrs = {k: rng.standard_normal(5) for k in ("e1", "e2")}
        t_arrs = {k: rng.standard_normal(5) for k in ("t1", "t2")}
        base = snorm_from_cohort_scores(scores, e_arrs, t_arrs).values("normalized")
        a, b = 3.7, -2.2
        mapped_scores = ScoreSet(
            tuple(
                ScoredTrial(st.trial, a * st.raw_llr + b) for st in scores.trials
            )
        )
        mapped = snorm_from_cohort_scores(
            mapped_scores,
            {k: a * v + b for k, v in e_arrs.items()},
            {k: a * v + b for k, v in t_arrs.items()},
        ).values("normalized")
        np.testing.assert_allclose(mapped, base, atol=1e-10)

    def test_equals_per_trial_loop_bit_for_bit(self, rng):
        trials = [
            ScoredTrial(Trial(f"e{i % 3}", f"t{i % 4}", i % 5 == 0), float(rng.standard_normal()))
            for i in range(24)
        ]
        scores = ScoreSet(tuple(trials))
        e_table = {f"e{i}": rng.standard_normal(7) for i in range(3)}
        t_table = {f"t{i}": rng.standard_normal(9) for i in range(4)}
        out = snorm_from_cohort_scores(scores, e_table, t_table)
        # the per-trial Python loop that the array gathers replace
        expected = []
        for st in trials:
            e, t = e_table[st.trial.enrol_id], t_table[st.trial.test_id]
            mu_e, sd_e = float(e.mean()), float(e.std())
            mu_t, sd_t = float(t.mean()), float(t.std())
            expected.append(0.5 * ((st.raw_llr - mu_e) / sd_e + (st.raw_llr - mu_t) / sd_t))
        assert out.values("normalized").tolist() == expected

    def test_missing_cohort_scores_named(self):
        ok = np.array([0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="no test cohort scores for 't2'"):
            snorm_from_cohort_scores(two_trial_scores(), {"e1": ok, "e2": ok}, {"t1": ok})

    def test_degenerate_cohort_reports_side_and_id(self):
        scores = two_trial_scores()
        flat = np.ones(4)
        ok = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="enrol side for 'e1'"):
            snorm_from_cohort_scores(scores, {"e1": flat, "e2": ok}, {"t1": ok, "t2": ok})
        with pytest.raises(ValueError, match="test side for 't2'"):
            snorm_from_cohort_scores(scores, {"e1": ok, "e2": ok}, {"t1": ok, "t2": flat})


class TestEndToEnd:
    def _setup(self, rng, n_cohort=20):
        m = simple_model(rng)
        enrol = make_dataset(rng.standard_normal((5, 4)), prefix="e")
        test = make_dataset(rng.standard_normal((6, 4)), prefix="t")
        trials = [
            Trial(e.id, t.id, (i + j) % 4 == 0)
            for i, e in enumerate(enrol.items)
            for j, t in enumerate(test.items)
        ]
        scores = score_trials(m, enrol, test, trials)
        cohort = Cohort(make_dataset(rng.standard_normal((n_cohort, 4)), prefix="c"), "c")
        return m, enrol, test, scores, cohort

    def test_fills_normalized_keeps_raw(self, rng):
        m, enrol, test, scores, cohort = self._setup(rng)
        out = snorm(m, scores, enrol, test, cohort)
        assert out.has_normalized
        np.testing.assert_array_equal(out.values("raw"), scores.values("raw"))

    def test_cohort_permutation_invariance(self, rng):
        m, enrol, test, scores, cohort = self._setup(rng)
        perm = rng.permutation(len(cohort.vectors))
        shuffled = Cohort(cohort.vectors.subset(perm.tolist()), "c2")
        a = snorm(m, scores, enrol, test, cohort).values("normalized")
        b = snorm(m, scores, enrol, test, shuffled).values("normalized")
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_symmetric_for_swapped_trials(self, rng):
        # same utterance set on both sides: swapping enrol/test roles of a
        # pair keeps the normalized score (raw scoring is symmetric)
        m = simple_model(rng)
        pool = make_dataset(rng.standard_normal((6, 4)), prefix="u")
        trials = [Trial("u0000", "u0001", True), Trial("u0001", "u0000", True)]
        scores = score_trials(m, pool, pool, trials)
        cohort = Cohort(make_dataset(rng.standard_normal((15, 4)), prefix="c"), "c")
        out = snorm(m, scores, pool, pool, cohort).values("normalized")
        assert out[0] == pytest.approx(out[1], abs=1e-10)

    def test_cohort_matrix_matches_score_trials(self, rng):
        m, enrol, test, scores, cohort = self._setup(rng, n_cohort=4)
        mat = cohort_score_matrix(m, enrol, cohort)
        trials = [
            Trial(e.id, c.id, False)
            for e in enrol.items
            for c in cohort.vectors.items
        ]
        ref = score_trials(m, enrol, cohort.vectors, trials).values("raw").reshape(mat.shape)
        np.testing.assert_allclose(mat, ref, atol=1e-10)

    def test_unknown_trial_ids(self, rng):
        m, enrol, test, scores, cohort = self._setup(rng)
        bad = ScoreSet((ScoredTrial(Trial("missing", test.items[0].id, True), 0.0),))
        with pytest.raises(ValueError, match="unknown enrol id"):
            snorm(m, bad, enrol, test, cohort)


class TestMatchedLengthCohort:
    def test_zero_noise_keeps_vectors(self, rng):
        base = Cohort(make_dataset(rng.standard_normal((8, 3)), prefix="c"), "pool")
        noise = DurationNoiseModel(0.0, 100.0)
        out = matched_length_cohort(base, 100.0, noise, seed=3)
        np.testing.assert_array_equal(out.vectors.matrix(), base.vectors.matrix())
        out2 = matched_length_cohort(base, 10.0, noise, seed=3)
        np.testing.assert_array_equal(out2.vectors.matrix(), base.vectors.matrix())

    def test_deterministic_and_label_records_duration(self, rng):
        base = Cohort(make_dataset(rng.standard_normal((8, 3)), prefix="c"), "pool")
        noise = DurationNoiseModel(0.4, 100.0)
        a = matched_length_cohort(base, 25.0, noise, seed=5)
        b = matched_length_cohort(base, 25.0, noise, seed=5)
        assert a.vectors == b.vectors
        assert "25" in a.label
        assert all(iv.duration_sec == 25.0 for iv in a.vectors.items)

    def test_added_noise_std_matches_model(self, rng):
        base = Cohort(make_dataset(np.zeros((1000, 128)), prefix="c"), "pool")
        noise = DurationNoiseModel(0.4, 100.0)
        out = matched_length_cohort(base, 25.0, noise, seed=6)
        assert out.vectors.matrix().std() == pytest.approx(noise.sigma(25.0), rel=0.02)

    def test_empty_cohort_rejected(self):
        from svbackend.dataset import Dataset

        with pytest.raises(ValueError, match="non-empty"):
            Cohort(Dataset((), dim=3), "x")
