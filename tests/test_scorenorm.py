import warnings

import numpy as np
import pytest

from svbackend import dataset, scorenorm
from svbackend.dataset import GeneratorConfig, apply_duration_noise
from svbackend.gplda import PldaModel, ScoreSet, score_trials
from svbackend.scorenorm import cohort_score_matrix, snorm, snorm_from_cohort_scores

from conftest import make_dataset, make_trials
from oracles import row_mean_std


def two_trial_scores():
    return ScoreSet(make_trials([("e1", "t1", True), ("e2", "t2", False)]), [1.0, 2.0])


def simple_model(rng, k=4, q=2):
    u1 = 0.8 * rng.standard_normal((k, q))
    r = 0.3 * rng.standard_normal((k, k))
    sw = r @ r.T + 0.4 * np.eye(k)
    lam = np.linalg.inv(sw)
    return PldaModel(rng.standard_normal(k), u1, (lam + lam.T) / 2)


def snorm_setup(rng, n_cohort=20):
    """Model, enrol and test sets, their scored full trial grid and a cohort."""
    m = simple_model(rng)
    enrol = make_dataset(rng.standard_normal((5, 4)), prefix="e")
    test = make_dataset(rng.standard_normal((6, 4)), prefix="t")
    trials = make_trials(
        (e, t, (i + j) % 4 == 0)
        for i, e in enumerate(enrol.ids)
        for j, t in enumerate(test.ids)
    )
    scores = score_trials(m, enrol, test, trials)
    cohort = make_dataset(rng.standard_normal((n_cohort, 4)), prefix="c")
    return m, enrol, test, scores, cohort


class TestFormula:
    def test_hand_case_matches_direct_computation(self):
        scores = two_trial_scores()
        enrol_cohort = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 3.0]])  # rows e1, e2
        test_cohort = np.array([[0.0, 2.0, 4.0], [-1.0, 0.0, 1.0]])  # rows t1, t2
        out = snorm_from_cohort_scores(scores, enrol_cohort, test_cohort)

        # spreadsheet-style oracle: population mean/std per side
        def norm_one(s, e_arr, t_arr):
            mu_e, sd_e = np.mean(e_arr), np.std(e_arr)
            mu_t, sd_t = np.mean(t_arr), np.std(t_arr)
            return 0.5 * ((s - mu_e) / sd_e + (s - mu_t) / sd_t)

        expected = [
            norm_one(1.0, enrol_cohort[0], test_cohort[0]),
            norm_one(2.0, enrol_cohort[1], test_cohort[1]),
        ]
        got = out.values("normalized")
        np.testing.assert_allclose(got, expected, atol=1e-12)
        # frozen literals: -(1/2)*sqrt(3/8) and sqrt(3/2)
        assert got[0] == pytest.approx(-0.5 * np.sqrt(3.0 / 8.0), abs=1e-12)
        assert got[1] == pytest.approx(np.sqrt(3.0 / 2.0), abs=1e-12)

    def test_identity_when_cohort_scores_standardized(self):
        scores = two_trial_scores()
        std = np.array([-1.0, 0.0, 1.0]) * np.sqrt(3.0 / 2.0)  # zero mean, unit pop std
        table_e = np.array([std, std])
        table_t = np.array([std, std])
        out = snorm_from_cohort_scores(scores, table_e, table_t)
        np.testing.assert_allclose(out.values("normalized"), out.values("raw"), atol=1e-12)

    def test_affine_invariance(self, rng):
        scores = two_trial_scores()
        e_arrs = rng.standard_normal((2, 5))
        t_arrs = rng.standard_normal((2, 5))
        base = snorm_from_cohort_scores(scores, e_arrs, t_arrs).values("normalized")
        a, b = 3.7, -2.2
        mapped_scores = ScoreSet(scores.trial_list, a * scores.raw + b)
        mapped = snorm_from_cohort_scores(
            mapped_scores, a * e_arrs + b, a * t_arrs + b
        ).values("normalized")
        np.testing.assert_allclose(mapped, base, atol=1e-10)

    def test_equals_per_trial_loop_bit_for_bit(self, rng):
        rows = [
            (f"e{i % 3}", f"t{i % 4}", i % 5 == 0, float(rng.standard_normal()))
            for i in range(24)
        ]
        scores = ScoreSet(make_trials(row[:3] for row in rows), [row[3] for row in rows])
        e_table = {f"e{i}": rng.standard_normal(7) for i in range(3)}
        t_table = {f"t{i}": rng.standard_normal(9) for i in range(4)}
        tl = scores.trial_list
        out = snorm_from_cohort_scores(
            scores,
            np.array([e_table[utt] for utt in tl.enrol_ids]),
            np.array([t_table[utt] for utt in tl.test_ids]),
        )
        # the per-trial Python loop that the array gathers replace
        expected = []
        for enrol, test, _, raw in rows:
            e, t = e_table[enrol], t_table[test]
            mu_e, sd_e = float(e.mean()), float(e.std())
            mu_t, sd_t = float(t.mean()), float(t.std())
            expected.append(0.5 * ((raw - mu_e) / sd_e + (raw - mu_t) / sd_t))
        assert out.values("normalized").tolist() == expected

    @pytest.mark.parametrize("side", ["enrol", "test"])
    def test_cohort_rows_must_match_id_table(self, side):
        ok = np.array([[0.0, 1.0, 2.0], [1.0, 2.0, 4.0]])
        short = {"enrol": ok, "test": ok, side: ok[:1]}
        message = rf"{side} cohort scores must be one row per {side} id \(2\), got shape \(1, 3\)"
        with pytest.raises(ValueError, match=message):
            snorm_from_cohort_scores(two_trial_scores(), short["enrol"], short["test"])

    @pytest.mark.parametrize("block", [1, 40, 1 << 16])
    @pytest.mark.parametrize("shape", [(1, 2), (37, 11), (9, 1500)])
    def test_row_block_stats_bit_identical_to_whole_matrix(self, rng, monkeypatch, block, shape):
        monkeypatch.setattr(dataset, "_GRID_BLOCK", block)
        scale = 10.0 ** rng.integers(-3, 4, size=(shape[0], 1))
        scores = scale * rng.standard_normal(shape) + 5.0
        mu, sd = scorenorm._side_stats("enrol", scores, [f"e{i}" for i in range(shape[0])])
        ref_mu, ref_sd = row_mean_std(scores)
        assert np.array_equal(mu, ref_mu) and np.array_equal(sd, ref_sd)

    def test_degenerate_cohort_reports_side_and_id(self):
        scores = two_trial_scores()
        flat = np.ones(4)
        ok = np.array([0.0, 1.0, 2.0, 3.0])
        with pytest.raises(ValueError, match="enrol side for 'e1'"):
            snorm_from_cohort_scores(scores, np.array([flat, ok]), np.array([ok, ok]))
        with pytest.raises(ValueError, match="test side for 't2'"):
            snorm_from_cohort_scores(scores, np.array([ok, ok]), np.array([ok, flat]))

    @pytest.mark.parametrize(
        "enrol, test, message",
        [
            (np.empty((2, 0)), [[0.0, 1.0]] * 2, "empty cohort: no scores on enrol side for 'e1'"),
            ([[0.0, 1.0]] * 2, np.empty((2, 0)), "empty cohort: no scores on test side for 't1'"),
            ([[0.0, 1.0], [np.inf, 1.0]], [[0.0, 1.0]] * 2,
             "non-finite cohort score on enrol side for 'e2'"),
            ([[0.0, 1.0]] * 2, [[0.0, 1.0], [2.0, np.nan]],
             "non-finite cohort score on test side for 't2'"),
        ],
        ids=["empty-enrol", "empty-test", "inf-enrol", "nan-test"],
    )
    def test_empty_or_non_finite_cohort_named_without_warnings(self, enrol, test, message):
        """Raised before any statistic, so numpy warns of no empty slice or inf - inf."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"^{message}$"):
                snorm_from_cohort_scores(two_trial_scores(), np.array(enrol), np.array(test))

    @pytest.mark.parametrize(
        "raw, enrol, message",
        [
            ([1.0, -1.0], [[-1e200, 1e200]],
             "^degenerate cohort: non-finite score variance on enrol side for 'e1'$"),
            ([1e200, -1.0], [[0.0, 1e-150]], "^non-finite normalized score for trial 0: "),
        ],
        ids=["spread", "raw"],
    )
    def test_overflow_fails_a_check_without_warnings(self, raw, enrol, message):
        """An overflowing cohort spread or normalized score raises; neither
        side's term is dropped as a division by inf."""
        scores = ScoreSet(make_trials([("e1", "t1", True), ("e1", "t2", False)]), raw)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                snorm_from_cohort_scores(scores, np.array(enrol), np.array([[0.0, 1.0], [0.0, 2.0]]))


class TestEndToEnd:
    def test_fills_normalized_keeps_raw(self, rng):
        m, enrol, test, scores, cohort = snorm_setup(rng)
        out = snorm(m, scores, enrol, test, cohort)
        assert out.has_normalized
        np.testing.assert_array_equal(out.values("raw"), scores.values("raw"))

    def test_cohort_permutation_invariance(self, rng):
        m, enrol, test, scores, cohort = snorm_setup(rng)
        shuffled = cohort.subset(rng.permutation(len(cohort)))
        a = snorm(m, scores, enrol, test, cohort).values("normalized")
        b = snorm(m, scores, enrol, test, shuffled).values("normalized")
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_symmetric_for_swapped_trials(self, rng):
        # same utterance set on both sides: swapping enrol/test roles of a
        # pair keeps the normalized score (raw scoring is symmetric)
        m = simple_model(rng)
        pool = make_dataset(rng.standard_normal((6, 4)), prefix="u")
        trials = make_trials([("u0000", "u0001", True), ("u0001", "u0000", True)])
        scores = score_trials(m, pool, pool, trials)
        cohort = make_dataset(rng.standard_normal((15, 4)), prefix="c")
        out = snorm(m, scores, pool, pool, cohort).values("normalized")
        assert out[0] == pytest.approx(out[1], abs=1e-10)

    def test_cohort_matrix_matches_score_trials(self, rng):
        m, enrol, test, scores, cohort = snorm_setup(rng, n_cohort=4)
        mat = cohort_score_matrix(m, enrol, cohort)
        trials = make_trials((e, c, False) for e in enrol.ids for c in cohort.ids)
        ref = score_trials(m, enrol, cohort, trials).values("raw").reshape(mat.shape)
        np.testing.assert_allclose(mat, ref, atol=1e-10)

    def test_unknown_trial_ids(self, rng):
        m, enrol, test, scores, cohort = snorm_setup(rng)
        bad = ScoreSet(make_trials([("missing", test.ids[0], True)]), [0.0])
        with pytest.raises(ValueError, match="unknown enrol id"):
            snorm(m, bad, enrol, test, cohort)

    def test_unknown_test_id_names_its_first_trial(self, rng):
        m, enrol, test, scores, cohort = snorm_setup(rng)
        rows = [(enrol.ids[0], test.ids[0], True), (enrol.ids[1], "nope", False),
                (enrol.ids[0], "nope", False)]
        bad = ScoreSet(make_trials(rows), [0.0, 1.0, 2.0])
        with pytest.raises(ValueError, match="^trial 1: unknown test id 'nope'$"):
            snorm(m, bad, enrol, test, cohort)

    def test_gathers_rows_by_id_from_shuffled_datasets_with_extra_rows(self, rng):
        m = simple_model(rng)
        enrol = make_dataset(rng.standard_normal((7, 4)), prefix="e")
        test = make_dataset(rng.standard_normal((9, 4)), prefix="t")
        cohort = make_dataset(rng.standard_normal((11, 4)), prefix="c")
        # trials use enrol rows 5, 1, 3 and test rows 8, 0, 6, 2, first seen in that order
        rows = [
            (enrol.ids[e], test.ids[t], (e + t) % 3 == 0)
            for e in (5, 1, 3) for t in (8, 0, 6, 2) if (e, t) != (1, 6)
        ]
        raw = rng.standard_normal(len(rows))
        scores = ScoreSet(make_trials(rows), raw)
        assert scores.trial_list.enrol_ids == (enrol.ids[5], enrol.ids[1], enrol.ids[3])
        out = snorm(m, scores, enrol, test, cohort)
        # the per-trial formula on cohort-matrix rows picked by id
        e_rows = dict(zip(enrol.ids, cohort_score_matrix(m, enrol, cohort)))
        t_rows = dict(zip(test.ids, cohort_score_matrix(m, test, cohort)))
        expected = []
        for (e_id, t_id, _), s in zip(rows, raw.tolist()):
            e, t = e_rows[e_id], t_rows[t_id]
            mu_e, sd_e = float(e.mean()), float(e.std())
            mu_t, sd_t = float(t.mean()), float(t.std())
            expected.append(0.5 * ((s - mu_e) / sd_e + (s - mu_t) / sd_t))
        assert out.values("normalized").tolist() == expected
        assert np.array_equal(out.raw, raw)


class TestMatchedLengthCohort:
    """A matched-length cohort is the raw cohort through ``apply_duration_noise``."""

    def test_zero_noise_keeps_vectors(self, rng):
        m, enrol, test, scores, base = snorm_setup(rng)
        noise = GeneratorConfig(
            dim=3, eigenvoice_dim=1, duration_noise_scale=0.0, duration_ref_sec=100.0
        )
        for duration in (100.0, 10.0):
            out = apply_duration_noise(base, duration, noise, seed=3)
            np.testing.assert_array_equal(out.matrix(), base.matrix())
            a = snorm(m, scores, enrol, test, out).values("normalized")
            assert a.tolist() == snorm(m, scores, enrol, test, base).values("normalized").tolist()

    def test_deterministic_and_records_duration(self, rng):
        m, enrol, test, scores, base = snorm_setup(rng)
        noise = GeneratorConfig(
            dim=3, eigenvoice_dim=1, duration_noise_scale=0.4, duration_ref_sec=100.0
        )
        a = apply_duration_noise(base, 25.0, noise, seed=5)
        b = apply_duration_noise(base, 25.0, noise, seed=5)
        assert a == b and a.ids == base.ids
        assert (a.durations == 25.0).all()
        same = [snorm(m, scores, enrol, test, c).values("normalized").tolist() for c in (a, b)]
        assert same[0] == same[1]
        c = apply_duration_noise(base, 25.0, noise, seed=6)
        assert not np.array_equal(a.matrix(), c.matrix())

    def test_added_noise_std_matches_model(self, rng):
        base = make_dataset(np.zeros((1000, 128)), prefix="c")
        noise = GeneratorConfig(
            dim=3, eigenvoice_dim=1, duration_noise_scale=0.4, duration_ref_sec=100.0
        )
        out = apply_duration_noise(base, 25.0, noise, seed=6)
        assert out.matrix().std() == pytest.approx(noise.noise_sigma(25.0), rel=0.02)

    def test_empty_cohort_rejected(self, rng):
        m, enrol, test, scores, _ = snorm_setup(rng)
        empty = make_dataset(np.empty((0, 4)))
        with pytest.raises(ValueError, match="cohort must be non-empty"):
            cohort_score_matrix(m, enrol, empty)
        with pytest.raises(ValueError, match="cohort must be non-empty"):
            snorm(m, scores, enrol, test, empty)


@pytest.mark.parametrize("side", ["ds", "cohort"], ids=["set", "cohort"])
def test_cohort_score_matrix_names_the_model_dimension(rng, side):
    m = simple_model(rng)
    dims = dict(ds=4, cohort=4) | {side: 6}
    ds = make_dataset(rng.standard_normal((2, dims["ds"])))
    cohort = make_dataset(rng.standard_normal((3, dims["cohort"])), prefix="c")
    with pytest.raises(ValueError, match=f"^{side} has dimension 6, model expects 4$"):
        cohort_score_matrix(m, ds, cohort)


@pytest.mark.parametrize("side", ["enrol", "test", "cohort"])
def test_snorm_names_the_set_and_its_dimension(rng, side):
    m, enrol, test, scores, cohort = snorm_setup(rng)
    sets = dict(enrol=enrol, test=test, cohort=cohort)
    sets[side] = make_dataset(rng.standard_normal((len(sets[side]), 6)), prefix=side[0])
    with pytest.raises(ValueError, match=f"^{side} has dimension 6, model expects 4$"):
        snorm(m, scores, **sets)
