import csv
import re
import tempfile
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svbackend import dataset, gplda
from svbackend.dataset import Dataset, GeneratorConfig, csv_fields, ground_truth_subspace
from svbackend.dataset import Domain, synth_domain
from svbackend.gplda import (
    SCORE_COLUMNS,
    PldaModel,
    ScoreSet,
    length_normalize,
    load_plda,
    marginal_loglik,
    pair_llr,
    read_scores,
    save_loglik_trace,
    save_plda,
    score_trials,
    train_gplda,
    write_scores,
)

from svbackend.gplda import _speaker_stats, _spd_inverse

from conftest import make_dataset, make_scoreset, make_trials, shuffled_labeled_datasets
from oracles import pair_llr_two_grids, plda_pair_llr, reference_em, ridged_inverse
from oracles import speaker_loop_stats
from oracles import speaker_rows
from oracles import stacked_marginal_loglik


def random_model(rng, k=3, q=2):
    mean = rng.standard_normal(k)
    u1 = 0.8 * rng.standard_normal((k, q))
    r = 0.4 * rng.standard_normal((k, k))
    sigma_w = r @ r.T + 0.3 * np.eye(k)
    lam = np.linalg.inv(sigma_w)
    return PldaModel(mean, u1, (lam + lam.T) / 2)


def labeled_gaussian_dataset(rng, n_speakers=12, sessions=4, dim=5):
    values, speakers = [], []
    for s in range(n_speakers):
        center = rng.standard_normal(dim)
        for _ in range(sessions):
            values.append(center + 0.6 * rng.standard_normal(dim))
            speakers.append(f"s{s:02d}")
    return make_dataset(np.array(values), speakers=speakers)


class TestLengthNormalize:
    def test_unit_vector_unchanged(self):
        v = np.zeros(4)
        v[1] = 1.0
        ds = make_dataset(v[None, :])
        np.testing.assert_array_equal(length_normalize(ds).matrix()[0], v)

    def test_scale_invariance(self, rng):
        u = rng.standard_normal(5)
        unit = u / np.linalg.norm(u)
        scaled = make_dataset((7.3 * unit)[None, :])
        np.testing.assert_allclose(length_normalize(scaled).matrix()[0], unit, atol=1e-12)

    def test_all_outputs_unit_norm(self, rng):
        ds = make_dataset(rng.standard_normal((20, 6)))
        norms = np.linalg.norm(length_normalize(ds).matrix(), axis=1)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)

    def test_zero_vector_names_utterance(self):
        ds = make_dataset(np.array([[1.0, 0.0], [0.0, 0.0]]), prefix="z")
        with pytest.raises(ValueError, match="z0001"):
            length_normalize(ds)

    def test_idempotent(self, rng):
        ds = length_normalize(make_dataset(rng.standard_normal((5, 4))))
        again = length_normalize(ds)
        np.testing.assert_allclose(again.matrix(), ds.matrix(), atol=1e-15)


class TestModel:
    def test_caches_consistent(self, rng):
        m = random_model(rng)
        np.testing.assert_allclose(m.sigma_within @ m.lambda_prec, np.eye(m.dim), atol=1e-10)
        np.testing.assert_allclose(m.sigma_between, m.u1 @ m.u1.T, atol=1e-10)
        np.testing.assert_allclose(
            m.sigma_total, m.sigma_within + m.sigma_between, atol=1e-12
        )

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="symmetric"):
            PldaModel(np.zeros(2), np.zeros((2, 1)), np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(ValueError, match="positive definite"):
            PldaModel(np.zeros(2), np.zeros((2, 1)), -np.eye(2))
        with pytest.raises(ValueError, match="eigenvoices"):
            PldaModel(np.zeros(2), np.zeros((2, 3)), np.eye(2))


class TestTraining:
    def test_marginal_loglik_matches_stacked_gaussian_oracle(self, rng):
        m = random_model(rng, k=3, q=1)
        groups = [rng.standard_normal((n, 3)) + m.mean for n in (1, 2, 3)]
        values = np.concatenate(groups)
        speakers = [f"s{i}" for i, g in enumerate(groups) for _ in range(len(g))]
        ds = make_dataset(values, speakers=speakers)
        ours = marginal_loglik(m, ds)
        ref = stacked_marginal_loglik(m.mean, m.sigma_between, m.sigma_within, groups)
        assert ours == pytest.approx(ref, abs=1e-9)

    def test_em_monotone_loglik(self, rng):
        ds = labeled_gaussian_dataset(rng)
        m = train_gplda(ds, q=3, iters=12, seed=4)
        trace = np.array(m.loglik_trace)
        assert len(trace) == 13
        assert np.all(np.diff(trace) >= -1e-8)

    def test_trace_is_the_marginal_loglik_after_each_iteration(self, rng):
        # sessions 2..5 per speaker: four session-count groups
        values, speakers = [], []
        for s in range(16):
            center = rng.standard_normal(5)
            for _ in range(2 + s % 4):
                values.append(center + 0.6 * rng.standard_normal(5))
                speakers.append(f"s{s:02d}")
        ds = make_dataset(np.array(values), speakers=speakers)
        assert len(_speaker_stats(ds, np.zeros(5)).groups) == 4
        full = train_gplda(ds, q=3, iters=8, seed=2)
        for k in (0, 1, 5, 8):
            m = train_gplda(ds, q=3, iters=k, seed=2)
            assert m.loglik_trace == full.loglik_trace[: k + 1]
            assert m.loglik_trace[-1] == marginal_loglik(m, ds)

    def test_deterministic_given_seed(self, rng):
        ds = labeled_gaussian_dataset(rng)
        a = train_gplda(ds, q=2, iters=5, seed=7)
        b = train_gplda(ds, q=2, iters=5, seed=7)
        assert np.array_equal(a.u1, b.u1) and np.array_equal(a.lambda_prec, b.lambda_prec)
        c = train_gplda(ds, q=2, iters=5, seed=8)
        assert not np.array_equal(a.u1, c.u1)

    def test_q_bounds(self, rng):
        ds = labeled_gaussian_dataset(rng, dim=4)
        with pytest.raises(ValueError, match="^q must be an integer >= 1, got 0$"):
            train_gplda(ds, q=0)
        with pytest.raises(ValueError, match="exceeds"):
            train_gplda(ds, q=5)

    def test_singular_latent_moments_name_the_iteration(self, rng, monkeypatch):
        solve, calls = np.linalg.solve, []

        def singular_second_time(a, b):
            calls.append(a)
            if len(calls) == 2:
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", singular_second_time)
        with pytest.raises(ValueError, match="^singular latent-moment accumulator at iteration 1$"):
            train_gplda(labeled_gaussian_dataset(rng), q=2, iters=3)

    def test_needs_labels_and_two_speakers(self, rng):
        ds = make_dataset(rng.standard_normal((4, 3)), speakers=["a", "a", None, "a"])
        with pytest.raises(ValueError, match="labels"):
            train_gplda(ds, q=1)
        ds2 = make_dataset(rng.standard_normal((4, 3)), speakers=["a"] * 4)
        with pytest.raises(ValueError, match="two speakers"):
            train_gplda(ds2, q=1)

    def test_recovers_generating_covariances(self):
        # generate exactly from the model family, refit, compare moments
        cfg = GeneratorConfig(
            dim=4, n_speakers=200, sessions_per_speaker=10, eigenvoice_dim=2,
            speaker_scale=1.3, channel_scale=0.8, seed=9,
        )
        ds = synth_domain(cfg, Domain.IN_DOMAIN)
        m = train_gplda(ds, q=2, iters=60, seed=0)
        u = ground_truth_subspace(cfg)
        true_between = cfg.speaker_scale**2 * (u @ u.T)
        true_within = cfg.channel_scale**2 * np.eye(4)
        assert (
            np.linalg.norm(m.sigma_between - true_between) / np.linalg.norm(true_between)
            <= 0.10
        )
        assert (
            np.linalg.norm(m.sigma_within - true_within) / np.linalg.norm(true_within)
            <= 0.10
        )
        # independent method-of-moments oracle: speaker-mean scatter minus
        # the within part explained by averaging n_s sessions
        mat = ds.matrix()
        means = np.array([mat[speaker_rows(ds, c)].mean(axis=0) for c in range(len(ds.speakers))])
        centered = means - means.mean(axis=0)
        moment_between = (
            centered.T @ centered / len(means)
            - m.sigma_within / cfg.sessions_per_speaker
        )
        assert (
            np.linalg.norm(m.sigma_between - moment_between) / np.linalg.norm(moment_between)
            <= 0.05
        )

    def test_constant_coordinate_is_ridged_not_fatal(self, rng):
        # column 4 never varies, so every covariance EM forms is singular
        ds = labeled_gaussian_dataset(rng, n_speakers=20, sessions=4, dim=5)
        values = ds.matrix().copy()
        values[:, 4] = 1.0
        ds = make_dataset(values, speakers=ds.row_speakers())
        m = train_gplda(ds, q=2, iters=3, seed=0)
        for a in (m.mean, m.u1, m.lambda_prec, m.sigma_within, np.array(m.loglik_trace)):
            assert np.all(np.isfinite(a))
        assert np.linalg.eigvalsh(m.sigma_within)[0] > 0

    def test_indefinite_matrix_names_itself(self):
        with pytest.raises(ValueError, match="^test matrix is not positive definite"):
            _spd_inverse(np.diag([1.0, -1.0]), "test matrix")

    def test_full_q_matches_total_covariance(self, rng):
        ds = labeled_gaussian_dataset(rng, n_speakers=40, sessions=6, dim=4)
        m = train_gplda(ds, q=4, iters=40, seed=2)
        mat = ds.matrix()
        centered = mat - mat.mean(axis=0)
        total = centered.T @ centered / len(mat)
        assert np.linalg.norm(m.sigma_total - total) / np.linalg.norm(total) <= 0.10


def spd_with_condition(rng, dim: int, cond: float) -> np.ndarray:
    """A seeded symmetric matrix with eigenvalues log-spaced from 1 down to 1/cond."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    m = (q * np.logspace(0.0, -np.log10(cond), dim)) @ q.T
    return (m + m.T) / 2.0


def eigvalsh_ridges(m: np.ndarray) -> bool:
    """Whether the eigenvalue check (``gplda._COND_LIMIT``) ridges ``m``."""
    eigvals = np.linalg.eigvalsh(m)
    return bool(eigvals[0] <= 0 or eigvals[-1] > 1e12 * eigvals[0])


class TestSpdInverseGuard:
    @pytest.mark.parametrize("dim", [8, 150])
    @pytest.mark.parametrize("cond", [1e0, 1e2, 1e4, 1e6, 1e8, 1e9, 1e10, 1e11, 1e13, 1e14, 1e15])
    def test_takes_the_eigenvalue_checks_branch(self, dim, cond):
        m = spd_with_condition(np.random.default_rng(dim + int(np.log10(cond))), dim, cond)
        ridge = 1e-8 * np.trace(m) / dim * np.eye(dim)
        inverted = m + ridge if eigvalsh_ridges(m) else m
        other = m if eigvalsh_ridges(m) else m + ridge
        want = ridged_inverse(m)
        # two backward-stable inverses differ by up to about dim * eps * cond:
        # 1e-12 relative up to cond 1e4, and cond * 1e-16 above it
        tol = 1e-12 * max(1.0, 1e-4 * np.linalg.cond(inverted)) * np.linalg.norm(want)
        got = _spd_inverse(m, "m")
        assert np.array_equal(got, got.T)
        assert np.linalg.norm(got - want) <= tol
        assert np.linalg.norm(got - np.linalg.inv(other)) > tol  # the other branch is far

    @pytest.mark.parametrize(
        "m, error, message",
        [
            (np.diag([1.0, -1.0]), ValueError,
             "^m is not positive definite: Matrix is not positive definite$"),
            (np.zeros((3, 3)), ValueError,
             "^m is not positive definite: Matrix is not positive definite$"),
            (np.full((3, 3), np.nan), np.linalg.LinAlgError, "^m: .*did not converge"),
            (np.array([[1.0, np.nan], [np.nan, 1.0]]), ValueError, "^m: .*infs or NaNs"),
            (np.array([[1.0, 0.0], [np.nan, 1.0]]), ValueError,  # factors, fails the bound
             "^m: .*infs or NaNs"),
            (np.diag([np.inf, 1.0]), ValueError, "^m: .*infs or NaNs"),
        ],
        ids=["indefinite", "zero", "nan", "nan-off-diagonal", "nan-lower", "inf"],
    )
    def test_failures_are_the_eigenvalue_paths(self, m, error, message):
        """Each failure keeps its exception type and names the matrix."""
        with pytest.raises(error, match=message) as err:
            _spd_inverse(m, "m")
        assert type(err.value) is error

    @pytest.mark.parametrize("diag", [[1.0, 1e-13], [1.0, 0.0, 1.0]], ids=["1e-13", "singular"])
    def test_near_singular_diagonal_is_ridged(self, diag):
        m = np.diag(diag)
        assert eigvalsh_ridges(m)
        np.testing.assert_allclose(_spd_inverse(m, "m"), ridged_inverse(m), rtol=1e-12)

    def test_well_conditioned_training_skips_the_eigenvalue_check(self, rng, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(1) or eigvalsh(m))
        ds = labeled_gaussian_dataset(rng, n_speakers=30, sessions=5, dim=6)
        train_gplda(ds, q=3, iters=8, seed=0)
        assert calls == []
        with pytest.raises(ValueError):
            _spd_inverse(np.diag([1.0, -1.0]), "m")
        assert calls == [1]  # the patch counts the fallback's check


class TestSpeakerStatsAgainstSpeakerLoop:
    @settings(max_examples=120, deadline=None)
    @given(ds=shuffled_labeled_datasets())
    def test_vectorized_matches_per_speaker_loop(self, ds):
        center = ds.matrix().mean(axis=0)
        stats = _speaker_stats(ds, center)
        f, ns, s_phiphi = speaker_loop_stats(ds, center)
        assert stats.n_total == len(ds)
        assert np.linalg.norm(stats.s_phiphi - s_phiphi) <= 1e-12 * np.linalg.norm(s_phiphi)
        assert [n for n, _, _ in stats.groups] == np.unique(ns).tolist()
        for n, n_spk, rows in stats.groups:
            f_g, held = f[ns == n], stats.f[rows]
            assert n_spk == len(f_g) and np.all(stats.ns[rows] == n)
            gram = f_g.T @ f_g
            assert np.linalg.norm(held.T @ held - gram) <= 1e-12 * np.linalg.norm(gram)

    def test_a_group_holds_at_most_dim_rows(self, rng):
        # 4000 speakers x 2 sessions at dim 8: one group, held as 8 rows
        code = np.repeat(np.arange(4000), 2)
        values = rng.standard_normal((4000, 8))[code] + 0.5 * rng.standard_normal((8000, 8))
        ds = make_dataset(values, speakers=[f"s{c:04d}" for c in code])
        stats = _speaker_stats(ds, ds.matrix().mean(axis=0))
        assert [(n, n_spk) for n, n_spk, _ in stats.groups] == [(2, 4000)]
        assert stats.f.shape == (8, 8) and stats.ns.tolist() == [2] * 8

    @pytest.mark.parametrize(
        "dim, q, constant",
        [(6, 3, False), (6, 6, False), (6, 3, True)],
        ids=["ragged", "q-equals-dim", "constant-coordinate"],
    )
    def test_em_matches_the_per_speaker_reference(self, rng, dim, q, constant):
        # 2204 rows: groups of 5 and 3 sessions above dim speakers, 1, 2, 7
        # and 9 below it; a constant coordinate takes the ridge path
        counts = [5] * 300 + [3] * 200 + [1] * 4 + [2] * 3 + [7] * 5 + [9] * 2
        code = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        values = 2.0 * rng.standard_normal((len(counts), dim))[code]
        values += rng.standard_normal((len(code), dim))
        if constant:
            values[:, -1] = 1.0
        ds = make_dataset(values, speakers=[f"s{c:03d}" for c in code])
        stats = _speaker_stats(ds, ds.matrix().mean(axis=0))
        assert [len(stats.f[rows]) for _, _, rows in stats.groups] == [4, 3, 6, 6, 5, 2]
        m = train_gplda(ds, q=q, iters=6, seed=1)
        u1, lam, trace = reference_em(ds, q, 6, seed=1)
        assert np.linalg.norm(m.u1 - u1) <= 1e-9 * np.linalg.norm(u1)
        assert np.linalg.norm(m.lambda_prec - lam) <= 1e-9 * np.linalg.norm(lam)
        assert len(m.loglik_trace) == len(trace)
        for got, want in zip(m.loglik_trace, trace):
            assert abs(got - want) <= 1e-9 * abs(want)

    def test_unlabeled_row_still_rejected(self, rng):
        ds = make_dataset(rng.standard_normal((4, 2)), speakers=["a", "b", None, "a"])
        with pytest.raises(ValueError, match="speaker labels"):
            train_gplda(ds, q=1, iters=1)


class TestScoring:
    def test_zero_between_gives_zero_llr(self, rng):
        k = 3
        m = PldaModel(np.zeros(k), np.zeros((k, 1)), np.eye(k))
        for _ in range(5):
            u, v = rng.standard_normal((2, 1, k))
            assert abs(pair_llr(m, u, v)[0, 0]) < 1e-10

    def test_symmetry(self, rng):
        m = random_model(rng)
        a, b = rng.standard_normal((1, 3)), rng.standard_normal((1, 3))
        assert pair_llr(m, a, b)[0, 0] == pytest.approx(pair_llr(m, b, a)[0, 0], abs=1e-10)

    def test_hand_model_matches_joint_gaussian_oracle(self, rng):
        m = random_model(rng, k=2, q=1)
        for _ in range(10):
            a, b = rng.standard_normal(2), rng.standard_normal(2)
            ref = plda_pair_llr(m.mean, m.sigma_between, m.sigma_within, a, b)
            assert pair_llr(m, a[None], b[None])[0, 0] == pytest.approx(ref, abs=1e-8)

    def test_same_vector_dominates_far_pairs(self, rng):
        m = random_model(rng, k=4, q=2)
        w = rng.standard_normal((1, 4))
        own = pair_llr(m, w, w)[0, 0]
        far = pair_llr(m, w, w + 10.0 * rng.standard_normal((1000, 4)))
        assert np.mean(far) < own

    def test_shift_of_data_and_mean_preserves_llr(self, rng):
        m = random_model(rng)
        shift = rng.standard_normal(3)
        shifted = PldaModel(m.mean + shift, m.u1, m.lambda_prec)
        a, b = rng.standard_normal((1, 3)), rng.standard_normal((1, 3))
        assert pair_llr(m, a, b)[0, 0] == pytest.approx(
            pair_llr(shifted, a + shift, b + shift)[0, 0], abs=1e-10
        )

    def test_dim_mismatch(self, rng):
        m = random_model(rng)
        expected = r"^u: model expects \(n, 3\) rows, got shape \(1, 4\)$"
        with pytest.raises(ValueError, match=expected):
            pair_llr(m, np.zeros((1, 4)), np.zeros((1, 3)))


class TestBatchScoring:
    def _setup(self, rng, n_enrol=10, n_test=10):
        m = random_model(rng, k=4, q=2)
        enrol = make_dataset(rng.standard_normal((n_enrol, 4)), prefix="e")
        test = make_dataset(rng.standard_normal((n_test, 4)), prefix="t")
        trials = make_trials(
            (e, t, (i + j) % 3 == 0)
            for i, e in enumerate(enrol.ids)
            for j, t in enumerate(test.ids)
        )
        return m, enrol, test, trials

    def test_full_cross_matches_looped_single_scoring(self, rng):
        m, enrol, test, trials = self._setup(rng)
        ss = score_trials(m, enrol, test, trials)
        e_map = dict(zip(enrol.ids, enrol.matrix()))
        t_map = dict(zip(test.ids, test.matrix()))
        for e, t, raw in zip(*ss.trial_list.id_columns(), ss.raw):
            ref = pair_llr(m, e_map[e][None], t_map[t][None])[0, 0]
            assert raw == pytest.approx(ref, abs=1e-10)

    def test_empty_trials(self, rng):
        m, enrol, test, _ = self._setup(rng)
        assert len(score_trials(m, enrol, test, make_trials([]))) == 0

    def test_unknown_ids_reported(self, rng):
        m, enrol, test, trials = self._setup(rng, n_enrol=2, n_test=2)
        with pytest.raises(ValueError, match="unknown enrol id 'nope'"):
            score_trials(m, enrol, test, make_trials([("nope", test.ids[0], True)]))
        with pytest.raises(ValueError, match="unknown test id 'nope'"):
            score_trials(m, enrol, test, make_trials([(enrol.ids[0], "nope", True)]))


class TestOneGrid:
    """``pair_llr`` adds ``qu + qv`` into the cross-term grid a row block at a
    time; each entry must equal the two-grid expression bit for bit."""

    @pytest.mark.parametrize("block", [1, 7, 1 << 16])
    @pytest.mark.parametrize(
        "k, n_u, n_v", [(3, 0, 4), (3, 4, 0), (3, 1, 1), (5, 9, 5), (6, 40, 3), (20, 130, 300)]
    )
    def test_bit_identical_to_two_grid_expression(self, rng, monkeypatch, block, k, n_u, n_v):
        monkeypatch.setattr(dataset, "_GRID_BLOCK", block)
        m = random_model(rng, k=k, q=min(k, 4))
        u = 3.0 * rng.standard_normal((n_u, k))
        v = 3.0 * rng.standard_normal((n_v, k))
        grid = pair_llr(m, u, v)
        assert grid.shape == (n_u, n_v)
        assert np.array_equal(grid, pair_llr_two_grids(m, u, v))


class TestScoreSetAndPersistence:
    def test_scoreset_requires_finite(self):
        with pytest.raises(ValueError, match="non-finite"):
            ScoreSet(make_trials([("a", "b", True)]), [float("nan")])

    def test_values_and_normalized_guard(self):
        ss = ScoreSet(make_trials([("a", "b", True)]), [1.0])
        with pytest.raises(ValueError, match="no normalized"):
            ss.values("normalized")
        ss2 = ScoreSet(ss.trial_list, ss.raw, [2.0])
        assert ss2.values("normalized").tolist() == [2.0]
        assert ss2.values("raw").tolist() == [1.0]

    def test_plda_round_trip_exact(self, rng, tmp_path):
        ds = labeled_gaussian_dataset(rng)
        m = train_gplda(ds, q=2, iters=5, seed=1)
        path = tmp_path / "m.plda"
        save_plda(m, path)
        loaded = load_plda(path)
        assert np.array_equal(loaded.mean, m.mean)
        assert np.array_equal(loaded.u1, m.u1)
        assert np.array_equal(loaded.lambda_prec, m.lambda_prec)

    def test_loglik_trace_csv(self, rng, tmp_path):
        ds = labeled_gaussian_dataset(rng)
        m = train_gplda(ds, q=2, iters=3, seed=1)
        path = tmp_path / "trace.csv"
        save_loglik_trace(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "iteration,loglik"
        assert len(lines) == 1 + 4
        assert lines[1:] == [f"{i},{ll!r}" for i, ll in enumerate(m.loglik_trace)]

    def test_scores_csv_round_trip(self, rng, tmp_path):
        trials = make_trials([("e1", "t1", True), ("e2", "t2", False)])
        ss = ScoreSet(trials, [1.25, -3.5], [0.5, np.nan])
        path = tmp_path / "scores.csv"
        write_scores(ss, path)
        loaded = read_scores(path)
        assert loaded == ss


def _seed_write_scores(scores, path):
    """The row-by-row ``csv.writer`` writer that the columnar one must match."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["enrol", "test", "label", "raw_llr", "norm_llr"])
        enrol, test = scores.trial_list.id_columns()
        for k in range(len(scores)):
            norm = float(scores.normalized[k])
            w.writerow(
                [
                    enrol[k],
                    test[k],
                    "target" if scores.trial_list.is_target[k] else "nontarget",
                    repr(float(scores.raw[k])),
                    "" if np.isnan(norm) else repr(norm),
                ]
            )


_IDS = st.text(alphabet='ab ,"x\'', max_size=5)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


_PLAIN_IDS = st.text("ab", min_size=1, max_size=3)
_ODD_IDS = st.text('ab ,"x\n', max_size=4)


@st.composite
def score_files(draw) -> tuple[str, ScoreSet]:
    """A score CSV's text and the score set it holds: runs of rows whose norm
    column is all blank, all values or mixed, ids that need quotes (some
    holding a newline) or not, blank lines and CRLF line ends."""
    rows, norms = [], []
    for kind in draw(st.lists(st.sampled_from(["blank", "value", "mixed"]), max_size=4)):
        for e, t, y, raw, norm in draw(st.lists(
            st.tuples(st.one_of(_PLAIN_IDS, _ODD_IDS), st.one_of(_PLAIN_IDS, _ODD_IDS),
                      st.booleans(), _FINITE, st.one_of(st.none(), _FINITE)),
            max_size=6,
        )):
            norm = {"blank": None, "value": raw if norm is None else norm}.get(kind, norm)
            rows.append((e, t, y, raw))
            norms.append(norm)
    text = ",".join(SCORE_COLUMNS) + draw(st.sampled_from(["\n", "\r\n"]))
    for (e, t, y, raw), norm in zip(rows, norms):
        text += draw(st.sampled_from(["", "", "", "\n", "\r\n"]))  # a blank line
        fields = [*csv_fields([e, t]), "target" if y else "nontarget", repr(raw)]
        text += ",".join([*fields, "" if norm is None else repr(norm)])
        text += draw(st.sampled_from(["\n", "\n", "\r\n"]))
    expected = ScoreSet(
        make_trials((e, t, y) for e, t, y, _ in rows),
        [raw for *_, raw in rows],
        [np.nan if n is None else n for n in norms],
    )
    return text, expected


class TestScoreBlocks:
    """``read_scores`` splits plain blocks at once and reads every other block
    with ``csv.reader``; with tiny blocks both kinds meet at every boundary."""

    @settings(max_examples=120, deadline=None)
    @given(file=score_files(), chars=st.integers(1, 80), rows=st.integers(1, 4))
    def test_round_trip_across_block_boundaries(self, file, chars, rows):
        text, expected = file
        with (
            tempfile.TemporaryDirectory() as tmp,
            patch.object(dataset, "_READ_BLOCK", chars),
            patch.object(dataset, "_GRID_BLOCK", rows * len(SCORE_COLUMNS)),
        ):
            path, ours, ref = (Path(tmp) / name for name in ("in.csv", "ours.csv", "ref.csv"))
            path.write_bytes(text.encode("utf-8"))
            loaded = read_scores(path)
            assert loaded == expected
            tl, tl_expected = loaded.trial_list, expected.trial_list
            assert (tl.enrol_ids, tl.test_ids) == (tl_expected.enrol_ids, tl_expected.test_ids)
            write_scores(loaded, ours)
            _seed_write_scores(expected, ref)
            assert ours.read_bytes() == ref.read_bytes()

    @pytest.mark.parametrize("chars", [1, 30, 1 << 20])
    def test_file_without_normalized_scores_holds_a_stride_0_column(
        self, tmp_path, monkeypatch, chars
    ):
        monkeypatch.setattr(dataset, "_READ_BLOCK", chars)
        path = tmp_path / "scores.csv"
        path.write_text(
            "enrol,test,label,raw_llr,norm_llr\ne1,t1,target,0.5,\ne2,t2,nontarget,-1.5,\n"
        )
        loaded = read_scores(path)
        assert loaded.normalized.strides == (0,) and not loaded.has_normalized
        assert loaded == ScoreSet(make_trials([("e1", "t1", True), ("e2", "t2", False)]), [0.5, -1.5])

    @pytest.mark.parametrize("chars", [1, 30, 1 << 20])
    def test_blank_normalized_blocks_before_and_after_a_score(self, tmp_path, monkeypatch, chars):
        # with 30-character blocks the first block's column is blank and a later one is not
        monkeypatch.setattr(dataset, "_READ_BLOCK", chars)
        path = tmp_path / "scores.csv"
        rows = [f"e{k},t{k},nontarget,{k}.5,{'0.25' if k == 3 else ''}" for k in range(6)]
        path.write_text("enrol,test,label,raw_llr,norm_llr\n" + "\n".join(rows) + "\n")
        loaded = read_scores(path)
        norm = np.full(6, np.nan)
        norm[3] = 0.25
        trials = make_trials([(f"e{k}", f"t{k}", False) for k in range(6)])
        assert loaded == ScoreSet(trials, np.arange(6) + 0.5, norm)
        assert loaded.normalized.strides == (8,)

    def test_field_counts_that_cancel_out_are_caught(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "enrol,test,label,raw_llr,norm_llr\ne1,t1,target,0.5,,0.5\ne2,t2,nontarget,1.5\n"
        )
        with pytest.raises(ValueError) as err:
            read_scores(path)
        assert str(err.value) == f"{path}: line 2: expected 5 fields"

    @pytest.mark.parametrize("chars", [1, 7, 1 << 20])
    @pytest.mark.parametrize(
        "text, first",
        [
            (b"enrol,test,label,raw_llr,norm_llr\re1,t1,target,0.5,\r\r"
             b"e2,t2,nontarget,-1.5,0.25\r", "e1"),
            (b"enrol,test,label,raw_llr,norm_llr\r\ne1,t1,target,0.5,\r\n\r"
             b"e2,t2,nontarget,-1.5,0.25\n", "e1"),
            (b'enrol,test,label,raw_llr,norm_llr\n"e\n1",t1,target,0.5,\r'
             b"e2,t2,nontarget,-1.5,0.25", "e\n1"),
        ],
        ids=["cr", "mixed", "quoted-then-cr"],
    )
    def test_lone_carriage_returns_end_lines(self, tmp_path, monkeypatch, chars, text, first):
        monkeypatch.setattr(dataset, "_READ_BLOCK", chars)
        path = tmp_path / "scores.csv"
        path.write_bytes(text)
        trials = make_trials([(first, "t1", True), ("e2", "t2", False)])
        assert read_scores(path) == ScoreSet(trials, [0.5, -1.5], [np.nan, 0.25])

    @pytest.mark.parametrize("chars", [1, 7, 1 << 20])
    @pytest.mark.parametrize("end", [b"\r", b"\r\n", b"\n"])
    def test_malformed_row_after_carriage_returns_names_its_line(
        self, tmp_path, monkeypatch, chars, end
    ):
        monkeypatch.setattr(dataset, "_READ_BLOCK", chars)
        path = tmp_path / "scores.csv"
        path.write_bytes(
            b'enrol,test,label,raw_llr,norm_llr\re1,t1,target,0.5,\r\r"e\n2",t2,nontarget,1.5,'
            + end + b"e3,t3,target,x," + end
        )
        with pytest.raises(ValueError) as err:
            read_scores(path)
        assert str(err.value) == f"{path}: line 6: malformed score"

    @pytest.mark.parametrize("chars", [1, 30, 1 << 20])
    @pytest.mark.parametrize("quoted", [False, True, "over two lines"])
    @pytest.mark.parametrize(
        "row, message",
        [
            ("e9,t9,nontarget,1.0", "expected 5 fields"),
            ("e9,t9,nontarget,1.0,,", "expected 5 fields"),
            ("e9,t9,nontarget,1.x,", "malformed score"),
            ("e9,t9,nontarget,nan,", "non-finite raw score 'nan'"),
            ("e9,t9,nontarget,1.0,-inf", "non-finite normalized score '-inf'"),
            ("e9,t9,nontarget,1.0,0.x", "malformed score"),
            ("e9,t9,impostor,1.0,", "unknown label 'impostor'"),
        ],
    )
    def test_malformed_row_in_a_later_block_names_its_line(
        self, tmp_path, monkeypatch, chars, quoted, row, message
    ):
        monkeypatch.setattr(dataset, "_READ_BLOCK", chars)
        opened = []

        def counting_open(*args, **kwargs):
            opened.append(args[0])
            return open(*args, **kwargs)

        monkeypatch.setattr(gplda, "open", counting_open, raising=False)
        line = 8
        if quoted:  # the row's block then goes through csv.reader
            row = row.replace("e9", '"e 9"' if quoted is True else '"e\n9"')
            line += quoted is not True  # a record's line is the one it ends on
        path = tmp_path / "scores.csv"
        path.write_text(
            "enrol,test,label,raw_llr,norm_llr\ne1,t1,target,0.5,\n\n"
            '"e\n2",t2,nontarget,1.5,0.25\ne3,t3,nontarget,2.5,\ne4,t4,target,3.5,1.0\n'
            f"{row}\ne5,t5,nontarget,4.5,\n"
        )
        with pytest.raises(ValueError) as err:
            read_scores(path)
        assert str(err.value) == f"{path}: line {line}: {message}"
        assert opened == [path]  # the error is located without a second read


class TestColumnarScores:
    @settings(max_examples=80, deadline=None)
    @given(
        rows=st.lists(
            st.tuples(_IDS, _IDS, st.booleans(), _FINITE, st.one_of(st.none(), _FINITE)),
            max_size=12,
        )
    )
    def test_csv_round_trip_matches_row_writer_bytes(self, rows):
        ss = ScoreSet(
            make_trials((e, t, y) for e, t, y, _, _ in rows),
            [r for *_, r, _ in rows],
            [np.nan if n is None else n for *_, n in rows],
        )
        with tempfile.TemporaryDirectory() as tmp:
            ours, ref = Path(tmp) / "ours.csv", Path(tmp) / "ref.csv"
            write_scores(ss, ours)
            _seed_write_scores(ss, ref)
            assert ours.read_bytes() == ref.read_bytes()
            assert read_scores(ours) == ss

    def test_columns_and_views_agree(self):
        ss = ScoreSet(
            make_trials([("e1", "t1", True), ("e2", "t1", False), ("e1", "t2", False)]),
            [1.25, -3.5, 2.0],
            [0.5, np.nan, np.nan],
        )
        tl = ss.trial_list
        assert tl.enrol_ids == ("e1", "e2") and tl.test_ids == ("t1", "t2")
        assert tl.enrol_code.tolist() == [0, 1, 0]
        assert tl.test_code.tolist() == [0, 0, 1]
        assert tl.is_target.tolist() == [True, False, False]
        assert ss.raw.tolist() == [1.25, -3.5, 2.0]
        assert np.isnan(ss.normalized[1:]).all() and ss.normalized[0] == 0.5
        assert len(ss) == 3 and not ss.has_normalized
        assert ScoreSet(tl, ss.raw, ss.normalized) == ss
        with pytest.raises(ValueError, match="non-finite raw score for trial.*e2"):
            ScoreSet(tl, [1.0, np.nan, 2.0])
        with pytest.raises(ValueError, match="non-finite normalized score for trial.*e1"):
            ScoreSet(tl, ss.raw, [np.inf, np.nan, np.nan])
        with pytest.raises(ValueError, match="one raw"):
            ScoreSet(tl, [1.0])

    @pytest.mark.parametrize(
        "row, message",
        [
            ("e2,t2,nontarget,nan,", "line 3: non-finite raw score 'nan'"),
            ("e2,t2,nontarget,1.0,inf", "line 3: non-finite normalized score 'inf'"),
            ("e2,t2,nontarget,1.0,nan", "line 3: non-finite normalized score 'nan'"),
            ("e2,t2,nontarget,1.x,", "line 3: malformed score"),
            ("e2,t2,impostor,1.0,", "line 3: unknown label 'impostor'"),
            ("e2,t2,nontarget,1.0", "line 3: expected 5 fields"),
        ],
    )
    def test_malformed_rows_name_file_and_line(self, tmp_path, row, message):
        path = tmp_path / "scores.csv"
        path.write_text(f"enrol,test,label,raw_llr,norm_llr\ne1,t1,target,0.5,\n{row}\n")
        with pytest.raises(ValueError) as err:
            read_scores(path)
        assert str(err.value) == f"{path}: {message}"

    def test_line_numbers_count_blank_lines(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text(
            "enrol,test,label,raw_llr,norm_llr\n\ne1,t1,target,0.5,\n\na,b,target,inf,\n"
        )
        with pytest.raises(ValueError, match=r"scores\.csv: line 5: non-finite raw"):
            read_scores(path)


def _model() -> PldaModel:
    """A valid 2-dimensional model without a log-likelihood trace."""
    return PldaModel(np.zeros(2), np.ones((2, 1)), np.eye(2))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda tmp: PldaModel(np.zeros((1, 2)), np.ones((2, 1)), np.eye(2)),
         "mean must be a non-empty vector"),
        (lambda tmp: PldaModel(np.zeros(2), np.ones((3, 1)), np.eye(2)), "u1 must be (K, Q)"),
        (lambda tmp: PldaModel(np.zeros(2), np.ones((2, 1)), np.eye(3)),
         "lambda_prec must be (K, K)"),
        (lambda tmp: marginal_loglik(_model(), make_dataset(np.zeros((2, 3)))),
         "ds has dimension 3, model expects 2"),
        (lambda tmp: marginal_loglik(_model(), make_dataset(np.zeros((2, 2)), [None, None])),
         "marginal likelihood needs speaker labels"),
        (lambda tmp: train_gplda(make_dataset(np.eye(2), ["a", "b"]), q=1, iters=-1),
         "iters must be an integer >= 0, got -1"),
        (lambda tmp: make_scoreset([1.0], [0.0]).values("x"), "unknown score kind 'x'"),
        (lambda tmp: ScoreSet(make_trials([("a", "b", True)]), [1.0], [1.0, 2.0]),
         "need one raw and one normalized score per trial (1)"),
        (lambda tmp: score_trials(
            _model(), make_dataset(np.zeros((1, 3))), make_dataset(np.zeros((1, 2))),
            make_trials([("utt0000", "utt0000", True)]),
        ), "enrol has dimension 3, model expects 2"),
        (lambda tmp: score_trials(
            _model(), make_dataset(np.zeros((1, 2))), make_dataset(np.zeros((1, 5))),
            make_trials([("utt0000", "utt0000", True)]),
        ), "test has dimension 5, model expects 2"),
        (lambda tmp: save_loglik_trace(_model(), tmp / "trace.csv"),
         "model carries no log-likelihood trace"),
    ],
    ids=["mean", "u1", "lambda_prec", "loglik-dim", "loglik-unlabeled", "iters", "score-kind",
         "normalized-length", "score-dim", "score-dim-test", "no-trace"],
)
def test_error_paths_name_the_field(tmp_path, call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(tmp_path)
