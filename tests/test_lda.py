from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from svbackend.dataset import Dataset
from svbackend import dataset
from svbackend.idv import IdvVariant, apply_idv, estimate_idv
from svbackend.lda import (
    UNIT_NORM_TOLERANCE,
    LdaTransform,
    apply_lda,
    lda_from_scatter,
    load_lda,
    save_lda,
    scatter_matrices,
    train_lda,
)

from conftest import make_dataset, shuffled_labeled_datasets
from oracles import lda_scatters, speaker_loop_scatters


def grouped_dataset(rng, n_speakers=4, sessions=3, dim=5, spread=1.0, speaker_spread=1.0):
    groups = []
    for _ in range(n_speakers):
        center = speaker_spread * rng.standard_normal(dim)
        groups.append(center + spread * rng.standard_normal((sessions, dim)))
    values = np.concatenate(groups, axis=0)
    speakers = [f"s{si}" for si in range(n_speakers) for _ in range(sessions)]
    return make_dataset(values, speakers=speakers), groups


class TestScatters:
    def test_matches_brute_force_oracle(self, rng):
        ds, groups = grouped_dataset(rng, n_speakers=4, sessions=3, dim=5)
        s_b, s_w = scatter_matrices(ds)
        b_ref, w_ref = lda_scatters(groups)
        assert np.linalg.norm(s_b - b_ref) <= 1e-12 * np.linalg.norm(b_ref)
        assert np.linalg.norm(s_w - w_ref) <= 1e-12 * np.linalg.norm(w_ref)

    def test_one_session_per_speaker_gives_zero_within(self, rng):
        ds, _ = grouped_dataset(rng, n_speakers=5, sessions=1)
        _, s_w = scatter_matrices(ds)
        assert np.all(s_w == 0.0)

    def test_identical_vectors_give_zero_scatters(self):
        values = np.tile(np.array([1.0, -2.0, 0.5]), (6, 1))
        ds = make_dataset(values, speakers=["a", "a", "a", "b", "b", "b"])
        s_b, s_w = scatter_matrices(ds)
        assert np.allclose(s_b, 0.0) and np.allclose(s_w, 0.0)

    def test_unlabeled_and_single_speaker_errors(self, rng):
        ds = make_dataset(rng.standard_normal((3, 2)), speakers=["a", None, "a"])
        with pytest.raises(ValueError, match="unlabeled"):
            scatter_matrices(ds)
        ds2 = make_dataset(rng.standard_normal((3, 2)), speakers=["a", "a", "a"])
        with pytest.raises(ValueError, match="two speakers"):
            scatter_matrices(ds2)


class TestScattersAgainstSpeakerLoop:
    @settings(max_examples=120, deadline=None)
    @given(ds=shuffled_labeled_datasets(), block=st.integers(1, 7))
    def test_vectorized_matches_per_speaker_loop(self, ds, block):
        # small row blocks put block boundaries inside speakers
        with mock.patch.object(dataset, "_ROW_BLOCK", block):
            s_b, s_w = scatter_matrices(ds)
        b_ref, w_ref = speaker_loop_scatters(ds)
        assert np.linalg.norm(s_b - b_ref) <= 1e-12 * np.linalg.norm(b_ref)
        # S_w is the centered Gram minus S_b, so its rounding scales with the Gram
        assert np.linalg.norm(s_w - w_ref) <= 1e-12 * np.linalg.norm(b_ref + w_ref)

    def test_unlabeled_row_names_it(self, rng):
        ds = make_dataset(rng.standard_normal((4, 2)), speakers=["a", "b", None, "a"])
        with pytest.raises(ValueError, match="unlabeled items \\(e.g. 'utt0002'\\)"):
            scatter_matrices(ds)


class TestTraining:
    def test_2d_analytic_case_recovers_separating_direction(self):
        # two speakers separated along e1, within-class spread along e2 only
        delta = 0.3
        values = np.array(
            [[-1.0, -delta], [-1.0, delta], [1.0, -delta], [1.0, delta]]
        )
        ds = make_dataset(values, speakers=["a", "a", "b", "b"])
        t = train_lda(ds, k=1)
        cos = abs(t.a_matrix[:, 0] @ np.array([1.0, 0.0]))
        assert cos >= 1.0 - 1e-8

    def test_full_basis_is_invertible(self, rng):
        ds, _ = grouped_dataset(rng, n_speakers=10, sessions=4, dim=5)
        t = train_lda(ds, k=5)
        assert np.linalg.matrix_rank(t.a_matrix) == 5

    def test_generalized_eigen_residual(self, rng):
        ds, _ = grouped_dataset(rng, n_speakers=8, sessions=10, dim=6)
        t = train_lda(ds, k=4)
        s_b, s_w = scatter_matrices(ds)
        scale = np.linalg.norm(s_b)
        for j in range(4):
            v = t.a_matrix[:, j]
            resid = np.linalg.norm(s_b @ v - t.eigenvalues[j] * (s_w @ v))
            assert resid <= 1e-6 * scale

    def test_eigenvalues_descending_unit_columns_positive_peak(self, rng):
        ds, _ = grouped_dataset(rng, n_speakers=6, sessions=5, dim=5)
        t = train_lda(ds, k=4)
        assert np.all(np.diff(t.eigenvalues) <= 0)
        np.testing.assert_allclose(np.linalg.norm(t.a_matrix, axis=0), 1.0, rtol=1e-12)
        for j in range(4):
            col = t.a_matrix[:, j]
            assert col[np.abs(col).argmax()] > 0

    def test_k_bounds(self, rng):
        ds, _ = grouped_dataset(rng, dim=4)
        with pytest.raises(ValueError, match="exceeds"):
            train_lda(ds, k=5)
        with pytest.raises(ValueError, match="^k must be an integer >= 1, got 0$"):
            train_lda(ds, k=0)

    def test_solver_of_mapped_scatters_matches_training_on_mapped_data(self, rng):
        """The scatters of ``ds @ D`` are ``D.T @ S @ D``: solving those
        projects like LDA trained on the IDV-compensated vectors."""
        ds, _ = grouped_dataset(rng, n_speakers=12, sessions=6, dim=6)
        other = make_dataset(rng.standard_normal((30, 6)) + 2.0)
        idv_t = estimate_idv(IdvVariant.MODIFIED, other, ds)
        d = idv_t.decorrelator
        composed = lda_from_scatter(*[d.T @ s @ d for s in scatter_matrices(ds)], k=4)
        sequential = train_lda(apply_idv(idv_t, ds), k=4)
        want = apply_lda(sequential, apply_idv(idv_t, ds)).matrix()
        got = ds.matrix() @ (d @ composed.a_matrix)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_solver_validation(self):
        with pytest.raises(ValueError, match="square matrices of one shape"):
            lda_from_scatter(np.eye(3), np.eye(2), k=1)
        with pytest.raises(ValueError, match="square matrices of one shape"):
            lda_from_scatter(np.ones((2, 3)), np.ones((2, 3)), k=1)
        with pytest.raises(ValueError, match="exceeds"):
            lda_from_scatter(np.eye(2), np.eye(2), k=3)
        with pytest.raises(ValueError, match="^ridge must be a finite number >= 0, got -1.0$"):
            lda_from_scatter(np.eye(2), np.eye(2), k=1, ridge=-1.0)

    def test_item_permutation_keeps_projection(self, rng):
        ds, _ = grouped_dataset(rng, n_speakers=5, sessions=4, dim=5)
        perm = rng.permutation(len(ds))
        ds_perm = ds.subset(perm)
        t1 = train_lda(ds, k=3)
        t2 = train_lda(ds_perm, k=3)
        assert np.argsort(t1.eigenvalues).tolist() == np.argsort(t2.eigenvalues).tolist()
        np.testing.assert_allclose(t1.a_matrix, t2.a_matrix, atol=1e-8)

    def test_speaker_relabeling_keeps_projection(self, rng):
        ds, _ = grouped_dataset(rng, n_speakers=5, sessions=4, dim=5)
        # order-preserving rename keeps the sorted accumulation order
        renamed = Dataset(
            ds.matrix(), ds.ids, [f"x{spk}" for spk in ds.row_speakers()], ds.domains, ds.durations
        )
        t1 = train_lda(ds, k=3)
        t2 = train_lda(renamed, k=3)
        assert np.array_equal(t1.a_matrix, t2.a_matrix)

    def test_input_scaling_leaves_eigenvalues_and_directions(self, rng):
        ds, _ = grouped_dataset(rng, n_speakers=6, sessions=5, dim=5)
        alpha = 7.0
        t1 = train_lda(ds, k=3)
        t2 = train_lda(ds.with_values(alpha * ds.matrix()), k=3)
        np.testing.assert_allclose(t2.eigenvalues, t1.eigenvalues, rtol=1e-10)
        for j in range(3):
            cos = abs(t1.a_matrix[:, j] @ t2.a_matrix[:, j])
            assert cos >= 1.0 - 1e-8
        # projected outputs scale linearly
        p1 = apply_lda(t1, ds).matrix()
        p2 = apply_lda(t2, ds.with_values(alpha * ds.matrix())).matrix()
        np.testing.assert_allclose(p2, alpha * p1, rtol=1e-8)


class TestApply:
    def test_identity_projection(self, rng):
        t = LdaTransform(np.eye(3), np.ones(3))
        ds = make_dataset(rng.standard_normal((4, 3)))
        np.testing.assert_array_equal(apply_lda(t, ds).matrix(), ds.matrix())

    def test_zero_vector(self, rng):
        ds, _ = grouped_dataset(rng, dim=4)
        t = train_lda(ds, k=2)
        z = apply_lda(t, make_dataset(np.zeros((1, 4))))
        assert np.all(z.matrix() == 0.0)

    def test_projection_is_column_dot_products(self, rng):
        ds, _ = grouped_dataset(rng, dim=5)
        t = train_lda(ds, k=3)
        w = rng.standard_normal(5)
        out = apply_lda(t, make_dataset(w[None, :])).matrix()[0]
        for j in range(3):
            assert out[j] == pytest.approx(t.a_matrix[:, j] @ w, abs=1e-12)

    def test_output_dim_and_metadata(self, rng):
        ds, _ = grouped_dataset(rng, dim=5)
        t = train_lda(ds, k=2)
        out = apply_lda(t, ds)
        assert out.dim == 2
        assert out.ids == ds.ids
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_lda(t, make_dataset(np.zeros((1, 3))))


class TestPersistence:
    def test_round_trip_exact(self, rng, tmp_path):
        ds, _ = grouped_dataset(rng, dim=5)
        t = train_lda(ds, k=3)
        path = tmp_path / "x.lda"
        save_lda(t, path)
        loaded = load_lda(path)
        assert np.array_equal(loaded.a_matrix, t.a_matrix)
        assert np.array_equal(loaded.eigenvalues, t.eigenvalues)

    def test_validation(self):
        with pytest.raises(ValueError, match="descending"):
            LdaTransform(np.eye(2), np.array([1.0, 2.0]))
        with pytest.raises(ValueError, match="more directions"):
            LdaTransform(np.ones((2, 3)), np.ones(3))

    def test_columns_unit_length_and_sign_fixed(self, rng):
        with pytest.raises(ValueError, match="column 1 is not unit length"):
            LdaTransform(np.array([[1.0, 0.0], [0.0, 1.5e-5]]), [2.0, 1.0])
        with pytest.raises(ValueError, match="column 0 .* positive largest-magnitude"):
            LdaTransform(np.array([[-0.8, 0.0], [0.6, 1.0]]), [2.0, 1.0])
        LdaTransform((1.0 + UNIT_NORM_TOLERANCE / 2) * np.eye(2), [2.0, 1.0])
        ds, _ = grouped_dataset(rng, dim=6)
        t = train_lda(ds, k=4)
        LdaTransform(t.a_matrix, t.eigenvalues)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: LdaTransform(np.zeros((2, 0)), np.zeros(0)),
         "^a_matrix must be a non-empty 2-D matrix$"),
        (lambda: LdaTransform(np.array([[1.0], [np.nan]]), np.ones(1)),
         "^a_matrix has non-finite entries$"),
        (lambda: LdaTransform(np.array([[1.0], [0.0]]), [-np.inf]),
         "^eigenvalues has non-finite entries$"),
        (lambda: LdaTransform(np.array([[1.0], [0.0]]), np.ones(2)),
         "^need one eigenvalue per retained column$"),
        (lambda: lda_from_scatter(np.eye(3), np.zeros((3, 3)), 1, 0.0),
         "^generalized eigendecomposition failed: "),
    ],
    ids=["a_matrix-shape", "non-finite", "non-finite-eigenvalue", "eigenvalue-count",
         "eigendecomposition"],
)
def test_error_paths_name_the_field(call, message):
    with pytest.raises(ValueError, match=message):
        call()
