import re

import numpy as np
import pytest

from svbackend.idv import (
    IdvTransform,
    IdvVariant,
    apply_idv,
    estimate_idv,
    load_idv,
    save_idv,
)

from conftest import make_dataset
from oracles import modified_idv_scatter, original_idv_scatter, outer_scatter

ORIGINAL, MODIFIED = IdvVariant


def random_pair(rng, dim=6, n_out=40, n_in=30, spread=1.0):
    out = make_dataset(spread * rng.standard_normal((n_out, dim)), prefix="od")
    inn = make_dataset(spread * rng.standard_normal((n_in, dim)) + 0.5, prefix="id")
    return out, inn


class TestEstimators:
    def test_singleton_modified(self):
        a = np.array([1.0, 2.0, 0.0])
        b = np.array([0.0, 1.0, -1.0])
        out = make_dataset(a[None, :], prefix="o")
        inn = make_dataset(b[None, :], prefix="i")
        t = estimate_idv(MODIFIED, out, inn, ridge=0.0)
        # means of singletons are the vectors themselves
        expected = 2.0 * np.outer(a - b, a - b)
        np.testing.assert_allclose(t.s_idv, expected, atol=1e-12)

    def test_singleton_original(self):
        a = np.array([2.0, -1.0])
        b = np.array([1.0, 1.0])
        t = estimate_idv(ORIGINAL, 
            make_dataset(a[None, :], prefix="o"), make_dataset(b[None, :], prefix="i"), 0.0
        )
        np.testing.assert_allclose(t.s_idv, np.outer(a - b, a - b), atol=1e-12)

    def test_identical_datasets_give_twice_within_covariance(self, rng):
        vals = rng.standard_normal((25, 5))
        out = make_dataset(vals, prefix="o")
        inn = make_dataset(vals, prefix="i")
        t = estimate_idv(MODIFIED, out, inn)
        centered = vals - vals.mean(axis=0)
        biased_cov = centered.T @ centered / len(vals)
        np.testing.assert_allclose(t.s_idv, 2.0 * biased_cov, rtol=1e-12, atol=1e-14)

    def test_modified_matches_brute_force_oracle(self, rng):
        out, inn = random_pair(rng)
        t = estimate_idv(MODIFIED, out, inn)
        expected = modified_idv_scatter(out.matrix(), inn.matrix())
        assert np.linalg.norm(t.s_idv - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_original_matches_brute_force_oracle(self, rng):
        out, inn = random_pair(rng)
        t = estimate_idv(ORIGINAL, out, inn)
        expected = original_idv_scatter(out.matrix(), inn.matrix())
        assert np.linalg.norm(t.s_idv - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_modified_is_sum_of_original_terms(self, rng):
        # recombination identity: modified = original(out,in) + original(in,out)
        out, inn = random_pair(rng)
        mod = estimate_idv(MODIFIED, out, inn).s_idv
        recombined = estimate_idv(ORIGINAL, out, inn).s_idv + estimate_idv(ORIGINAL, inn, out).s_idv
        assert np.linalg.norm(mod - recombined) <= 1e-12 * np.linalg.norm(mod)

    @pytest.mark.parametrize("ridge", [0.0, 1e-6, 1e-3])
    def test_modified_from_the_original_transform_is_bit_identical(self, rng, ridge):
        out, inn = random_pair(rng, dim=7)
        fresh = estimate_idv(MODIFIED, out, inn, ridge)
        original = estimate_idv(ORIGINAL, out, inn, ridge)
        reused = estimate_idv(MODIFIED, out, inn, ridge, original=original)
        assert reused.variant is IdvVariant.MODIFIED
        assert np.array_equal(reused.s_idv, fresh.s_idv)
        assert np.array_equal(reused.decorrelator, fresh.decorrelator)
        assert reused.ridge == fresh.ridge

    def test_reuse_needs_an_original_transform_of_the_dimension(self, rng):
        out, inn = random_pair(rng)
        modified = estimate_idv(MODIFIED, out, inn)
        with pytest.raises(ValueError, match="original-variant transform of dimension 6, got "
                                             "modified of dimension 6"):
            estimate_idv(MODIFIED, out, inn, original=modified)
        other = estimate_idv(ORIGINAL, *random_pair(rng, dim=5))
        with pytest.raises(ValueError, match="got original of dimension 5"):
            estimate_idv(MODIFIED, out, inn, original=other)

    def test_original_on_centered_whitened_data_is_second_moment(self, rng):
        # both means zero: scatter reduces to the out-domain sample second moment
        out_vals = rng.standard_normal((50, 4))
        out_vals -= out_vals.mean(axis=0)
        in_vals = rng.standard_normal((40, 4))
        in_vals -= in_vals.mean(axis=0)
        t = estimate_idv(ORIGINAL, 
            make_dataset(out_vals, prefix="o"), make_dataset(in_vals, prefix="i")
        )
        second_moment = out_vals.T @ out_vals / len(out_vals)
        np.testing.assert_allclose(t.s_idv, second_moment, rtol=1e-12, atol=1e-14)

    def test_swap_symmetry_is_exact(self, rng):
        out, inn = random_pair(rng)
        ab = estimate_idv(MODIFIED, out, inn)
        ba = estimate_idv(MODIFIED, inn, out)
        assert np.array_equal(ab.s_idv, ba.s_idv)

    def test_dim_mismatch_and_empty_errors(self, rng):
        out = make_dataset(rng.standard_normal((3, 4)), prefix="o")
        inn = make_dataset(rng.standard_normal((3, 5)), prefix="i")
        with pytest.raises(ValueError, match="dimension mismatch"):
            estimate_idv(MODIFIED, out, inn)
        with pytest.raises(ValueError, match="non-empty"):
            estimate_idv(MODIFIED, out, make_dataset(np.empty((0, 4))))

    def test_scale_covariance(self, rng):
        out, inn = random_pair(rng, n_out=60, n_in=50)
        alpha = 3.0
        t1 = estimate_idv(MODIFIED, out, inn)
        t2 = estimate_idv(MODIFIED, 
            out.with_values(alpha * out.matrix()), inn.with_values(alpha * inn.matrix())
        )
        np.testing.assert_allclose(t2.s_idv, alpha**2 * t1.s_idv, rtol=1e-10)
        np.testing.assert_allclose(t2.ridge, alpha**2 * t1.ridge, rtol=1e-10)
        np.testing.assert_allclose(t2.decorrelator, t1.decorrelator / alpha, rtol=1e-8)

    def test_ridge_escalation_on_rank_deficient_scatter(self, rng):
        # fewer vectors than dimensions: the scatter is singular at ridge 0
        out = make_dataset(rng.standard_normal((3, 10)), prefix="o")
        inn = make_dataset(rng.standard_normal((3, 10)), prefix="i")
        t = estimate_idv(MODIFIED, out, inn, ridge=0.0)
        assert t.ridge > 0.0

    @pytest.mark.parametrize("variant", IdvVariant)
    def test_ladder_escalates_past_a_factor_that_does_not_whiten(self, variant, monkeypatch):
        """At a tiny ridge the rank-deficient scatter (n < dim) has a Cholesky
        factor whose inverse does not whiten it; the ladder goes on to the
        1e-6 rung, as it does from ridge 0, testing each factor once."""
        rng = np.random.default_rng(7)
        out = make_dataset(rng.standard_normal((20, 50)), prefix="o")
        inn = make_dataset(rng.standard_normal((20, 50)), prefix="i")
        expected = estimate_idv(variant, out, inn, ridge=1e-6)
        tests = []
        real_test = IdvTransform.__post_init__
        monkeypatch.setattr(IdvTransform, "__post_init__", lambda t: tests.append(1) or real_test(t))
        estimate_idv(variant, out, inn, ridge=1e-6)
        assert len(tests) == 1  # a first-rung estimate runs the test once
        for ridge in (0.0, 1e-12, 1e-9):
            t = estimate_idv(variant, out, inn, ridge=ridge)
            assert t.ridge == expected.ridge == 1e-6 * (np.trace(t.s_idv) / t.dim)
            np.testing.assert_array_equal(t.decorrelator, expected.decorrelator)

    def test_all_zero_data_fails_factorization(self):
        out = make_dataset(np.zeros((4, 3)), prefix="o")
        inn = make_dataset(np.zeros((4, 3)), prefix="i")
        with pytest.raises(ValueError, match="factoriz"):
            estimate_idv(MODIFIED, out, inn)


class TestWhitening:
    def test_whitening_invariant_ridge_free(self, rng):
        # plentiful data makes the scatter strictly positive definite
        out, inn = random_pair(rng, dim=6, n_out=200, n_in=150)
        t = estimate_idv(MODIFIED, out, inn, ridge=0.0)
        assert t.ridge == 0.0
        d = t.decorrelator
        white = d.T @ t.s_idv @ d
        assert np.linalg.norm(white - np.eye(6)) <= 1e-8

    def test_decorrelator_inverts_conditioned_scatter(self, rng):
        out, inn = random_pair(rng)
        t = estimate_idv(MODIFIED, out, inn, ridge=1e-4)
        conditioned = t.s_idv + t.ridge * np.eye(t.dim)
        inv = np.linalg.inv(conditioned)
        assert np.linalg.norm(t.decorrelator @ t.decorrelator.T - inv) <= 1e-8 * np.linalg.norm(inv)


class TestApply:
    def test_identity_scatter_is_identity_map(self, rng):
        t = IdvTransform(IdvVariant.MODIFIED, np.eye(4), np.eye(4), 0.0)
        ds = make_dataset(rng.standard_normal((5, 4)))
        out = apply_idv(t, ds)
        np.testing.assert_array_equal(out.matrix(), ds.matrix())

    def test_zero_vector_maps_to_zero(self, rng):
        out, inn = random_pair(rng, dim=4, n_out=50, n_in=50)
        t = estimate_idv(MODIFIED, out, inn)
        ds = make_dataset(np.zeros((1, 4)))
        assert np.all(apply_idv(t, ds).matrix() == 0.0)

    def test_linearity(self, rng):
        out, inn = random_pair(rng, dim=5, n_out=50, n_in=50)
        t = estimate_idv(MODIFIED, out, inn)
        u = rng.standard_normal(5)
        v = rng.standard_normal(5)
        a = apply_idv(t, make_dataset((u + v)[None, :])).matrix()[0]
        b = (
            apply_idv(t, make_dataset(u[None, :])).matrix()[0]
            + apply_idv(t, make_dataset(v[None, :])).matrix()[0]
        )
        np.testing.assert_allclose(a, b, atol=1e-12)

    def test_metadata_preserved_and_dim_checked(self, rng):
        out, inn = random_pair(rng, dim=4, n_out=20, n_in=20)
        t = estimate_idv(MODIFIED, out, inn)
        res = apply_idv(t, out)
        assert res.ids == out.ids
        assert res.row_speakers() == out.row_speakers()
        with pytest.raises(ValueError, match="dimension mismatch"):
            apply_idv(t, make_dataset(rng.standard_normal((2, 7))))


class TestPersistence:
    def test_round_trip_exact(self, rng, tmp_path):
        out, inn = random_pair(rng)
        for variant in IdvVariant:
            t = estimate_idv(variant, out, inn)
            path = tmp_path / f"{variant.value}.idv"
            save_idv(t, path)
            loaded = load_idv(path)
            assert loaded.variant == variant
            assert loaded.ridge == t.ridge
            assert np.array_equal(loaded.s_idv, t.s_idv)
            assert np.array_equal(loaded.decorrelator, t.decorrelator)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.idv"
        path.write_bytes(b"JUNK" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_idv(path)

    @pytest.mark.parametrize("variant", ["original", "modified", None, 0])
    def test_a_variant_that_is_not_an_idv_variant_fails_naming_it(self, variant):
        message = f"^variant must be a member of IdvVariant, got {re.escape(repr(variant))}$"
        with pytest.raises(ValueError, match=message):
            IdvTransform(variant, np.eye(2), np.eye(2), 0.0)
        with pytest.raises(ValueError, match=message):  # before any data is read
            estimate_idv(variant, None, None)

    def test_transform_invariants_validated(self):
        with pytest.raises(ValueError, match="symmetric"):
            IdvTransform(IdvVariant.MODIFIED, np.array([[1.0, 2.0], [0.0, 1.0]]), np.eye(2), 0.0)
        with pytest.raises(ValueError, match="whiten"):
            IdvTransform(IdvVariant.MODIFIED, np.eye(2), 2.0 * np.eye(2), 0.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: IdvTransform(IdvVariant.ORIGINAL, np.zeros((2, 3)), np.eye(2), 0.0),
         "s_idv must be square and non-empty"),
        (lambda: IdvTransform(IdvVariant.ORIGINAL, np.eye(2), np.eye(3), 0.0),
         "decorrelator shape must match s_idv"),
        (lambda: IdvTransform(IdvVariant.ORIGINAL, np.diag([1.0, np.nan]), np.eye(2), 0.0),
         "s_idv has non-finite entries"),
        (lambda: IdvTransform(IdvVariant.ORIGINAL, np.eye(2), np.diag([1.0, np.inf]), 0.0),
         "decorrelator has non-finite entries"),
        (lambda: IdvTransform(IdvVariant.ORIGINAL, np.eye(2), np.eye(2), -1.0),
         "ridge must be a finite number >= 0, got -1.0"),
        (lambda: estimate_idv(ORIGINAL, make_dataset(np.eye(2)), make_dataset(np.eye(2)), -1.0),
         "ridge must be a finite number >= 0, got -1.0"),
    ],
    ids=["s_idv-shape", "decorrelator-shape", "non-finite", "non-finite-decorrelator",
         "transform-ridge", "estimate-ridge"],
)
def test_error_paths_name_the_field(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
