"""Training passes streamed in row blocks, and columns held without copies.

Every training-scale reduction (IDV scatter, LDA within-class scatter,
PLDA statistics, length normalization) works through row blocks of
``dataset._ROW_BLOCK`` (2048) rows.  The oracle tests put the data on
both sides of the block boundaries; the memory tests bound what each
stage allocates on top of its input with ``tracemalloc``, which sees
numpy's allocations (not BLAS's own workspace).
"""

from __future__ import annotations

import numpy as np
import pytest

from svbackend import dataset, gplda
from svbackend.dataset import TrialList, centered_gram, load_trials, owned, save_trials
from svbackend.gplda import PldaModel, ScoreSet, _speaker_stats, length_normalize, read_scores
from svbackend.gplda import score_trials, write_scores
from svbackend.harness import build_trials
from svbackend.idv import estimate_modified_idv, estimate_original_idv
from svbackend.lda import scatter_matrices

from conftest import make_dataset, traced_peak

SIZES = (1, 2047, 2048, 2049, 5000)
BLOCK = 2048


def labeled(rng: np.random.Generator, n: int, dim: int = 6, sessions: int = 5):
    """``n`` rows with shuffled speakers of about ``sessions`` rows each, so
    most speakers have rows on both sides of a block boundary."""
    n_spk = max(1, n // sessions)
    code = rng.permutation(np.arange(n) % n_spk)
    values = 3.0 * rng.standard_normal((n_spk, dim))[code] + rng.standard_normal((n, dim))
    return make_dataset(values, speakers=[f"s{c:04d}" for c in code])


def assert_gram_matches(got: np.ndarray, ref: np.ndarray, n: int) -> None:
    """Today's single product up to one block; within 1e-12 relative above."""
    if n <= BLOCK:
        assert np.array_equal(got, ref)
    else:
        assert np.linalg.norm(got - ref) <= 1e-12 * np.linalg.norm(ref)


@pytest.mark.parametrize("width", [None, 0, 1, 5, 65535, 65536, 65537])
@pytest.mark.parametrize("n", [0, 1, 2047, 2048, 2049, 5000])
def test_row_blocks_cover_the_rows_in_order(n, width):
    """``_ROW_BLOCK`` rows per slice, or as many rows of ``width`` entries as
    ``_GRID_BLOCK`` holds (at least one); only the last slice is shorter."""
    step = dataset._ROW_BLOCK if width is None else max(1, dataset._GRID_BLOCK // max(1, width))
    blocks = list(dataset.row_blocks(n, width))
    assert [i for rows in blocks for i in range(n)[rows]] == list(range(n))
    assert all(rows.stop - rows.start == step for rows in blocks[:-1])
    assert all(0 < rows.stop - rows.start <= step for rows in blocks)


@pytest.mark.parametrize("n", SIZES)
class TestBlockBoundaries:
    def test_length_norm_is_the_unblocked_division(self, n, rng):
        mat = rng.standard_normal((n, 7))
        ds = make_dataset(mat)
        assert np.array_equal(length_normalize(ds).matrix(), mat / np.linalg.norm(mat, axis=1)[:, None])
        proj = rng.standard_normal((7, 3))
        mapped = mat @ proj
        ref = mapped / np.linalg.norm(mapped, axis=1)[:, None]
        assert np.array_equal(length_normalize(ds, proj).matrix(), ref)

    def test_speaker_sums_add_rows_in_dataset_order(self, n, rng):
        ds = labeled(rng, n)
        center = ds.matrix().mean(axis=0)
        centered = ds.matrix() - center
        ref, ref_centered = np.zeros((2, len(ds.speakers), ds.dim))
        for row, code in enumerate(ds.speaker_code.tolist()):
            ref[code] += ds.matrix()[row]
            ref_centered[code] += centered[row]
        sums, counts = ds.speaker_sums()
        assert np.array_equal(sums, ref)
        stats = _speaker_stats(ds, center)
        for count, _, rows in stats.groups:
            f_g, held = ref_centered[counts == count], stats.f[rows]
            gram = f_g.T @ f_g
            assert np.linalg.norm(held.T @ held - gram) <= 1e-12 * np.linalg.norm(gram)
        assert_gram_matches(stats.s_phiphi, (centered.T @ centered + (centered.T @ centered).T) / 2, n)

    def test_grams_match_the_single_product(self, n, rng):
        ds = labeled(rng, n)
        mat = ds.matrix()
        means = rng.standard_normal((len(ds.speakers), ds.dim))
        c = mat - means[ds.speaker_code]
        assert_gram_matches(centered_gram(mat, means, ds.speaker_code), c.T @ c, n)
        c = mat - means[0]
        assert_gram_matches(centered_gram(mat, means[0]), c.T @ c, n)
        other = make_dataset(rng.standard_normal((3, ds.dim)) + 1.0)
        c = mat - other.matrix().mean(axis=0)
        s = c.T @ c / n
        assert_gram_matches(estimate_original_idv(ds, other).s_idv, (s + s.T) / 2.0, n)

    def test_within_scatter_matches_the_single_product(self, n, rng):
        ds = labeled(rng, n)
        if len(ds.speakers) < 2:
            with pytest.raises(ValueError, match="two speakers"):
                scatter_matrices(ds)
            return
        sums, counts = ds.speaker_sums()
        c = ds.matrix() - (sums / counts[:, None])[ds.speaker_code]
        assert_gram_matches(scatter_matrices(ds)[1], (c.T @ c + (c.T @ c).T) / 2.0, n)

    def test_zero_vector_is_named_by_its_own_id(self, n, rng):
        mat = rng.standard_normal((n, 4))
        mat[n - 1] = 0.0
        with pytest.raises(ValueError, match=f"zero vector 'utt{n - 1:04d}'"):
            length_normalize(make_dataset(mat))
        mat[n - 1] = np.nan
        with pytest.raises(ValueError, match=f"ivector 'utt{n - 1:04d}': values contain non-finite"):
            make_dataset(rng.standard_normal((n, 4))).with_values(mat)


class TestMemoryBounds:
    """At N = 8000 rows one block is about a quarter of the data.  A
    streamed stage holds one block buffer plus (D, D) and per-speaker
    results (200 speakers, small next to the data); a stage that centers,
    squares or copies the whole matrix, or keeps two block temporaries,
    holds more."""

    N, DIM = 8000, 64

    @pytest.fixture
    def data(self, rng):
        ds = labeled(rng, self.N, self.DIM, sessions=40)
        other = make_dataset(rng.standard_normal((self.N, self.DIM)) + 1.0, prefix="in")
        return ds, other, ds.matrix().nbytes

    @pytest.mark.parametrize("estimate", [estimate_original_idv, estimate_modified_idv])
    def test_idv_estimation_holds_a_block(self, data, estimate):
        ds, other, nbytes = data
        assert traced_peak(estimate, ds, other) < 0.5 * nbytes

    def test_scatter_matrices_hold_a_block(self, data):
        ds, _, nbytes = data
        assert traced_peak(scatter_matrices, ds) < 0.6 * nbytes

    def test_speaker_stats_hold_a_block(self, data):
        ds, _, nbytes = data
        assert traced_peak(_speaker_stats, ds, ds.matrix().mean(axis=0)) < 0.5 * nbytes

    def test_length_norm_makes_one_output(self, data):
        ds, _, nbytes = data
        assert traced_peak(length_normalize, ds) < 1.5 * nbytes


class TestOwnership:
    """A read-only array of the container's dtype that no writable array
    reaches is held as given; any other is copied, so the caller's later
    edits do not leak in."""

    def test_with_values_shares_read_only_and_copies_writable(self):
        ds = make_dataset(np.zeros((3, 2)))
        frozen = np.ones((3, 4))
        frozen.flags.writeable = False
        assert np.shares_memory(ds.with_values(frozen).matrix(), frozen)
        assert ds.with_values(frozen[:, 1:]).matrix().base is frozen  # a view of read-only memory
        writable = np.ones((3, 4))
        out = ds.with_values(writable)
        writable[0, 0] = 7.0
        assert not np.shares_memory(out.matrix(), writable) and out.matrix()[0, 0] == 1.0
        single = np.ones((3, 4), dtype=np.float32)
        single.flags.writeable = False
        assert ds.with_values(single).matrix().dtype == np.float64

    def test_length_norm_of_a_projection_is_one_array(self, rng):
        ds = make_dataset(rng.standard_normal((5, 4)))
        out = length_normalize(ds, rng.standard_normal((4, 2))).matrix()
        assert out.shape == (5, 2) and out.base is None and not out.flags.writeable

    def test_trial_list_shares_read_only_columns(self):
        codes = [np.array([0, 1, 1], dtype=np.intp) for _ in range(2)]
        is_target = np.array([True, False, True])
        for col in (*codes, is_target):
            col.flags.writeable = False
        trials = TrialList(["a", "b"], ["x", "y"], *codes, is_target)
        assert trials.enrol_code is codes[0] and trials.test_code is codes[1]
        assert trials.is_target is is_target

    def test_trial_list_copies_writable_columns(self):
        enrol, test = np.array([0, 1, 1]), np.array([1, 0, 1])
        is_target = np.array([True, False, True])
        trials = TrialList(["a", "b"], ["x", "y"], enrol, test, is_target)
        enrol[0], test[0], is_target[0] = 1, 0, False
        assert trials.trial_text(0) == "a y target"
        for col in (trials.enrol_code, trials.test_code, trials.is_target):
            assert not col.flags.writeable

    def test_score_set_shares_read_only_and_copies_writable(self):
        trials = TrialList(["a"], ["x", "y"], [0, 0], [0, 1], [True, False])
        raw = np.array([1.0, -1.0])
        raw.flags.writeable = False
        scores = ScoreSet(trials, raw)
        assert scores.raw is raw and not scores.normalized.flags.writeable
        norm = np.array([0.5, 0.25])
        normed = ScoreSet(trials, raw, norm)
        norm[0] = 9.0
        assert normed.raw is raw and normed.normalized[0] == 0.5
        assert not np.shares_memory(normed.normalized, norm)
        norm.flags.writeable = False
        assert ScoreSet(trials, raw, norm).normalized is norm

    def test_absent_normalized_column_takes_no_memory(self, rng):
        # 1M trials: the raw column is held as given and the all-NaN
        # normalized column is a view, so only the checks' bool masks remain
        n = 1_000_000
        trials = TrialList(["a"], ["x"], np.zeros(n, dtype=np.intp), np.zeros(n, dtype=np.intp),
                           np.arange(n) % 2 == 0)
        raw = rng.standard_normal(n)
        raw.flags.writeable = False
        assert traced_peak(ScoreSet, trials, raw) < 4 * n
        scores = ScoreSet(trials, raw)
        assert np.isnan(scores.normalized).all() and not scores.normalized.flags.writeable
        assert not scores.has_normalized

    def test_read_only_view_of_a_writable_array_is_copied(self):
        ds = make_dataset(np.zeros((3, 2)))
        x = np.ones((3, 4))
        v = x.view()
        v.flags.writeable = False
        out = ds.with_values(v)
        x[0, 0] = 7.0
        assert out.matrix()[0, 0] == 1.0 and not np.shares_memory(out.matrix(), x)
        trials = TrialList(["a"], ["x", "y"], [0, 0], [0, 1], [True, False])
        raw = np.array([1.0, -1.0, 3.0])
        head = raw[:2]
        head.flags.writeable = False
        scores = ScoreSet(trials, head)
        raw[0] = 9.0
        assert scores.raw[0] == 1.0 and not np.shares_memory(scores.raw, raw)

    def test_the_library_hands_its_arrays_over_uncopied(self, rng, tmp_path, monkeypatch):
        """``read_scores`` and ``load_trials`` columns, ``length_normalize``'s
        output, ``score_trials``' gather and ``build_trials``' columns all
        reach their container as made, as do ``subset``'s positions."""
        handed = []

        def spy(values, dtype):
            held = owned(values, dtype)
            handed.append(held is values)
            return held

        monkeypatch.setattr(dataset, "owned", spy)
        monkeypatch.setattr(gplda, "owned", spy)
        ds = make_dataset(rng.standard_normal((6, 3)), speakers=list("aabbcc"))
        normed = length_normalize(ds)
        length_normalize(ds, rng.standard_normal((3, 2)))
        enrol_pos, test_pos, trials = build_trials(normed)
        model = PldaModel(np.zeros(3), 0.5 * np.ones((3, 1)), np.eye(3))
        scores = score_trials(model, normed.subset(enrol_pos), normed.subset(test_pos), trials)
        write_scores(ScoreSet(trials, scores.raw, scores.raw), tmp_path / "scores.csv")
        save_trials(trials, tmp_path / "trials.txt")
        read_scores(tmp_path / "scores.csv")
        load_trials(tmp_path / "trials.txt")
        # 2 normalized sets, 3 trial columns, 2 subsets' positions, 1 score
        # column and the 2 of its normalized copy, then 2 score and 3 trial
        # columns read, 3 trial columns loaded
        assert handed == [True] * 18
