"""Linear discriminant analysis over speaker-labeled i-vectors.

Scatter matrices follow the usual definitions: between-class scatter is
the session-count-weighted outer product of speaker means around the
global mean, within-class scatter sums session deviations around each
speaker mean.  The projection stacks the leading generalized
eigenvectors of (S_b, S_w + ridge*I) as columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dataset import Dataset, centered_gram, check_number, read_model_file, read_only
from .dataset import scipy_linalg, write_model_file

LDA_MAGIC = b"LDA1"

#: Largest accepted deviation of an ``LdaTransform`` column's Euclidean
#: norm from 1.
UNIT_NORM_TOLERANCE = 1e-9


@dataclass(frozen=True)
class LdaTransform:
    """A trained projection: ``a_matrix`` is (D, K), columns sorted by
    descending eigenvalue, each unit length (within ``UNIT_NORM_TOLERANCE``)
    with its largest-magnitude entry (the first, on ties) positive.  These
    two arrays are what an LDA1 file stores.
    """

    a_matrix: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.a_matrix, dtype=np.float64, copy=True)
        lam = np.array(self.eigenvalues, dtype=np.float64, copy=True)
        if a.ndim != 2 or 0 in a.shape:
            raise ValueError("a_matrix must be a non-empty 2-D matrix")
        if not (np.isfinite(a).all() and np.isfinite(lam).all()):
            raise ValueError("a_matrix and eigenvalues must be finite")
        if a.shape[1] > a.shape[0]:
            raise ValueError("cannot retain more directions than the input dimension")
        if lam.shape != (a.shape[1],):
            raise ValueError("need one eigenvalue per retained column")
        if np.any(np.diff(lam) > 0):
            raise ValueError("eigenvalues must be sorted descending")
        peak = a[np.abs(a).argmax(axis=0), np.arange(a.shape[1])]
        with np.errstate(over="ignore"):  # an overflowing norm is off unit length too
            off_unit = np.abs(np.linalg.norm(a, axis=0) - 1.0) > UNIT_NORM_TOLERANCE
        bad = np.flatnonzero(off_unit | (peak <= 0))
        if bad.size:
            raise ValueError(
                f"a_matrix column {bad[0]} is not unit length with a positive"
                " largest-magnitude entry"
            )
        a.flags.writeable = False
        lam.flags.writeable = False
        object.__setattr__(self, "a_matrix", a)
        object.__setattr__(self, "eigenvalues", lam)

    @property
    def input_dim(self) -> int:
        return self.a_matrix.shape[0]

    @property
    def output_dim(self) -> int:
        return self.a_matrix.shape[1]


def scatter_matrices(ds: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """Between- and within-class scatter of a labeled dataset.

    Speaker means come from one pass over ``ds.speaker_code``.  S_b is
    one count-weighted product of the mean deviations; S_w is the
    ``centered_gram`` of the rows around their speaker means, summed over
    row blocks in dataset order.  The sums are therefore taken in
    row-block order, not per sorted speaker, and deterministic for a fixed
    dataset order.
    """
    if not ds.labeled:
        unlabeled = ds.ids[int(np.argmax(ds.speaker_code < 0))]
        raise ValueError(f"dataset has unlabeled items (e.g. '{unlabeled}')")
    if len(ds.speakers) < 2:
        raise ValueError("scatter estimation needs at least two speakers")
    mat = ds.matrix()
    means, counts = ds.speaker_sums()
    means /= counts[:, None]
    s_w = centered_gram(mat, means, ds.speaker_code)
    d = means - mat.mean(axis=0)
    s_b = (d * counts[:, None]).T @ d
    return (s_b + s_b.T) / 2.0, (s_w + s_w.T) / 2.0


def lda_from_scatter(
    s_b: np.ndarray, s_w: np.ndarray, k: int, ridge: float = 1e-6
) -> LdaTransform:
    """Solve S_b v = lambda (S_w + ridge*I) v and keep the top-k directions.

    ``s_b`` and ``s_w`` are (D, D) between- and within-class scatters, of
    which the symmetric parts are used: ``scatter_matrices`` of a dataset,
    or ``M.T @ S @ M`` for the dataset mapped by a matrix ``M``.
    ``ridge`` is relative to trace(S_w)/D; within-class scatter is
    singular whenever speakers have few sessions.  Each retained column
    is renormalized to unit Euclidean length with a deterministic sign.
    """
    check_number("k", k, 1, integer=True)
    check_number("ridge", ridge, 0.0)
    s_b, s_w = np.asarray(s_b, dtype=np.float64), np.asarray(s_w, dtype=np.float64)
    if s_b.ndim != 2 or s_b.shape[0] != s_b.shape[1] or s_w.shape != s_b.shape:
        raise ValueError("s_b and s_w must be square matrices of one shape")
    dim = s_b.shape[0]
    if k > dim:
        raise ValueError(f"k={k} exceeds i-vector dimension {dim}")
    s_b, s_w = (s_b + s_b.T) / 2.0, (s_w + s_w.T) / 2.0
    conditioned = s_w + (ridge * np.trace(s_w) / dim) * np.eye(dim)
    try:
        eigvals, eigvecs = scipy_linalg().eigh(s_b, conditioned)
    except np.linalg.LinAlgError as e:  # scipy.linalg raises numpy's class
        raise ValueError(f"generalized eigendecomposition failed: {e}") from None
    order = np.argsort(eigvals)[::-1][:k]
    lam = eigvals[order]
    a = eigvecs[:, order]
    a = a / np.linalg.norm(a, axis=0)
    flip = np.sign(a[np.abs(a).argmax(axis=0), np.arange(k)])
    a = a * flip
    return LdaTransform(a, lam)


def train_lda(ds: Dataset, k: int, ridge: float = 1e-6) -> LdaTransform:
    """``lda_from_scatter`` of the dataset's ``scatter_matrices``, its arguments checked first."""
    check_number("k", k, 1, integer=True)
    check_number("ridge", ridge, 0.0)
    return lda_from_scatter(*scatter_matrices(ds), k, ridge)


def apply_lda(t: LdaTransform, ds: Dataset) -> Dataset:
    """Project every i-vector to ``a_matrix.T @ w``; output dim is K."""
    if ds.dim != t.input_dim:
        raise ValueError(f"dimension mismatch: transform expects {t.input_dim}, dataset has {ds.dim}")
    return ds.with_values(read_only(ds.matrix() @ t.a_matrix))


def save_lda(t: LdaTransform, path: str | Path) -> None:
    header = (t.input_dim, t.output_dim)
    write_model_file(path, LDA_MAGIC, "<II", header, (t.eigenvalues, t.a_matrix))


def load_lda(path: str | Path) -> LdaTransform:
    """Read an LDA1 file; a malformed or invalid one raises ``ValueError`` naming it."""
    return read_model_file(
        path, LDA_MAGIC, "an LDA transform file", "<II", lambda d, k: [(k,), (d, k)],
        lambda header, arrays: LdaTransform(arrays[1], arrays[0]),
    )
