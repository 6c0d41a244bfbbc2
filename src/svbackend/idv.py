"""Inter-dataset variability (IDV) compensation.

The mismatch between a development (out-domain) and an evaluation
(in-domain) i-vector population is summarized by a scatter matrix of
cross-domain differences; whitening that scatter removes the mismatch
directions from all i-vectors.  Speaker labels are never used here.

Two estimators are provided:

* original: mean scatter of out-domain i-vectors around the in-domain
  mean only.
* modified: the original term plus the mirrored term (in-domain
  i-vectors around the out-domain mean), which symmetrizes the estimate
  and uses both populations' spread.

The decorrelating transform ``D`` satisfies ``D @ D.T == inv(S + ridge*I)``
and is realized as the inverse transpose of the Cholesky factor of the
(ridge-conditioned) scatter; compensated i-vectors are ``D.T @ w``.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .dataset import Dataset, centered_gram, check_number, is_symmetric, read_model_file
from .dataset import read_only, scipy_linalg, write_model_file

IDV_MAGIC = b"IDV1"

#: Relative ridge ladder tried on factorization failure, as multiples of
#: mean diagonal mass trace(S)/D.
_RIDGE_LADDER = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2)


class IdvVariant(Enum):
    """The estimator; an IDV1 file stores its position in this order."""

    ORIGINAL = "original"
    MODIFIED = "modified"


#: IDV1 variant byte -> variant.
_VARIANT_BYTES = tuple(IdvVariant)


@dataclass(frozen=True)
class IdvTransform:
    """A learned whitening of the inter-dataset mismatch scatter.

    ``ridge`` is the absolute value actually added to the diagonal
    before factorization (0.0 when none was needed).
    """

    variant: IdvVariant
    s_idv: np.ndarray
    decorrelator: np.ndarray
    ridge: float

    def __post_init__(self) -> None:
        check_number("ridge", self.ridge, 0.0)
        s = np.array(self.s_idv, dtype=np.float64, copy=True)
        d = np.array(self.decorrelator, dtype=np.float64, copy=True)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
            raise ValueError("s_idv must be square and non-empty")
        if d.shape != s.shape:
            raise ValueError("decorrelator shape must match s_idv")
        if not (np.isfinite(s).all() and np.isfinite(d).all()):
            raise ValueError("s_idv and decorrelator must be finite")
        if not is_symmetric(s):
            raise ValueError("s_idv is not symmetric")
        conditioned = s + self.ridge * np.eye(s.shape[0])
        inv = np.linalg.inv(conditioned)
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the test
            whitens = np.linalg.norm(d @ d.T - inv) <= 1e-8 * np.linalg.norm(inv)
        if not whitens:
            raise ValueError("decorrelator does not whiten s_idv + ridge*I")
        for name, arr in (("s_idv", s), ("decorrelator", d)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return self.s_idv.shape[0]


def _mismatch_scatter(vectors: np.ndarray, center: np.ndarray) -> np.ndarray:
    s = centered_gram(vectors, center) / vectors.shape[0]
    return (s + s.T) / 2.0


def _whitening(variant: IdvVariant, s: np.ndarray, ridge_factor: float) -> IdvTransform:
    """The transform of the first rung whose decorrelator (the inverse
    transpose of the Cholesky factor of ``s + ridge*I``) whitens it.

    Tries the requested relative ridge first, then escalates through the
    ladder; the scatter is a finite sum of outer products and may be
    numerically singular, so a factor may exist and still not whiten.
    """
    dim = s.shape[0]
    mean_diag = np.trace(s) / dim
    factors = [ridge_factor] + [t for t in _RIDGE_LADDER if t > ridge_factor]
    for factor in factors:
        ridge = factor * mean_diag
        try:  # no factor, or one that does not whiten: try the next rung
            decorrelator = scipy_linalg().solve_triangular(  # factor freed before the test
                np.linalg.cholesky(s + ridge * np.eye(dim)), np.eye(dim), lower=True
            ).T
            return IdvTransform(variant, s, decorrelator, ridge)
        except (np.linalg.LinAlgError, ValueError):
            continue
    raise ValueError(
        f"mismatch scatter could not be factorized even with ridge {_RIDGE_LADDER[-1]:g}*trace/dim"
    )


def _estimate_idv(
    variant: IdvVariant,
    out_domain: Dataset,
    in_domain: Dataset,
    ridge: float,
    original: IdvTransform | None = None,
) -> IdvTransform:
    """The original scatter (``original.s_idv`` when given), plus for
    ``MODIFIED`` its mirrored term, and its whitening."""
    check_number("ridge", ridge, 0.0)
    if len(out_domain) == 0 or len(in_domain) == 0:
        raise ValueError("both datasets must be non-empty")
    if out_domain.dim != in_domain.dim:
        raise ValueError(
            f"dimension mismatch: out-domain {out_domain.dim} vs in-domain {in_domain.dim}"
        )
    if original is not None and (
        original.variant is not IdvVariant.ORIGINAL or original.dim != out_domain.dim
    ):
        raise ValueError(
            f"need an original-variant transform of dimension {out_domain.dim}, got "
            f"{original.variant.value} of dimension {original.dim}"
        )
    out_m, in_m = out_domain.matrix(), in_domain.matrix()
    s = _mismatch_scatter(out_m, in_m.mean(axis=0)) if original is None else original.s_idv
    if variant is IdvVariant.MODIFIED:
        s = s + _mismatch_scatter(in_m, out_m.mean(axis=0))
    return _whitening(variant, s, ridge)


def estimate_modified_idv(
    out_domain: Dataset,
    in_domain: Dataset,
    ridge: float = 1e-6,
    original: IdvTransform | None = None,
) -> IdvTransform:
    """Estimate the symmetrized mismatch scatter and its whitening.

    The scatter is the mean outer product of out-domain i-vectors around
    the in-domain mean plus the mean outer product of in-domain
    i-vectors around the out-domain mean; it is symmetric under swapping
    the two datasets.  ``ridge`` is relative to trace(S)/dim.

    ``original``, the ``estimate_original_idv`` transform of the same two
    datasets, supplies the first term, so only the mirrored one is
    computed; the sum is the same ``s + mirrored``, so the result is bit
    for bit the fresh estimate.  Another variant or dimension is a
    ``ValueError``; that the datasets are the same is the caller's to keep.
    """
    return _estimate_idv(IdvVariant.MODIFIED, out_domain, in_domain, ridge, original)


def estimate_original_idv(
    out_domain: Dataset, in_domain: Dataset, ridge: float = 1e-6
) -> IdvTransform:
    """Single-sided variant: out-domain scatter around the in-domain mean only."""
    return _estimate_idv(IdvVariant.ORIGINAL, out_domain, in_domain, ridge)


def apply_idv(t: IdvTransform, ds: Dataset) -> Dataset:
    """Map every i-vector w to ``decorrelator.T @ w``; metadata is preserved."""
    if ds.dim != t.dim:
        raise ValueError(f"dimension mismatch: transform {t.dim}, dataset {ds.dim}")
    return ds.with_values(read_only(ds.matrix() @ t.decorrelator))


def save_idv(t: IdvTransform, path: str | Path) -> None:
    header = (_VARIANT_BYTES.index(t.variant), t.dim, t.ridge)
    write_model_file(path, IDV_MAGIC, "<BId", header, (t.s_idv, t.decorrelator))


def _idv_shapes(variant_byte: int, dim: int, ridge: float) -> list[tuple[int, int]]:
    """Array shapes of an IDV1 header: variant byte (``_VARIANT_BYTES``), dim, ridge."""
    if variant_byte >= len(_VARIANT_BYTES):
        raise ValueError(f"unknown IDV variant byte {variant_byte}")
    return [(dim, dim), (dim, dim)]


def load_idv(path: str | Path) -> IdvTransform:
    """Read an IDV1 file; a malformed or invalid one raises ``ValueError`` naming it."""
    return read_model_file(
        path, IDV_MAGIC, "an IDV transform file", "<BId", _idv_shapes,
        lambda header, arrays: IdvTransform(_VARIANT_BYTES[header[0]], *arrays, header[2]),
    )
