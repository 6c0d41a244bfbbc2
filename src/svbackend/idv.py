"""Inter-dataset variability (IDV) compensation.

The mismatch between a development (out-domain) and an evaluation
(in-domain) i-vector population is summarized by a scatter matrix of
cross-domain differences; whitening that scatter removes the mismatch
directions from all i-vectors.  Speaker labels are never used here.

One estimator, ``estimate_idv``, computes either variant:

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

from .dataset import Dataset, check_member, check_number, is_symmetric, own_fields
from .dataset import lower_inverse, read_model_file, read_only, write_model_file

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
    before factorization (0.0 when none was needed).  The two arrays follow
    ``owned``.
    """

    variant: IdvVariant
    s_idv: np.ndarray
    decorrelator: np.ndarray
    ridge: float

    def __post_init__(self) -> None:
        check_member("variant", self.variant, IdvVariant)
        check_number("ridge", self.ridge, 0.0)
        s, d = own_fields(self, "s_idv", "decorrelator")
        if s.ndim != 2 or s.shape[0] != s.shape[1] or s.shape[0] < 1:
            raise ValueError("s_idv must be square and non-empty")
        if d.shape != s.shape:
            raise ValueError("decorrelator shape must match s_idv")
        if not is_symmetric(s):
            raise ValueError("s_idv is not symmetric")
        eye = np.eye(s.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the test
            white = d.T @ (s + self.ridge * eye) @ d
            whitens = np.linalg.norm(white - eye) <= 1e-8 * np.linalg.norm(eye)
        if not whitens:
            raise ValueError("decorrelator does not whiten s_idv + ridge*I")

    @property
    def dim(self) -> int:
        return self.s_idv.shape[0]


def _mismatch_scatter(ds: Dataset, center: np.ndarray) -> np.ndarray:
    """Mean outer product of the rows of ``ds`` about ``center``, from the
    set's ``gram()`` about its own mean m: ``(G + n (m - c)(m - c)^T) / n``."""
    mean, gram = ds.gram()
    d = mean - center
    return (gram + len(ds) * np.outer(d, d)) / len(ds)  # symmetric: G is ``c.T @ c`` sums


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
            decorrelator = lower_inverse(np.linalg.cholesky(s + ridge * np.eye(dim))).T
            return IdvTransform(variant, s, decorrelator, ridge)
        except (np.linalg.LinAlgError, ValueError):
            continue
    raise ValueError(
        f"mismatch scatter could not be factorized even with ridge {_RIDGE_LADDER[-1]:g}*trace/dim"
    )


def estimate_idv(
    variant: IdvVariant,
    out_domain: Dataset,
    in_domain: Dataset,
    ridge: float = 1e-6,
    original: IdvTransform | None = None,
) -> IdvTransform:
    """Estimate the mismatch scatter of ``variant`` and its whitening.

    ORIGINAL's scatter is the mean outer product of out-domain i-vectors
    around the in-domain mean; MODIFIED adds the mean outer product of
    in-domain i-vectors around the out-domain mean, so it is symmetric
    under swapping the two datasets.  ``ridge`` is relative to
    trace(S)/dim.  ``variant`` and ``ridge`` are checked before any data
    is read.

    ``original``, the ORIGINAL transform of the same two datasets,
    supplies the first term, so only the mirrored one is computed; the
    sum is the same ``s + mirrored``, so the result is bit for bit the
    fresh estimate.  Another variant or dimension is a ``ValueError``;
    that the datasets are the same is the caller's to keep.
    """
    check_member("variant", variant, IdvVariant)
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
    s = original.s_idv if original is not None else (
        _mismatch_scatter(out_domain, in_domain.matrix().mean(axis=0))
    )
    if variant is IdvVariant.MODIFIED:
        s = s + _mismatch_scatter(in_domain, out_domain.matrix().mean(axis=0))
    return _whitening(variant, s, ridge)


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
