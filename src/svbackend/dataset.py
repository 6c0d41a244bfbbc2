"""Core data types, i-vector file IO, and the synthetic i-vector generator.

The generator draws i-vectors from a linear-Gaussian model: a shared
low-rank speaker subspace, isotropic per-session channel noise, and a
fixed mean offset between the out-domain and in-domain populations.
Short utterances are simulated by adding isotropic noise whose standard
deviation grows as the active-speech duration shrinks.

All types are immutable after construction: every container, here and
in the model modules, takes its arrays by ``owned``, so they are read-only,
aligned and share memory with no writable array, and safe to share across
threads.  Every randomized operation is a pure function of its inputs and
an explicit seed.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import struct
from array import array
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Mapping, Sequence, TypeVar

import numpy as np

IVEC_MAGIC = b"IVEC1"

T = TypeVar("T")

#: Default i-vector dimension of a full-scale telephone-speech system.
DEFAULT_IVECTOR_DIM = 500


class Domain(Enum):
    """Which population an utterance belongs to.

    In-domain matches the evaluation corpus; out-domain matches the
    (mismatched) development corpus.
    """

    IN_DOMAIN = "in"
    OUT_DOMAIN = "out"


def read_only(a: np.ndarray) -> np.ndarray:
    """``a``, marked read-only: how a caller hands an array it made over to a
    container (see ``owned``)."""
    a.flags.writeable = False
    return a


def owned(values: Sequence | np.ndarray, dtype: type) -> np.ndarray:
    """The ownership rule of every container: a read-only, aligned ``dtype``
    array whose memory no writable array reaches is taken as given,
    anything else is copied into a new read-only array.  A read-only array
    is its maker's promise not to change it; a read-only view of a writable
    array is no such promise, so every ndarray on the ``base`` chain must
    be read-only too (the walk stops at a non-array base, such as the
    ``memoryview`` under ``np.frombuffer``).  An unaligned array, such as a
    model file's at an odd byte offset, is copied: numpy's ``u1 @ u1.T`` of
    one gives other bits than of an aligned copy."""
    if isinstance(values, np.ndarray) and values.dtype == dtype and values.flags.aligned:
        a = values
        while isinstance(a, np.ndarray) and not a.flags.writeable:
            a = a.base
        if not isinstance(a, np.ndarray):
            return values
    return read_only(np.array(values, dtype=dtype))


def own_fields(obj: object, *names: str) -> list[np.ndarray]:
    """Set the named fields of the frozen dataclass ``obj`` to their float64
    arrays taken by ``owned``, and return them: how a model type holds its
    arrays.  A non-finite entry raises ``ValueError`` naming the field."""
    for name in names:
        a = owned(getattr(obj, name), np.float64)
        if not np.isfinite(a).all():
            raise ValueError(f"{name} has non-finite entries")
        object.__setattr__(obj, name, a)
    return [getattr(obj, name) for name in names]


def lower_inverse(c: np.ndarray) -> np.ndarray:
    """The inverse of the lower-triangular matrix ``c`` with a nonzero
    diagonal, itself lower triangular: ``c``'s diagonal blocks are inverted
    recursively and the off-diagonal block is ``-inv(B) @ C @ inv(A)``, so
    all but ``np.linalg.inv`` of the small blocks is matrix products.
    numpy's ``inv`` solves against the identity by LU, ~5x a product of
    the same size at 400 x 400, where this takes about half a product."""
    n = c.shape[0]
    if n <= _INVERSE_BLOCK:
        return np.tril(np.linalg.inv(c))
    h = n // 2
    out = np.zeros_like(c)
    out[:h, :h], out[h:, h:] = lower_inverse(c[:h, :h]), lower_inverse(c[h:, h:])
    out[h:, :h] = -(out[h:, h:] @ c[h:, :h]) @ out[:h, :h]
    return out


def _integers(values: Sequence[int] | np.ndarray, what: str) -> np.ndarray:
    """``values`` as a read-only intp array (``owned``); a float, bool or
    object entry raises ``ValueError`` naming ``what`` (an empty sequence
    passes)."""
    arr = np.asarray(values)
    if arr.size and not np.issubdtype(arr.dtype, np.integer):
        raise ValueError(f"{what} must be integers, got {arr.dtype}")
    return owned(arr, np.intp)


#: Largest diagonal block that ``lower_inverse`` hands to ``np.linalg.inv``.
_INVERSE_BLOCK = 64

#: Rows per step of every reduction over a training-size (N, D) matrix:
#: Gram sums, row norms and finiteness checks hold one (_ROW_BLOCK, D)
#: block at a time, never a temporary of the whole matrix.
_ROW_BLOCK = 2048

#: Entries per step of every pass over a trial or cohort grid: the
#: ``pair_llr`` row add, the S-norm cohort statistics and the score-file
#: writer hold one block of this many entries, not one of the whole grid.
#: Each reduces or writes every row on its own, so the size moves no bit.
_GRID_BLOCK = 1 << 16


def row_blocks(n: int, width: int | None = None) -> Iterator[slice]:
    """Consecutive row slices covering ``range(n)`` in order: ``_ROW_BLOCK``
    rows each, or with a row ``width`` as many rows as ``_GRID_BLOCK``
    entries hold (at least one); only the last slice may be shorter."""
    step = _ROW_BLOCK if width is None else max(1, _GRID_BLOCK // max(1, width))
    return (slice(start, min(start + step, n)) for start in range(0, n, step))


def centered_gram(values: np.ndarray, center: np.ndarray) -> np.ndarray:
    """``c.T @ c`` for the centered rows ``c = values - center`` (``center``
    one (D,) row), without an (N, D) temporary.

    Rows are centered ``row_blocks`` at a time in one reused buffer and the
    block products are summed in order: up to ``_ROW_BLOCK`` rows the
    result is the single product, above it the sum is reordered.
    """
    n, dim = values.shape
    buf = np.empty((min(n, _ROW_BLOCK), dim))
    gram = np.zeros((dim, dim)) if n == 0 else None
    for rows in row_blocks(n):
        c = np.subtract(values[rows], center, out=buf[: rows.stop - rows.start])
        if gram is None:
            gram = c.T @ c
        else:
            gram += c.T @ c
    return gram


def _check_kinds(column: str, items: tuple, *kinds: type) -> None:
    """Raise ``ValueError`` naming ``column`` and its first entry that is no ``kinds``."""
    if not set(map(type, items)).issubset(kinds):
        for row, x in enumerate(items):
            if not isinstance(x, kinds):
                names = " or ".join("None" if k is type(None) else k.__name__ for k in kinds)
                raise ValueError(f"{column}: entry {row} is {x!r}, not a {names}")


def _no_location(row: int) -> str:
    return ""


def _check_values(values: np.ndarray, ids: Sequence[str], where: Callable[[int], str]) -> None:
    """Raise ``ValueError`` naming the first row of ``values`` with a non-finite entry."""
    for rows in row_blocks(values.shape[0]):
        bad = np.flatnonzero(~np.isfinite(values[rows]).all(axis=1))
        if bad.size:
            row = rows.start + int(bad[0])
            raise ValueError(f"{where(row)}ivector '{ids[row]}': values contain non-finite entries")


class Dataset:
    """An ordered collection of same-dimension i-vectors, held as columns.

    ``matrix()`` is the read-only (N, D) float64 value matrix; ``ids``
    (unique ``str``), ``domains`` (``Domain``) and ``durations`` (positive
    and finite, read-only) hold one entry per row.  ``speakers`` is the
    table of ``str`` speaker labels in sorted order and ``speaker_code[i]``
    is row i's position in it, or -1 for an unlabeled row.  Rows are validated
    once, when a dataset is built; derived datasets share the columns they
    do not change.
    """

    __slots__ = (
        "dim", "ids", "speakers", "speaker_code", "domains", "durations", "_values", "_gram"
    )
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        values: np.ndarray,
        ids: Sequence[str],
        speakers: Sequence[str | None],
        domains: Sequence[Domain],
        durations: Sequence[float] | np.ndarray,
    ) -> None:
        """Build a dataset from ``values`` (N, D) and one entry per row of the
        other columns; a ``speakers`` entry of None marks an unlabeled row.
        ``values`` and ``durations`` follow ``owned``."""
        values, durations = owned(values, np.float64), owned(durations, np.float64)
        self._build(values, ids, speakers, domains, durations)

    def _build(
        self,
        values: np.ndarray,
        ids: Sequence[str],
        speakers: Sequence[str | None],
        domains: Sequence[Domain],
        durations: np.ndarray,
        where: Callable[[int], str] = _no_location,
    ) -> "Dataset":
        """Validate float64 columns and own them, returning ``self``: the one
        validating path, shared by the constructor, the loaders and synth.
        ``where(row)`` prefixes errors, e.g. with a file and record."""
        if values.ndim != 2 or values.shape[1] < 1:
            raise ValueError(f"dataset values must be an (N, dim>=1) matrix, got {values.shape}")
        n = values.shape[0]
        ids, speakers, domains = tuple(ids), tuple(speakers), tuple(domains)
        if not len(ids) == len(speakers) == len(domains) == n or durations.shape != (n,):
            raise ValueError(f"dataset columns must have one entry per row ({n})")
        _check_kinds("dataset ids", ids, str)
        _check_kinds("dataset speakers", speakers, str, type(None))
        _check_kinds("dataset domains", domains, Domain)
        _check_values(values, ids, where)
        bad = np.flatnonzero(~((durations > 0) & np.isfinite(durations)))
        if bad.size:
            row = int(bad[0])
            raise ValueError(
                f"{where(row)}ivector '{ids[row]}': duration_sec must be positive and finite"
            )
        if len(set(ids)) != n:
            seen: set[str] = set()
            for row, utt in enumerate(ids):
                if utt in seen:
                    raise ValueError(f"{where(row)}duplicate utterance id '{utt}'")
                seen.add(utt)
        table = sorted({s for s in speakers if s is not None})
        if table[:1] == [""]:  # the files store "" as unlabeled
            row = speakers.index("")
            raise ValueError(f"{where(row)}ivector '{ids[row]}': speaker label must be non-empty")
        code_of: dict[str | None, int] = {s: c for c, s in enumerate(table)}
        code_of[None] = -1
        self._values, self.dim = read_only(values), values.shape[1]
        self.ids, self.speakers, self.domains = ids, tuple(table), domains
        self.speaker_code = read_only(np.fromiter(map(code_of.__getitem__, speakers), np.intp, n))
        self.durations = read_only(durations)
        self._gram = None
        return self

    def _derive(
        self, values: np.ndarray, durations: np.ndarray, pos: np.ndarray | None = None
    ) -> "Dataset":
        """The one trusted path: the rows at valid ``pos`` (default: all) with
        validated ``values`` and ``durations``; ids and domains are sliced
        and speakers recoded to the labels the rows use, unchecked."""
        ds = object.__new__(Dataset)
        ds.ids, ds.speakers, ds.speaker_code = self.ids, self.speakers, self.speaker_code
        ds.domains = self.domains
        if pos is not None:
            picks = pos.tolist()
            ds.ids = tuple([self.ids[p] for p in picks])
            ds.domains = tuple([self.domains[p] for p in picks])
            used, code = np.unique(self.speaker_code[pos], return_inverse=True)
            if used.size and used[0] < 0:  # unlabeled rows keep code -1
                used, code = used[1:], code - 1
            ds.speakers = tuple([self.speakers[c] for c in used.tolist()])
            ds.speaker_code = read_only(code)
        ds._values, ds.dim = read_only(values), values.shape[1]
        ds.durations = read_only(durations)
        ds._gram = None
        return ds

    def __len__(self) -> int:
        return self._values.shape[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Dataset):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.ids == other.ids
            and self.row_speakers() == other.row_speakers()
            and self.domains == other.domains
            and np.array_equal(self.durations, other.durations)
            and np.array_equal(self._values, other._values)
        )

    def __repr__(self) -> str:
        return f"Dataset({len(self)} i-vectors of dim {self.dim}, {len(self.speakers)} speakers)"

    def row_speakers(self) -> list[str | None]:
        """Speaker label of every row, None where unlabeled."""
        labels = self.speakers + (None,)  # code -1 picks the trailing None
        return [labels[c] for c in self.speaker_code.tolist()]

    @property
    def labeled(self) -> bool:
        return bool((self.speaker_code >= 0).all())

    def matrix(self) -> np.ndarray:
        """The read-only (N, D) float64 value matrix itself (not a copy)."""
        return self._values

    def gram(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows' mean and the ``centered_gram`` of the rows about it,
        both read-only, computed on the first call and kept: one pass over
        a training set serves LDA's within-class scatter and the IDV
        mismatch scatter."""
        if self._gram is None:
            mean = self._values.mean(axis=0)
            self._gram = read_only(mean), read_only(centered_gram(self._values, mean))
        return self._gram

    def speaker_sums(self) -> tuple[np.ndarray, np.ndarray]:
        """Per-speaker row sums of the matrix and row counts.

        Both follow ``speakers`` order and skip unlabeled rows.  Each sum
        adds its speaker's rows one at a time in dataset order, as a loop
        over that speaker's rows would: the speaker's first run of
        consecutive rows is one reduction over the (C-ordered) run, which
        numpy adds row after row, and any later run is added row by row.
        """
        code = self.speaker_code
        sums = np.zeros((len(self.speakers), self.dim))
        seen = np.zeros(len(self.speakers), dtype=bool)
        starts = np.flatnonzero(np.diff(code, prepend=-2))  # where each run of one code begins
        stops = [*starts[1:].tolist(), len(code)]
        for start, stop, c in zip(starts.tolist(), stops, code[starts].tolist()):
            if c < 0:
                continue
            run = self._values[start:stop]
            if seen[c]:
                for row in run:
                    sums[c] += row
            else:
                np.add.reduce(np.ascontiguousarray(run), axis=0, out=sums[c])
                seen[c] = True
        return sums, np.bincount(code[code >= 0], minlength=len(self.speakers))

    def with_values(self, values: np.ndarray) -> "Dataset":
        """Same metadata, new values (possibly of a new dim); used by transforms.

        The values follow ``owned``: a read-only float64 matrix is held as
        given, anything else is copied."""
        values = owned(values, np.float64)
        if values.ndim != 2 or values.shape[0] != len(self) or values.shape[1] < 1:
            raise ValueError(f"expected a ({len(self)}, dim) matrix")
        _check_values(values, self.ids, _no_location)
        return self._derive(values, self.durations)

    def subset(self, positions: Sequence[int]) -> "Dataset":
        """The rows at integer ``positions``, in that order; a non-integer
        position, one outside ``[0, N)`` or a repeated one (a duplicate id)
        raises ``ValueError``."""
        pos = _integers(positions, "subset positions")
        outside = np.flatnonzero((pos < 0) | (pos >= len(self)))
        if outside.size:
            raise ValueError(f"subset position {pos[outside[0]]} is outside [0, {len(self)})")
        repeats = np.setdiff1d(np.arange(pos.size), np.unique(pos, return_index=True)[1])
        if repeats.size:
            raise ValueError(f"duplicate utterance id '{self.ids[pos[repeats[0]]]}'")
        return self._derive(self._values[pos], self.durations[pos], pos)


#: ``check_number`` bound of each numeric ``GeneratorConfig`` field with one.
_GENERATOR_BOUNDS = dict(
    dim=1, n_speakers=1, sessions_per_speaker=1, eigenvoice_dim=1, speaker_scale=0.0,
    channel_scale=0.0, out_channel_scale=0.0, duration_ref_sec=(0.0, math.inf),
    duration_noise_scale=0.0, seed=0, subspace_seed=0,
)


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs of the synthetic two-domain i-vector generator.

    ``domain_offset`` (``dim`` floats, stored as a tuple; None means zero)
    is the mean shift of the out-domain population relative to the
    in-domain one.
    ``out_channel_scale`` optionally gives the out-domain population its
    own session-noise level (None reuses ``channel_scale``), modeling
    corpora whose recording conditions differ in spread and not just
    location.  ``subspace_seed`` controls the ground-truth speaker
    subspace only; leaving it None ties it to ``seed``.  Giving several
    configs the same ``subspace_seed`` but different ``seed`` draws
    fresh speakers from one shared population, which is how evaluation
    and cohort sets are produced.
    """

    dim: int = DEFAULT_IVECTOR_DIM
    n_speakers: int = 150
    sessions_per_speaker: int = 10
    eigenvoice_dim: int = 50
    speaker_scale: float = 1.0
    channel_scale: float = 1.0
    domain_offset: tuple[float, ...] | None = None
    out_channel_scale: float | None = None
    duration_ref_sec: float = 120.0
    duration_noise_scale: float = 0.0
    duration_noise_exponent: float = 0.5
    seed: int = 0
    subspace_seed: int | None = None

    def __post_init__(self) -> None:
        check_fields(self, _GENERATOR_BOUNDS)
        if self.eigenvoice_dim > self.dim:
            raise ValueError("invalid config: eigenvoice_dim must be in [1, dim]")
        offset = (0.0,) * self.dim if self.domain_offset is None else self.domain_offset
        entries = offset.tolist() if isinstance(offset, np.ndarray) else offset
        if not isinstance(entries, (list, tuple)):
            raise ValueError("invalid config: domain_offset must be a list of numbers")
        for x in entries:
            check_number("domain_offset", x)
        if len(entries) != self.dim:
            raise ValueError(f"invalid config: domain_offset must have length {self.dim}")
        object.__setattr__(self, "domain_offset", tuple(map(float, entries)))

    def noise_sigma(self, duration_sec: float) -> float:
        """Standard deviation per coordinate of the isotropic noise standing in
        for short-utterance phonetic variability at ``duration_sec``:
        ``duration_noise_scale * (duration_ref_sec / d) ** duration_noise_exponent``,
        the scale itself at the reference duration, growing as utterances
        shrink.  The default exponent 0.5 gives an inverse-square-root law.  A
        ``duration_sec`` not a finite number > 0, or whose level overflows, is a
        ``ValueError``; with scale 0 (noise off) the level is 0.0 at every duration."""
        check_number("duration_sec", duration_sec, (0.0, math.inf))
        scale = self.duration_noise_scale
        try:
            ratio = (self.duration_ref_sec / duration_sec) ** self.duration_noise_exponent
        except (OverflowError, ZeroDivisionError):  # 0.0 ** -x once the ratio underflows
            ratio = math.inf
        sigma = scale * ratio if scale else 0.0  # not 0.0 * inf, which is NaN
        if not math.isfinite(sigma):
            raise ValueError(
                f"duration noise overflows at duration {duration_sec:g} s "
                f"with exponent {self.duration_noise_exponent:g}"
            )
        return sigma


def reject_unknown_keys(d: Mapping, cls: type, what: str) -> None:
    """Raise ``ValueError`` naming every key of ``d`` that ``cls`` does not take."""
    unknown = sorted(set(d) - {f.name for f in fields(cls) if f.init})
    if unknown:
        raise ValueError(f"unknown {what} key(s): {', '.join(map(str, unknown))}")


def check_number(
    name: str, value: object, bound: float | tuple[float, float] = -math.inf, integer: bool = False
) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a finite
    number (an integer if ``integer``; never a bool, nor an int beyond the
    float range) of at least ``bound``, or above ``low`` and below ``high``
    for a ``(low, high)`` pair, such as ``(0, math.inf)``.  The message
    states the finite ends of the bound: ``p_target must be a finite number
    > 0 and < 1, got 1.0``."""
    low, high, op = (*bound, ">") if isinstance(bound, tuple) else (bound, math.inf, ">=")
    kind = numbers.Integral if integer else numbers.Real
    ok = isinstance(value, kind) and not isinstance(value, bool)
    try:  # isfinite raises for an int beyond the float range
        ok = ok and math.isfinite(value) and value < high and (
            value > low if op == ">" else value >= low
        )
    except OverflowError:
        ok = False
    if not ok:
        what = "an integer" if integer else "a finite number"
        ends = [f" {o} {x:g}" for o, x in ((op, low), ("<", high)) if math.isfinite(x)]
        raise ValueError(f"{name} must be {what}{' and'.join(ends)}, got {value!r}")


def check_member(name: str, value: object, kind: type[Enum]) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``value`` is a member of
    the enum ``kind``: ``domain must be a member of Domain, got 'in'``."""
    if not isinstance(value, kind):
        raise ValueError(f"{name} must be a member of {kind.__name__}, got {value!r}")


def check_fields(obj: object, bounds: Mapping[str, float | tuple[float, float]]) -> None:
    """``check_number`` every int and float field of dataclass ``obj`` against
    its bound in ``bounds``; a None passes where the annotation allows it.
    Relies on string annotations (``from __future__ import annotations``)."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type.split(" |")[0] in ("int", "float") and not (
            value is None and f.type.endswith("| None")
        ):
            check_number(
                f.name, value, bounds.get(f.name, -math.inf), integer=f.type.startswith("int")
            )


def generator_config_from_dict(d: Mapping) -> GeneratorConfig:
    """Build a generator config from its JSON object, rejecting unknown keys."""
    if not isinstance(d, Mapping):
        raise ValueError(f"generator must be a JSON object, got {d!r}")
    reject_unknown_keys(d, GeneratorConfig, "generator")
    return GeneratorConfig(**d)


def ground_truth_subspace(cfg: GeneratorConfig) -> np.ndarray:
    """Orthonormal (dim, eigenvoice_dim) basis of the generator's speaker subspace.

    Deterministic in ``subspace_seed`` (falling back to ``seed``), so the
    population covariance ``speaker_scale**2 * U @ U.T + channel_scale**2 * I``
    can be reconstructed exactly for a given config.
    """
    entropy = cfg.seed if cfg.subspace_seed is None else cfg.subspace_seed
    rng = np.random.default_rng(np.random.SeedSequence((entropy, 0xB5)))
    g = rng.standard_normal((cfg.dim, cfg.eigenvoice_dim))
    q, r = np.linalg.qr(g)
    # fix signs so the basis is stable under QR implementation details
    q = q * np.sign(np.diag(r))
    return q


def synth_domain(cfg: GeneratorConfig, domain: Domain) -> Dataset:
    """Draw the dataset of one domain from the generator.

    Every i-vector is ``m_domain + speaker_scale * U @ x_s + eps_r`` with
    per-speaker ``x_s ~ N(0, I)``, per-session ``eps_r ~ N(0, c**2 I)``
    (``c`` is the domain's channel scale), the in-domain mean at zero
    and the out-domain mean at ``domain_offset``.  Deterministic given
    the config; all items carry ``duration_ref_sec``.  Each domain draws
    from its own stream, ``SeedSequence(seed).spawn(2)`` taken in ``Domain``
    order, so the two domains of one config are independent draws.
    """
    check_member("domain", domain, Domain)
    u = ground_truth_subspace(cfg)
    stream = np.random.SeedSequence(cfg.seed).spawn(2)[list(Domain).index(domain)]
    rng = np.random.default_rng(stream)
    mean, channel_scale = np.zeros(cfg.dim), cfg.channel_scale
    if domain is Domain.OUT_DOMAIN:
        mean = np.asarray(cfg.domain_offset)
        if cfg.out_channel_scale is not None:
            channel_scale = cfg.out_channel_scale
    n_spk, n_sess, prefix = cfg.n_speakers, cfg.sessions_per_speaker, domain.value
    values = np.empty((n_spk * n_sess, cfg.dim))
    for si in range(n_spk):
        x = rng.standard_normal(cfg.eigenvoice_dim)
        base = mean + cfg.speaker_scale * (u @ x)
        eps = channel_scale * rng.standard_normal((n_sess, cfg.dim))
        np.add(base, eps, out=values[si * n_sess : (si + 1) * n_sess])
    speakers = [f"{prefix}-s{si:04d}" for si in range(n_spk) for _ in range(n_sess)]
    ids = [f"{prefix}-s{si:04d}-u{r:02d}" for si in range(n_spk) for r in range(n_sess)]
    durations = np.full(len(ids), cfg.duration_ref_sec, dtype=np.float64)
    return object.__new__(Dataset)._build(values, ids, speakers, (domain,) * len(ids), durations)


def apply_duration_noise(
    ds: Dataset, duration_sec: float, gen: GeneratorConfig, seed: int
) -> Dataset:
    """Simulate truncating every utterance to ``duration_sec``.

    Adds i.i.d. zero-mean Gaussian noise with the generator's per-coordinate
    ``noise_sigma`` at the target duration and rewrites the duration metadata.
    Only the duration-noise fields of ``gen`` are read.  With
    ``duration_noise_scale == 0`` the values are returned bit-identical.  A
    ``seed`` or ``duration_sec`` out of its bound fails naming itself.
    """
    check_number("seed", seed, 0, integer=True)
    sigma = gen.noise_sigma(duration_sec)
    durations = np.full(len(ds), duration_sec, dtype=np.float64)
    if sigma == 0.0:
        return ds._derive(ds.matrix(), durations)
    rng = np.random.default_rng(seed)
    values = ds.matrix() + sigma * rng.standard_normal((len(ds), ds.dim))
    _check_values(values, ds.ids, _no_location)
    return ds._derive(values, durations)


# ---------------------------------------------------------------------------
# file formats


def save_ivectors(ds: Dataset, path: str | Path, format: str = "binary") -> None:
    """Write a dataset to ``path`` in ``binary`` or ``csv`` format.

    The binary format round-trips bit-exactly; CSV uses shortest
    round-trip decimal rendering (also exact for float64).
    """
    if format == "binary":
        _save_binary(ds, Path(path))
    elif format == "csv":
        _save_csv(ds, Path(path))
    else:
        raise ValueError(f"unknown i-vector format '{format}'")


def load_ivectors(path: str | Path, format: str = "binary") -> Dataset:
    """Read a dataset written by ``save_ivectors``.

    Malformed framing and invalid contents (a non-finite value, a
    non-positive duration, a repeated id, bad UTF-8 or an unknown
    domain) raise ``ValueError`` naming the file and the record (binary)
    or line (CSV).
    """
    if format == "binary":
        return _load_binary(Path(path))
    if format == "csv":
        return _load_csv(Path(path))
    raise ValueError(f"unknown i-vector format '{format}'")


def _text_columns(ds: Dataset) -> tuple[Sequence[str], list[str], list[str]]:
    """Id, speaker (empty when unlabeled) and domain text columns."""
    return ds.ids, [spk or "" for spk in ds.row_speakers()], [d.value for d in ds.domains]


def _save_binary(ds: Dataset, path: Path) -> None:
    parts: list[bytes | memoryview] = [IVEC_MAGIC, struct.pack("<IQ", ds.dim, len(ds))]
    values = memoryview(np.ascontiguousarray(ds.matrix(), dtype="<f8").tobytes())
    step = 8 * ds.dim
    durations = ds.durations.tolist()
    for row, texts in enumerate(zip(*_text_columns(ds))):
        for text in texts:
            raw = text.encode("utf-8")
            parts.append(struct.pack("<I", len(raw)))
            parts.append(raw)
        parts.append(struct.pack("<d", durations[row]))
        parts.append(values[row * step : (row + 1) * step])
    path.write_bytes(b"".join(parts))


_DOMAINS = {d.value: d for d in Domain}


def _load_binary(path: Path) -> Dataset:
    data = path.read_bytes()
    end = len(data)
    if data[: len(IVEC_MAGIC)] != IVEC_MAGIC:
        raise ValueError(f"{path}: bad magic, not an i-vector file")
    off = len(IVEC_MAGIC) + 12
    if off > end:
        raise ValueError(f"{path}: truncated header")
    dim, count = struct.unpack_from("<IQ", data, len(IVEC_MAGIC))
    if dim < 1:
        raise ValueError(f"{path}: header dimension must be positive")
    step = 8 * dim
    if count * (3 * 4 + 8 + step) > end - off:
        raise ValueError(
            f"{path}: header claims {count} records of dimension {dim}, more than the file holds"
        )
    values = np.empty((count, dim))
    durations = np.empty(count)
    ids: list[str] = []
    speakers: list[str | None] = []
    domains: list[Domain] = []
    for rec in range(count):
        texts = []
        for name in ("id", "speaker", "domain"):
            if off + 4 > end:
                raise ValueError(f"{path}: truncated record {rec} {name} length")
            (n,) = struct.unpack_from("<I", data, off)
            off += 4
            if off + n > end:
                raise ValueError(f"{path}: truncated record {rec} {name}")
            try:
                texts.append(data[off : off + n].decode("utf-8"))
            except UnicodeDecodeError:
                raise ValueError(f"{path}: record {rec}: {name} is not valid UTF-8") from None
            off += n
        if off + 8 > end:
            raise ValueError(f"{path}: truncated record {rec} duration")
        (durations[rec],) = struct.unpack_from("<d", data, off)
        off += 8
        if off + step > end:
            raise ValueError(f"{path}: truncated record {rec} values")
        values[rec] = np.frombuffer(data, dtype="<f8", count=dim, offset=off)
        off += step
        domain = _DOMAINS.get(texts[2])
        if domain is None:
            raise ValueError(f"{path}: record {rec}: unknown domain '{texts[2]}'")
        domains.append(domain)
        ids.append(texts[0])
        speakers.append(texts[1] or None)
    if off != end:
        raise ValueError(f"{path}: {end - off} trailing bytes after record {count - 1}")
    return object.__new__(Dataset)._build(
        values, ids, speakers, domains, durations, where=lambda r: f"{path}: record {r}: "
    )


_CSV_FIXED_COLUMNS = ["id", "speaker", "domain", "duration"]


def csv_records(
    path: str | Path, texts: Iterable[str], line_num: int = 0
) -> Iterator[tuple[list[str], int, bool]]:
    """Each row ``csv.reader`` reads from the lines of ``texts`` (split as by a
    file opened with ``newline=""``; blank rows too), the line it ends on (the
    first is ``line_num + 1``) and whether that line ends a text.  A
    ``csv.Error`` raises ``ValueError`` naming the file and line."""
    read = 0  # lines in the texts begun so far

    def lines() -> Iterator[str]:
        nonlocal read
        for text in texts:
            text_lines = io.StringIO(text, newline="").readlines()
            read += len(text_lines)
            yield from text_lines

    reader = csv.reader(lines())
    try:
        for row in reader:
            yield row, line_num + reader.line_num, reader.line_num == read
    except csv.Error as e:
        raise ValueError(f"{path}: line {line_num + reader.line_num}: {e}") from None


def write_csv(path: str | Path, columns: Sequence[str], rows: Iterable[Iterable]) -> None:
    """A CSV table: the ``columns`` header, then ``rows`` as ``csv.writer``
    renders them (a float as its ``repr``, None as a blank)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(columns)
        w.writerows(rows)


def csv_fields(texts: Iterable[str]) -> list[str]:
    """Each text as ``csv.writer`` renders it inside a row (quoted when needed)."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    out = []
    for text in texts:
        buf.seek(0)
        buf.truncate()
        w.writerow((text, ""))  # a second field keeps an empty text unquoted
        out.append(buf.getvalue()[:-2])
    return out


def _save_csv(ds: Dataset, path: Path) -> None:
    """The bytes of ``csv.writer`` rows, with ``repr`` of every number."""
    columns = [csv_fields(texts) for texts in _text_columns(ds)]
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(_CSV_FIXED_COLUMNS + [f"v{i}" for i in range(ds.dim)]) + "\n")
        for utt, spk, dom, duration, row in zip(
            *columns, ds.durations.tolist(), ds.matrix().tolist()
        ):
            f.write(f"{utt},{spk},{dom},{duration!r},{','.join(map(repr, row))}\n")


def _load_csv(path: Path) -> Dataset:
    ids: list[str] = []
    speakers: list[str | None] = []
    domains: list[Domain] = []
    durations: list[float] = []
    rows: list[list[float]] = []
    lines: list[int] = []
    with open(path, "rb") as f:
        records = csv_records(path, (text for _, text in line_blocks(path, f)))
        header, _, _ = next(records, ([], 0, True))
        if header[:4] != _CSV_FIXED_COLUMNS:
            raise ValueError(f"{path}: missing or malformed header")
        dim = len(header) - 4
        if dim < 1:
            raise ValueError(f"{path}: header carries no value columns")
        for row, lineno, _ in records:
            if not row:
                continue
            if len(row) != 4 + dim:
                raise ValueError(
                    f"{path}: line {lineno}: expected {4 + dim} fields, got {len(row)}"
                    " (dimension mismatch with header)"
                )
            try:
                domains.append(Domain(row[2]))
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: unknown domain '{row[2]}'") from None
            try:
                durations.append(float(row[3]))
                rows.append([float(x) for x in row[4:]])
            except ValueError:
                raise ValueError(f"{path}: line {lineno}: malformed number") from None
            ids.append(row[0])
            speakers.append(row[1] or None)
            lines.append(lineno)
    values = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
    return object.__new__(Dataset)._build(
        values, ids, speakers, domains, np.array(durations, dtype=np.float64),
        where=lambda r: f"{path}: line {lines[r]}: ",
    )


def write_model_file(
    path: str | Path, magic: bytes, header_format: str, header: tuple, arrays: Sequence[np.ndarray]
) -> None:
    """Write a model file: ``magic``, the ``struct``-packed header, then each
    array as little-endian float64 in C order."""
    parts = [magic, struct.pack(header_format, *header)]
    parts += [np.ascontiguousarray(a, dtype="<f8").tobytes() for a in arrays]
    Path(path).write_bytes(b"".join(parts))


_SYMMETRY_RTOL = 1e-10


def is_symmetric(m: np.ndarray) -> bool:
    """Whether ``norm(m - m.T) <= _SYMMETRY_RTOL * norm(m)`` (Frobenius) for a
    finite square ``m``.  The norms are taken on ``m`` scaled by a power of
    two, which is exact, so that they cannot overflow."""
    unit = np.ldexp(m, -np.frexp(np.abs(m).max())[1])
    scale = np.linalg.norm(unit)
    return not (scale > 0 and np.linalg.norm(unit - unit.T) > _SYMMETRY_RTOL * scale)


def read_model_file(
    path: str | Path,
    magic: bytes,
    what: str,
    header_format: str,
    shapes: Callable[..., Sequence[tuple[int, ...]]],
    build: Callable[..., T],
) -> T:
    """``build(header, arrays)`` of a ``write_model_file`` file, whose arrays
    have the shapes ``shapes(*header)``.  A bad magic (not ``what``), a short
    header, a wrong size, or a ``ValueError`` of ``shapes`` or ``build``
    raises ``ValueError`` naming the file."""
    data = Path(path).read_bytes()
    if data[: len(magic)] != magic:
        raise ValueError(f"{path}: bad magic, not {what}")
    off = len(magic) + struct.calcsize(header_format)
    if len(data) < off:
        raise ValueError(f"{path}: truncated header")
    header = struct.unpack_from(header_format, data, len(magic))
    try:
        sizes = [(shape, math.prod(shape)) for shape in shapes(*header)]
        expected = off + 8 * sum(n for _, n in sizes)
        if len(data) != expected:
            raise ValueError(f"expected {expected} bytes, found {len(data)}")
        arrays = []
        for shape, n in sizes:
            arrays.append(np.frombuffer(data, dtype="<f8", count=n, offset=off).reshape(shape))
            off += 8 * n
        return build(header, arrays)
    except ValueError as e:
        raise ValueError(f"{path}: {e}") from None


class TrialList:
    """A trial list held as columns.

    ``enrol_ids`` and ``test_ids`` are id tables; trial ``k`` pairs
    ``enrol_ids[enrol_code[k]]`` with ``test_ids[test_code[k]]`` and is
    a target trial when ``is_target[k]``.  Codes are integers (a float,
    bool or object code raises ``ValueError``) and ``is_target`` holds
    booleans (a label text or a number raises); each id table holds distinct
    ``str`` ids.  The columns follow ``owned``: read-only intp codes and a
    read-only bool ``is_target`` are held as given, anything else is copied.
    """

    __slots__ = ("enrol_ids", "test_ids", "enrol_code", "test_code", "is_target")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        enrol_ids: Sequence[str],
        test_ids: Sequence[str],
        enrol_code: np.ndarray,
        test_code: np.ndarray,
        is_target: np.ndarray,
    ) -> None:
        self.enrol_ids = tuple(enrol_ids)
        self.test_ids = tuple(test_ids)
        self.enrol_code = _integers(enrol_code, "enrol_code")
        self.test_code = _integers(test_code, "test_code")
        is_target = np.asarray(is_target)
        if is_target.size and is_target.dtype != bool:
            raise ValueError(f"is_target must be booleans, got {is_target.dtype}")
        self.is_target = owned(is_target, bool)
        n = self.is_target.shape
        if self.is_target.ndim != 1 or self.enrol_code.shape != n or self.test_code.shape != n:
            raise ValueError("trial columns must be 1-D and of equal length")
        for side, ids, code in (
            ("enrol", self.enrol_ids, self.enrol_code),
            ("test", self.test_ids, self.test_code),
        ):
            if code.size and not 0 <= code.min() <= code.max() < len(ids):
                raise ValueError(f"{side} code out of range of the {side} id table")
            _check_kinds(f"{side} id table", ids, str)
            if len(set(ids)) != len(ids):
                raise ValueError(f"repeated id in the {side} id table")

    def __len__(self) -> int:
        return self.is_target.shape[0]

    def trial_text(self, k: int) -> str:
        """Trial ``k`` as its trial-file line, ``enrol test target|nontarget``."""
        label = LABEL_TEXT[int(self.is_target[k])]
        return f"{self.enrol_ids[self.enrol_code[k]]} {self.test_ids[self.test_code[k]]} {label}"

    def id_columns(self) -> tuple[np.ndarray, np.ndarray]:
        """Enrol and test id of every trial, as object arrays."""
        return (
            np.array(self.enrol_ids, dtype=object)[self.enrol_code],
            np.array(self.test_ids, dtype=object)[self.test_code],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TrialList):
            return NotImplemented
        if len(self) != len(other):
            return False
        return np.array_equal(self.is_target, other.is_target) and all(
            np.array_equal(a, b) for a, b in zip(self.id_columns(), other.id_columns())
        )

    def __repr__(self) -> str:
        n_e, n_t = len(self.enrol_ids), len(self.test_ids)
        return f"TrialList({len(self)} trials over {n_e} enrol x {n_t} test ids)"


#: Trial label text by ``is_target`` (False, True), and the reverse map.
LABEL_TEXT = ("nontarget", "target")
TRIAL_LABELS = {text: bool(i) for i, text in enumerate(LABEL_TEXT)}


#: A block's fields (row after row), the line of each row and the block's last line.
Block = tuple[list[str], Sequence[int], int]

#: Bytes read per step by ``line_blocks``.
_READ_BLOCK = 1 << 20

#: ASCII whitespace other than the space and the line ends.
_ODD_SPACE = "\t\v\f\x1c\x1d\x1e\x1f"


def line_blocks(path: str | Path, f: BinaryIO) -> Iterator[tuple[bytes, str]]:
    """The rest of binary file ``f`` in blocks of whole ``\\n``-ended lines,
    about ``_READ_BLOCK`` bytes each, as read and as decoded from UTF-8; a
    bad byte raises ``ValueError`` naming the file and its ``\\n``-counted line."""
    line_num = 0
    while data := f.read(_READ_BLOCK):
        data += f.readline()
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as e:
            line = line_num + data.count(b"\n", 0, e.start) + 1
            raise ValueError(f"{path}: line {line}: not valid UTF-8") from None
        line_num += np.count_nonzero(np.frombuffer(data, dtype=np.uint8) == ord("\n"))
        yield data, text


def block_fields(
    data: bytes, text: str, sep: str, width: int, line_num: int, empty_ok: bool
) -> Block | None:
    """The fields of every line of block ``text``, decoded from ``data``, the
    first of which is line ``line_num + 1``, if each line is ``width`` fields
    joined by single ``sep`` characters; else None.

    Also None when a field is empty (unless ``empty_ok``) or longer than
    ``csv.field_size_limit()``.  Lines end in a newline, the last one
    optionally.  The check is one pass over the separators' bytes.
    """
    if not data.endswith(b"\n"):
        data, text = data + b"\n", text + "\n"
    a = np.frombuffer(data, dtype=np.uint8)
    at = np.flatnonzero((a == ord(sep)) | (a == ord("\n")))
    if at.size % width:
        return None
    kinds = a[at].reshape(-1, width)
    if (kinds[:, -1] != ord("\n")).any() or (kinds[:, :-1] != ord(sep)).any():
        return None
    sizes = np.diff(at, prepend=-1) - 1  # bytes per field
    if sizes.max(initial=0) > csv.field_size_limit() or not (empty_ok or sizes.all()):
        return None
    fields = text.replace("\n", sep).split(sep)
    fields.pop()  # after the last newline
    end = line_num + at.size // width
    return fields, range(line_num + 1, end + 1), end


class TrialColumns:
    """A ``TrialList`` read a block at a time: ``add`` takes the fields and
    lines of a ``Block`` of ``width``-field records, enrol id, test id and
    label first; ``trial_list`` builds the list, ids in first-seen order."""

    def __init__(self, path: str | Path) -> None:
        self.path = path
        self.index: tuple[dict[str, int], dict[str, int]] = ({}, {})  # enrol, test
        self.codes, self.is_target = (array("q"), array("q")), array("b")

    def add(self, fields: list[str], width: int, lines: Sequence[int]) -> None:
        """Append a block's trials; an unknown label raises ``ValueError``
        naming the file and the line of its record."""
        labels = fields[2::width]
        try:
            self.is_target.extend(map(TRIAL_LABELS.__getitem__, labels))
        except KeyError:
            k = next(k for k, label in enumerate(labels) if label not in TRIAL_LABELS)
            raise ValueError(
                f"{self.path}: line {lines[k]}: unknown label '{labels[k]}'"
            ) from None
        for side, (index, codes) in enumerate(zip(self.index, self.codes)):
            ids = fields[side::width]
            for utt in dict.fromkeys(ids):
                index.setdefault(utt, len(index))
            codes.frombytes(np.fromiter(map(index.__getitem__, ids), np.int64, len(ids)).tobytes())

    def trial_list(self) -> TrialList:
        e_code, t_code = (read_only(np.frombuffer(c, dtype=np.int64)) for c in self.codes)
        is_target = read_only(np.frombuffer(self.is_target, dtype=bool))
        return TrialList(*self.index, e_code, t_code, is_target)


def _trial_tokens(path: str | Path, text: str, lineno: int) -> Block:
    """The tokens of each non-blank line of ``text``, the first of which is
    line ``lineno + 1``; a line of other than three tokens or with an
    unknown label raises ``ValueError`` naming the file and line."""
    tokens: list[str] = []
    kept: list[int] = []
    for lineno, line in enumerate(io.StringIO(text, newline=None), start=lineno + 1):
        row = line.split()
        if not row:
            continue
        if len(row) != 3:
            raise ValueError(f"{path}: line {lineno}: expected 'enrol test target|nontarget'")
        if row[2] not in TRIAL_LABELS:
            raise ValueError(f"{path}: line {lineno}: unknown label '{row[2]}'")
        tokens += row
        kept.append(lineno)
    return tokens, kept, lineno


def load_trials(path: str | Path) -> TrialList:
    """Parse a trial list of lines ``enrol test target|nontarget``.

    The file is read in ``line_blocks``; a line ends at ``\\n``, ``\\r\\n``
    or a lone ``\\r``.  A block of ASCII lines of three tokens split by single
    spaces is split at once; a block with other whitespace, a blank line or
    non-ASCII text goes line by line through ``str.split``.  Errors name the
    file and line.
    """
    trials = TrialColumns(path)
    lineno = 0
    with open(path, "rb") as f:
        for data, text in line_blocks(path, f):
            if "\r" in text:  # universal newlines; no block splits a "\r\n"
                text = text.replace("\r\n", "\n").replace("\r", "\n")
                data = text.encode("utf-8")
            split = None
            if text.isascii() and not any(c in text for c in _ODD_SPACE):
                split = block_fields(data, text, " ", 3, lineno, empty_ok=False)
            tokens, lines, lineno = split or _trial_tokens(path, text, lineno)
            trials.add(tokens, 3, lines)
            del tokens, split  # before the next block is split
    return trials.trial_list()


def save_trials(trials: TrialList, path: str | Path) -> None:
    """Write ``trials`` as lines ``enrol test target|nontarget``.

    An id that ``load_trials`` could not read back as one token (empty,
    or holding whitespace) raises ``ValueError`` naming its first trial.
    """
    e_ok = np.array([utt.split() == [utt] for utt in trials.enrol_ids], dtype=bool)
    t_ok = np.array([utt.split() == [utt] for utt in trials.test_ids], dtype=bool)
    bad = np.flatnonzero(~(e_ok[trials.enrol_code] & t_ok[trials.test_code]))
    if bad.size:
        k = int(bad[0])
        raise ValueError(
            f"{path}: trial {k} '{trials.trial_text(k)}': an id is empty or holds whitespace"
        )
    enrol, test = trials.id_columns()
    labels = map(LABEL_TEXT.__getitem__, trials.is_target.tolist())
    lines = map("{} {} {}\n".format, enrol.tolist(), test.tolist(), labels)
    Path(path).write_text("".join(lines), encoding="utf-8")
