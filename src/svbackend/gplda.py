"""Length-normalized Gaussian PLDA: training, scoring, and score containers.

The generative model for a projected, length-normalized i-vector is

    w = mean + u1 @ x + eps,    x ~ N(0, I_Q),  eps ~ N(0, inv(lambda_prec))

so between-speaker covariance is ``u1 @ u1.T`` (rank Q) and
within-speaker covariance is the full-rank ``inv(lambda_prec)``.

Training is EM over per-speaker latent factors.  With n_s sessions of
speaker s and centered session sum f_s:

  E-step:  P_s = I + n_s * u1.T @ lam @ u1
           xhat_s = inv(P_s) @ u1.T @ lam @ f_s
           <x x.T>_s = inv(P_s) + xhat_s xhat_s.T
  M-step:  u1   <- (sum_s f_s xhat_s.T) @ inv(sum_s n_s <x x.T>_s)
           within <- (1/N) sum_s sum_r (w_r - u1 xhat_s)(...)T
                     + (1/N) sum_s n_s u1 inv(P_s) u1.T
           lambda_prec <- inv(within)

with the mean frozen to the global data mean.  Both M-step updates
jointly maximize the expected complete-data log-likelihood, so the
exact marginal log-likelihood is non-decreasing across iterations.

Verification scoring is the log-likelihood ratio of "same speaker"
against "independent speakers" for a pair of i-vectors, evaluated in
closed form from the model covariances.
"""

from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .dataset import LABEL_TEXT, Block, Dataset, TrialColumns, TrialList, block_fields, csv_fields
from .dataset import centered_gram, csv_records, is_symmetric, line_blocks, own_fields, owned
from .dataset import check_number, lower_inverse, read_model_file, read_only, row_blocks, write_csv
from .dataset import write_model_file

PLDA_MAGIC = b"PLDA1"

_LOG_2PI = math.log(2.0 * math.pi)

#: Conditioning guard: relative ridge applied to the within covariance
#: before inversion when its condition number exceeds this bound.
_COND_LIMIT = 1e12
_COND_RIDGE = 1e-8
#: ``_spd_inverse`` skips the eigenvalue check when its Frobenius bound on
#: the condition number is this many times below ``_COND_LIMIT``.
_BOUND_MARGIN = 100.0


def _sym(m: np.ndarray) -> np.ndarray:
    return (m + m.T) / 2.0


def _chol_logdet(c: np.ndarray) -> float:
    """Log-determinant of a matrix from its (upper or lower) Cholesky factor."""
    return 2.0 * float(np.sum(np.log(np.diag(c))))


def _cho_inverse(m: np.ndarray) -> tuple[np.ndarray, float]:
    """Inverse and log-determinant of an SPD matrix from its one Cholesky
    factor L: the inverse is ``L^-T L^-1``, exactly symmetric."""
    c = np.linalg.cholesky(m)
    c_inv = lower_inverse(c)
    return c_inv.T @ c_inv, _chol_logdet(c)


def _spd_inverse(m: np.ndarray, what: str) -> np.ndarray:
    """Invert a symmetric PSD matrix, ridging first if badly conditioned.

    The guard ridges when ``eigvalsh`` finds the smallest eigenvalue
    nonpositive or the condition number above ``_COND_LIMIT``.  EM calls
    this every iteration, so the matrix is first factored once and
    inverted from that factor (``L^-T L^-1``, exactly symmetric).  Since
    ``cond_2(m) <= |m|_F * |inv(m)|_F``, a product at most ``_COND_LIMIT /
    _BOUND_MARGIN`` settles the guard: the margin covers the computed
    inverse's rounding (about K eps cond, 3e-4 relative at cond 1e10) and
    ``eigvalsh``'s absolute error (about K eps |m|), so the eigenvalue
    check could not have chosen the ridge, and the inverse is returned at
    once.  A failed factorization, or a product that does not settle it
    (NaN included), runs the eigenvalue check, the ridge and the
    factorization as before.  Every error names the matrix, ``what``.
    """
    try:
        inv = _cho_inverse(m)[0]
    except np.linalg.LinAlgError:
        pass
    else:
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN fails the test
            bound = np.linalg.norm(m) * np.linalg.norm(inv)
        if bound <= _COND_LIMIT / _BOUND_MARGIN:
            return inv
    dim = m.shape[0]
    try:
        eigvals = np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as e:  # non-finite input
        raise np.linalg.LinAlgError(f"{what}: {e}") from None
    if not np.isfinite(m).all():  # numpy's Cholesky factors NaN without an error
        raise ValueError(f"{what}: array must not contain infs or NaNs")
    lo, hi = eigvals[0], eigvals[-1]
    if lo <= 0 or hi > _COND_LIMIT * lo:
        m = m + (_COND_RIDGE * np.trace(m) / dim) * np.eye(dim)
    try:
        return _cho_inverse(m)[0]
    except np.linalg.LinAlgError as e:
        raise ValueError(f"{what} is not positive definite: {e}") from None


def _spd_logdet(m: np.ndarray) -> float:
    """Log-determinant from the Cholesky factor."""
    return _chol_logdet(np.linalg.cholesky(m))


@dataclass(frozen=True, eq=False)
class PldaModel:
    """Trained model parameters plus derived covariance caches.

    ``loglik_trace`` holds the marginal log-likelihood after
    initialization and after each EM iteration; it is not persisted.  The
    three parameter arrays follow ``owned``.
    """

    mean: np.ndarray
    u1: np.ndarray
    lambda_prec: np.ndarray
    loglik_trace: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        mean, u1, lam = own_fields(self, "mean", "u1", "lambda_prec")
        if mean.ndim != 1 or mean.size == 0:
            raise ValueError("mean must be a non-empty vector")
        k = mean.shape[0]
        if u1.ndim != 2 or u1.shape[0] != k:
            raise ValueError("u1 must be (K, Q)")
        if u1.shape[1] > k:
            raise ValueError("more eigenvoices than dimensions")
        if lam.shape != (k, k):
            raise ValueError("lambda_prec must be (K, K)")
        if not is_symmetric(lam):
            raise ValueError("lambda_prec is not symmetric")
        try:
            sigma_within = _cho_inverse(lam)[0]
        except np.linalg.LinAlgError:
            raise ValueError("lambda_prec is not positive definite") from None
        with np.errstate(over="ignore", invalid="ignore"):  # a huge u1 is reported below
            sigma_between = _sym(u1 @ u1.T)
            sigma_total = sigma_within + sigma_between
        for name, arr in (("sigma_between", sigma_between), ("sigma_total", sigma_total)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} has non-finite entries")
        object.__setattr__(self, "sigma_within", read_only(sigma_within))
        object.__setattr__(self, "sigma_between", read_only(sigma_between))
        object.__setattr__(self, "sigma_total", read_only(sigma_total))

    # derived caches, filled in __post_init__
    sigma_within: np.ndarray = field(init=False, repr=False)
    sigma_between: np.ndarray = field(init=False, repr=False)
    sigma_total: np.ndarray = field(init=False, repr=False)

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def n_eigenvoices(self) -> int:
        return self.u1.shape[1]

    def check_dims(self, **sets: Dataset) -> None:
        """Raise ``ValueError`` naming the first of ``sets`` whose dimension is not the model's."""
        for name, ds in sets.items():
            if ds.dim != self.dim:
                raise ValueError(f"{name} has dimension {ds.dim}, model expects {self.dim}")

    @cached_property
    def _pair_llr_terms(self) -> tuple[np.ndarray, np.ndarray, float]:
        """Matrices (Q, P) and constant with llr = u'Qu/2 + v'Qv/2 + u'Pv + const.

        Derived by rotating the joint (same-speaker) covariance into
        sum/difference coordinates: the sum block is ``2*between + within``,
        the difference block is exactly ``within``.  Computed on first use.
        """
        a_inv, logdet_a = _cho_inverse(self.sigma_total)
        s, logdet_ab = _cho_inverse(self.sigma_total + self.sigma_between)
        lam = self.lambda_prec
        q_mat = read_only(a_inv - 0.5 * (s + lam))
        p_mat = read_only(0.5 * (lam - s))
        return q_mat, p_mat, -0.5 * (logdet_ab + _spd_logdet(self.sigma_within) - 2.0 * logdet_a)


def length_normalize(ds: Dataset, projection: np.ndarray | None = None) -> Dataset:
    """Project every i-vector onto the unit sphere, after mapping it by the
    (D, K) ``projection`` when one is given.

    The result's matrix is the one array made: the mapped rows, or a new
    array, divided in place by their norms.  Norms are taken ``row_blocks``
    at a time and each row is reduced alone, so every row is bit for bit
    ``w / np.linalg.norm(w)``.
    """
    mapped = ds.matrix() if projection is None else ds.matrix() @ projection
    norms = np.empty(len(ds))
    for rows in row_blocks(len(ds)):
        norms[rows] = np.linalg.norm(mapped[rows], axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"cannot length-normalize zero vector '{ds.ids[zero[0]]}'")
    out = mapped if mapped.flags.writeable else np.empty_like(mapped)  # the dataset's is read-only
    return ds.with_values(read_only(np.divide(mapped, norms[:, None], out=out)))


@dataclass(frozen=True)
class _SpeakerStats:
    """Sufficient statistics of centered data, grouped by session count."""

    f: np.ndarray  # (R, K) rows with each group's speaker-sum Gram, group by group
    ns: np.ndarray  # (R,) session count of each row's group
    s_phiphi: np.ndarray  # (K, K) second moment of all centered sessions
    n_total: int
    groups: tuple[tuple[int, int, slice], ...]  # (session count, speakers, rows of f)


def _speaker_stats(ds: Dataset, center: np.ndarray) -> _SpeakerStats:
    """Statistics of a labeled dataset's rows around ``center``.

    Every EM quantity depends on the centered speaker sums f_g of a
    session-count group only through ``f_g.T @ f_g``, so a group of more
    speakers than dimensions is held as the (K, K) R factor of its QR
    decomposition, which has the same Gram; a smaller group keeps its
    rows.  EM then costs at most K rows per group, however many speakers.
    """
    s_phiphi = _sym(centered_gram(ds.matrix(), center))  # frees its block before the sums
    sums, counts = ds.speaker_sums()
    sums -= counts[:, None] * center
    rows, groups, start = [], [], 0
    for n in np.unique(counts):
        f_g = sums[counts == n]
        rows.append(np.linalg.qr(f_g, mode="r") if len(f_g) > ds.dim else f_g)
        groups.append((int(n), len(f_g), slice(start, start + len(rows[-1]))))
        start += len(rows[-1])
    ns = np.repeat([n for n, _, _ in groups], [len(r) for r in rows])
    return _SpeakerStats(np.concatenate(rows), ns, s_phiphi, len(ds), tuple(groups))


def _e_step(
    u1: np.ndarray, lam: np.ndarray, stats: _SpeakerStats
) -> tuple[np.ndarray, np.ndarray, float]:
    """Posterior means ``xhat`` of the rows of ``stats.f``, latent moment sum
    ``r_xx`` and exact marginal log-likelihood at (u1, lam), all from one
    Cholesky factor of ``I + n g`` per session-count group of S speakers
    (log-likelihood term of a group: ``-S/2 * logdet(I + n g) + 1/2 *
    sum(b * xhat)`` over its rows)."""
    q = u1.shape[1]
    eye_q = np.eye(q)
    t = u1.T @ lam
    g = _sym(t @ u1)
    b = stats.f @ t.T
    xhat = np.empty_like(b)
    r_xx = np.zeros((q, q))
    loglik = (
        -0.5 * stats.n_total * lam.shape[0] * _LOG_2PI
        + 0.5 * stats.n_total * _spd_logdet(lam)
        - 0.5 * float(np.sum(lam * stats.s_phiphi))
    )
    for n, n_spk, rows in stats.groups:
        p_inv, logdet = _cho_inverse(eye_q + n * g)
        xhat[rows] = b[rows] @ p_inv
        r_xx += n * n_spk * p_inv
        loglik += -0.5 * n_spk * logdet + 0.5 * float(np.sum(b[rows] * xhat[rows]))
    r_xx += (xhat * stats.ns[:, None]).T @ xhat
    return xhat, r_xx, loglik


def marginal_loglik(model: PldaModel, ds: Dataset) -> float:
    """Exact marginal log-likelihood of a labeled dataset under the model."""
    model.check_dims(ds=ds)
    if not ds.labeled:
        raise ValueError("marginal likelihood needs speaker labels")
    stats = _speaker_stats(ds, model.mean)
    return _e_step(model.u1, model.lambda_prec, stats)[2]


def train_gplda(ds: Dataset, q: int = 120, iters: int = 20, seed: int = 0) -> PldaModel:
    """Fit the model by EM with ``q`` eigenvoices for a fixed number of iterations.

    The eigenvoice matrix is initialized from a seeded standard normal
    scaled by 0.1 and the precision from the inverse global covariance;
    the mean is the global mean and is never re-estimated.  Deterministic
    given (data, q, iters, seed).
    """
    check_number("q", q, 1, integer=True)
    check_number("iters", iters, 0, integer=True)
    check_number("seed", seed, 0, integer=True)
    if not ds.labeled:
        raise ValueError("PLDA training needs speaker labels")
    if len(ds.speakers) < 2:
        raise ValueError("PLDA training needs at least two speakers")
    if q > ds.dim:
        raise ValueError(f"q={q} exceeds data dimension {ds.dim}")

    mean = ds.matrix().mean(axis=0)
    u1, lam, trace = _em(_speaker_stats(ds, mean), q, iters, seed)
    return PldaModel(mean, u1, lam, loglik_trace=tuple(trace))


def _em(
    stats: _SpeakerStats, q: int, iters: int, seed: int
) -> tuple[np.ndarray, np.ndarray, list[float]]:
    """``train_gplda``'s EM: final (u1, lambda_prec) and the log-likelihood trace.

    Each iteration factors the within covariance once, in ``_spd_inverse``
    (its conditioning guard reads a bound off that inverse), besides the
    E-step's ``_spd_logdet(lam)`` and its one factor per session-count group.

    A function of its own so that every EM temporary is freed before the
    model's arrays are made: made while they were live, a model array
    could land above the caller's training matrix on the heap and keep
    that space from coming back (paper-train then peaked 7 MB higher in
    about half of its runs).
    """
    rng = np.random.default_rng(seed)
    u1 = 0.1 * rng.standard_normal((stats.f.shape[1], q))
    lam = _spd_inverse(stats.s_phiphi / stats.n_total, "global covariance")
    trace = []
    for it in range(iters):
        xhat, r_xx, loglik = _e_step(u1, lam, stats)
        trace.append(loglik)
        r_fx = stats.f.T @ xhat
        try:
            u1 = np.linalg.solve(_sym(r_xx), r_fx.T).T
        except np.linalg.LinAlgError:
            raise ValueError(f"singular latent-moment accumulator at iteration {it}") from None
        within = (stats.s_phiphi - r_fx @ u1.T) / stats.n_total  # u1 @ r_xx == r_fx
        lam = _spd_inverse(_sym(within), f"within covariance at iteration {it}")
    trace.append(_e_step(u1, lam, stats)[2])
    return u1, lam, trace


# ---------------------------------------------------------------------------
# scoring


def pair_llr(m: PldaModel, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Same-speaker log-likelihood ratio of every row of ``u`` against every row of ``v``.

    Returns the (n_u, n_v) grid whose entry (i, j) scores the pair
    ``(u[i], v[j])`` of same speaker against independent speakers:
    ``ln N([a; b]; 0, [[T, B], [B, T]]) - ln N(a; 0, T) - ln N(b; 0, T)``
    with a, b the mean-centered rows, T the total and B the
    between-speaker covariance, so it is symmetric in the pair.  The cross
    term of the whole grid is one matrix product, and the grid is the one
    array of that size held: each entry is ``(cross + (qu + qv)) + const``,
    bit for bit ``((qu + qv) + cross) + const``, with ``qu + qv`` formed a
    row block at a time.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    for name, x in (("u", u), ("v", v)):
        if x.ndim != 2 or x.shape[1] != m.dim:
            raise ValueError(f"{name}: model expects (n, {m.dim}) rows, got shape {x.shape}")
    q_mat, p_mat, const = m._pair_llr_terms
    u = u - m.mean
    v = v - m.mean
    qu = 0.5 * np.einsum("ij,ij->i", u @ q_mat, u)
    qv = 0.5 * np.einsum("ij,ij->i", v @ q_mat, v)
    grid = u @ (p_mat @ v.T)
    for rows in row_blocks(len(qu), len(qv)):
        grid[rows] += qu[rows, None] + qv[None, :]
    grid += const
    return grid


def _check_scores(trials: TrialList, bad: np.ndarray, what: str) -> None:
    """Raise ``ValueError`` naming the first trial where ``bad`` is set."""
    k = np.flatnonzero(bad)
    if k.size:
        raise ValueError(f"non-finite {what} score for trial {k[0]}: {trials.trial_text(k[0])}")


class ScoreSet:
    """Trials joined with raw and (optionally) normalized LLR scores, as columns.

    ``trial_list`` holds the trials; ``raw`` and ``normalized`` are
    read-only float arrays with one entry per trial, where NaN in
    ``normalized`` means the trial has no normalized score; ``normalized``
    None means no trial has one, held as an all-NaN broadcast view that
    takes no memory per trial.  The given score columns follow ``owned``:
    a read-only float64 column is held as given, anything else is copied.
    """

    __slots__ = ("trial_list", "raw", "normalized")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        trial_list: TrialList,
        raw: Sequence[float] | np.ndarray,
        normalized: Sequence[float] | np.ndarray | None = None,
    ) -> None:
        n = len(trial_list)
        raw = owned(raw, np.float64)
        normalized = (
            np.broadcast_to(math.nan, n) if normalized is None else owned(normalized, np.float64)
        )
        if raw.shape != (n,) or normalized.shape != (n,):
            raise ValueError(f"need one raw and one normalized score per trial ({n})")
        _check_scores(trial_list, ~np.isfinite(raw), "raw")
        _check_scores(trial_list, np.isinf(normalized), "normalized")
        self.trial_list = trial_list
        self.raw = raw
        self.normalized = normalized

    def __len__(self) -> int:
        return len(self.trial_list)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ScoreSet):
            return NotImplemented
        return (
            self.trial_list == other.trial_list
            and np.array_equal(self.raw, other.raw)
            and np.array_equal(self.normalized, other.normalized, equal_nan=True)
        )

    def __repr__(self) -> str:
        return f"ScoreSet({self.trial_list!r}, normalized={self.has_normalized})"

    @property
    def has_normalized(self) -> bool:
        return not np.isnan(self.normalized).any()

    def values(self, which: str = "raw") -> np.ndarray:
        if which == "raw":
            return self.raw
        if which == "normalized":
            if not self.has_normalized:
                raise ValueError("score set has no normalized scores")
            return self.normalized
        raise ValueError(f"unknown score kind '{which}'")


def dataset_rows(ds: Dataset, ids: Sequence[str], code: np.ndarray, side: str) -> np.ndarray:
    """Positions in ``ds`` of an id table; unknown ids name their first trial."""
    index = {utt: i for i, utt in enumerate(ds.ids)}
    rows = np.empty(len(ids), dtype=np.intp)
    for c, utt in enumerate(ids):
        pos = index.get(utt)
        if pos is None:
            first = np.flatnonzero(code == c)
            where = f"trial {first[0]}: " if first.size else ""
            raise ValueError(f"{where}unknown {side} id '{utt}'")
        rows[c] = pos
    return rows


def score_trials(
    m: PldaModel, enrol: Dataset, test: Dataset, trials: TrialList
) -> ScoreSet:
    """Score a trial list; each score is within 1e-10 of ``pair_llr`` of its pair alone.

    ``pair_llr`` scores the grid of enrol-table rows against test-table
    rows once and each trial gathers its entry, so the cost is one
    (n_enrol_ids x n_test_ids) grid however many trials reuse it.  The
    grid's cross term is a matrix product, which sums in a different
    order than a per-pair dot product: on 150-dimensional models the
    largest difference measured is about 2e-13.
    """
    m.check_dims(enrol=enrol, test=test)
    e_rows = dataset_rows(enrol, trials.enrol_ids, trials.enrol_code, "enrol")
    t_rows = dataset_rows(test, trials.test_ids, trials.test_code, "test")
    grid = pair_llr(m, enrol.matrix()[e_rows], test.matrix()[t_rows])
    return ScoreSet(trials, read_only(grid[trials.enrol_code, trials.test_code]))


# ---------------------------------------------------------------------------
# persistence


def save_plda(m: PldaModel, path: str | Path) -> None:
    arrays = (m.mean, m.u1, m.lambda_prec)
    write_model_file(path, PLDA_MAGIC, "<II", (m.dim, m.n_eigenvoices), arrays)


def load_plda(path: str | Path) -> PldaModel:
    """Read a PLDA1 file; a malformed or invalid one raises ``ValueError`` naming it."""
    return read_model_file(
        path, PLDA_MAGIC, "a PLDA model file", "<II", lambda k, q: [(k,), (k, q), (k, k)],
        lambda header, arrays: PldaModel(*arrays),
    )


def save_loglik_trace(m: PldaModel, path: str | Path) -> None:
    """Write the training log-likelihood trace as a two-column CSV."""
    if m.loglik_trace is None:
        raise ValueError("model carries no log-likelihood trace")
    write_csv(path, ["iteration", "loglik"], enumerate(m.loglik_trace))


# ---------------------------------------------------------------------------
# score-set CSV


SCORE_COLUMNS = ["enrol", "test", "label", "raw_llr", "norm_llr"]


def write_scores(scores: ScoreSet, path: str | Path) -> None:
    """CSV columns: enrol,test,label,raw_llr,norm_llr (norm blank if absent).

    The bytes are those of ``csv.writer`` rows of the ids, the label and
    ``repr`` of each score; only the scores present are formatted.
    """
    tl = scores.trial_list
    enrol_ids = np.array(csv_fields(tl.enrol_ids), dtype=object)
    test_ids = np.array(csv_fields(tl.test_ids), dtype=object)
    labels = np.array(LABEL_TEXT, dtype=object)
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(SCORE_COLUMNS) + "\n")
        for rows in row_blocks(len(tl), len(SCORE_COLUMNS)):
            columns = (
                enrol_ids[tl.enrol_code[rows]].tolist(),
                test_ids[tl.test_code[rows]].tolist(),
                labels[tl.is_target[rows].view(np.uint8)].tolist(),
                _score_texts(scores.raw[rows]),
                _score_texts(scores.normalized[rows]),
            )
            f.write("\n".join(map(",".join, zip(*columns))) + "\n")


def _score_texts(scores: np.ndarray) -> list[str]:
    """``repr`` of each score; blank where the score is NaN (absent)."""
    absent = np.isnan(scores)
    if not absent.any():
        return list(map(repr, scores.tolist()))
    texts = np.full(len(scores), "", dtype=object)
    texts[~absent] = list(map(repr, scores[~absent].tolist()))
    return texts.tolist()


def _float_or_nan(text: str) -> float:
    return float(text) if text else math.nan


def _parse_scores(
    path: str | Path, texts: list[str], lines: Sequence[int], what: str, blank_ok: bool
) -> np.ndarray | None:
    """Floats of one score column of a block, ``lines[k]`` the line of ``texts[k]``.

    A blank reads as NaN when ``blank_ok``; every other value must be
    finite.  Errors name the file and line.  An all-blank column is None,
    at no per-item cost, and only a column mixing blanks and values goes
    through ``_float_or_nan``.
    """
    blank = None
    if blank_ok:
        if not any(texts):
            return None
        if not all(texts):
            blank = ~np.fromiter(map(bool, texts), bool, len(texts))
    parse = float if blank is None else _float_or_nan
    try:
        vals = np.fromiter(map(parse, texts), np.float64, len(texts))
    except ValueError:
        for k, text in enumerate(texts):
            try:
                parse(text)
            except ValueError:
                raise ValueError(f"{path}: line {lines[k]}: malformed score") from None
        raise
    bad = ~np.isfinite(vals)
    if blank is not None:
        bad &= ~blank
    if bad.any():
        k = int(np.argmax(bad))
        raise ValueError(f"{path}: line {lines[k]}: non-finite {what} score '{texts[k]}'")
    return vals


def _csv_rows(path: str | Path, texts: Iterator[str], line_num: int) -> Block:
    """The records in ``texts``, a block and the ones after it, up to the first
    block end that is also a record end, each with the line it ends on (the
    block's first is ``line_num + 1``).  Blank rows are skipped; a row of
    other than 5 fields raises ``ValueError`` naming the file and line."""
    fields: list[str] = []
    kept: list[int] = []
    for row, line_num, block_end in csv_records(path, texts, line_num):
        if len(row) == len(SCORE_COLUMNS):
            fields += row
            kept.append(line_num)
        elif row:
            raise ValueError(f"{path}: line {line_num}: expected 5 fields")
        if block_end:
            break
    return fields, kept, line_num


def read_scores(path: str | Path) -> ScoreSet:
    """Read a score CSV written by ``write_scores``.

    The file is read in ``dataset.line_blocks``.  A block without quotes,
    carriage returns or blank lines and with 5 fields on every line is
    split at once; any other block goes through ``csv.reader``.  Scores
    are parsed and trials added (``dataset.TrialColumns``) a block at a
    time, each record with its line, so errors name the file and line
    without a second read.  Normalized scores are stored from the first
    block that has one, so a file without any holds no normalized column.
    """
    width = len(SCORE_COLUMNS)
    trials = TrialColumns(path)
    raw, norm = array("d"), array("d")
    with open(path, "rb") as f:
        blocks = line_blocks(path, f)
        data, text = next(blocks, (b"", ""))
        head = io.StringIO(text, newline="").readline()
        header, line_num, _ = next(csv_records(path, [head]), (None, 0, True))
        if header != SCORE_COLUMNS:
            raise ValueError(f"{path}: missing or malformed score header")
        texts = (t for _, t in blocks)  # for _csv_rows, which may read on
        for data, text in chain([(data[len(head) :], text[len(head) :])], blocks):
            split = None
            if b'"' not in data and b"\r" not in data:
                split = block_fields(data, text, ",", width, line_num, empty_ok=True)
            fields, lines, line_num = split or _csv_rows(path, chain([text], texts), line_num)
            del data, text, split
            raws = _parse_scores(path, fields[3::width], lines, "raw", blank_ok=False)
            norms = _parse_scores(path, fields[4::width], lines, "normalized", blank_ok=True)
            trials.add(fields, width, lines)
            if norms is not None:  # after NaN for the all-blank columns before
                norm.frombytes(np.full(len(raw) - len(norm), math.nan).tobytes() + norms.tobytes())
            raw.frombytes(raws.tobytes())
            del fields  # before the next block is split
    if norm:
        norm.frombytes(np.full(len(raw) - len(norm), math.nan).tobytes())
    norm_col = read_only(np.frombuffer(norm)) if norm else None
    return ScoreSet(trials.trial_list(), read_only(np.frombuffer(raw)), norm_col)
