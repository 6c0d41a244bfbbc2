"""Brute-force reference implementations used to pin expected values.

Everything here is deliberately naive (explicit loops, direct density
evaluation) and independent of the library's computation paths.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np
from scipy.stats import multivariate_normal


def outer_scatter(vectors: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Mean outer product of (v - center) over rows, via explicit loops."""
    dim = vectors.shape[1]
    s = np.zeros((dim, dim))
    for v in vectors:
        d = v - center
        for i in range(dim):
            for j in range(dim):
                s[i, j] += d[i] * d[j]
    return s / vectors.shape[0]


def modified_idv_scatter(out_vecs: np.ndarray, in_vecs: np.ndarray) -> np.ndarray:
    in_mean = in_vecs.mean(axis=0)
    out_mean = out_vecs.mean(axis=0)
    return outer_scatter(out_vecs, in_mean) + outer_scatter(in_vecs, out_mean)


def original_idv_scatter(out_vecs: np.ndarray, in_vecs: np.ndarray) -> np.ndarray:
    return outer_scatter(out_vecs, in_vecs.mean(axis=0))


def lda_scatters(groups: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Between/within scatters from per-speaker session matrices."""
    dim = groups[0].shape[1]
    all_rows = np.concatenate(groups, axis=0)
    global_mean = all_rows.mean(axis=0)
    s_b = np.zeros((dim, dim))
    s_w = np.zeros((dim, dim))
    for rows in groups:
        mean_s = rows.mean(axis=0)
        d = mean_s - global_mean
        s_b += len(rows) * np.outer(d, d)
        for r in rows:
            e = r - mean_s
            s_w += np.outer(e, e)
    return s_b, s_w


def speaker_rows(ds, code: int) -> list[int]:
    """Positions of the rows of speaker ``ds.speakers[code]``, in dataset order."""
    return [pos for pos, c in enumerate(ds.speaker_code.tolist()) if c == code]


def speaker_loop_scatters(ds) -> tuple[np.ndarray, np.ndarray]:
    """LDA scatters by a loop over sorted speakers, one outer product each."""
    mat = ds.matrix()
    global_mean = mat.mean(axis=0)
    s_b = np.zeros((ds.dim, ds.dim))
    s_w = np.zeros((ds.dim, ds.dim))
    for code in range(len(ds.speakers)):
        rows = mat[speaker_rows(ds, code)]
        mean_s = rows.mean(axis=0)
        centered = rows - mean_s
        s_w += centered.T @ centered
        d = mean_s - global_mean
        s_b += len(rows) * np.outer(d, d)
    return (s_b + s_b.T) / 2.0, (s_w + s_w.T) / 2.0


def speaker_loop_stats(ds, center: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """PLDA session sums, session counts and second moment, per sorted speaker."""
    mat = ds.matrix() - center
    f = np.empty((len(ds.speakers), ds.dim))
    ns = np.empty(len(ds.speakers), dtype=np.int64)
    for i in range(len(ds.speakers)):
        rows = mat[speaker_rows(ds, i)]
        f[i] = rows.sum(axis=0)
        ns[i] = len(rows)
    s = mat.T @ mat
    return f, ns, (s + s.T) / 2.0


def ridged_inverse(m: np.ndarray) -> np.ndarray:
    """Inverse of a symmetric PSD matrix, with the library's conditioning
    ridge: 1e-8 of the mean eigenvalue added when the condition number
    exceeds 1e12 or the matrix is not positive definite."""
    dim = m.shape[0]
    eigvals = np.linalg.eigvalsh(m)
    if eigvals[0] <= 0 or eigvals[-1] > 1e12 * eigvals[0]:
        m = m + (1e-8 * np.trace(m) / dim) * np.eye(dim)
    return np.linalg.inv(m)


def reference_em(ds, q: int, iters: int, seed: int):
    """PLDA EM with one E-step row per speaker: (u1, lambda_prec, loglik trace).

    Same initialization as ``train_gplda`` (global mean, seeded 0.1-scaled
    normal eigenvoices, inverse global covariance).  Each speaker s gets
    its own ``P_s = I + n_s g``, inverted directly, and the M-step is the
    textbook one: ``u1 = r_fx inv(r_xx)``, ``within = (S - r_fx u1' - u1
    r_fx' + u1 r_xx u1') / N``.
    """
    mean = ds.matrix().mean(axis=0)
    f, ns, s = speaker_loop_stats(ds, mean)
    n_total, k = len(ds), ds.dim
    u1 = 0.1 * np.random.default_rng(seed).standard_normal((k, q))
    lam = ridged_inverse(s / n_total)

    def e_step(u1, lam):
        t = u1.T @ lam
        g = t @ u1
        xhat = np.empty((len(f), q))
        r_xx = np.zeros((q, q))
        loglik = (
            -0.5 * n_total * k * np.log(2.0 * np.pi)
            + 0.5 * n_total * np.linalg.slogdet(lam)[1]
            - 0.5 * np.sum(lam * s)
        )
        for i in range(len(f)):
            p = np.eye(q) + ns[i] * g
            p_inv = np.linalg.inv(p)
            b = t @ f[i]
            xhat[i] = p_inv @ b
            r_xx += ns[i] * (p_inv + np.outer(xhat[i], xhat[i]))
            loglik += -0.5 * np.linalg.slogdet(p)[1] + 0.5 * b @ xhat[i]
        return xhat, r_xx, float(loglik)

    trace = []
    for _ in range(iters):
        xhat, r_xx, loglik = e_step(u1, lam)
        trace.append(loglik)
        r_fx = f.T @ xhat
        u1 = np.linalg.solve(r_xx, r_fx.T).T
        within = (s - r_fx @ u1.T - u1 @ r_fx.T + u1 @ r_xx @ u1.T) / n_total
        lam = ridged_inverse((within + within.T) / 2.0)
    trace.append(e_step(u1, lam)[2])
    return u1, lam, trace


def synth_matrix(cfg, u: np.ndarray, mean: np.ndarray, channel_scale: float, rng) -> np.ndarray:
    """One generator domain drawn vector by vector, as per-utterance objects were."""
    rows = []
    for _ in range(cfg.n_speakers):
        x = rng.standard_normal(cfg.eigenvoice_dim)
        base = mean + cfg.speaker_scale * (u @ x)
        eps = channel_scale * rng.standard_normal((cfg.sessions_per_speaker, cfg.dim))
        for r in range(cfg.sessions_per_speaker):
            rows.append(np.array(base + eps[r], dtype=np.float64, copy=True))
    return np.stack(rows)


def _rows(ds):
    """(id, speaker text, domain text, duration, values) of every row, in order."""
    speakers = [spk or "" for spk in ds.row_speakers()]
    domains = [d.value for d in ds.domains]
    return zip(ds.ids, speakers, domains, ds.durations.tolist(), ds.matrix())


def ivec_bytes_per_row(ds) -> bytes:
    """IVEC1 bytes written one row at a time."""
    parts = [b"IVEC1", struct.pack("<IQ", ds.dim, len(ds))]
    for utt, spk, dom, duration, values in _rows(ds):
        for text in (utt, spk, dom):
            raw = text.encode("utf-8")
            parts.append(struct.pack("<I", len(raw)))
            parts.append(raw)
        parts.append(struct.pack("<d", duration))
        parts.append(np.ascontiguousarray(values, dtype="<f8").tobytes())
    return b"".join(parts)


def ivec_csv_per_row(ds, path: Path) -> bytes:
    """I-vector CSV bytes written by ``csv.writer`` one row at a time."""
    with open(path, "w", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(["id", "speaker", "domain", "duration"] + [f"v{i}" for i in range(ds.dim)])
        for utt, spk, dom, duration, values in _rows(ds):
            w.writerow([utt, spk, dom, repr(duration)] + [repr(x) for x in values.tolist()])
    return path.read_bytes()


def plda_pair_llr(
    mean: np.ndarray, sigma_between: np.ndarray, sigma_within: np.ndarray,
    w_enrol: np.ndarray, w_test: np.ndarray,
) -> float:
    """Same-speaker LLR via explicit joint-Gaussian log densities."""
    k = mean.shape[0]
    tot = sigma_between + sigma_within
    joint = np.block([[tot, sigma_between], [sigma_between, tot]])
    u = w_enrol - mean
    v = w_test - mean
    return float(
        multivariate_normal.logpdf(np.concatenate([u, v]), mean=np.zeros(2 * k), cov=joint)
        - multivariate_normal.logpdf(u, mean=np.zeros(k), cov=tot)
        - multivariate_normal.logpdf(v, mean=np.zeros(k), cov=tot)
    )


def pair_llr_two_grids(m, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The pair-LLR grid as one expression over whole grids: ``qu + qv``, then
    the cross term, then the constant added to the full (n_u, n_v) sums."""
    q_mat, p_mat, const = m._pair_llr_terms
    u = np.asarray(u, dtype=np.float64) - m.mean
    v = np.asarray(v, dtype=np.float64) - m.mean
    qu = 0.5 * np.einsum("ij,ij->i", u @ q_mat, u)
    qv = 0.5 * np.einsum("ij,ij->i", v @ q_mat, v)
    return qu[:, None] + qv[None, :] + u @ (p_mat @ v.T) + const


def row_mean_std(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and population std of every row, each over the whole matrix at once."""
    return scores.mean(axis=1), scores.std(axis=1)


def stacked_marginal_loglik(
    mean: np.ndarray, sigma_between: np.ndarray, sigma_within: np.ndarray,
    groups: list[np.ndarray],
) -> float:
    """Marginal log-likelihood via one stacked Gaussian per speaker."""
    total = 0.0
    k = mean.shape[0]
    for rows in groups:
        n = rows.shape[0]
        cov = np.kron(np.ones((n, n)), sigma_between) + np.kron(np.eye(n), sigma_within)
        stacked = (rows - mean).ravel()
        total += multivariate_normal.logpdf(stacked, mean=np.zeros(n * k), cov=cov)
    return float(total)


def trial_rows(path: Path) -> list[tuple[str, str, bool]]:
    """(enrol, test, is target) of every non-blank line of a trial list, one
    ``str.split`` per line; a malformed line raises the loader's message."""
    rows = []
    with open(path, encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            tokens = line.split()
            if not tokens:
                continue
            if len(tokens) != 3:
                raise ValueError(f"{path}: line {lineno}: expected 'enrol test target|nontarget'")
            if tokens[2] not in ("target", "nontarget"):
                raise ValueError(f"{path}: line {lineno}: unknown label '{tokens[2]}'")
            rows.append((tokens[0], tokens[1], tokens[2] == "target"))
    return rows


# ---------------------------------------------------------------------------
# detection metrics


def operating_points(tar: np.ndarray, non: np.ndarray) -> list[tuple[float, float]]:
    """(FA, MISS) at every distinct score plus both infinities.

    Accept as target when score >= threshold; counted by explicit loops.
    """
    points = [(1.0, 0.0)]
    for theta in sorted(set(np.concatenate([tar, non]).tolist())):
        fa = sum(1 for s in non if s >= theta) / len(non)
        miss = sum(1 for s in tar if s < theta) / len(tar)
        points.append((fa, miss))
    points.append((0.0, 1.0))
    return points


def sorted_staircase(tar: np.ndarray, non: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(FA, MISS) arrays by searching the thresholds in each sorted class,
    with the (1, 0) point prepended and consecutive duplicates collapsed."""
    thresholds = np.unique(np.concatenate([tar, non]))
    fa = (non.size - np.searchsorted(np.sort(non), thresholds, side="left")) / non.size
    miss = np.searchsorted(np.sort(tar), thresholds, side="left") / tar.size
    fa, miss = np.concatenate([[1.0], fa, [0.0]]), np.concatenate([[0.0], miss, [1.0]])
    new = np.ones(fa.size, dtype=bool)
    new[1:] = (fa[1:] != fa[:-1]) | (miss[1:] != miss[:-1])
    return fa[new], miss[new]


def staircase_corners(fa: np.ndarray, miss: np.ndarray) -> list[tuple[float, float]]:
    """Staircase points without the interior points of horizontal and
    vertical runs: the corners, in staircase order."""
    keep = np.ones(fa.size, dtype=bool)
    keep[1:-1] = ~(
        ((fa[:-2] == fa[1:-1]) & (fa[1:-1] == fa[2:]))
        | ((miss[:-2] == miss[1:-1]) & (miss[1:-1] == miss[2:]))
    )
    return list(zip(fa[keep].tolist(), miss[keep].tolist()))


def inner_corners(fa: np.ndarray, miss: np.ndarray) -> list[tuple[float, float]]:
    """Both ends of the staircase and every point after which MISS rises:
    the low-FA end of each horizontal run, in staircase order."""
    keep = np.ones(fa.size, dtype=bool)
    keep[1:-1] = miss[2:] > miss[1:-1]
    return list(zip(fa[keep].tolist(), miss[keep].tolist()))


def _cross(o: tuple[float, float], a: tuple[float, float], b: tuple[float, float]) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_eer(points: list[tuple[float, float]]) -> float:
    """Crossing with FA == MISS of the lower convex hull of ``points``,
    chained over the sorted, de-duplicated points (Andrew's monotone chain)."""
    hull: list[tuple[float, float]] = []
    for p in sorted(set(points)):
        while len(hull) >= 2 and _cross(hull[-2], hull[-1], p) <= 0:
            hull.pop()
        hull.append(p)
    for a, b in zip(hull, hull[1:]):
        da = a[1] - a[0]
        db = b[1] - b[0]
        if da >= 0.0 and db <= 0.0:
            if da == 0.0:
                return a[0]
            t = da / (da - db)
            return a[0] + t * (b[0] - a[0])
    raise AssertionError("no diagonal crossing on DET hull")


def eer_brute(tar: np.ndarray, non: np.ndarray) -> float:
    """Smallest achievable FA == MISS rate over all threshold pairs.

    Any randomized mix of two thresholds achieves the segment between
    their operating points, so the minimum over all pair crossings (and
    points already on the diagonal) is the equal error rate.
    """
    pts = operating_points(tar, non)
    best = None
    for fa, miss in pts:
        if fa == miss:
            best = fa if best is None else min(best, fa)
    for i in range(len(pts)):
        for j in range(len(pts)):
            (fa1, m1), (fa2, m2) = pts[i], pts[j]
            d1 = m1 - fa1
            d2 = m2 - fa2
            if d1 == d2:
                continue
            t = d1 / (d1 - d2)
            if 0.0 <= t <= 1.0:
                r = fa1 + t * (fa2 - fa1)
                best = r if best is None else min(best, r)
    assert best is not None
    return best


def min_dcf_brute(
    tar: np.ndarray, non: np.ndarray, c_miss: float, c_fa: float, p_target: float
) -> float:
    best = None
    for fa, miss in operating_points(tar, non):
        cost = c_miss * p_target * miss + c_fa * (1.0 - p_target) * fa
        best = cost if best is None else min(best, cost)
    assert best is not None
    return best
