"""Symmetric score normalization (S-norm) against an impostor cohort.

Each trial score s is standardized twice, once against the enrolment
side's cohort scores and once against the test side's, and the two are
averaged:

    s' = ((s - mu_e) / sigma_e + (s - mu_t) / sigma_t) / 2

Cohort statistics use the population (1/N) standard deviation.  A
cohort is a ``Dataset`` of impostor i-vectors that must already live in
the same compensated space as the evaluation data; a matched-length
cohort is produced by ``apply_duration_noise`` over a raw cohort before
re-applying the compensation chain.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dataset import Dataset, read_only, row_blocks
from .gplda import PldaModel, ScoreSet, dataset_rows, pair_llr


def cohort_score_matrix(m: PldaModel, ds: Dataset, cohort: Dataset) -> np.ndarray:
    """LLR of every dataset item (rows) against every cohort item (columns)."""
    if len(cohort) == 0:
        raise ValueError("cohort must be non-empty")
    m.check_dims(ds=ds, cohort=cohort)
    return pair_llr(m, ds.matrix(), cohort.matrix())


def _side_stats(
    side: str, cohort_scores: np.ndarray, ids: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Cohort mean and population std of each row of ``cohort_scores``, one row per id."""
    cohort_scores = np.asarray(cohort_scores, dtype=np.float64)
    if cohort_scores.ndim != 2 or cohort_scores.shape[0] != len(ids):
        raise ValueError(
            f"{side} cohort scores must be one row per {side} id ({len(ids)}), "
            f"got shape {cohort_scores.shape}"
        )
    if len(ids) and cohort_scores.shape[1] == 0:
        raise ValueError(f"empty cohort: no scores on {side} side for '{ids[0]}'")
    mu, sd = np.empty(len(ids)), np.empty(len(ids))
    for rows in row_blocks(len(ids), cohort_scores.shape[1]):
        finite = np.isfinite(cohort_scores[rows]).all(axis=1)
        if not finite.all():  # checked first: the std of such a row would only warn
            bad = ids[rows.start + int(np.argmin(finite))]
            raise ValueError(f"non-finite cohort score on {side} side for '{bad}'")
        with np.errstate(over="ignore"):  # an overflowing spread is rejected below
            mu[rows], sd[rows] = cohort_scores[rows].mean(axis=1), cohort_scores[rows].std(axis=1)
    for bad, what in ((sd == 0.0, "zero"), (~np.isfinite(sd), "non-finite")):
        k = np.flatnonzero(bad)
        if k.size:
            raise ValueError(
                f"degenerate cohort: {what} score variance on {side} side for '{ids[k[0]]}'"
            )
    return mu, sd


def snorm_from_cohort_scores(
    scores: ScoreSet, enrol_cohort: np.ndarray, test_cohort: np.ndarray
) -> ScoreSet:
    """Apply the S-norm formula given cohort score matrices.

    Row i of ``enrol_cohort`` (``test_cohort``) holds the cohort scores
    of ``scores.trial_list.enrol_ids[i]`` (``test_ids[i]``).  Invariant
    under a shared positive affine map of raw and cohort scores.  Raises
    when a row's cohort scores are empty or non-finite, when their
    variance is zero or overflows, and when a normalized score overflows.
    """
    tl = scores.trial_list
    mu_e, sd_e = _side_stats("enrol", enrol_cohort, tl.enrol_ids)
    mu_t, sd_t = _side_stats("test", test_cohort, tl.test_ids)
    s = scores.raw
    e, t = tl.enrol_code, tl.test_code
    with np.errstate(over="ignore"):  # an overflowing score fails the ScoreSet check
        normalized = 0.5 * ((s - mu_e[e]) / sd_e[e] + (s - mu_t[t]) / sd_t[t])
    return ScoreSet(tl, s, read_only(normalized))


def snorm(
    m: PldaModel,
    scores: ScoreSet,
    enrol: Dataset,
    test: Dataset,
    cohort: Dataset,
) -> ScoreSet:
    """Fill the normalized score of every trial; raw scores are untouched.

    Each side scores its id table's rows, in table order, against the
    cohort; unknown ids name their first trial.
    """
    m.check_dims(enrol=enrol, test=test, cohort=cohort)
    tl = scores.trial_list

    def side_scores(side: str, ds: Dataset, ids: Sequence[str], code: np.ndarray) -> np.ndarray:
        return cohort_score_matrix(m, ds.subset(dataset_rows(ds, ids, code, side)), cohort)

    return snorm_from_cohort_scores(
        scores,
        side_scores("enrol", enrol, tl.enrol_ids, tl.enrol_code),
        side_scores("test", test, tl.test_ids, tl.test_code),
    )

