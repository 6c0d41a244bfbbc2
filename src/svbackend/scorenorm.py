"""Symmetric score normalization (S-norm) against an impostor cohort.

Each trial score s is standardized twice, once against the enrolment
side's cohort scores and once against the test side's, and the two are
averaged:

    s' = ((s - mu_e) / sigma_e + (s - mu_t) / sigma_t) / 2

Cohort statistics use the population (1/N) standard deviation.  Cohort
i-vectors must already live in the same compensated space as the
evaluation data; a matched-length cohort is produced by running the
duration-noise model over a raw cohort before re-applying the
compensation chain.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import Dataset, DurationNoiseModel, apply_duration_noise
from .gplda import PldaModel, ScoreSet, pair_llr


@dataclass(frozen=True)
class Cohort:
    """Impostor utterances used only for score normalization."""

    vectors: Dataset
    label: str

    def __post_init__(self) -> None:
        if len(self.vectors) == 0:
            raise ValueError("cohort must be non-empty")


def cohort_score_matrix(m: PldaModel, ds: Dataset, cohort: Cohort) -> np.ndarray:
    """LLR of every dataset item (rows) against every cohort item (columns)."""
    if ds.dim != m.dim or cohort.vectors.dim != m.dim:
        raise ValueError(f"model expects dimension {m.dim}")
    return pair_llr(m, ds.matrix(), cohort.vectors.matrix())


def _side_stats(
    side: str, table: Mapping[str, np.ndarray], ids: Sequence[str]
) -> tuple[np.ndarray, np.ndarray]:
    """Cohort mean and population std of every id in ``ids``, from ``table``."""
    stats: dict[str, tuple[float, float]] = {}
    for utt, arr in table.items():
        arr = np.asarray(arr, dtype=np.float64)
        sigma = float(arr.std())
        if sigma == 0.0:
            raise ValueError(
                f"degenerate cohort: zero score variance on {side} side for '{utt}'"
            )
        stats[utt] = (float(arr.mean()), sigma)
    missing = [utt for utt in ids if utt not in stats]
    if missing:
        raise ValueError(f"no {side} cohort scores for '{missing[0]}'")
    mu, sd = np.array([stats[utt] for utt in ids], dtype=np.float64).reshape(-1, 2).T
    return mu, sd


def snorm_from_cohort_scores(
    scores: ScoreSet,
    enrol_cohort: Mapping[str, np.ndarray],
    test_cohort: Mapping[str, np.ndarray],
) -> ScoreSet:
    """Apply the S-norm formula given per-utterance cohort score arrays.

    Invariant under a shared positive affine map of raw and cohort
    scores.  Raises when a side's cohort scores have zero variance.
    """
    tl = scores.trial_list
    mu_e, sd_e = _side_stats("enrol", enrol_cohort, tl.enrol_ids)
    mu_t, sd_t = _side_stats("test", test_cohort, tl.test_ids)
    s = scores.raw
    e, t = tl.enrol_code, tl.test_code
    return scores.with_normalized(0.5 * ((s - mu_e[e]) / sd_e[e] + (s - mu_t[t]) / sd_t[t]))


def snorm(
    m: PldaModel,
    scores: ScoreSet,
    enrol: Dataset,
    test: Dataset,
    cohort: Cohort,
) -> ScoreSet:
    """Fill ``normalized_llr`` for every trial; raw scores are untouched."""
    tl = scores.trial_list

    def side_scores(side: str, ds: Dataset, ids: Sequence[str]) -> dict[str, np.ndarray]:
        needed = set(ids)
        missing = sorted(needed.difference(ds.ids))
        if missing:
            raise ValueError(f"unknown {side} id '{missing[0]}'")
        sub = ds.subset([i for i, utt in enumerate(ds.ids) if utt in needed])
        return dict(zip(sub.ids, cohort_score_matrix(m, sub, cohort)))

    return snorm_from_cohort_scores(
        scores, side_scores("enrol", enrol, tl.enrol_ids), side_scores("test", test, tl.test_ids)
    )


def matched_length_cohort(
    base: Cohort, duration_sec: float, noise: DurationNoiseModel, seed: int
) -> Cohort:
    """Truncate a raw cohort to the evaluation duration via the noise model.

    The result still needs the compensation chain applied before use;
    the label records the target duration.
    """
    vectors = apply_duration_noise(base.vectors, duration_sec, noise, seed)
    return Cohort(vectors, label=f"{base.label}@{duration_sec:g}s")
