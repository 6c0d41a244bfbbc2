from __future__ import annotations

import gc
import tracemalloc
from typing import Iterable

import numpy as np
import pytest
from hypothesis import strategies as st

from svbackend.dataset import Dataset, Domain, TrialList
from svbackend.gplda import ScoreSet


def make_dataset(
    values: np.ndarray,
    speakers: list[str | None] | None = None,
    domain: Domain = Domain.IN_DOMAIN,
    duration: float = 120.0,
    prefix: str = "utt",
) -> Dataset:
    """Wrap an (N, D) matrix as a dataset with generated ids."""
    values = np.atleast_2d(np.asarray(values, dtype=np.float64))
    n = values.shape[0]
    if speakers is None:
        speakers = [f"spk{i:03d}" for i in range(n)]
    return Dataset(
        values, [f"{prefix}{i:04d}" for i in range(n)], speakers[:n], [domain] * n, [duration] * n
    )


def make_trials(rows: Iterable[tuple[str, str, bool]]) -> TrialList:
    """A trial list of (enrol id, test id, is target) rows; id tables in first-seen order."""
    e_index: dict[str, int] = {}
    t_index: dict[str, int] = {}
    e_code, t_code, labels = [], [], []
    for enrol, test, is_target in rows:
        e_code.append(e_index.setdefault(enrol, len(e_index)))
        t_code.append(t_index.setdefault(test, len(t_index)))
        labels.append(is_target)
    return TrialList(e_index, t_index, e_code, t_code, labels)


def make_scoreset(tar: list[float], non: list[float]) -> ScoreSet:
    """Raw scores of target trials e-t{i}/t-t{i}, then of nontarget trials e-n{i}/t-n{i}."""
    trials = make_trials(
        [(f"e-t{i}", f"t-t{i}", True) for i in range(len(tar))]
        + [(f"e-n{i}", f"t-n{i}", False) for i in range(len(non))]
    )
    return ScoreSet(trials, [float(s) for s in [*tar, *non]])


def traced_peak(fn, *args) -> int:
    """Bytes ``fn(*args)`` allocates at its peak, on top of what was live
    before; a warm-up call first keeps lazy imports out of the count."""
    fn(*args)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@st.composite
def shuffled_labeled_datasets(draw, max_dim: int = 5) -> Dataset:
    """Labeled datasets with unequal session counts and interleaved speaker rows.

    Labels are drawn so that sorted-label order differs from first
    appearance, and values span several orders of magnitude.
    """
    counts = draw(st.lists(st.integers(1, 5), min_size=2, max_size=7))
    dim = draw(st.integers(1, max_dim))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    names = [f"s{k}" for k in rng.permutation(len(counts))]
    speakers = [names[k] for k, n in enumerate(counts) for _ in range(n)]
    order = rng.permutation(len(speakers))
    centers = {name: 3.0 * rng.standard_normal(dim) for name in names}
    noise = rng.standard_normal((len(order), dim))
    values = np.array([centers[speakers[i]] for i in order]) + noise
    scale = 10.0 ** draw(st.integers(-3, 3))
    return make_dataset(scale * values, speakers=[speakers[i] for i in order])
