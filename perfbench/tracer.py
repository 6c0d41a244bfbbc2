"""Span tracer that wraps svbackend's public functions from outside.

``Tracer.install`` replaces each traced function in every svbackend
module namespace that binds it (``harness``, ``scorenorm`` and ``cli``
import by name; ``snorm`` and ``evaluate`` look up ``cohort_score_matrix``
and ``eer``/``min_dcf`` in their own module), so nested calls are traced
too.  Each call becomes a span with a name, start, end and parent; spans
stay in memory until ``layer_metrics`` reduces them to self seconds per
layer plus the work counts taken at the same call boundaries.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

Counter = Callable[[tuple, dict, Any], dict[str, int]]


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _file_bytes(pos: int) -> Counter:
    return lambda a, k, r: {"dataset.file_bytes": os.path.getsize(_arg(a, k, pos, "path"))}


def _len_result(metric: str) -> Counter:
    return lambda a, k, r: {metric: len(r)}


def _len_arg(metric: str, *names: str) -> Counter:
    return lambda a, k, r: {metric: sum(len(_arg(a, k, i, n)) for i, n in enumerate(names))}


#: (module, function) -> (layer span name, work counter or None).
TRACED: dict[tuple[str, str], tuple[str, Counter | None]] = {
    ("dataset", "synth_dataset"): (
        "dataset.synth", lambda a, k, r: {"dataset.synth_vectors": len(r[0]) + len(r[1])}),
    ("dataset", "apply_duration_noise"): (
        "dataset.duration_noise", _len_result("dataset.duration_noise_vectors")),
    ("dataset", "load_ivectors"): ("dataset.file_load", _file_bytes(0)),
    ("dataset", "load_trials"): ("dataset.file_load", _file_bytes(0)),
    ("dataset", "save_ivectors"): ("dataset.file_save", _file_bytes(1)),
    ("dataset", "save_trials"): ("dataset.file_save", _file_bytes(1)),
    ("idv", "estimate_original_idv"): (
        "idv.estimate", _len_arg("idv.estimate_vectors", "out_domain", "in_domain")),
    ("idv", "estimate_modified_idv"): (
        "idv.estimate", _len_arg("idv.estimate_vectors", "out_domain", "in_domain")),
    ("idv", "apply_idv"): ("idv.apply", _len_result("idv.apply_vectors")),
    ("lda", "train_lda"): ("lda.train", _len_arg("lda.train_vectors", "ds")),
    ("lda", "scatter_matrices"): ("lda.train", None),
    ("lda", "apply_lda"): ("lda.apply", _len_result("lda.apply_vectors")),
    ("gplda", "length_normalize"): ("gplda.length_norm", _len_result("gplda.length_norm_vectors")),
    ("gplda", "train_gplda"): (
        "gplda.train",
        lambda a, k, r: {
            "gplda.train_vectors": len(_arg(a, k, 0, "ds")),
            "gplda.em_iters": len(r.loglik_trace) - 1,
        },
    ),
    ("gplda", "score_trials"): ("gplda.score", _len_result("gplda.trials_scored")),
    ("gplda", "write_scores"): ("gplda.score_file", _len_arg("gplda.score_file_rows", "scores")),
    ("gplda", "read_scores"): ("gplda.score_file", _len_result("gplda.score_file_rows")),
    ("scorenorm", "snorm"): ("scorenorm.snorm", _len_result("scorenorm.snorm_trials")),
    ("scorenorm", "snorm_from_cohort_scores"): ("scorenorm.snorm", None),
    ("scorenorm", "cohort_score_matrix"): (
        "scorenorm.cohort_matrix", lambda a, k, r: {"scorenorm.cohort_scores": int(r.size)}),
    ("metrics", "eer"): ("metrics.eer", None),
    ("metrics", "min_dcf"): ("metrics.min_dcf", None),
    ("metrics", "evaluate"): (
        "metrics.evaluate",
        lambda a, k, r: {
            "metrics.trials_evaluated": r.n_target + r.n_nontarget,
            "harness.conditions": 1,
        },
    ),
}


@dataclass
class Span:
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        s = Span(name, self._stack[-1] if self._stack else None)
        self._stack.append(len(self.spans))
        self.spans.append(s)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn: Callable, layer: str, count: Counter | None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer) as s:
                result = fn(*args, **kwargs)
            if count is not None:
                s.counts = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an svbackend module binds it.

        A function the program no longer has is skipped with a note, so
        its layer reads 0 instead of the run failing.
        """
        importlib.import_module("svbackend.cli")  # binds the rest by name
        modules = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "svbackend"]
        for (mod_name, fn_name), (layer, count) in TRACED.items():
            original = getattr(sys.modules.get(f"svbackend.{mod_name}"), fn_name, None)
            if original is None:
                print(f"tracer: svbackend.{mod_name}.{fn_name} not found", file=sys.stderr)
                continue
            wrapper = self._wrap(original, layer, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Self seconds per layer (``<layer>_s``) plus summed work counts."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent is not None:
                covered[s.parent] += s.end - s.start
        out: dict[str, float] = defaultdict(float)
        for s, child in zip(self.spans, covered):
            out[f"{s.name}_s"] += (s.end - s.start) - child
            for key, n in s.counts.items():
                out[key] += n
        return dict(out)
