#!/usr/bin/env python3
"""svbackend benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload cli-files --seed 0 --seconds 55 --trace 0

Run from the root of a source checkout; svbackend is imported from
``src/``.  A run:

1. sets up the workload's inputs ``SETUP_REPEATS`` times, each in a
   fresh interpreter, and reports the median as ``setup_s``;
2. runs untraced passes over those inputs until they have taken about
   ``--seconds`` (see ``more_passes``) and reports the mean pass:
   measured seconds divided by passes;
3. with ``--trace 1``, runs one untraced pass and then one with every
   public svbackend function wrapped in a span (see ``tracer.py``), and
   reports per-layer self seconds and work counts instead of the
   end-to-end metrics;
4. checks every pass against the reference recorded from the seed code
   (``reference/<workload>.json``, written by ``record_reference.py``)
   and every pass's outputs, the traced one included, against the
   first pass's.

The inputs are a pure function of the input seed, ``--seed`` modulo
``REFERENCE_SEEDS``, for which references are recorded.  All load is
driven from this process with BLAS pinned to ``BLAS_THREADS`` threads.
Human-readable lines come first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
WORK = workloads.ROOT / ".bench_work"

BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 60
REFERENCE_SEEDS = 16

#: EER and minDCF lie in [0, 1] and depend only on score ranking.  The
#: scoring paths already differ by up to 3.6e-14 in the scores, which
#: moves neither metric unless two scores tie within rounding; one
#: swapped target/nontarget pair moves EER by far more than 1e-9 at
#: these trial counts.  Trial counts must match exactly.
TOLERANCE = 1e-9


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def environment() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
    }


def run_setups(name: str, seed: int, work: Path) -> tuple[list[float], Path]:
    """Set up in fresh interpreters; returns the times and the last input dir."""
    times = []
    for i in range(SETUP_REPEATS):
        out = work / f"inputs{i}"
        proc = subprocess.run(
            [sys.executable, str(HERE / "workloads.py"), "setup", name, str(seed), str(out)],
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        times.append(float(proc.stdout.split()[-1]))
        if i:
            shutil.rmtree(work / f"inputs{i - 1}")
    return times, out


def check(outcome: workloads.Outcome, ref: dict) -> tuple[int, list[str]]:
    """Operations attempted and the ones that failed.

    Each recorded condition, each unexpected extra condition and each
    CLI subcommand other than ``eval`` is one operation.
    """
    failed = [s for s, ok in outcome.steps if not ok]
    keys = list(ref["rows"]) + [k for k in outcome.rows if k not in ref["rows"]]
    for key in keys:
        got, want = outcome.rows.get(key), ref["rows"].get(key)
        if (
            got is None
            or want is None
            or got[2:] != tuple(want[2:])
            or not abs(got[0] - want[0]) <= TOLERANCE
            or not abs(got[1] - want[1]) <= TOLERANCE
        ):
            failed.append(key)
    return len(keys) + len(outcome.steps), failed


def one_pass(wl: workloads.Workload, inputs: Path, out: Path, tracer: Tracer | None):
    """Run one pass; wall seconds span the first svbackend call to the last output."""
    span = tracer.span if tracer else (lambda name: nullcontext())
    gc.collect()  # start every pass without the previous pass's garbage
    t0 = time.perf_counter()
    with span("harness.self"):  # root span: its self time is the glue between layers
        outcome = wl.run(inputs, out, span)
    wall = time.perf_counter() - t0
    wl.collect(out, outcome)
    shutil.rmtree(out)
    return wall, outcome


def more_passes(walls: list[float], seconds: float) -> bool:
    """Whether to start another pass: the one whose end lands nearest ``seconds``.

    The machine's speed drifts over tens of seconds, so the run measures
    a window as close to ``seconds`` as whole passes allow and reports
    its mean rather than the median of a few short passes.
    """
    return sum(walls) + statistics.median(walls) / 2 < seconds


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (workloads.SRC / "svbackend" / "__init__.py").is_file():
        return _fail(f"no svbackend sources under {workloads.SRC}")
    ref_path = HERE / "reference" / f"{args.workload}.json"
    if not ref_path.is_file():
        return _fail(f"no reference file {ref_path}")
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    wl = workloads.WORKLOADS[args.workload]
    input_seed = args.seed % REFERENCE_SEEDS
    ref = json.loads(ref_path.read_text())["seeds"][str(input_seed)]

    work = WORK / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        try:
            setup_times, inputs = run_setups(wl.name, input_seed, work)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as e:
            return _fail(str(e))
        workloads.add_src_to_path()
        import svbackend  # noqa: F401

        env = environment()
        walls, outcomes = [], []
        while True:
            wall, outcome = one_pass(wl, inputs, work / f"pass{len(walls)}", None)
            if not walls:  # later passes can only add allocator fragmentation
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            walls.append(wall)
            outcomes.append(outcome)
            if args.trace or not more_passes(walls, args.seconds):
                break

        if args.trace:
            tracer = Tracer()
            tracer.install()
            try:
                traced_wall, traced = one_pass(wl, inputs, work / "traced", tracer)
            finally:
                tracer.uninstall()
            outcomes.append(traced)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = 0, []
    for outcome in outcomes:
        n, bad = check(outcome, ref)
        attempted += n
        failed += bad
    identical = all(o.rows == outcomes[0].rows and o.files == outcomes[0].files for o in outcomes)
    wall_s = statistics.fmean(walls)
    trials = outcomes[0].trials

    print(f"workload {wl.name}  seed {args.seed} (input seed {input_seed})  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"passes {len(walls)}: wall_s " + " ".join(f"{w:.4f}" for w in walls))
    print(f"fail_ratio {len(failed) / attempted:.6g} ratio "
          f"({len(failed)} of {attempted} operations; EER/minDCF tolerance {TOLERANCE:g})")
    for key in failed[:10]:
        print(f"  failed: {key}")
    print(f"outputs byte-identical to the reference: {outcomes[0].files == ref['files']}")
    print(f"all passes wrote identical outputs: {identical}")
    if args.trace:
        layers = tracer.layer_metrics()
        layers["trace.overhead_s"] = traced_wall - walls[0]
        metrics = {}
        for m in json.loads((workloads.ROOT / "BENCHMARK.json").read_text())["per_layer"]:
            metrics[m["name"]] = {"value": layers.get(m["name"], 0), "unit": m["unit"]}
    else:
        metrics = {
            "wall_s": {"value": wall_s, "unit": "s"},
            "trials_per_s": {"value": trials / wall_s, "unit": "1/s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(f"trials per pass {trials} over {len(outcomes[0].rows)} conditions")
    result = {
        "correct": not failed and identical,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
