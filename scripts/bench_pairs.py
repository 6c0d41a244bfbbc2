#!/usr/bin/env python3
"""Run the benchmark of two checkouts in alternating pairs and compare them.

    python scripts/bench_pairs.py PARENT CHANGE --workload W --pairs N --seed S --seconds T

Pair i runs ``perfbench/run.py --workload W --seed S+i --seconds T`` once
in each checkout, from its root: the parent first in even pairs and the
change first in odd ones, so a drift of the host falls on both sides.
It prints every pair's end-to-end metrics (those listed in this
repository's ``BENCHMARK.json``), then per metric each side's median and
[first, third] quartile, the parent's interquartile range, in how many
pairs the change was better (ties count for neither side) and a verdict
against the metric's ``bound`` B in ``BENCHMARK.json``:

* ``worse than the B% bound``: the change's median is worse than the
  parent's by more than B;
* else ``unresolved: parent IQR X% of its median exceeds the B% bound``:
  the parent's own spread is wider than B, and not every change run beats
  every parent run;
* else ``within the B% bound``.

Then a gain verdict: ``gain shown`` when the change was better in at least
nine tenths of the pairs and its median beats the parent's by more than the
parent's interquartile range, else ``no gain shown``.

Exits 0 when every run reports ``correct`` with no failed operation, 1
when one does not, 2 when a run prints no result.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The JSON object on the last line of one ``perfbench/run.py`` run."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    try:
        done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    except OSError as e:
        raise RuntimeError(f"{checkout}: {e.strerror}") from None
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise RuntimeError(
            f"{checkout}: seed {seed}: no result (exit {done.returncode}): "
            f"{done.stderr.strip()[-500:]}"
        ) from None


def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile (``statistics.quantiles``, inclusive method)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def wins(a: list[float], b: list[float], better: str) -> int:
    """Pairs in which the change's run ``b[i]`` beats the parent's ``a[i]``;
    a tie counts for neither side."""
    return sum((y < x) if better == "lower" else (y > x) for x, y in zip(a, b))


def gain(a: list[float], b: list[float], better: str) -> str:
    """Whether the change's runs ``b`` show a gain over the parent's ``a``
    (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    a1, a3 = quartiles(a)
    ahead = sign * (statistics.median(a) - statistics.median(b))
    shown = 10 * wins(a, b, better) >= 9 * len(a) and ahead > a3 - a1
    return "gain shown" if shown else "no gain shown"


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """The change's runs ``b`` against the parent's ``a``, read against the
    relative ``bound`` (see the module docstring)."""
    sign = 1.0 if better == "lower" else -1.0
    med_a = statistics.median(a)
    a1, a3 = quartiles(a)
    limit = f"the {100.0 * bound:g}% bound"
    if sign * (statistics.median(b) - med_a) > bound * abs(med_a):
        return f"worse than {limit}"
    if a3 - a1 > bound * abs(med_a) and max(sign * y for y in b) >= min(sign * x for x in a):
        spread = f"{100.0 * (a3 - a1) / abs(med_a):.1f}%" if med_a else "-"
        return f"unresolved: parent IQR {spread} of its median exceeds {limit}"
    return f"within {limit}"


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    metrics = {m["name"]: m for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))["end_to_end"]}

    sides = {"parent": args.parent, "change": args.change}
    values = {side: {name: [] for name in metrics} for side in sides}
    correct = True
    for i in range(args.pairs):
        seed = args.seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        results = {}
        for side in order:
            try:
                results[side] = run_once(sides[side], args.workload, seed, args.seconds)
            except RuntimeError as e:
                print(f"bench_pairs: {e}", file=sys.stderr)
                return 2
        cells = []
        for name in metrics:
            a, b = (results[side]["metrics"][name]["value"] for side in sides)
            values["parent"][name].append(a)
            values["change"][name].append(b)
            change = f"{100.0 * (b - a) / a:+.1f}%" if a else "-"
            cells.append(f"{name} {a:.6g} -> {b:.6g} ({change})")
        for side in order:
            r = results[side]
            if not r.get("correct") or r.get("failed"):
                correct = False
                print(f"  {side} run of seed {seed}: correct={r.get('correct')} "
                      f"failed={r.get('failed')}")
        print(f"pair {i} seed {seed} ({order[0]} first): " + "; ".join(cells))

    for name, metric in metrics.items():
        a, b = values["parent"][name], values["change"][name]
        better = metric["better"]
        med_a, med_b = statistics.median(a), statistics.median(b)
        (a1, a3), (b1, b3) = quartiles(a), quartiles(b)
        change = f"{100.0 * (med_b - med_a) / med_a:+.1f}%" if med_a else "-"
        print(f"{name} ({better} is better): parent median {med_a:.6g} "
              f"[{a1:.6g}, {a3:.6g}] IQR {a3 - a1:.6g}; change median {med_b:.6g} "
              f"[{b1:.6g}, {b3:.6g}] ({change}); change better in {wins(a, b, better)}/{len(a)} "
              f"pairs; {verdict(a, b, better, metric['bound'])}; {gain(a, b, better)}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
