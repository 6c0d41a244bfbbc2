#!/usr/bin/env python3
"""Record the benchmark's output reference from the current svbackend.

    python3 perfbench/record_reference.py --workload cli-files [--seeds 0-15]

For each input seed, sets up the workload, runs one pass and writes the
per-condition EER, minDCF, n_target and n_nontarget, plus the sha256 of
each output CSV, to ``perfbench/reference/<workload>.json`` (merged
with the seeds already there).  The committed files were recorded from
the code the benchmark was introduced against; re-record only when a
change is meant to alter the studies' results.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import run
import workloads


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seeds", default=f"0-{run.REFERENCE_SEEDS - 1}", help="range lo-hi")
    args = p.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))

    for var in run.BLAS_ENV:
        os.environ[var] = str(run.BLAS_THREADS)
    workloads.add_src_to_path()
    wl = workloads.WORKLOADS[args.workload]
    path = run.HERE / "reference" / f"{wl.name}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"workload": wl.name, "seeds": {}}
    doc["row_fields"] = ["eer", "min_dcf", "n_target", "n_nontarget"]
    work = run.WORK / f"record-{wl.name}-{os.getpid()}"
    try:
        for seed in range(lo, hi + 1):
            shutil.rmtree(work, ignore_errors=True)
            (work / "inputs").mkdir(parents=True)
            wl.setup(seed, work / "inputs")
            wall, outcome = run.one_pass(wl, work / "inputs", work / "out", None)
            if not outcome.rows or not all(ok for _, ok in outcome.steps):
                print(f"seed {seed}: the pass failed; nothing recorded", file=sys.stderr)
                return 1
            doc["seeds"][str(seed)] = {"rows": outcome.rows, "files": outcome.files}
            print(f"seed {seed}: {len(outcome.rows)} conditions, {outcome.trials} trials, "
                  f"{wall:.2f} s", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    doc["seeds"] = dict(sorted(doc["seeds"].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
