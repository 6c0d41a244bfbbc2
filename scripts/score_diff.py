#!/usr/bin/env python3
"""Compare two score CSVs written by ``svbackend score`` or ``svbackend snorm``.

    python scripts/score_diff.py A.csv B.csv

Both files must hold the same enrol/test/label rows in the same order.
Prints the row count and the largest absolute difference of the raw and
of the normalized scores (``-`` when neither file has normalized scores).
A row present with a normalized score in only one file is a mismatch.
Exits 0 when the rows match, 1 on a row mismatch, 2 on a file that
cannot be read.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from svbackend.gplda import read_scores  # noqa: E402


def score_diff(a_path: str, b_path: str) -> tuple[int, str]:
    """Exit code and report line for the two score files."""
    a, b = read_scores(a_path), read_scores(b_path)
    if a.trial_list != b.trial_list:
        if len(a) != len(b):
            return 1, f"row count differs: {len(a)} vs {len(b)}"
        ea, ta = a.trial_list.id_columns()
        eb, tb = b.trial_list.id_columns()
        differs = (ea != eb) | (ta != tb) | (a.trial_list.is_target != b.trial_list.is_target)
        k = int(np.argmax(differs))
        row_a, row_b = a.trial_list.trial_text(k), b.trial_list.trial_text(k)
        return 1, f"row {k + 1} differs: '{row_a}' vs '{row_b}'"
    absent_a, absent_b = np.isnan(a.normalized), np.isnan(b.normalized)
    if not np.array_equal(absent_a, absent_b):
        k = int(np.argmax(absent_a != absent_b))
        return 1, f"row {k + 1}: normalized score present in only one file"
    d_raw = float(np.max(np.abs(a.raw - b.raw), initial=0.0))
    present = ~absent_a
    d_norm = (
        repr(float(np.max(np.abs(a.normalized[present] - b.normalized[present]))))
        if present.any()
        else "-"
    )
    return 0, f"rows={len(a)} max|d_raw|={d_raw!r} max|d_norm|={d_norm}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: score_diff.py A.csv B.csv", file=sys.stderr)
        return 2
    try:
        code, line = score_diff(*argv)
    except (OSError, ValueError) as e:
        print(f"score_diff: {e}", file=sys.stderr)
        return 2
    print(line)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
