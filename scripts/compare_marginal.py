#!/usr/bin/env python3
"""Check a ruled 2-D solve against the 1-D solve of its profile, exit 0/1.

Usage: compare_marginal.py RULED_CSV PROFILE_CSV

Both files are solution.csv tables written by ``fracheat solve``: one for
``ruled:beta`` on a 2-D grid and one for ``abs_power:beta`` in 1-D on the
same x1 nodes and times.  The ruled datum is flat along x2, so each 2-D
value must equal the 1-D value at its (t, x1), and the gap must stay
within the sum of the two err_est columns.
"""

import csv
import sys


def _rows(path: str) -> list[dict[str, float]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def main(ruled_csv: str, profile_csv: str) -> int:
    profile = {(r["t"], r["x1"]): r for r in _rows(profile_csv)}
    worst, missing = 0.0, 0
    for r in _rows(ruled_csv):
        p = profile.get((r["t"], r["x1"]))
        if p is None:
            missing += 1
            continue
        gap = abs(r["u"] - p["u"])
        worst = max(worst, gap / (r["err_est"] + p["err_est"]))
    print(f"largest gap / (sum of err_est) = {worst:.3g}; rows without a 1-D partner: {missing}")
    return 0 if worst <= 1.0 and missing == 0 else 1


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
