#!/usr/bin/env python3
"""Alternating before/after pairs of the benchmark on two checkouts, exit 0/1.

Usage: ab_pairs.py BEFORE AFTER --workload W [--pairs N] [--seconds S] [--seed0 K]

BEFORE and AFTER are two checkouts of the repository.  Pair i runs
``perfbench/run.py --workload W --seed K+i --seconds S --trace 0`` of each
checkout, in its own directory and with its own sources, BEFORE first in
even pairs and AFTER first in odd ones.  W may be ``all``, which runs the
pairs of every workload in BENCHMARK.json one workload after the other.

After each run the script copies ``perfbench/out/<workload>/artifacts``
aside and, once a pair is complete, compares the two copies with
``diff -r``.  It prints each run's end-to-end metrics, then per workload
and metric each side's median with its quartiles [Q1, Q3] and in how many
pairs AFTER read lower.  It changes nothing under either ``perfbench/``
but the output the benchmark itself writes there.

Exits 0 when every run exited 0 with ``correct`` true and every pair's
artifacts are identical, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path


def _workloads(checkout: Path, name: str) -> list[str]:
    spec = json.loads((checkout / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if name == "all":
        return names
    if name not in names:
        raise SystemExit(f"unknown workload {name!r}; known: {', '.join(names)}")
    return [name]


def _run(checkout: Path, workload: str, seed: int, seconds: float, keep: Path) -> dict | None:
    # one benchmark run; its artifacts go to keep, its result is returned
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"  {checkout} exited {done.returncode}:\n{done.stderr[-2000:]}")
        return None
    shutil.copytree(checkout / "perfbench" / "out" / workload / "artifacts", keep)
    return json.loads(lines[-1])


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def _pairs(sides: dict[str, Path], workload: str, pairs: int, seconds: float, seed0: int, scratch: Path):
    # returns the (before, after) results of each pair and whether all held
    ok = True
    results = []
    for i in range(pairs):
        seed = seed0 + i
        order = ["before", "after"] if i % 2 == 0 else ["after", "before"]
        got = {}
        for side in order:
            keep = scratch / workload / f"pair{i}" / side
            got[side] = _run(sides[side], workload, seed, seconds, keep)
            res = got[side]
            if res is None:
                ok = False
                continue
            ok &= bool(res["correct"])
            shown = " ".join(f"{k}={m['value']:.6g}" for k, m in res["metrics"].items())
            print(f"  pair {i} seed {seed} {side:6s} {shown} failed={res['failed']}/{res['attempted']}")
        if got["before"] is not None and got["after"] is not None:
            diff = subprocess.run(["diff", "-r", "-q", "before", "after"], cwd=scratch / workload / f"pair{i}",
                                  capture_output=True, text=True)
            print(f"  pair {i} artifacts: {'identical' if diff.returncode == 0 else 'DIFFER'}")
            if diff.returncode != 0:
                print(diff.stdout + diff.stderr, end="")
                ok = False
            results.append((got["before"], got["after"]))
    return results, ok


def _summary(workload: str, results) -> None:
    if not results:
        return
    print(f"{workload}: median [Q1, Q3] over {len(results)} pairs, before -> after")
    for key in results[0][0]["metrics"]:
        before = [b["metrics"][key]["value"] for b, _ in results]
        after = [a["metrics"][key]["value"] for _, a in results]
        unit = results[0][0]["metrics"][key]["unit"]
        lower = sum(a < b for b, a in zip(before, after))
        (mb, b1, b3), (ma, a1, a3) = _quartiles(before), _quartiles(after)
        change = f" ({(ma - mb) / mb:+.1%})" if mb else ""
        print(f"  {key}: {mb:.4g} [{b1:.4g}, {b3:.4g}] -> {ma:.4g} [{a1:.4g}, {a3:.4g}] {unit}{change}, "
              f"lower in {lower}/{len(results)}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("before", type=Path)
    ap.add_argument("after", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--seed0", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    sides = {"before": args.before.resolve(), "after": args.after.resolve()}
    for side, path in sides.items():
        if not (path / "perfbench" / "run.py").is_file():
            ap.error(f"{side} checkout {path} has no perfbench/run.py")
    ok = True
    with tempfile.TemporaryDirectory(prefix="ab_pairs-") as tmp:
        for workload in _workloads(sides["before"], args.workload):
            print(f"{workload}: {args.pairs} pairs of {args.seconds:g} s runs from seed {args.seed0}")
            results, held = _pairs(sides, workload, args.pairs, args.seconds, args.seed0, Path(tmp))
            _summary(workload, results)
            ok &= held
    print("all runs correct, every pair's artifacts identical" if ok else "FAILED: see the lines above")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
