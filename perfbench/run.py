"""Layered benchmark for fracheat.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

One workload runs per process, so the profile-table caches start empty.
Set-up builds the workload's profile tables cold, at least three times
and for at least six seconds, with the cache cleared in between, and
reports the median.  The timed phase then repeats a fixed pass of calls
into fracheat, as many whole passes as fit in the given seconds and at
least three, and reports the median pass.  Every output is checked
against an oracle or a contract tolerance after its pass, outside the
timed region.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with traced ones, which record a span per call, and
prints the per-layer metrics, the tracing overhead among them.  The last
line of standard output is one JSON object; a fuller record, with the
machine and library versions, goes to ``perfbench/out/<workload>/``.
``--workload all`` runs every workload both ways, each in its own
process, and prints a table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

# One BLAS thread.  On the few shared cores of a small VM a second thread
# measures the scheduler, and it bought these workloads no speed.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
# set-up repeats its cold builds at least this often, and until this many
# seconds have gone by
SETUP_REPS = 3
SETUP_SECONDS = 6.0
MIN_PASSES = 3
# the timed (not traced) end-to-end figures are medians of passes; a
# traced run alternates, so it needs two of each to compare them
MIN_EACH_TRACED = 2


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _import_fracheat() -> float:
    src = ROOT / "src"
    if not (src / "fracheat" / "__init__.py").is_file():
        raise RuntimeError(f"no fracheat sources under {src}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(src))
    start = time.perf_counter()
    import fracheat
    import fracheat.cli  # noqa: F401

    elapsed = time.perf_counter() - start
    if Path(fracheat.__file__).resolve().parent != (src / "fracheat").resolve():
        raise RuntimeError(f"imported fracheat from {fracheat.__file__}, not from {src}")
    return elapsed


def machine() -> dict:
    info = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "FRACHEAT_THREADS": os.environ.get("FRACHEAT_THREADS"),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")]
        info["cpu_model"] = models[0] if models else None
    except OSError:
        info["cpu_model"] = None
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(cache_dir.glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            info[f"L{level}"] = size
    import numpy
    import scipy

    info["numpy"] = numpy.__version__
    info["scipy"] = scipy.__version__
    return info


class Tally:
    """Checked operations, failures, and error-estimate misses."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.checked: Counter[str] = Counter()
        self.misses: Counter[str] = Counter()
        self.max_err: dict[str, float] = defaultdict(float)

    def fail(self, label: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {detail}")

    def run_checks(self, checks) -> None:
        for label, check in checks:
            self.attempted += 1
            try:
                verdict = check()
            except Exception as exc:  # a check that cannot run is a failed operation
                self.fail(label, repr(exc))
                continue
            if not verdict.ok:
                self.fail(label, verdict.detail)
            for err, est in zip(verdict.errs, verdict.ests):
                self.checked[verdict.group] += 1
                self.misses[verdict.group] += err > est
                self.max_err[verdict.group] = max(self.max_err[verdict.group], err)


def _setup(wl, calls) -> dict:
    from fracheat import kernel

    totals, per_table = [], defaultdict(list)
    while len(totals) < SETUP_REPS or sum(totals) < SETUP_SECONDS:
        kernel.profile_table.cache_clear()
        start = time.perf_counter()
        for dim, s in wl.tables:
            t0 = time.perf_counter()
            calls.call("kernel", "kernel.profile_table", kernel.profile_table, dim, s)
            per_table[(dim, s)].append(time.perf_counter() - t0)
        totals.append(time.perf_counter() - start)
    return {
        "setup_s": statistics.median(totals),
        "reps": totals,
        "build_max_s": max(statistics.median(v) for v in per_table.values()),
        "r_last_max": max(float(kernel.profile_table(d, s).nodes[-1]) for d, s in wl.tables),
    }


def _lookup_rate() -> float:
    # fixed radii covering the Taylor, interpolated and series branches
    import numpy as np
    from fracheat import kernel

    table = kernel.profile_table(3, 0.75)
    radii = np.concatenate(
        [np.linspace(0.0, 9e-4, 20_000), np.geomspace(1e-3, 30.0, 160_000), np.linspace(30.5, 60.0, 20_000)]
    )
    rates = []
    for _ in range(15):
        t0 = time.perf_counter()
        table.evaluate(radii)
        rates.append(radii.size / (time.perf_counter() - t0))
    return statistics.median(rates)


def _quantile(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def _layer_metrics(tracer, counts: Counter, n_traced: int) -> dict:
    from spans import self_times
    from workloads import KERNEL_SUITES

    own = self_times(tracer.spans)
    spans = [sp for sp in tracer.spans if sp.pass_index is not None]
    total = defaultdict(float)
    durations = defaultdict(list)
    layer_self = defaultdict(float)
    points = 0
    for sp in spans:
        total[sp.name] += sp.duration
        durations[sp.name].append(sp.duration)
        layer_self[sp.layer] += own[sp.id]
        points += sp.points

    def per_pass(x: float) -> float:
        return x / n_traced

    solve_time = sum(v for k, v in total.items() if k.startswith("solver.solve_canonical:"))
    out = {
        "specfun.quad_s": per_pass(total["specfun.integrate_semi_infinite"]),
        "specfun.quad_evals": per_pass(counts["quad_evals"]),
        "kernel.pointwise_s": per_pass(sum(total[f"suites.{n}"] for n in KERNEL_SUITES)),
        "kernel.mass_s": per_pass(total["kernel.kernel_mass"]),
        "families.value_s": per_pass(layer_self["families"]),
        "families.datum_points": per_pass(points),
        "families.points_per_value": points / max(counts["values"], 1),
        "fraclap.self_s": per_pass(layer_self["fraclap"]),
        "fraclap.eval_p50_s": _quantile(durations["fraclap.frac_laplacian:1d"], 0.5),
        "fraclap.eval_p90_s": _quantile(durations["fraclap.frac_laplacian:1d"], 0.9),
        "fraclap.eval2d_p50_s": _quantile(durations["fraclap.frac_laplacian:2d"], 0.5),
        "solver.self_s": per_pass(layer_self["solver"]),
        "solver.values_per_s": counts["solver_values"] / solve_time if solve_time else 0.0,
        "analysis.check_s": per_pass(layer_self["analysis"]),
        "report.to_json_s": per_pass(total["report.to_json"]),
        "cli.emit_s": per_pass(total["cli.emit_table"]),
        "trace.spans": per_pass(len(spans)),
    }
    for tag in ("ruled-2d", "cosine-2d", "gaussian-2d", "gaussian-3d", "cosine-1d", "abs_power-1d"):
        out[f"solver.solve_s.{tag}"] = per_pass(total[f"solver.solve_canonical:{tag}"])
    for name in ("cosine", "gaussian", "abs_power", "constant", "affine"):
        out[f"solver.residual_s.{name}"] = per_pass(total[f"solver.residual_with_estimate:{name}"])
    for name in KERNEL_SUITES:
        out[f"suites.{name}_s"] = per_pass(total[f"suites.{name}"])
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, import_s: float) -> dict:
    import numpy as np
    from fracheat import kernel

    import workloads
    from spans import Plain, Tracer

    wl = workloads.WORKLOADS[name]
    out_dir = BENCH / "out" / name
    art_dir = out_dir / "artifacts"
    art_dir.mkdir(parents=True, exist_ok=True)
    plain, tracer = Plain(), Tracer()
    origin = time.perf_counter()

    setup = _setup(wl, tracer if trace else plain)
    inputs = wl.make_inputs(np.random.default_rng(seed))

    tally = Tally()
    times = {False: [], True: []}
    counts: Counter[str] = Counter()
    misses_before = kernel.profile_table.cache_info().misses
    start = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        tracer.pass_index = index if traced else None
        ctx = workloads.PassContext(tracer if traced else plain, art_dir)
        t0 = time.perf_counter()
        try:
            wl.run_pass(ctx, inputs)
            times[traced].append(time.perf_counter() - t0)
        except Exception as exc:  # the operation raised: count it and go on
            tally.attempted += 1
            tally.fail(f"pass {index}", repr(exc))
        tracer.pass_index = None
        if traced:
            counts.update(ctx.counts)
        tally.run_checks(ctx.checks)
        index += 1
        done = (
            min(len(times[False]), len(times[True])) >= MIN_EACH_TRACED
            if trace
            else len(times[False]) >= MIN_PASSES
        )
        # stop once another pass as long as the last would end past the time
        # asked for, so that a run's length stays within it
        last = time.perf_counter() - t0
        if time.perf_counter() - start + last > seconds and (done or tally.failed):
            break
    table_misses = kernel.profile_table.cache_info().misses - misses_before
    if not times[False] or (trace and not times[True]):
        raise RuntimeError("no pass completed: " + "; ".join(tally.failures))

    run_s = statistics.median(times[False])
    checked = sum(tally.checked.values())
    miss_frac = sum(tally.misses.values()) / checked if checked else 0.0
    n_passes = len(times[False]) + len(times[True])
    if trace:
        n_traced = len(times[True])
        metrics = _layer_metrics(tracer, counts, n_traced)
        metrics.update(
            {
                "kernel.build_s": setup["setup_s"],
                "kernel.build_max_s": setup["build_max_s"],
                "kernel.r_last_max": setup["r_last_max"],
                "kernel.lookup_per_s": _lookup_rate(),
                "kernel.table_misses_in_run": table_misses,
                "fraclap.err_bound_misses": tally.misses["fraclap"] / n_passes,
                "solver.residual_bound_misses": tally.misses["residual"] / n_passes,
                "solver.oracle_err_max": tally.max_err["solver"],
                "cli.artifact_bytes": sum(p.stat().st_size for p in art_dir.iterdir()),
                "cli.import_s": import_s,
                "err_bound_miss_frac": miss_frac,
                "ops_failed_frac": tally.failed / tally.attempted,
                "trace.run_s": statistics.median(times[True]),
                "trace.overhead_s": statistics.median(times[True]) - run_s,
            }
        )
        tracer.write(out_dir / "spans.jsonl", origin)
    else:
        metrics = {
            "setup_s": setup["setup_s"],
            "run_s": run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    record = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine(),
        "setup_reps_s": setup["reps"],
        "pass_s": times[False],
        "traced_pass_s": times[True],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failures": tally.failures,
        "oracle_checked": dict(tally.checked),
        "err_bound_misses": dict(tally.misses),
        "err_bound_miss_frac": miss_frac,
        "metrics": metrics,
    }
    (out_dir / f"result-trace{int(trace)}.json").write_text(json.dumps(record, indent=2) + "\n")
    return record


def _select(metrics: dict, spec: list[dict]) -> dict:
    out = {}
    for m in spec:
        if m["name"] not in metrics:
            raise RuntimeError(f"metric {m['name']} was not measured")
        out[m["name"]] = {"value": metrics[m["name"]], "unit": m["unit"]}
    return out


def run_all(spec: dict, seed: int, seconds: float) -> int:
    names = [w["name"] for w in spec["workloads"]]
    print(json.dumps(machine()))
    rows = []
    for name in names:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return _fail(f"{name} --trace {trace} exited with {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append((name, trace, result))
    for section, trace in (("end_to_end", 0), ("per_layer", 1)):
        print(f"\n{section} (seed {seed}, {seconds} s per run)")
        print(f"{'metric':34s} {'unit':6s} " + " ".join(f"{w:>14s}" for w in names))
        for m in spec[section]:
            vals = [r["metrics"][m["name"]]["value"] for w, t, r in rows if t == trace]
            print(f"{m['name']:34s} {m['unit']:6s} " + " ".join(f"{v:14.6g}" for v in vals))
    print("\nchecks: " + ", ".join(
        f"{w} trace {t}: {r['failed']}/{r['attempted']} failed, correct={r['correct']}" for w, t, r in rows))
    print("tracing overhead, traced run_s minus untraced run_s: " + ", ".join(
        f"{w} {r['metrics']['trace.overhead_s']['value']:+.4f} s" for w, t, r in rows if t == 1))
    return 0 if all(r["correct"] for _, _, r in rows) else 1


def main(argv=None) -> int:
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read BENCHMARK.json: {exc}")
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]] + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        if args.workload == "all":
            return run_all(spec, args.seed, args.seconds)
        import_s = _import_fracheat()
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), import_s)
        metrics = _select(record["metrics"], spec["per_layer" if args.trace else "end_to_end"])
    except Exception as exc:
        traceback.print_exc()
        return _fail(f"{type(exc).__name__}: {exc}")

    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
