"""Command-line front end: configuration, subcommands, artifact emission.

One binary exposes the whole package: ``kernel`` for density evaluation
and bound ratios, ``fraclap`` for pointwise operator values and
classification, ``solve`` for gridded solutions, and ``verify`` for the
named check suites.  Every data artifact is a header-first CSV with
17-significant-digit decimals and a trailing newline, or JSON with
sorted keys, so reruns with the same configuration and seed reproduce
files byte for byte.

Function specs use the grammar ``family:param[,param]``; see the
``--help`` of any subcommand and the README for the family list.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import os
import sys
import traceback
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import families as fam
from .analysis import envelope_check
from .families import as_integer
from .fraclap import classify_definiteness, frac_laplacian, vanish_at_infinity_check
from .kernel import KernelParams, kernel_derivatives, kernel_envelope, point_radius, profile_table, verify_kernel_bounds
from .solver import GridSpec, residual_with_estimate, solve_canonical

DATUM_GRAMMAR = (
    "function specs are written family:param[,param] with families "
    "constant:c, affine:offset,slope, cosine:freq, gaussian:rate, "
    "abs_power:power, piecewise_linear_1d:left_slope, ruled:profile_power"
)


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class RunConfig:
    """Validated run description shared by the suite runner."""

    suites: tuple[str, ...]
    out: str
    seed: int


_CONFIG_KEYS = {"suites", "out", "seed"}


def _build_config(raw: dict) -> RunConfig:
    from .suites import SUITES

    unknown = set(raw) - _CONFIG_KEYS
    if unknown:
        raise ValueError(f"config field {sorted(unknown)[0]!r} is not recognized")
    suites = tuple(raw.get("suites", list(SUITES)))
    for name in suites:
        if name not in SUITES:
            known = ", ".join(SUITES)
            raise ValueError(
                f"config field suites: unknown suite {name!r} (known: {known})"
            )
    return RunConfig(
        suites=suites,
        out=str(raw.get("out", "artifacts")),
        seed=as_integer(raw.get("seed", 0), "config field seed"),
    )


def parse_config(text: str) -> RunConfig:
    """Validated RunConfig from a JSON document, defaults filled in.

    Accepts the keys suites (default: every suite), out (default
    "artifacts") and seed (default 0), the only settings a suite reads;
    every other key or a malformed value is rejected with the offending
    field named.
    """
    return _build_config(_decode_config(text))


def _decode_config(text: str) -> dict:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(
            f"config is not valid JSON: line {e.lineno} column {e.colno}: {e.msg}"
        ) from None
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    return raw


# ---------------------------------------------------------------------------
# artifact emission


def _cell(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return f"{float(v):.17g}"
    return str(v)


def emit_table(data, path: Optional[str], format: str = "csv") -> None:
    """Write one artifact: CSV as (headers, rows), JSON as a mapping.

    CSV carries a header row, decimals with 17 significant digits, and
    a newline after every row including the last; JSON is sorted-key,
    two-space indented, newline-terminated, and a non-finite number in
    it is refused with a ValueError, since JSON has no NaN or infinity.
    Either way identical data produces identical bytes.  A path of None
    writes to stdout.
    """
    if format == "csv":
        headers, rows = data
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(headers))
        for row in rows:
            writer.writerow([_cell(v) for v in row])
        payload = buf.getvalue()
    elif format == "json":
        payload = json.dumps(data, sort_keys=True, indent=2, allow_nan=False) + "\n"
    else:
        raise ValueError("format must be csv or json")
    if path is None:
        sys.stdout.write(payload)
        return
    try:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as e:
        raise OSError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# argument helpers


def _floats(text: str) -> list[float]:
    try:
        return [float(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise ValueError(f"expected comma-separated numbers, got {text!r}") from None


def _points(text: str, dim: int) -> list[np.ndarray]:
    # semicolons separate points, commas separate coordinates; a bare
    # comma list in one dimension is a list of scalar points
    groups = text.split(";")
    if dim == 1 and len(groups) == 1:
        return [np.array([v]) for v in _floats(text)]
    pts = []
    for g in groups:
        coords = _floats(g)
        if len(coords) != dim:
            raise ValueError(f"point {g!r} needs {dim} coordinates")
        pts.append(np.array(coords))
    return pts


def _parse_grid(text: str, times: Sequence[float]) -> GridSpec:
    box, counts = [], []
    for axis in text.split(","):
        parts = axis.split(":")
        if len(parts) != 3:
            raise ValueError(
                f"grid axis {axis!r} must be lo:hi:count (axes separated by commas)"
            )
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
        box.append((lo, hi))
        counts.append(count)
    return GridSpec(
        dim=len(box), box=tuple(box), counts=tuple(counts), times=tuple(times)
    )


def _datum(text: str, dim: int) -> fam.FunctionSpec:
    u0 = fam.parse_spec(text)
    if u0.dim != dim:
        u0 = fam.parse_spec(text, dim=dim)
    return u0


# ---------------------------------------------------------------------------
# subcommands


def _cmd_kernel(args) -> int:
    params = KernelParams(dim=args.dim, s=args.s)
    if args.action == "eval":
        pts = _points(args.x, args.dim)
        times = _floats(args.t)
        for name, text, values in (("--x", args.x, pts), ("--t", args.t, times)):
            if not values:
                raise ValueError(f"kernel eval needs at least one value in {name}, got {text!r}")
        headers = (
            ["N", "s"]
            + [f"x{i + 1}" for i in range(args.dim)]
            + ["t", "p"]
            + [f"g{i + 1}" for i in range(args.dim)]
            + ["p_t", "ratio_lower", "ratio_upper"]
        )
        rows = []
        lo_seen, hi_seen = math.inf, -math.inf
        samples = kernel_derivatives(params, pts, times)
        for (t, x), (p, grad, pt) in zip(itertools.product(times, pts), samples):
            try:
                ratio = p / kernel_envelope(params, point_radius(x), t)
            except ValueError as e:
                raise ValueError(f"--x and --t: {e}") from None
            lo_seen, hi_seen = min(lo_seen, ratio), max(hi_seen, ratio)
            rows.append([args.dim, args.s, *x, t, p, *grad, pt, lo_seen, hi_seen])
        emit_table((headers, rows), args.out)
        return 0
    if args.action == "table":
        table = profile_table(args.dim, args.s)
        rows = [[r, v] for r, v in zip(table.nodes, table.values)]
        emit_table((["r", "value"], rows), args.out)
        return 0
    report = verify_kernel_bounds(params)
    emit_table(report.to_dict(), args.out, "json")
    return 0 if report.overall_pass else 1


def _cmd_fraclap(args) -> int:
    u0 = fam.parse_spec(args.function)
    if args.action == "eval":
        pts = _points(args.x, u0.dim)
        if len(pts) != 1:
            raise ValueError(f"fraclap eval takes one point, got {len(pts)}")
        res = frac_laplacian(u0, pts[0], args.s)
        payload = {
            "error_estimate": res.error_estimate,
            "near_part": res.near_part,
            "split_radius": res.split_radius,
            "tail_part": res.tail_part,
            "value": res.value,
        }
        emit_table(payload, args.out, "json")
        return 0
    if args.action == "classify":
        res = classify_definiteness(u0, args.s)
        payload = {
            "location": list(res.location) if res.location is not None else None,
            "outcome": res.outcome.value,
            "reason": res.reason,
        }
        emit_table(payload, args.out, "json")
        return 0
    radii = tuple(_floats(args.radii))
    report = vanish_at_infinity_check(u0, args.s, radii=radii)
    emit_table(report.to_dict(), args.out, "json")
    return 0 if report.overall_pass else 1


def _cmd_solve(args) -> int:
    times = _floats(args.times)
    grid = _parse_grid(args.grid, times)
    params = KernelParams(dim=grid.dim, s=args.s)
    u0 = _datum(args.datum, grid.dim)
    field = solve_canonical(u0, grid, params, workers=args.workers)

    nodes = grid.nodes()
    headers = ["t"] + [f"x{i + 1}" for i in range(grid.dim)] + ["u", "err_est"]
    rows = []
    for ti, t in enumerate(grid.times):
        for ni in range(len(nodes)):
            rows.append(
                [t, *nodes[ni], field.values[ti, ni], field.error_estimates[ti, ni]]
            )
    emit_table((headers, rows), os.path.join(args.out, "solution.csv"), "csv")

    mid = nodes[len(nodes) // 2]
    t_res = next((t for t in grid.times if t > 0.0), 0.5)
    try:
        value, estimate = residual_with_estimate(u0, mid, t_res, params)
    except ValueError as e:
        residual = {"unavailable": str(e)}
    else:
        residual = {
            "max_abs": abs(value),
            "samples": [{"estimate": estimate, "residual": value, "t": t_res, "x": list(mid)}],
        }
    manifest = {
        "datum": args.datum,
        "envelope": envelope_check(field, params).to_dict(),
        "grid": {
            "box": [list(b) for b in grid.box],
            "counts": list(grid.counts),
            "times": list(grid.times),
        },
        "params": {"dim": grid.dim, "s": args.s},
        "residual": residual,
    }
    emit_table(manifest, os.path.join(args.out, "manifest.json"), "json")
    return 0


def _cmd_verify(args) -> int:
    from .suites import SUITES

    raw: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = _decode_config(fh.read())
        except OSError as e:
            raise OSError(f"{args.config}: {e}") from None
        except ValueError as e:
            raise ValueError(f"{args.config}: {e}") from None
    # flags override file values
    for key, val in (("out", args.out), ("seed", args.seed)):
        if val is not None:
            raw[key] = val
    if args.suites:
        raw["suites"] = list(args.suites)
    cfg = _build_config(raw)

    all_pass = True
    for name in cfg.suites:
        report = SUITES[name](cfg)
        all_pass = all_pass and report.overall_pass
        emit_table(report.to_dict(), os.path.join(cfg.out, f"{name}.json"), "json")
        headers = ["name", "measured", "bound", "tolerance", "passed", "worst_point"]
        rows = [
            [
                r.name,
                r.measured,
                r.bound,
                r.tolerance,
                r.passed,
                "" if r.worst_point is None else " ".join(f"{v:.17g}" for v in r.worst_point),
            ]
            for r in report.records
        ]
        emit_table((headers, rows), os.path.join(cfg.out, f"{name}.csv"), "csv")
        for line in report.summary_lines():
            print(line)
    return 0 if all_pass else 1


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracheat",
        description=(
            "Fractional heat kernel evaluation, pointwise fractional "
            "Laplacians, canonical solutions, and the verification battery."
        ),
        epilog=DATUM_GRAMMAR
        + ". The environment variable FRACHEAT_THREADS, a positive integer, "
        "sets the solver's thread count.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    kernel = sub.add_parser(
        "kernel",
        help="evaluate the kernel, dump its radial table, or check its bounds",
        description=(
            "kernel eval emits one CSV row per (x, t) with density, "
            "gradient, time derivative, and the running interval of "
            "density-to-envelope ratios; kernel table dumps the radial "
            "profile samples; kernel verify-bounds reports two-sided "
            "envelope ratio checks."
        ),
    )
    kernel.add_argument("action", choices=["eval", "table", "verify-bounds"])
    kernel.add_argument("--dim", type=int, default=1)
    kernel.add_argument("--s", type=float, required=True)
    kernel.add_argument("--x", default="0,1,5", help="points: commas for coordinates, semicolons between points")
    kernel.add_argument("--t", default="1", help="comma-separated times")
    kernel.add_argument("--out", default=None, help="output path (stdout when absent)")

    fl = sub.add_parser(
        "fraclap",
        help="pointwise operator value, definiteness class, or decay check",
        description=(
            "fraclap eval computes the operator value at one point with "
            "its split parts and error estimate; fraclap classify names "
            "the principal-value outcome for the given function; fraclap "
            "vanish-check compares operator magnitude across radii. "
            + DATUM_GRAMMAR
            + "."
        ),
    )
    fl.add_argument("action", choices=["eval", "classify", "vanish-check"])
    fl.add_argument("--function", required=True, help="function spec, family:param[,param]")
    fl.add_argument("--s", type=float, required=True)
    fl.add_argument("--x", default="0", help="evaluation point")
    fl.add_argument("--radii", default="1,10,100", help="radii for vanish-check")
    fl.add_argument("--out", default=None)

    solve = sub.add_parser(
        "solve",
        help="solve the initial-value problem on a grid and write artifacts",
        description=(
            "Writes solution.csv (t, x..., u, err_est) and manifest.json "
            "(parameters; envelope, the check at each time that every node "
            "has |u| <= the datum's growth envelope flowed to that time + "
            "err_est; residual summary) into the output directory. "
            + DATUM_GRAMMAR + "."
        ),
    )
    solve.add_argument("--datum", required=True)
    solve.add_argument("--s", type=float, required=True)
    solve.add_argument("--grid", required=True, help="per-axis lo:hi:count, comma-separated")
    solve.add_argument("--times", required=True, help="comma-separated times")
    solve.add_argument("--out", required=True, help="output directory")
    solve.add_argument(
        "--workers",
        type=int,
        default=None,
        help="solver threads, a positive integer (default: FRACHEAT_THREADS or 1)",
    )

    # no abbreviations: --s would otherwise be read as --seed
    verify = sub.add_parser(
        "verify",
        allow_abbrev=False,
        help="run named verification suites and write their reports",
        description=(
            "Runs each named suite (all when none are given), writes "
            "<suite>.json and <suite>.csv under the output directory, "
            "prints a summary, and exits 0 only if every suite passed. "
            "Suites: kernel-closed-form (half-order closed form), "
            "normalization (unit mass), kernel-bounds (envelope ratios), "
            "asymptotic-constants (tail limits), derivative-recursion "
            "(radial derivative ladder), multiplier (cosine eigenvalue), "
            "spectral-solution (solution oracle and residuals), semigroup "
            "(kernel self-convolution), maxprinciple (range bounds), "
            "geosol (convexity, ruling, heating), classical (order-one "
            "comparison), definiteness (principal-value classes), "
            "vanishing (decay at infinity)."
        ),
    )
    verify.add_argument("suites", nargs="*", help="suite names (default: all)")
    verify.add_argument("--config", default=None, help="JSON config file")
    verify.add_argument("--out", default=None)
    verify.add_argument("--seed", type=int, default=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "kernel": _cmd_kernel,
        "fraclap": _cmd_fraclap,
        "solve": _cmd_solve,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.command](args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # an unforeseen failure: keep its traceback, exit 2
        traceback.print_exc()
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
