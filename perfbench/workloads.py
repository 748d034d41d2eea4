"""The benchmark workloads: profile tables to build, seeded inputs, one pass.

A pass is a fixed sequence of calls into fracheat's public functions,
made through a context that either calls straight through or records a
span per call.  Each output is handed to ``expect`` together with a
check that runs after the pass, outside the timed region, against an
oracle or the contract tolerance of the suite that states it.

Why these two: ``angular-2d`` spends its time in the 2-D/3-D angular
refinement loops and datum evaluation, with tables a small share;
``radial-1d`` runs the same solver and fraclap tail routes in one
dimension, many points and a single direction, so it never enters an
angular loop, and adds the direct specfun quadrature behind pointwise
kernel values and the slowest table builds.  Sizes are cut down from the
acceptance suites so one pass takes seconds, not minutes.
"""

from __future__ import annotations

import csv
import dataclasses
from collections import Counter
from pathlib import Path
from typing import Any, Callable

import numpy as np
from scipy.special import jv

from fracheat import analysis, cli, families, fraclap, kernel, report, solver, specfun
from fracheat.kernel import KernelParams
from fracheat.solver import GridSpec
from fracheat.suites import SUITES

import oracles

# contract tolerances, as the acceptance suites state them
MASS_TOL = 1e-6  # normalization
ORACLE_TOL = 1e-4  # multiplier, spectral-solution cosine oracle
RESIDUAL_TOL = 1e-3  # spectral-solution residual battery


@dataclasses.dataclass
class Check:
    """Verdict on one operation, with the oracle errors it measured.

    ``errs`` are true errors against an oracle and ``ests`` the error
    estimates the program reported for the same values; ``group`` names
    the counter their comparison feeds.
    """

    ok: bool
    group: str = ""
    errs: tuple[float, ...] = ()
    ests: tuple[float, ...] = ()
    detail: str = ""


class PassContext:
    def __init__(self, calls, out_dir: Path):
        self.call = calls.call
        self.datum = calls.datum
        self.out_dir = out_dir
        self.checks: list[tuple[str, Callable[[], Check]]] = []
        self.counts: Counter[str] = Counter()

    def expect(self, label: str, check: Callable[[], Check]) -> None:
        self.checks.append((label, check))


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    tables: tuple[tuple[int, float], ...]
    make_inputs: Callable[[np.random.Generator], dict]
    run_pass: Callable[[PassContext, dict], None]


def _oracle_check(group: str, got, truth, est, tol: float = ORACLE_TOL) -> Check:
    """Error against the oracle within tol; with ``est``, also count estimate misses."""
    got = np.ravel(np.asarray(got, dtype=float))
    truth = np.ravel(np.asarray(truth, dtype=float))
    err = np.abs(got - truth)
    worst = float(err.max())
    ok = bool(np.all(np.isfinite(got)) and worst <= tol)
    detail = f"max error {worst:.3g} (tolerance {tol:g})"
    if est is None:
        return Check(ok, detail=detail)
    ests = np.broadcast_to(np.ravel(np.asarray(est, dtype=float)), err.shape)
    return Check(ok, group, tuple(err.tolist()), tuple(ests.tolist()), detail)


def _emit_csv(ctx: PassContext, name: str, headers, rows) -> None:
    path = ctx.out_dir / name
    ctx.call("cli", "cli.emit_table", cli.emit_table, (headers, rows), str(path), "csv")

    def check() -> Check:
        with open(path, newline="", encoding="utf-8") as fh:
            back = list(csv.reader(fh))
        same = back[0] == list(headers) and len(back) == len(rows) + 1
        for got, want in zip(back[1:], rows):
            same = same and all(
                float(g) == float(w) if isinstance(w, (float, np.floating)) else g == str(w)
                for g, w in zip(got, want)
            )
        return Check(same, detail=f"{path.name} round trip")

    ctx.expect(f"emit {name}", check)


def _field_rows(label: str, field) -> list[list[Any]]:
    nodes = field.grid.nodes()
    rows = []
    for ti, t in enumerate(field.grid.times):
        for node, u, e in zip(nodes, field.values[ti], field.error_estimates[ti]):
            rows.append([label, t, *map(float, node), float(u), float(e)])
    return rows


def _solve(ctx: PassContext, tag: str, spec, grid: GridSpec, params: KernelParams):
    field = ctx.call(
        "solver", f"solver.solve_canonical:{tag}", solver.solve_canonical, ctx.datum(spec), grid, params
    )
    ctx.counts["values"] += field.values.size
    ctx.counts["solver_values"] += field.values.size
    return field


def _field_oracle(field, oracle: Callable[[np.ndarray, float], float]) -> Check:
    nodes = field.grid.nodes()
    truth = np.array([[oracle(x, t) for x in nodes] for t in field.grid.times])
    return _oracle_check("solver", field.values, truth, field.error_estimates)


# ---------------------------------------------------------------------------
# pointwise kernel values and profile quadrature, part of radial-1d


# (3, 0.4) pushes r_last past 30; the others are the ones the 1-D solves
# and residuals read, a dim-1 table with its dim-3 companion
RADIAL_TABLES = ((3, 0.4), (1, 0.6), (3, 0.6), (1, 0.75), (3, 0.75))
KERNEL_SUITES = ("kernel-closed-form", "kernel-bounds", "asymptotic-constants", "derivative-recursion")
MASS_TIMES = (0.1, 1.0, 10.0)
QUAD_CALLS = 64
QUAD_ORDERS = ((1, 0.5), (2, 0.5), (3, 0.5)) + RADIAL_TABLES


def _profile_integrand(dim: int, s: float, r: float):
    nu, two_s = 0.5 * (dim - 2), 2.0 * s
    return lambda rho: np.exp(-(rho**two_s)) * rho ** (0.5 * dim) * jv(nu, r * rho)


def _kernel_inputs(rng: np.random.Generator) -> list:
    # one radius per log-spaced bin, jittered by the seed: the oscillatory
    # panel count grows with r, so binning keeps the total cost seed-free
    edges = np.geomspace(0.05, 40.0, QUAD_CALLS + 1)
    radii = edges[:-1] * (edges[1:] / edges[:-1]) ** rng.uniform(size=QUAD_CALLS)
    quads = []
    for i, r in enumerate(radii.tolist()):
        dim, s = QUAD_ORDERS[i % len(QUAD_ORDERS)]
        if s == 0.5:
            ref = oracles.cauchy_profile_integral(dim, r)
        else:
            # the Fourier-side kernel shares no code with the profile quadrature
            x = np.zeros(dim)
            x[0] = r
            p = kernel.heat_kernel_fourier(KernelParams(dim=dim, s=s), x, 1.0)
            ref = p * (2.0 * np.pi) ** (0.5 * dim) * r ** (0.5 * (dim - 2))
        quads.append((dim, s, r, _profile_integrand(dim, s, r), ref))
    return quads


def _kernel_pass(ctx: PassContext, quads: list) -> None:
    cfg = ctx.call("cli", "cli.parse_config", cli.parse_config, "{}")
    reports = []
    for name in KERNEL_SUITES:
        rep = ctx.call("suites", f"suites.{name}", SUITES[name], cfg)
        reports.append(rep)
        ctx.expect(f"suite {name}", lambda rep=rep: Check(rep.overall_pass, detail=rep.suite))

    rows = []
    for dim, s in RADIAL_TABLES:
        params = KernelParams(dim=dim, s=s)
        for t in MASS_TIMES:
            mass = ctx.call("kernel", "kernel.kernel_mass", kernel.kernel_mass, params, t)
            rows.append(["mass", dim, s, t, mass, abs(mass - 1.0)])
            ctx.expect(
                f"mass {dim} {s} {t}",
                lambda m=mass: Check(abs(m - 1.0) <= MASS_TOL, detail=f"mass gap {abs(m - 1.0):.3g}"),
            )

    qcfg = specfun.QuadratureConfig()
    for dim, s, r, integrand, ref in quads:
        res = ctx.call(
            "specfun",
            "specfun.integrate_semi_infinite",
            specfun.integrate_semi_infinite,
            integrand,
            qcfg,
            decay_exponent=2.0 * s,
            poly_power=0.5 * dim,
            osc_scale=r,
        )
        ctx.counts["quad_evals"] += res.evaluations
        rows.append(["quad", dim, s, r, res.value, res.error_estimate])
        # the integrator's own acceptance target; only the closed form at
        # s = 1/2 is exact enough to judge the reported error estimate
        tol = max(qcfg.abs_tol, qcfg.rel_tol * abs(ref))
        est = res.error_estimate if s == 0.5 else None
        ctx.expect(
            f"quad {dim} {s} {r:.4g}",
            lambda res=res, ref=ref, est=est, tol=tol: _oracle_check("specfun", res.value, ref, est, tol),
        )

    for rep in reports:
        text = ctx.call("report", "report.to_json", rep.to_json)
        path = ctx.out_dir / f"{rep.suite}.json"
        path.write_text(text, encoding="utf-8")
        ctx.expect(
            f"artifact {rep.suite}",
            lambda text=text: Check(report.VerificationReport.from_json(text).to_json() == text),
        )
    _emit_csv(ctx, "kernel.csv", ["kind", "dim", "s", "arg", "value", "error"], rows)


# ---------------------------------------------------------------------------
# angular-2d


def _angular_inputs(rng: np.random.Generator) -> dict:
    def box(dim: int, half: float):
        off = rng.uniform(-0.5, 0.5, size=dim)
        return tuple((-half + o, half + o) for o in off.tolist())

    return {
        "ruled": (families.ruled(1.2, dim=2), GridSpec(2, box(2, 2.0), (3, 3), (1.0,))),
        "cosine": (families.cosine(1.0, dim=2), GridSpec(2, box(2, 2.0), (3, 3), (0.5,))),
        "gaussian": (families.gaussian(1.0, dim=2), GridSpec(2, box(2, 1.5), (3, 3), (0.5,))),
        "gaussian3": (families.gaussian(1.0, dim=3), GridSpec(3, box(3, 1.0), (2, 2, 2), (1.0,))),
        "flap": rng.uniform(-2.0, 2.0, size=(16, 2)),
    }


_ANGULAR_S = 0.75


def _angular_pass(ctx: PassContext, inp: dict) -> None:
    p2, p3 = KernelParams(dim=2, s=_ANGULAR_S), KernelParams(dim=3, s=_ANGULAR_S)
    rows = []

    ruled = _solve(ctx, "ruled-2d", *inp["ruled"], p2)
    along = ctx.call("analysis", "analysis.ruled_check", analysis.ruled_check, ruled, (0.0, 1.0))
    across = ctx.call("analysis", "analysis.ruled_check", analysis.ruled_check, ruled, (1.0, 0.0))
    ctx.expect("ruled along", lambda: Check(along.verdict == "Ruled", detail=f"{along.max_deviation:.3g}"))
    ctx.expect("ruled across", lambda: Check(across.verdict == "NotRuled", detail=f"{across.max_deviation:.3g}"))
    ctx.expect("ruled finite", lambda: Check(bool(np.all(np.isfinite(ruled.values)))))
    rows += _field_rows("ruled:1.2", ruled)

    cos = _solve(ctx, "cosine-2d", *inp["cosine"], p2)
    ctx.expect(
        "cosine-2d oracle",
        lambda: _field_oracle(cos, lambda x, t: oracles.cosine_solution(1.0, _ANGULAR_S, x[0], t)),
    )
    rows += _field_rows("cosine:1", cos)

    gauss = _solve(ctx, "gaussian-2d", *inp["gaussian"], p2)
    mp = ctx.call("analysis", "analysis.max_principle_check", analysis.max_principle_check, gauss)
    ctx.expect("gaussian-2d max principle", lambda: Check(mp.overall_pass))
    ctx.expect(
        "gaussian-2d oracle",
        lambda: _field_oracle(
            gauss,
            lambda x, t: oracles.gaussian_solution(1.0, 2, _ANGULAR_S, float(np.linalg.norm(x)), t),
        ),
    )
    rows += _field_rows("gaussian:1", gauss)

    gauss3 = _solve(ctx, "gaussian-3d", *inp["gaussian3"], p3)
    ctx.expect(
        "gaussian-3d oracle",
        lambda: _field_oracle(
            gauss3,
            lambda x, t: oracles.gaussian_solution(1.0, 3, _ANGULAR_S, float(np.linalg.norm(x)), t),
        ),
    )

    cos_dat = ctx.datum(inp["cosine"][0])
    for x in inp["flap"]:
        res = ctx.call("fraclap", "fraclap.frac_laplacian:2d", fraclap.frac_laplacian, cos_dat, x, _ANGULAR_S)
        ctx.counts["values"] += 1
        ctx.expect(
            "flap-2d cosine",
            lambda res=res, x=x: _oracle_check(
                "fraclap", res.value, oracles.cosine_flap(1.0, _ANGULAR_S, x[0]), res.error_estimate
            ),
        )

    _emit_csv(ctx, "solution-2d.csv", ["datum", "t", "x1", "x2", "u", "err_est"], rows)


# ---------------------------------------------------------------------------
# radial-1d


_FLAP_COSINE = [(f, s) for f in (0.5, 1.0, 2.0) for s in (0.3, 0.6, 0.9)]
_FLAP_OTHER = [(spec, s) for spec in ("gaussian:1", "abs_power:0.75", "piecewise_linear_1d:0.5") for s in (0.6, 0.9)]
_RESIDUALS = (
    ("cosine", "cosine:1", 0.6),
    ("gaussian", "gaussian:1", 0.75),
    ("abs_power", "abs_power:1.2", 0.75),
    ("constant", "constant:2", 0.75),
    ("affine", "affine:0.5,1", 0.75),
)


def _flap_oracle(spec: str, s: float, x: float) -> float:
    family, _, arg = spec.partition(":")
    p = float(arg)
    if family == "cosine":
        return oracles.cosine_flap(p, s, x)
    if family == "gaussian":
        return oracles.gaussian_flap(p, 1, s, abs(x))
    if family == "abs_power":
        return oracles.abs_power_flap(p, s, abs(x))
    return oracles.kinked_line_flap(p, s, x)


def _radial_inputs(rng: np.random.Generator) -> dict:
    flap = []
    for freq, s in _FLAP_COSINE:
        flap += [(f"cosine:{freq:g}", s, x) for x in rng.uniform(-3.0, 3.0, size=24).tolist()]
    for spec, s in _FLAP_OTHER:
        # the kinked line is refused on its corner, so keep points off it
        xs = rng.uniform(0.05, 3.0, size=16) * rng.choice([-1.0, 1.0], size=16)
        flap += [(spec, s, x) for x in xs.tolist()]
    specs = {spec: families.parse_spec(spec) for spec, _, _ in flap}
    specs.update({spec: families.parse_spec(spec) for _, spec, _ in _RESIDUALS})
    flap = [(spec, s, x, _flap_oracle(spec, s, x)) for spec, s, x in flap]
    off = float(rng.uniform(-0.5, 0.5))
    grid = GridSpec(1, ((-3.0 + off, 3.0 + off),), (401,), (0.25, 0.5, 1.0, 2.0))
    residuals = [
        (name, spec, s, float(rng.uniform(-2.0, 2.0)), float(rng.uniform(0.3, 1.5)))
        for name, spec, s in _RESIDUALS
    ]
    return {"specs": specs, "flap": flap, "grid": grid, "residuals": residuals, "quads": _kernel_inputs(rng)}


def _radial_pass(ctx: PassContext, inp: dict) -> None:
    _kernel_pass(ctx, inp["quads"])
    specs = {name: ctx.datum(spec) for name, spec in inp["specs"].items()}
    for spec, s, x, truth in inp["flap"]:
        res = ctx.call("fraclap", "fraclap.frac_laplacian:1d", fraclap.frac_laplacian, specs[spec], [x], s)
        ctx.counts["values"] += 1
        ctx.expect(
            f"flap-1d {spec}",
            lambda res=res, truth=truth: _oracle_check("fraclap", res.value, truth, res.error_estimate),
        )

    grid = inp["grid"]
    cos = _solve(ctx, "cosine-1d", inp["specs"]["cosine:1"], grid, KernelParams(dim=1, s=0.6))
    ctx.expect(
        "cosine-1d oracle", lambda: _field_oracle(cos, lambda x, t: oracles.cosine_solution(1.0, 0.6, x[0], t))
    )
    grown = _solve(ctx, "abs_power-1d", inp["specs"]["abs_power:1.2"], grid, KernelParams(dim=1, s=0.75))
    conv = ctx.call("analysis", "analysis.convexity_check", analysis.convexity_check, grown)
    ctx.expect("abs_power-1d convex", lambda: Check(conv.verdict == "Convex", detail=f"{conv.min_second_difference:.3g}"))

    for name, spec, s, x, t in inp["residuals"]:
        value, est = ctx.call(
            "solver",
            f"solver.residual_with_estimate:{name}",
            solver.residual_with_estimate,
            specs[spec],
            [x],
            t,
            KernelParams(dim=1, s=s),
        )
        ctx.counts["values"] += 1
        ctx.expect(
            f"residual {name}",
            lambda value=value, est=est: _oracle_check("residual", value, 0.0, est, RESIDUAL_TOL),
        )

    rows = _field_rows("cosine:1", cos) + _field_rows("abs_power:1.2", grown)
    _emit_csv(ctx, "solution-1d.csv", ["datum", "t", "x1", "u", "err_est"], rows)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("angular-2d", ((2, _ANGULAR_S), (3, _ANGULAR_S)), _angular_inputs, _angular_pass),
        Workload("radial-1d", RADIAL_TABLES, _radial_inputs, _radial_pass),
    )
}
