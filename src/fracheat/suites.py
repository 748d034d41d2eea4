"""The named verification suites behind ``fracheat verify``.

Each suite measures one quantitative property of the package end to
end and returns a VerificationReport; the registry at the bottom maps
stable suite names to their runners in the order the battery runs.
Sample placement is deterministic: where a suite scatters probe
points, it draws them from a generator seeded by the run
configuration, so identical configurations reproduce identical
reports.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy.fft import next_fast_len

from . import families as fam
from .analysis import (
    classical_dichotomy_check,
    convexity_check,
    max_principle_check,
    monotonicity_check,
    ruled_check,
)
from .fraclap import Definiteness, classify_definiteness, frac_laplacian, vanish_at_infinity_check
from .kernel import (
    KernelParams,
    alpha_coeffs,
    d_f_radial,
    ell_limit,
    f_radial,
    heat_kernel,
    kernel_derivatives,
    kernel_mass,
    profile_table,
    verify_kernel_bounds,
)
from .report import VerificationReport
from .solver import (
    GridSpec,
    classical_lifespan,
    pde_residual,
    solve_canonical,
    solve_classical,
)

if TYPE_CHECKING:
    from .cli import RunConfig


def _merge(target: VerificationReport, prefix: str, source: VerificationReport) -> None:
    for r in source.records:
        target.add(
            name=f"{prefix}/{r.name}",
            measured=r.measured,
            bound=r.bound,
            tolerance=r.tolerance,
            passed=r.passed,
            worst_point=r.worst_point,
        )


def suite_kernel_closed_form(cfg: "RunConfig") -> VerificationReport:
    """Half-order kernel against its rational closed form in 1-D and 2-D."""
    report = VerificationReport(suite="kernel-closed-form")
    radii = np.concatenate([[0.0], np.geomspace(0.1, 50.0, 16)])
    times = (0.1, 1.0, 10.0)
    for dim in (1, 2):
        params = KernelParams(dim=dim, s=0.5)
        # c_1 = 1/pi, c_2 = 1/(2 pi): the Cauchy family in dim dimensions
        const = math.gamma(0.5 * (dim + 1)) / math.pi ** (0.5 * (dim + 1))
        points = radii[:, None] * np.eye(dim)[0]
        worst, worst_at = 0.0, (0.0, 0.0)
        for (t, r), (p,) in zip(itertools.product(times, radii), kernel_derivatives(params, points, times, 0)):
            truth = const * t / (t * t + r * r) ** (0.5 * (dim + 1))
            rel = abs(p / truth - 1.0)
            if rel > worst:
                worst, worst_at = rel, (r, t)
        report.add(
            name=f"dim-{dim}",
            measured=worst,
            bound=0.0,
            tolerance=1e-6,
            passed=worst <= 1e-6,
            worst_point=worst_at,
        )
    return report


def suite_normalization(cfg: "RunConfig") -> VerificationReport:
    """Unit mass across 27 dimension, order, and time combinations."""
    report = VerificationReport(suite="normalization")
    for dim in (1, 2, 3):
        worst, worst_at = 0.0, (0.0, 0.0)
        for s in (0.3, 0.55, 0.75):
            for t in (0.1, 1.0, 10.0):
                gap = abs(kernel_mass(KernelParams(dim=dim, s=s), t) - 1.0)
                if gap > worst:
                    worst, worst_at = gap, (s, t)
        report.add(
            name=f"dim-{dim}",
            measured=worst,
            bound=0.0,
            tolerance=1e-6,
            passed=worst <= 1e-6,
            worst_point=worst_at,
        )
    return report


def suite_kernel_bounds(cfg: "RunConfig") -> VerificationReport:
    """Two-sided envelope ratios for the density and its derivatives."""
    report = VerificationReport(suite="kernel-bounds")
    rng = np.random.default_rng(cfg.seed)
    for dim, s in ((1, 0.55), (2, 0.75), (3, 0.6)):
        params = KernelParams(dim=dim, s=s)
        radii = np.sort(rng.uniform(0.05, 50.0, size=8))
        dirs = np.eye(dim)
        points = [radii[i] * dirs[i % dim] for i in range(len(radii))]
        sub = verify_kernel_bounds(params, points=points)
        _merge(report, f"dim-{dim}-s-{s:g}", sub)
    return report


def suite_asymptotic_constants(cfg: "RunConfig") -> VerificationReport:
    """Tail limits of the radial profile and its derivatives at r = 200."""
    report = VerificationReport(suite="asymptotic-constants")
    r = 200.0
    for dim in (1, 2, 3):
        for s in (0.55, 0.75):
            params = KernelParams(dim=dim, s=s)
            worst, worst_k = 0.0, 0
            for k, val in enumerate(d_f_radial(params, (0, 1, 2), r).tolist()):
                scaled = r ** (dim + 2.0 * s + k) * val
                rel = abs(scaled / ell_limit(params, k) - 1.0)
                if rel > worst:
                    worst, worst_k = rel, k
            report.add(
                name=f"dim-{dim}-s-{s:g}",
                measured=worst,
                bound=0.0,
                tolerance=0.02,
                passed=worst <= 0.02,
                worst_point=(float(worst_k), r),
            )
    half = KernelParams(dim=1, s=0.5)
    scaled = 200.0 ** (1.0 + 1.0) * f_radial(half, 200.0)
    target = math.sqrt(2.0 / math.pi)
    rel = abs(scaled / target - 1.0)
    report.add(
        name="dim-1-s-0.5-order-0",
        measured=rel,
        bound=target,
        tolerance=0.02,
        passed=rel <= 0.02,
        worst_point=(0.0, 200.0),
    )
    return report


def suite_derivative_recursion(cfg: "RunConfig") -> VerificationReport:
    """Radial derivative ladder against finite differences and its tables."""
    report = VerificationReport(suite="derivative-recursion")
    params = KernelParams(dim=1, s=0.6)
    radii, steps = (0.7, 1.3, 2.1), (1e-3, 2e-3)
    # the stencils of the two steps overlap: each radius is evaluated once
    stencil = sorted({r + j * h for r in radii for h in steps for j in range(-2, 3)})
    profile = dict(zip(stencil, f_radial(params, np.array(stencil)).tolist()))
    ladder = d_f_radial(params, (1, 2, 3), np.array(radii)).tolist()

    def central(k: int, r: float, h: float) -> float:
        f = [profile[r + j * h] for j in range(-2, 3)]
        if k == 1:
            return (f[3] - f[1]) / (2.0 * h)
        if k == 2:
            return (f[3] - 2.0 * f[2] + f[1]) / h**2
        return (f[4] - 2.0 * f[3] + 2.0 * f[1] - f[0]) / (2.0 * h**3)

    worst, worst_at = 0.0, (0.0, 0.0)
    for k in (1, 2, 3):
        for r, value in zip(radii, ladder[k - 1]):
            # Richardson over h = 1e-3 and 2e-3 cancels the central stencils'
            # h^2 term, so the gap measures the ladder and not the stencil
            fd = (4.0 * central(k, r, steps[0]) - central(k, r, steps[1])) / 3.0
            rel = abs(value / fd - 1.0)
            if rel > worst:
                worst, worst_at = rel, (float(k), r)
    report.add(
        name="matches-finite-differences",
        measured=worst,
        bound=0.0,
        tolerance=1e-4,
        passed=worst <= 1e-4,
        worst_point=worst_at,
    )
    pat2 = alpha_coeffs(2).coefficients
    pat3 = alpha_coeffs(3).coefficients
    gap = max(
        abs(pat2.get(1, 0.0) - 1.0),
        abs(pat2.get(2, 0.0) - 1.0),
        abs(pat3.get(2, 0.0) - 3.0),
        abs(pat3.get(3, 0.0) - 1.0),
    )
    report.add(
        name="coefficient-patterns",
        measured=gap,
        bound=0.0,
        tolerance=0.0,
        passed=gap == 0.0 and len(pat2) == 2 and len(pat3) == 2,
    )
    return report


def suite_multiplier(cfg: "RunConfig") -> VerificationReport:
    """Cosine eigenvalue identity over frequencies, orders, and points."""
    report = VerificationReport(suite="multiplier")
    rng = np.random.default_rng(cfg.seed)
    for s in (0.3, 0.6, 0.9):
        worst, worst_at = 0.0, (0.0, 0.0)
        for freq in (0.5, 1.0, 2.0):
            u0 = fam.cosine(freq)
            xs = np.sort(rng.uniform(-2.0, 2.0, size=5))
            for x in xs:
                res = frac_laplacian(u0, [float(x)], s)
                truth = freq ** (2.0 * s) * math.cos(freq * x)
                gap = abs(res.value - truth)
                if gap > worst:
                    worst, worst_at = gap, (freq, float(x))
        report.add(
            name=f"s-{s:g}",
            measured=worst,
            bound=0.0,
            tolerance=1e-4,
            passed=worst <= 1e-4,
            worst_point=worst_at,
        )
    return report


def suite_spectral_solution(cfg: "RunConfig") -> VerificationReport:
    """Solution oracle for the unit cosine plus the residual battery."""
    report = VerificationReport(suite="spectral-solution")
    grid = GridSpec(dim=1, box=((-3.0, 3.0),), counts=(17,), times=(0.25, 1.0))
    par = KernelParams(dim=1, s=0.6)
    field = solve_canonical(fam.cosine(1.0), grid, par)
    x = grid.nodes()[:, 0]
    worst = 0.0
    for ti, t in enumerate(grid.times):
        worst = max(
            worst, float(np.max(np.abs(field.values[ti] - math.exp(-t) * np.cos(x))))
        )
    report.add(
        name="cosine-oracle",
        measured=worst,
        bound=0.0,
        tolerance=1e-4,
        passed=worst <= 1e-4,
    )
    battery = [
        ("cosine", fam.cosine(1.0), 0.3, 0.8, KernelParams(dim=1, s=0.6)),
        ("constant", fam.constant(2.0), 0.7, 0.5, KernelParams(dim=1, s=0.75)),
        ("gaussian", fam.gaussian(1.0), 0.5, 1.0, KernelParams(dim=1, s=0.7)),
        ("abs_power", fam.abs_power(1.2), 1.0, 1.0, KernelParams(dim=1, s=0.75)),
        ("affine", fam.affine(0.5, 1.0), 2.0, 0.7, KernelParams(dim=1, s=0.8)),
    ]
    for name, u0, xx, t, params in battery:
        res = pde_residual(u0, np.array([xx]), t, params)
        report.add(
            name=f"residual-{name}",
            measured=abs(res),
            bound=0.0,
            tolerance=1e-3,
            passed=abs(res) <= 1e-3,
            worst_point=(xx, t),
        )
    return report


def _convolve_same(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """scipy's fftconvolve(a, b, mode="same") for equal lengths, through numpy's real FFT."""
    n = len(a)
    size = next_fast_len(2 * n - 1, True)
    full = np.fft.irfft(np.fft.rfft(a, size) * np.fft.rfft(b, size), size)
    return full[(n - 1) // 2 : (n - 1) // 2 + n]


def suite_semigroup(cfg: "RunConfig") -> VerificationReport:
    """Kernel self-convolution: p(0.5) * p(0.7) against p(1.2) in 1-D."""
    report = VerificationReport(suite="semigroup")
    params = KernelParams(dim=1, s=0.75)
    table = profile_table(1, 0.75)
    sp = params.scaling_power
    pref = 1.0 / math.sqrt(2.0 * math.pi)
    # the slow power tail forces a wide window: mass outside [-L, L]
    # scales like L^(-2s), and 600 pushes that below the tolerance
    L, h = 600.0, 0.05
    xs = np.arange(-L, L + 0.5 * h, h)

    def p_line(t: float) -> np.ndarray:
        return t ** (-sp) * pref * table.evaluate(np.abs(xs) * t ** (-sp))

    # 24k samples per time level force the table path; tie it back to
    # the scalar kernel at a few spots so the shortcut stays honest
    mid = p_line(0.7)
    idx = [int(round((x + L) / h)) for x in (-17.3, -4.0, 0.0, 1.25, 12.0)]
    tie = max(abs(mid[i] - heat_kernel(params, [float(xs[i])], 0.7)) for i in idx)
    report.add(
        name="table-matches-pointwise",
        measured=tie,
        bound=0.0,
        tolerance=1e-7,
        passed=tie <= 1e-7,
    )

    conv = _convolve_same(p_line(0.5), mid) * h
    window = np.abs(xs) <= 20.0
    gap = np.abs(conv[window] - p_line(1.2)[window])
    worst = int(np.argmax(gap))
    report.add(
        name="sup-gap",
        measured=float(gap[worst]),
        bound=0.0,
        tolerance=1e-5,
        passed=float(gap[worst]) <= 1e-5,
        worst_point=(float(xs[window][worst]),),
    )
    return report


def suite_maxprinciple(cfg: "RunConfig") -> VerificationReport:
    """Range bounds for five bounded data under the canonical flow."""
    report = VerificationReport(suite="maxprinciple")
    grid = GridSpec(dim=1, box=((-2.0, 2.0),), counts=(9,), times=(0.3, 1.5))
    battery = [
        (fam.cosine(1.0), 0.6),
        (fam.cosine(2.5), 0.75),
        (fam.gaussian(1.0), 0.7),
        (fam.gaussian(0.25), 0.6),
        (fam.constant(-3.0), 0.5),
    ]
    for u0, s in battery:
        field = solve_canonical(u0, grid, KernelParams(dim=1, s=s))
        _merge(report, u0.label, max_principle_check(field))
    return report


def suite_geosol(cfg: "RunConfig") -> VerificationReport:
    """Convexity, strict heating, ruling, and the affine equality case."""
    report = VerificationReport(suite="geosol")
    par = KernelParams(dim=1, s=0.75)
    grid = GridSpec(dim=1, box=((-3.0, 3.0),), counts=(25,), times=(0.0, 0.5, 1.5))

    conv = convexity_check(solve_canonical(fam.abs_power(1.2), grid, par))
    report.add(
        name="convexity-preserved",
        measured=conv.min_second_difference,
        bound=0.0,
        tolerance=1e-6,
        passed=conv.verdict == "Convex",
        worst_point=(*conv.worst_triple[0], conv.worst_triple[2]),
    )
    mono = monotonicity_check(
        fam.abs_power(1.2), [[0.0], [2.5], [5.0]], (0.5, 2.0), par
    )
    _merge(report, "heating", mono)

    aff_field = solve_canonical(fam.affine(1.0, 0.5), grid, KernelParams(dim=1, s=0.8))
    x = grid.nodes()[:, 0]
    aff_gap = float(np.max(np.abs(aff_field.values - (1.0 + 0.5 * x)[None, :])))
    report.add(
        name="affine-frozen",
        measured=aff_gap,
        bound=0.0,
        tolerance=1e-6,
        passed=aff_gap <= 1e-6,
    )

    ruled_grid = GridSpec(
        dim=2,
        box=((-2.0, 2.0), (-2.0, 2.0)),
        counts=(9, 5),
        times=(0.5, 1.0, 2.0),
    )
    ruled_field = solve_canonical(
        fam.ruled(1.2, dim=2), ruled_grid, KernelParams(dim=2, s=0.75)
    )
    along = ruled_check(ruled_field, (0.0, 1.0))
    report.add(
        name="ruling-kept",
        measured=along.max_deviation,
        bound=0.0,
        tolerance=1e-6,
        passed=along.verdict == "Ruled",
    )
    across = ruled_check(ruled_field, (1.0, 0.0))
    report.add(
        name="ruling-fails-across",
        measured=across.max_deviation,
        bound=0.0,
        tolerance=1e-6,
        passed=across.verdict == "NotRuled",
    )
    return report


def suite_classical(cfg: "RunConfig") -> VerificationReport:
    """Order-one comparison flow: closed form, dichotomy, horizon guard."""
    report = VerificationReport(suite="classical")
    grid = GridSpec(dim=1, box=((-2.0, 2.0),), counts=(9,), times=(0.2, 0.9))
    field = solve_classical(fam.abs_power(2.0), grid)
    x = grid.nodes()[:, 0]
    worst = max(
        float(np.max(np.abs(field.values[k] - (1.0 + x**2 + 2.0 * t))))
        for k, t in enumerate(grid.times)
    )
    report.add(
        name="quadratic-closed-form",
        measured=worst,
        bound=0.0,
        tolerance=1e-6,
        passed=worst <= 1e-6,
    )
    _merge(report, "dichotomy", classical_dichotomy_check(fam.abs_power(2.0)))

    horizon = classical_lifespan(fam.abs_power(2.0))
    try:
        solve_classical(
            fam.abs_power(2.0),
            GridSpec(dim=1, box=((-1.0, 1.0),), counts=(5,), times=(horizon,)),
        )
        refused = False
    except ValueError:
        refused = True
    report.add(
        name="horizon-refused",
        measured=horizon,
        bound=1.0,
        tolerance=0.0,
        passed=refused and horizon == 1.0,
    )
    return report


def suite_definiteness(cfg: "RunConfig") -> VerificationReport:
    """Principal-value outcome table over the six canonical scenarios."""
    report = VerificationReport(suite="definiteness")
    table = [
        ("affine-low-order", fam.affine(1.0, 1.0), 0.4, Definiteness.INDEFINITE),
        ("affine-high-order", fam.affine(1.0, 1.0), 0.75, Definiteness.IDENTICALLY_ZERO),
        ("kink-downward", fam.piecewise_linear_1d(-0.5), 0.6, Definiteness.NEGATIVE_INFINITE),
        ("kink-shallow-low-order", fam.piecewise_linear_1d(0.5), 0.4, Definiteness.INDEFINITE),
        ("kink-convex-high-order", fam.piecewise_linear_1d(0.5), 0.75, Definiteness.NEGATIVE_INFINITE),
        ("constant", fam.constant(2.0), 0.6, Definiteness.IDENTICALLY_ZERO),
    ]
    for name, u0, s, expected in table:
        got = classify_definiteness(u0, s).outcome
        report.add(
            name=name,
            measured=float(got == expected),
            bound=1.0,
            tolerance=0.0,
            passed=got == expected,
        )
    return report


def suite_vanishing(cfg: "RunConfig") -> VerificationReport:
    """Operator decay far out for slow growth, with a cosine control."""
    report = VerificationReport(suite="vanishing")
    # power s keeps the growth well inside the admissible range, so the
    # far value must fall under a tenth of the near value
    good = vanish_at_infinity_check(fam.abs_power(0.75), 0.75, radii=(1.0, 100.0))
    _merge(report, "abs_power", good)
    control = vanish_at_infinity_check(fam.cosine(1.0), 0.75, radii=(1.0, 100.0))
    report.add(
        name="cosine-control-fails",
        measured=float(not control.overall_pass),
        bound=1.0,
        tolerance=0.0,
        passed=not control.overall_pass,
    )
    return report


SUITES: dict[str, Callable[["RunConfig"], VerificationReport]] = {
    "kernel-closed-form": suite_kernel_closed_form,
    "normalization": suite_normalization,
    "kernel-bounds": suite_kernel_bounds,
    "asymptotic-constants": suite_asymptotic_constants,
    "derivative-recursion": suite_derivative_recursion,
    "multiplier": suite_multiplier,
    "spectral-solution": suite_spectral_solution,
    "semigroup": suite_semigroup,
    "maxprinciple": suite_maxprinciple,
    "geosol": suite_geosol,
    "classical": suite_classical,
    "definiteness": suite_definiteness,
    "vanishing": suite_vanishing,
}
