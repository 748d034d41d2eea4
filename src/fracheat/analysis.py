"""Geometric structure checks on computed solution fields.

Everything here reads a finished :class:`~fracheat.solver.SolutionField`
or probes the flow through the solver's pointwise operations; nothing
re-derives kernel machinery.  The checks cover order bounds between a
solution and its datum, the growth envelope it inherits from its datum,
preservation of convexity measured through lattice second differences,
invariance along a ruling direction, and monotone heating of convex
data, together with the same battery run against the order-one
comparison flow.

Verdicts are absolute with the tolerance TOLERANCE = 1e-6, calibrated for
data whose magnitude stays within about ten on the sampled box; that
sits an order above the worst quadrature error the solver reports on
such data, so a failed verdict reflects the field, not the quadrature.
The growth envelope is the exception: its bound grows with the data, so
it allows each node its own error estimate instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Literal, Sequence

import numpy as np

from .families import FunctionSpec, require_admissible
from .kernel import KernelParams
from .report import VerificationReport
from .solver import (
    GridSpec,
    SolutionField,
    classical_lifespan,
    solve_classical,
    time_derivative,
)

TOLERANCE = 1e-6
# the smallest heating rate monotonicity_check counts as strict
_STRICT_RATE = 1e-4


# ---------------------------------------------------------------------------
# report types


@dataclass(frozen=True)
class ConvexityReport:
    """Sampled second-difference summary for one solution field.

    ``min_second_difference`` is the smallest value of
    u(x+y) + u(x-y) - 2 u(x) seen over every sampled row, lattice
    point, direction, and step; the verdict is Convex exactly when that
    minimum clears ``-tolerance``.  ``strictness_margin`` repeats the
    minimum restricted to steps of length closest to one, giving a
    scale-free number that is positive only when convexity is strict.
    """

    min_second_difference: float
    worst_triple: tuple[tuple[float, ...], tuple[float, ...], float]
    verdict: Literal["Convex", "NotConvex"]
    strictness_margin: float
    tolerance: float

    def __post_init__(self) -> None:
        expected = "Convex" if self.min_second_difference >= -self.tolerance else "NotConvex"
        if self.verdict != expected:
            raise ValueError("verdict must follow the measured minimum")


@dataclass(frozen=True)
class RuledReport:
    """Largest deviation from line structure along one direction."""

    direction: tuple[float, ...]
    max_deviation: float
    worst_triple: tuple[tuple[float, ...], tuple[float, ...], float]
    verdict: Literal["Ruled", "NotRuled"]
    tolerance: float

    def __post_init__(self) -> None:
        expected = "Ruled" if self.max_deviation <= self.tolerance else "NotRuled"
        if self.verdict != expected:
            raise ValueError("verdict must follow the measured deviation")


# ---------------------------------------------------------------------------
# lattice helpers


def _lattice_directions(dim: int) -> list[tuple[int, ...]]:
    # axes first, then the +-1 diagonals with the first nonzero entry
    # positive so each line appears once
    out = [tuple(int(a == b) for b in range(dim)) for a in range(dim)]
    if dim >= 2:
        grids = np.meshgrid(*([(-1, 0, 1)] * dim), indexing="ij")
        for combo in np.stack([g.ravel() for g in grids], axis=1):
            nz = combo[combo != 0]
            if len(nz) < 2 or nz[0] < 0:
                continue
            out.append(tuple(int(c) for c in combo))
    return out


def _snap_direction(xi, dim: int) -> tuple[int, ...]:
    v = np.atleast_1d(np.asarray(xi, dtype=float))
    if v.shape != (dim,) or not np.all(np.isfinite(v)) or not np.any(v):
        raise ValueError(f"direction must be a nonzero vector of length {dim}")
    for cand in _lattice_directions(dim):
        c = np.asarray(cand, dtype=float)
        cosine = abs(float(v @ c)) / (np.linalg.norm(v) * np.linalg.norm(c))
        if cosine >= 1.0 - 1e-9:
            return cand
    raise ValueError("direction must align with a grid axis or a diagonal")


def _max_step(counts: Sequence[int], d: Sequence[int]) -> int:
    return min((c - 1) // (2 * abs(a)) for c, a in zip(counts, d) if a != 0)


def _second_differences(
    arr: np.ndarray, d: Sequence[int], k: int
) -> tuple[np.ndarray, tuple[slice, ...]]:
    """u(x+k d) + u(x-k d) - 2 u(x) over the interior, rows intact."""
    ctr: list[slice] = [slice(None)]
    plus: list[slice] = [slice(None)]
    minus: list[slice] = [slice(None)]
    for axis, a in enumerate(d):
        n = arr.shape[axis + 1]
        off = k * a
        lo = max(off, 0, -off)
        ctr.append(slice(lo, n - lo))
        plus.append(slice(lo + off, n - lo + off))
        minus.append(slice(lo - off, n - lo - off))
    sd = arr[tuple(plus)] + arr[tuple(minus)] - 2.0 * arr[tuple(ctr)]
    return sd, tuple(ctr)


# ---------------------------------------------------------------------------
# checks


def max_principle_check(field: SolutionField) -> VerificationReport:
    """Order bounds of a solution field against its datum's range.

    The solution of a datum bounded on both sides must stay inside
    [inf u0 - TOLERANCE, sup u0 + TOLERANCE] at every sample; the lower
    bound is the upper bound applied to the negated datum, so both
    directions come from one principle.
    """
    u0 = field.datum
    if u0.sup_value is None or u0.inf_value is None:
        raise ValueError(
            f"{u0.label} does not declare finite range metadata; the order "
            "bound needs a bounded datum"
        )
    report = VerificationReport(suite="max-principle")
    nodes = field.grid.nodes()
    hi = np.unravel_index(np.argmax(field.values), field.values.shape)
    lo = np.unravel_index(np.argmin(field.values), field.values.shape)
    report.add(
        name="upper-bound",
        measured=float(field.values[hi]),
        bound=float(u0.sup_value),
        tolerance=TOLERANCE,
        passed=float(field.values[hi]) <= u0.sup_value + TOLERANCE,
        worst_point=(*nodes[hi[1]], field.grid.times[hi[0]]),
    )
    report.add(
        name="lower-bound",
        measured=float(field.values[lo]),
        bound=float(u0.inf_value),
        tolerance=TOLERANCE,
        passed=float(field.values[lo]) >= u0.inf_value - TOLERANCE,
        worst_point=(*nodes[lo[1]], field.grid.times[lo[0]]),
    )
    return report


def envelope_check(field: SolutionField, params: KernelParams) -> VerificationReport:
    """The growth bound of the existence theorem on a solved field.

    A datum under |u0| <= A + B |x|^beta with beta < 2s has |u(x, t)| <=
    its envelope flowed to t (GrowthEnvelope.flowed), a bound with every
    constant explicit, so there is no margin.  One record per grid time,
    passing when every node has |u| <= bound + err_est; it measures the
    worst ratio (|u| - err_est) / bound, where a zero bound reads 0 when
    |u| <= err_est and the largest float when not.
    """
    u0, grid = field.datum, field.grid
    require_admissible(u0, params.s)
    report = VerificationReport(suite="growth-envelope")
    nodes = grid.nodes()
    radii = np.linalg.norm(nodes, axis=1)
    for ti, t in enumerate(grid.times):
        bound = u0.envelope.flowed(params.dim, params.s, t).bound(radii)
        excess = np.abs(field.values[ti]) - field.error_estimates[ti]
        ratio = np.divide(excess, bound, out=np.where(excess > 0.0, np.inf, 0.0), where=bound > 0.0)
        worst = int(np.argmax(ratio))
        report.add(
            name=f"t={t:g}",
            measured=min(float(ratio[worst]), np.finfo(float).max),
            bound=1.0,
            tolerance=0.0,
            passed=bool(np.all(excess <= bound)),
            worst_point=(*nodes[worst], t),
        )
    return report


def _spacings(grid) -> np.ndarray:
    return np.array([(hi - lo) / (c - 1) for (lo, hi), c in zip(grid.box, grid.counts)])


def _step_extremes(field: SolutionField, d: Sequence[int], steps, pick):
    """(k, value, (point, step vector, time)) per lattice step k along d.

    value is the second difference that pick (an argmin or argmax over
    the flattened differences of every row) chooses, and the triple says
    where it sits.
    """
    grid = field.grid
    arr = field.values.reshape((len(grid.times),) + grid.counts)
    spacings, axes = _spacings(grid), grid.axes()
    for k in steps:
        sd, ctr = _second_differences(arr, d, k)
        idx = np.unravel_index(pick(sd), sd.shape)
        point = tuple(float(axes[a][idx[a + 1] + ctr[a + 1].start]) for a in range(grid.dim))
        y = tuple(float(k * sp * da) for sp, da in zip(spacings, d))
        yield k, float(sd[idx]), (point, y, grid.times[idx[0]])


def convexity_check(field: SolutionField) -> ConvexityReport:
    """Lattice second differences of every row of a solution field.

    The directions are the grid axes plus the diagonals; the steps are the
    lattice multiples 1, 2 and whichever multiple brings the physical step
    closest to length one, as far as each fits the grid.  The t = 0 row is
    sampled too, so a non-convex datum is caught directly.
    """
    grid = field.grid
    spacings = _spacings(grid)
    best = math.inf
    margin = math.inf
    worst: tuple[tuple[float, ...], tuple[float, ...], float] = ((), (), 0.0)
    for d in _lattice_directions(grid.dim):
        kmax = _max_step(grid.counts, d)
        if kmax < 1:
            raise ValueError("grid too small for a second difference along " + str(d))
        step_len = float(np.linalg.norm(spacings * np.asarray(d)))
        k_unit = min(max(1, round(1.0 / step_len)), kmax)
        steps = sorted({k for k in (1, 2, k_unit) if k <= kmax})
        for k, local, triple in _step_extremes(field, d, steps, np.argmin):
            if k == k_unit and local < margin:
                margin = local
            if local < best:
                best, worst = local, triple
    verdict: Literal["Convex", "NotConvex"] = (
        "Convex" if best >= -TOLERANCE else "NotConvex"
    )
    return ConvexityReport(
        min_second_difference=best,
        worst_triple=worst,
        verdict=verdict,
        strictness_margin=margin,
        tolerance=TOLERANCE,
    )


def ruled_check(field: SolutionField, xi) -> RuledReport:
    """Deviation of every row from line structure along one direction.

    A field rules along xi when 2 u(x) equals u(x + mu xi) + u(x - mu xi)
    for every sampled x and every lattice multiple mu; the report keeps
    the largest absolute mismatch and where it happened.
    """
    grid = field.grid
    d = _snap_direction(xi, grid.dim)
    kmax = _max_step(grid.counts, d)
    if kmax < 1:
        raise ValueError("grid too small to test ruling along " + str(d))
    worst_val = -math.inf
    worst: tuple[tuple[float, ...], tuple[float, ...], float] = ((), (), 0.0)
    steps = range(1, kmax + 1)
    for _, local, triple in _step_extremes(field, d, steps, lambda sd: np.argmax(np.abs(sd))):
        if abs(local) > worst_val:
            worst_val, worst = abs(local), triple
    verdict: Literal["Ruled", "NotRuled"] = (
        "Ruled" if worst_val <= TOLERANCE else "NotRuled"
    )
    return RuledReport(
        direction=tuple(float(v) for v in np.atleast_1d(np.asarray(xi, dtype=float))),
        max_deviation=worst_val,
        worst_triple=worst,
        verdict=verdict,
        tolerance=TOLERANCE,
    )


def monotonicity_check(
    u0: FunctionSpec,
    points,
    times: Sequence[float],
    params: KernelParams,
) -> VerificationReport:
    """Heating rate of a convex datum at chosen space-time samples.

    The rate must clear -TOLERANCE everywhere.  For a non-affine datum
    the rate must additionally clear _STRICT_RATE: a vanishing
    rate somewhere is reserved for affine data, so observing one
    anywhere else is reported as a failure rather than a curiosity.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    if pts.shape[1] != params.dim:
        raise ValueError(f"sample points must have {params.dim} coordinates")
    rates = np.empty((len(times), len(pts)))
    for ti, t in enumerate(times):
        for pi, p in enumerate(pts):
            rates[ti, pi] = time_derivative(u0, p, float(t), params)
    report = VerificationReport(suite="monotone-heating")
    lo = np.unravel_index(np.argmin(rates), rates.shape)
    worst = (*pts[lo[1]], float(times[lo[0]]))
    report.add(
        name="rate-nonnegative",
        measured=float(rates[lo]),
        bound=0.0,
        tolerance=TOLERANCE,
        passed=float(rates[lo]) >= -TOLERANCE,
        worst_point=worst,
    )
    if u0.is_affine:
        peak = float(np.max(np.abs(rates)))
        report.add(
            name="affine-stationary",
            measured=peak,
            bound=0.0,
            tolerance=TOLERANCE,
            passed=peak <= TOLERANCE,
            worst_point=worst,
        )
    else:
        report.add(
            name="strictly-heating",
            measured=float(rates[lo]),
            bound=_STRICT_RATE,
            tolerance=0.0,
            passed=float(rates[lo]) >= _STRICT_RATE,
            worst_point=worst,
        )
    return report


def classical_dichotomy_check(u0: FunctionSpec) -> VerificationReport:
    """The convexity battery replayed on the order-one comparison flow.

    Solves the classical problem on a 17-node lattice of [-2, 2]^dim at
    times 0.15 T and 0.6 T, strictly inside the guaranteed horizon T (with
    T = 1 for data whose flow lives forever), then repeats the
    second-difference check, the ruling check when the datum declares
    ruling directions, and a finite-difference version of the heating
    check.
    """
    horizon = classical_lifespan(u0)
    top = 0.6 if math.isinf(horizon) else 0.6 * horizon
    grid = GridSpec(
        dim=u0.dim,
        box=((-2.0, 2.0),) * u0.dim,
        counts=(17,) * u0.dim,
        times=(0.25 * top, top),
    )
    field = solve_classical(u0, grid)
    report = VerificationReport(suite="classical-dichotomy")
    conv = convexity_check(field)
    report.add(
        name="convexity",
        measured=conv.min_second_difference,
        bound=0.0,
        tolerance=TOLERANCE,
        passed=conv.verdict == "Convex",
        worst_point=(*conv.worst_triple[0], *conv.worst_triple[1]),
    )
    for xi in u0.ruled_directions:
        ruled = ruled_check(field, xi)
        report.add(
            name=f"ruled-along-{'-'.join(f'{v:g}' for v in xi)}",
            measured=ruled.max_deviation,
            bound=0.0,
            tolerance=TOLERANCE,
            passed=ruled.verdict == "Ruled",
            worst_point=(*ruled.worst_triple[0], *ruled.worst_triple[1]),
        )
    h = 1e-4
    lo_times = tuple(t - h for t in grid.times)
    hi_times = tuple(t + h for t in grid.times)
    back = solve_classical(u0, GridSpec(grid.dim, grid.box, grid.counts, lo_times))
    fore = solve_classical(u0, GridSpec(grid.dim, grid.box, grid.counts, hi_times))
    rates = (fore.values - back.values) / (2.0 * h)
    min_rate = float(np.min(rates))
    peak = float(np.max(np.abs(rates)))
    if u0.is_affine:
        report.add(
            name="affine-stationary",
            measured=peak,
            bound=0.0,
            tolerance=10.0 * TOLERANCE,
            passed=peak <= 10.0 * TOLERANCE,
        )
    else:
        report.add(
            name="rate-nonnegative",
            measured=min_rate,
            bound=0.0,
            tolerance=10.0 * TOLERANCE,
            passed=min_rate >= -10.0 * TOLERANCE,
        )
    return report
