"""Fractional heat flow by direct kernel convolution.

Nothing in this module marches in time.  Every value u(x, t) is the exact
convolution of the initial datum with the kernel at that time, rewritten
in the scaled radial variable where the kernel collapses to a fixed
profile:

    u(x, t) = (2 pi)^(-N/2) * int_0^inf F(r) r^(N-1) P(x, t^(1/2s) r) dr,

with P(x, rho) the surface integral of the datum over the sphere of
radius rho around x.  The time derivative has the same shape with F
replaced by the profile of the kernel's t-derivative; the dimension
shift identity F_N'(r) = -r F_{N+2}(r) turns that into a combination of
two tabulated profiles, so no numerical differentiation happens.

Beyond the tabulated range, r > TAIL_CUT, the tail band is a
families.FarBand against the profile's large-radius series: the far tail
of the pointwise operator, with its route, cutoff and closed form.  An
exact far field (affine data) has the datum itself as its solution at
every time, with no quadrature.

In 2-D and 3-D the sphere integral P comes from a direction rule that is
refined level by level, separately in two radial bands: the body
r <= TAIL_CUT and the tail beyond it.  Each band refines until its own
drift between consecutive levels falls under half of specfun's budget
ABS_TOL + REL_TOL (1 + max |u|), or the level cap is reached, and the
error estimate adds each band's last drift per point.  The radial nodes
do not depend on the level, so specfun.nested_pair_sums can build a
level's sphere sums from the kept sums of the level before where the
rule nests (2-D), evaluating only the new directions.  The 3-D product
rule does not nest and is evaluated whole at every level.

Each band works through a batch in blocks of _NODE_BLOCK points: a
block's sphere sums are evaluated and reduced to values and estimates
before the next block's are formed, so the points x radii sums never
exist for the whole batch at once.  Only a 2-D band keeps each block's
sums for the next level: 1-D never refines, and in 3-D nested_pair_sums
keeps nothing.  What serves the whole batch (the accuracy target from
its smallest body value, the growth constant of its farthest point) is
still decided over the whole batch, so the block size changes no number.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .families import FarBand, FunctionSpec, as_integer, as_point, require_admissible
from .fraclap import riesz_constant, second_difference_constants
from .kernel import BODY_EDGES, TAIL_CUT, KernelParams, profile_table, tail_coefficients
from .report import VerificationReport
from .specfun import ABS_TOL, REL_TOL, averaged_limit, geometric_edges, geometric_tail, half_period_rule, nested_pair_sums, panel_rule, shared_cache, sphere_rule, split_panels

_TWO_PI = 2.0 * math.pi
_CHUNK = 1_500_000
# points per block, in solve jobs and in a band's sweep; a power of two,
# so block edges fall on the row groups of the matrix-vector kernels and
# each row's reduction is bit for bit the one of the unblocked product
_NODE_BLOCK = 512
_MAX_ANGULAR = {2: 6, 3: 3}
# relative accuracy envelope of the tabulated profiles: the largest error
# at the node midpoints of any table the suites and the benchmark read is
# 1.17e-8, in (3, 0.8)
_TABLE_REL = 1.5e-8
# radii of the rings envelope_propagate samples
_RING_RADII = (0.0, 2.0, 10.0, 40.0, 100.0)
# Gauss-Hermite nodes per axis of solve_classical up to 2-D (32 above)
_HERMITE_NODES = 80
# initial_continuity_check's refinement steps and the final gap it allows;
# the gap allows for the spatial term |grad u0| * 2^-steps, which dominates
# it for any datum with a nonzero gradient
_CONTINUITY_STEPS = 10
_CONTINUITY_TOL = 5e-3


# ---------------------------------------------------------------------------
# grid and field containers


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned evaluation lattice together with the time list."""

    dim: int
    box: tuple[tuple[float, float], ...]
    counts: tuple[int, ...]
    times: tuple[float, ...]

    def __post_init__(self) -> None:
        if as_integer(self.dim, "dim") < 1:
            raise ValueError("dim must be a positive integer")
        object.__setattr__(self, "box", tuple((float(a), float(b)) for a, b in self.box))
        object.__setattr__(self, "counts", tuple(as_integer(c, "grid counts") for c in self.counts))
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        if len(self.box) != self.dim or len(self.counts) != self.dim:
            raise ValueError("box and counts must have one entry per axis")
        for (lo, hi), c in zip(self.box, self.counts):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ValueError("each box interval needs lo < hi")
            if c < 2:
                raise ValueError("need at least two nodes per axis")
        if not self.times:
            raise ValueError("need at least one time")
        if any(t < 0.0 or not math.isfinite(t) for t in self.times):
            raise ValueError("times must be finite and non-negative")
        if any(b <= a for a, b in zip(self.times, self.times[1:])):
            raise ValueError("times must increase strictly")

    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(
            np.linspace(lo, hi, c) for (lo, hi), c in zip(self.box, self.counts)
        )

    def nodes(self) -> np.ndarray:
        """All lattice points as a (node_count, dim) array, last axis fastest."""
        mesh = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @property
    def node_count(self) -> int:
        return int(np.prod(self.counts))


@dataclass(frozen=True)
class SolutionField:
    """Solution values on a grid, one row per time, write-once.

    The row for t = 0 is copied from the datum directly, never from
    quadrature, so restriction to t = 0 is exact by construction.
    """

    grid: GridSpec
    values: np.ndarray
    error_estimates: np.ndarray
    datum: FunctionSpec

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        errs = np.asarray(self.error_estimates, dtype=float)
        shape = (len(self.grid.times), self.grid.node_count)
        if vals.shape != shape or errs.shape != shape:
            raise ValueError(f"values and error estimates must have shape {shape}")
        if not np.all(np.isfinite(vals)) or np.any(errs < 0.0):
            raise ValueError("values must be finite and error estimates non-negative")
        if self.grid.times[0] == 0.0:
            exact = self.datum.value(self.grid.nodes())
            if not np.array_equal(vals[0], exact):
                raise ValueError("the t=0 row must reproduce the datum exactly")
        vals.setflags(write=False)
        errs.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "error_estimates", errs)

    def at_time(self, index: int) -> np.ndarray:
        return self.values[index]


@dataclass(frozen=True)
class EnvelopeTrace:
    """Measured growth amplitude A(t) with its fitted time exponent."""

    times: tuple[float, ...]
    amplitudes: tuple[float, ...]
    bound_coefficient: float
    fitted_exponent: float

    def __post_init__(self) -> None:
        ts = tuple(float(t) for t in self.times)
        amps = tuple(float(a) for a in self.amplitudes)
        object.__setattr__(self, "times", ts)
        object.__setattr__(self, "amplitudes", amps)
        if len(ts) != len(amps) or len(ts) < 3:
            raise ValueError("need matching times and amplitudes, at least three")
        if any(t <= 0.0 for t in ts) or any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("times must be positive and strictly increasing")
        if any(a <= 0.0 for a in amps):
            raise ValueError("amplitudes must stay positive")
        ratios = [a / t for a, t in zip(amps, ts)]
        for a, b in zip(ratios, ratios[1:]):
            if b > a * (1.0 + 1e-9):
                raise ValueError("A(t)/t must trend downward on the sampled range")
        if self.bound_coefficient < 0.0:
            raise ValueError("bound coefficient must be non-negative")


# ---------------------------------------------------------------------------
# radial machinery


@shared_cache(maxsize=16)
def _factor_tables(dim: int, s: float, kind: str):
    if kind == "mass":
        table = profile_table(dim, s)

        def factor(rs: np.ndarray) -> np.ndarray:
            return table.evaluate(rs) * rs ** (dim - 1)

        return factor, 1.0
    # rate: scaled profile of p_t through the dimension-shift identity
    low = profile_table(dim, s)
    high = profile_table(dim + 2, s)

    def factor(rs: np.ndarray) -> np.ndarray:
        phi = (rs * rs * high.evaluate(rs) - dim * low.evaluate(rs)) / (2.0 * s)
        return phi * rs ** (dim - 1)

    # the two table values cancel near the tail; scale the accuracy
    # envelope by the worst-case amplification
    return factor, 1.0 + dim / (2.0 * s)


@lru_cache(maxsize=32)
def _series(dim: int, s: float, kind: str) -> tuple[float, ...]:
    base = tail_coefficients(dim, s)
    if kind == "mass":
        return base
    return tuple(k * a for k, a in enumerate(base, start=1))


class _RadialBands:
    """Scaled radial integral pref * int factor(r) P(x, t^(1/2s) r) dr.

    The radial line splits at TAIL_CUT into a body band, tabulated profile
    panels on BODY_EDGES, and a FarBand, whose closed form is _const (one
    entry per point).  Both bands start at the given angular level and
    sweep the points in blocks of _NODE_BLOCK, keeping for each block what
    nested_pair_sums returns to keep; the radial nodes never depend on the
    level.
    """

    def __init__(
        self,
        u0: FunctionSpec,
        pts: np.ndarray,
        t: float,
        params: KernelParams,
        kind: str,
        level: int,
    ) -> None:
        dim, s = params.dim, params.s
        tsc = t ** (1.0 / (2.0 * s))
        area = float(np.sum(sphere_rule(dim, level)[1]))
        factor, amp = _factor_tables(dim, s, kind)
        pref = _TWO_PI ** (-0.5 * dim)
        osc = (u0.osc_scale or 0.0) * tsc
        cap = 2.2 * math.pi / osc if osc > 0.0 else math.inf
        rs, ws = map(np.ravel, panel_rule(split_panels(BODY_EDGES, cap), 24))
        fac = factor(rs) * ws

        def body(surf: np.ndarray, sl: slice) -> tuple[np.ndarray, np.ndarray]:
            return pref * surf @ fac, _TABLE_REL * amp * pref * np.abs(surf) @ np.abs(fac)

        self._u0, self._pts, self._dim = u0, pts, dim
        self._blocks = [slice(lo, lo + _NODE_BLOCK) for lo in range(0, len(pts), _NODE_BLOCK)]
        self._kept = [[None] * len(self._blocks) for _ in range(2)]
        self._rhos = [tsc * rs]
        self._reduce = [body]
        self.levels = [level, level]
        body_part = self._sweep(0)

        # truncation must serve the least forgiving point of the batch, so
        # the accuracy target follows the smallest value scale present
        scale = 1.0 + float(np.min(np.abs(body_part[0])))
        target = 0.25 * (ABS_TOL + REL_TOL * scale)
        far = FarBand(u0, pts, s, TAIL_CUT, tsc, factor, _series(dim, s, kind), pref, _TABLE_REL * amp, area, target, (16,))
        self._const = far.closed
        self._rhos.append(far.rhos)
        self._reduce.append(far.reduce)
        self._parts = [body_part, self._sweep(1)]
        # each band's last refinement step, per point
        self.drifts = [0.0, 0.0]

    def _sweep(self, band: int) -> tuple[np.ndarray, np.ndarray]:
        """One band's values and estimates at its level, block by block."""
        dirs, dwts = sphere_rule(self._dim, self.levels[band])
        # halved weights make the pair sums sphere averages; the scaling is
        # exact, so it commutes with every rounding
        half = 0.5 * dwts
        value, rhos, kept = self._u0.value, self._rhos[band], self._kept[band]
        vals, errs = [], []
        for i, sl in enumerate(self._blocks):
            surf, kept[i] = nested_pair_sums(value, self._pts[sl], rhos, dirs, half, kept[i])
            v, e = self._reduce[band](surf, sl)
            vals.append(v)
            errs.append(e)
        return np.concatenate(vals), np.concatenate(errs)

    def refine(self, band: int) -> None:
        """Move one band to the next angular level and record its drift."""
        self.levels[band] += 1
        new = self._sweep(band)
        self.drifts[band] = np.abs(new[0] - self._parts[band][0])
        self._parts[band] = new

    def values(self) -> tuple[np.ndarray, np.ndarray]:
        """Values and error estimates, the bands' last drifts included."""
        (body_v, body_e), (tail_v, tail_e) = self._parts
        errs = body_e + tail_e + self.drifts[0] + self.drifts[1]
        return body_v + self._const + tail_v, errs


def _solve_batch(
    u0: FunctionSpec,
    pts: np.ndarray,
    t: float,
    params: KernelParams,
    kind: str = "mass",
) -> tuple[np.ndarray, np.ndarray]:
    """Convolution values at one finite positive time, with angular refinement."""
    if not 0.0 < t < math.inf:
        raise ValueError(f"convolution requires a finite t > 0, got {t}")
    if u0.is_affine:
        # every sphere mean is u(x) and the kernel is a probability density
        # at every time, so the flow leaves the datum where it is
        vals = u0.far_const(pts) if kind == "mass" else np.zeros(len(pts))
        return vals, 2.0**-53 * np.abs(vals)
    if params.dim == 1:
        vals, errs = _RadialBands(u0, pts, t, params, kind, 0).values()
    else:
        # the sphere rule refuses dim > 3 before the cap lookup
        bands = _RadialBands(u0, pts, t, params, kind, 2 if params.dim == 2 else 1)
        top = _MAX_ANGULAR[params.dim]
        active = [0, 1]
        while active:
            for band in active:
                bands.refine(band)
            vals, _ = bands.values()
            half_budget = 0.5 * (ABS_TOL + REL_TOL * (1.0 + float(np.max(np.abs(vals)))))
            active = [
                band
                for band in active
                if bands.levels[band] < top and float(np.max(bands.drifts[band])) > half_budget
            ]
        vals, errs = bands.values()
    if kind == "rate":
        return vals / t, errs / t
    return vals, errs


def _resolve_workers(workers: int | None) -> int:
    """The thread count: workers when given, else FRACHEAT_THREADS, else 1.

    Refuses anything that is not a positive integer, naming its source.
    """
    if workers is not None:
        if as_integer(workers, "workers") < 1:
            raise ValueError(f"workers must be a positive integer, got {workers!r}")
        return int(workers)
    env = os.environ.get("FRACHEAT_THREADS")
    if env is None:
        return 1
    if not env.strip().isdecimal() or int(env) < 1:
        raise ValueError(f"FRACHEAT_THREADS must be a positive integer, got {env!r}")
    return int(env)


# ---------------------------------------------------------------------------
# public operations


def solve_canonical(
    u0: FunctionSpec,
    grid: GridSpec,
    params: KernelParams,
    workers: int | None = None,
) -> SolutionField:
    """Solution of the order-s heat flow with initial datum u0 on a grid.

    Work is split over grid nodes; each (node, time) entry is written
    exactly once and no entry depends on another, so any thread count
    gives identical output.
    """
    if grid.dim != params.dim or u0.dim != params.dim:
        raise ValueError("datum, grid, and kernel parameters disagree on dimension")
    require_admissible(u0, params.s)
    pts = grid.nodes()
    vals = np.empty((len(grid.times), len(pts)))
    errs = np.zeros_like(vals)
    nworkers = _resolve_workers(workers)
    blocks = [
        slice(lo, min(lo + _NODE_BLOCK, len(pts)))
        for lo in range(0, len(pts), _NODE_BLOCK)
    ]

    def run(ti: int, sl: slice) -> None:
        v, e = _solve_batch(u0, pts[sl], grid.times[ti], params)
        vals[ti, sl] = v
        errs[ti, sl] = e

    jobs = []
    for ti, t in enumerate(grid.times):
        if t == 0.0:
            vals[ti] = u0.value(pts)
        else:
            jobs.extend((ti, sl) for sl in blocks)
    if nworkers <= 1:
        for ti, sl in jobs:
            run(ti, sl)
    else:
        with ThreadPoolExecutor(max_workers=nworkers) as pool:
            list(pool.map(lambda job: run(*job), jobs))
    return SolutionField(grid=grid, values=vals, error_estimates=errs, datum=u0)


def solution_at(
    u0: FunctionSpec, x, t: float, params: KernelParams
) -> tuple[float, float]:
    """Single-point solution value with its error estimate."""
    require_admissible(u0, params.s)
    pt = as_point(x, params.dim)
    if t == 0.0:
        return float(u0.at(pt)), 0.0
    vals, errs = _solve_batch(u0, pt[None, :], t, params)
    return float(vals[0]), float(errs[0])


def time_derivative(u0: FunctionSpec, x, t: float, params: KernelParams) -> float:
    """du/dt at one space-time point, via the kernel's exact t-derivative."""
    value, _ = _time_derivative_impl(u0, x, t, params)
    return value


def _time_derivative_impl(
    u0: FunctionSpec, x, t: float, params: KernelParams
) -> tuple[float, float]:
    require_admissible(u0, params.s)
    pt = as_point(x, params.dim)
    vals, errs = _solve_batch(u0, pt[None, :], t, params, kind="rate")
    return float(vals[0]), float(errs[0])


def pde_residual(u0: FunctionSpec, x, t: float, params: KernelParams) -> float:
    """u_t + (-Lap)^s u at a point of the computed solution.

    The operator term re-evaluates the fractional Laplacian on the
    solution itself: near second differences come from the degree-6
    interpolant of a seven-point stencil (raw differences of quadrature
    values would drown in cancellation noise under the t^(-1-2s) weight),
    the rest from direct convolution values, on averaged half-period panels
    past a few periods for data that oscillate without growth, else out to
    where the datum's uniform second-difference bound, which convolution
    preserves, certifies the far field.
    """
    value, _ = residual_with_estimate(u0, x, t, params)
    return value


def residual_with_estimate(
    u0: FunctionSpec, x, t: float, params: KernelParams
) -> tuple[float, float]:
    """The residual together with its accumulated error estimate.

    Only 1-D is supported.  There the operator term is one batch of every
    stencil and mid-range point (2,023 for cosine:1 at s = 0.6, on
    specfun.half_period_rule's panels past the geometric ones), which the
    convolution works through in blocks of _NODE_BLOCK points, so its
    memory does not grow with the batch.  In 2-D and 3-D every mid-range
    radius needs a whole sphere of points, each a full solve, so those
    dimensions are refused before any work starts.

    The mid-range runs on geometric panels of ratio 1.5 from r_near: for
    oscillatory bounded data to a few half-periods, before the averaged
    half-period panels; for other data to specfun.geometric_tail's cutoff,
    where the datum's uniform second-difference bound, which convolution
    preserves, certifies the far field to 3e-5 (or RADIUS_CAP is reached).
    Under an exact far field the solution stays the datum, whose second
    differences vanish, so the far bound is 0 and the cutoff is 4 r_near.

    The estimate adds the time derivative's estimate, the value noise
    carried through the near interpolant and the mid-range sum, and twice
    the gap between the interpolant's near part and that of the quintic
    least-squares fit to the same stencil (its truncation error).  On the
    half-period route it adds the averaged limit's error and a rounding
    floor on the closed-form 4 (u(x) - mean) term; on the other it adds
    the far-field bound at the cutoff.
    """
    dim, s = params.dim, params.s
    if dim > 1:
        raise ValueError(
            f"the residual is implemented for dim 1 only; in dim {dim} its operator "
            "term needs a full solve at every point of a sphere around x for every "
            "mid-range radius"
        )
    require_admissible(u0, s)
    pt = as_point(x, dim)
    ut, ut_err = _time_derivative_impl(u0, pt, t, params)

    pref = 0.5 * riesz_constant(dim, s)
    r_near = 0.5
    h = r_near / 3.0

    # far-field cutoff from a bound that survives convolution: the
    # second differences of u(., t) obey the datum's own uniform bound.
    # Under an exact far field the solution stays the datum, whose second
    # differences vanish, so there is no far field at all
    target = 3e-5
    a, b, rate = (0.0, 0.0, 2.0) if u0.is_affine else second_difference_constants(u0)
    p = 2.0 * s - 2.0 + rate
    if b > 0.0 and not p > 0.0:
        raise ValueError("declared curvature decay too weak for this order")

    def far_bound(radius: float) -> float:
        out = a * radius ** (-2.0 * s) / (2.0 * s)
        if b > 0.0:
            out += b * radius**-p / p
        return 2.0 * pref * out

    # oscillation without growth: a few half-periods on geometric panels, then
    # averaged half-period panels as in the tail band, leaving no far field
    osc = u0.osc_scale or 0.0
    halves = u0.bounded_oscillation
    width = 4.4 * math.pi / osc if osc > 0.0 else math.inf
    if halves:
        mid_edges = geometric_edges(r_near, r_near + 4.0 * math.pi / osc, 1.5, width)
    else:
        mid_edges = geometric_tail(r_near, 1.5, far_bound, target, width)
    r_far = float(mid_edges[-1])

    # one batch for everything the operator term needs: x, the rest of
    # its stencil, then the pair points x + r and x - r
    taus = h * np.arange(-3, 4)
    mid_rs, mid_ws = map(np.ravel, panel_rule(mid_edges, 16))
    half_rs, half_ws, lead = half_period_rule(r_far, math.pi / osc) if halves else (np.empty(0), None, 0)

    x0 = pt[0]
    pair_rs = np.concatenate([mid_rs, half_rs.ravel()])
    batch = np.concatenate([[x0], x0 + np.delete(taus, 3), x0 + pair_rs, x0 - pair_rs])
    values, value_errs = _solve_batch(u0, batch[:, None], t, params)
    u_here = values[0]
    noise = float(np.max(value_errs[:7]))
    stencil_vals = np.insert(values[1:7], 3, u_here)
    # u(x + r) + u(x - r) and its error at every pair radius
    pairs, pairs_err = (v[7:].reshape(2, -1).sum(axis=0) for v in (values, value_errs))
    m = len(mid_rs)

    def near_part(degree: int) -> float:
        # only the even part of the fit survives in the second difference,
        # and it integrates in closed form against t^(-1-2s)
        coeffs = np.polyfit(taus, stencil_vals, degree)[::-1]
        even = (coeffs[k] * r_near ** (k - 2.0 * s) / (k - 2.0 * s) for k in range(2, degree + 1, 2))
        return -4.0 * float(sum(even))

    # near part from the degree-6 interpolant of the seven values; its
    # truncation error is bounded by twice its gap to the quintic fit
    near = near_part(6)
    fit_gap = 2.0 * abs(near - near_part(5))
    fit_noise = 8.0 * noise * ((r_near / h) ** 2 * r_near ** (-2.0 * s)) / (2.0 - 2.0 * s)

    second = 4.0 * u_here - 2.0 * pairs[:m]
    mid = float(np.dot(second * mid_rs ** (-1.0 - 2.0 * s), mid_ws))
    mid_err = 2.0 * pairs_err[:m] + 4.0 * value_errs[0]
    mid_noise = float(np.dot(mid_err * mid_rs ** (-1.0 - 2.0 * s), np.abs(mid_ws)))
    if halves:
        # past r_far: the 4 (u(x) - mean) term in closed form, the pair
        # terms less their mean by averaging over the half-period panels
        mean, dc = float(u0.far_const(pt[None, :])[0]), 4.0 * r_far ** (-2.0 * s) / (2.0 * s)
        weight = half_rs ** (-1.0 - 2.0 * s) * half_ws
        panels = np.sum((pairs[m:].reshape(weight.shape) - 2.0 * mean) * weight, axis=1)
        rest, rest_err = averaged_limit(np.cumsum(panels)[lead:])
        mid += dc * (u_here - mean) - 2.0 * rest
        rest_noise = np.sum(pairs_err[m:].reshape(weight.shape) * np.abs(weight))
        mid_noise += 2.0 * (rest_err + rest_noise) + dc * (value_errs[0] + 1e-16 * abs(u_here - mean))

    flap = pref * (near + mid)
    estimate = ut_err + pref * (fit_noise + fit_gap + mid_noise) + (0.0 if halves else far_bound(r_far))
    return float(ut + flap), float(estimate)


def envelope_propagate(
    u0: FunctionSpec,
    params: KernelParams,
    times,
) -> EnvelopeTrace:
    """Measured growth amplitude of the solution over sample rings.

    A(t) is the largest excess of |u(x, t)| over coeff * |x|^power on the
    rings of radii _RING_RADII, where power matches the datum's growth and
    coeff carries a factor-four margin over the convolution bound; the
    margin stands in for constants the theory leaves implicit, so the
    trace measures rather than asserts.
    """
    require_admissible(u0, params.s)
    ts = tuple(float(t) for t in times)
    if len(ts) < 3:
        raise ValueError("need at least three times to fit an exponent")
    if any(t <= 0.0 for t in ts):
        raise ValueError("envelope samples need positive times")
    env = u0.envelope
    beta = env.power if env.slope > 0.0 else 0.0
    coeff = (
        4.0 * env.slope * max(1.0, 2.0 ** (beta - 1.0)) if env.slope > 0.0 else 0.0
    )
    dim = params.dim
    pts = []
    for r in _RING_RADII:
        if r == 0.0:
            pts.append(np.zeros(dim))
            continue
        for axis in range(dim):
            for sign in (1.0, -1.0):
                p = np.zeros(dim)
                p[axis] = sign * r
                pts.append(p)
    pts = np.asarray(pts)
    excess = coeff * np.linalg.norm(pts, axis=1) ** beta if coeff > 0.0 else 0.0

    amps = []
    for t in ts:
        vals, _ = _solve_batch(u0, pts, t, params)
        amps.append(float(np.max(np.abs(vals) - excess)))
    slope, _ = np.polyfit(np.log(ts), np.log(np.maximum(amps, 1e-300)), 1)
    return EnvelopeTrace(
        times=ts,
        amplitudes=tuple(amps),
        bound_coefficient=coeff,
        fitted_exponent=float(slope),
    )


def initial_continuity_check(
    u0: FunctionSpec,
    x0,
    params: KernelParams,
) -> VerificationReport:
    """Joint space-time approach to the datum along a shrinking sequence.

    Points x_n = x0 + 2^-n e_1 with times t_n = 4^-n for n up to
    _CONTINUITY_STEPS; the gap to u0(x0) must shrink monotonically and
    land below _CONTINUITY_TOL.
    """
    require_admissible(u0, params.s)
    x0 = as_point(x0, params.dim)
    target = float(u0.at(x0))
    shift = np.zeros(params.dim)
    gaps = []
    for n in range(_CONTINUITY_STEPS + 1):
        shift[0] = 2.0**-n
        val, _ = _solve_batch(u0, (x0 + shift)[None, :], 4.0**-n, params)
        gaps.append(abs(float(val[0]) - target))

    report = VerificationReport(suite="initial-continuity")
    worst = max(
        range(1, len(gaps)), key=lambda k: gaps[k] - gaps[k - 1] * 1.05
    )
    monotone = all(b <= a * 1.05 + 1e-9 for a, b in zip(gaps, gaps[1:]))
    report.add(
        name="monotone-approach",
        measured=gaps[worst] - gaps[worst - 1],
        bound=0.0,
        tolerance=gaps[worst - 1] * 0.05 + 1e-9,
        passed=monotone,
        worst_point=(float(x0[0] + 2.0**-worst), 4.0**-worst),
    )
    report.add(
        name="limit-reached",
        measured=gaps[-1],
        bound=_CONTINUITY_TOL,
        tolerance=0.0,
        passed=gaps[-1] <= _CONTINUITY_TOL,
        worst_point=(float(x0[0] + 2.0**-_CONTINUITY_STEPS), 4.0**-_CONTINUITY_STEPS),
    )
    return report


def classical_lifespan(u0: FunctionSpec) -> float:
    """Guaranteed existence horizon 1/(4B) for the classical flow."""
    if u0.exp_envelope is None:
        raise ValueError(
            f"{u0.label} carries no square-exponential envelope; the classical "
            "solver cannot certify a lifespan"
        )
    _, rate = u0.exp_envelope
    return math.inf if rate == 0.0 else 1.0 / (4.0 * rate)


def solve_classical(u0: FunctionSpec, grid: GridSpec) -> SolutionField:
    """Order-one comparison flow via Gauss-Hermite convolution.

    The rule has _HERMITE_NODES nodes per axis, 32 above 2-D, and a
    coarser rule of half as many plus eight gives the error estimate.
    All requested times must stay under the lifespan 1/(4B) from the
    datum's square-exponential envelope; beyond it the Gaussian integral
    loses meaning and the request is refused.
    """
    if grid.dim != u0.dim:
        raise ValueError("datum and grid disagree on dimension")
    horizon = classical_lifespan(u0)
    for t in grid.times:
        if t >= horizon:
            raise ValueError(
                f"time {t} reaches the maximal existence time T = {horizon}; "
                "the classical solution lives only on [0, T)"
            )
    nodes_per_axis = _HERMITE_NODES if grid.dim <= 2 else 32
    pts = grid.nodes()
    vals = np.empty((len(grid.times), len(pts)))
    errs = np.zeros_like(vals)
    for ti, t in enumerate(grid.times):
        if t == 0.0:
            vals[ti] = u0.value(pts)
            continue
        fine = _hermite_convolve(u0, pts, t, nodes_per_axis)
        coarse = _hermite_convolve(u0, pts, t, nodes_per_axis // 2 + 8)
        vals[ti] = fine
        errs[ti] = np.abs(fine - coarse) + 1e-15 * np.abs(fine)
    return SolutionField(grid=grid, values=vals, error_estimates=errs, datum=u0)


def _hermite_convolve(
    u0: FunctionSpec, pts: np.ndarray, t: float, n: int
) -> np.ndarray:
    dim = pts.shape[1]
    z, w = hermgauss(n)
    axes = np.meshgrid(*([z] * dim), indexing="ij")
    zs = np.stack([a.ravel() for a in axes], axis=1)
    ws = np.prod(
        np.stack(np.meshgrid(*([w] * dim), indexing="ij"), axis=0), axis=0
    ).ravel()
    out = np.empty(len(pts))
    block = max(1, _CHUNK // max(1, len(zs)))
    shift = 2.0 * math.sqrt(t)
    for lo in range(0, len(pts), block):
        sub = pts[lo : lo + block]
        cloud = sub[:, None, :] - shift * zs[None, :, :]
        vals = u0.value(cloud.reshape(-1, dim)).reshape(len(sub), -1)
        out[lo : lo + block] = vals @ ws
    return out * math.pi ** (-0.5 * dim)
