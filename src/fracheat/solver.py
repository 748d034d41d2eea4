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
of the pointwise operator, with its route, cutoff and closed form.  The
1-D residual (residual_with_estimate) ends its operator term in one too,
over solve values and the solution's growth envelope.  An exact far
field (affine data) has the datum itself as its solution at every time,
with no quadrature.

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
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .families import FarBand, FunctionSpec, as_integer, as_point, require_admissible
from .fraclap import riesz_constant
from .kernel import BODY_EDGES, TAIL_CUT, KernelParams, profile_table, tail_coefficients
from .report import VerificationReport
from .specfun import ABS_TOL, REL_TOL, nested_pair_sums, panel_rule, shared_cache, sphere_rule, split_panels

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
# Gauss-Hermite nodes per axis of solve_classical up to 2-D (32 above)
_HERMITE_NODES = 80
# initial_continuity_check's refinement steps and the final gap it allows;
# the gap allows for the spatial term |grad u0| * 2^-steps, which dominates
# it for any datum with a nonzero gradient
_CONTINUITY_STEPS = 10
_CONTINUITY_TOL = 5e-3
# the residual's certified far leftover, in the operator's units
_RESIDUAL_FAR = 3e-6


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
        edges = split_panels(BODY_EDGES, cap, f"the body band of {u0.label} at t = {t:g}")
        rs, ws = map(np.ravel, panel_rule(edges, 24))
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
    """u_t + (-Lap)^s u at a point of the computed solution: the value of
    residual_with_estimate, without its estimate."""
    return residual_with_estimate(u0, x, t, params)[0]


def _solution(u0: FunctionSpec, t: float, params: KernelParams) -> FunctionSpec:
    """u0 with the growth envelope and far field of its solution u(., t).

    The envelope is the datum's flowed to t (GrowthEnvelope.flowed).  An
    exact far field stays, since the flow leaves such a datum where it is;
    every other one is dropped: a Gaussian's declared remainder does not
    hold for its solution, whose tails are polynomial.  Only what FarBand
    reads of the solution changes; value is still the datum's.
    """
    env = u0.envelope.flowed(params.dim, params.s, t)
    return replace(u0, envelope=env, far_field=u0.far_field if u0.is_affine else None)


def residual_with_estimate(
    u0: FunctionSpec, x, t: float, params: KernelParams
) -> tuple[float, float]:
    """The residual together with its accumulated error estimate.

    Only 1-D is supported: in 2-D and 3-D every far radius needs a whole
    sphere of points, each a full solve, so those dimensions are refused
    before any work starts, as are data with a corner other than the
    straight line, where the solve estimates do not bound their error.

    The operator term has the shape of fraclap.frac_laplacian, with split
    radius r_near = 1/2 and the pair sums 2 (u(x + r) + u(x - r)) for the
    sphere sums: the near part from the degree-6 interpolant of a
    seven-point stencil, whose even part integrates in closed form (raw
    differences of solve values would drown in cancellation noise); past
    r_near the 4 u(x) term in closed form, less the band's, and a
    families.FarBand of weight r^(-1-2s), area 4 and target _RESIDUAL_FAR
    over the solution's envelope (_solution).  An exact far field lays no
    far panels, so the batch is the stencil alone.  Every value comes
    from one _solve_batch call, in blocks of _NODE_BLOCK points.

    The estimate adds the time derivative's, the value noise carried
    through the interpolant, twice the gap between its near part and the
    quintic least-squares fit's (its truncation error), the band's, each
    pair sum's estimate against |weight| (FarBand.weights), and u(x)'s
    estimate and a rounding floor on the closed-form term.
    """
    dim, s = params.dim, params.s
    if dim > 1:
        raise ValueError(f"the residual is implemented for dim 1 only; in dim {dim} its operator term needs "
                         "a full solve at every point of a sphere around x for every far radius")
    require_admissible(u0, s)
    if u0.kink_points and not u0.is_affine:
        raise ValueError(f"the residual of {u0.label} is refused: its corner at x = {u0.kink_points[0]:g} falls "
                         "between the solver's radial panels, whose estimates there do not bound the error")
    pt = as_point(x, dim)
    ut, ut_err = _time_derivative_impl(u0, pt, t, params)

    pref = 0.5 * riesz_constant(dim, s)
    r_near = 0.5
    h = r_near / 3.0
    band = FarBand(_solution(u0, t, params), pt[None, :], s, r_near, 1.0, lambda r: r ** (-1.0 - 2.0 * s), (1.0,),
                   pref, 0.0, 4.0, _RESIDUAL_FAR, (16,))

    # one batch for everything the operator term needs: the stencil about
    # x, then the pair points x + r and x - r
    taus = h * np.arange(-3, 4)
    batch = np.concatenate([pt[0] + taus, pt[0] + band.rhos, pt[0] - band.rhos])
    values, value_errs = _solve_batch(u0, batch[:, None], t, params)
    stencil, u_here, noise = values[:7], values[3], float(np.max(value_errs[:7]))
    sums, sums_err = (2.0 * v[7:].reshape(2, -1).sum(axis=0) for v in (values, value_errs))

    def near_part(degree: int) -> float:
        # only the even part of the fit survives in the second difference,
        # and it integrates in closed form against t^(-1-2s)
        coeffs = np.polyfit(taus, stencil, degree)[::-1]
        even = (coeffs[k] * r_near ** (k - 2.0 * s) / (k - 2.0 * s) for k in range(2, degree + 1, 2))
        return -4.0 * float(sum(even))

    # near part from the degree-6 interpolant of the seven values; its
    # truncation error is bounded by twice its gap to the quintic fit
    near = near_part(6)
    fit_gap = 2.0 * abs(near - near_part(5))
    fit_noise = 8.0 * noise * ((r_near / h) ** 2 * r_near ** (-2.0 * s)) / (2.0 - 2.0 * s)

    far, far_err = band.reduce(sums[None, :], slice(None))
    # the 4 u(x) term past r_near against t^(-1-2s), less the band's closed form
    u_weight = pref * 4.0 * r_near ** (-2.0 * s) / (2.0 * s)
    dc = u_weight * u_here - float(band.closed[0])
    flap = pref * near + dc - float(far[0])
    estimate = (
        ut_err + pref * (fit_noise + fit_gap) + float(far_err[0]) + pref * float(sums_err @ np.abs(band.weights))
        + u_weight * value_errs[3] + 1e-16 * abs(dc)
    )
    return float(ut + flap), float(estimate)


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
