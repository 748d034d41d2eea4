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

Tail handling beyond the tabulated range follows the same three routes
as the pointwise operator: an analytic mean part from the profile's
power series, averaged half-period panels for oscillatory data, and
geometric panels out to an envelope-certified cutoff for everything
else.  What the datum declares about itself (mean, oscillation scale,
growth envelope) decides the route.

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

from .families import FunctionSpec, as_point, require_admissible
from .fraclap import riesz_constant, second_difference_constants
from .kernel import TAIL_CUT, KernelParams, profile_table, tail_coefficients, tail_integral
from .report import VerificationReport
from .specfun import ABS_TOL, REL_TOL, averaged_limit, nested_pair_sums, panel_rule, shared_cache, sphere_rule

_TWO_PI = 2.0 * math.pi
_OSC_PANELS = 88
_RADIUS_CAP = 1e35
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
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError("dim must be a positive integer")
        object.__setattr__(self, "box", tuple((float(a), float(b)) for a, b in self.box))
        object.__setattr__(self, "counts", tuple(int(c) for c in self.counts))
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


def _cap_widths(edges: np.ndarray, cap: float) -> np.ndarray:
    if not math.isfinite(cap):
        return edges
    out = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        k = max(1, int(math.ceil((b - a) / cap)))
        out.extend(a + (b - a) * (np.arange(1, k + 1) / k))
    return np.asarray(out)


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


def _abs_tail(dim: int, s: float, kind: str, radius: float, shift: float = 0.0) -> float:
    """Upper bound on the leftover integral weight beyond a radius."""
    pref = _TWO_PI ** (-0.5 * dim)
    total = 0.0
    for k, c in enumerate(_series(dim, s, kind), start=1):
        if 2.0 * s * k > shift and c != 0.0:
            total += abs(c) * radius ** (shift - 2.0 * s * k) / (2.0 * s * k - shift)
    return pref * total


class _RadialBands:
    """Scaled radial integral pref * int factor(r) P(x, t^(1/2s) r) dr.

    The radial line splits at TAIL_CUT into a body band, tabulated profile
    panels, and a tail band, whose route the datum's declarations pick.
    Past TAIL_CUT the tail band still reads the table's interpolant, out
    to the table's last node (125-212 for s = 0.3), and the series only
    beyond it.  Both bands start at the given angular level and sweep the
    points in blocks of _NODE_BLOCK, keeping for each block what
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
        env = u0.envelope
        mean = u0.tail_mean

        osc = (u0.osc_scale or 0.0) * tsc
        cap = 2.2 * math.pi / osc if osc > 0.0 else math.inf
        edges = np.concatenate([np.linspace(0.0, 2.0, 17), np.geomspace(2.25, TAIL_CUT, 33)])
        rs, ws = map(np.ravel, panel_rule(_cap_widths(edges, cap), 24))
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
        mean_tail = pref * tail_integral(_series(dim, s, kind), s, TAIL_CUT)
        self._const = area * mean * mean_tail if mean != 0.0 else 0.0

        if env.slope == 0.0 and osc > 0.0 and math.pi / osc <= 0.5 * TAIL_CUT:
            # oscillation fast on the profile scale: half-period panels keep
            # the envelope slowly varying per panel, then sequence averaging
            h = math.pi / osc
            edges_t = TAIL_CUT + h * np.arange(_OSC_PANELS + 1)
            rs_t, ws_t = map(np.ravel, panel_rule(edges_t, 12))
            fac_t = factor(rs_t) * ws_t

            def tail(surf: np.ndarray, sl: slice) -> tuple[np.ndarray, np.ndarray]:
                chunks = ((surf - area * mean) * fac_t).reshape(len(surf), _OSC_PANELS, 12)
                tail_vals, tail_errs = averaged_limit(np.cumsum(chunks.sum(axis=2), axis=1))
                return pref * tail_vals, pref * tail_errs

        else:
            if env.slope > 0.0:
                # growth certified by the envelope; push the cutoff until the
                # analytic leftover drops under target, then integrate to it.
                # Points share the panels but keep their own leftover bounds,
                # so a batch mixing near and far points stays honest everywhere.
                beta = env.power
                bump = max(1.0, 2.0 ** (beta - 1.0))
                xnorm = np.linalg.norm(pts, axis=1)
                c0_vec = area * (env.amplitude + env.slope * bump * xnorm**beta + abs(mean))
                c0 = float(np.max(c0_vec))
                c1 = area * env.slope * bump * tsc**beta
                radius = 4.0 * TAIL_CUT
                while radius < _RADIUS_CAP:
                    left = c0 * _abs_tail(dim, s, kind, radius) + c1 * _abs_tail(
                        dim, s, kind, radius, beta
                    )
                    if left <= target:
                        break
                    radius *= 4.0
                left = c0_vec * _abs_tail(dim, s, kind, radius) + c1 * _abs_tail(
                    dim, s, kind, radius, beta
                )
                ratio = 1.7
            else:
                # slow or absent oscillation: geometric panels, widths still
                # capped so any residual oscillation stays resolved
                c_rest = area * (env.amplitude + abs(mean))
                radius = 4.0 * TAIL_CUT
                while radius < _RADIUS_CAP and c_rest * _abs_tail(dim, s, kind, radius) > target:
                    radius *= 4.0
                left = np.full(len(pts), c_rest * _abs_tail(dim, s, kind, radius))
                ratio = 1.4
            n = max(4, int(math.ceil(math.log(radius / TAIL_CUT) / math.log(ratio))))
            edges_t = _cap_widths(np.geomspace(TAIL_CUT, radius, n + 1), cap)
            rs_t, ws_t = map(np.ravel, panel_rule(edges_t, 16))
            fac_t = factor(rs_t) * ws_t

            def tail(surf: np.ndarray, sl: slice) -> tuple[np.ndarray, np.ndarray]:
                rest = surf - area * mean
                errs = _TABLE_REL * amp * pref * np.abs(rest) @ np.abs(fac_t)
                return pref * rest @ fac_t, left[sl] + errs

        self._rhos.append(tsc * rs_t)
        self._reduce.append(tail)
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
        if self._const != 0.0:
            body_v = body_v + self._const
        errs = body_e + tail_e + self.drifts[0] + self.drifts[1]
        return body_v + tail_v, errs


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
        if workers < 1:
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
    if t <= 0.0:
        raise ValueError("the time derivative needs t > 0")
    require_admissible(u0, params.s)
    pt = as_point(x, params.dim)
    vals, errs = _solve_batch(u0, pt[None, :], t, params, kind="rate")
    return float(vals[0]), float(errs[0])


def pde_residual(u0: FunctionSpec, x, t: float, params: KernelParams) -> float:
    """u_t + (-Lap)^s u at a point of the computed solution.

    The operator term re-evaluates the fractional Laplacian on the
    solution itself: near second differences come from a quintic fit on
    a seven-point stencil (raw differences of quadrature values would
    drown in cancellation noise under the t^(-1-2s) weight), mid-range
    differences from direct convolution values, and the far field from
    the datum's uniform second-difference bound, which convolution
    preserves.
    """
    value, _ = residual_with_estimate(u0, x, t, params)
    return value


def residual_with_estimate(
    u0: FunctionSpec, x, t: float, params: KernelParams
) -> tuple[float, float]:
    """The residual together with its accumulated error estimate.

    Only 1-D is supported.  There the operator term is one batch of every
    stencil and mid-range point (19,495 for cosine:1 at s = 0.6), which
    the convolution works through in blocks of _NODE_BLOCK points, so its
    memory does not grow with the batch.  In 2-D and 3-D that batch has
    7.4e6 points (cosine:1) and 1.0e6 points (gaussian:1), both at
    s = 0.6, and its sphere sums need over 1e12 datum evaluations at the
    starting angular level, so those dimensions are refused before any
    work starts.

    The estimate adds the time derivative's estimate, the value noise
    carried through the near fit and the mid-range sum, twice the gap
    between the quintic fit's near part and that of the degree-6
    interpolant of the same stencil (the fit's truncation error), and
    the far-field bound.
    """
    if t <= 0.0:
        raise ValueError("the residual needs t > 0")
    dim, s = params.dim, params.s
    if dim > 1:
        raise ValueError(
            f"the residual is implemented for dim 1 only; in dim {dim} its operator "
            "term needs one solve of millions of stencil and mid-range points, "
            "over 1e12 datum evaluations"
        )
    require_admissible(u0, s)
    pt = as_point(x, dim)
    ut, ut_err = _time_derivative_impl(u0, pt, t, params)

    pref = 0.5 * riesz_constant(dim, s)
    r_near = 0.5
    h = r_near / 3.0

    # far-field cutoff from a bound that survives convolution: the
    # second differences of u(., t) obey the datum's own uniform bound
    target = 3e-5
    a, b, rate = second_difference_constants(u0)
    p = 2.0 * s - 2.0 + rate
    if b > 0.0 and not p > 0.0:
        raise ValueError("declared curvature decay too weak for this order")

    def far_bound(radius: float) -> float:
        out = a * radius ** (-2.0 * s) / (2.0 * s)
        if b > 0.0:
            out += b * radius**-p / p
        return 2.0 * pref * out

    r_far = 4.0
    while r_far < 1e30 and far_bound(r_far) > target:
        r_far *= 2.0

    # one batch for everything the operator term needs: x, the rest of
    # its stencil, then the mid-range pair points x + r and x - r
    taus = h * np.arange(-3, 4)
    osc = u0.osc_scale or 0.0
    cap = 4.4 * math.pi / osc if osc > 0.0 else math.inf
    n = max(4, int(math.ceil(math.log(r_far / r_near) / math.log(1.5))))
    mid_edges = _cap_widths(np.geomspace(r_near, r_far, n + 1), cap)
    mid_rs, mid_ws = map(np.ravel, panel_rule(mid_edges, 16))

    x0 = pt[0]
    batch = np.concatenate([[x0], x0 + np.delete(taus, 3), x0 + mid_rs, x0 - mid_rs])
    values, value_errs = _solve_batch(u0, batch[:, None], t, params)
    u_here = values[0]
    noise = float(np.max(value_errs[:7]))
    stencil_vals = np.insert(values[1:7], 3, u_here)
    plus, minus = np.split(values[7:], 2)
    plus_err, minus_err = np.split(value_errs[7:], 2)
    pair_mid = 2.0 * (plus + minus)
    pair_mid_err = 2.0 * (plus_err + minus_err) + 4.0 * value_errs[0]

    def near_part(degree: int) -> float:
        # only the even part of the fit survives in the second difference,
        # and it integrates in closed form against t^(-1-2s)
        coeffs = np.polyfit(taus, stencil_vals, degree)[::-1]
        even = (coeffs[k] * r_near ** (k - 2.0 * s) / (k - 2.0 * s) for k in range(2, degree + 1, 2))
        return -4.0 * float(sum(even))

    # near part from a quintic fit; its truncation error is bounded by
    # twice its gap to the degree-6 interpolant of the same seven values
    near = near_part(5)
    fit_gap = 2.0 * abs(near - near_part(6))
    fit_noise = 8.0 * noise * ((r_near / h) ** 2 * r_near ** (-2.0 * s)) / (2.0 - 2.0 * s)

    second = 4.0 * u_here - pair_mid
    mid = float(np.dot(second * mid_rs ** (-1.0 - 2.0 * s), mid_ws))
    mid_noise = float(np.dot(pair_mid_err * mid_rs ** (-1.0 - 2.0 * s), np.abs(mid_ws)))

    flap = pref * (near + mid)
    estimate = ut_err + pref * (fit_noise + fit_gap + mid_noise) + far_bound(r_far)
    return ut + flap, estimate


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
