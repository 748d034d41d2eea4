"""Special functions, shared quadrature rules, and semi-infinite quadrature.

Primitives shared by the kernel, operator and solver layers: Euler Gamma;
the quadrature rules every radial integral here is built from (a cached
Gauss-Legendre rule, its per-panel copy over an edge array, the one
geometric panel layout out to an envelope-certified cutoff, the one
half-period rule of alternating tails, pairwise averaging of partial sums,
half-sphere direction rules, and the sums of point pairs x +- rho d over
such a rule); SphereSweep, the one angular refinement of the operator and
the solver, which refines each band of radii from the one start level to
the one cap; and an integrator for semi-infinite integrands whose decay is
controlled by an envelope rho^p * exp(-rho^d).  Each caller keeps its own
reduction of the panel values.

Every half-line integral has one routine, half_line_sums, a batch of
half-period Gauss panel sums checked against a 12-point rule:
integrate_semi_infinite is its one-row case and the kernel's profile the
batched one.  ABS_TOL and REL_TOL are the one accuracy target of every
quadrature in the package.  shared_cache is the lru_cache the kernel and
solver tables are kept in.

All functions here are safe to call from multiple threads, and all but
shared_cache are pure.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import Callable

import numpy as np
from scipy import special as _sps

__all__ = [
    "ABS_TOL",
    "REL_TOL",
    "QuadratureConfig",
    "IntegralResult",
    "QuadratureError",
    "gamma",
    "gauss_legendre",
    "panel_rule",
    "RADIUS_CAP",
    "split_panels",
    "row_block",
    "geometric_tail",
    "half_period_rule",
    "averaged_limit",
    "tail_integral",
    "sphere_rule",
    "pair_sums",
    "SphereSweep",
    "shared_cache",
    "integrate_semi_infinite",
]


# the one accuracy policy of the package: a quadrature result is acceptable
# when its error estimate is below max(ABS_TOL, REL_TOL * |value|)
ABS_TOL = 1e-10
REL_TOL = 1e-8
# a half-line integral is truncated where its decay envelope falls below
# TAIL_CUT_EPSILON * abs_tol; the radius found this way is then doubled
TAIL_CUT_EPSILON = 1e-2


@dataclass(frozen=True)
class QuadratureConfig:
    """Target accuracy of one integrate_semi_infinite call.

    A result is acceptable when its error estimate is below
    max(abs_tol, rel_tol * |value|).  The defaults are the package's one
    policy, ABS_TOL and REL_TOL.  abs_tol also sets where the half line is
    truncated: where the decay envelope falls below TAIL_CUT_EPSILON *
    abs_tol.  The panel layout and Gauss orders are fixed.
    """

    abs_tol: float = ABS_TOL
    rel_tol: float = REL_TOL

    def __post_init__(self) -> None:
        # the truncation threshold is TAIL_CUT_EPSILON * abs_tol, so a zero
        # abs_tol would push the radius to infinity
        if not 0.0 < self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be finite and positive, got {self.abs_tol}")
        if not 0.0 <= self.rel_tol < math.inf:
            raise ValueError(f"rel_tol must be finite and nonnegative, got {self.rel_tol}")


@dataclass(frozen=True)
class IntegralResult:
    """Value of a quadrature together with its accounting."""

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if not self.error_estimate >= 0:
            raise ValueError(f"error_estimate must be non-negative, got {self.error_estimate}")


class QuadratureError(RuntimeError):
    """Raised when a quadrature's error estimate misses its tolerance.

    Carries the result obtained, with that estimate, in ``best``.
    """

    def __init__(self, message: str, best: IntegralResult):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# Gamma

def gamma(x: float) -> float:
    """Euler Gamma for real x, rejecting the poles at 0, -1, -2, ...

    Delegates to the C library implementation, which is good to a couple of
    ulp on the range used here.
    """
    if x <= 0.0 and x == math.floor(x):
        raise ValueError(f"gamma pole at x={x}")
    return math.gamma(x)


# ---------------------------------------------------------------------------
# Shared quadrature rules

_AVERAGING_ROUNDS = 10
# the farthest cutoff geometric_tail lays panels to: growth near the
# integrability edge 2s certifies its leftover only very far out
RADIUS_CAP = 1e40
OSC_ORDER = 12
OSC_PANELS = 72
# datum evaluations per chunk of pair_sums: 2^16 points keep a 3-D cloud
# (1.5 MiB) and value()'s temporaries in one core's 2 MiB L2.  A pure speed
# constant: pair_sums gives the same bits for every chunk size.
_PAIR_CHUNK = 1 << 16


@lru_cache(maxsize=32)
def gauss_legendre(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], cached per order.

    The arrays are shared between callers and must not be modified.
    """
    return np.polynomial.legendre.leggauss(order)


def panel_rule(edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on every interval of an edge array.

    Both arrays have shape (panels, order), one row per interval; the rule
    is exact for polynomials of degree 2 * order - 1 on each interval.
    """
    x, w = gauss_legendre(order)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    return mid[:, None] + half[:, None] * x[None, :], half[:, None] * w[None, :]


def split_panels(edges: np.ndarray, width: float, label: str) -> np.ndarray:
    """The edges with every panel wider than width cut into equal parts.

    Each original edge is kept exactly; an infinite width changes nothing.
    The parts are counted from the edges first, and a split into more than
    _PANEL_ENTRIES / 32 panels, whose rule of up to 32 nodes a panel could
    pass _PANEL_ENTRIES entries, is refused with ValueError, naming label,
    before any array is made.
    """
    if not math.isfinite(width):
        return edges
    with np.errstate(divide="ignore", over="ignore"):
        count = float(np.sum(np.ceil(np.diff(edges) / width)))
    if count > _PANEL_ENTRIES // 32:
        raise ValueError(f"{label} needs {count:.3g} panels of width {width:.3g}, over the cap of {_PANEL_ENTRIES // 32}")
    out = [edges[0]]
    for a, b in zip(edges[:-1], edges[1:]):
        k = max(1, int(math.ceil((b - a) / width)))
        out.extend(a + (b - a) * (np.arange(1, k) / k))
        out.append(b)
    return np.asarray(out)


def row_block(rows: int, columns: int) -> int:
    """rows halved until rows x columns entries stay within _PANEL_ENTRIES, or 1; a power of two stays one."""
    while rows > 1 and rows * columns > _PANEL_ENTRIES:
        rows //= 2
    return rows


def _geomspace(start: float, stop: float, num: int) -> np.ndarray:
    """np.geomspace(start, stop, num) for positive start and stop, bit for bit.

    The same steps as numpy's own (log10 of the ends, a linspace between
    them, a power of 10, the ends put back), without np.geomspace's
    argument handling, which took most of a half_period_rule call.
    """
    if num == 1:
        return np.array([float(start)])
    lo, hi = np.log10(np.float64(start)), np.log10(np.float64(stop))
    y = np.arange(num, dtype=float)
    y *= (hi - lo) / (num - 1)
    y += lo
    y[-1] = hi
    out = np.power(10.0, y)
    out[0], out[-1] = start, stop
    return out


def geometric_tail(
    start: float,
    ratio: float,
    leftover: Callable[[float], float],
    target: float,
    width: float,
    label: str,
) -> np.ndarray:
    """Panel edges from start out to an envelope-certified cutoff.

    The cutoff is the first of 4 start, 16 start, ... at which the
    caller's bound leftover(radius) on the integral beyond it is at most
    target, or RADIUS_CAP when no radius under the cap gets there.  The
    panels are the fewest geometric ones, at least four, whose end-to-start
    ratio stays at or under ratio, cut by split_panels to width (which
    names label when it refuses); the last edge is the cutoff, where the
    caller evaluates its leftover.
    """
    radius = 4.0 * start
    while radius < RADIUS_CAP and leftover(radius) > target:
        radius = min(4.0 * radius, RADIUS_CAP)
    n = max(4, int(math.ceil(math.log(radius / start) / math.log(ratio))))
    return split_panels(_geomspace(start, radius, n + 1), width, label)


@lru_cache(maxsize=64)
def half_period_rule(start: float, half: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Panel rule of an alternating tail from start, and its lead-in row count.

    Panels of ratio at most 1.4, on which a steep envelope varies slowly,
    lead in to max(start, 2 half); OSC_PANELS half-period panels follow.
    Each panel is a row of OSC_ORDER nodes, as in panel_rule, and
    averaged_limit takes the partial row sums from row lead on.  Cached
    per (start, half): the arrays are shared and must not be modified.
    """
    stop = max(start, 2.0 * half)
    lead = math.ceil(math.log(stop / start) / math.log(1.4))
    edges = np.append(_geomspace(start, stop, lead + 1)[:-1], stop + half * np.arange(OSC_PANELS + 1))
    return (*panel_rule(edges, OSC_ORDER), lead)


def averaged_limit(partials: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Limit of partial sums along the last axis, by repeated pairwise averaging.

    For alternating panel series each round knocks out one order of the
    oscillatory remainder.  Runs ten rounds, fewer when the sequence is
    too short to keep two entries, and returns the last entry together
    with its distance to the one before as the error estimate.  Needs at
    least two partial sums.
    """
    a = np.asarray(partials, dtype=float)
    for _ in range(min(_AVERAGING_ROUNDS, a.shape[-1] - 2)):
        a = 0.5 * (a[..., 1:] + a[..., :-1])
    return a[..., -1], np.abs(a[..., -1] - a[..., -2])


@lru_cache(maxsize=32)
def sphere_rule(dim: int, level: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-sphere directions in dimension dim <= 3 with doubled weights.

    Second differences are even in the direction, so the half rule
    integrates the full sphere: the weights sum to the sphere's area.
    Each refinement level doubles the angular resolution.  The arrays are
    shared between callers and must not be modified.

    In 2-D the rule is the periodic trapezoid rule at angles j * pi / m,
    which nests: the directions of level L are the even-indexed
    directions of level L + 1, each with twice the weight, so the sums
    of level L + 1 are half those of level L plus the sums over its
    odd-indexed directions.  SphereSweep is the one place that builds
    them so.  The 3-D product rule (Gauss-Legendre in the polar cosine,
    midpoint in the azimuth) does not nest.
    """
    if dim == 1:
        return np.array([[1.0]]), np.array([2.0])
    if dim == 2:
        m = 24 << level
        th = np.arange(m) * math.pi / m
        dirs = np.stack([np.cos(th), np.sin(th)], axis=1)
        return dirs, np.full(m, 2.0 * math.pi / m)
    if dim == 3:
        p, m = 6 << level, 12 << level
        nodes, wts = gauss_legendre(p)
        mu = 0.5 * (nodes + 1.0)
        wmu = 0.5 * wts
        th = (np.arange(m) + 0.5) * (2.0 * math.pi / m)
        st = np.sqrt(1.0 - mu * mu)
        dirs = np.stack(
            [
                (st[:, None] * np.cos(th)[None, :]).ravel(),
                (st[:, None] * np.sin(th)[None, :]).ravel(),
                np.broadcast_to(mu[:, None], (p, m)).ravel(),
            ],
            axis=1,
        )
        w = np.broadcast_to(
            (2.0 * 2.0 * math.pi / m) * wmu[:, None], (p, m)
        ).ravel()
        return dirs, w.copy()
    raise ValueError("sphere rules are implemented for dim <= 3")


def pair_sums(
    value: Callable[[np.ndarray], np.ndarray],
    pts: np.ndarray,
    rhos: np.ndarray,
    dirs: np.ndarray,
    dwts: np.ndarray,
    magnitudes: bool = False,
) -> np.ndarray:
    """Weighted sums of value(x + rho d) + value(x - rho d) over a direction rule.

    One row per point x of the (count, dim) array pts, one column per
    radius rho.  The datum is evaluated in chunks of radii holding about
    _PAIR_CHUNK points each, few enough that the cloud stays in a core's L2
    cache.  Each (point, radius) sum is its own contraction over the
    directions, so no sum depends on where the chunk edges fall, and the
    result is the same bit for bit for every chunk size.

    Each chunk's cloud is one (dim, count, radii, 2 * dirs) array: the
    x + rho d points take the first half of the last axis and the
    x - rho d points the second.  It is filled one coordinate at a time by
    one contiguous add of the points' coordinate and the chunk's
    (radii, 2 * dirs) signed steps rho [d, -d]; x + (-rho d) is x - rho d
    bit for bit.  A single point (count 1) skips the steps, which would be
    as large as its cloud, and writes the two outer sums x +- rho d
    straight into the cloud's halves.  The datum receives the
    cloud as the (points, dim) view cloud.reshape(dim, -1).T, which is not
    C-contiguous: each coordinate is a contiguous column.  One buffer of
    about _PAIR_CHUNK * dim floats, and for several points one of the
    signed steps, are allocated per call and reused by every chunk, so
    concurrent calls share nothing; value() must not write into its
    argument.

    Over several directions each row is reduced by an einsum.  With one
    direction (1-D) each pair is reduced as v+ w + v- w, the order of that
    einsum's two-term sum, and then + 0.0, which turns a -0.0 sum into the
    einsum's +0.0 and moves no other bit.

    With magnitudes, each row goes on with the same sums of |value| at the
    same radii, from the same evaluations (the weights are non-negative),
    so the result has 2 rhos.size columns.
    """
    count, dim = pts.shape
    nd, r = len(dirs), rhos.size
    out = np.empty((count, 2 * r if magnitudes else r))
    block = max(1, _PAIR_CHUNK // (2 * nd * count))
    width = min(block, rhos.size)
    buf = np.empty(dim * count * width * 2 * nd)
    steps = np.empty((width, 2 * nd)) if count > 1 else None
    w2 = np.concatenate([dwts, dwts]) if nd > 1 else None
    for lo in range(0, rhos.size, block):
        sub = rhos[lo : lo + block]
        cloud = buf[: dim * count * sub.size * 2 * nd].reshape(dim, count, sub.size, 2 * nd)
        for k in range(dim):
            if count == 1:
                step = sub[:, None] * dirs[:, k]
                np.add(pts[0, k], step, out=cloud[k, 0, :, :nd])
                np.subtract(pts[0, k], step, out=cloud[k, 0, :, nd:])
            else:
                step = steps[: sub.size]
                np.multiply(sub[:, None], dirs[:, k], out=step[:, :nd])
                np.negative(step[:, :nd], out=step[:, nd:])
                np.add(pts[:, k, None, None], step, out=cloud[k])
        vals = value(cloud.reshape(dim, -1).T).reshape(count, sub.size, -1)
        parts = [(lo, vals), (r + lo, np.abs(vals))] if magnitudes else [(lo, vals)]
        for at, v in parts:
            if nd > 1:
                out[:, at : at + sub.size] = np.einsum("ijk,k->ij", v, w2)
            else:
                scaled = v * dwts[0]
                sums = out[:, at : at + sub.size]
                np.add(scaled[..., 0], scaled[..., 1], out=sums)
                sums += 0.0
    return out


# the angular level every sweep starts at and the level it refines to at
# most, by dimension; 1-D has its one direction and never refines
_START_ANGULAR = {1: 0, 2: 2, 3: 1}
_MAX_ANGULAR = {1: 0, 2: 6, 3: 3}


class SphereSweep:
    """Sphere integrals of bands of radii about a batch of points, refined level by level.

    The one angular refinement of the operator and the solver.  pts is a
    (count, dim) array.  A band is a value function, its radii and
    reduce(sums, sl), which turns the sphere integrals sum (w/2) (value(x +
    rho d) + value(x - rho d)) over sphere_rule(dim, level) of the points
    pts[sl], one row per point and one column per radius, into the band's
    values and estimates for those points.  add sweeps a band at the start
    level _START_ANGULAR[dim], working through the points in blocks of
    block points, halved by row_block while a block's sums would pass the
    entry cap; each block's sums are reduced before the next block's are
    formed, so the points x radii sums never exist for the whole batch.
    refine then takes every band up a level at a time, until its drift (the
    largest change of its values at its last step) is at most half the
    budget ABS_TOL + REL_TOL (1 + max |value|) of the batch's total values,
    or it reaches _MAX_ANGULAR[dim].

    Where the rule nests (2-D) a band keeps each block's sums, and the next
    level's are half of them plus the sums over the new, odd-indexed
    directions, so each direction is evaluated once over all levels; the
    halving is exact, so it commutes with every rounding.  The 3-D product
    rule does not nest and is evaluated whole at every level, and 1-D never
    refines, so neither keeps anything.
    """

    def __init__(self, pts: np.ndarray, block: int) -> None:
        self._pts, self._block = pts, block
        self._dim = pts.shape[1]
        self._start = _START_ANGULAR.get(self._dim, 0)
        # the sphere's area as the start rule sums it; refuses dim > 3
        self.area = float(sphere_rule(self._dim, self._start)[1].sum())
        self._bands: list[tuple[Callable, Callable, bool]] = []
        self._kept: list[dict] = []
        self.radii: list[np.ndarray] = []
        self.levels: list[int] = []
        self.parts: list[tuple[np.ndarray, np.ndarray]] = []
        self._drifts: list = []

    def add(
        self,
        value: Callable[[np.ndarray], np.ndarray],
        rhos: np.ndarray,
        reduce: Callable[[np.ndarray, slice], tuple[np.ndarray, np.ndarray]],
        magnitudes: bool = False,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Sweep a new band at the start level; returns its values and estimates.

        With magnitudes, reduce's sums go on with those of |value| (pair_sums).
        """
        self._bands.append((value, reduce, magnitudes))
        self._kept.append({})
        self.radii.append(rhos)
        self.levels.append(self._start)
        self._drifts.append(0.0)
        self.parts.append(self._sweep(len(self._bands) - 1))
        return self.parts[-1]

    def _sweep(self, band: int) -> tuple[np.ndarray, np.ndarray]:
        value, reduce, magnitudes = self._bands[band]
        rhos, kept = self.radii[band], self._kept[band]
        dirs, dwts = sphere_rule(self._dim, self.levels[band])
        half = 0.5 * dwts
        nests = self._dim == 2
        block = row_block(self._block, 2 * rhos.size if magnitudes else rhos.size)
        vals, errs = [], []
        for lo in range(0, len(self._pts), block):
            sl = slice(lo, lo + block)
            if lo in kept:
                sums = 0.5 * kept[lo] + pair_sums(value, self._pts[sl], rhos, dirs[1::2], half[1::2], magnitudes)
            else:
                sums = pair_sums(value, self._pts[sl], rhos, dirs, half, magnitudes)
            if nests:
                kept[lo] = sums
            v, e = reduce(sums, sl)
            vals.append(v)
            errs.append(e)
        if len(vals) == 1:
            return vals[0], errs[0]
        return np.concatenate(vals), np.concatenate(errs)

    def _totals(self, offset) -> tuple[np.ndarray, np.ndarray]:
        vals, errs = offset + self.parts[0][0], self.parts[0][1]
        for v, e in self.parts[1:]:
            vals, errs = vals + v, errs + e
        for drift in self._drifts:
            errs = errs + drift
        return vals, errs

    def refine(self, offset=0.0) -> tuple[np.ndarray, np.ndarray]:
        """Refine every band, then return offset plus the bands' values, and their estimates with each last drift."""
        cap = _MAX_ANGULAR[self._dim]
        active = [band for band, level in enumerate(self.levels) if level < cap]
        while active:
            for band in active:
                self.levels[band] += 1
                new = self._sweep(band)
                self._drifts[band] = np.abs(new[0] - self.parts[band][0])
                self.parts[band] = new
            vals, _ = self._totals(offset)
            half_budget = 0.5 * (ABS_TOL + REL_TOL * (1.0 + float(np.max(np.abs(vals)))))
            active = [
                band for band in active
                if self.levels[band] < cap and float(np.max(self._drifts[band])) > half_budget
            ]
        return self._totals(offset)


# ---------------------------------------------------------------------------
# Caching

def shared_cache(maxsize: int):
    """functools.lru_cache whose concurrent misses for one key compute once.

    lru_cache alone lets threads that miss the same key together each run
    the function.  Here one lock per cache serializes the calls, so a
    later caller waits until the first has stored its result and then
    hits the cache.  The cached functions are table builds, called once
    per batch, so the serialized hits cost nothing measurable.
    cache_info and cache_clear are those of the underlying lru_cache.
    """

    def wrap(fn):
        cached = lru_cache(maxsize=maxsize)(fn)
        lock = threading.Lock()

        @wraps(fn)
        def call(*args, **kwargs):
            with lock:
                return cached(*args, **kwargs)

        call.cache_info = cached.cache_info
        call.cache_clear = cached.cache_clear
        return call

    return wrap


# ---------------------------------------------------------------------------
# Semi-infinite quadrature

# Gauss orders of the half-period panel rule and of its check rule
GL_NODES_MAIN = 16
GL_NODES_CHECK = 12
_GRADE_LEVELS = 30  # dyadic refinement toward rho=0; the envelope exponent
                    # d < 2 makes exp(-rho^d) only C^1 at the origin
# entries of each block of the rates x nodes products in half_line_sums
_PANEL_BLOCK = 1 << 18
# the largest rate whose half-period pi / r reaches the 0.5 panel cap
_SHARED_RATE = 2.0 * math.pi
# entries allowed in the largest array of one half_line_sums layout; past it
# (every profile table at s = 0.15, none at s >= 0.25 up to dim 11) the
# quadrature is refused rather than exhausting memory
_PANEL_ENTRIES = 1 << 25


def truncation_radius(abs_tol: float, decay_exponent: float, poly_power: float) -> float:
    """Smallest rho with rho^p e^{-rho^d} < TAIL_CUT_EPSILON * abs_tol, then doubled."""
    target = TAIL_CUT_EPSILON * max(abs_tol, 1e-280)

    def log_env(r: float) -> float:
        return poly_power * math.log(r) - r ** decay_exponent

    log_target = math.log(target)
    # start past the envelope mode so log_env is decreasing
    lo = max(1.0, (max(poly_power, 0.0) / decay_exponent) ** (1.0 / decay_exponent) if poly_power > 0 else 1.0)
    hi = lo
    for _ in range(200):
        if log_env(hi) < log_target:
            break
        hi *= 2.0
    else:
        raise ValueError("failed to bracket the truncation radius")
    lo = max(lo, hi / 2.0) if hi > lo else lo
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if log_env(mid) < log_target:
            hi = mid
        else:
            lo = mid
    return 2.0 * hi


def tail_bound(decay_exponent: float, poly_power: float, radius: float) -> float:
    """Closed form bound on int_radius^inf rho^p e^{-rho^d} drho."""
    q = (poly_power + 1.0) / decay_exponent
    return _sps.gamma(q) * _sps.gammaincc(q, radius ** decay_exponent) / decay_exponent


def tail_integral(coeffs: tuple[float, ...], s: float, radius: float, shift: float = 0.0) -> float:
    """int_radius^inf sum_k c_k r^(shift-1-2sk) dr: the math.fsum of
    c_k radius^(shift-2sk) / (2sk - shift) over the nonzero c_k.

    With kernel.tail_coefficients this integrates F(r) r^(dim-1) r^shift,
    and with (1,) r^(shift-1-2s).  The shift, a power of the radius such as
    a datum's declared growth, must stay under 2s.
    """
    two_s = 2.0 * s
    if not shift < two_s:
        raise ValueError(f"the series integral needs shift < 2s = {two_s:g}, got {shift:g}")
    if len(coeffs) == 1:
        # one power, such as the operator's r^(-1-2s): the fsum of one term
        return coeffs[0] * radius ** (shift - two_s) / (two_s - shift)
    return math.fsum([c * radius ** (shift - two_s * k) / (two_s * k - shift) for k, c in enumerate(coeffs, start=1) if c])


def panel_edges(radius: float, step: float) -> np.ndarray:
    """Panel edges on [0, radius]: panels step long after dyadically graded
    panels toward the origin."""
    main = np.arange(step, radius, step)
    graded = step * 0.5 ** np.arange(_GRADE_LEVELS, 0, -1)
    return np.concatenate([[0.0], graded, main, [radius]])


def _rule_sums(env, osc, rates: np.ndarray, edges: np.ndarray, order: int) -> tuple[np.ndarray, np.ndarray]:
    # the order-point Gauss sums of env(rho) osc(r rho) over the panels, one
    # per rate, and the weighted w env.  fsum reads each row through a
    # memoryview: a tolist() of every row left the allocator in a state that
    # later raised radial-1d's peak memory by 12 MB in about 4 runs of 10
    x, w = panel_rule(edges, order)
    weighted = w * np.asarray(env(x.ravel()), dtype=float).reshape(x.shape)
    panels = x.shape[0]
    rows = max(1, _PANEL_BLOCK // x.size)
    cols = max(1, _PANEL_BLOCK // order)
    sums = np.empty((rates.size, panels))
    for lo in range(0, rates.size, rows):
        r = rates[lo : lo + rows, None, None]
        for plo in range(0, panels, cols):
            terms = osc(r * x[plo : plo + cols]) * weighted[plo : plo + cols]
            acc = terms[..., 0]
            for j in range(1, order):
                acc = acc + terms[..., j]
            sums[lo : lo + rows, plo : plo + cols] = acc
    return np.array([math.fsum(memoryview(row)) for row in sums]), weighted


def half_line_sums(
    env: Callable[[np.ndarray], np.ndarray],
    osc: Callable[[np.ndarray], np.ndarray],
    rates: np.ndarray,
    scale,
    tail: Callable[[float], np.ndarray | float],
    cfg: QuadratureConfig,
    *,
    decay_exponent: float,
    poly_power: float,
    label: str,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Gauss panel sums of scale * int_0^inf env(rho) osc(r rho) drho, one row per rate r.

    rates is a float array, and |osc| <= 1.  The half line is truncated at
    truncation_radius and cut by panel_edges into half-periods pi / r,
    capped at 0.5: the rows at the cap, r <= 2 pi, share one layout, and
    every other row has its own.  env is called with the 1-D array of a
    layout's nodes and weighted once per layout, osc with the products of
    rates and nodes in blocks of at most _PANEL_BLOCK entries.  Each panel
    adds its node terms one by one and math.fsum adds the panels exactly,
    so neither the block size nor the other rows move a bit.

    A row's estimate is |scale (16-point - 12-point)| + tail(radius) + a
    rounding floor 18 * 2^-53 * |scale| * sum |w_i env(x_i)
    osc(r x_i)| over the 16-point nodes, which covers the rounding of the
    products and of each panel's sum (Higham 2002, Accuracy and Stability
    of Numerical Algorithms, 4.2).  As |osc| <= 1, one sum of |w_i env(x_i)|
    per layout bounds it; only a row this bound would refuse, as where osc
    ~ (r rho)^nu near the origin, sums its own terms.  scale is a per-row
    array or a float, and tail(radius) bounds |scale * int_radius^inf env(rho)
    osc(r rho) drho| per row, as an array or a float, at the truncation
    radius.  Returns values, estimates, evaluations.

    Raises ValueError, naming label, before any layout is allocated when
    one would have more than _PANEL_ENTRIES entries (radius / step panels
    times the larger of its rows and Gauss nodes), and QuadratureError,
    carrying the first failing row's result, when an estimate is not within
    max(cfg.abs_tol, cfg.rel_tol * |value|).
    """
    radius = truncation_radius(cfg.abs_tol, decay_exponent, poly_power)
    shared = np.flatnonzero(rates <= _SHARED_RATE)
    layouts = [(0.5, shared)] if shared.size else []
    layouts += [(math.pi / float(rates[i]), np.array([i])) for i in np.flatnonzero(~(rates <= _SHARED_RATE))]
    entries = max((radius / step * max(idx.size, GL_NODES_MAIN) for step, idx in layouts), default=0.0)
    if entries > _PANEL_ENTRIES:
        raise ValueError(f"{label} needs {entries:.3g} entries in one array, over the cap of {_PANEL_ENTRIES}")
    main, check, magnitude = np.empty_like(rates), np.empty_like(rates), np.empty_like(rates)
    evaluations = 0
    for step, idx in layouts:
        edges = panel_edges(radius, step)
        main[idx], weighted = _rule_sums(env, osc, rates[idx], edges, GL_NODES_MAIN)
        check[idx], _ = _rule_sums(env, osc, rates[idx], edges, GL_NODES_CHECK)
        magnitude[idx] = np.abs(weighted).sum()
        evaluations += idx.size * (edges.size - 1) * (GL_NODES_MAIN + GL_NODES_CHECK)
    values = scale * main
    tol = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(values))
    errs = np.abs(scale * (main - check)) + tail(radius)
    floor = (GL_NODES_MAIN + 2) * 2.0**-53 * np.abs(scale)
    loose = ~(errs + floor * magnitude <= tol)
    for step, idx in layouts if loose.any() else []:
        idx = idx[loose[idx]]
        if idx.size:
            edges = panel_edges(radius, step)
            magnitude[idx], _ = _rule_sums(lambda x: np.abs(env(x)), lambda z: np.abs(osc(z)),
                                           rates[idx], edges, GL_NODES_MAIN)
            evaluations += idx.size * (edges.size - 1) * GL_NODES_MAIN
    errs += floor * magnitude
    bad = np.flatnonzero(~(errs <= tol))
    if bad.size:
        i = bad[0]
        # a NaN estimate is carried as an unbounded one
        err = float(errs[i]) if errs[i] >= 0.0 else math.inf
        raise QuadratureError(
            f"{label} at r={rates[i]:.6g} misses its tolerance: estimate {errs[i]:.3g}",
            IntegralResult(float(values[i]), err, evaluations),
        )
    return values, errs, evaluations


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray],
    cfg: QuadratureConfig,
    *,
    decay_exponent: float,
    poly_power: float = 0.0,
    osc_scale: float | None = None,
) -> IntegralResult:
    """Integrate f over [0, infinity) given its decay envelope: the one-row
    case of half_line_sums, returned as an IntegralResult.

    f is called only with 1-D arrays of abscissas and returns the
    integrand elementwise.  The caller guarantees |f(rho)| <=
    rho**poly_power * exp(-rho**decay_exponent) up to a moderate constant
    for large rho; these set the truncation and the bound on the discarded
    tail.  osc_scale is the dominant oscillation rate of f (for a factor
    J_nu(r * rho) pass r).  Raises ValueError unless decay_exponent is
    finite and positive, poly_power finite and above -1, and osc_scale
    None or finite and nonnegative, and QuadratureError, carrying the
    result in ``best``, when the estimate exceeds max(cfg.abs_tol,
    cfg.rel_tol * |value|).
    """
    if not 0.0 < decay_exponent < math.inf:
        raise ValueError(f"decay_exponent must be finite and positive, got {decay_exponent}")
    if not -1.0 < poly_power < math.inf:
        raise ValueError(f"poly_power must be finite and above -1, got {poly_power}")
    if osc_scale is not None and not 0.0 <= osc_scale < math.inf:
        raise ValueError(f"osc_scale must be None or finite and nonnegative, got {osc_scale}")
    values, errs, evaluations = half_line_sums(
        f, np.ones_like, np.array([osc_scale or 0.0]), 1.0,
        lambda radius: tail_bound(decay_exponent, poly_power, radius), cfg,
        decay_exponent=decay_exponent, poly_power=poly_power, label="integrate_semi_infinite",
    )
    return IntegralResult(float(values[0]), float(errs[0]), evaluations)
