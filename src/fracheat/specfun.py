"""Special functions, shared quadrature rules, and semi-infinite quadrature.

Primitives shared by the kernel, operator and solver layers: Euler Gamma;
the quadrature rules every radial integral here is built from (a cached
Gauss-Legendre rule, its per-panel copy over an edge array, repeated
pairwise averaging of partial sums, half-sphere direction rules, and the
sums of point pairs x +- rho d over such a rule, level by level where the
rule nests); and an integrator for semi-infinite integrands whose decay
is controlled by an envelope rho^p * exp(-rho^d).  Each caller keeps its
own reduction of the panel values.

The integrator has two regimes.  Mildly oscillatory or smooth integrands go
through adaptive Gauss-Kronrod on the truncated interval.  Heavily
oscillatory integrands (Bessel factors with large argument scale) are summed
over half-period panels with a fixed Gauss rule per panel; the panel sums
are accumulated with compensated summation so the cancellation between
half-waves does not eat the result.  Both regimes report an error estimate
that includes the analytic bound on the truncated tail.  The truncation
radius, the tail bound and the panel edges are public, so the kernel's
batched profile sums use the same single copy.  ABS_TOL and REL_TOL are
the one accuracy target of every quadrature in the package, read by the
kernel, operator and solver layers alike.  shared_cache is the lru_cache
the kernel and solver tables are kept in.

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
from scipy import integrate as _sint
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
    "averaged_limit",
    "sphere_rule",
    "pair_sums",
    "nested_pair_sums",
    "shared_cache",
    "GL_NODES_MAIN",
    "GL_NODES_CHECK",
    "truncation_radius",
    "tail_bound",
    "panel_edges",
    "integrate_semi_infinite",
]


# the one accuracy policy of the package: a quadrature result is acceptable
# when its error estimate is below max(ABS_TOL, REL_TOL * |value|)
ABS_TOL = 1e-10
REL_TOL = 1e-8
# adaptive subdivision budget of the Gauss-Kronrod regime
MAX_SUBDIVISIONS = 2048
# a half-line integral is truncated where its decay envelope falls below
# TAIL_CUT_EPSILON * abs_tol; the radius found this way is then doubled
TAIL_CUT_EPSILON = 1e-2


@dataclass(frozen=True)
class QuadratureConfig:
    """Target accuracy of one integrate_semi_infinite call.

    A result is acceptable when its error estimate is below
    max(abs_tol, rel_tol * |value|).  The defaults are the package's one
    policy, ABS_TOL and REL_TOL.  The subdivision budget and the tail cut
    are the module constants MAX_SUBDIVISIONS and TAIL_CUT_EPSILON.
    """

    abs_tol: float = ABS_TOL
    rel_tol: float = REL_TOL

    def __post_init__(self) -> None:
        # the truncation threshold is TAIL_CUT_EPSILON * abs_tol, so a zero
        # abs_tol would push the radius to infinity
        if self.abs_tol <= 0 or self.rel_tol < 0:
            raise ValueError("need abs_tol > 0 and rel_tol >= 0")


@dataclass(frozen=True)
class IntegralResult:
    """Value of a quadrature together with its accounting."""

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self) -> None:
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be non-negative")


class QuadratureError(RuntimeError):
    """Raised when the subdivision budget is exhausted before convergence.

    Carries the best estimate obtained so far in ``best``.
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
# datum evaluations per chunk of pair_sums
_PAIR_CHUNK = 1_500_000


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
    odd-indexed directions.  nested_pair_sums is the one place that
    builds them so.  The 3-D product rule (Gauss-Legendre in the polar
    cosine, midpoint in the azimuth) does not nest.
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
) -> np.ndarray:
    """Weighted sums of value(x + rho d) + value(x - rho d) over a direction rule.

    One row per point x of the (count, dim) array pts, one column per
    radius rho.  The datum is evaluated in chunks of radii holding about
    _PAIR_CHUNK points each, so memory stays bounded for long radius lists.

    Each chunk's cloud is one (dim, count, radii, 2 * dirs) array, filled
    one coordinate at a time: the x + rho d points take the first half of
    the last axis and the x - rho d points the second.  The datum receives
    it as the (points, dim) view cloud.reshape(dim, -1).T, which is not
    C-contiguous: each coordinate is a contiguous column.  One buffer of
    about _PAIR_CHUNK * dim floats is allocated per call and reused by
    every chunk, so concurrent calls share nothing.
    """
    count, dim = pts.shape
    nd = len(dirs)
    w2 = np.concatenate([dwts, dwts])
    out = np.empty((count, rhos.size))
    block = max(1, _PAIR_CHUNK // (2 * nd * count))
    buf = np.empty(dim * count * min(block, rhos.size) * 2 * nd)
    for lo in range(0, rhos.size, block):
        sub = rhos[lo : lo + block]
        cloud = buf[: dim * count * sub.size * 2 * nd].reshape(dim, count, sub.size, 2 * nd)
        for k in range(dim):
            step = sub[:, None] * dirs[None, :, k]
            np.add(pts[:, k, None, None], step, out=cloud[k, :, :, :nd])
            np.subtract(pts[:, k, None, None], step, out=cloud[k, :, :, nd:])
        vals = value(cloud.reshape(dim, -1).T).reshape(count, sub.size, -1)
        out[:, lo : lo + block] = vals @ w2
    return out


def nested_pair_sums(
    value: Callable[[np.ndarray], np.ndarray],
    pts: np.ndarray,
    rhos: np.ndarray,
    dirs: np.ndarray,
    dwts: np.ndarray,
    kept: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """pair_sums over one level of sphere_rule, and what to keep for the next.

    dirs and dwts are the level's rule, whose weights may carry a constant
    factor.  kept is what this function returned for the level before,
    with the same points, radii and factor, or None at the first level.
    Only the 2-D rule nests: given kept, its sums are half the kept ones
    plus the sums over the new, odd-indexed directions, so each direction
    is evaluated once over all levels.  The halving is exact, so it
    commutes with every rounding.  Returns the sums and what to keep: the
    sums themselves in 2-D, and None in 1-D and 3-D, so those callers
    store nothing.
    """
    nests = dirs.shape[1] == 2
    if nests and kept is not None:
        sums = 0.5 * kept + pair_sums(value, pts, rhos, dirs[1::2], dwts[1::2])
    else:
        sums = pair_sums(value, pts, rhos, dirs, dwts)
    return sums, sums if nests else None


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

_OSC_PANEL_THRESHOLD = 40  # half-periods beyond which we leave QUADPACK

# Gauss orders of the half-period panel rule and of its check rule
GL_NODES_MAIN = 16
GL_NODES_CHECK = 12
_GRADE_LEVELS = 30  # dyadic refinement toward rho=0; the envelope exponent
                    # d < 2 makes exp(-rho^d) only C^1 at the origin


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


def panel_edges(radius: float, osc_scale: float | None) -> np.ndarray:
    """Panel edges on [0, radius]: half-periods pi / osc_scale, at most 0.5
    long, after dyadically graded panels toward the origin."""
    step = math.pi / osc_scale if osc_scale else 0.5
    step = min(step, 0.5)
    main = np.arange(step, radius, step)
    graded = step * 0.5 ** np.arange(_GRADE_LEVELS, 0, -1)
    return np.concatenate([[0.0], graded, main, [radius]])


def _panel_sum(f: Callable[[np.ndarray], np.ndarray], edges: np.ndarray, n: int) -> tuple[float, int]:
    x, w = panel_rule(edges, n)
    vals = np.asarray(f(x.ravel()), dtype=float).reshape(x.shape)
    per_panel = np.einsum("ij,ij->i", vals, w)
    return math.fsum(per_panel.tolist()), x.size


def integrate_semi_infinite(
    f: Callable[[np.ndarray], np.ndarray],
    cfg: QuadratureConfig,
    *,
    decay_exponent: float,
    poly_power: float = 0.0,
    osc_scale: float | None = None,
) -> IntegralResult:
    """Integrate f over [0, infinity) given its decay envelope.

    Parameters
    ----------
    f : callable
        Integrand.  Must accept a numpy array of abscissas and return the
        integrand values elementwise (the adaptive branch also calls it with
        scalars).
    cfg : QuadratureConfig
    decay_exponent, poly_power : float
        The caller guarantees |f(rho)| <= rho**poly_power *
        exp(-rho**decay_exponent) up to a moderate constant for large rho.
        These control where the interval is truncated and the analytic bound
        added for the discarded tail.
    osc_scale : float, optional
        Dominant oscillation rate of f (for a factor J_nu(r * rho) pass r).
        Beyond roughly forty half-periods the integral is summed panel by
        panel between estimated zero crossings instead of adaptively.

    Returns
    -------
    IntegralResult

    Raises
    ------
    QuadratureError
        If the adaptive branch exhausts its MAX_SUBDIVISIONS budget while the
        error estimate is still above tolerance.  The exception carries the
        best estimate.
    """
    if decay_exponent <= 0:
        raise ValueError("decay_exponent must be positive")
    radius = truncation_radius(cfg.abs_tol, decay_exponent, poly_power)
    tail = tail_bound(decay_exponent, poly_power, radius)

    half_periods = (osc_scale or 0.0) * radius / math.pi
    if half_periods > _OSC_PANEL_THRESHOLD:
        edges = panel_edges(radius, osc_scale)
        value, n_main = _panel_sum(f, edges, GL_NODES_MAIN)
        check, n_check = _panel_sum(f, edges, GL_NODES_CHECK)
        err = abs(value - check) + tail
        return IntegralResult(value, err, n_main + n_check)

    points = None
    if osc_scale:
        zeros = np.arange(1, 41) * math.pi / osc_scale
        points = [z for z in zeros.tolist() if z < radius]
    value, abserr, info, *warn = _sint.quad(
        f,
        0.0,
        radius,
        epsabs=0.5 * cfg.abs_tol,
        epsrel=0.5 * cfg.rel_tol,
        limit=MAX_SUBDIVISIONS,
        points=points or None,
        full_output=1,
    )
    err = abserr + tail
    result = IntegralResult(value, err, int(info["neval"]))
    if warn and err > max(cfg.abs_tol, cfg.rel_tol * abs(value)):
        raise QuadratureError(f"quadrature did not converge: {warn[0]}", best=result)
    return result
