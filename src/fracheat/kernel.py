"""Fractional heat kernel: radial profile, derivatives, and bound checks.

The kernel in dimension d is a rescaling of a single radial profile,

    p(x, t) = t^(-d/(2s)) (2 pi)^(-d/2) F(t^(-1/(2s)) |x|),

where F is the Hankel-type transform of exp(-rho^(2s)).  Everything here
is a view of F: point evaluation (f_radial), derivative ladders built
from profiles in shifted dimensions (d_f_radial), the kernel and its
derivatives at many (x, t) (kernel_derivatives), large-radius limits
(ell_limit), an interpolation table for bulk evaluation
(RadialProfileTable), and the two-sided envelope check
(verify_kernel_bounds).  heat_kernel_fourier is a deliberately separate
slow path through the Fourier representation, used as an oracle.

Every value of F on (0, TAIL_CUT] comes from one route, _profile_values,
which takes a whole array of radii and sums them as the rows of one
specfun.half_line_sums call, with the estimate and refusals of
integrate_semi_infinite.  The Bessel factors of dims 1 and 3 are their
exact cos and sin forms, and those of dims 2 and 4 scipy's j0 and j1.
f_radial, d_f_radial and the table build all use it, so a table node
equals f_radial there bit for bit.  f_radial, d_f_radial and
kernel_derivatives read each shifted-dimension profile F_{d+2j} once per
batch, in one call over its distinct radii; heat_kernel, kernel_gradient
and kernel_time_derivative are the one-point cases of kernel_derivatives.

Past TAIL_CUT = 30 every route reads the large-radius series, which has
one copy: tail_series sums it for f_radial, d_f_radial and the tables,
and specfun.tail_integral integrates it beyond TAIL_CUT, against a power
of the radius, for kernel_mass and for the solver's far band.
Every table ends at TAIL_CUT, and its constructor requires the series
there to match the last sample to _CONTINUATION_REL.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.interpolate import PchipInterpolator
from scipy.special import j0, j1, jn_zeros, jv

from .families import as_point
from .report import VerificationReport
from .specfun import (
    ABS_TOL,
    REL_TOL,
    IntegralResult,
    QuadratureConfig,
    QuadratureError,
    gamma,
    half_line_sums,
    panel_rule,
    shared_cache,
    tail_bound,
    tail_integral,
)

_TWO_PI = 2.0 * math.pi
_LOG_FLOAT_MAX = math.log(sys.float_info.max)
_ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# terms of the large-radius series, one per Mellin pole
_TAIL_TERMS = 14
# the scaled radius where the profile turns from quadrature into the large-r
# series (from 30 on its first omitted term is below 1e-16 of the leading one
# for s >= 0.25, dim <= 7): tables end there, kernel_mass integrates the
# series beyond it, and the solver's tail band starts there
TAIL_CUT = 30.0
# panel edges of the scaled radius up to TAIL_CUT: kernel_mass and every
# solve's body band integrate on these 49 panels
BODY_EDGES = np.concatenate([np.linspace(0.0, 2.0, 17), np.geomspace(2.25, TAIL_CUT, 33)])
BODY_EDGES.setflags(write=False)
# the table's first positive node and its count of positive nodes,
# log-spaced from there to TAIL_CUT
_TABLE_FIRST = 1e-3
_TABLE_NODES = 960
# relative gap allowed between the series and a table's last sample
_CONTINUATION_REL = 1e-7
# the window verify_kernel_bounds holds the envelope ratios to, and the
# times it samples
_RATIO_FLOOR = 1e-8
_RATIO_CEILING = 1e8
_BOUND_TIMES = (0.1, 1.0, 10.0)


@dataclass(frozen=True)
class KernelParams:
    """Dimension and fractional order of one kernel.

    Every quadrature behind the kernel meets specfun's one tolerance,
    ABS_TOL and REL_TOL.
    """

    dim: int
    s: float

    def __post_init__(self) -> None:
        if int(self.dim) != self.dim or self.dim < 1:
            raise ValueError("dim must be a positive integer")
        if not 0.0 < self.s < 1.0:
            raise ValueError("s must lie strictly inside (0, 1)")

    @property
    def scaling_power(self) -> float:
        """The exponent 1/(2s) tying space to time."""
        return 1.0 / (2.0 * self.s)


def _small_time(params: KernelParams, t: float) -> str:
    return (
        f"time t={t:g} is too small for the kernel in dim {params.dim} at s={params.s:g}: "
        "its values and derivatives at that time leave the float range"
    )


def _check_time(t: float) -> float:
    t = float(t)
    if not 0.0 < t < math.inf:
        raise ValueError(f"time must be finite and positive, got {t}")
    return t


# ---------------------------------------------------------------------------
# the radial profile F and its large-radius series


def _profile_zero(dim: int, s: float) -> float:
    # removable limit at r=0: the Bessel factor contributes (r rho/2)^nu /
    # Gamma(nu+1), and the remaining moment integral has a gamma closed form
    return 2.0 ** (0.5 * (2 - dim)) * gamma(dim / (2.0 * s)) / (2.0 * s * gamma(0.5 * dim))


def _profile_parts(dim: int, s: float):
    # F(r) = scale(r) * int_0^inf env(rho) osc(r rho) drho.  The Bessel
    # factor rho^(d/2) J_nu(r rho) of orders -1/2 and 1/2 (dims 1 and 3)
    # is exact in cos and sin.  Orders 0 and 1 (dims 2 and 4) go through
    # scipy's j0 and j1, several times faster than jv, and every other
    # order through jv
    two_s = 2.0 * s
    if dim == 1:
        return (lambda rho: np.exp(-(rho**two_s)), np.cos, lambda r: np.full_like(r, _ROOT_2_OVER_PI))
    if dim == 3:
        return (lambda rho: rho * np.exp(-(rho**two_s)), np.sin, lambda r: _ROOT_2_OVER_PI / r)
    nu = 0.5 * (dim - 2)
    return (
        lambda rho: np.exp(-(rho**two_s)) * rho ** (0.5 * dim),
        {2: j0, 4: j1}.get(dim, lambda z: jv(nu, z)),
        lambda r: r ** (-nu),
    )


def _profile_values(dim: int, s: float, radii: np.ndarray) -> np.ndarray:
    # F at every positive radius of a 1-D array: half_line_sums of the
    # profile integrand, one row per radius, scaled by the profile's
    # prefactor r^-nu, nu = d/2 - 1
    radii = np.asarray(radii, dtype=float)
    env, osc, scale = _profile_parts(dim, s)
    power = 0.5 * dim
    nu = power - 1.0

    def tail(radius: float):
        # r^-nu times the integral of rho^(d/2) exp(-rho^(2s)) |J_nu(r rho)|
        # past radius.  |J_nu(z)| <= (z/2)^nu / Gamma(nu + 1) (DLMF 10.14.4,
        # nu >= -1/2) cancels the r^-nu, which near the origin of high dims
        # is huge.  Away from the origin |J_nu| <= 1 (DLMF 10.14.1) is the
        # smaller charge, but it holds only for nu >= 0, so not in 1-D
        cancelled = 2.0**-nu / gamma(nu + 1.0) * tail_bound(2.0 * s, dim - 1.0, radius)
        bounded = radii**-nu * tail_bound(2.0 * s, power, radius) if nu >= 0.0 else math.inf
        return np.minimum(bounded, cancelled)

    values, _, _ = half_line_sums(
        env, osc, radii, scale(radii), tail, QuadratureConfig(ABS_TOL, REL_TOL),
        decay_exponent=2.0 * s, poly_power=power, label=f"the profile quadrature for dim {dim}, s {s}",
    )
    return values


@functools.lru_cache(maxsize=512)
def tail_coefficients(dim: int, s: float) -> tuple[float, ...]:
    """Coefficients a_k of the large-r expansion F(r) ~ sum a_k r^(-dim-2sk).

    One coefficient per Mellin pole of the transform, _TAIL_TERMS of them.
    When s*k hits an integer the sine factor kills the term exactly, so
    near-zero sines snap to zero rather than keeping roundoff-sized
    coefficients.
    """
    out = []
    fact = 1.0
    for k in range(1, _TAIL_TERMS + 1):
        fact *= k
        sine = math.sin(math.pi * s * k)
        if abs(sine) < 1e-10:
            out.append(0.0)
            continue
        a = (
            (-1) ** (k + 1)
            * 2.0 ** (0.5 * dim + 2.0 * s * k)
            * math.gamma(0.5 * (dim + 2.0 * s * k))
            * math.gamma(1.0 + s * k)
            * sine
            / (math.pi * fact)
        )
        out.append(a)
    return tuple(out)


def tail_series(dim: int, s: float, r: np.ndarray) -> np.ndarray:
    """F at every radius of an array from the large-radius series.

    Every nonzero coefficient of tail_coefficients is summed, in order of
    k.  The series converges at every r > 0 for 2s < 1; for 2s > 1 it is
    asymptotic, and the callers use it only past TAIL_CUT, where for every
    s >= 0.25 its terms shrink from the first on.
    """
    r = np.asarray(r, dtype=float)
    total = np.zeros_like(r)
    for k, a in enumerate(tail_coefficients(dim, s), start=1):
        if a != 0.0:
            total += a * r ** (-dim - 2.0 * s * k)
    return total


def _profile_array(dim: int, s: float, radii: np.ndarray) -> np.ndarray:
    # the removable limit at 0, the large-radius series past TAIL_CUT, and
    # one batch of panel sums for every radius between
    out = np.empty_like(radii)
    far = radii > TAIL_CUT
    mid = (radii > 0.0) & ~far
    out[radii == 0.0] = _profile_zero(dim, s)
    if far.any():
        out[far] = tail_series(dim, s, radii[far])
    if mid.any():
        out[mid] = _profile_values(dim, s, radii[mid])
    return out


def f_radial(params: KernelParams, r):
    """Radial kernel profile at finite scaled radii r >= 0, a float or an array.

    The value is the half-line Bessel-weighted integral of exp(-rho^(2s))
    with the r^((2-d)/2) prefactor, summed over Gauss panels by the same
    batched route that builds the tables; at r=0 the removable limit is
    taken, and past TAIL_CUT = 30 the large-radius series.  An array of
    radii gives an array of its shape, as d_f_radial does.  Raises
    QuadratureError when the 16- and 12-point panel sums disagree by more
    than specfun's tolerance, and ValueError when s is so small that the
    panel layout passes specfun's entry cap.  Always positive.
    """
    return d_f_radial(params, 0, r)


# ---------------------------------------------------------------------------
# derivative ladder


@dataclass(frozen=True)
class AlphaTable:
    """Ladder coefficients expressing the k-th profile derivative through
    profiles of shifted dimension: D^k F_d = sum_j (-1)^j c_j r^(2j-k) F_{d+2j}.

    Support is exactly k <= 2j <= 2k, and every stored coefficient is
    strictly positive.
    """

    k: int
    coefficients: dict[int, float]

    def __post_init__(self) -> None:
        for j, val in self.coefficients.items():
            if not self.k <= 2 * j <= 2 * self.k:
                raise ValueError(f"coefficient index {j} outside the order-{self.k} band")
            if val <= 0.0:
                raise ValueError("ladder coefficients must be positive")


@functools.lru_cache(maxsize=64)
def alpha_coeffs(k: int) -> AlphaTable:
    """Build the order-k ladder table by the one-step recursion
    c_{j,k+1} = (2j - k) c_{j,k} + c_{j-1,k}, starting from c_{1,1} = 1."""
    if k < 1:
        raise ValueError("ladder order must be >= 1")
    coeff = {1: 1.0}
    for order in range(1, k):
        nxt: dict[int, float] = {}
        for j in range((order + 2) // 2, order + 2):
            val = (2 * j - order) * coeff.get(j, 0.0) + coeff.get(j - 1, 0.0)
            if val > 0.0:
                nxt[j] = val
        coeff = nxt
    return AlphaTable(k, coeff)


def _checked_radii(r, positive: bool) -> np.ndarray:
    radii = np.asarray(r, dtype=float)
    ok = (radii > 0.0 if positive else radii >= 0.0) & (radii < math.inf)
    if not ok.all():
        need = "derivative ladder needs a finite r > 0" if positive else "radius must be finite and nonnegative"
        raise ValueError(f"{need}, got {float(radii[~ok].flat[0])}")
    return radii


def _ladder(params: KernelParams, orders, radii: np.ndarray) -> np.ndarray:
    # D^k F_d at every radius of a checked 1-D array, one row per k of
    # orders (k = 0: F_d), each F_{d+2j} one _profile_array call over the
    # distinct radii; terms keep the one-radius order and Python's pow,
    # whose bits numpy's vectorized power does not always match.  Where
    # the power would overflow (r past about 1e154 for r^2) the profile,
    # which decays faster, has underflowed to 0, and so has the term; its
    # power is not formed there
    ladders = [alpha_coeffs(k).coefficients if k else {0: 1.0} for k in orders]
    distinct, where = np.unique(radii, return_inverse=True)
    profiles = {j: _profile_array(params.dim + 2 * j, params.s, distinct)[where] for j in sorted(set().union(*ladders))}
    out = np.zeros((len(ladders), radii.size))
    for row, k, coeffs in zip(out, orders, ladders):
        for j, c in sorted(coeffs.items()):
            powers = [r ** (2 * j - k) if f else 0.0 for r, f in zip(radii.tolist(), profiles[j].tolist())]
            row += (-1.0) ** j * c * np.array(powers) * profiles[j]
    return out


def d_f_radial(params: KernelParams, k, r):
    """k-th derivative of the radial profile, via the shifted-dimension
    ladder at finite r > 0; k=0 is plain evaluation, which also takes
    r = 0, and orders above 4 are not needed by any bound check and are
    rejected.

    r is a float, which gives a float, or an array, which gives an array
    of its shape; a sequence of orders k adds a leading axis, one row per
    order.  Each F_{d+2j} the orders read is one batched call over the
    distinct radii, and each value equals its one-radius call bit for bit.
    """
    orders = list(k) if np.ndim(k) else [k]
    if not all(0 <= order <= 4 for order in orders):
        raise ValueError("derivative order must lie in 0..4")
    radii = _checked_radii(r, positive=any(orders))
    out = _ladder(params, orders, radii.ravel()).reshape(len(orders), *radii.shape)
    out = out if np.ndim(k) else out[0]
    return float(out) if out.ndim == 0 else out


def ell_limit(params: KernelParams, k: int = 0) -> float:
    """Limit of r^(d+2s+k) D^k F(r) as r grows.

    The k=0 value is the strictly positive tail constant of the profile;
    each further order multiplies by -(d+2s+j) as the power-law tail is
    differentiated.
    """
    if k < 0:
        raise ValueError("order must be nonnegative")
    dim, s = params.dim, params.s
    base = (
        2.0 ** (0.5 * (dim + 4.0 * s))
        * (s / math.pi)
        * math.sin(math.pi * s)
        * gamma(0.5 * (dim + 2.0 * s))
        * gamma(s)
    )
    prod = 1.0
    for j in range(k):
        prod *= dim + 2.0 * s + j
    return (-1.0) ** k * base * prod


# ---------------------------------------------------------------------------
# kernel evaluation and derivatives


def kernel_derivatives(params: KernelParams, points, times, order: int = 1) -> list[tuple]:
    """The kernel and its derivatives at every (t, x) of times x points.

    One tuple per pair, times outer: (p,) for order 0, (p, grad p, p_t)
    for 1, and (p, grad p, p_t, Hessian) for 2.  The rungs D^k F, k <=
    order, at all scaled radii |x| t^(-1/(2s)) come from one ladder, so
    F_d, F_{d+2} and F_{d+4} take one batched call each.  The gradient is
    zero at the origin, p_t = -(d p + x . grad p) / (2 s t) by scaling,
    and the Hessian is D2F on the x-direction and DF/r on its complement.
    A time at which any of these leaves the float range is refused by
    name, before its scale factors are formed where they would overflow.
    """
    dim, sp = params.dim, params.scaling_power
    times = [_check_time(t) for t in times]
    for t in times:
        # the largest scale factor t^(-(d + order)/(2s)) overflows for a small
        # t; its log is checked, with a unit of margin, before any power
        if (dim + order) * sp * -math.log(t) >= _LOG_FLOAT_MAX - 1.0:
            raise ValueError(_small_time(params, t))
    points = [as_point(x, dim) for x in points]
    cases = [(t, x, point_radius(x)) for t in times for x in points]
    radii = [nx * t ** (-sp) for t, _, nx in cases]
    rungs = _ladder(params, range(order + 1), _checked_radii(radii, positive=False))
    out = []
    for (t, x, nx), r, d in zip(cases, radii, rungs.T.tolist()):
        sample = (t ** (-dim * sp) * _TWO_PI ** (-0.5 * dim) * d[0],)
        if order >= 1:
            grad = np.zeros(dim) if nx == 0.0 else t ** (-(dim + 1) * sp) * _TWO_PI ** (-0.5 * dim) * d[1] * (x / nx)
            sample += (grad, -(dim * sample[0] + float(np.dot(x, grad))) / (2.0 * params.s * t))
        if order >= 2:
            pref = t ** (-(dim + 2) * sp) * _TWO_PI ** (-0.5 * dim)
            if nx == 0.0:
                # D2F(0) = -F_{d+2}(0) on every direction
                sample += (pref * d[2] * np.eye(dim),)
            else:
                outer = np.outer(x / nx, x / nx)
                sample += (pref * (d[2] * outer + (d[1] / r) * (np.eye(dim) - outer)),)
        if not all(np.all(np.isfinite(v)) for v in sample):
            raise ValueError(_small_time(params, t))
        out.append(sample)
    return out


def heat_kernel(params: KernelParams, x, t: float) -> float:
    """Kernel value p(x, t) > 0 for t > 0."""
    return kernel_derivatives(params, [x], [t], 0)[0][0]


def kernel_gradient(params: KernelParams, x, t: float) -> np.ndarray:
    """Spatial gradient of the kernel; zero at the origin by symmetry."""
    return kernel_derivatives(params, [x], [t])[0][1]


def kernel_time_derivative(params: KernelParams, x, t: float) -> float:
    """Time derivative of the kernel, through the scaling identity
    p_t = -(d p + x . grad p) / (2 s t)."""
    return kernel_derivatives(params, [x], [t])[0][2]


# ---------------------------------------------------------------------------
# Fourier-side oracle


def _quad_checked(f, a, b, **kw) -> tuple[float, float]:
    out = integrate.quad(f, a, b, full_output=1, **kw)
    if len(out) > 3:
        raise QuadratureError(
            f"Fourier-side quadrature did not converge: {out[3]}",
            IntegralResult(value=out[0], error_estimate=out[1], evaluations=out[2].get("neval", 0)),
        )
    return out[0], out[1]


def _fourier_half_line(f, w: float, kind: str, cut: float) -> float:
    # integral of f(xi) * cos/sin(w xi) over the half line, f carrying the
    # decay.  With only a few cycles before the decay completes, QUADPACK's
    # cycle-averaging has nothing to work with and flags the integrand, so
    # integrate the product directly on [0, cut] instead.
    if w * cut <= 8.0 * math.pi:
        trig = math.cos if kind == "cos" else math.sin
        val, _ = _quad_checked(
            lambda xi: f(xi) * trig(w * xi), 0.0, cut, epsabs=1e-13, epsrel=1e-12, limit=400
        )
        return val
    try:
        val, _ = _quad_checked(f, 0.0, np.inf, weight=kind, wvar=w, epsabs=1e-13, limlst=200, limit=300)
    except QuadratureError:
        val, _ = _quad_checked(f, 0.0, np.inf, weight=kind, wvar=w, epsabs=1e-11, limlst=200, limit=300)
    return val


def heat_kernel_fourier(params: KernelParams, x, t: float) -> float:
    """Kernel value through the Fourier representation, dimensions 1..3.

    The d-dimensional transform reduces to a half-line integral with a
    cosine, cylindrical, or sine weight for d = 1, 2, 3, and is handed to
    QUADPACK's oscillatory-weight routines.  This shares no code with the
    profile quadrature behind heat_kernel, so the two serve as mutual
    oracles.  Deliberately slow; not for bulk evaluation.
    """
    if params.dim > 3:
        raise ValueError("Fourier oracle supports dim <= 3 only")
    t = _check_time(t)
    x = as_point(x, params.dim)
    w = float(np.linalg.norm(x))
    two_s = 2.0 * params.s

    def decay(xi):
        return math.exp(-t * xi**two_s)

    if params.dim == 1:
        if w == 0.0:
            val, _ = _quad_checked(decay, 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400)
        else:
            val = _fourier_half_line(decay, w, "cos", (50.0 / t) ** (1.0 / two_s))
        return val / math.pi

    if params.dim == 2:
        if w == 0.0:
            val, _ = _quad_checked(
                lambda xi: xi * decay(xi), 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400
            )
            return val / _TWO_PI
        # panel sum between consecutive zeros of the cylindrical factor
        cut = (45.0 / t) ** (1.0 / two_s)
        n_zero = max(8, int(w * cut / math.pi) + 2)
        edges = [0.0] + [z / w for z in jn_zeros(0, n_zero)]
        edges = [e for e in edges if e < cut] + [cut]
        pieces = []
        for a, b in zip(edges[:-1], edges[1:]):
            val, _ = _quad_checked(
                lambda xi: xi * jv(0, w * xi) * decay(xi), a, b, epsabs=1e-13, epsrel=1e-11
            )
            pieces.append(val)
        return math.fsum(pieces) / _TWO_PI

    # dim == 3
    if w == 0.0:
        val, _ = _quad_checked(
            lambda xi: xi * xi * decay(xi), 0.0, np.inf, epsabs=1e-13, epsrel=1e-12, limit=400
        )
        return val / (2.0 * math.pi**2)
    val = _fourier_half_line(lambda xi: xi * decay(xi), w, "sin", (50.0 / t) ** (1.0 / two_s))
    return val / (2.0 * math.pi**2 * w)


# ---------------------------------------------------------------------------
# profile table for bulk evaluation


class RadialProfileTable:
    """Immutable sampled profile with interpolation and continuation.

    nodes start at 0; between the first positive node and the last node a
    monotone cubic interpolant runs on (log r, log F); below the first
    positive node the quartic even Taylor polynomial of F applies, and
    beyond the last node tail_series takes over, which must match the last
    sample to _CONTINUATION_REL.  Build via build_profile_table;
    solver-scale workloads (>= 1e4 evaluations per profile) are the
    intended consumer.
    """

    def __init__(
        self,
        params: KernelParams,
        nodes: np.ndarray,
        values: np.ndarray,
    ):
        nodes = np.asarray(nodes, dtype=float)
        values = np.asarray(values, dtype=float)
        if nodes.ndim != 1 or nodes.shape != values.shape or nodes.size < 8:
            raise ValueError("need matching 1-D node/value arrays with at least 8 entries")
        if nodes[0] != 0.0 or np.any(np.diff(nodes) <= 0.0):
            raise ValueError("nodes must start at 0 and increase strictly")
        if not np.all(np.isfinite(values)) or np.any(values <= 0.0):
            raise ValueError("profile samples must be finite and positive")
        gap = float(tail_series(params.dim, params.s, nodes[-1:])[0] / values[-1] - 1.0)
        if not abs(gap) <= _CONTINUATION_REL:
            raise ValueError(f"the series continuation misses the last sample at r={nodes[-1]:.6g} by {gap:.3g}")
        self.params = params
        self.nodes = nodes
        self.values = values
        self._interp = PchipInterpolator(np.log(nodes[1:]), np.log(values[1:]), extrapolate=False)
        dim, s = params.dim, params.s
        # quartic Taylor at the origin through shifted-dimension curvatures
        self._taylor = (
            _profile_zero(dim, s),
            -0.5 * _profile_zero(dim + 2, s),
            0.125 * _profile_zero(dim + 4, s),
        )
        self._r_first = nodes[1]
        self._r_last = nodes[-1]

    def evaluate(self, r) -> np.ndarray:
        """Vectorized profile lookup for finite r >= 0."""
        r = _checked_radii(r, positive=False)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        out = np.empty_like(r)
        small = r < self._r_first
        big = r > self._r_last
        mid = ~(small | big)
        if np.any(small):
            c0, c2, c4 = self._taylor
            rs = r[small]
            out[small] = c0 + rs**2 * (c2 + rs**2 * c4)
        if np.any(mid):
            out[mid] = np.exp(self._interp(np.log(r[mid])))
        if np.any(big):
            out[big] = tail_series(self.params.dim, self.params.s, r[big])
        return float(out[0]) if scalar else out

    __call__ = evaluate


def build_profile_table(params: KernelParams) -> RadialProfileTable:
    """Sample the profile at 0 and on a log-spaced grid out to TAIL_CUT.

    All nodes are evaluated in one batch of the panel sums behind
    f_radial, so every node value equals f_radial there bit for bit, and
    the constructor checks the series continuation against the last one.
    """
    grid = np.concatenate([[0.0], np.geomspace(_TABLE_FIRST, TAIL_CUT, _TABLE_NODES)])
    return RadialProfileTable(params, grid, _profile_array(params.dim, params.s, grid))


@shared_cache(maxsize=32)
def profile_table(dim: int, s: float) -> RadialProfileTable:
    """Shared table for (dim, s); concurrent misses for one key build it
    once."""
    return build_profile_table(KernelParams(dim=dim, s=s))


# ---------------------------------------------------------------------------
# mass and bound verification


def kernel_mass(params: KernelParams, t: float) -> float:
    """Total integral of the kernel at time t.

    Radial quadrature against the profile table out to TAIL_CUT, then the
    analytic tail from the large-radius series.  The result must come out
    1 for every t; the t-powers all cancel, so any deviation measures
    quadrature plus table error.
    """
    t = _check_time(t)
    dim, s = params.dim, params.s
    sp = params.scaling_power
    table = profile_table(dim, s)
    sphere = 2.0 * math.pi ** (0.5 * dim) / gamma(0.5 * dim)
    scale = t**sp
    # physical-variable panels whose images are fixed in the scaled variable
    xs, ws = panel_rule(BODY_EDGES * scale, 24)
    kernel_pref = t ** (-dim * sp) * _TWO_PI ** (-0.5 * dim)
    integrand = kernel_pref * table.evaluate(xs.ravel() / scale).reshape(xs.shape) * xs ** (dim - 1)
    bulk = sphere * float(np.sum(ws * integrand))
    # analytic tail of the scaled profile integral beyond the cut
    tail = sphere * _TWO_PI ** (-0.5 * dim) * tail_integral(tail_coefficients(dim, s), s, TAIL_CUT)
    return bulk + tail


def point_radius(x: np.ndarray) -> float:
    """|x| of one point, with np.linalg.norm's bits unless a coordinate
    passes 1e150, where the sum of squares may overflow: x is then scaled."""
    big = float(np.max(np.abs(x)))
    return float(np.linalg.norm(x)) if big < 1e150 else big * float(np.linalg.norm(x / big))


def kernel_envelope(params: KernelParams, nx: float, t: float, k: int = 0) -> float:
    """The scaling envelope min(t^(-(d+k)/(2s)), t |x|^(-(d+2s+k))) of the
    order-k derivatives of the kernel at |x| = nx: the t-power at the origin
    and wherever the |x|-power leaves the float range (checked on its log,
    with a unit of margin), as it does for 0 < |x| below about 1e-140.
    Where the envelope falls below the normal floats, as past |x| of about
    1e140 at t = 1 in 1-D, ratios to it mean nothing, and it is refused."""
    first = t ** (-(params.dim + k) * params.scaling_power)
    power = params.dim + 2.0 * params.s + k
    space_overflows = nx == 0.0 or -power * math.log(nx) > _LOG_FLOAT_MAX - 1.0
    envelope = first if space_overflows else min(first, t * nx**-power)
    if envelope < sys.float_info.min:
        raise ValueError(f"the kernel envelope of order {k} in dim {params.dim} at s={params.s:g} falls below the "
                         f"float range at |x|={nx:g}, t={t:g}, so ratios to it mean nothing there")
    return envelope


def verify_kernel_bounds(params: KernelParams, points=None) -> VerificationReport:
    """Measure the kernel against its two-sided scaling envelope.

    For each sampled x and each t of _BOUND_TIMES the kernel, its first
    two derivative orders, and its time derivative are divided by the
    matching envelope min(t-power, |x|-power); the report carries the
    extreme ratios.  It passes when the kernel ratio stays inside
    (_RATIO_FLOOR, _RATIO_CEILING) and every derivative ratio under
    _RATIO_CEILING: no vanishing and no blow-up anywhere on the grid.
    """
    dim = params.dim
    if points is None:
        dirs = np.eye(dim)
        radii = np.concatenate([[0.0], np.geomspace(0.05, 50.0, 13)])
        points = [radii[i] * dirs[i % dim] for i in range(len(radii))]
        if dim >= 2:
            points.append(np.full(dim, 10.0 / math.sqrt(dim)))

    points = [as_point(x, dim) for x in points]
    samples = kernel_derivatives(params, points, _BOUND_TIMES, 2)
    rows = []
    for (t, x), (p, grad, pt, hess) in zip(itertools.product(_BOUND_TIMES, points), samples):
        nx = point_radius(x)
        env = kernel_envelope(params, nx, t, 0)
        rows.append((
            (*x, t),
            p / env,
            float(np.max(np.abs(grad))) / kernel_envelope(params, nx, t, 1),
            float(np.max(np.abs(hess))) / kernel_envelope(params, nx, t, 2),
            # the time derivative scales as the kernel over t
            abs(pt) / (env / t),
        ))
    # min and max keep the first of equal extremes, in the order sampled
    lowest = min(rows, key=lambda row: row[1])
    report = VerificationReport(suite="kernel-bounds")
    report.add("kernel-ratio-lower", lowest[1], _RATIO_FLOOR, 0.0, lowest[1] > _RATIO_FLOOR, lowest[0])
    for i, name in enumerate(("kernel-ratio-upper", "gradient-ratio", "hessian-ratio", "time-derivative-ratio"), 1):
        worst = max(rows, key=lambda row: row[i])
        report.add(name, worst[i], _RATIO_CEILING, 0.0, worst[i] < _RATIO_CEILING, worst[0])
    return report
