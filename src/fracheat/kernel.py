"""Fractional heat kernel: radial profile, derivatives, and bound checks.

The kernel in dimension d is a rescaling of a single radial profile,

    p(x, t) = t^(-d/(2s)) (2 pi)^(-d/2) F(t^(-1/(2s)) |x|),

where F is the Hankel-type transform of exp(-rho^(2s)).  Everything here
is a view of F: point evaluation (f_radial), derivative ladders built
from profiles in shifted dimensions (d_f_radial), large-radius limits
(ell_limit), an interpolation table for bulk evaluation
(RadialProfileTable), and the two-sided envelope check
(verify_kernel_bounds).  heat_kernel_fourier is a deliberately separate
slow path through the Fourier representation, used as an oracle.

Every value of F between r = 0 and the large-radius series comes from one
route, _profile_values, which takes a whole array of radii.  It truncates
the half-line integral once per call and sums Gauss panels: radii up to
2 pi share one layout with steps of 0.5, and each larger radius sums its
own half-period panels.  The products of radii and abscissae are formed
in blocks of at most _PROFILE_BLOCK entries, and no block size moves a
bit.  The Bessel factors of dims 1 and 3 are their exact cos and sin
forms, and those of dims 2 and 4 scipy's j0 and j1.  Each radius carries
the estimate |16-point - 12-point| + tail, and a radius whose estimate
exceeds max(ABS_TOL, REL_TOL |F|) is refused with QuadratureError.
f_radial, d_f_radial and the table build all use it, so a table node
equals f_radial there bit for bit.

The large-radius series has one copy as well: tail_series sums it for
f_radial past _SERIES_RADIUS, for the table past its last node and for
the table build's check, and tail_integral integrates it beyond a radius
for kernel_mass and the solver's mean tail.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate
from scipy.interpolate import PchipInterpolator
from scipy.special import j0, j1, jn_zeros, jv

from .families import as_point
from .report import VerificationReport
from .specfun import (
    ABS_TOL,
    GL_NODES_CHECK,
    GL_NODES_MAIN,
    REL_TOL,
    IntegralResult,
    QuadratureError,
    gamma,
    gauss_legendre,
    panel_edges,
    panel_rule,
    shared_cache,
    tail_bound,
    truncation_radius,
)

_TWO_PI = 2.0 * math.pi
_ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# beyond this scaled radius direct quadrature needs ~r/pi oscillation
# panels, so the large-radius series takes over instead
_SERIES_RADIUS = 1000.0
# up to this radius the half-period pi / r exceeds the 0.5 panel cap, so
# these radii share one panel layout
_SHARED_RADIUS = 2.0 * math.pi
# entries of each block of the radii x abscissae products in the profile sums
_PROFILE_BLOCK = 1 << 18
# terms of the large-radius series, one per Mellin pole
_TAIL_TERMS = 14
# the table's first positive node, its smallest last node, and its count of
# positive nodes, log-spaced between the two
_TABLE_FIRST = 1e-3
_TABLE_LAST = 30.0
_TABLE_NODES = 960
# scaled radius where a radial integral against the profile leaves its
# table panels: kernel_mass integrates the series beyond it, and the
# solver's tail band starts there
TAIL_CUT = 30.0
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


def _panel_totals(env, osc, radii: np.ndarray, edges: np.ndarray, order: int) -> np.ndarray:
    # sum over the panels of the order-point Gauss sums of env(rho) osc(r rho),
    # one total per radius, formed in blocks of at most _PROFILE_BLOCK entries.
    # Each panel sum adds its node terms one by one in a fixed order and
    # math.fsum rounds the panel sums exactly, so no block size or batch
    # composition moves a bit.  fsum reads each row through a memoryview,
    # one float at a time: a tolist() of every row left the allocator in
    # a state that later raised radial-1d's peak memory by 12 MB in about
    # 4 runs of 10
    x, w = panel_rule(edges, order)
    weighted = w * env(x)
    panels = x.shape[0]
    rows = max(1, _PROFILE_BLOCK // x.size)
    cols = max(1, _PROFILE_BLOCK // order)
    sums = np.empty((radii.size, panels))
    for lo in range(0, radii.size, rows):
        r = radii[lo : lo + rows, None, None]
        for plo in range(0, panels, cols):
            terms = osc(r * x[plo : plo + cols]) * weighted[plo : plo + cols]
            acc = terms[..., 0]
            for j in range(1, order):
                acc = acc + terms[..., j]
            sums[lo : lo + rows, plo : plo + cols] = acc
    return np.array([math.fsum(memoryview(row)) for row in sums])


def _profile_values(dim: int, s: float, radii: np.ndarray) -> np.ndarray:
    # F at every positive radius of a 1-D array, by half-period Gauss panel
    # sums of the half-line integral truncated once for all radii.  Radii up
    # to _SHARED_RADIUS share the layout with the step capped at 0.5; each
    # larger radius gets its own half-period layout.  A radius whose
    # estimate |main - check| + tail exceeds max(ABS_TOL, REL_TOL * |F|)
    # is refused
    radii = np.asarray(radii, dtype=float)
    two_s, power = 2.0 * s, 0.5 * dim
    radius = truncation_radius(ABS_TOL, two_s, power)
    env, osc, scale = _profile_parts(dim, s)
    shared = np.flatnonzero(radii <= _SHARED_RADIUS)
    layouts = [(shared, panel_edges(radius, None))] if shared.size else []
    layouts += [(np.array([i]), panel_edges(radius, radii[i])) for i in np.flatnonzero(radii > _SHARED_RADIUS)]
    main, check = np.empty_like(radii), np.empty_like(radii)
    evaluations = 0
    for idx, edges in layouts:
        main[idx] = _panel_totals(env, osc, radii[idx], edges, GL_NODES_MAIN)
        check[idx] = _panel_totals(env, osc, radii[idx], edges, GL_NODES_CHECK)
        evaluations += idx.size * (edges.size - 1) * (GL_NODES_MAIN + GL_NODES_CHECK)
    factor = scale(radii)
    values = factor * main
    errs = np.abs(factor * (main - check)) + radii ** (1.0 - power) * tail_bound(two_s, power, radius)
    bad = np.flatnonzero(errs > np.maximum(ABS_TOL, REL_TOL * np.abs(values)))
    if bad.size:
        i = bad[0]
        raise QuadratureError(
            f"profile quadrature at r={radii[i]:.6g} misses its tolerance: estimate {errs[i]:.3g}",
            IntegralResult(value=float(values[i]), error_estimate=float(errs[i]), evaluations=evaluations),
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
    asymptotic, and the callers use it only where its terms fall off fast
    (past the table's last node, which sits where the first correction is
    below 4% of the leading term, or past _SERIES_RADIUS).
    """
    r = np.asarray(r, dtype=float)
    total = np.zeros_like(r)
    for k, a in enumerate(tail_coefficients(dim, s), start=1):
        if a != 0.0:
            total += a * r ** (-dim - 2.0 * s * k)
    return total


def tail_integral(coeffs: tuple[float, ...], s: float, radius: float) -> float:
    """int_radius^inf sum_k c_k r^(-1-2sk) dr, term by term: the math.fsum
    of c_k radius^(-2sk) / (2sk) over the nonzero c_k.

    With the coefficients of tail_coefficients this is the integral of
    F(r) r^(dim-1) beyond the radius.
    """
    return math.fsum(
        c * radius ** (-2.0 * s * k) / (2.0 * s * k) for k, c in enumerate(coeffs, start=1) if c != 0.0
    )


def _profile_array(dim: int, s: float, radii: np.ndarray) -> np.ndarray:
    # the removable limit at 0, the large-radius series past _SERIES_RADIUS,
    # and one batch of panel sums for every radius between
    out = np.empty_like(radii)
    far = radii > _SERIES_RADIUS
    mid = (radii > 0.0) & ~far
    out[radii == 0.0] = _profile_zero(dim, s)
    out[far] = tail_series(dim, s, radii[far])
    if mid.any():
        out[mid] = _profile_values(dim, s, radii[mid])
    return out


def _profile_value(dim: int, s: float, r: float) -> float:
    return float(_profile_array(dim, s, np.array([r]))[0])


def f_radial(params: KernelParams, r: float) -> float:
    """Radial kernel profile at a finite scaled radius r >= 0.

    The value is the half-line Bessel-weighted integral of exp(-rho^(2s))
    with the r^((2-d)/2) prefactor, summed over Gauss panels by the same
    batched route that builds the tables; at r=0 the removable limit is
    taken, and past r = 1000 the large-radius series.  Raises
    QuadratureError when the 16- and 12-point panel sums disagree by more
    than specfun's tolerance.  Always positive.
    """
    r = float(r)
    if not 0.0 <= r < math.inf:
        raise ValueError(f"radius must be finite and nonnegative, got {r}")
    return _profile_value(params.dim, params.s, r)


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


def d_f_radial(params: KernelParams, k: int, r: float) -> float:
    """k-th derivative of the radial profile, via the shifted-dimension
    ladder at a finite r > 0; k=0 is plain evaluation, which also takes
    r = 0, and orders above 4 are not needed by any bound check and are
    rejected."""
    if k == 0:
        return f_radial(params, r)
    if k < 0 or k > 4:
        raise ValueError("derivative order must lie in 0..4")
    r = float(r)
    if not 0.0 < r < math.inf:
        raise ValueError(f"derivative ladder needs a finite r > 0, got {r}")
    table = alpha_coeffs(k)
    total = 0.0
    for j, c in sorted(table.coefficients.items()):
        prof = _profile_value(params.dim + 2 * j, params.s, r)
        total += (-1.0) ** j * c * r ** (2 * j - k) * prof
    return total


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


def heat_kernel(params: KernelParams, x, t: float) -> float:
    """Kernel value p(x, t) > 0 for t > 0."""
    t = _check_time(t)
    x = as_point(x, params.dim)
    sp = params.scaling_power
    r = float(np.linalg.norm(x)) * t ** (-sp)
    return t ** (-params.dim * sp) * _TWO_PI ** (-0.5 * params.dim) * f_radial(params, r)


def kernel_gradient(params: KernelParams, x, t: float) -> np.ndarray:
    """Spatial gradient of the kernel; zero at the origin by symmetry."""
    t = _check_time(t)
    x = as_point(x, params.dim)
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        return np.zeros(params.dim)
    sp = params.scaling_power
    r = nx * t ** (-sp)
    df = d_f_radial(params, 1, r)
    scale = t ** (-(params.dim + 1) * sp) * _TWO_PI ** (-0.5 * params.dim)
    return scale * df * (x / nx)


def kernel_time_derivative(params: KernelParams, x, t: float) -> float:
    """Time derivative of the kernel, through the scaling identity
    p_t = -(d p + x . grad p) / (2 s t)."""
    t = _check_time(t)
    x = as_point(x, params.dim)
    p = heat_kernel(params, x, t)
    g = kernel_gradient(params, x, t)
    return -(params.dim * p + float(np.dot(x, g))) / (2.0 * params.s * t)


def _kernel_hessian(params: KernelParams, x, t: float) -> np.ndarray:
    # radial Hessian: D2F on the x-direction, DF/r on its complement
    t = _check_time(t)
    x = as_point(x, params.dim)
    sp = params.scaling_power
    pref = t ** (-(params.dim + 2) * sp) * _TWO_PI ** (-0.5 * params.dim)
    nx = float(np.linalg.norm(x))
    if nx == 0.0:
        curv = -_profile_value(params.dim + 2, params.s, 0.0)
        return pref * curv * np.eye(params.dim)
    r = nx * t ** (-sp)
    d1 = d_f_radial(params, 1, r)
    d2 = d_f_radial(params, 2, r)
    xh = x / nx
    outer = np.outer(xh, xh)
    return pref * (d2 * outer + (d1 / r) * (np.eye(params.dim) - outer))


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
    beyond the last node the large-radius series takes over.  Build via
    build_profile_table; solver-scale workloads (>= 1e4 evaluations per
    profile) are the intended consumer.
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
        tail_power = params.dim + 2.0 * params.s
        tail_const = values[-1] * nodes[-1] ** tail_power
        if abs(tail_const / ell_limit(params, 0) - 1.0) > 0.05:
            raise ValueError("last node is not in the power-law tail regime")
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
        """Vectorized profile lookup for r >= 0."""
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if np.any(r < 0.0):
            raise ValueError("radius must be nonnegative")
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
    """Sample the profile on a log-spaced grid and wrap it in a table.

    The last node must sit in the power-law tail; construction verifies
    that the series continuation agrees with direct quadrature there to
    1e-7 relative, pushing the boundary outward if it does not.  All
    positive nodes are then evaluated in one batch of the panel sums
    behind f_radial, so every node value equals f_radial there bit for
    bit.
    """
    # the table constructor insists the last node sits where the leading
    # power law dominates; small s decays slowly there, so push the
    # boundary until the first surviving correction term drops below 4%
    dim, s = params.dim, params.s
    coeffs = tail_coefficients(dim, s)
    r_last = _TABLE_LAST
    for j, a in enumerate(coeffs[1:], start=2):
        if a != 0.0:
            ratio = abs(a) / (0.04 * abs(coeffs[0]))
            if ratio > 1.0:
                r_last = max(r_last, ratio ** (1.0 / (2.0 * s * (j - 1))))
            break
    for last in (r_last, 1.5 * r_last, 2.25 * r_last):
        series = float(tail_series(dim, s, np.array([last]))[0])
        direct = float(_profile_values(dim, s, np.array([last]))[0])
        if abs(series / direct - 1.0) <= 1e-7:
            grid = np.concatenate([[0.0], np.geomspace(_TABLE_FIRST, last, _TABLE_NODES)])
            return RadialProfileTable(params, grid, _profile_array(dim, s, grid))
    raise QuadratureError(
        "series continuation never matched direct quadrature",
        IntegralResult(value=direct, error_estimate=abs(series - direct), evaluations=0),
    )


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
    redges = np.concatenate([np.linspace(0.0, 2.0, 17), np.geomspace(2.25, TAIL_CUT, 32)])
    nodes, weights = gauss_legendre(24)
    total = 0.0
    kernel_pref = t ** (-dim * sp) * _TWO_PI ** (-0.5 * dim)
    for a, b in zip(redges[:-1], redges[1:]):
        xa, xb = a * scale, b * scale
        mid, half = 0.5 * (xa + xb), 0.5 * (xb - xa)
        xs = mid + half * nodes
        integrand = kernel_pref * table.evaluate(xs / scale) * xs ** (dim - 1)
        total += half * float(np.dot(weights, integrand))
    bulk = sphere * total
    # analytic tail of the scaled profile integral beyond the cut
    tail = sphere * _TWO_PI ** (-0.5 * dim) * tail_integral(tail_coefficients(dim, s), s, TAIL_CUT)
    return bulk + tail


def verify_kernel_bounds(params: KernelParams, points=None) -> VerificationReport:
    """Measure the kernel against its two-sided scaling envelope.

    For each sampled x and each t of _BOUND_TIMES the kernel, its first
    two derivative orders, and its time derivative are divided by the
    matching envelope min(t-power, |x|-power); the report carries the
    extreme ratios.  The
    check passes when the kernel ratio stays inside the window
    (_RATIO_FLOOR, _RATIO_CEILING) and every derivative ratio stays under
    _RATIO_CEILING, i.e. no vanishing and no blow-up anywhere on the grid.
    """
    dim, s = params.dim, params.s
    sp = params.scaling_power
    if points is None:
        dirs = np.eye(dim)
        radii = np.concatenate([[0.0], np.geomspace(0.05, 50.0, 13)])
        points = [radii[i] * dirs[i % dim] for i in range(len(radii))]
        if dim >= 2:
            points.append(np.full(dim, 10.0 / math.sqrt(dim)))

    def envelope(nx: float, t: float, k: int) -> float:
        first = t ** (-(dim + k) * sp)
        if nx == 0.0:
            return first
        return min(first, t * nx ** (-(dim + 2.0 * s + k)))

    p_lo = (math.inf, None)
    p_hi = (-math.inf, None)
    g_hi = (-math.inf, None)
    h_hi = (-math.inf, None)
    t_hi = (-math.inf, None)
    for t in _BOUND_TIMES:
        for x in points:
            x = as_point(x, dim)
            nx = float(np.linalg.norm(x))
            where = (*x, t)
            ratio = heat_kernel(params, x, t) / envelope(nx, t, 0)
            if ratio < p_lo[0]:
                p_lo = (ratio, where)
            if ratio > p_hi[0]:
                p_hi = (ratio, where)
            grad = kernel_gradient(params, x, t)
            ratio = float(np.max(np.abs(grad))) / envelope(nx, t, 1)
            if ratio > g_hi[0]:
                g_hi = (ratio, where)
            hess = _kernel_hessian(params, x, t)
            ratio = float(np.max(np.abs(hess))) / envelope(nx, t, 2)
            if ratio > h_hi[0]:
                h_hi = (ratio, where)
            pt = kernel_time_derivative(params, x, t)
            env_t = t ** (-dim * sp - 1.0) if nx == 0.0 else min(t ** (-dim * sp - 1.0), nx ** (-(dim + 2.0 * s)))
            ratio = abs(pt) / env_t
            if ratio > t_hi[0]:
                t_hi = (ratio, where)

    report = VerificationReport(suite="kernel-bounds")
    report.add("kernel-ratio-lower", p_lo[0], _RATIO_FLOOR, 0.0, p_lo[0] > _RATIO_FLOOR, p_lo[1])
    report.add("kernel-ratio-upper", p_hi[0], _RATIO_CEILING, 0.0, p_hi[0] < _RATIO_CEILING, p_hi[1])
    report.add("gradient-ratio", g_hi[0], _RATIO_CEILING, 0.0, g_hi[0] < _RATIO_CEILING, g_hi[1])
    report.add("hessian-ratio", h_hi[0], _RATIO_CEILING, 0.0, h_hi[0] < _RATIO_CEILING, h_hi[1])
    report.add("time-derivative-ratio", t_hi[0], _RATIO_CEILING, 0.0, t_hi[0] < _RATIO_CEILING, t_hi[1])
    return report
