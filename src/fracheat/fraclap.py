"""Pointwise fractional Laplacian of declared function families.

The operator is evaluated in its symmetric second-difference form.  Writing
D(z) = 2u(x) - u(x+z) - u(x-z), the value is

    (c / 2) * integral over R^N of D(z) / |z|^{N+2s} dz

with c the constant that matches the Fourier symbol |xi|^{2s}.  A sphere
rule reduces everything to a radial integral of t^{-1-2s} * S(t), where
S(t) is the spherical sum of second differences at radius t.  The radial
line is handled in three regimes:

  * near zone [0, r0]: S(t)/t^2 extends continuously to t = 0 for C^2
    data, so a Gauss-Jacobi rule with weight t^{1-2s} absorbs the
    singularity exactly;
  * bounded data beyond r0: the non-vanishing mean of S integrates in
    closed form; the remainder is summed over panels, and oscillatory
    remainders go through half-period panels whose partial sums are
    repeatedly averaged until they settle;
  * growing data beyond r0: geometric panels walk outward to a radius at
    which the declared growth envelope certifies the leftover integral,
    which sits very far out when the growth is near the integrability
    edge.

The principal-value variant exposes the truncated integral per cutoff and
shares the tail machinery.  Classification of definiteness is symbolic,
keyed on family structure, and never touches quadrature.  All entry points
are pure functions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import roots_jacobi

from .families import FunctionSpec, as_point, require_admissible
from .report import VerificationReport
from .specfun import ABS_TOL, averaged_limit, gamma, nested_pair_sums, pair_sums, panel_rule, sphere_rule

__all__ = [
    "Definiteness",
    "ClassificationResult",
    "ClassificationUnsupported",
    "FracLapResult",
    "riesz_constant",
    "frac_laplacian",
    "frac_laplacian_pv",
    "second_difference_constants",
    "second_difference_tail_bound",
    "classify_definiteness",
    "vanish_at_infinity_check",
]

_NEAR_NODES = 48
_NEAR_CHECK = 32
_OSC_ORDER = 12
_OSC_PANELS = 72
_GEO_ORDER = 24
_GEO_CHECK = 16
_RADIUS_CAP = 1e40
# vanish_at_infinity_check's bound on the far-to-near magnitude ratio
_DECAY_FRACTION = 0.1


def riesz_constant(dim: int, s: float) -> float:
    """Normalization making the second-difference integral match the symbol |xi|^{2s}."""
    if dim < 1 or dim != int(dim):
        raise ValueError("dim must be a positive integer")
    if not 0.0 < s < 1.0:
        raise ValueError("order s must lie in (0, 1)")
    return (
        2.0 ** (2.0 * s)
        * s
        * gamma(0.5 * dim + s)
        / (math.pi ** (0.5 * dim) * gamma(1.0 - s))
    )


class Definiteness(enum.Enum):
    """How the operator behaves on a family, without any quadrature."""

    CONVERGES_EVERYWHERE = "converges-everywhere"
    IDENTICALLY_ZERO = "identically-zero"
    NEGATIVE_INFINITE = "negative-infinite"
    INDEFINITE = "indefinite"


class ClassificationUnsupported(ValueError):
    """The family sits outside the symbolic catalogue."""


@dataclass(frozen=True)
class ClassificationResult:
    """Outcome of symbolic classification.

    ``location`` pins the point where the value degenerates to minus
    infinity when that happens at an isolated point; it stays None when the
    degeneration is global or absent.
    """

    outcome: Definiteness
    location: Optional[tuple[float, ...]] = None
    reason: str = ""


@dataclass(frozen=True)
class FracLapResult:
    """Operator value split into its near and far contributions.

    value == near_part + tail_part by construction; error_estimate bounds
    the quadrature and truncation error of the sum.
    """

    value: float
    near_part: float
    tail_part: float
    split_radius: float
    error_estimate: float

    def __post_init__(self) -> None:
        if self.split_radius <= 0:
            raise ValueError("split_radius must be positive")
        if self.error_estimate < 0:
            raise ValueError("error_estimate must be non-negative")


# ---------------------------------------------------------------------------
# Angular refinement and second differences


_MAX_LEVEL = {1: 0, 2: 6, 3: 4}


def _angular_rule(
    u: FunctionSpec,
    x: np.ndarray,
    s: float,
    r0: float,
    r_active: float,
    tol: float,
) -> tuple[np.ndarray, np.ndarray, float]:
    """Pick an angular resolution by probing successive refinements.

    Compares the de-singularized radial contribution of two consecutive
    rules on a log grid of probe radii and refines until the difference is
    under tol or the level cap is hit.  Returns the finer rule and the last
    measured angular defect, which the caller folds into its error budget.
    Where the rules nest (2-D), a finer probe sum reuses the coarser one
    and evaluates only the new directions.
    """
    dirs, dwts = sphere_rule(u.dim, 0)  # refuses dim > 3 before the cap lookup
    cap = _MAX_LEVEL[u.dim]
    if cap == 0:
        return dirs, dwts, 0.0
    probes = np.geomspace(r0, max(r_active, 2.0 * r0), 24)
    dlog = math.log(probes[-1] / probes[0]) / (probes.size - 1)
    coarse, kept = nested_pair_sums(u.value, x[None, :], probes, dirs, dwts, None)
    level = 0
    while True:
        dirs, dwts = sphere_rule(u.dim, level + 1)
        fine, kept = nested_pair_sums(u.value, x[None, :], probes, dirs, dwts, kept)
        defect = float(np.sum(np.abs(fine[0] - coarse[0]) * probes ** (-2.0 * s)) * dlog)
        if defect <= tol or level + 1 >= cap:
            return dirs, dwts, defect
        coarse = fine
        level += 1


def _second_diff_sum(
    u: FunctionSpec,
    x: np.ndarray,
    ux: float,
    ts: np.ndarray,
    dirs: np.ndarray,
    dwts: np.ndarray,
) -> np.ndarray:
    area = 2.0 * float(dwts.sum())
    return area * ux - pair_sums(u.value, x[None, :], ts, dirs, dwts)[0]


# ---------------------------------------------------------------------------
# Panel plumbing


@lru_cache(maxsize=64)
def _jacobi_rule(order: int, weight_exp: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = roots_jacobi(order, 0.0, weight_exp)
    return np.asarray(x), np.asarray(w)


def _geometric_edges(a: float, b: float, ratio: float) -> np.ndarray:
    n = max(1, int(math.ceil(math.log(b / a) / math.log(ratio))))
    return a * ratio ** np.arange(n + 1)


def _insert_breaks(edges: np.ndarray, breaks: Sequence[float]) -> np.ndarray:
    inside = [t for t in breaks if edges[0] < t < edges[-1]]
    if not inside:
        return edges
    return np.unique(np.concatenate([edges, np.asarray(inside)]))


def _kink_radii(u: FunctionSpec, x: np.ndarray) -> list[float]:
    if not u.kink_points or u.dim != 1:
        return []
    return [abs(float(x[0]) - k) for k in u.kink_points]


def _geometric_panels(
    values: Callable[[np.ndarray], np.ndarray], edges: np.ndarray, s: float
) -> tuple[float, float]:
    """Integral of t^{-1-2s} values(t) over the panels, with the order-pair difference."""
    out = []
    for order in (_GEO_ORDER, _GEO_CHECK):
        ts, ws = panel_rule(edges, order)
        flat = ts.ravel()
        integ = (flat ** (-1.0 - 2.0 * s) * values(flat)).reshape(ts.shape)
        out.append(float(np.sum(ws * integ)))
    return out[0], abs(out[0] - out[1])


# ---------------------------------------------------------------------------
# Radial regimes (all values are for the raw radial integral, without the
# operator prefactor)


def _near_band(
    u: FunctionSpec,
    x: np.ndarray,
    ux: float,
    s: float,
    dirs: np.ndarray,
    dwts: np.ndarray,
    r0: float,
) -> tuple[float, float]:
    vals = []
    for order in (_NEAR_NODES, _NEAR_CHECK):
        xs, ws = _jacobi_rule(order, 1.0 - 2.0 * s)
        ts = 0.5 * r0 * (1.0 + xs)
        h = _second_diff_sum(u, x, ux, ts, dirs, dwts) / (ts * ts)
        vals.append((0.5 * r0) ** (2.0 - 2.0 * s) * float(np.dot(ws, h)))
    return vals[0], abs(vals[0] - vals[1])


def _band_panels(
    u: FunctionSpec,
    x: np.ndarray,
    ux: float,
    s: float,
    dirs: np.ndarray,
    dwts: np.ndarray,
    a: float,
    b: float,
) -> tuple[float, float]:
    """Integral over a strictly positive band [a, b], for truncated variants."""
    edges = _insert_breaks(_geometric_edges(a, b, 1.5), _kink_radii(u, x))
    edges[-1] = b
    return _geometric_panels(
        lambda ts: _second_diff_sum(u, x, ux, ts, dirs, dwts), edges, s
    )


def _tail_bounded(
    u: FunctionSpec,
    x: np.ndarray,
    ux: float,
    s: float,
    dirs: np.ndarray,
    dwts: np.ndarray,
    r0: float,
    rem_target: float,
) -> tuple[float, float]:
    area = 2.0 * float(dwts.sum())
    mean = u.tail_mean
    dc = area * (ux - mean) * r0 ** (-2.0 * s) / (2.0 * s)

    def rest_values(ts: np.ndarray) -> np.ndarray:
        return area * mean - pair_sums(u.value, x[None, :], ts, dirs, dwts)[0]

    if u.osc_scale is not None:
        # half-period panels; a short quarter-period prefix resolves the
        # steep t^{-1-2s} start before the uniform alternating stretch
        h = math.pi / u.osc_scale
        fine = r0 + (h / 4.0) * np.arange(9)
        coarse = fine[-1] + h * np.arange(_OSC_PANELS + 1)
        edges = np.concatenate([fine, coarse[1:]])
        ts, ws = panel_rule(edges, _OSC_ORDER)
        flat = ts.ravel()
        integ = (flat ** (-1.0 - 2.0 * s) * rest_values(flat)).reshape(ts.shape)
        panel_ints = np.sum(ws * integ, axis=1)
        prefix = float(np.sum(panel_ints[:8]))
        partials = prefix + np.cumsum(panel_ints[8:])
        rest, rest_err = map(float, averaged_limit(partials))
        return dc + rest, rest_err + 1e-16 * abs(dc)

    # no oscillation: geometric panels out to where the sup bound on the
    # de-meaned values certifies the leftover
    c_rest = area * (abs(mean) + u.envelope.amplitude)
    if c_rest > 0 and rem_target > 0:
        r_stop = (c_rest / (2.0 * s * rem_target)) ** (1.0 / (2.0 * s))
    else:
        r_stop = 10.0 * r0
    r_stop = min(max(r_stop, 4.0 * r0), _RADIUS_CAP)
    edges = _insert_breaks(_geometric_edges(r0, r_stop, 1.4), _kink_radii(u, x))
    rest, rest_err = _geometric_panels(rest_values, edges, s)
    leftover = c_rest * float(edges[-1]) ** (-2.0 * s) / (2.0 * s)
    return dc + rest, rest_err + leftover


def _tail_growing(
    u: FunctionSpec,
    x: np.ndarray,
    ux: float,
    s: float,
    dirs: np.ndarray,
    dwts: np.ndarray,
    r0: float,
    rem_target: float,
) -> tuple[float, float]:
    area = 2.0 * float(dwts.sum())
    env = u.envelope
    beta = env.power
    gap = 2.0 * s - beta
    xnorm = float(np.linalg.norm(x))
    c0 = area * (abs(ux) + env.amplitude + env.slope * (2.0 ** beta) * xnorm**beta)
    c1 = area * env.slope * 2.0 ** beta

    # push the cutoff until both envelope remainder terms fall under target
    target = max(rem_target, 1e-300)
    log_r = math.log(4.0 * r0)
    if c0 > 0:
        log_r = max(log_r, math.log(c0 / (2.0 * s * 0.5 * target)) / (2.0 * s))
    if c1 > 0:
        log_r = max(log_r, math.log(c1 / (gap * 0.5 * target)) / gap)
    r_stop = min(math.exp(min(log_r, math.log(_RADIUS_CAP))), _RADIUS_CAP)

    edges = _insert_breaks(_geometric_edges(r0, r_stop, 1.7), _kink_radii(u, x))
    value, err = _geometric_panels(
        lambda ts: _second_diff_sum(u, x, ux, ts, dirs, dwts), edges, s
    )
    r_end = float(edges[-1])
    leftover = c0 * r_end ** (-2.0 * s) / (2.0 * s) + c1 * r_end ** (-gap) / gap
    return value, err + leftover


def _tail_from(
    u: FunctionSpec,
    x: np.ndarray,
    ux: float,
    s: float,
    dirs: np.ndarray,
    dwts: np.ndarray,
    r0: float,
    rem_target: float,
) -> tuple[float, float]:
    if u.envelope.slope > 0:
        return _tail_growing(u, x, ux, s, dirs, dwts, r0, rem_target)
    return _tail_bounded(u, x, ux, s, dirs, dwts, r0, rem_target)


# ---------------------------------------------------------------------------
# Entry points


def _prepare(
    u: FunctionSpec,
    x: Sequence[float] | np.ndarray,
    s: float,
) -> tuple[np.ndarray, float, np.ndarray, np.ndarray, float, float, float]:
    if not 0.0 < s < 1.0:
        raise ValueError("order s must lie in (0, 1)")
    xa = as_point(x, u.dim)
    require_admissible(u, s)
    kinks = _kink_radii(u, xa)
    if kinks and min(kinks) < 1e-12:
        raise ValueError(
            f"{u.label} is not twice differentiable at {xa[0]:g}; "
            "numeric evaluation on a corner is refused"
        )
    r0 = 1.0 if u.osc_scale is None else min(1.0, math.pi / (2.0 * u.osc_scale))
    if kinks:
        r0 = min(r0, 0.5 * min(kinks))
    pref = 0.5 * riesz_constant(u.dim, s)
    if u.osc_scale is not None:
        r_active = r0 + (2.25 + _OSC_PANELS) * math.pi / u.osc_scale
    else:
        r_active = 1e4
    dirs, dwts, ang_err = _angular_rule(
        u, xa, s, r0, r_active, 0.25 * ABS_TOL / pref
    )
    ux = float(u.value(xa[None, :])[0])
    return xa, ux, dirs, dwts, r0, pref, ang_err


def frac_laplacian(
    u: FunctionSpec,
    x: Sequence[float] | np.ndarray | float,
    s: float,
) -> FracLapResult:
    """Evaluate the operator at one point.

    The result records the split radius and the near/tail decomposition so
    callers can see where the value came from.  The angular rule and the
    tail cutoff aim at specfun's ABS_TOL on the value.  Families whose
    declared growth beats the order are rejected before any quadrature
    runs, as is evaluation exactly on a corner of a piecewise family.
    """
    xa, ux, dirs, dwts, r0, pref, ang_err = _prepare(u, x, s)
    near, near_err = _near_band(u, xa, ux, s, dirs, dwts, r0)
    tail, tail_err = _tail_from(u, xa, ux, s, dirs, dwts, r0, ABS_TOL / pref)
    value = pref * (near + tail)
    err = pref * (near_err + tail_err + ang_err) + 1e-15 * abs(value)
    return FracLapResult(
        value=value,
        near_part=pref * near,
        tail_part=pref * tail,
        split_radius=r0,
        error_estimate=err,
    )


def frac_laplacian_pv(
    u: FunctionSpec,
    x: Sequence[float] | np.ndarray | float,
    s: float,
    epsilons: Sequence[float],
) -> np.ndarray:
    """Truncated integrals outside balls of the given radii, one value per radius.

    The values converge to :func:`frac_laplacian` as the cutoff shrinks.
    Requesting them for a family whose far tail is not absolutely
    integrable raises, since then no truncation limit exists.
    """
    eps = np.asarray(list(epsilons), dtype=float)
    if eps.size == 0 or np.any(eps <= 0):
        raise ValueError("cutoff radii must be positive")
    xa, ux, dirs, dwts, r0, pref, _ = _prepare(u, x, s)
    rem_target = ABS_TOL / pref
    tail_val, _ = _tail_from(u, xa, ux, s, dirs, dwts, r0, rem_target)
    out = np.empty(eps.size)
    for i, e in enumerate(eps):
        if e < r0:
            band, _ = _band_panels(u, xa, ux, s, dirs, dwts, e, r0)
            out[i] = pref * (band + tail_val)
        elif e == r0:
            out[i] = pref * tail_val
        else:
            far, _ = _tail_from(u, xa, ux, s, dirs, dwts, float(e), rem_target)
            out[i] = pref * far
    return out


def second_difference_constants(u: FunctionSpec) -> tuple[float, float, float]:
    """Constants (a, b, rate) of the bound |2u(x) - u(x+z) - u(x-z)| <= a + b |z|^(2-rate).

    The bound holds uniformly in x.  From a declared curvature decay
    ||D^2 u(x)|| <= coeff |x|^{-rate}, it splits at |x| = 2|z| into a
    Taylor case and a raw growth case, which is where the odd-looking
    3^{2-rate} comes from.  Bounded data
    declaring no decay get the plain a = 4 sup|u| and b = 0.  Convolution
    with a probability kernel keeps the bound, so it holds for the solution
    at every time too.
    """
    env = u.envelope
    if u.hessian_decay is not None:
        coeff, rate = u.hessian_decay
        if rate <= 0:
            raise ValueError("curvature decay rate must be positive")
        return 4.0 * env.amplitude, max(coeff, 4.0 * env.slope * 3.0 ** (2.0 - rate)), rate
    if env.slope == 0.0:
        return 4.0 * env.amplitude, 0.0, 2.0
    raise ValueError(
        f"{u.label} declares neither curvature decay nor boundedness; "
        "its second differences have no uniform bound"
    )


def second_difference_tail_bound(u: FunctionSpec, offset_norm: float) -> float:
    """Uniform-in-x bound on |2u(x) - u(x+z) - u(x-z)| for |z| = offset_norm.

    Needs a declared curvature decay; the constants come from
    :func:`second_difference_constants`.
    """
    if offset_norm < 0:
        raise ValueError("offset_norm must be non-negative")
    if u.hessian_decay is None:
        raise ValueError(f"{u.label} declares no curvature decay; the bound needs one")
    amp, slope, rate = second_difference_constants(u)
    return amp + slope * offset_norm ** (2.0 - rate)


def classify_definiteness(u: FunctionSpec, s: float) -> ClassificationResult:
    """Symbolic definiteness of the operator on a catalogued family.

    The rules come down to three effects: odd cancellation of affine parts
    (complete only when the linear tails are themselves integrable, i.e.
    s > 1/2), corners forcing a one-signed non-integrable near term, and
    growth at or above the order forcing a one-signed far term.
    """
    if not 0.0 < s < 1.0:
        raise ValueError("order s must lie in (0, 1)")
    fam = u.family
    if fam == "constant":
        return ClassificationResult(
            Definiteness.IDENTICALLY_ZERO, reason="second differences vanish"
        )
    if fam == "affine":
        if u.params[1] == 0.0:
            return ClassificationResult(
                Definiteness.IDENTICALLY_ZERO, reason="second differences vanish"
            )
        if s > 0.5:
            return ClassificationResult(
                Definiteness.IDENTICALLY_ZERO,
                reason="odd cancellation with integrable linear tails",
            )
        return ClassificationResult(
            Definiteness.INDEFINITE,
            reason="the two linear tails diverge with opposite signs",
        )
    if fam == "piecewise_linear_1d":
        lam = u.params[0]
        if lam == 1.0:
            return classify_definiteness(_as_affine(u), s)
        if lam > 1.0:
            raise ClassificationUnsupported(
                f"{u.label}: concave corner is outside the catalogue"
            )
        if s >= 0.5:
            return ClassificationResult(
                Definiteness.NEGATIVE_INFINITE,
                location=(0.0,),
                reason="corner makes the near integrand one-signed and non-integrable",
            )
        if lam <= 0.0:
            return ClassificationResult(
                Definiteness.NEGATIVE_INFINITE,
                location=(0.0,),
                reason="both far tails pull down and are not integrable",
            )
        return ClassificationResult(
            Definiteness.INDEFINITE,
            reason="far tails diverge with opposite signs",
        )
    if fam in ("abs_power", "ruled"):
        if u.envelope.power < 2.0 * s:
            return ClassificationResult(
                Definiteness.CONVERGES_EVERYWHERE,
                reason="smooth with growth below the order",
            )
        return ClassificationResult(
            Definiteness.NEGATIVE_INFINITE,
            reason="growth at or above the order makes every far integral diverge",
        )
    if fam in ("cosine", "gaussian"):
        return ClassificationResult(
            Definiteness.CONVERGES_EVERYWHERE, reason="bounded and smooth"
        )
    raise ClassificationUnsupported(f"no symbolic rule for family {fam!r}")


def _as_affine(u: FunctionSpec) -> FunctionSpec:
    from .families import affine

    return affine(0.0, 1.0, dim=u.dim)


def vanish_at_infinity_check(
    u: FunctionSpec,
    s: float,
    radii: Sequence[float] = (1.0, 10.0, 100.0),
) -> VerificationReport:
    """Check that operator values fade along the first axis, as declared decay predicts.

    The magnitude at the last radius must fall under _DECAY_FRACTION of
    the one at the first.  Runs even when the hypotheses fail, so families
    without curvature decay act as negative controls: the report then
    fails on the hypothesis record and usually on the measured decay as
    well.
    """
    rs = [float(r) for r in radii]
    if len(rs) < 2 or any(r <= 0 for r in rs) or sorted(rs) != rs:
        raise ValueError("radii must be at least two positive increasing values")
    d = np.zeros(u.dim)
    d[0] = 1.0

    report = VerificationReport(suite="vanish-at-infinity")
    report.add(
        name="curvature-decay-declared",
        measured=1.0 if u.hessian_decay is not None else 0.0,
        bound=1.0,
        tolerance=0.0,
        passed=u.hessian_decay is not None,
    )
    mags = [abs(frac_laplacian(u, r * d, s).value) for r in rs]
    ratio = mags[-1] / max(mags[0], 1e-300)
    report.add(
        name="far-field-decay",
        measured=ratio,
        bound=_DECAY_FRACTION,
        tolerance=0.0,
        passed=ratio < _DECAY_FRACTION,
        worst_point=tuple(rs[-1] * d),
    )
    tail_ratios = [
        mags[i + 1] / max(mags[i], 1e-300) for i in range(1, len(mags) - 1)
    ]
    worst = max(tail_ratios) if tail_ratios else 0.0
    report.add(
        name="tail-monotone",
        measured=worst,
        bound=1.0,
        tolerance=0.05,
        passed=worst <= 1.05,
    )
    return report
