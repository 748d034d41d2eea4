"""Pointwise fractional Laplacian of declared function families.

The operator is evaluated in its symmetric second-difference form.  Writing
D(z) = 2u(x) - u(x+z) - u(x-z), the value is

    (c / 2) * integral over R^N of D(z) / |z|^{N+2s} dz

with c the constant that matches the Fourier symbol |xi|^{2s}.  A sphere
rule reduces everything to a radial integral of t^{-1-2s} * S(t), where
S(t) is the spherical sum of second differences at radius t.  On the near
zone [0, r0], S(t)/t^2 extends continuously to t = 0 for C^2 data, so a
Gauss-Jacobi rule with weight t^{1-2s} absorbs the singularity exactly.
The near band sums the differences u(x) - u(x +- t d) per direction, so
they cancel to O(t^2) before the weights add them; its estimate adds the
rounding of the values whose differences cancel, divided by t^2, which
dominates as s nears 1: half an ulp of each datum value and of each
difference, and the rounding the datum declares for u(x)
(FunctionSpec.rounding), which every node shares.  Beyond r0 the 2u(x)
term integrates in closed form, and the pair sums go to families.FarBand,
the far tail this module shares with the solver, with breaks at the kinks
and graded toward the radius where the spheres cross the origin.  Both
bands refine their direction rules through specfun.SphereSweep, the
solver's own level loop, whose estimate adds each band's last drift.  An
exact far field (constant and affine data) has every second difference
0, and so the value 0.

Classification of definiteness is symbolic, keyed on family structure, and
never touches quadrature.  All entry points are pure functions.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.special import roots_jacobi

from .families import FarBand, FunctionSpec, as_point, require_admissible
from .report import VerificationReport
from .specfun import ABS_TOL, SphereSweep, gamma

__all__ = [
    "Definiteness",
    "ClassificationResult",
    "ClassificationUnsupported",
    "FracLapResult",
    "riesz_constant",
    "frac_laplacian",
    "far_band",
    "second_difference_constants",
    "classify_definiteness",
    "vanish_at_infinity_check",
]

_NEAR_NODES = 48
_NEAR_CHECK = 32
_GEO_ORDER = 24
_GEO_CHECK = 16
# vanish_at_infinity_check's bound on the far-to-near magnitude ratio
_DECAY_FRACTION = 0.1
# the smallest split radius: the near band divides by t^2 on nodes down to
# about 1e-6 r0 (s near 1), and the tail multiplies by r0^(-2s), so below
# about 1e-145 the float range runs out; 1e-100 keeps a wide margin
_MIN_SPLIT = 1e-100


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
# Panel plumbing


@lru_cache(maxsize=64)
def _near_rules(s: float) -> tuple[np.ndarray, list[np.ndarray]]:
    """1 + x at the nodes x of the main, then the check Gauss-Jacobi rule of weight (1 + x)^(1-2s), and their weights."""
    rules = [roots_jacobi(order, 0.0, 1.0 - 2.0 * s) for order in (_NEAR_NODES, _NEAR_CHECK)]
    return 1.0 + np.concatenate([xs for xs, _ in rules]), [np.asarray(ws) for _, ws in rules]


def _kink_radii(u: FunctionSpec, x: np.ndarray) -> list[float]:
    if not u.kink_points or u.dim != 1:
        return []
    return [abs(float(x[0]) - k) for k in u.kink_points]


def _origin_radii(x: np.ndarray) -> list[float]:
    # the families centre their structure on the origin, within about a
    # unit of it, and the spheres about x cross it near radius |x|: breaks
    # at |x| and |x| +- 4^k grade the panels toward that crossing, which
    # a geometric panel many units wide would not resolve.  FarBand's
    # panel about the crossing is at most 0.4 |x| wide (ratio 1.4; 0.7 |x|
    # at 1.7 for growing data), so up to |x| = 2.5 it is about a unit wide
    # at most and resolves the crossing unaided
    c = float(np.linalg.norm(x))
    if c <= 2.5:
        return []
    out = [c]
    step = 1.0
    while step <= c:
        out += [c - step, c + step]
        step *= 4.0
    return out


# ---------------------------------------------------------------------------
# Radial regimes (all values are for the raw radial integral, without the
# operator prefactor)


def _near_band(
    u: FunctionSpec, x: np.ndarray, ux: float, s: float, r0: float, pref: float, area: float,
) -> tuple[np.ndarray, Callable]:
    """The near band's radii, both rules' nodes, and its reduce of the differences u(x) - u(x +- t d).

    Twice their sphere integral is the pair sum of second differences at
    t; summed per direction, they cancel to O(t^2) before the weights add
    them.  The sums go on with those of the differences' magnitudes, and
    area is the sphere's.
    """
    fac = 2.0 * pref * (0.5 * r0) ** (2.0 - 2.0 * s)
    shifted, weights = _near_rules(s)
    nodes = 0.5 * r0 * shifted
    main, check = (ws / (ts * ts) for ws, ts in zip(weights, (nodes[:_NEAR_NODES], nodes[_NEAR_NODES:])))
    # u(x)'s rounding in units of 2^-53: |u(x)| unless the datum declares more
    ux_units = abs(ux) if u.rounding is None else 2.0**53 * float(u.rounding(x[None, :], np.array([ux]))[0])
    n = nodes.size

    def reduce(sums: np.ndarray, sl: slice) -> tuple[np.ndarray, np.ndarray]:
        value = fac * (sums[:, :_NEAR_NODES] @ main)
        gap = np.abs(value - fac * (sums[:, _NEAR_NODES:n] @ check))
        # divided by t^2, the rounding of the O(1) values whose differences
        # cancel can dominate: half an ulp of each datum value, at most
        # |u(x)| + |u(x) - u(y)|, and of each difference, and u(x)'s own
        # rounding, which every node shares
        floor = 2.0**-53 * fac * ((area * (ux_units + abs(ux)) + 2.0 * sums[:, n : n + _NEAR_NODES]) @ main)
        return value, gap + floor

    return nodes, reduce


# ---------------------------------------------------------------------------
# Entry points


def frac_laplacian(
    u: FunctionSpec,
    x: Sequence[float] | np.ndarray | float,
    s: float,
) -> FracLapResult:
    """Evaluate the operator at one point.

    The result records the split radius and the near/tail decomposition so
    callers can see where the value came from.  The tail cutoff aims at
    specfun's ABS_TOL on the value, and the angular rules at half the
    budget of SphereSweep, whose drift the estimate adds.  Families whose
    declared growth beats the order are rejected before any quadrature
    runs, as is evaluation exactly on a corner of a piecewise family, and
    data that vary on a scale finer than _MIN_SPLIT.
    """
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
    if r0 < _MIN_SPLIT:
        raise ValueError(
            f"{u.label} varies on too fine a scale for the operator: its split radius "
            f"{r0:.3g} is below {_MIN_SPLIT:g}, and the near band's weight 1/t^2 on radii "
            "under it runs out of the float range"
        )
    if u.is_affine:
        # every sphere mean is u(x), so every second difference vanishes:
        # the operator is 0, where summed data would leave their rounding
        return FracLapResult(value=0.0, near_part=0.0, tail_part=0.0, split_radius=r0, error_estimate=0.0)
    pref = 0.5 * riesz_constant(u.dim, s)
    ux = float(u.value(xa[None, :])[0])
    sweep = SphereSweep(xa[None, :], 1)
    area = 2.0 * sweep.area
    nodes, near = _near_band(u, xa, ux, s, r0, pref, sweep.area)
    sweep.add(lambda y: ux - u.value(y), nodes, near, magnitudes=True)
    band = far_band(u, xa, s, r0, area, ABS_TOL)

    def tail(sums: np.ndarray, sl: slice) -> tuple[np.ndarray, np.ndarray]:
        far, err = band.reduce(2.0 * sums, sl)
        return -far, err

    sweep.add(u.value, band.rhos, tail)
    # the u(x) term, 2u(x) on every sphere past r0 against t^(-1-2s), less
    # the band's closed form
    dc = pref * area * (ux * (r0 ** (-2.0 * s) / (2.0 * s))) - float(band.closed[0])
    _, errs = sweep.refine(dc)
    near_part, tail_part = float(sweep.parts[0][0][0]), dc + float(sweep.parts[1][0][0])
    value = near_part + tail_part
    err = float(errs[0]) + 1e-16 * abs(dc) + 1e-15 * abs(value)
    return FracLapResult(value=value, near_part=near_part, tail_part=tail_part, split_radius=r0, error_estimate=err)


def far_band(u: FunctionSpec, x: np.ndarray, s: float, r0: float, area: float, target: float) -> FarBand:
    """The operator's far band of u about x past r0, for a direction rule of total weight area.

    Weight r^(-1-2s) at scale riesz_constant / 2, with breaks at u's kinks and toward the origin crossing;
    laid by frac_laplacian, and by the 1-D residual over its datum (solver.residual_with_estimate).
    """
    pref = 0.5 * riesz_constant(u.dim, s)
    return FarBand(u, x[None, :], s, r0, 1.0, lambda t: t ** (-1.0 - 2.0 * s), (1.0,), pref, 0.0, area, target,
                   (_GEO_ORDER, _GEO_CHECK), _kink_radii(u, x) + _origin_radii(x))


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
    if len(rs) < 2 or not (rs[0] > 0 and all(b > a for a, b in zip(rs, rs[1:]))):
        raise ValueError("radii must be at least two positive, strictly increasing values")
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
