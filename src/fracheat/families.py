"""Function families used as data and as test hypotheses.

Every family packages one vectorized value evaluator together with the
structural metadata the operator and solver layers dispatch on: a power
growth envelope, convexity, Hessian decay, kink points, oscillation
frequency, and the asymptotic mean of the values far out.  Nothing here
evaluates derivatives; what the layers need of them is declared as
metadata.  A point array has shape (..., dim) and values come back with
shape (...,).

Families can also be constructed from compact text of the form
``"family:p1,p2"``, which is the notation the command line accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

__all__ = [
    "GrowthEnvelope",
    "FunctionSpec",
    "as_point",
    "require_admissible",
    "constant",
    "affine",
    "cosine",
    "gaussian",
    "abs_power",
    "piecewise_linear_1d",
    "ruled",
    "parse_spec",
]


@dataclass(frozen=True)
class GrowthEnvelope:
    """Pointwise bound |u(x)| <= amplitude + slope * |x| ** power.

    A bounded function declares ``slope == 0``; then ``power`` is ignored.
    Whether a growing envelope is admissible depends on the operator order,
    so that check lives in :meth:`admissible_for` rather than here.
    """

    amplitude: float
    slope: float
    power: float = 0.0

    def __post_init__(self) -> None:
        if not (self.amplitude >= 0 and math.isfinite(self.amplitude)):
            raise ValueError("envelope amplitude must be finite and >= 0")
        if not (self.slope >= 0 and math.isfinite(self.slope)):
            raise ValueError("envelope slope must be finite and >= 0")
        if not (self.power >= 0 and math.isfinite(self.power)):
            raise ValueError("envelope power must be finite and >= 0")

    def admissible_for(self, s: float) -> bool:
        """True when the far tail |x|^{power - dim - 2s} is integrable."""
        return self.slope == 0.0 or self.power < 2.0 * s

    def bound(self, radii: np.ndarray | float) -> np.ndarray | float:
        r = np.abs(radii)
        if self.slope == 0.0:
            return self.amplitude + 0.0 * r
        return self.amplitude + self.slope * r**self.power


@dataclass(eq=False)
class FunctionSpec:
    """A concrete function with its value evaluator and declared structure.

    value takes an array of shape (..., dim) and returns shape (...,).  It
    may receive a view that is not C-contiguous, such as the (n, dim)
    transpose that specfun.pair_sums passes, whose coordinates are
    contiguous columns.
    The metadata fields are promises the quadrature and classification
    code relies on; factories in this module set them honestly and tests
    spot-check the promises.

    hessian_decay, when present, is a pair (coeff, rate) asserting
    ||D^2 u(x)|| <= coeff * |x| ** (-rate) for |x| >= 1.  Families that are
    not C^2 or whose Hessian does not decay leave it as None.  kink_points
    lists the 1-D corners where u is not C^2; it is empty for smooth data.
    """

    family: str
    params: tuple[float, ...]
    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    envelope: GrowthEnvelope
    convex: bool
    hessian_decay: Optional[tuple[float, float]] = None
    sup_value: Optional[float] = None
    inf_value: Optional[float] = None
    osc_scale: Optional[float] = None
    tail_mean: float = 0.0
    is_affine: bool = False
    kink_points: tuple[float, ...] = ()
    ruled_directions: tuple[tuple[float, ...], ...] = ()
    exp_envelope: Optional[tuple[float, float]] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not self.label:
            args = ",".join(f"{p:g}" for p in self.params)
            self.label = f"{self.family}:{args}" if args else self.family

    def __call__(self, points: np.ndarray | Sequence[float]) -> np.ndarray:
        return self.value(np.asarray(points, dtype=float))

    def at(self, point: Sequence[float] | float) -> float:
        """Value at a single point given as a scalar (1-D) or coordinate sequence."""
        return float(self.value(as_point(point, self.dim)[np.newaxis, :])[0])


def as_point(x, dim: int) -> np.ndarray:
    """One point of R^dim as a float array of shape (dim,), refusing non-finite input.

    The shared check of every public entry point that takes a single point;
    a scalar is accepted in 1-D.
    """
    arr = np.atleast_1d(np.asarray(x, dtype=float))
    if arr.shape != (dim,):
        raise ValueError(f"point must have exactly {dim} coordinates, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"point x must be finite, got {arr.tolist()}")
    return arr


def require_admissible(u: FunctionSpec, s: float) -> None:
    """Refuse data whose growth envelope is not integrable against order s.

    The shared growth check of the operator and the solver: both integrate
    the data against a weight decaying like |x|^{-dim-2s}.
    """
    env = u.envelope
    if not env.admissible_for(s):
        raise ValueError(
            f"growth envelope |u| <= {env.amplitude:g} + {env.slope:g}|x|^{env.power:g} "
            f"of {u.label} is not integrable against order s={s:g}; the integral "
            f"does not converge unless power < 2s = {2 * s:g}"
        )


def _point_array(pts: np.ndarray, dim: int) -> np.ndarray:
    a = np.asarray(pts, dtype=float)
    if a.ndim == 0 or a.shape[-1] != dim:
        raise ValueError(f"expected trailing axis of length {dim}, got shape {a.shape}")
    return a


def _sq_norm(a: np.ndarray) -> np.ndarray:
    """|x|^2 over the trailing axis, adding a[..., k] * a[..., k] column by column.

    Below 8 coordinates numpy's sum also adds in order, so the bits equal
    those of np.sum(a * a, axis=-1) in any memory order; this form skips
    the (..., dim) temporary and the reduction over a short axis.
    """
    out = a[..., 0] * a[..., 0]
    for k in range(1, a.shape[-1]):
        out += a[..., k] * a[..., k]
    return out


def _quadratic_exp_amplitude(profile: Callable[[np.ndarray], np.ndarray]) -> float:
    # smallest A with |u| <= A * exp(r^2/4) along the sampled ray; the rate
    # 1/4 is the package convention for polynomially bounded data, giving a
    # guaranteed classical lifespan of 1
    r = np.linspace(0.0, 60.0, 4001)
    vals = np.abs(profile(r)) * np.exp(-0.25 * r * r)
    return float(vals.max()) * (1.0 + 1e-9)


def constant(c: float, dim: int = 1) -> FunctionSpec:
    """The constant function u = c."""
    c = float(c)

    def value(pts: np.ndarray) -> np.ndarray:
        a = _point_array(pts, dim)
        return np.full(a.shape[:-1], c)

    return FunctionSpec(
        family="constant",
        params=(c,),
        dim=dim,
        value=value,
        envelope=GrowthEnvelope(abs(c), 0.0, 0.0),
        convex=True,
        hessian_decay=(0.0, 2.0),
        sup_value=c,
        inf_value=c,
        tail_mean=c,
        is_affine=True,
        exp_envelope=(abs(c), 0.0),
    )


def affine(offset: float, slope: float, dim: int = 1) -> FunctionSpec:
    """u(x) = offset + slope * x_1.  The slope axis is the first coordinate."""
    offset = float(offset)
    slope = float(slope)

    def value(pts: np.ndarray) -> np.ndarray:
        a = _point_array(pts, dim)
        return offset + slope * a[..., 0]

    bounded = slope == 0.0
    return FunctionSpec(
        family="affine",
        params=(offset, slope),
        dim=dim,
        value=value,
        envelope=GrowthEnvelope(abs(offset), abs(slope), 1.0),
        convex=True,
        hessian_decay=(0.0, 1.0),
        sup_value=offset if bounded else None,
        inf_value=offset if bounded else None,
        tail_mean=offset if bounded else 0.0,
        is_affine=True,
        exp_envelope=(
            _quadratic_exp_amplitude(lambda r: abs(offset) + abs(slope) * r),
            0.25 if slope else 0.0,
        ),
    )


def cosine(freq: float, dim: int = 1) -> FunctionSpec:
    """u(x) = cos(freq * x_1), the eigenfunction used for multiplier checks."""
    freq = float(freq)
    if freq <= 0:
        raise ValueError("freq must be positive")

    def value(pts: np.ndarray) -> np.ndarray:
        a = _point_array(pts, dim)
        return np.cos(freq * a[..., 0])

    return FunctionSpec(
        family="cosine",
        params=(freq,),
        dim=dim,
        value=value,
        envelope=GrowthEnvelope(1.0, 0.0, 0.0),
        convex=False,
        hessian_decay=None,  # curvature does not decay; deliberate negative control
        sup_value=1.0,
        inf_value=-1.0,
        osc_scale=freq,
        tail_mean=0.0,
        exp_envelope=(1.0, 0.0),
    )


def gaussian(rate: float = 1.0, dim: int = 1) -> FunctionSpec:
    """u(x) = exp(-rate * |x|^2)."""
    rate = float(rate)
    if rate <= 0:
        raise ValueError("rate must be positive")

    def value(pts: np.ndarray) -> np.ndarray:
        a = _point_array(pts, dim)
        return np.exp(-rate * _sq_norm(a))

    # ||D^2 u|| = exp(-rate r^2) max(|4 rate^2 r^2 - 2 rate|, 2 rate); the
    # declared decay coefficient is the sampled max of r^2 * ||D^2 u|| on
    # r >= 1, padded a little
    r = np.geomspace(1.0, 30.0 / math.sqrt(rate), 4000)
    norms = np.exp(-rate * r * r) * np.maximum(np.abs(4 * rate**2 * r**2 - 2 * rate), 2 * rate)
    coeff = float((r * r * norms).max()) * 1.01

    return FunctionSpec(
        family="gaussian",
        params=(rate,),
        dim=dim,
        value=value,
        envelope=GrowthEnvelope(1.0, 0.0, 0.0),
        convex=False,
        hessian_decay=(coeff, 2.0),
        sup_value=1.0,
        inf_value=0.0,
        tail_mean=0.0,
        exp_envelope=(1.0, 0.0),
    )


def abs_power(power: float, dim: int = 1) -> FunctionSpec:
    """u(x) = (1 + |x|^2) ** (power/2), the smooth |x|^power with a regular origin.

    Convex exactly when power >= 1 (up to the supported power 2).  Since
    t -> t^{power/2} is subadditive for power <= 2, the envelope constants
    can both be taken equal to 1.
    """
    b = float(power)
    if not 0 < b <= 2:
        raise ValueError("power must lie in (0, 2]")

    def value(pts: np.ndarray) -> np.ndarray:
        a = _point_array(pts, dim)
        return (1.0 + _sq_norm(a)) ** (0.5 * b)

    # ||D^2 u|| <= b (1 + |2-b|) (1+r^2)^{b/2-1} <= b (3-b) r^{b-2} on r >= 1
    decay = (b * (1.0 + abs(2.0 - b)), 2.0 - b) if b < 2 else None

    return FunctionSpec(
        family="abs_power",
        params=(b,),
        dim=dim,
        value=value,
        envelope=GrowthEnvelope(1.0, 1.0, b),
        convex=b >= 1.0,
        hessian_decay=decay,
        sup_value=None,
        inf_value=1.0,
        tail_mean=0.0,
        exp_envelope=(
            _quadratic_exp_amplitude(lambda r: (1.0 + r * r) ** (0.5 * b)),
            0.25,
        ),
    )


def piecewise_linear_1d(left_slope: float) -> FunctionSpec:
    """u(x) = x on x >= 0 and left_slope * x on x < 0, with a corner at the origin.

    Convex when left_slope <= 1.  Not C^2, so no Hessian decay is declared
    and quadrature at the corner itself is refused upstream.
    """
    lam = float(left_slope)

    def value(pts: np.ndarray) -> np.ndarray:
        a = _point_array(pts, 1)
        x = a[..., 0]
        return np.where(x >= 0.0, x, lam * x)

    return FunctionSpec(
        family="piecewise_linear_1d",
        params=(lam,),
        dim=1,
        value=value,
        envelope=GrowthEnvelope(0.0, max(1.0, abs(lam)), 1.0),
        convex=lam <= 1.0,
        hessian_decay=None,
        sup_value=None,
        inf_value=0.0 if lam <= 0.0 else None,
        kink_points=(0.0,),
        exp_envelope=(
            _quadratic_exp_amplitude(lambda r: max(1.0, abs(lam)) * r),
            0.25,
        ),
    )


def ruled(profile_power: float, dim: int = 2) -> FunctionSpec:
    """A cylinder function: the abs_power profile in x_1, flat along every other axis.

    The flat directions are recorded so invariance checks know which
    translations must leave the values alone.  The Hessian degenerates along
    the rulings, hence no radial decay can be declared even though the
    profile itself has one.
    """
    if dim < 2:
        raise ValueError("ruled families need dim >= 2")
    base = abs_power(profile_power, dim=1)

    def value(pts: np.ndarray) -> np.ndarray:
        a = _point_array(pts, dim)
        return base.value(a[..., :1])

    rulings = tuple(
        tuple(1.0 if i == ax else 0.0 for i in range(dim)) for ax in range(1, dim)
    )
    return FunctionSpec(
        family="ruled",
        params=(float(profile_power),),
        dim=dim,
        value=value,
        envelope=base.envelope,
        convex=base.convex,
        hessian_decay=None,
        sup_value=None,
        inf_value=1.0,
        tail_mean=0.0,
        ruled_directions=rulings,
        exp_envelope=base.exp_envelope,
    )


_FACTORIES: dict[str, tuple[Callable[..., FunctionSpec], int]] = {
    "constant": (constant, 1),
    "affine": (affine, 2),
    "cosine": (cosine, 1),
    "gaussian": (gaussian, 1),
    "abs_power": (abs_power, 1),
    "piecewise_linear_1d": (piecewise_linear_1d, 1),
    "ruled": (ruled, 1),
}


def parse_spec(text: str, dim: int | None = None) -> FunctionSpec:
    """Build a family from ``"name:p1,p2"`` text, e.g. ``"cosine:1"``.

    Parameters are the factory's positional arguments.  ``dim`` overrides
    the ambient dimension for families that support one; the ruled family
    defaults to dimension 2.
    """
    name, _, arg_text = text.strip().partition(":")
    name = name.strip()
    if name not in _FACTORIES:
        known = ", ".join(sorted(_FACTORIES))
        raise ValueError(f"unknown family {name!r}; known families: {known}")
    factory, nargs = _FACTORIES[name]
    try:
        args = [float(tok) for tok in arg_text.split(",") if tok.strip()] if arg_text else []
    except ValueError as exc:
        raise ValueError(f"bad parameter list {arg_text!r} for family {name!r}") from exc
    if len(args) != nargs:
        raise ValueError(f"family {name!r} takes {nargs} parameter(s), got {len(args)}")
    if name == "piecewise_linear_1d":
        if dim not in (None, 1):
            raise ValueError("piecewise_linear_1d is one dimensional")
        return factory(*args)
    if dim is None:
        return factory(*args)
    return factory(*args, dim=dim)
