"""Function families used as data and as test hypotheses.

Every family packages one vectorized value evaluator together with the
structural metadata the operator and solver layers dispatch on: a power
growth envelope, convexity, Hessian decay, kink points, oscillation
frequency, and the far field of its sphere means (FarField).  Nothing
here evaluates derivatives; what the layers need of them is declared as
metadata.  A point array has shape (..., dim) and values come back with
shape (...,).

FarBand is the one far tail of the operator and the solver: it reads the
far field through far_leftover and owns the route, cutoff, subtraction
and closed form (see its docstring).  Constant, affine, abs_power
(power < 2), ruled (1 < power < 2), gaussian and piecewise_linear_1d
declare a far field; cosine and the other powers do not.  A family may
also declare the rounding error of its values (rounding), which the
operator's near band charges for u(x): every node shares it, divided by
t^2.

Families can also be constructed from compact text of the form
``"family:p1,p2"``, which is the notation the command line accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional, Sequence

import numpy as np

from .specfun import averaged_limit, geometric_tail, half_period_rule, panel_rule, tail_integral

__all__ = [
    "GrowthEnvelope",
    "FarField",
    "FunctionSpec",
    "far_leftover",
    "FarBand",
    "as_point",
    "as_integer",
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

    @property
    def shift(self) -> float:
        """k = max(1, 2^(power-1)), with |x + y|^power <= k (|x|^power + |y|^power); 1 when bounded."""
        return max(1.0, 2.0 ** (self.power - 1.0)) if self.slope > 0.0 else 1.0

    def flowed(self, dim: int, s: float, t: float) -> GrowthEnvelope:
        """The envelope of the flow u(., t) in R^dim of order s of any datum under this one.

        u(x, t) = E u0(x + t^(1/2s) X) with X of density p(., 1), so
        |u0| <= A + B |x|^beta gives |u(x, t)| <= A + B k m_beta t^(beta/2s)
        + B k |x|^beta, with k the shift and, for 0 <= beta < 2s,

            m_beta = E|X|^beta = 2^beta Gamma((N+beta)/2) Gamma(1-beta/2s) / (Gamma(N/2) Gamma(1-beta/2)).

        Proof for beta > 0 (beta = 0 gives 1): the normalization of
        fraclap.riesz_constant, read at the origin for the datum exp(i xi.y)
        with the names xi and y swapped, is |y|^beta = C int (1 - cos(xi.y))
        |xi|^(-N-beta) dxi with C = riesz_constant(N, beta/2).  The integrand
        is non-negative, so the mean may go under the integral, and E cos(xi.X)
        = exp(-|xi|^(2s)) is the kernel's symbol at t = 1; so m_beta is
        C |S^(N-1)| int_0^inf (1 - exp(-r^(2s))) r^(-1-beta) dr.  With v = r^(2s)
        and a = beta/2s in (0, 1) the radial integral is (1/2s) int (1 - e^-v)
        v^(-1-a) dv = Gamma(1-a) / (2s a), by one integration by parts, and
        C |S^(N-1)| = 2^beta beta Gamma((N+beta)/2) / (Gamma(N/2) Gamma(1-beta/2)).
        A bounded envelope flows to itself; a growth power of 2s or more,
        where m_beta diverges, is refused.
        """
        if self.slope == 0.0:
            return self
        if not self.admissible_for(s):
            raise ValueError(f"the moment E|X|^{self.power:g} of the order-{s:g} kernel diverges unless {self.power:g} < 2s")
        beta, slope = self.power, self.slope * self.shift
        moment = 2.0**beta * math.gamma(0.5 * (dim + beta)) * math.gamma(1.0 - beta / (2.0 * s))
        moment /= math.gamma(0.5 * dim) * math.gamma(1.0 - 0.5 * beta)
        return GrowthEnvelope(self.amplitude + slope * (moment * t ** (beta / (2.0 * s))), slope, beta)


@dataclass(frozen=True)
class FarField:
    """Declared large-radius form of the sphere means of a datum.

    About a point x, the mean of u over the sphere of radius rho is

        M(x, rho) = lead * rho**power + const(x) + R(x, rho),
        |R(x, rho)| <= scale(x) * rho**decay  for rho >= start(x),

    with decay < 0, where remainder(pts) returns the pair (scale, start)
    per point of a (count, dim) array and const(pts) the constant term.
    remainder None declares R = 0 at every radius.  A field that is exact
    (no lead and no remainder) has M(x, rho) = const(x) at every radius,
    so const(x) = u(x) by continuity at rho = 0: the datum has the mean
    value property, its second differences vanish, and the flow leaves it
    where it is.  The factories prove their declarations in their
    docstrings; tests check them against specfun.pair_sums.
    """

    const: Callable[[np.ndarray], np.ndarray]
    lead: float = 0.0
    power: float = 0.0
    decay: float = -1.0
    remainder: Optional[Callable[[np.ndarray], tuple[np.ndarray, np.ndarray]]] = None

    def __post_init__(self) -> None:
        if not self.decay < 0.0:
            raise ValueError("a declared remainder must decay")

    @property
    def exact(self) -> bool:
        return self.lead == 0.0 and self.remainder is None


def far_leftover(
    u: FunctionSpec, pts: np.ndarray, tail: Callable[[float, float], float], unit: float = 1.0
) -> Callable[[float], tuple[np.ndarray, np.ndarray]]:
    """Per-point bounds on a far integral of u's sphere means past a radius.

    tail(radius, p) bounds the integral of |w(r)| r^p over r beyond radius,
    for the caller's radial weight w and sphere radius rho = unit r.
    The returned leftover(radius) gives, for each point x of pts, a bound
    on the integral of w(r) (M(x, rho) - sub(x, rho)) beyond radius, and
    the lead coefficient the point subtracts there (0 where it does not):

      * sub = lead rho^power + const(x) where unit radius >= start(x) and
        scale(x) tail(radius, decay) is the smaller bound;
      * otherwise sub = const(x), bounded through the envelope
        |u| <= A + B |y|^beta: |M - const| <= c0(x) + B k rho^beta with
        c0(x) = A + B k |x|^beta + |const(x)| and k the envelope's shift,
        since |x + rho w|^beta <= k (|x|^beta + rho^beta).

    So each point's leftover is never above the envelope one, and a batch
    mixing near and far points never moves its cutoff out.  Data without
    a declared far field take the second branch with const = 0.
    """
    env, ff = u.envelope, u.far_field
    beta = env.power if env.slope > 0.0 else 0.0
    const = u.far_const(pts)
    c0 = env.amplitude + env.slope * env.shift * np.sqrt(_sq_norm(pts)) ** beta + np.abs(const)
    c1 = env.slope * env.shift
    declared = ff is not None and ff.remainder is not None
    scale, start = ff.remainder(pts) if declared else (np.zeros(len(pts)), np.zeros(len(pts)))
    # rho^p = unit^p r^p, with each power of the unit taken once
    grow = unit**beta if c1 > 0.0 else 0.0
    shrink = unit**ff.decay if ff is not None else 0.0

    def leftover(radius: float) -> tuple[np.ndarray, np.ndarray]:
        bound = c0 * tail(radius, 0.0)
        if c1 > 0.0:
            bound = bound + c1 * (grow * tail(radius, beta))
        if ff is None:
            return bound, np.zeros(len(pts))
        rem = scale * (shrink * tail(radius, ff.decay))
        use = (unit * radius >= start) & (rem <= bound)
        return np.where(use, rem, bound), np.where(use, ff.lead, 0.0)

    return leftover


class FarBand:
    """The far tail of a batch of points past a start radius, for the operator, the solver and the residual.

    For each point x of pts, a (count, dim) array, the band is

        scale * int_start^inf weight(r) S(x, unit r) dr,

    with S(x, rho) the caller's sum of u over a direction rule of total
    weight area on the sphere of radius rho about x, and weight(r) =
    sum_k series[k-1] r^(-1-2sk) past start: r^(-1-2s), (1,) and unit 1
    in fraclap.far_band (the operator's band, and the 1-D residual's over
    its datum) and in the residual's band of w = u(., t) - u0 (u the
    stand-in solver._increment, S the pair sums 2 (w(x + r) + w(x - r)) of
    area 4); the profile factor F(r) r^(N-1), its large-radius series and
    unit t^(1/2s) in the solver.  The part area (const(x) +
    lead(x) rho^power) of S that the far field declares integrates in
    closed form (closed, per point); the rest goes on panels at the sphere
    radii rhos, of weights weight(r) times the panel's (weights,
    read-only), and reduce turns the caller's sums there into values and
    estimates: in the operator and the solver, the sums of one level of
    the direction rule at a time, as specfun.SphereSweep refines the band.

      * Bounded oscillating data (FunctionSpec.bounded_oscillation) take
        the averaged route: half_period_rule's panels of half-period
        pi / (osc_scale unit), less const(x), whose partial row sums are
        averaged (averaged_limit); the last step is the estimate.
      * All other data take the geometric route: geometric_tail's panels
        (edges) of ratio 1.7 for growing data, else 1.4, no wider than 2.2
        half-periods, out to the cutoff where far_leftover certifies area
        times each point's leftover under target, with the breaks strictly
        inside added.  A point whose cutoff reaches the start of its
        remainder bound subtracts its lead too, so a decaying datum's
        cutoff sits just past where it has run out; the others keep the
        envelope bound, far out for growth near the integrability edge.
        The first of orders gives the values; the estimate adds the
        leftover, the gap to the second order if any, and rel times the
        sum of |terms| for a weight of relative accuracy rel.  An exact
        field (constant, affine) lays no panels and leaves nothing over.
    """

    def __init__(
        self, u: FunctionSpec, pts: np.ndarray, s: float, start: float, unit: float,
        weight: Callable[[np.ndarray], np.ndarray], series: tuple[float, ...], scale: float, rel: float,
        area: float, target: float, orders: tuple[int, ...], breaks: Sequence[float] = (),
    ) -> None:
        self.area, self.scale, self.rel, self._grow = area, scale, rel, None
        ff, self._const = u.far_field, u.far_const(pts)
        self.route = "averaged" if u.bounded_oscillation else "geometric"
        lead, self.edges = None, None
        if self.route == "averaged":
            nodes, ws, self._first = half_period_rule(start, math.pi / (u.osc_scale * unit))
            self._shape = nodes.shape
            rs, ws = nodes.ravel(), ws.ravel()
        else:
            leftover = far_leftover(u, pts, partial(tail_integral, tuple(abs(scale * c) for c in series), s), unit)
            if u.is_affine:
                edges = np.array([float(start)])
            else:
                width = 2.2 * math.pi / (u.osc_scale * unit) if u.osc_scale else math.inf
                ratio = 1.7 if u.envelope.slope > 0.0 else 1.4
                # the batch's worst leftover; a single point reads its own
                worst = np.max if len(pts) > 1 else (lambda b: b[0])
                edges = geometric_tail(start, ratio, lambda r: area * float(worst(leftover(r)[0])), target, width,
                                       f"the far band of {u.label}")
                inside = [b for b in breaks if edges[0] < b < edges[-1]]
                if inside:
                    edges = np.unique(np.concatenate([edges, inside]))
            left, lead = leftover(float(edges[-1]))
            self.edges, self._left = edges, area * left
            rules = [panel_rule(edges, order) for order in orders]
            self._cut = rules[0][0].size
            rs, ws = (np.concatenate([rule[i].ravel() for rule in rules]) for i in (0, 1))
        self.rhos = rs if unit == 1.0 else unit * rs
        self.weights = weight(rs) * ws
        self.weights.flags.writeable = False
        closed = tail_integral(series, s, start) * self._const
        if ff is not None and ff.lead and lead.any():
            self._lead, self._grow = lead, self.rhos**ff.power
            closed = closed + unit**ff.power * tail_integral(series, s, start, ff.power) * lead
        self.closed = scale * area * closed

    def reduce(self, sums: np.ndarray, sl: slice) -> tuple[np.ndarray, np.ndarray]:
        """Panel values and estimates of the points pts[sl] from their sums at rhos."""
        # one expression, so that no (points x radii) temporary outlives it
        sub = self._const[sl, None]
        rest = sums - self.area * (sub if self._grow is None else sub + self._lead[sl, None] * self._grow)
        if self.route == "averaged":
            rest *= self.weights
            rows = rest.reshape(len(sums), *self._shape).sum(axis=2)
            vals, errs = averaged_limit(np.cumsum(rows, axis=1)[:, self._first :])
            return self.scale * vals, self.scale * errs
        main, fac = rest[:, : self._cut], self.weights[: self._cut]
        vals = self.scale * main @ fac
        errs = self._left[sl]
        if self.rel:
            errs = errs + self.rel * self.scale * np.abs(main) @ np.abs(fac)
        if self._cut < rest.shape[1]:
            errs = errs + np.abs(vals - self.scale * rest[:, self._cut :] @ self.weights[self._cut :])
        return vals, errs


@dataclass(eq=False)
class FunctionSpec:
    """A concrete function with its value evaluator and declared structure.

    value takes an array of shape (..., dim) and returns shape (...,).  It
    may receive a view that is not C-contiguous, such as the (n, dim)
    transpose that specfun.pair_sums passes, whose coordinates are
    contiguous columns.  value never writes into its argument: that view
    is a buffer pair_sums refills for every chunk.  It may work in place
    on arrays it made itself.
    The metadata fields are promises the quadrature and classification
    code relies on; factories in this module set them honestly and tests
    spot-check the promises.

    hessian_decay, when present, is a pair (coeff, rate) asserting
    ||D^2 u(x)|| <= coeff * |x| ** (-rate) for |x| >= 1.  Families that are
    not C^2 or whose Hessian does not decay leave it as None.  kink_points
    lists the 1-D corners where u is not C^2; it is empty for smooth data.
    far_field, when present, declares the large-radius form of the sphere
    means (FarField); data without one are integrated far out through
    their envelope alone.  rounding, when present, maps a (count, dim)
    point array and its values to a bound on the rounding error of each
    value; without it a value is charged half an ulp, 2^-53 |u|.
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
    far_field: Optional[FarField] = None
    kink_points: tuple[float, ...] = ()
    ruled_directions: tuple[tuple[float, ...], ...] = ()
    exp_envelope: Optional[tuple[float, float]] = None
    rounding: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    label: str = ""

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if not self.label:
            args = ",".join(f"{p:g}" for p in self.params)
            self.label = f"{self.family}:{args}" if args else self.family

    @property
    def bounded_oscillation(self) -> bool:
        """Whether the datum oscillates without growing, so that its far
        integrals settle by averaging over half-periods (FarBand)."""
        return bool(self.osc_scale) and self.envelope.slope == 0.0

    @property
    def is_affine(self) -> bool:
        """Whether the far field is exact, so every sphere mean is u(x) and
        the flow leaves this datum where it is (constant and affine data)."""
        return self.far_field is not None and self.far_field.exact

    def __call__(self, points: np.ndarray | Sequence[float]) -> np.ndarray:
        return self.value(np.asarray(points, dtype=float))

    def at(self, point: Sequence[float] | float) -> float:
        """Value at a single point given as a scalar (1-D) or coordinate sequence."""
        return float(self.value(as_point(point, self.dim)[np.newaxis, :])[0])

    def far_const(self, pts: np.ndarray) -> np.ndarray:
        """The far field's constant term b(x) at each point of a (count, dim) array; 0 without one."""
        return self.far_field.const(pts) if self.far_field is not None else np.zeros(len(pts))


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


def as_integer(value, name: str) -> int:
    """value as an int, refusing bools and non-integral numbers with the field's name.

    Integral floats such as 2.0 pass, so JSON numbers written with a
    decimal point still read as counts.
    """
    numeric = isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(value, bool)
    if not (numeric and float(value).is_integer()):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


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
    the (..., dim) temporary and the reduction over a short axis, and every
    square after the first goes through one scratch array.  The result is
    a new array, which callers may overwrite.
    """
    out = a[..., 0] * a[..., 0]
    if a.shape[-1] > 1:
        square = np.empty_like(out)
        for k in range(1, a.shape[-1]):
            out += np.multiply(a[..., k], a[..., k], out=square)
    return out


def _zero_const(pts: np.ndarray) -> np.ndarray:
    return np.zeros(len(pts))


def _abs_moment(p: float, dim: int) -> float:
    """E|w_1|^p for a uniform unit direction w in dim >= 2, p > -1."""
    return math.gamma(0.5 * (p + 1.0)) * math.gamma(0.5 * dim) / (math.sqrt(math.pi) * math.gamma(0.5 * (p + dim)))


def _quadratic_exp_amplitude(profile: Callable[[np.ndarray], np.ndarray]) -> float:
    # smallest A with |u| <= A * exp(r^2/4) along the sampled ray; the rate
    # 1/4 is the package convention for polynomially bounded data, giving a
    # guaranteed classical lifespan of 1
    r = np.linspace(0.0, 60.0, 4001)
    vals = np.abs(profile(r)) * np.exp(-0.25 * r * r)
    return float(vals.max()) * (1.0 + 1e-9)


def constant(c: float, dim: int = 1) -> FunctionSpec:
    """The constant function u = c, whose sphere means are c: an exact far field."""
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
        far_field=FarField(const=value),
        exp_envelope=(abs(c), 0.0),
    )


def affine(offset: float, slope: float, dim: int = 1) -> FunctionSpec:
    """u(x) = offset + slope * x_1.  The slope axis is the first coordinate.

    The far field is exact: the sphere mean of u about x at radius rho is
    offset + slope (x_1 + rho E[w_1]) = u(x), because the first coordinate
    w_1 of a uniform direction averages to zero (the pair sums cancel the
    slope).  So a = 0, b = u(x) and R = 0 at every radius.
    """
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
        far_field=FarField(const=value),
        exp_envelope=(
            _quadratic_exp_amplitude(lambda r: abs(offset) + abs(slope) * r),
            0.25 if slope else 0.0,
        ),
    )


def cosine(freq: float, dim: int = 1) -> FunctionSpec:
    """u(x) = cos(freq * x_1), the eigenfunction used for multiplier checks."""
    freq = float(freq)
    if not 0.0 < freq < math.inf:
        raise ValueError(f"cosine frequency must be positive and finite, got {freq!r}")

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
        exp_envelope=(1.0, 0.0),
    )


def gaussian(rate: float = 1.0, dim: int = 1) -> FunctionSpec:
    """u(x) = exp(-rate * |x|^2).

    Far field: a = 0, b = 0, q = -8, and C(x) = exp(-g^2) rho0^8 from
    rho0(x) = |x| + g / sqrt(rate), with g = 8.  Proof: for rho >= rho0
    every point y = x + rho w of the sphere has |y| >= rho - |x| >= g /
    sqrt(rate), so 0 <= M(x, rho) <= exp(-rate (rho - |x|)^2).  The log of
    that bound over rho^q, -rate (rho - |x|)^2 - q log(rho), has the
    derivative -2 rate (rho - |x|) - q / rho, which is <= 0 there because
    2 rate (rho - |x|) rho >= 2 g^2 >= -q.  So the bound falls faster
    than rho^q from rho0 on, where it equals C(x) rho0^q.  At x = 0 the
    mean is exp(-rate rho^2), and the bound is tight at rho0.  Where
    rho0^8 leaves the float range the remainder starts at infinity.
    Past |y| of about 27.3 / sqrt(rate) the datum underflows to 0, so
    the panels the declaration saves held exact zeros.

    Rounding: value forms |x|^2 from dim products and dim - 1 sums of
    positive terms and scales it by -rate, a relative error of at most
    (dim + 1) 2^-53 to first order, which exp turns into a relative error
    of rate |x|^2 (dim + 1) 2^-53 in u; exp itself adds under one ulp.
    So 2^-52 |u| (1 + (dim + 1) rate |x|^2) bounds it, twice over in the
    growing term: more than the half ulp charged by default, which matters
    because the operator's near band multiplies the rounding of u(x) by
    its sum of w / t^2.
    """
    rate = float(rate)
    if not 0.0 < rate < math.inf:
        raise ValueError(f"gaussian rate must be positive and finite, got {rate!r}")

    def value(pts: np.ndarray) -> np.ndarray:
        # scaled and exponentiated in the sum's own array; a single point's
        # sum is a scalar, which stays one
        sq = _sq_norm(_point_array(pts, dim))
        sq *= -rate
        return np.exp(sq, out=sq if sq.ndim else None)

    # ||D^2 u|| = exp(-rate r^2) max(|4 rate^2 r^2 - 2 rate|, 2 rate); the
    # declared decay coefficient is the sampled max of r^2 * ||D^2 u|| on
    # r >= 1, padded a little
    r = np.geomspace(1.0, 30.0 / math.sqrt(rate), 4000)
    norms = np.exp(-rate * r * r) * np.maximum(np.abs(4 * rate**2 * r**2 - 2 * rate), 2 * rate)
    coeff = float((r * r * norms).max()) * 1.01

    g, decay = 8.0, -8.0

    def remainder(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        with np.errstate(over="ignore"):
            start = np.sqrt(_sq_norm(pts)) + g / math.sqrt(rate)
            scale = math.exp(-g * g) * start**-decay
        far = np.isfinite(scale)
        return np.where(far, scale, 0.0), np.where(far, start, math.inf)

    def rounding(pts: np.ndarray, vals: np.ndarray) -> np.ndarray:
        sq = _sq_norm(pts)
        sq *= (dim + 1) * rate
        sq += 1.0
        return 2.0**-52 * np.abs(vals) * sq

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
        far_field=FarField(_zero_const, decay=decay, remainder=remainder),
        exp_envelope=(1.0, 0.0),
        rounding=rounding,
    )


def abs_power(power: float, dim: int = 1) -> FunctionSpec:
    """u(x) = (1 + |x|^2) ** (power/2), the smooth |x|^power with a regular origin.

    Convex exactly when power >= 1 (up to the supported power 2).  Since
    t -> t^{power/2} is subadditive for power <= 2, the envelope constants
    can both be taken equal to 1.

    Far field, for power beta < 2: a = 1, b = 0, q = beta - 2, and
    C(x) = beta 2^(1-beta) m^2 from rho0(x) = 2m, with m^2 = 1 + |x|^2.
    Proof: with h = m/rho and c = -x.w/m for a unit direction w,
    1 + |x + rho w|^2 = rho^2 (1 - 2ch + h^2).  The Gegenbauer generating
    function (DLMF 18.12.4, lambda = -beta/2) expands
    g(h) = (1 - 2ch + h^2)^(beta/2) = 1 - beta c h + O(h^2) for h < 1, and
    c averages to zero over the sphere, so M - rho^beta is rho^beta times
    the sphere mean of g(h) - 1 + beta c h, which Taylor's theorem bounds
    by h^2/2 max |g''| on [0, h].  There g'' = beta Q^(beta/2-2)
    ((beta-1)(tau-c)^2 + 1 - c^2) with Q = 1 - 2c tau + tau^2 >= (1-tau)^2,
    and the bracket is at most Q in size for 0 < beta <= 2, so
    |g''| <= beta (1-tau)^(beta-2) <= beta 2^(2-beta) for tau <= 1/2.
    """
    b = float(power)
    if not 0 < b <= 2:
        raise ValueError("power must lie in (0, 2]")

    def value(pts: np.ndarray) -> np.ndarray:
        m2 = _sq_norm(_point_array(pts, dim))
        m2 += 1.0
        return m2 ** (0.5 * b)

    # ||D^2 u|| <= b (1 + |2-b|) (1+r^2)^{b/2-1} <= b (3-b) r^{b-2} on r >= 1
    decay = (b * (1.0 + abs(2.0 - b)), 2.0 - b) if b < 2 else None

    def remainder(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        m2 = 1.0 + _sq_norm(pts)
        return b * 2.0 ** (1.0 - b) * m2, 2.0 * np.sqrt(m2)

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
        far_field=FarField(_zero_const, 1.0, b, b - 2.0, remainder) if b < 2 else None,
        exp_envelope=(
            _quadratic_exp_amplitude(lambda r: (1.0 + r * r) ** (0.5 * b)),
            0.25,
        ),
    )


def piecewise_linear_1d(left_slope: float) -> FunctionSpec:
    """u(x) = x on x >= 0 and left_slope * x on x < 0, with a corner at the origin.

    Convex when left_slope <= 1.  Not C^2, so no Hessian decay is declared
    and quadrature at the corner itself is refused upstream.

    Far field: a = (1 - lam)/2, beta = 1, b(x) = (1 + lam) x / 2, and a
    remainder of 0 from rho0(x) = |x|, with lam = left_slope.  Proof: for
    rho >= |x|, x + rho >= 0 >= x - rho, so the mean of the two values is
    ((x + rho) + lam (x - rho)) / 2 = (1 - lam)/2 rho + (1 + lam)/2 x
    exactly.  At lam = 1 the datum is the line u = x, whose field is exact
    at every radius: a = 0 and b = u.
    """
    lam = float(left_slope)
    if not math.isfinite(lam):
        raise ValueError(f"piecewise_linear_1d left slope must be finite, got {lam!r}")

    def value(pts: np.ndarray) -> np.ndarray:
        a = _point_array(pts, 1)
        x = a[..., 0]
        return np.where(x >= 0.0, x, lam * x)

    def const(pts: np.ndarray) -> np.ndarray:
        return 0.5 * (1.0 + lam) * pts[:, 0]

    def remainder(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return np.zeros(len(pts)), np.abs(pts[:, 0])

    far = FarField(const=value) if lam == 1.0 else FarField(const, 0.5 * (1.0 - lam), 1.0, remainder=remainder)

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
        far_field=far,
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

    Far field, for profile power 1 < beta < 2: a = E|w_1|^beta
    = Gamma((beta+1)/2) Gamma(d/2) / (sqrt(pi) Gamma((beta+d)/2)), b = 0,
    q = beta - 2, and C(x) = K m^2 from rho0(x) = 4m, with m^2 = 1 + x_1^2
    and K = beta 2^(1-beta) E|w_1|^(beta-2)
    + 2 p (3^(beta+1) - 1) 4^(1-beta) / (beta+1), where p bounds the density
    of w_1 on |w_1| <= 1/2.  Proof: put z = rho w_1, f(y) = (1 + y^2)^(beta/2)
    and D(z) = f(x_1 + z) - |z|^beta, so M - a rho^beta = E D(z).  Where
    |z| >= 2m, f(x_1 + z) = |z|^beta g(h) with h = m/|z| <= 1/2 and
    c = -x_1 sgn(z)/m, as for abs_power; the term -beta c h |z|^beta is odd
    in z and averages to zero over the symmetric region, and the rest is at
    most beta 2^(1-beta) m^2 |z|^(beta-2), whose mean is at most
    beta 2^(1-beta) m^2 rho^(beta-2) E|w_1|^(beta-2) (finite for beta > 1).
    Where |z| < 2m, |D(z)| <= (m + |z|)^beta, and for rho >= 4m this region
    has |w_1| <= 1/2, so its share is at most p/rho times the integral of
    (m + |z|)^beta over |z| < 2m, 2 m^(beta+1) (3^(beta+1) - 1) / (beta+1),
    and m^(beta+1)/rho <= 4^(1-beta) m^2 rho^(beta-2) there.  Profiles with
    beta <= 1 declare no far field.
    """
    if dim < 2:
        raise ValueError("ruled families need dim >= 2")
    base = abs_power(profile_power, dim=1)
    beta = float(profile_power)
    far = None
    if 1.0 < beta < 2.0:
        density = math.gamma(0.5 * dim) / (math.sqrt(math.pi) * math.gamma(0.5 * (dim - 1)))
        density *= max(1.0, 0.75 ** (0.5 * (dim - 3)))
        k = beta * 2.0 ** (1.0 - beta) * _abs_moment(beta - 2.0, dim)
        k += 2.0 * density * (3.0 ** (beta + 1.0) - 1.0) * 4.0 ** (1.0 - beta) / (beta + 1.0)

        def remainder(pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
            m2 = 1.0 + pts[:, 0] * pts[:, 0]
            return k * m2, 4.0 * np.sqrt(m2)

        far = FarField(_zero_const, _abs_moment(beta, dim), beta, beta - 2.0, remainder)

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
        far_field=far,
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
