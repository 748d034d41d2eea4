"""Reference values that share no code with fracheat's quadrature paths.

Gaussian data go through the Fourier side: the transform of
exp(-a|x|^2) is Gaussian, so u(x, t) and (-Lap)^s u(x) are radial
inverse transforms of a rapidly decaying integrand, which QUADPACK
resolves to near machine precision on a finite interval.  The growing
families have closed forms (Dyda 2012, "Fractional calculus for power
functions and eigenvalues of the fractional Laplacian", Fract. Calc.
Appl. Anal. 15(4)).  At s = 1/2 the heat kernel is the Cauchy density,
which fixes the radial profile integral exactly.
"""

from __future__ import annotations

import math

from scipy import integrate, special


def cosine_flap(freq: float, s: float, x1: float) -> float:
    return freq ** (2.0 * s) * math.cos(freq * x1)


def cosine_solution(freq: float, s: float, x1: float, t: float) -> float:
    return math.exp(-t * freq ** (2.0 * s)) * math.cos(freq * x1)


def _radial_inverse_transform(dim: int, rate: float, r: float, multiplier) -> float:
    # (2 pi)^-d int g(xi) m(|xi|) e^{i x.xi} dxi for g the transform of
    # exp(-rate |x|^2), written as a half-line integral per dimension
    cut = 14.0 * math.sqrt(rate)

    def g(xi: float) -> float:
        return (math.pi / rate) ** (0.5 * dim) * math.exp(-xi * xi / (4.0 * rate)) * multiplier(xi)

    if dim == 1:
        f, pref = (lambda xi: g(xi) * math.cos(r * xi)), 1.0 / math.pi
    elif dim == 2:
        f, pref = (lambda xi: g(xi) * special.j0(r * xi) * xi), 1.0 / (2.0 * math.pi)
    elif r == 0.0:
        f, pref = (lambda xi: g(xi) * xi * xi), 1.0 / (2.0 * math.pi**2)
    else:
        f, pref = (lambda xi: g(xi) * math.sin(r * xi) * xi), 1.0 / (2.0 * math.pi**2 * r)
    val, _ = integrate.quad(f, 0.0, cut, epsabs=1e-13, epsrel=1e-12, limit=400)
    return pref * val


def gaussian_solution(rate: float, dim: int, s: float, r: float, t: float) -> float:
    return _radial_inverse_transform(dim, rate, r, lambda xi: math.exp(-t * xi ** (2.0 * s)))


def gaussian_flap(rate: float, dim: int, s: float, r: float) -> float:
    return _radial_inverse_transform(dim, rate, r, lambda xi: xi ** (2.0 * s))


def abs_power_flap(power: float, s: float, r: float) -> float:
    """(-Lap)^s (1 + x^2)^(power/2) in one dimension, by the hypergeometric closed form."""
    a = -0.5 * power
    const = 2.0 ** (2.0 * s) * special.gamma(a + s) * special.gamma(0.5 + s) / (special.gamma(a) * special.gamma(0.5))
    return const * special.hyp2f1(a + s, 0.5 + s, 0.5, -r * r)


def kinked_line_flap(left_slope: float, s: float, x: float) -> float:
    """(-Lap)^s of x on x >= 0, left_slope * x on x < 0, away from the kink, s > 1/2.

    The function is an affine part, which the operator annihilates for
    s > 1/2, plus (1 - left_slope)/2 times |x|.
    """
    p = 1.0
    const = (
        2.0 ** (2.0 * s)
        * special.gamma(0.5 * (1.0 + p))
        * special.gamma(s - 0.5 * p)
        / (special.gamma(-0.5 * p) * special.gamma(0.5 * (1.0 + p) - s))
    )
    return 0.5 * (1.0 - left_slope) * const * abs(x) ** (p - 2.0 * s)


def cauchy_profile_integral(dim: int, r: float) -> float:
    """int_0^inf e^-rho rho^(d/2) J_(d/2-1)(r rho) drho, the s = 1/2 profile integral."""
    c = math.gamma(0.5 * (dim + 1)) / math.pi ** (0.5 * (dim + 1))
    profile = (2.0 * math.pi) ** (0.5 * dim) * c * (1.0 + r * r) ** (-0.5 * (dim + 1))
    return profile * r ** (0.5 * (dim - 2))
