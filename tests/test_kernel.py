"""Kernel-layer tests: closed forms, oracles, ladders, tables, bounds."""

import itertools
import math
import re
import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from fracheat import kernel, specfun
from fracheat.cli import parse_config
from fracheat.kernel import (
    AlphaTable,
    KernelParams,
    RadialProfileTable,
    alpha_coeffs,
    build_profile_table,
    d_f_radial,
    ell_limit,
    f_radial,
    heat_kernel,
    heat_kernel_fourier,
    kernel_derivatives,
    kernel_envelope,
    kernel_gradient,
    kernel_mass,
    kernel_time_derivative,
    point_radius,
    profile_table,
    tail_coefficients,
    tail_series,
    verify_kernel_bounds,
)
from fracheat.report import VerificationReport
from fracheat.solver import _TABLE_REL
from fracheat.specfun import QuadratureConfig, QuadratureError, integrate_semi_infinite
from fracheat.suites import SUITES

CAUCHY_1D = KernelParams(dim=1, s=0.5)
CAUCHY_2D = KernelParams(dim=2, s=0.5)

ROOT_2_OVER_PI = math.sqrt(2.0 / math.pi)


def cauchy_profile_1d(r):
    # closed form of the 1-D profile at s=1/2
    return ROOT_2_OVER_PI / (1.0 + r * r)


# ---------------------------------------------------------------------------
# params validation


@pytest.mark.parametrize("dim, s", [(0, 0.5), (-1, 0.5), (1, 0.0), (1, 1.0), (2, 1.5)])
def test_params_rejected(dim, s):
    with pytest.raises(ValueError):
        KernelParams(dim=dim, s=s)


def test_params_scaling_power():
    assert KernelParams(dim=1, s=0.25).scaling_power == 2.0


NON_FINITE_ENTRIES = {
    "f_radial": lambda v: f_radial(CAUCHY_1D, v),
    "d_f_radial": lambda v: d_f_radial(CAUCHY_1D, 1, v),
    "heat_kernel": lambda v: heat_kernel(CAUCHY_1D, [1.0], v),
    "kernel_gradient": lambda v: kernel_gradient(CAUCHY_1D, [1.0], v),
    "kernel_time_derivative": lambda v: kernel_time_derivative(CAUCHY_1D, [1.0], v),
    "kernel_mass": lambda v: kernel_mass(CAUCHY_1D, v),
    "heat_kernel_fourier": lambda v: heat_kernel_fourier(CAUCHY_1D, [1.0], v),
    "table_evaluate": lambda v: profile_table(1, 0.5).evaluate(v),
    "table_evaluate_array": lambda v: profile_table(1, 0.5).evaluate([0.5, v, 2.0]),
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", NON_FINITE_ENTRIES.values(), ids=NON_FINITE_ENTRIES.keys())
def test_non_finite_radius_or_time_is_refused(entry, value):
    # the radius of f_radial, d_f_radial and a table, the time of the others
    with pytest.raises(ValueError, match=f"finite.*got {value}"):
        entry(value)


# ---------------------------------------------------------------------------
# radial profile


def test_profile_cauchy_at_zero():
    assert f_radial(CAUCHY_1D, 0.0) == pytest.approx(ROOT_2_OVER_PI, rel=1e-12)


def test_profile_cauchy_at_one():
    assert f_radial(CAUCHY_1D, 1.0) == pytest.approx(0.5 * ROOT_2_OVER_PI, rel=1e-9)


@pytest.mark.parametrize("r", [0.3, 2.0, 7.5, 31.0, 120.0])
def test_profile_cauchy_closed_form_1d(r):
    assert f_radial(CAUCHY_1D, r) == pytest.approx(cauchy_profile_1d(r), rel=1e-8)


@pytest.mark.parametrize("r", [0.0, 0.5, 3.0, 20.0])
def test_profile_cauchy_closed_form_2d(r):
    # 2-D profile at s=1/2 is (1+r^2)^(-3/2)
    assert f_radial(CAUCHY_2D, r) == pytest.approx((1.0 + r * r) ** -1.5, rel=1e-8)


def test_profile_positive_everywhere():
    for dim, s in [(1, 0.3), (2, 0.75), (3, 0.9)]:
        par = KernelParams(dim=dim, s=s)
        for r in (0.0, 0.1, 1.0, 10.0, 100.0):
            assert f_radial(par, r) > 0.0


def test_profile_rejects_negative_radius():
    with pytest.raises(ValueError):
        f_radial(CAUCHY_1D, -0.1)


def test_profile_fourier_cross_check_3d():
    # profile recovered from the Fourier oracle at |x| = r, t = 1
    par = KernelParams(dim=3, s=0.75)
    value = f_radial(par, 2.0)
    oracle = heat_kernel_fourier(par, (2.0, 0.0, 0.0), 1.0) * (2.0 * math.pi) ** 1.5
    assert value > 0.0
    assert value == pytest.approx(oracle, rel=1e-6)


# ---------------------------------------------------------------------------
# kernel evaluation


def test_kernel_cauchy_values():
    assert heat_kernel(CAUCHY_1D, 0.0, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-10)
    assert heat_kernel(CAUCHY_1D, 1.0, 2.0) == pytest.approx(2.0 / (5.0 * math.pi), rel=1e-10)


def test_kernel_cauchy_2d_closed_form():
    # c_2 = 1/(2 pi); checked against the generic formula over a small grid
    for x, t in [((0.0, 0.0), 1.0), ((1.0, 2.0), 0.5), ((3.0, 4.0), 10.0)]:
        expected = t / (2.0 * math.pi * (t * t + np.dot(x, x)) ** 1.5)
        assert heat_kernel(CAUCHY_2D, x, t) == pytest.approx(expected, rel=1e-8)


def test_kernel_rejects_bad_time():
    for t in (0.0, -1.0):
        with pytest.raises(ValueError):
            heat_kernel(CAUCHY_1D, 0.0, t)
        with pytest.raises(ValueError):
            kernel_gradient(CAUCHY_1D, 0.0, t)
        with pytest.raises(ValueError):
            kernel_time_derivative(CAUCHY_1D, 0.0, t)


def test_kernel_rejects_wrong_point_shape():
    with pytest.raises(ValueError):
        heat_kernel(CAUCHY_1D, (1.0, 2.0), 1.0)
    with pytest.raises(ValueError):
        heat_kernel(KernelParams(dim=2, s=0.6), 1.0, 1.0)


@pytest.mark.parametrize("x", [math.nan, math.inf])
def test_kernel_rejects_non_finite_point(x):
    with pytest.raises(ValueError, match="point x must be finite"):
        heat_kernel(KernelParams(dim=1, s=0.6), [x], 1.0)


def test_scaling_identity():
    rng = np.random.default_rng(11)
    for dim, s in [(1, 0.3), (1, 0.9), (2, 0.6), (3, 0.75)]:
        par = KernelParams(dim=dim, s=s)
        for _ in range(3):
            x = rng.uniform(-4.0, 4.0, dim)
            t = float(rng.uniform(0.2, 8.0))
            lhs = heat_kernel(par, x, t)
            rhs = t ** (-dim / (2 * s)) * heat_kernel(par, x * t ** (-1 / (2 * s)), 1.0)
            assert lhs == pytest.approx(rhs, rel=1e-10)


def test_kernel_positive():
    rng = np.random.default_rng(7)
    for dim, s in [(1, 0.55), (2, 0.9), (3, 0.3)]:
        par = KernelParams(dim=dim, s=s)
        for _ in range(4):
            x = rng.uniform(-20.0, 20.0, dim)
            assert heat_kernel(par, x, float(rng.uniform(0.1, 10.0))) > 0.0


# ---------------------------------------------------------------------------
# Fourier oracle


def test_fourier_cauchy_1d():
    assert heat_kernel_fourier(CAUCHY_1D, 0.0, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-10)
    assert heat_kernel_fourier(CAUCHY_1D, 2.0, 1.0) == pytest.approx(
        1.0 / (math.pi * 5.0), rel=1e-10
    )


def test_fourier_agrees_with_kernel_1d():
    par = KernelParams(dim=1, s=0.7)
    for x in (0.0, 0.5, 1.5, 4.0, 9.0):
        for t in (0.1, 0.5, 1.0, 3.0, 10.0):
            a = heat_kernel(par, x, t)
            b = heat_kernel_fourier(par, x, t)
            assert a == pytest.approx(b, rel=1e-8), (x, t)


def test_fourier_agrees_with_kernel_2d():
    par = KernelParams(dim=2, s=0.6)
    a = heat_kernel(par, (3.0, 4.0), 2.0)
    b = heat_kernel_fourier(par, (3.0, 4.0), 2.0)
    assert a == pytest.approx(b, rel=1e-6)
    assert heat_kernel(par, (0.0, 0.0), 0.7) == pytest.approx(
        heat_kernel_fourier(par, (0.0, 0.0), 0.7), rel=1e-8
    )


def test_fourier_agrees_with_kernel_3d():
    par = KernelParams(dim=3, s=0.55)
    a = heat_kernel(par, (1.0, -2.0, 2.0), 1.5)
    b = heat_kernel_fourier(par, (1.0, -2.0, 2.0), 1.5)
    assert a == pytest.approx(b, rel=1e-6)


def test_fourier_rejects_high_dim():
    with pytest.raises(ValueError):
        heat_kernel_fourier(KernelParams(dim=4, s=0.5), (0.0,) * 4, 1.0)


# ---------------------------------------------------------------------------
# derivative ladder


def test_alpha_base_case():
    assert alpha_coeffs(1).coefficients == {1: 1.0}


def test_alpha_low_orders():
    assert alpha_coeffs(2).coefficients == {1: 1.0, 2: 1.0}
    assert alpha_coeffs(3).coefficients == {2: 3.0, 3: 1.0}
    assert alpha_coeffs(4).coefficients == {2: 3.0, 3: 6.0, 4: 1.0}


def test_alpha_support_band():
    for k in range(1, 9):
        table = alpha_coeffs(k)
        assert table.k == k
        for j, val in table.coefficients.items():
            assert k <= 2 * j <= 2 * k
            assert val > 0.0
        # the top coefficient is always 1 (pure power chain)
        assert table.coefficients[k] == 1.0


def test_alpha_rejects_bad_order():
    with pytest.raises(ValueError):
        alpha_coeffs(0)


def test_alpha_table_validates():
    with pytest.raises(ValueError):
        AlphaTable(2, {5: 1.0})
    with pytest.raises(ValueError):
        AlphaTable(2, {1: -1.0})


def test_first_derivative_cauchy():
    # DF_1(1) = -sqrt(2/pi)/2 from the closed form; also equals -r F_3(r)
    value = d_f_radial(CAUCHY_1D, 1, 1.0)
    assert value == pytest.approx(-0.5 * ROOT_2_OVER_PI, rel=1e-8)
    assert value == pytest.approx(-1.0 * f_radial(KernelParams(dim=3, s=0.5), 1.0), rel=1e-8)


def test_zeroth_derivative_delegates():
    assert d_f_radial(CAUCHY_1D, 0, 2.0) == f_radial(CAUCHY_1D, 2.0)


def central_difference(par, k, r, h):
    # high-order stencil of f_radial for oracle duty
    if k == 1:
        vals = [f_radial(par, r + i * h) for i in (-2, -1, 1, 2)]
        return (vals[0] - 8 * vals[1] + 8 * vals[2] - vals[3]) / (12 * h)
    if k == 2:
        vals = [f_radial(par, r + i * h) for i in (-2, -1, 0, 1, 2)]
        return (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (12 * h * h)
    if k == 3:
        vals = [f_radial(par, r + i * h) for i in (-2, -1, 1, 2)]
        return (-vals[0] + 2 * vals[1] - 2 * vals[2] + vals[3]) / (2 * h**3)
    raise ValueError(k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_derivatives_match_finite_difference(k):
    par = KernelParams(dim=2, s=0.7)
    approx = central_difference(par, k, 3.0, 1e-3 if k < 3 else 1e-2)
    assert d_f_radial(par, k, 3.0) == pytest.approx(approx, rel=1e-4)


def test_derivative_matches_finite_difference_1d():
    par = KernelParams(dim=1, s=0.55)
    approx = central_difference(par, 2, 1.5, 1e-3)
    assert d_f_radial(par, 2, 1.5) == pytest.approx(approx, rel=1e-4)


def test_derivative_ladder_rejections():
    with pytest.raises(ValueError):
        d_f_radial(CAUCHY_1D, 5, 1.0)
    with pytest.raises(ValueError):
        d_f_radial(CAUCHY_1D, -1, 1.0)
    with pytest.raises(ValueError):
        d_f_radial(CAUCHY_1D, 1, 0.0)


def test_second_derivative_sign_change():
    # concave cap near 0, convex tail; for the 1-D Cauchy profile the
    # inflection sits exactly at 1/sqrt(3)
    g = lambda r: d_f_radial(CAUCHY_1D, 2, r)
    assert g(0.2) < 0.0
    assert g(5.0) > 0.0
    root = brentq(g, 0.2, 5.0, xtol=1e-10)
    assert root == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-6)


# ---------------------------------------------------------------------------
# tail limits


def test_ell_cauchy_values():
    assert ell_limit(CAUCHY_1D, 0) == pytest.approx(ROOT_2_OVER_PI, rel=1e-12)
    assert ell_limit(CAUCHY_1D, 1) == pytest.approx(-2.0 * ROOT_2_OVER_PI, rel=1e-12)


def test_ell_positive_base():
    for dim, s in [(1, 0.1), (2, 0.5), (3, 0.99), (5, 0.75)]:
        assert ell_limit(KernelParams(dim=dim, s=s), 0) > 0.0


def test_ell_sign_alternates():
    par = KernelParams(dim=2, s=0.7)
    for k in range(5):
        assert math.copysign(1.0, ell_limit(par, k)) == (-1.0) ** k


def test_tail_constant_reached():
    # sample of the large-r limit battery (the full battery runs in the
    # acceptance suite)
    par = KernelParams(dim=2, s=0.55)
    r = 200.0
    for k in (0, 1, 2):
        scaled = r ** (par.dim + 2 * par.s + k) * d_f_radial(par, k, r)
        assert scaled == pytest.approx(ell_limit(par, k), rel=0.02)


# ---------------------------------------------------------------------------
# kernel derivatives


def test_gradient_zero_at_origin():
    for par in (CAUCHY_1D, KernelParams(dim=3, s=0.8)):
        g = kernel_gradient(par, np.zeros(par.dim), 1.0)
        assert np.all(g == 0.0)


def test_gradient_cauchy_closed_form():
    g = kernel_gradient(CAUCHY_1D, 1.0, 1.0)
    assert g[0] == pytest.approx(-1.0 / (2.0 * math.pi), rel=1e-8)


def test_gradient_matches_finite_difference():
    rng = np.random.default_rng(5)
    for dim, s in [(1, 0.6), (2, 0.75)]:
        par = KernelParams(dim=dim, s=s)
        for _ in range(3):
            x = rng.uniform(0.3, 3.0, dim)
            t = float(rng.uniform(0.5, 4.0))
            g = kernel_gradient(par, x, t)
            h = 1e-4
            for i in range(dim):
                e = np.zeros(dim)
                e[i] = h
                fd = (heat_kernel(par, x + e, t) - heat_kernel(par, x - e, t)) / (2 * h)
                assert g[i] == pytest.approx(fd, rel=1e-5), (dim, s, x, t, i)


def test_gradient_points_inward():
    # density decreases away from the origin, so x . grad p < 0
    par = KernelParams(dim=2, s=0.8)
    x = np.array([1.0, 2.0])
    assert float(np.dot(x, kernel_gradient(par, x, 1.0))) < 0.0


def test_time_derivative_cauchy_origin():
    assert kernel_time_derivative(CAUCHY_1D, 0.0, 1.0) == pytest.approx(-1.0 / math.pi, rel=1e-9)


def test_time_derivative_matches_finite_difference():
    rng = np.random.default_rng(9)
    for dim, s in [(1, 0.45), (2, 0.7)]:
        par = KernelParams(dim=dim, s=s)
        for _ in range(3):
            x = rng.uniform(-2.0, 2.0, dim)
            t = float(rng.uniform(0.5, 3.0))
            h = 1e-5 * t
            fd = (heat_kernel(par, x, t + h) - heat_kernel(par, x, t - h)) / (2 * h)
            assert kernel_time_derivative(par, x, t) == pytest.approx(fd, rel=1e-5)


def test_hessian_matches_gradient_difference():
    par = KernelParams(dim=2, s=0.65)
    x = np.array([0.8, -1.1])
    t = 1.7
    hess = kernel_derivatives(par, [x], [t], 2)[0][3]
    h = 1e-4
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (kernel_gradient(par, x + e, t) - kernel_gradient(par, x - e, t)) / (2 * h)
        assert np.allclose(hess[:, i], fd, rtol=1e-4, atol=1e-10)


def test_hessian_diagonal_at_origin():
    par = KernelParams(dim=2, s=0.75)
    hess = kernel_derivatives(par, [np.zeros(2)], [1.0], 2)[0][3]
    assert hess[0, 0] == pytest.approx(hess[1, 1], rel=1e-12)
    assert hess[0, 1] == 0.0
    assert hess[0, 0] < 0.0  # concave cap at the peak


# ---------------------------------------------------------------------------
# normalization


@pytest.mark.parametrize("dim, s, t", [(1, 0.55, 1.0), (2, 0.75, 0.5), (3, 0.9, 2.0)])
def test_mass_is_one(dim, s, t):
    mass = kernel_mass(KernelParams(dim=dim, s=s), t)
    assert mass == pytest.approx(1.0, abs=1e-6)


def test_mass_rejects_bad_time():
    with pytest.raises(ValueError):
        kernel_mass(CAUCHY_1D, 0.0)


# ---------------------------------------------------------------------------
# profile table


def test_table_matches_direct_evaluation():
    par = KernelParams(dim=1, s=0.75)
    table = profile_table(1, 0.75)
    rng = np.random.default_rng(2)
    rs = np.concatenate(
        [rng.uniform(1e-4, 1e-2, 6), rng.uniform(1e-2, 25.0, 30), rng.uniform(25.0, 300.0, 6)]
    )
    for r in rs:
        assert table.evaluate(float(r)) == pytest.approx(f_radial(par, float(r)), rel=5e-7)


def test_table_nodes_shape():
    table = profile_table(1, 0.75)
    assert table.nodes[0] == 0.0
    assert np.all(np.diff(table.nodes) > 0.0)
    # tail invariant: last node already behaves like the power law
    tail = table.values[-1] * table.nodes[-1] ** (1 + 2 * 0.75)
    assert tail == pytest.approx(ell_limit(KernelParams(dim=1, s=0.75), 0), rel=0.05)


def test_table_vectorized():
    table = profile_table(1, 0.75)
    rs = np.array([0.0, 1e-4, 0.5, 10.0, 100.0])
    out = table.evaluate(rs)
    assert out.shape == rs.shape
    assert np.all(out > 0.0)
    assert float(out[0]) == pytest.approx(f_radial(KernelParams(dim=1, s=0.75), 0.0), rel=1e-12)


def test_table_rejects_negative_radius():
    with pytest.raises(ValueError):
        profile_table(1, 0.75).evaluate(-1.0)


def test_table_construction_validation():
    par = KernelParams(dim=1, s=0.75)
    good = profile_table(1, 0.75)
    with pytest.raises(ValueError):
        RadialProfileTable(par, good.nodes[1:], good.values[1:])  # no zero node
    with pytest.raises(ValueError):
        RadialProfileTable(par, good.nodes[:6], good.values[:6])  # too short
    with pytest.raises(ValueError):
        RadialProfileTable(par, good.nodes[:200], good.values[:200])  # tail not reached
    off = good.values.copy()
    off[-1] *= 1.0 + 1e-6
    with pytest.raises(ValueError, match="series continuation misses the last sample at r=30"):
        RadialProfileTable(par, good.nodes, off)


# every table the acceptance suites and the benchmark read, with the rate
# companions (4, 0.75) and (5, 0.75) of 2-D and 3-D solves
READ_TABLES = [
    (1, 0.3), (2, 0.3), (3, 0.3),
    (1, 0.55), (2, 0.55), (3, 0.55),
    (1, 0.75), (2, 0.75), (3, 0.75), (4, 0.75), (5, 0.75),
    (3, 0.4), (1, 0.5), (1, 0.6), (3, 0.6), (1, 0.7), (3, 0.7), (1, 0.8), (3, 0.8),
]


@pytest.mark.parametrize("dim, s", READ_TABLES)
def test_table_ends_at_tail_cut(dim, s):
    table = profile_table(dim, s)
    assert table.nodes[-1] == kernel.TAIL_CUT
    assert table.values[-1] == kernel._profile_values(dim, s, np.array([kernel.TAIL_CUT]))[0]


@pytest.mark.parametrize("dim, s", READ_TABLES)
def test_table_error_within_solver_envelope(dim, s):
    # the solver's error estimates charge each table value _TABLE_REL
    table = profile_table(dim, s)
    nodes = table.nodes[1:]
    mids = np.sqrt(nodes[:-1] * nodes[1:])
    direct = kernel._profile_values(dim, s, mids)
    assert mids.size == 959
    assert np.max(np.abs(table.evaluate(mids) / direct - 1.0)) <= _TABLE_REL


@pytest.mark.parametrize("dim, s", [(1, 0.6), (3, 0.4), (2, 0.75), (3, 0.75), (1, 0.3)])
def test_table_nodes_match_fourier_oracle(dim, s):
    table = profile_table(dim, s)
    params = KernelParams(dim=dim, s=s)
    for r, value in zip(table.nodes[1::40], table.values[1::40]):
        x = np.zeros(dim)
        x[0] = r
        oracle = heat_kernel_fourier(params, x, 1.0) * (2.0 * math.pi) ** (0.5 * dim)
        assert value == pytest.approx(oracle, rel=1e-10, abs=0.0)


@pytest.mark.parametrize("dim, s", [(1, 0.6), (2, 0.75), (3, 0.4)])
def test_pointwise_profile_equals_table_nodes(dim, s):
    table = profile_table(dim, s)
    params = KernelParams(dim=dim, s=s)
    for i in (1, 97, 480, 800, 900, 960):
        assert f_radial(params, table.nodes[i]) == table.values[i]


def _series_cut_at_smallest_term(dim, s, r):
    # reference: the series summed one radius at a time and cut at its
    # smallest surviving term, the usual rule for an asymptotic series.
    # Also says whether the cut fired
    total, prev = 0.0, math.inf
    for k, a in enumerate(tail_coefficients(dim, s), start=1):
        if a == 0.0:
            continue
        term = a * r ** (-dim - 2.0 * s * k)
        if abs(term) >= prev:
            return total, True
        total += term
        prev = abs(term)
    return total, False


@pytest.mark.parametrize("dim, s", READ_TABLES)
def test_tail_series_matches_the_series_cut_at_its_smallest_term(dim, s):
    # from each table's last node out, the terms only shrink, so summing
    # them all is the cut sum up to rounding: two ulps, 4.44e-16
    rs = np.geomspace(profile_table(dim, s).nodes[-1], 1e6, 400)
    got = tail_series(dim, s, rs)
    for r, value in zip(rs.tolist(), got.tolist()):
        ref, cut = _series_cut_at_smallest_term(dim, s, r)
        assert not cut
        assert abs(value / ref - 1.0) <= 2.0 * np.finfo(float).eps


@pytest.mark.parametrize("dim, s", [(1, 0.3), (3, 0.4), (2, 0.75)])
def test_pointwise_profile_equals_table_past_series_radius(dim, s):
    # both read tail_series past TAIL_CUT, so they agree bit for bit; a
    # separate scalar sum of the series misses that at about one radius in
    # twenty
    table = profile_table(dim, s)
    params = KernelParams(dim=dim, s=s)
    near = np.geomspace(30.0, 1000.0, 41)[1:].tolist()
    for r in (1500.0, 1e4, 1e5, *near, *np.geomspace(1001.0, 1e6, 40).tolist()):
        assert f_radial(params, r) == table.evaluate(r)


@pytest.mark.parametrize("k", [1, 2])
def test_derivative_ladder_reads_the_series_far_out(k):
    # past TAIL_CUT every rung of the ladder is tail_series, so d_f_radial
    # has the series' full relative accuracy where F is far below ABS_TOL
    params, r = KernelParams(dim=3, s=0.75), 200.0
    ladder = math.fsum(
        (-1.0) ** j * c * r ** (2 * j - k) * float(tail_series(3 + 2 * j, 0.75, np.array([r]))[0])
        for j, c in alpha_coeffs(k).coefficients.items()
    )
    assert d_f_radial(params, k, r) == pytest.approx(ladder, rel=1e-12, abs=0.0)


def _bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).ravel().tolist()


# radii at 0, in (0, 2 pi], where the rows share one panel layout, in
# (2 pi, 30], where each row has its own, and past 30, where the series
# takes over; mixed, out of order, and with a repeat
MIXED_RADII = np.array([3.7, 0.0, 45.0, 0.25, 12.5, 2.0 * math.pi, 30.0, 1e-3, 80.0, 7.0, 0.25])


@pytest.mark.parametrize("dim", [1, 2, 3, 5])
def test_array_calls_match_scalar_calls_bit_for_bit(dim):
    params = KernelParams(dim=dim, s=0.6)
    assert _bits(f_radial(params, MIXED_RADII)) == _bits([f_radial(params, float(r)) for r in MIXED_RADII])
    positive = MIXED_RADII[MIXED_RADII > 0.0]
    rows = d_f_radial(params, (0, 1, 2, 3, 4), positive)
    assert rows.shape == (5, positive.size)
    for k, row in enumerate(rows):
        scalar = _bits([d_f_radial(params, k, float(r)) for r in positive])
        assert _bits(row) == scalar
        assert _bits(d_f_radial(params, k, positive)) == scalar
    # an array keeps its shape, a float gives a float
    grid = positive[:6].reshape(2, 3)
    assert _bits(d_f_radial(params, 2, grid)) == _bits(d_f_radial(params, 2, grid.ravel()))
    assert d_f_radial(params, 2, grid).shape == (2, 3)
    assert type(f_radial(params, 1.5)) is float
    assert type(d_f_radial(params, 3, 1.5)) is float
    # each term in the one-radius order, with Python's pow on floats: the
    # series radii are cheap, and numpy's vectorized power would move bits
    far = np.geomspace(31.0, 900.0, 60)
    for k in range(1, 5):
        ladder = [
            sum((-1.0) ** j * c * r ** (2 * j - k) * f_radial(KernelParams(dim=dim + 2 * j, s=0.6), r)
                for j, c in sorted(alpha_coeffs(k).coefficients.items()))
            for r in far.tolist()
        ]
        assert _bits(d_f_radial(params, k, far)) == _bits(ladder)


@pytest.mark.parametrize(
    "k, bad", [(0, math.nan), (0, -0.5), (0, math.inf), (2, math.nan), (2, -0.5), (2, 0.0)]
)
def test_array_with_a_bad_radius_is_refused_with_the_scalar_message(k, bad):
    with pytest.raises(ValueError) as scalar:
        d_f_radial(CAUCHY_1D, k, bad)
    with pytest.raises(ValueError) as array:
        d_f_radial(CAUCHY_1D, k, np.array([0.5, bad, 2.0, bad]))
    assert str(array.value) == str(scalar.value)
    if k == 0:
        with pytest.raises(ValueError, match=f"^{re.escape(str(scalar.value))}$"):
            f_radial(CAUCHY_1D, [0.5, bad])


@pytest.mark.parametrize("nx", [1e-160, 1e-300, 5e-324])
def test_envelope_is_the_time_power_where_the_space_power_overflows(nx):
    # |x|^(-(d+2s+k)) leaves the float range below about 1e-140; the
    # envelope is then the t-power, as at the origin, and the bound check
    # reports finite ratios there
    params = KernelParams(dim=1, s=0.6)
    for t in (0.1, 1.0, 10.0):
        for k in (0, 1, 2):
            assert kernel_envelope(params, nx, t, k) == kernel_envelope(params, 0.0, t, k)
    report = verify_kernel_bounds(params, points=[[nx], [-nx]])
    assert report.records and all(math.isfinite(r.measured) for r in report.records)
    assert report.overall_pass


@pytest.mark.parametrize("x", [[1e200], [3e200, -4e200], [1e308, 1e308, 1e308]])
def test_point_radius_does_not_overflow(x):
    # the sum of squares overflows past about 1e154; np.linalg.norm then
    # warns and returns inf
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        nx = point_radius(np.array(x))
    assert nx == pytest.approx(math.hypot(*x), rel=1e-15)


def test_point_radius_keeps_the_norm_bits_below_the_scaling():
    rng = np.random.default_rng(5)
    for dim in (1, 2, 3):
        for x in rng.uniform(-1.0, 1.0, size=(20, dim)) * 10.0 ** rng.uniform(-150, 149, size=(20, 1)):
            assert _bits(point_radius(x)) == _bits(float(np.linalg.norm(x)))


@pytest.mark.parametrize("nx", [1e150, 1e200])
def test_envelope_is_refused_where_it_underflows(nx):
    # t |x|^(-(d+2s)) falls below the normal floats past about 1e140, and
    # the kernel value with it: a ratio of the two means nothing there
    params = KernelParams(dim=1, s=0.6)
    with pytest.raises(ValueError, match=re.escape(f"falls below the float range at |x|={nx:g}, t=1")):
        kernel_envelope(params, nx, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        [(p, grad, pt)] = kernel_derivatives(params, [[nx]], [1.0])
    assert p == 0.0 and grad[0] == 0.0


@pytest.mark.parametrize("nx", [1e155, 1e200, 1e300])
def test_second_order_ladder_past_the_power_overflow(nx):
    # r^2 overflows past about 1e154, where F_3 has long underflowed to 0:
    # the term is 0 and the power is never formed
    params = KernelParams(dim=1, s=0.6)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        [(p, grad, pt, hess)] = kernel_derivatives(params, [[nx]], [1.0], 2)
        assert d_f_radial(params, [2, 4], nx).tolist() == [0.0, 0.0]
    assert p == 0.0 and grad[0] == 0.0 and pt == 0.0 and hess[0, 0] == 0.0


def test_bound_check_at_a_caller_point_past_the_power_overflow():
    # the ladder answers, so the check reaches the envelope's refusal
    with pytest.raises(ValueError, match=re.escape("falls below the float range at |x|=1e+200, t=0.1")):
        verify_kernel_bounds(KernelParams(dim=1, s=0.6), [[1e200]])


def test_envelope_takes_the_space_power_where_it_is_smaller():
    params = KernelParams(dim=2, s=0.75)
    assert kernel_envelope(params, 1e-100, 1.0) == 1.0
    assert kernel_envelope(params, 10.0, 1.0) == 10.0**-3.5


@pytest.mark.parametrize("dim, s", [(1, 0.55), (2, 0.75), (3, 0.6)])
def test_batched_kernel_derivatives_match_one_point_calls_bit_for_bit(dim, s):
    params = KernelParams(dim=dim, s=s)
    rng = np.random.default_rng(dim)
    points = [np.zeros(dim), *rng.uniform(-3.0, 3.0, size=(4, dim)), np.full(dim, 40.0)]
    times = (0.1, 1.0, 10.0)
    batch = kernel_derivatives(params, points, times, 2)
    for (t, x), (p, grad, pt, hess) in zip(itertools.product(times, points), batch):
        assert _bits(p) == _bits(heat_kernel(params, x, t))
        assert _bits(grad) == _bits(kernel_gradient(params, x, t))
        assert _bits(pt) == _bits(kernel_time_derivative(params, x, t))
        assert _bits(hess) == _bits(kernel_derivatives(params, [x], [t], 2)[0][3])
    assert [len(sample) for sample in kernel_derivatives(params, points[:2], times[:1], 0)] == [1, 1]


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_profile_table(KernelParams(dim=1, s=0.15)),
        lambda: f_radial(KernelParams(dim=3, s=0.15), 30.0),
    ],
    ids=["table-1", "f_radial-3"],
)
def test_small_order_is_refused_before_allocating(build, monkeypatch):
    # at s = 0.15 the panel layouts would take gigabytes; the refusal must
    # come from arithmetic on the truncation radius alone
    def allocate(*args):
        raise AssertionError("panel_edges was called")

    monkeypatch.setattr(specfun, "panel_edges", allocate)
    with pytest.raises(ValueError, match=r"dim \d, s 0.15 needs .* entries"):
        build()


def test_block_size_changes_no_bit(monkeypatch):
    # radii on both sides of the shared layout, several blocks each, and a
    # one-row integral whose 400-odd panels span several blocks
    radii = np.geomspace(1e-3, 40.0, 60)

    def one_row():
        return integrate_semi_infinite(
            lambda rho: np.exp(-(rho**1.2)) * np.cos(40.0 * rho), QuadratureConfig(),
            decay_exponent=1.2, osc_scale=40.0,
        )

    whole = [kernel._profile_values(dim, 0.6, radii) for dim in (1, 2, 3)] + [one_row()]
    monkeypatch.setattr(specfun, "_PANEL_BLOCK", 999)
    blocked = [kernel._profile_values(dim, 0.6, radii) for dim in (1, 2, 3)] + [one_row()]
    for a, b in zip(whole[:3], blocked[:3]):
        assert np.array_equal(a, b)
    assert whole[3] == blocked[3]


@pytest.mark.parametrize("dim", [1, 3])
@pytest.mark.parametrize("r", [0.3, 0.9 * 2.0 * math.pi, 1.1 * 2.0 * math.pi, 25.0])
def test_profile_is_the_batched_case_of_integrate_semi_infinite(dim, r, monkeypatch):
    # one copy of the panel sum: the one-row integral of the profile
    # integrand, times the prefactor, is the profile up to the order of
    # the node products, which the profile's rounding floor 18 * 2^-53 *
    # |scale| * sum |w env| covers; that sum is the Gauss sum of env
    s = 0.6
    env, osc, scale = kernel._profile_parts(dim, s)
    factor = float(scale(np.array([r]))[0])
    kw = {"decay_exponent": 2.0 * s, "poly_power": 0.5 * dim}
    one = integrate_semi_infinite(lambda rho: env(rho) * osc(r * rho), QuadratureConfig(), osc_scale=r, **kw)
    floor = 18.0 * 2.0**-53 * factor * integrate_semi_infinite(env, QuadratureConfig(), **kw).value
    seen = []

    def spy(*args, **kwargs):
        seen.append(specfun.half_line_sums(*args, **kwargs))
        return seen[-1]

    monkeypatch.setattr(kernel, "half_line_sums", spy)
    batched = kernel._profile_values(dim, s, np.array([r]))[0]
    assert abs(factor * one.value - batched) <= floor
    assert seen[0][2] == one.evaluations


@pytest.mark.parametrize(
    "dim, s",
    [pytest.param(dim, 0.75, id=str(dim)) for dim in range(3, 10)]
    + [pytest.param(dim, s, id=f"{dim}-s{s}") for dim, s in ((7, 0.4), (8, 0.4), (9, 0.4), (9, 0.6))],
)
def test_profile_near_the_origin_meets_its_taylor_series(dim, s):
    # near the origin the prefactor r^-nu is huge while the Bessel factor
    # is about (r rho)^nu, so the rounding floor has to follow the node
    # terms rather than |w env|, and the tail charge has to cancel r^-nu
    # through |J_nu(z)| <= (z/2)^nu / Gamma(nu + 1).  F(r) = F_d(0) -
    # r^2 F_(d+2)(0) / 2 + r^4 F_(d+4)(0) / 8 - r^6 F_(d+6)(0) / 48 + ...,
    # where F_d(0) is the removable limit, so D^2 F(r) = -F_(d+2)(0) +
    # 3 r^2 F_(d+4)(0) / 2 + ... and D^4 F(r) = 3 F_(d+4)(0) - 15 r^2
    # F_(d+6)(0) / 2 + ...; d_f_radial reads dims up to d + 8
    params = KernelParams(dim=dim, s=s)
    f0, f2, f4, f6 = (kernel._profile_zero(dim + k, s) for k in (0, 2, 4, 6))
    for r in (1e-8, 1e-5):
        x = np.zeros(dim)
        x[0] = r
        taylor = f0 - 0.5 * r**2 * f2
        assert f_radial(params, r) == pytest.approx(taylor, rel=1e-8, abs=1e-10)
        assert heat_kernel(params, x, 1.0) == pytest.approx((2.0 * math.pi) ** (-0.5 * dim) * taylor, rel=1e-8)
        assert d_f_radial(params, 2, r) == pytest.approx(-f2 + 1.5 * r**2 * f4, rel=1e-8)
        assert d_f_radial(params, 4, r) == pytest.approx(3.0 * f4 - 7.5 * r**2 * f6, rel=1e-8)


def test_unmet_tolerance_is_refused(monkeypatch):
    # 1e-20 absolute on values of order 0.01 to 1 is below double rounding,
    # so the 16- and 12-point sums cannot agree that well at every radius
    monkeypatch.setattr(kernel, "ABS_TOL", 1e-20)
    monkeypatch.setattr(kernel, "REL_TOL", 0.0)
    with pytest.raises(QuadratureError, match="misses its tolerance") as caught:
        kernel._profile_values(1, 0.75, np.geomspace(0.1, 20.0, 16))
    assert caught.value.best.error_estimate > 1e-20
    assert caught.value.best.value > 0.0
    with pytest.raises(QuadratureError):
        build_profile_table(KernelParams(dim=1, s=0.75))


# ---------------------------------------------------------------------------
# two-sided bound report


def test_bounds_report_cauchy():
    report = verify_kernel_bounds(CAUCHY_1D)
    assert isinstance(report, VerificationReport)
    assert report.overall_pass
    by_name = {r.name: r for r in report.records}
    lo = by_name["kernel-ratio-lower"].measured
    hi = by_name["kernel-ratio-upper"].measured
    # closed form pins the true envelope ratio range to [1/(2 pi), 1/pi]
    assert 0.15 <= lo <= hi <= 0.33
    assert by_name["gradient-ratio"].measured < 10.0
    assert by_name["hessian-ratio"].measured < 100.0
    assert by_name["time-derivative-ratio"].measured < 10.0
    for rec in report.records:
        assert rec.worst_point is not None


def test_bounds_report_roundtrip():
    report = verify_kernel_bounds(KernelParams(dim=2, s=0.7))
    assert report.overall_pass
    clone = VerificationReport.from_json(report.to_json())
    assert clone.to_json() == report.to_json()
    assert clone.overall_pass


# ---------------------------------------------------------------------------
# each profile value once per call, and the kernel suites' reports


KERNEL_SUITES = ("kernel-closed-form", "kernel-bounds", "asymptotic-constants", "derivative-recursion")


def _record_profile_calls(monkeypatch) -> list[tuple[int, float, np.ndarray]]:
    calls = []
    real = kernel._profile_array

    def counting(dim, s, radii):
        calls.append((dim, s, radii.copy()))
        return real(dim, s, radii)

    monkeypatch.setattr(kernel, "_profile_array", counting)
    return calls


def _assert_no_row_twice(calls):
    for _, _, radii in calls:
        assert radii.size and np.unique(radii).size == radii.size


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_bound_check_reads_each_shifted_profile_once(dim, monkeypatch):
    calls = _record_profile_calls(monkeypatch)
    verify_kernel_bounds(KernelParams(dim=dim, s=0.6))
    assert [(d, s) for d, s, _ in calls] == [(dim, 0.6), (dim + 2, 0.6), (dim + 4, 0.6)]
    _assert_no_row_twice(calls)


@pytest.mark.parametrize("name", KERNEL_SUITES)
def test_kernel_suites_read_each_shifted_profile_once(name, monkeypatch):
    # the kernel's version of the solver's once-per-batch direction check
    calls = _record_profile_calls(monkeypatch)
    SUITES[name](parse_config("{}"))
    keys = sorted((d, s) for d, s, _ in calls)
    if name == "asymptotic-constants":
        # seven kernels, each reading its own F_d, F_(d+2) and F_(d+4) at
        # r = 200 once; kernels of different dims share shifted profiles
        expected = [(d + 2 * j, s) for d in (1, 2, 3) for s in (0.55, 0.75) for j in range(3)] + [(1, 0.5)]
        assert keys == sorted(expected)
    else:
        assert len(set(keys)) == len(keys)
    _assert_no_row_twice(calls)


def _old_bounds(params, points):
    # verify_kernel_bounds as a per-point loop of the one-point calls
    dim, s, sp = params.dim, params.s, params.scaling_power

    def envelope(nx, t, k):
        first = t ** (-(dim + k) * sp)
        return first if nx == 0.0 else min(first, t * nx ** (-(dim + 2.0 * s + k)))

    p_lo, p_hi, g_hi, h_hi, t_hi = (math.inf, None), *[(-math.inf, None)] * 4
    for t in (0.1, 1.0, 10.0):
        for x in points:
            x = np.asarray(x, dtype=float)
            nx = float(np.linalg.norm(x))
            where = (*x, t)
            ratio = heat_kernel(params, x, t) / envelope(nx, t, 0)
            p_lo = (ratio, where) if ratio < p_lo[0] else p_lo
            p_hi = (ratio, where) if ratio > p_hi[0] else p_hi
            ratio = float(np.max(np.abs(kernel_gradient(params, x, t)))) / envelope(nx, t, 1)
            g_hi = (ratio, where) if ratio > g_hi[0] else g_hi
            ratio = float(np.max(np.abs(kernel_derivatives(params, [x], [t], 2)[0][3]))) / envelope(nx, t, 2)
            h_hi = (ratio, where) if ratio > h_hi[0] else h_hi
            ratio = abs(kernel_time_derivative(params, x, t)) / (envelope(nx, t, 0) / t)
            t_hi = (ratio, where) if ratio > t_hi[0] else t_hi
    return [
        ("kernel-ratio-lower", p_lo, 1e-8, p_lo[0] > 1e-8),
        ("kernel-ratio-upper", p_hi, 1e8, p_hi[0] < 1e8),
        ("gradient-ratio", g_hi, 1e8, g_hi[0] < 1e8),
        ("hessian-ratio", h_hi, 1e8, h_hi[0] < 1e8),
        ("time-derivative-ratio", t_hi, 1e8, t_hi[0] < 1e8),
    ]


def _old_suite_reports(cfg) -> dict[str, VerificationReport]:
    # the four kernel suites as per-point loops of scalar calls
    out = {name: VerificationReport(suite=name) for name in KERNEL_SUITES}
    radii = np.concatenate([[0.0], np.geomspace(0.1, 50.0, 16)])
    for dim in (1, 2):
        params = KernelParams(dim=dim, s=0.5)
        const = math.gamma(0.5 * (dim + 1)) / math.pi ** (0.5 * (dim + 1))
        worst, worst_at = 0.0, (0.0, 0.0)
        for t in (0.1, 1.0, 10.0):
            for r in radii:
                x = np.zeros(dim)
                x[0] = r
                rel = abs(heat_kernel(params, x, t) / (const * t / (t * t + r * r) ** (0.5 * (dim + 1))) - 1.0)
                if rel > worst:
                    worst, worst_at = rel, (r, t)
        out["kernel-closed-form"].add(f"dim-{dim}", worst, 0.0, 1e-6, worst <= 1e-6, worst_at)

    rng = np.random.default_rng(cfg.seed)
    for dim, s in ((1, 0.55), (2, 0.75), (3, 0.6)):
        radii = np.sort(rng.uniform(0.05, 50.0, size=8))
        points = [radii[i] * np.eye(dim)[i % dim] for i in range(len(radii))]
        for name, (ratio, where), bound, passed in _old_bounds(KernelParams(dim=dim, s=s), points):
            out["kernel-bounds"].add(f"dim-{dim}-s-{s:g}/{name}", ratio, bound, 0.0, passed, where)

    r = 200.0
    for dim in (1, 2, 3):
        for s in (0.55, 0.75):
            params = KernelParams(dim=dim, s=s)
            worst, worst_k = 0.0, 0
            for k in (0, 1, 2):
                val = f_radial(params, r) if k == 0 else d_f_radial(params, k, r)
                rel = abs(r ** (dim + 2.0 * s + k) * val / ell_limit(params, k) - 1.0)
                if rel > worst:
                    worst, worst_k = rel, k
            out["asymptotic-constants"].add(f"dim-{dim}-s-{s:g}", worst, 0.0, 0.02, worst <= 0.02, (float(worst_k), r))
    target = math.sqrt(2.0 / math.pi)
    rel = abs(200.0 ** 2.0 * f_radial(KernelParams(dim=1, s=0.5), 200.0) / target - 1.0)
    out["asymptotic-constants"].add("dim-1-s-0.5-order-0", rel, target, 0.02, rel <= 0.02, (0.0, 200.0))

    params = KernelParams(dim=1, s=0.6)

    def central(k, r, h):
        f = [f_radial(params, r + j * h) for j in range(-2, 3)]
        if k == 1:
            return (f[3] - f[1]) / (2.0 * h)
        if k == 2:
            return (f[3] - 2.0 * f[2] + f[1]) / h**2
        return (f[4] - 2.0 * f[3] + 2.0 * f[1] - f[0]) / (2.0 * h**3)

    worst, worst_at = 0.0, (0.0, 0.0)
    for k in (1, 2, 3):
        for r in (0.7, 1.3, 2.1):
            fd = (4.0 * central(k, r, 1e-3) - central(k, r, 2e-3)) / 3.0
            rel = abs(d_f_radial(params, k, r) / fd - 1.0)
            if rel > worst:
                worst, worst_at = rel, (float(k), r)
    report = out["derivative-recursion"]
    report.add("matches-finite-differences", worst, 0.0, 1e-4, worst <= 1e-4, worst_at)
    pat2, pat3 = alpha_coeffs(2).coefficients, alpha_coeffs(3).coefficients
    gap = max(abs(pat2[1] - 1.0), abs(pat2[2] - 1.0), abs(pat3[2] - 3.0), abs(pat3[3] - 1.0))
    report.add("coefficient-patterns", gap, 0.0, 0.0, gap == 0.0 and len(pat2) == 2 and len(pat3) == 2)
    return out


def test_bound_check_keeps_the_first_of_equal_extremes():
    # x and -x tie in every ratio; the report names the one sampled first
    points = [[0.0, 0.0], [1.5, -0.5], [-1.5, 0.5], [20.0, 0.0], [-20.0, 0.0]]
    report = verify_kernel_bounds(CAUCHY_2D, points=points)
    reference = VerificationReport(suite="kernel-bounds")
    for name, (ratio, where), bound, passed in _old_bounds(CAUCHY_2D, points):
        reference.add(name, ratio, bound, 0.0, passed, where)
    assert report.to_json() == reference.to_json()


@pytest.mark.parametrize("seed", [0, 21])
def test_kernel_suite_reports_equal_the_per_point_loops(seed):
    cfg = parse_config(f'{{"seed": {seed}}}')
    reference = _old_suite_reports(cfg)
    for name in KERNEL_SUITES:
        assert SUITES[name](cfg).to_json() == reference[name].to_json(), name


@pytest.mark.parametrize("n", [1, 2, 5, 6, 101, 24001])
def test_semigroup_convolution_equals_scipy_fftconvolve_bit_for_bit(n):
    # the semigroup suite convolves through numpy's FFT so that the CLI
    # never loads scipy.signal; padded to scipy's length, its "same"
    # window is scipy's to the last bit
    from scipy.signal import fftconvolve

    from fracheat.suites import _convolve_same

    rng = np.random.default_rng(n)
    a, b = rng.random(n), np.exp(-rng.random(n) * 30.0)
    got = _convolve_same(a, b)
    want = fftconvolve(a, b, mode="same")
    assert got.shape == want.shape
    assert np.array_equal(got, want)
