"""Kernel-layer tests: closed forms, oracles, ladders, tables, bounds."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from fracheat import kernel
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
    kernel_gradient,
    kernel_mass,
    kernel_time_derivative,
    profile_table,
    tail_coefficients,
    tail_series,
    verify_kernel_bounds,
    _kernel_hessian,
)
from fracheat.report import VerificationReport
from fracheat.solver import _TABLE_REL
from fracheat.specfun import QuadratureError

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
}


@pytest.mark.parametrize("value", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("entry", NON_FINITE_ENTRIES.values(), ids=NON_FINITE_ENTRIES.keys())
def test_non_finite_radius_or_time_is_refused(entry, value):
    # the radius of f_radial and d_f_radial, the time of the others
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
    hess = _kernel_hessian(par, x, t)
    h = 1e-4
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        fd = (kernel_gradient(par, x + e, t) - kernel_gradient(par, x - e, t)) / (2 * h)
        assert np.allclose(hess[:, i], fd, rtol=1e-4, atol=1e-10)


def test_hessian_diagonal_at_origin():
    par = KernelParams(dim=2, s=0.75)
    hess = _kernel_hessian(par, np.zeros(2), 1.0)
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


# every table the acceptance suites and the benchmark read, with the rate
# companions (4, 0.75) and (5, 0.75) of 2-D and 3-D solves
READ_TABLES = [
    (1, 0.3), (2, 0.3), (3, 0.3),
    (1, 0.55), (2, 0.55), (3, 0.55),
    (1, 0.75), (2, 0.75), (3, 0.75), (4, 0.75), (5, 0.75),
    (3, 0.4), (1, 0.5), (1, 0.6), (3, 0.6), (1, 0.7), (3, 0.7), (1, 0.8), (3, 0.8),
]


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
    # both read tail_series there, so they agree bit for bit; a separate
    # scalar sum of the series misses that at about one radius in twenty
    table = profile_table(dim, s)
    params = KernelParams(dim=dim, s=s)
    for r in (1500.0, 1e4, 1e5, *np.geomspace(1001.0, 1e6, 40).tolist()):
        assert f_radial(params, r) == table.evaluate(r)


def test_block_size_changes_no_bit(monkeypatch):
    # radii on both sides of the shared layout, several blocks each
    radii = np.geomspace(1e-3, 40.0, 60)
    for dim in (1, 2, 3):
        whole = kernel._profile_values(dim, 0.6, radii)
        monkeypatch.setattr(kernel, "_PROFILE_BLOCK", 999)
        blocked = kernel._profile_values(dim, 0.6, radii)
        monkeypatch.undo()
        assert np.array_equal(whole, blocked)


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
