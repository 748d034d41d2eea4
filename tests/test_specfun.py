"""Tests for the special-function layer: gamma, shared quadrature rules, quadrature."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import jv

from fracheat import families as fam
from fracheat import specfun
from fracheat.families import _sq_norm
from fracheat.specfun import (
    IntegralResult,
    QuadratureConfig,
    QuadratureError,
    averaged_limit,
    gamma,
    gauss_legendre,
    integrate_semi_infinite,
    nested_pair_sums,
    pair_sums,
    panel_rule,
    sphere_rule,
)


# ---------------------------------------------------------------------------
# gamma


@pytest.mark.parametrize(
    "x, expected",
    [(1.0, 1.0), (0.5, math.sqrt(math.pi)), (5.0, 24.0), (2.0, 1.0), (4.0, 6.0)],
)
def test_gamma_known_values(x, expected):
    assert gamma(x) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
def test_gamma_rejects_poles(x):
    with pytest.raises(ValueError):
        gamma(x)


def test_gamma_negative_noninteger_ok():
    # reflection territory; -1.5 sits between the poles at -1 and -2
    assert gamma(-1.5) == pytest.approx(4.0 * math.sqrt(math.pi) / 3.0, rel=1e-13)


@given(st.floats(min_value=0.1, max_value=40.0, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_gamma_functional_equation(x):
    assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


# ---------------------------------------------------------------------------
# shared quadrature rules


@pytest.mark.parametrize("order", [1, 4, 12, 16, 24])
def test_panel_rule_exact_for_polynomials(order):
    # degree 2n-1 is the exactness limit of an n-point Gauss rule, on
    # every panel of an uneven edge array
    edges = np.array([-1.3, -0.2, 0.05, 0.9, 3.7, 11.0])
    ts, ws = panel_rule(edges, order)
    assert ts.shape == ws.shape == (edges.size - 1, order)
    deg = 2 * order - 1
    coeffs = np.random.default_rng(order).normal(size=deg + 1)
    poly = np.polynomial.Polynomial(coeffs)
    anti = poly.integ()
    per_panel = np.sum(ws * poly(ts), axis=1)
    exact = anti(edges[1:]) - anti(edges[:-1])
    assert np.allclose(per_panel, exact, rtol=1e-11, atol=1e-11 * np.max(np.abs(exact)))


def test_gauss_legendre_is_shared_and_normalized():
    x, w = gauss_legendre(16)
    assert gauss_legendre(16)[0] is x
    assert w.sum() == pytest.approx(2.0, rel=1e-15)
    assert np.all(np.abs(x) < 1.0)


@pytest.mark.parametrize("count", [8, 12, 16, 24, 30, 40])
def test_averaged_limit_alternating_harmonic(count):
    # partial sums of 1 - 1/2 + 1/3 - ... converge to ln 2 like 1/n; the
    # averaged limit must be far closer, and its reported error must bound
    # the true one (past ~40 sums both sit at rounding level)
    k = np.arange(1, count + 1)
    partials = np.cumsum((-1.0) ** (k + 1) / k)
    value, err = averaged_limit(partials)
    true_err = abs(float(value) - math.log(2.0))
    assert true_err < 1e-3 * abs(partials[-1] - math.log(2.0))
    assert float(err) >= true_err


@pytest.mark.parametrize("count", [72, 88])
def test_averaged_limit_reaches_rounding_at_panel_counts(count):
    # the sizes the operator and the solver use
    k = np.arange(1, count + 1)
    value, err = averaged_limit(np.cumsum((-1.0) ** (k + 1) / k))
    assert float(value) == pytest.approx(math.log(2.0), abs=1e-15)
    assert float(err) <= 1e-15


def test_averaged_limit_works_row_wise():
    k = np.arange(1, 73)
    row = np.cumsum((-1.0) ** (k + 1) / k)
    value, err = averaged_limit(np.stack([row, 2.0 * row]))
    single, single_err = averaged_limit(row)
    assert value.shape == err.shape == (2,)
    assert value[0] == single and err[0] == single_err
    assert value[1] == pytest.approx(2.0 * math.log(2.0), abs=1e-9)


_SPHERE_AREA = {1: 2.0, 2: 2.0 * math.pi, 3: 4.0 * math.pi}


@pytest.mark.parametrize(
    "dim, level", [(1, 0)] + [(2, lv) for lv in range(7)] + [(3, lv) for lv in range(5)]
)
def test_sphere_rule_area_and_unit_directions(dim, level):
    dirs, wts = sphere_rule(dim, level)
    assert dirs.shape == (wts.size, dim)
    assert wts.sum() == pytest.approx(_SPHERE_AREA[dim], rel=1e-13)
    assert np.all(wts > 0.0)
    assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, rtol=0.0, atol=1e-14)


@pytest.mark.parametrize("level", range(6))
def test_two_dim_sphere_rule_nests(level):
    # the solver and the operator reuse level L's sums at level L + 1
    coarse, coarse_w = sphere_rule(2, level)
    fine, fine_w = sphere_rule(2, level + 1)
    assert np.array_equal(fine[::2], coarse)
    assert np.array_equal(2.0 * fine_w[::2], coarse_w)


def test_sphere_rule_refuses_dim_above_three():
    with pytest.raises(ValueError, match="dim <= 3"):
        sphere_rule(4, 0)


def _pair_sums_reference(value, pts, rhos, dirs, dwts):
    # the (count, radii, dirs, dim) broadcasts joined by concatenate, chunked
    # as pair_sums chunks, so each chunk's vals @ w2 has the same shape
    count, dim = pts.shape
    w2 = np.concatenate([dwts, dwts])
    out = np.empty((count, rhos.size))
    block = max(1, specfun._PAIR_CHUNK // (2 * len(dirs) * count))
    for lo in range(0, rhos.size, block):
        sub = rhos[lo : lo + block]
        offs = sub[:, None, None] * dirs[None, :, :]
        cloud = np.concatenate(
            [
                pts[:, None, None, :] + offs[None, :, :, :],
                pts[:, None, None, :] - offs[None, :, :, :],
            ],
            axis=2,
        )
        vals = value(cloud.reshape(-1, dim)).reshape(count, sub.size, -1)
        out[:, lo : lo + block] = vals @ w2
    return out


def _pair_case(dim, count, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.0, 2.0, (count, dim))
    rhos = np.geomspace(1e-3, 40.0, 10)
    dirs, dwts = sphere_rule(dim, 1)
    return pts, rhos, dirs, dwts


@pytest.mark.parametrize("family", ["cosine", "gaussian"])
@pytest.mark.parametrize("count", [1, 3, 9])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pair_sums_matches_concatenate_reference_bit_for_bit(monkeypatch, dim, count, family):
    # cosine reads one column of the cloud, gaussian the norm of each row
    u = fam.parse_spec(f"{family}:0.7", dim=dim)
    pts, rhos, dirs, dwts = _pair_case(dim, count)
    # blocks of 3 radii: chunks of 3, 3, 3 and a ragged 1
    monkeypatch.setattr(specfun, "_PAIR_CHUNK", 2 * len(dirs) * count * 3 + 1)
    got = pair_sums(u.value, pts, rhos, dirs, dwts)
    assert got.shape == (count, rhos.size)
    assert np.array_equal(got, _pair_sums_reference(u.value, pts, rhos, dirs, dwts))


def test_pair_sums_concurrent_calls_match_serial(monkeypatch):
    # each call owns its cloud buffer; many small chunks give the threads
    # many chances to interleave
    u = fam.gaussian(0.7, dim=2)
    cases = [_pair_case(2, 3, seed) for seed in range(4)]
    monkeypatch.setattr(specfun, "_PAIR_CHUNK", 2 * len(cases[0][2]) * 3 * 2)
    serial = [pair_sums(u.value, *case) for case in cases]
    barrier = threading.Barrier(len(cases))

    def run(case):
        barrier.wait(timeout=30)
        return pair_sums(u.value, *case)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=len(cases)) as pool:
            futures = [pool.submit(run, case) for case in cases]
            threaded = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(old)
    for a, b in zip(serial, threaded):
        assert np.array_equal(a, b)


def test_nested_pair_sums_evaluates_each_direction_once():
    u = fam.gaussian(0.7, dim=2)
    pts = np.random.default_rng(2).uniform(-2.0, 2.0, (3, 2))
    rhos = np.geomspace(1e-2, 5.0, 7)
    seen = []

    def counting(x):
        seen.append(np.array(x))
        return u.value(x)

    kept = None
    for level in range(5):
        dirs, dwts = sphere_rule(2, level)
        got, kept = nested_pair_sums(counting, pts, rhos, dirs, dwts, kept)
        assert kept is got
        whole = pair_sums(u.value, pts, rhos, dirs, dwts)
        assert np.allclose(got, whole, rtol=1e-13, atol=0.0)
    # level 4's directions, each as x + rho d and x - rho d, and no more
    rows = np.concatenate(seen)
    assert len(rows) == len(pts) * rhos.size * 2 * len(sphere_rule(2, 4)[0])
    assert len(np.unique(rows, axis=0)) == len(rows)


@pytest.mark.parametrize("dim", [1, 3])
def test_nested_pair_sums_keeps_nothing_where_the_rule_does_not_nest(dim):
    u = fam.gaussian(0.7, dim=dim)
    pts = np.random.default_rng(3).uniform(-2.0, 2.0, (2, dim))
    rhos = np.geomspace(1e-2, 5.0, 4)
    for level in range(5 if dim == 3 else 1):
        dirs, dwts = sphere_rule(dim, level)
        got, kept = nested_pair_sums(u.value, pts, rhos, dirs, dwts, None)
        assert kept is None
        assert np.array_equal(got, pair_sums(u.value, pts, rhos, dirs, dwts))


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_sq_norm_matches_numpy_sum_bit_for_bit(dim, order):
    rng = np.random.default_rng(dim)
    a = rng.standard_normal((4, 500, dim)) * rng.uniform(0.0, 1e3, (4, 500, 1))
    a = np.asarray(a, order=order)
    assert np.array_equal(_sq_norm(a), np.sum(a * a, axis=-1))
    flat = np.asarray(a.reshape(-1, dim), order=order)
    assert np.array_equal(_sq_norm(flat), np.sum(flat * flat, axis=-1))


# ---------------------------------------------------------------------------
# semi-infinite quadrature


@pytest.fixture
def cfg():
    return QuadratureConfig()


def test_quadrature_exponential(cfg):
    res = integrate_semi_infinite(lambda r: np.exp(-r), cfg, decay_exponent=1.0)
    assert res.value == pytest.approx(1.0, abs=cfg.abs_tol * 10)
    assert res.error_estimate >= abs(res.value - 1.0)


def test_quadrature_gaussian_moment(cfg):
    res = integrate_semi_infinite(
        lambda r: r * np.exp(-(r**2)), cfg, decay_exponent=2.0, poly_power=1.0
    )
    assert res.value == pytest.approx(0.5, abs=cfg.abs_tol * 10)
    assert res.error_estimate >= abs(res.value - 0.5)


def test_quadrature_oscillatory_laplace(cfg):
    # Laplace transform of J_0 at 1: integral of e^{-r} J_0(r) is 1/sqrt(2)
    res = integrate_semi_infinite(
        lambda r: np.exp(-r) * jv(0, r), cfg, decay_exponent=1.0, osc_scale=1.0
    )
    truth = 1.0 / math.sqrt(2.0)
    assert res.value == pytest.approx(truth, abs=cfg.abs_tol * 10)
    assert res.error_estimate >= abs(res.value - truth)


def test_quadrature_fast_oscillation_panels(cfg):
    # frequency high enough to force the panel route; closed form
    # for e^{-r} J_0(w r) is 1/sqrt(1+w^2)
    w = 200.0
    res = integrate_semi_infinite(
        lambda r: np.exp(-r) * jv(0, w * r), cfg, decay_exponent=1.0, osc_scale=w
    )
    truth = 1.0 / math.sqrt(1.0 + w * w)
    assert res.value == pytest.approx(truth, abs=1e-12)
    assert res.evaluations > 1000


def test_quadrature_slow_decay_exponent(cfg):
    # decay e^{-r^0.6} pushes the truncation radius out; value from the
    # substitution u = r^0.6: integral is Gamma(1/0.6)/0.6... via gamma
    res = integrate_semi_infinite(
        lambda r: np.exp(-(r**0.6)), cfg, decay_exponent=0.6
    )
    truth = gamma(1.0 / 0.6) / 0.6
    assert res.value == pytest.approx(truth, rel=1e-9)


def test_quadrature_result_fields(cfg):
    res = integrate_semi_infinite(lambda r: np.exp(-r), cfg, decay_exponent=1.0)
    assert isinstance(res, IntegralResult)
    assert res.evaluations > 0
    assert res.error_estimate >= 0.0


def test_quadrature_budget_exhaustion(monkeypatch):
    # three subdivisions cannot resolve 40 oscillations; the failure must
    # carry the best estimate rather than silently returning garbage
    monkeypatch.setattr(specfun, "MAX_SUBDIVISIONS", 3)
    with pytest.raises(QuadratureError) as excinfo:
        integrate_semi_infinite(
            lambda r: np.cos(40.0 * r) * np.exp(-r), QuadratureConfig(), decay_exponent=1.0
        )
    assert isinstance(excinfo.value.best, IntegralResult)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1e-3)


@given(st.floats(min_value=1.0, max_value=6.0))
@settings(max_examples=40, deadline=None)
def test_quadrature_scaled_exponential(a):
    # a*e^{-a r} integrates to 1 for any rate >= 1 (the claimed envelope
    # e^{-r} then genuinely dominates the integrand)
    res = integrate_semi_infinite(
        lambda r: a * np.exp(-a * r), QuadratureConfig(), decay_exponent=1.0
    )
    assert res.value == pytest.approx(1.0, abs=1e-8)
