"""Tests for the special-function layer: gamma, shared quadrature rules, quadrature."""

import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

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
    geometric_tail,
    integrate_semi_infinite,
    SphereSweep,
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


@pytest.mark.parametrize(
    "start, ratio, width, power, target",
    [
        (1.0, 1.4, math.inf, 1.5, 1e-10),  # bounded data, ratio 1.4
        (30.0, 1.7, 25.0, 1.0, 1e-4),  # panels split to width 25
        (0.5, 1.5, 2.0, 1.0, 1e-3),  # met after a few steps
        (1.0, 1.7, math.inf, 0.05, 1e-10),  # decays too slowly: the cap is reached
    ],
)
def test_geometric_tail_layout(start, ratio, width, power, target):
    def leftover(radius):
        return radius ** (-power) / power

    edges = geometric_tail(start, ratio, leftover, target, width, "a test tail")
    assert edges[0] == start
    assert np.all(np.diff(edges) > 0.0)
    assert len(edges) >= 5
    assert np.all(edges[1:] / edges[:-1] <= ratio * (1.0 + 1e-12))
    assert np.all(np.diff(edges) <= width * (1.0 + 1e-12))
    cutoff = float(edges[-1])
    assert cutoff == specfun.RADIUS_CAP or leftover(cutoff) <= target
    # the cutoff is the first of 4 start, 16 start, ... that qualifies
    assert cutoff == specfun.RADIUS_CAP or cutoff == 4.0 * start or leftover(cutoff / 4.0) > target


def test_split_panels_cuts_each_panel_to_width():
    edges = np.array([0.0, 1.0, 1.5, 4.0])
    out = specfun.split_panels(edges, 0.5, "a test split")
    np.testing.assert_array_equal(out, [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0])
    assert specfun.split_panels(edges, math.inf, "a test split") is edges


@pytest.mark.parametrize("width", [1e-7, 1e-300, 0.0])
def test_split_panels_refuses_by_name_before_allocating(width):
    # a million and more panels: refused from the count alone
    cap = specfun._PANEL_ENTRIES // 32
    with pytest.raises(ValueError, match=rf"a test split needs .* panels of width .*, over the cap of {cap}"):
        specfun.split_panels(np.array([0.0, 1.0]), width, "a test split")


@pytest.mark.parametrize(
    "start, half",
    [
        (1.0, 157.0),  # slow oscillation: a long geometric lead-in
        (0.5, 1.0),  # r0 = half / 2, as fraclap starts its cosine tails
        (30.0, 3.0),  # the solver's TAIL_CUT, already past two half-periods
        (2.0, 1.0),  # exactly two half-periods: no lead-in
    ],
)
def test_half_period_rule_layout(start, half):
    nodes, weights, lead = specfun.half_period_rule(start, half)
    assert nodes.shape == weights.shape == (lead + specfun.OSC_PANELS, specfun.OSC_ORDER)
    # each row is one panel: its nodes are centred and its weights add up
    # to its width, which recovers the edges
    mids = nodes.mean(axis=1)
    widths = weights.sum(axis=1)
    lo, hi = mids - 0.5 * widths, mids + 0.5 * widths
    assert lo[0] == pytest.approx(start, rel=1e-13)
    np.testing.assert_allclose(lo[1:], hi[:-1], rtol=1e-13)
    stop = max(start, 2.0 * half)
    assert lead == 0 if start >= 2.0 * half else lead > 0
    if lead:
        ratios = hi[:lead] / lo[:lead]
        assert np.all(ratios > 1.0) and np.all(ratios <= 1.4 * (1.0 + 1e-12))
        assert hi[lead - 1] == pytest.approx(stop, rel=1e-13)
    np.testing.assert_allclose(widths[lead:], half, rtol=1e-12)
    assert lo[lead] == pytest.approx(stop, rel=1e-13)


def test_lead_in_edges_are_those_of_geomspace():
    # the rule builds its lead-in without np.geomspace's argument handling;
    # the edges, and so every node, must keep geomspace's bits
    rng = np.random.default_rng(2024)
    for start, half in zip(10.0 ** rng.uniform(-3, 2, 1000), 10.0 ** rng.uniform(-3, 3, 1000)):
        stop = max(start, 2.0 * half)
        lead = math.ceil(math.log(stop / start) / math.log(1.4))
        want = np.geomspace(start, stop, lead + 1)
        assert np.array_equal(specfun._geomspace(start, stop, lead + 1), want)
        edges = np.append(want[:-1], stop + half * np.arange(specfun.OSC_PANELS + 1))
        nodes, weights, got_lead = specfun.half_period_rule(start, half)
        ref_nodes, ref_weights = specfun.panel_rule(edges, specfun.OSC_ORDER)
        assert got_lead == lead
        assert np.array_equal(nodes, ref_nodes) and np.array_equal(weights, ref_weights)


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
    # as pair_sums chunks and reduced by the same per-row contraction
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
        out[:, lo : lo + block] = np.einsum("ijk,k->ij", vals, w2)
    return out


def _pair_case(dim, count, seed=0):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2.0, 2.0, (count, dim))
    rhos = np.geomspace(1e-3, 40.0, 10)
    dirs, dwts = sphere_rule(dim, 1)
    return pts, rhos, dirs, dwts


# cosine reads one column of the cloud, gaussian the norm of each row,
# abs_power a power of that norm and ruled abs_power of the first column.
# In 1-D the rule's weight is 2; a weight of 0.6 rounds each product, so
# the pair's two-term sum must keep einsum's order, and
# piecewise_linear_1d:0 is -0.0 on the negative half-line, whose pair sums
# einsum returns as +0.0
_REFERENCE_CASES = [
    pytest.param(dim, count, f"{family}:0.7", 1.0, id=f"{dim}-{count}-{family}")
    for dim in (1, 2, 3)
    for count in (1, 3, 9)
    for family in ("cosine", "gaussian", "abs_power", "ruled")
    if dim > 1 or family != "ruled"
] + [
    pytest.param(1, count, spec, 0.3, id=f"1-{count}-{spec}-weight0.6")
    for count in (1, 3, 9)
    for spec in ("cosine:0.7", "abs_power:0.7", "piecewise_linear_1d:0")
]


@pytest.mark.parametrize("dim, count, spec, factor", _REFERENCE_CASES)
def test_pair_sums_matches_concatenate_reference_bit_for_bit(monkeypatch, dim, count, spec, factor):
    u = fam.parse_spec(spec, dim=dim)
    pts, rhos, dirs, dwts = _pair_case(dim, count)
    dwts = factor * dwts
    # blocks of 3 radii: chunks of 3, 3, 3 and a ragged 1
    monkeypatch.setattr(specfun, "_PAIR_CHUNK", 2 * len(dirs) * count * 3 + 1)
    got = pair_sums(u.value, pts, rhos, dirs, dwts)
    assert got.shape == (count, rhos.size)
    want = _pair_sums_reference(u.value, pts, rhos, dirs, dwts)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def _accepts(name, dim):
    try:
        fam.parse_spec(_value_spec(name), dim=dim)
    except ValueError:
        return False
    return True


def _value_spec(name):
    return name + ":" + ",".join(["0.7"] * fam._FACTORIES[name][1])


@pytest.mark.parametrize(
    "name, dim", [(name, dim) for name in fam._FACTORIES for dim in (1, 2, 3) if _accepts(name, dim)]
)
def test_value_never_writes_into_its_argument(name, dim):
    # pair_sums reuses its cloud buffer for every chunk and hands value()
    # the (points, dim) view cloud.T, whose coordinates are contiguous rows
    u = fam.parse_spec(_value_spec(name), dim=dim)
    cloud = np.random.default_rng(3).uniform(-3.0, 3.0, (dim, 257))
    before = cloud.copy()
    got = u.value(cloud.T)
    assert np.array_equal(cloud, before)
    assert np.array_equal(got, u.value(np.ascontiguousarray(cloud.T)))


_CHUNKS = (1 << 8, 1 << 16, 1 << 24)


@pytest.mark.parametrize("count", [1, 9])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pair_sums_do_not_depend_on_the_chunk_size(monkeypatch, dim, count):
    # from one radius per chunk to every radius in one: the chunk size
    # moves only the chunk edges, and no sum may depend on them
    u = fam.gaussian(0.7, dim=dim)
    pts, rhos, dirs, dwts = _pair_case(dim, count)
    runs = []
    for chunk in _CHUNKS:
        monkeypatch.setattr(specfun, "_PAIR_CHUNK", chunk)
        runs.append(pair_sums(u.value, pts, rhos, dirs, dwts))
    for got in runs[1:]:
        assert np.array_equal(got, runs[0])


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_pair_sums_magnitudes_come_from_the_same_evaluations(monkeypatch, dim):
    # the appended columns are the sums of |value|, bit for bit, from one
    # evaluation of each point, across chunk edges
    u = fam.cosine(0.7, dim=dim)
    pts, rhos, dirs, dwts = _pair_case(dim, 3)
    monkeypatch.setattr(specfun, "_PAIR_CHUNK", 1 << 8)
    calls = []

    def counting(x):
        calls.append(len(x))
        return u.value(x)

    both = pair_sums(counting, pts, rhos, dirs, dwts, magnitudes=True)
    assert sum(calls) == len(pts) * rhos.size * 2 * len(dirs)
    assert np.array_equal(both[:, : rhos.size], pair_sums(u.value, pts, rhos, dirs, dwts))
    assert np.array_equal(both[:, rhos.size :], pair_sums(lambda x: np.abs(u.value(x)), pts, rhos, dirs, dwts))


def _swept_levels(value, pts, rhos):
    # the sums a SphereSweep hands its one band's reduce at every level from
    # the start to the cap; the band's values change by one at each level,
    # so no drift settles before the cap
    seen = []

    def reduce(sums, sl):
        seen.append(sums.copy())
        return np.full(len(sums), float(len(seen))), np.zeros(len(sums))

    sweep = SphereSweep(pts, len(pts))
    sweep.add(value, rhos, reduce)
    sweep.refine()
    dim = pts.shape[1]
    assert sweep.levels == [specfun._MAX_ANGULAR[dim]]
    return seen, range(specfun._START_ANGULAR[dim], specfun._MAX_ANGULAR[dim] + 1)


def test_sphere_sweep_sums_do_not_depend_on_the_chunk_size(monkeypatch):
    u = fam.parse_spec("ruled:1.2", dim=2)
    pts, rhos, _, _ = _pair_case(2, 9)
    runs = []
    for chunk in _CHUNKS:
        monkeypatch.setattr(specfun, "_PAIR_CHUNK", chunk)
        runs.append(_swept_levels(u.value, pts, rhos)[0])
    for levels in runs[1:]:
        assert len(levels) == len(runs[0])
        for got, first in zip(levels, runs[0]):
            assert np.array_equal(got, first)


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


def test_sphere_sweep_evaluates_each_direction_once():
    u = fam.gaussian(0.7, dim=2)
    pts = np.random.default_rng(2).uniform(-2.0, 2.0, (3, 2))
    rhos = np.geomspace(1e-2, 5.0, 7)
    seen = []

    def counting(x):
        seen.append(np.array(x))
        return u.value(x)

    sums, levels = _swept_levels(counting, pts, rhos)
    for got, level in zip(sums, levels):
        dirs, dwts = sphere_rule(2, level)
        whole = pair_sums(u.value, pts, rhos, dirs, 0.5 * dwts)
        assert np.allclose(got, whole, rtol=1e-13, atol=0.0)
    # the cap's directions, each as x + rho d and x - rho d, and no more
    rows = np.concatenate(seen)
    assert len(rows) == len(pts) * rhos.size * 2 * len(sphere_rule(2, levels[-1])[0])
    assert len(np.unique(rows, axis=0)) == len(rows)


@pytest.mark.parametrize("dim", [1, 3])
def test_sphere_sweep_keeps_nothing_where_the_rule_does_not_nest(dim):
    # every level is evaluated whole, from the datum, and gives the bits of
    # the whole rule's pair sums
    u = fam.gaussian(0.7, dim=dim)
    pts = np.random.default_rng(3).uniform(-2.0, 2.0, (2, dim))
    rhos = np.geomspace(1e-2, 5.0, 4)
    counts = []

    def counting(x):
        counts.append(len(x))
        return u.value(x)

    sums, levels = _swept_levels(counting, pts, rhos)
    assert len(sums) == len(levels)
    evaluated = iter(counts)
    for got, level in zip(sums, levels):
        dirs, dwts = sphere_rule(dim, level)
        assert np.array_equal(got, pair_sums(u.value, pts, rhos, dirs, 0.5 * dwts))
        want = len(pts) * rhos.size * 2 * len(dirs)
        done = 0
        while done < want:
            done += next(evaluated)
        assert done == want
    assert next(evaluated, None) is None


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


def test_unresolved_oscillation_is_refused():
    # without osc_scale the panels are 0.5 long and hold three periods of
    # cos(40 r) each, so the 16- and 12-point sums disagree; the refusal
    # must carry the result rather than silently returning garbage
    with pytest.raises(QuadratureError, match="misses its tolerance") as excinfo:
        integrate_semi_infinite(
            lambda r: np.cos(40.0 * r) * np.exp(-r), QuadratureConfig(), decay_exponent=1.0
        )
    assert isinstance(excinfo.value.best, IntegralResult)
    assert excinfo.value.best.error_estimate > QuadratureConfig().abs_tol


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_estimate_bounds_cauchy_profile_error(cfg, dim):
    # at s = 1/2 the profile integral int e^-rho rho^(d/2) J_(d/2-1)(r rho)
    # has a closed form; the reported estimate must bound the error at
    # every radius, also where the error is pure rounding
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import oracles
    finally:
        sys.path.pop(0)
    misses = []
    for r in np.geomspace(0.05, 40.0, 40).tolist():
        res = integrate_semi_infinite(
            lambda rho: np.exp(-rho) * rho ** (0.5 * dim) * jv(0.5 * dim - 1.0, r * rho),
            cfg,
            decay_exponent=1.0,
            poly_power=0.5 * dim,
            osc_scale=r,
        )
        error = abs(res.value - oracles.cauchy_profile_integral(dim, r))
        if error > res.error_estimate:
            misses.append((r, error, res.error_estimate))
    assert not misses


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(rel_tol=-1e-3)


@pytest.mark.parametrize(
    "field, value", [("abs_tol", math.nan), ("abs_tol", math.inf), ("rel_tol", math.inf), ("rel_tol", math.nan)]
)
def test_config_refuses_non_finite_tolerances(field, value):
    with pytest.raises(ValueError, match=field):
        QuadratureConfig(**{field: value})


@pytest.mark.parametrize(
    "kwargs, name",
    [
        ({"decay_exponent": math.inf}, "decay_exponent"),
        ({"decay_exponent": math.nan}, "decay_exponent"),
        ({"decay_exponent": 1.0, "poly_power": -5.0}, "poly_power"),
        ({"decay_exponent": 1.0, "poly_power": -1.0}, "poly_power"),
        ({"decay_exponent": 1.0, "poly_power": math.inf}, "poly_power"),
        ({"decay_exponent": 1.0, "osc_scale": math.inf}, "osc_scale"),
        ({"decay_exponent": 1.0, "osc_scale": -1.0}, "osc_scale"),
        ({"decay_exponent": 1.0, "osc_scale": math.nan}, "osc_scale"),
    ],
    ids=["decay-inf", "decay-nan", "power-minus-5", "power-minus-1", "power-inf", "osc-inf", "osc-negative", "osc-nan"],
)
def test_integrate_semi_infinite_refuses_what_it_cannot_bound(cfg, kwargs, name):
    # each of these once returned a NaN estimate, raised a bare
    # ZeroDivisionError or laid panels at negative abscissae
    with pytest.raises(ValueError, match=name):
        integrate_semi_infinite(lambda r: np.exp(-r), cfg, **kwargs)


@pytest.mark.parametrize("estimate", [math.nan, -1e-300])
def test_result_refuses_an_estimate_that_is_not_nonnegative(estimate):
    with pytest.raises(ValueError, match="error_estimate"):
        IntegralResult(1.0, estimate, 1)


def test_nan_integrand_is_a_quadrature_refusal(cfg):
    # a NaN estimate is a miss, and the refusal names the integral and
    # carries the NaN estimate as an unbounded one
    with pytest.raises(QuadratureError, match="integrate_semi_infinite at r=0 misses its tolerance") as excinfo:
        integrate_semi_infinite(lambda r: np.full_like(r, np.nan), cfg, decay_exponent=1.0)
    assert excinfo.value.best.error_estimate == math.inf
    assert math.isnan(excinfo.value.best.value)


@given(st.floats(min_value=1.0, max_value=6.0))
@settings(max_examples=40, deadline=None)
def test_quadrature_scaled_exponential(a):
    # a*e^{-a r} integrates to 1 for any rate >= 1 (the claimed envelope
    # e^{-r} then genuinely dominates the integrand)
    res = integrate_semi_infinite(
        lambda r: a * np.exp(-a * r), QuadratureConfig(), decay_exponent=1.0
    )
    assert res.value == pytest.approx(1.0, abs=1e-8)
