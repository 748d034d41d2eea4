"""Solver tests: grids, the canonical flow, diagnostics, classical comparison."""

import dataclasses
import math
import re
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fracheat import families as fam
from fracheat import kernel, solver
from fracheat.fraclap import frac_laplacian
from fracheat.kernel import BODY_EDGES, TAIL_CUT, KernelParams, profile_table, tail_coefficients
from fracheat.solver import (
    _MAX_ANGULAR,
    _RadialBands,
    _solution,
    _solve_batch,
    GridSpec,
    SolutionField,
    classical_lifespan,
    initial_continuity_check,
    pde_residual,
    residual_with_estimate,
    solution_at,
    solve_canonical,
    solve_classical,
    time_derivative,
)
from fracheat.specfun import panel_rule, tail_integral

PAR_06 = KernelParams(dim=1, s=0.6)
PAR_07 = KernelParams(dim=1, s=0.7)
PAR_075 = KernelParams(dim=1, s=0.75)
PAR_08 = KernelParams(dim=1, s=0.8)

LINE = GridSpec(dim=1, box=((-3.0, 3.0),), counts=(25,), times=(0.0, 0.25, 1.0))


def record(report, name):
    return next(r for r in report.records if r.name == name)


class TestGridSpec:
    def test_axes_and_nodes_layout(self):
        g = GridSpec(
            dim=2, box=((0.0, 1.0), (-1.0, 1.0)), counts=(3, 4), times=(0.5,)
        )
        ax0, ax1 = g.axes()
        assert np.array_equal(ax0, np.linspace(0.0, 1.0, 3))
        assert np.array_equal(ax1, np.linspace(-1.0, 1.0, 4))
        nodes = g.nodes()
        assert nodes.shape == (12, 2)
        # last axis runs fastest
        assert np.array_equal(nodes[:4, 0], np.zeros(4))
        assert np.array_equal(nodes[:4, 1], ax1)
        assert g.node_count == 12

    def test_sequences_normalized_to_float_tuples(self):
        g = GridSpec(dim=1, box=[[0, 2]], counts=[5], times=[0, 1])
        assert g.box == ((0.0, 2.0),)
        assert g.times == (0.0, 1.0)
        assert all(isinstance(t, float) for t in g.times)

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            (dict(dim=0, box=(), counts=(), times=(1.0,)), "positive integer"),
            (
                dict(dim=2, box=((0.0, 1.0),), counts=(3, 3), times=(1.0,)),
                "one entry per axis",
            ),
            (
                dict(dim=1, box=((2.0, 1.0),), counts=(3,), times=(1.0,)),
                "lo < hi",
            ),
            (
                dict(dim=1, box=((0.0, 1.0),), counts=(1,), times=(1.0,)),
                "two nodes",
            ),
            (dict(dim=1, box=((0.0, 1.0),), counts=(3,), times=()), "one time"),
            (
                dict(dim=1, box=((0.0, 1.0),), counts=(3,), times=(-0.5,)),
                "non-negative",
            ),
            (
                dict(dim=1, box=((0.0, 1.0),), counts=(3,), times=(1.0, 1.0)),
                "increase strictly",
            ),
            (dict(dim=1, box=((0.0, 1.0),), counts=(2.7,), times=(1.0,)), "grid counts must be an integer"),
            (dict(dim=True, box=((0.0, 1.0),), counts=(3,), times=(1.0,)), "dim must be an integer"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            GridSpec(**kwargs)


class TestSolutionField:
    def _grid(self):
        return GridSpec(dim=1, box=((-1.0, 1.0),), counts=(5,), times=(0.0, 0.5))

    def test_time_zero_row_must_reproduce_datum(self):
        g = self._grid()
        u0 = fam.cosine(1.0)
        vals = np.vstack([u0.value(g.nodes()) + 1e-12, u0.value(g.nodes())])
        with pytest.raises(ValueError, match="exactly"):
            SolutionField(grid=g, values=vals, error_estimates=np.zeros((2, 5)), datum=u0)

    def test_rows_are_write_once(self):
        g = self._grid()
        u0 = fam.constant(1.0)
        vals = np.ones((2, 5))
        sol = SolutionField(grid=g, values=vals, error_estimates=np.zeros((2, 5)), datum=u0)
        with pytest.raises(ValueError):
            sol.values[1, 0] = 7.0

    def test_shape_and_sign_checks(self):
        g = self._grid()
        u0 = fam.constant(1.0)
        with pytest.raises(ValueError, match="shape"):
            SolutionField(grid=g, values=np.ones((2, 4)), error_estimates=np.zeros((2, 4)), datum=u0)
        with pytest.raises(ValueError, match="finite"):
            SolutionField(
                grid=g,
                values=np.full((2, 5), np.nan),
                error_estimates=np.zeros((2, 5)),
                datum=u0,
            )
        with pytest.raises(ValueError, match="non-negative"):
            SolutionField(
                grid=g,
                values=np.ones((2, 5)),
                error_estimates=np.full((2, 5), -1.0),
                datum=u0,
            )

    def test_accessors(self):
        g = self._grid()
        u0 = fam.constant(2.0)
        sol = SolutionField(
            grid=g, values=np.full((2, 5), 2.0), error_estimates=np.zeros((2, 5)), datum=u0
        )
        assert np.array_equal(sol.at_time(1), np.full(5, 2.0))


class TestCanonicalSolve:
    def test_constant_is_a_fixed_point(self):
        sol = solve_canonical(fam.constant(2.0), LINE, PAR_075)
        np.testing.assert_allclose(sol.values, 2.0, atol=1e-6)

    def test_cosine_decays_at_unit_rate(self):
        # frequency-one cosine is an eigenfunction with eigenvalue one for
        # every order, so u = exp(-t) cos x exactly
        u0 = fam.cosine(1.0)
        sol = solve_canonical(u0, LINE, PAR_06)
        x = LINE.nodes()[:, 0]
        for k, t in enumerate(LINE.times):
            truth = math.exp(-t) * np.cos(x)
            np.testing.assert_allclose(sol.values[k], truth, atol=1e-4)
            assert np.all(np.abs(sol.values[k] - truth) <= 10.0 * sol.error_estimates[k] + 1e-9)

    def test_affine_is_invariant(self):
        u0 = fam.affine(1.5, 0.5)
        sol = solve_canonical(u0, LINE, PAR_08)
        x = LINE.nodes()[:, 0]
        assert np.max(np.abs(sol.values - (1.5 + 0.5 * x)[None, :])) <= 1e-6

    def test_time_zero_row_is_exact(self):
        u0 = fam.gaussian(1.0)
        sol = solve_canonical(u0, LINE, PAR_07)
        assert np.array_equal(sol.values[0], u0.value(LINE.nodes()))
        assert np.all(sol.error_estimates[0] == 0.0)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension"):
            solve_canonical(fam.cosine(1.0, dim=2), LINE, PAR_06)
        with pytest.raises(ValueError, match="dimension"):
            solve_canonical(fam.cosine(1.0), LINE, KernelParams(dim=2, s=0.6))

    def test_too_much_growth_rejected(self):
        with pytest.raises(ValueError, match="does not converge"):
            solve_canonical(fam.abs_power(1.6), LINE, PAR_075)

    def test_worker_count_does_not_change_bits(self):
        g = GridSpec(dim=1, box=((-2.0, 2.0),), counts=(13,), times=(0.4,))
        u0 = fam.cosine(1.0)
        serial = solve_canonical(u0, g, PAR_06, workers=1)
        threaded = solve_canonical(u0, g, PAR_06, workers=3)
        assert np.array_equal(serial.values, threaded.values)
        assert np.array_equal(serial.error_estimates, threaded.error_estimates)

    def test_thread_env_override(self, monkeypatch):
        g = GridSpec(dim=1, box=((-1.0, 1.0),), counts=(7,), times=(0.3,))
        u0 = fam.gaussian(1.0)
        serial = solve_canonical(u0, g, PAR_07, workers=1)
        monkeypatch.setenv("FRACHEAT_THREADS", "4")
        via_env = solve_canonical(u0, g, PAR_07)
        assert np.array_equal(serial.values, via_env.values)

    @pytest.mark.parametrize("workers", [0, -2, 2.5, True])
    def test_bad_worker_count_refused(self, workers):
        g = GridSpec(dim=1, box=((-1.0, 1.0),), counts=(3,), times=(0.3,))
        kind = "a positive integer" if isinstance(workers, int) and not isinstance(workers, bool) else "an integer"
        msg = f"workers must be {kind}, got {workers!r}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            solve_canonical(fam.gaussian(1.0), g, PAR_07, workers=workers)

    @pytest.mark.parametrize("env", ["0", "-1", "+2", "two", "1.5", ""])
    def test_bad_thread_env_refused(self, monkeypatch, env):
        g = GridSpec(dim=1, box=((-1.0, 1.0),), counts=(3,), times=(0.3,))
        monkeypatch.setenv("FRACHEAT_THREADS", env)
        msg = f"FRACHEAT_THREADS must be a positive integer, got {env!r}"
        with pytest.raises(ValueError, match=re.escape(msg)):
            solve_canonical(fam.gaussian(1.0), g, PAR_07)

    def test_threaded_solve_builds_each_table_once(self, monkeypatch):
        # the solve jobs of different times miss the cold tables together
        builds = _slow_counter(monkeypatch, kernel, "build_profile_table")
        g = GridSpec(dim=1, box=((-2.0, 2.0),), counts=(9,), times=(0.25, 0.5, 1.0, 2.0))
        params = KernelParams(dim=1, s=0.64)
        threaded = solve_canonical(fam.cosine(1.0), g, params, workers=2)
        assert [(p.dim, p.s) for p, in builds] == [(1, 0.64)]
        serial = solve_canonical(fam.cosine(1.0), g, params, workers=1)
        assert np.array_equal(serial.values, threaded.values)
        assert np.array_equal(serial.error_estimates, threaded.error_estimates)

    @settings(max_examples=12, deadline=None)
    @given(
        x=st.floats(min_value=-3.0, max_value=3.0),
        t=st.floats(min_value=0.05, max_value=2.0),
    )
    def test_pointwise_cosine_solution(self, x, t):
        val, err = solution_at(fam.cosine(1.0), np.array([x]), t, PAR_06)
        truth = math.exp(-t) * math.cos(x)
        assert abs(val - truth) <= 1e-6
        assert abs(val - truth) <= 10.0 * err + 1e-9

    def test_slow_oscillation_stays_on_half_period_panels(self):
        # a half-period longer than half the profile range: geometric panels
        # capped at the oscillation's scale would need about 2.6e12 panels out
        # to the certified cutoff, 1.3e14
        xs = np.linspace(-3.0, 3.0, 7)
        vals, errs = _solve_batch(fam.cosine(1.0), xs[:, None], 0.3, KernelParams(dim=1, s=0.3))
        assert np.all(np.abs(vals - math.exp(-0.3) * np.cos(xs)) <= errs)
        assert np.max(errs) <= 1e-6

    @settings(max_examples=20, deadline=None)
    @given(
        lo=st.floats(min_value=-5.0, max_value=0.0),
        width=st.floats(min_value=0.5, max_value=5.0),
        count=st.integers(min_value=2, max_value=6),
        freq=st.floats(min_value=0.5, max_value=3.0),
    )
    def test_time_zero_only_grid_reproduces_datum(self, lo, width, count, freq):
        g = GridSpec(dim=1, box=((lo, lo + width),), counts=(count,), times=(0.0,))
        u0 = fam.cosine(freq)
        sol = solve_canonical(u0, g, PAR_06)
        assert np.array_equal(sol.values[0], u0.value(g.nodes()))

    def test_order_between_data_is_preserved(self):
        # cos x <= 1 and exp(-|x|^2) <= 1 pointwise; the flow keeps both
        g = GridSpec(dim=1, box=((-2.5, 2.5),), counts=(9,), times=(0.3, 1.2))
        top = solve_canonical(fam.constant(1.0), g, PAR_06)
        for low in (fam.cosine(1.0), fam.gaussian(1.0)):
            sol = solve_canonical(low, g, PAR_06)
            assert np.all(sol.values <= top.values + 1e-7)

    def test_flow_is_linear(self):
        g = GridSpec(dim=1, box=((-2.0, 2.0),), counts=(9,), times=(0.5,))
        combined = solve_canonical(fam.affine(0.7, -0.4), g, PAR_08)
        ones = solve_canonical(fam.constant(1.0), g, PAR_08)
        ramp = solve_canonical(fam.affine(0.0, 1.0), g, PAR_08)
        np.testing.assert_allclose(
            combined.values, 0.7 * ones.values - 0.4 * ramp.values, atol=5e-8
        )

    @pytest.mark.parametrize(
        "u0, s",
        [
            (fam.cosine(1.0), 0.6),
            (fam.cosine(2.5), 0.75),
            (fam.gaussian(1.0), 0.7),
            (fam.gaussian(0.25), 0.6),
            (fam.constant(-3.0), 0.5),
        ],
    )
    def test_maximum_principle(self, u0, s):
        g = GridSpec(dim=1, box=((-2.0, 2.0),), counts=(9,), times=(0.3, 1.5))
        sol = solve_canonical(u0, g, KernelParams(dim=1, s=s))
        assert np.all(sol.values <= u0.sup_value + 5e-7)
        assert np.all(sol.values >= u0.inf_value - 5e-7)

    @pytest.mark.parametrize("freq", [1.0, 2.0])
    def test_near_classical_order_matches_heat_flow(self, freq):
        # at s = 0.999 the decay rate freq^(2s) sits within a fraction of
        # a percent of the classical freq^2; frequency two actually
        # separates the two multipliers, frequency one coincides exactly
        g = GridSpec(dim=1, box=((-2.0, 2.0),), counts=(9,), times=(0.25, 1.0))
        u0 = fam.cosine(freq)
        frac = solve_canonical(u0, g, KernelParams(dim=1, s=0.999))
        heat = solve_classical(u0, g)
        gap = np.max(np.abs(frac.values - heat.values))
        assert gap <= 0.02 * max(1.0, float(np.max(np.abs(heat.values))))


class TestTimeDerivative:
    def test_cosine_rate(self):
        for x, t in [(0.0, 0.5), (0.7, 1.0)]:
            got = time_derivative(fam.cosine(1.0), np.array([x]), t, PAR_06)
            assert abs(got + math.exp(-t) * math.cos(x)) <= 1e-5

    def test_constant_rate_vanishes(self):
        got = time_derivative(fam.constant(2.0), np.array([0.7]), 0.5, PAR_075)
        assert abs(got) <= 1e-6

    @pytest.mark.parametrize(
        "u0, x, t, params",
        [
            (fam.gaussian(1.0), 0.3, 0.8, PAR_07),
            (fam.cosine(1.0), 0.4, 0.6, PAR_06),
        ],
    )
    def test_rate_matches_time_differencing(self, u0, x, t, params):
        # the derivative route rests on an exact profile identity in a
        # shifted dimension; differencing the plain solution never touches
        # that identity, so agreement checks it end to end
        h = 1e-3
        up, _ = solution_at(u0, np.array([x]), t + h, params)
        dn, _ = solution_at(u0, np.array([x]), t - h, params)
        got = time_derivative(u0, np.array([x]), t, params)
        assert abs(got - (up - dn) / (2.0 * h)) <= 5e-6

    def test_growing_convex_datum_heats_up(self):
        # |x|^1.2 has a negative fractional Laplacian nowhere, so du/dt
        # stays non-negative at every sampled point
        u0 = fam.abs_power(1.2)
        for x in (0.0, 1.0, 3.0):
            for t in (0.25, 1.0, 4.0):
                got = time_derivative(u0, np.array([x]), t, PAR_075)
                assert got >= -1e-6

    def test_rejects_nonpositive_time(self):
        for entry in (time_derivative, pde_residual):
            with pytest.raises(ValueError, match="convolution requires a finite t > 0, got 0.0"):
                entry(fam.cosine(1.0), np.array([0.0]), 0.0, PAR_06)


@pytest.mark.parametrize("entry", [solution_at, time_derivative, pde_residual])
def test_nan_time_is_refused(entry):
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"convolution requires a finite t > 0, got {t}"):
            entry(fam.cosine(1.0), np.array([0.3]), t, PAR_06)


@pytest.mark.parametrize("entry", [solution_at, time_derivative, pde_residual])
def test_non_finite_point_is_refused(entry):
    with pytest.raises(ValueError, match="point x must be finite"):
        entry(fam.cosine(1.0), np.array([math.nan]), 1.0, PAR_06)


def test_non_finite_start_point_is_refused():
    with pytest.raises(ValueError, match="point x must be finite"):
        initial_continuity_check(fam.cosine(1.0), [math.inf], PAR_06)


def test_dimension_above_three_is_refused():
    grid = GridSpec(dim=4, box=((0.0, 1.0),) * 4, counts=(2,) * 4, times=(0.5,))
    with pytest.raises(ValueError, match="dim <= 3"):
        solve_canonical(fam.gaussian(1.0, dim=4), grid, KernelParams(dim=4, s=0.75))


class TestAngularRefinement:
    PAR_2D = KernelParams(dim=2, s=0.75)

    @pytest.mark.parametrize(
        "u0, grid",
        [
            # the geosol ruled grid
            (
                fam.ruled(1.2, dim=2),
                GridSpec(2, ((-2.0, 2.0), (-2.0, 2.0)), (9, 5), (0.5, 1.0, 2.0)),
            ),
            (
                fam.cosine(1.0, dim=2),
                GridSpec(2, ((-1.7, 2.3), (-2.2, 1.8)), (5, 5), (0.5, 1.0)),
            ),
        ],
        ids=["ruled", "cosine"],
    )
    def test_error_estimate_bounds_gap_to_finest_rule(self, u0, grid):
        sol = solve_canonical(u0, grid, self.PAR_2D)
        pts = grid.nodes()
        for ti, t in enumerate(grid.times):
            ref, _ = _RadialBands(u0, pts, t, self.PAR_2D, "mass", _MAX_ANGULAR[2]).values()
            gap = np.abs(sol.values[ti] - ref)
            assert np.all(gap <= sol.error_estimates[ti])

    def test_each_direction_is_evaluated_once_per_batch(self):
        # a point seen twice in one batch means a refinement level redid
        # the directions its nested coarser rule had already evaluated.
        # Points are sampled by a hash of their bits, so repeats of a
        # point are always kept or dropped together.  Distinct (node,
        # radius, direction) triples must not share a point either: the
        # grid spacings are no sum of two radial nodes, and far out, where
        # the node offsets drown in rounding, points are not compared.
        u0 = fam.ruled(1.2, dim=2)
        sampled, total = [], [0]

        def counting(pts):
            bits = np.ascontiguousarray(pts).view(np.uint64)
            near = np.max(np.abs(pts), axis=1) < 1e6
            sampled.append(pts[near & ((bits[:, 0] ^ bits[:, 1]) % 64 == 0)])
            total[0] += int(np.count_nonzero(near))
            return u0.value(pts)

        grid = GridSpec(2, ((-1.3, 1.8), (-1.1, 2.1)), (3, 3), (1.0,))
        solve_canonical(dataclasses.replace(u0, value=counting), grid, self.PAR_2D)
        rows = np.concatenate(sampled)
        assert len(rows) > total[0] // 100
        assert len(np.unique(rows, axis=0)) == len(rows)


# data whose exact residual is 0, each at a seeded (x, t) draw
_EXACT_ZERO = [(fam.cosine(freq), s) for freq in (0.5, 1.0, 2.0) for s in (0.3, 0.6, 0.9)] + [
    (u0, s)
    for u0 in (fam.constant(2.0), fam.affine(0.5, 1.0), fam.gaussian(1.0))
    for s in (0.55, 0.75, 0.9)
]
_EXACT_ZERO_DRAWS = np.random.default_rng(11).uniform(
    (-2.0, 0.3), (2.0, 1.5), size=(len(_EXACT_ZERO), 2)
)


class TestResidual:
    @pytest.mark.parametrize(
        "u0, x, t, params, tol",
        [
            (fam.cosine(1.0), 0.3, 0.8, PAR_06, 1e-3),
            (fam.constant(2.0), 0.7, 0.5, PAR_075, 1e-6),
            (fam.gaussian(1.0), 0.5, 1.0, PAR_07, 1e-3),
            (fam.abs_power(1.2), 1.0, 1.0, PAR_075, 1e-3),
            (fam.affine(0.5, 1.0), 2.0, 0.7, PAR_08, 1e-6),
            (fam.cosine(1.0), 0.0, 0.5, PAR_06, 1e-3),
        ],
    )
    def test_battery(self, u0, x, t, params, tol):
        val, est = residual_with_estimate(u0, np.array([x]), t, params)
        assert abs(val) <= tol
        assert est <= 1e-3
        assert abs(val) <= 5.0 * est + 1e-9

    def test_small_order_regime(self):
        # s = 0.3 pushes the scaling exponent to 1/(2s) > 1.5 and forces
        # the slow-decay table extension; runtime is dominated by that
        # one-time build
        val, est = residual_with_estimate(
            fam.gaussian(1.0), np.array([2.0]), 0.5, KernelParams(dim=1, s=0.3)
        )
        assert abs(val) <= 1e-3
        assert est <= 1e-3

    @pytest.mark.parametrize(
        "u0, dim", [(fam.cosine(1.0, dim=2), 2), (fam.gaussian(1.0, dim=3), 3)]
    )
    def test_multi_dim_is_refused_before_any_work(self, u0, dim):
        calls = []

        def counting(pts):
            calls.append(len(pts))
            return u0.value(pts)

        with pytest.raises(ValueError, match=f"in dim {dim}"):
            residual_with_estimate(
                dataclasses.replace(u0, value=counting),
                np.zeros(dim),
                0.5,
                KernelParams(dim=dim, s=0.6),
            )
        assert calls == []

    @pytest.mark.parametrize("lam", [0.5, -0.5, 2.0])
    def test_kinked_data_are_refused_before_any_work(self, lam):
        # the solve estimates near a corner do not bound their error, so a
        # residual built on them would not either
        u0 = fam.piecewise_linear_1d(lam)
        calls = []

        def counting(pts):
            calls.append(len(pts))
            return u0.value(pts)

        with pytest.raises(ValueError, match="corner at x = 0"):
            residual_with_estimate(dataclasses.replace(u0, value=counting), np.array([0.7]), 0.5, PAR_075)
        assert calls == []

    def test_the_straight_kinked_line_is_answered(self):
        # at slope 1 on both sides the datum is the line u = x, whose field is exact
        val, est = residual_with_estimate(fam.piecewise_linear_1d(1.0), np.array([0.7]), 0.5, PAR_075)
        assert abs(val) <= est <= 1e-12

    @pytest.mark.parametrize("x", [0.0, 1.0])
    @pytest.mark.parametrize("t", [0.25, 0.5])
    @pytest.mark.parametrize("s", [0.55, 0.75, 0.9])
    def test_estimate_covers_the_fit_truncation(self, s, t, x):
        # smooth data at small times: the residual is then mostly the
        # truncation error of the quintic fit on the near stencil
        val, est = residual_with_estimate(
            fam.gaussian(1.0), np.array([x]), t, KernelParams(dim=1, s=s)
        )
        assert abs(val) <= est

    @pytest.mark.parametrize(
        "case", range(len(_EXACT_ZERO)), ids=[f"{u0.label}-s{s}" for u0, s in _EXACT_ZERO]
    )
    def test_estimate_bounds_exact_zero_battery(self, case):
        (u0, s), (x, t) = _EXACT_ZERO[case], _EXACT_ZERO_DRAWS[case]
        val, est = residual_with_estimate(u0, np.array([x]), t, KernelParams(dim=1, s=s))
        assert abs(val) <= est

    def test_oscillatory_batch_stays_small(self, monkeypatch):
        # half-period panels past a few periods; a geometric mid-range out
        # to the far-field cutoff needs 19,495 points here
        points = []

        def counting(u0, pts, *args, **kwargs):
            points.append(len(pts))
            return _solve_batch(u0, pts, *args, **kwargs)

        monkeypatch.setattr(solver, "_solve_batch", counting)
        residual_with_estimate(fam.cosine(1.0), np.array([0.3]), 0.8, PAR_06)
        assert sum(points) < 3000

    def test_plain_and_estimated_forms_agree(self):
        args = (fam.cosine(1.0), np.array([0.3]), 0.8, PAR_06)
        assert pde_residual(*args) == residual_with_estimate(*args)[0]


def _kernel_moment(dim, s, beta):
    # m_beta as GrowthEnvelope.flowed spends it: the growth a slope-one
    # envelope picks up by t = 1, over its shift constant
    env = fam.GrowthEnvelope(0.0, 1.0, beta)
    return env.flowed(dim, s, 1.0).amplitude / env.shift


class TestSolutionEnvelope:
    @pytest.mark.parametrize("s, beta", [(0.75, 1.2), (0.65, 1.2), (0.9, 1.0)])
    def test_kernel_moment_matches_the_profile(self, s, beta):
        # E|X|^beta = 2 (2 pi)^(-1/2) int_0^inf r^beta F(r) dr, on the body
        # panels of the tabulated profile and the series past TAIL_CUT
        rs, ws = map(np.ravel, panel_rule(BODY_EDGES, 24))
        body = float(np.dot(profile_table(1, s).evaluate(rs) * rs**beta, ws))
        tail = tail_integral(tail_coefficients(1, s), s, TAIL_CUT, beta)
        moment = _kernel_moment(1, s, beta)
        assert abs(moment - 2.0 * (2.0 * math.pi) ** -0.5 * (body + tail)) <= 1e-9 * moment

    def test_moment_of_order_zero_is_the_mass(self):
        assert _kernel_moment(1, 0.6, 0.0) == 1.0
        assert _kernel_moment(3, 0.6, 0.0) == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("s", [0.65, 0.75, 0.9])
    def test_solution_stays_under_its_envelope(self, s):
        u0, params = fam.abs_power(1.2), KernelParams(dim=1, s=s)
        side = np.geomspace(1e-3, 1e6, 19)
        ys = np.concatenate([-side, [0.0], side])
        for t in (0.1, 0.5, 2.0, 10.0):
            vals, errs = _solve_batch(u0, ys[:, None], t, params)
            assert np.all(np.abs(vals) + errs <= _solution(u0, t, params).envelope.bound(ys))

    @pytest.mark.parametrize("u0", [fam.gaussian(1.0), fam.abs_power(1.2), fam.cosine(1.0)])
    def test_only_an_exact_far_field_carries_over(self, u0):
        sol = _solution(u0, 0.5, PAR_075)
        assert sol.far_field is None
        assert sol.bounded_oscillation == u0.bounded_oscillation
        assert _solution(fam.affine(0.5, 1.0), 0.5, PAR_075).is_affine


class TestPointBlocks:
    # blocks of 32 points: a power of two like _NODE_BLOCK, so a block
    # boundary never splits the row groups of the matrix-vector products
    @pytest.mark.parametrize("kind", ["mass", "rate"])
    @pytest.mark.parametrize(
        "u0",
        [fam.cosine(1.0), fam.abs_power(1.2), fam.gaussian(1.0)],
        ids=["oscillatory-route", "growth-route", "slow-route"],
    )
    def test_blocking_changes_no_bit(self, u0, kind, monkeypatch):
        pts = np.linspace(-40.0, 40.0, 101)[:, None]
        monkeypatch.setattr(solver, "_NODE_BLOCK", len(pts) + 1)
        whole = _solve_batch(u0, pts, 0.7, PAR_075, kind)
        monkeypatch.setattr(solver, "_NODE_BLOCK", 32)
        blocked = _solve_batch(u0, pts, 0.7, PAR_075, kind)
        assert np.array_equal(whole[0], blocked[0])
        assert np.array_equal(whole[1], blocked[1])

    def test_refined_bands_agree_across_blocks(self, monkeypatch):
        # the sphere sums do not depend on the block's point count, but
        # surf @ fac may, in its last bits, for blocks under the row group
        # of the matrix-vector kernels; each block's refinement must still
        # build on its own kept sums
        u0, params = fam.cosine(1.0, dim=2), KernelParams(dim=2, s=0.75)
        pts = np.linspace(-40.0, 40.0, 24).reshape(12, 2)
        monkeypatch.setattr(solver, "_NODE_BLOCK", len(pts) + 1)
        whole = _solve_batch(u0, pts, 0.7, params)
        monkeypatch.setattr(solver, "_NODE_BLOCK", 4)
        blocked = _solve_batch(u0, pts, 0.7, params)
        scale = float(np.max(np.abs(whole[0])))
        assert np.allclose(whole[0], blocked[0], rtol=0.0, atol=1e-14 * scale)
        assert np.allclose(whole[1], blocked[1], rtol=0.0, atol=1e-14 * scale)

    def test_residual_memory_stays_bounded(self):
        # its operator term is one batch of 1,927 points; worked through in
        # blocks it peaks at 11.8 MiB, held whole at 34.7 MiB
        profile_table(1, 0.6)
        profile_table(3, 0.6)
        assert _traced_peak(
            lambda: residual_with_estimate(fam.cosine(1.0), np.array([0.7]), 0.8, PAR_06)
        ) < 32 * 2**20

    @pytest.mark.parametrize(
        "run",
        [
            lambda: solve_canonical(
                fam.ruled(1.2, dim=2),
                GridSpec(2, ((-2.0, 2.0),) * 2, (3, 3), (1.0,)),
                KernelParams(dim=2, s=0.75),
            ),
            lambda: solve_canonical(
                fam.gaussian(1.0, dim=3),
                GridSpec(3, ((-1.0, 1.0),) * 3, (2, 2, 2), (1.0,)),
                KernelParams(dim=3, s=0.75),
            ),
            lambda: frac_laplacian(fam.cosine(1.0, dim=2), [0.3, -0.4], 0.75),
        ],
        ids=["ruled-2d", "gaussian-3d", "fraclap-2d"],
    )
    def test_sphere_sums_stay_cache_sized(self, run):
        # pair_sums works through clouds of about 2^16 points; clouds of
        # 1.5M points would peak at 58, 69 and 25 MiB here
        profile_table(2, 0.75)
        profile_table(3, 0.75)
        assert _traced_peak(run) < 8 * 2**20


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _slow_counter(monkeypatch, module, name: str) -> list:
    # replace module.name by a slow pass-through that records its arguments
    calls = []
    real = getattr(module, name)

    def slow(*args):
        calls.append(args)
        time.sleep(0.2)
        return real(*args)

    monkeypatch.setattr(module, name, slow)
    return calls


def _together(fn, count: int = 4) -> list:
    # call fn from more threads than cores, released at the same moment,
    # with a short switch interval so that the threads interleave finely
    start = threading.Barrier(count, timeout=30.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=count) as pool:
            futures = [pool.submit(lambda: (start.wait(), fn())[1]) for _ in range(count)]
            return [f.result(timeout=120.0) for f in futures]
    finally:
        sys.setswitchinterval(interval)


class TestConcurrentMisses:
    def test_profile_table_builds_once(self, monkeypatch):
        builds = _slow_counter(monkeypatch, kernel, "build_profile_table")
        tables = _together(lambda: kernel.profile_table(1, 0.62))
        assert len(builds) == 1
        assert all(table is tables[0] for table in tables)

    def test_factor_tables_build_once(self, monkeypatch):
        lookups = _slow_counter(monkeypatch, solver, "profile_table")
        factors = _together(lambda: solver._factor_tables(1, 0.63, "rate"))
        # one build reads the dim-1 table and its dim-3 companion
        assert lookups == [(1, 0.63), (3, 0.63)]
        assert all(f is factors[0] for f in factors)


class TestEnvelopePropagation:
    # a datum's envelope carried by the flow to time t (GrowthEnvelope.flowed)
    def test_growing_datum_exponent_stays_sublinear(self):
        env = fam.abs_power(1.2).envelope
        assert env.shift == pytest.approx(2.0**0.2, rel=1e-15)
        ts = np.array([0.5, 1.0, 2.0, 4.0, 8.0])
        flowed = [env.flowed(1, 0.75, t) for t in ts]
        assert all(f.slope == env.shift and f.power == 1.2 for f in flowed)
        # A(t) - A(0) grows like t^(beta/2s) = t^0.8
        growth = [f.amplitude - env.amplitude for f in flowed]
        slope, _ = np.polyfit(np.log(ts), np.log(growth), 1)
        assert slope == pytest.approx(0.8, abs=1e-12)

    def test_decaying_datum(self):
        # the flow of a bounded datum keeps its envelope; the cosine's
        # solution decays under it
        env = fam.cosine(1.0).envelope
        assert env.flowed(1, 0.6, 4.0) is env
        times = (0.5, 1.0, 2.0, 4.0)
        field = solve_canonical(fam.cosine(1.0), GridSpec(1, ((-3.0, 3.0),), (7,), times), PAR_06)
        peaks = [float(np.max(np.abs(row))) for row in field.values]
        assert all(b < a < 1.0 for a, b in zip(peaks, peaks[1:]))

    def test_bounded_datum_stays_bounded(self):
        env = fam.gaussian(1.0).envelope
        assert env.flowed(1, 0.7, 2.0) == env == fam.GrowthEnvelope(1.0, 0.0, 0.0)

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="diverges unless 1.6 < 2s"):
            fam.abs_power(1.6).envelope.flowed(1, 0.75, 0.5)


class TestInitialContinuity:
    @pytest.mark.parametrize(
        "u0, x0, params",
        [
            (fam.cosine(1.0), 0.7, PAR_06),
            (fam.gaussian(1.0), 0.3, PAR_07),
            (fam.abs_power(1.2), 0.4, PAR_075),
        ],
    )
    def test_joint_limit_reached(self, u0, x0, params):
        report = initial_continuity_check(u0, np.array([x0]), params)
        assert report.overall_pass
        assert record(report, "monotone-approach").passed
        assert record(report, "limit-reached").measured <= 5e-3

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="shape"):
            initial_continuity_check(fam.cosine(1.0), np.zeros(2), PAR_06)


class TestClassicalFlow:
    def test_cosine_under_the_heat_flow(self):
        g = GridSpec(dim=1, box=((-3.0, 3.0),), counts=(25,), times=(0.0, 0.4, 0.9))
        sol = solve_classical(fam.cosine(1.0), g)
        x = g.nodes()[:, 0]
        for k, t in enumerate(g.times):
            np.testing.assert_allclose(sol.values[k], math.exp(-t) * np.cos(x), atol=1e-6)

    def test_quadratic_datum_heats_linearly(self):
        # 1 + |x|^2 gains exactly 2t in one dimension
        g = GridSpec(dim=1, box=((-2.0, 2.0),), counts=(9,), times=(0.2, 0.9))
        sol = solve_classical(fam.abs_power(2.0), g)
        x = g.nodes()[:, 0]
        for k, t in enumerate(g.times):
            np.testing.assert_allclose(sol.values[k], 1.0 + x**2 + 2.0 * t, atol=1e-6)

    def test_affine_is_exactly_invariant(self):
        g = GridSpec(dim=1, box=((-2.0, 2.0),), counts=(9,), times=(0.3, 0.8))
        sol = solve_classical(fam.affine(1.0, -2.0), g)
        x = g.nodes()[:, 0]
        assert np.max(np.abs(sol.values - (1.0 - 2.0 * x)[None, :])) <= 1e-12

    def test_lifespan_values(self):
        assert classical_lifespan(fam.constant(5.0)) == math.inf
        assert classical_lifespan(fam.cosine(2.0)) == math.inf
        assert classical_lifespan(fam.gaussian(1.0)) == math.inf
        assert classical_lifespan(fam.abs_power(2.0)) == 1.0
        assert classical_lifespan(fam.affine(1.0, 0.5)) == 1.0
        assert classical_lifespan(fam.affine(1.0, 0.0)) == math.inf

    def test_rejects_times_beyond_the_horizon(self):
        g = GridSpec(dim=1, box=((-1.0, 1.0),), counts=(5,), times=(0.5, 1.0))
        with pytest.raises(ValueError, match="maximal existence"):
            solve_classical(fam.abs_power(2.0), g)

    def test_grid_dimension_must_match(self):
        g = GridSpec(
            dim=2, box=((-1.0, 1.0), (-1.0, 1.0)), counts=(3, 3), times=(0.5,)
        )
        with pytest.raises(ValueError, match="dimension"):
            solve_classical(fam.cosine(1.0), g)
