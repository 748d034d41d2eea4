"""Tests for the geometric verifiers layered on solution fields."""

import math

import numpy as np
import pytest

from fracheat import families as fam
from fracheat.analysis import (
    ConvexityReport,
    RuledReport,
    classical_dichotomy_check,
    convexity_check,
    max_principle_check,
    monotonicity_check,
    ruled_check,
)
from fracheat.kernel import KernelParams
from fracheat.solver import GridSpec, SolutionField, solve_canonical, solve_classical

LINE = GridSpec(dim=1, box=((-3.0, 3.0),), counts=(25,), times=(0.0, 0.5, 1.5))


@pytest.fixture(scope="module")
def field_abs():
    return solve_canonical(fam.abs_power(1.2), LINE, KernelParams(dim=1, s=0.75))


@pytest.fixture(scope="module")
def field_cos():
    return solve_canonical(fam.cosine(1.0), LINE, KernelParams(dim=1, s=0.6))


@pytest.fixture(scope="module")
def field_gau():
    return solve_canonical(fam.gaussian(1.0), LINE, KernelParams(dim=1, s=0.7))


@pytest.fixture(scope="module")
def field_aff():
    return solve_canonical(fam.affine(1.0, 0.5), LINE, KernelParams(dim=1, s=0.8))


@pytest.fixture(scope="module")
def field_ruled():
    # profile (1 + x1^2)^0.6 extended as a cylinder along the second axis
    grid = GridSpec(
        dim=2,
        box=((-2.0, 2.0), (-2.0, 2.0)),
        counts=(9, 5),
        times=(0.5, 1.0),
    )
    return solve_canonical(fam.ruled(1.2, dim=2), grid, KernelParams(dim=2, s=0.75))


def record(report, name):
    return next(r for r in report.records if r.name == name)


class TestMaxPrinciple:
    def test_cosine_stays_inside_its_range(self, field_cos):
        report = max_principle_check(field_cos)
        assert report.overall_pass
        upper = record(report, "upper-bound")
        # the sup is attained on the t = 0 row and nowhere later
        assert upper.measured == 1.0
        assert float(np.max(field_cos.values[1:])) < 1.0
        lower = record(report, "lower-bound")
        assert lower.measured >= -1.0 - 1e-6

    def test_gaussian_peak_flattens_in_time(self, field_gau):
        assert max_principle_check(field_gau).overall_pass
        sups = [float(np.max(row)) for row in field_gau.values]
        assert all(b < a for a, b in zip(sups, sups[1:]))

    def test_constant_is_sharp(self):
        grid = GridSpec(dim=1, box=((-1.0, 1.0),), counts=(5,), times=(0.0, 0.5))
        field = solve_canonical(fam.constant(2.0), grid, KernelParams(dim=1, s=0.5))
        report = max_principle_check(field)
        assert report.overall_pass
        assert record(report, "upper-bound").measured == pytest.approx(2.0, abs=1e-8)
        assert record(report, "lower-bound").measured == pytest.approx(2.0, abs=1e-8)

    def test_explicit_datum_override(self):
        # a hand-built field that leaves its datum's range [-1, 1] at t = 0.5
        grid = GridSpec(dim=1, box=((-1.0, 1.0),), counts=(3,), times=(0.5,))
        field = SolutionField(
            grid=grid,
            values=np.array([[0.2, 1.5, -0.1]]),
            error_estimates=np.zeros((1, 3)),
            datum=fam.cosine(1.0),
        )
        report = max_principle_check(field)
        upper = record(report, "upper-bound")
        assert upper.bound == 1.0 and upper.measured == 1.5
        assert not upper.passed
        assert upper.worst_point == (0.0, 0.5)
        assert record(report, "lower-bound").passed
        assert not report.overall_pass

    def test_unbounded_datum_rejected(self, field_abs):
        with pytest.raises(ValueError, match="range metadata"):
            max_principle_check(field_abs)


class TestConvexity:
    def test_growing_convex_datum_stays_strictly_convex(self, field_abs):
        report = convexity_check(field_abs)
        assert report.verdict == "Convex"
        assert report.min_second_difference >= 0.0
        assert report.strictness_margin > 0.2
        point, step, t = report.worst_triple
        assert len(point) == 1 and len(step) == 1
        assert t in LINE.times

    def test_cosine_is_caught_at_time_zero(self, field_cos):
        report = convexity_check(field_cos)
        assert report.verdict == "NotConvex"
        assert report.min_second_difference < -0.5
        assert report.worst_triple[2] == 0.0

    def test_affine_second_differences_vanish(self, field_aff):
        report = convexity_check(field_aff)
        assert report.verdict == "Convex"
        assert abs(report.min_second_difference) <= 1e-6
        assert abs(report.strictness_margin) <= 1e-6

    def test_adding_an_affine_function_changes_nothing(self, field_abs):
        # drop the t = 0 row so the datum-exactness rule stays out of the
        # way, then shear the same rows by an affine function
        grid = GridSpec(dim=1, box=LINE.box, counts=LINE.counts, times=(0.5, 1.5))
        x = grid.nodes()[:, 0]
        plain = SolutionField(
            grid=grid,
            values=field_abs.values[1:].copy(),
            error_estimates=field_abs.error_estimates[1:].copy(),
            datum=field_abs.datum,
        )
        sheared = SolutionField(
            grid=grid,
            values=field_abs.values[1:] + (3.0 - 2.0 * x)[None, :],
            error_estimates=field_abs.error_estimates[1:].copy(),
            datum=field_abs.datum,
        )
        base = convexity_check(plain)
        again = convexity_check(sheared)
        assert again.verdict == base.verdict
        assert again.min_second_difference == pytest.approx(
            base.min_second_difference, abs=1e-9
        )

    def test_report_verdict_is_checked(self):
        with pytest.raises(ValueError, match="follow the measured"):
            ConvexityReport(
                min_second_difference=-1.0,
                worst_triple=((0.0,), (1.0,), 0.5),
                verdict="Convex",
                strictness_margin=0.0,
                tolerance=1e-6,
            )


class TestRuled:
    def test_cylinder_rules_along_its_flat_axis(self, field_ruled):
        report = ruled_check(field_ruled, (0.0, 1.0))
        assert report.verdict == "Ruled"
        assert report.max_deviation <= 1e-9

    def test_cylinder_fails_across_the_profile(self, field_ruled):
        report = ruled_check(field_ruled, (1.0, 0.0))
        assert report.verdict == "NotRuled"
        assert report.max_deviation > 0.5

    def test_direction_scaling_is_immaterial(self, field_ruled):
        a = ruled_check(field_ruled, (0.0, 1.0))
        b = ruled_check(field_ruled, (0.0, 2.5))
        assert a.max_deviation == b.max_deviation

    def test_affine_rules_along_every_direction(self, field_aff):
        report = ruled_check(field_aff, (1.0,))
        assert report.verdict == "Ruled"

    def test_off_lattice_direction_rejected(self, field_ruled):
        with pytest.raises(ValueError, match="axis or a diagonal"):
            ruled_check(field_ruled, (1.0, 0.3))
        with pytest.raises(ValueError, match="nonzero"):
            ruled_check(field_ruled, (0.0, 0.0))

    def test_report_verdict_is_checked(self):
        with pytest.raises(ValueError, match="follow the measured"):
            RuledReport(
                direction=(1.0,),
                max_deviation=5.0,
                worst_triple=((0.0,), (1.0,), 0.5),
                verdict="Ruled",
                tolerance=1e-6,
            )


class TestMonotonicity:
    def test_strictly_convex_datum_heats_strictly(self):
        report = monotonicity_check(
            fam.abs_power(1.2),
            [[0.0], [2.5], [5.0]],
            (0.5, 2.0),
            KernelParams(dim=1, s=0.75),
        )
        assert report.overall_pass
        assert record(report, "strictly-heating").measured >= 1e-4

    def test_affine_datum_sits_still(self):
        report = monotonicity_check(
            fam.affine(1.0, 0.5), [[0.0], [2.0]], (0.5, 1.0), KernelParams(dim=1, s=0.8)
        )
        assert report.overall_pass
        assert record(report, "affine-stationary").measured <= 1e-6

    def test_vanishing_rate_without_affinity_is_flagged(self):
        # the cosine rate vanishes at its inflection point, which only an
        # affine datum is allowed to do
        report = monotonicity_check(
            fam.cosine(1.0), [[math.pi / 2.0]], (0.5,), KernelParams(dim=1, s=0.6)
        )
        assert not report.overall_pass
        assert not record(report, "strictly-heating").passed
        assert record(report, "rate-nonnegative").passed

    def test_point_shape_validated(self):
        with pytest.raises(ValueError, match="coordinates"):
            monotonicity_check(
                fam.abs_power(1.2), [[0.0, 1.0]], (0.5,), KernelParams(dim=1, s=0.75)
            )


class TestClassicalDichotomy:
    def test_quadratic_datum(self):
        report = classical_dichotomy_check(fam.abs_power(2.0))
        assert report.overall_pass
        assert record(report, "convexity").passed
        assert record(report, "rate-nonnegative").measured == pytest.approx(2.0, abs=1e-5)

    def test_affine_datum(self):
        report = classical_dichotomy_check(fam.affine(0.5, 2.0))
        assert report.overall_pass
        assert record(report, "affine-stationary").passed

    def test_ruled_quadratic_keeps_its_ruling(self):
        report = classical_dichotomy_check(fam.ruled(2.0, dim=2))
        assert report.overall_pass
        ruled = record(report, "ruled-along-0-1")
        assert ruled.passed
        assert record(report, "rate-nonnegative").measured == pytest.approx(2.0, abs=1e-5)

    def test_horizon_violation_propagates(self):
        grid = GridSpec(dim=1, box=((-1.0, 1.0),), counts=(5,), times=(0.5, 1.2))
        with pytest.raises(ValueError, match="maximal existence"):
            solve_classical(fam.abs_power(2.0), grid)


class TestDichotomyExclusivity:
    def test_strictly_convex_datum_rules_nowhere(self, field_abs):
        conv = convexity_check(field_abs)
        ruled = ruled_check(field_abs, (1.0,))
        assert conv.strictness_margin > 0.0
        assert ruled.verdict == "NotRuled"

    def test_ruled_datum_is_not_strictly_convex(self, field_ruled):
        conv = convexity_check(field_ruled)
        along = ruled_check(field_ruled, (0.0, 1.0))
        assert along.verdict == "Ruled"
        assert conv.verdict == "Convex"
        assert abs(conv.strictness_margin) <= 1e-9
