"""Tests for function families and the pointwise fractional Laplacian."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad as scipy_quad
from scipy.special import j0

from fracheat import families as fam
from fracheat.fraclap import (
    ClassificationResult,
    ClassificationUnsupported,
    Definiteness,
    FracLapResult,
    classify_definiteness,
    frac_laplacian,
    frac_laplacian_pv,
    riesz_constant,
    second_difference_tail_bound,
    vanish_at_infinity_check,
)


# ---------------------------------------------------------------------------
# Families


class TestEnvelope:
    def test_validation(self):
        with pytest.raises(ValueError):
            fam.GrowthEnvelope(-1.0, 0.0)
        with pytest.raises(ValueError):
            fam.GrowthEnvelope(1.0, -2.0)
        with pytest.raises(ValueError):
            fam.GrowthEnvelope(1.0, 1.0, -0.5)

    def test_admissibility(self):
        env = fam.GrowthEnvelope(1.0, 1.0, 1.2)
        assert env.admissible_for(0.75)
        assert not env.admissible_for(0.6)
        assert fam.GrowthEnvelope(5.0, 0.0, 0.0).admissible_for(0.1)

    def test_bound_shape(self):
        env = fam.GrowthEnvelope(2.0, 3.0, 1.5)
        r = np.array([0.0, 1.0, 4.0])
        np.testing.assert_allclose(env.bound(r), 2.0 + 3.0 * r**1.5)


class TestFamilies:
    def test_values(self):
        assert fam.constant(3.5).at(2.0) == 3.5
        assert fam.affine(1.0, 2.0).at(0.5) == 2.0
        assert fam.abs_power(1.2).at(0.0) == 1.0
        assert fam.piecewise_linear_1d(0.5).at(-2.0) == -1.0
        assert fam.piecewise_linear_1d(0.5).at(3.0) == 3.0
        # cylinder structure: flat along the second axis
        r = fam.ruled(1.2, dim=2)
        assert r.at([2.0, -7.0]) == pytest.approx(r.at([2.0, 11.0]))
        assert r.at([2.0, 0.0]) == pytest.approx(fam.abs_power(1.2).at(2.0))

    def test_envelope_holds(self):
        rng = np.random.default_rng(7)
        for u in (
            fam.gaussian(2.0),
            fam.abs_power(1.5),
            fam.piecewise_linear_1d(-0.7),
            fam.affine(2.0, 3.0),
            fam.cosine(4.0),
        ):
            xs = rng.uniform(-50, 50, size=(400, 1))
            vals = np.abs(u.value(xs))
            bound = u.envelope.bound(np.abs(xs[:, 0]))
            assert np.all(vals <= bound * (1 + 1e-12) + 1e-12)

    def test_exp_envelope_holds(self):
        r = np.linspace(0, 40, 2001)[:, None]
        for u in (fam.abs_power(2.0), fam.affine(1.0, 3.0), fam.piecewise_linear_1d(0.2)):
            amp, rate = u.exp_envelope
            assert np.all(np.abs(u.value(r)) <= amp * np.exp(rate * r[:, 0] ** 2) * (1 + 1e-9))

    def test_convexity_flags(self):
        assert fam.abs_power(1.0).convex
        assert fam.abs_power(1.2).convex
        assert not fam.abs_power(0.8).convex
        assert fam.piecewise_linear_1d(0.5).convex
        assert not fam.piecewise_linear_1d(1.5).convex
        assert not fam.cosine(1.0).convex

    def test_factory_validation(self):
        with pytest.raises(ValueError):
            fam.abs_power(0.0)
        with pytest.raises(ValueError):
            fam.abs_power(2.5)
        with pytest.raises(ValueError):
            fam.cosine(-1.0)
        with pytest.raises(ValueError):
            fam.gaussian(0.0)
        with pytest.raises(ValueError):
            fam.ruled(1.2, dim=1)

    def test_point_shape_errors(self):
        u = fam.gaussian(1.0, dim=2)
        with pytest.raises(ValueError):
            u.at([1.0])
        with pytest.raises(ValueError):
            u.value(np.zeros((4, 3)))


class TestParseSpec:
    def test_round_trips(self):
        u = fam.parse_spec("cosine:2")
        assert u.family == "cosine" and u.params == (2.0,)
        u = fam.parse_spec("affine:1,0.5")
        assert u.at(2.0) == 2.0
        u = fam.parse_spec("abs_power:1.2", dim=2)
        assert u.dim == 2
        u = fam.parse_spec("constant:4")
        assert u.at(9.0) == 4.0
        u = fam.parse_spec("piecewise_linear_1d:-0.5")
        assert u.at(-1.0) == 0.5
        u = fam.parse_spec("ruled:1.2")
        assert u.dim == 2

    def test_errors(self):
        with pytest.raises(ValueError, match="unknown family"):
            fam.parse_spec("fourier:1")
        with pytest.raises(ValueError, match="parameter"):
            fam.parse_spec("cosine:1,2")
        with pytest.raises(ValueError, match="bad parameter"):
            fam.parse_spec("cosine:abc")
        with pytest.raises(ValueError, match="one dimensional"):
            fam.parse_spec("piecewise_linear_1d:0.5", dim=2)


# ---------------------------------------------------------------------------
# Operator constant


class TestRieszConstant:
    def test_half_order_value(self):
        # the one-dimensional constant at s = 1/2 comes out as exactly 1/pi
        assert riesz_constant(1, 0.5) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_positive(self):
        for dim in (1, 2, 3):
            for s in (0.1, 0.5, 0.9):
                assert riesz_constant(dim, s) > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            riesz_constant(0, 0.5)
        with pytest.raises(ValueError):
            riesz_constant(1, 1.0)
        with pytest.raises(ValueError):
            riesz_constant(1, 0.0)


# ---------------------------------------------------------------------------
# Pointwise evaluation


class TestMultiplier:
    @pytest.mark.parametrize("s", [0.3, 0.6, 0.9])
    @pytest.mark.parametrize("freq", [0.5, 1.0, 2.0])
    def test_cosine_eigenfunction(self, s, freq):
        # cos(freq x) is an eigenfunction with eigenvalue freq^{2s}
        u = fam.cosine(freq)
        for x in (-2.0, -1.0, 0.3, 1.0, 2.5):
            res = frac_laplacian(u, [x], s)
            exact = freq ** (2 * s) * math.cos(freq * x)
            assert res.value == pytest.approx(exact, abs=1e-6)

    def test_two_dimensional(self):
        res = frac_laplacian(fam.cosine(1.0, dim=2), [0.5, 0.3], 0.6)
        assert res.value == pytest.approx(math.cos(0.5), abs=1e-8)

    def test_three_dimensional(self):
        res = frac_laplacian(fam.cosine(1.0, dim=3), [0.5, 0.2, -0.1], 0.6)
        exact = math.cos(0.5)
        assert res.value == pytest.approx(exact, abs=1e-3)
        assert abs(res.value - exact) <= 10 * res.error_estimate + 1e-9

    @settings(max_examples=25, deadline=None)
    @given(
        freq=st.floats(0.3, 3.0),
        x=st.floats(-3.0, 3.0),
        s=st.floats(0.15, 0.9),
    )
    def test_eigen_identity_random(self, freq, x, s):
        res = frac_laplacian(fam.cosine(freq), [x], s)
        assert res.value == pytest.approx(freq ** (2 * s) * math.cos(freq * x), abs=1e-5)


def _gaussian_fourier_1d(x, s):
    f = lambda xi: xi ** (2 * s) * math.exp(-xi * xi / 4) * math.cos(x * xi)
    v, _ = scipy_quad(f, 0, 60, limit=400)
    return v / math.sqrt(math.pi)


class TestGaussian:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("s", [0.3, 0.55, 0.75, 0.9])
    def test_origin_closed_form(self, dim, s):
        # Fourier route: the value at the origin is the mean of the symbol
        # against the spectral weight, which collapses to
        # 2^{2s} Gamma(s + dim/2) / Gamma(dim/2)
        exact = 2 ** (2 * s) * math.gamma(s + dim / 2) / math.gamma(dim / 2)
        res = frac_laplacian(fam.gaussian(1.0, dim=dim), np.zeros(dim), s)
        assert res.value == pytest.approx(exact, rel=5e-8)

    def test_off_center_1d(self):
        for x in (0.5, 1.0, 2.0, 4.0):
            res = frac_laplacian(fam.gaussian(1.0), [x], 0.6)
            assert res.value == pytest.approx(_gaussian_fourier_1d(x, 0.6), abs=1e-9)

    def test_off_center_2d(self):
        s, w = 0.7, 2.0
        f = lambda r: r ** (1 + 2 * s) * math.exp(-r * r / 4) * j0(r * w)
        ref, _ = scipy_quad(f, 0, 60, limit=400)
        res = frac_laplacian(fam.gaussian(1.0, dim=2), [w * 0.6, w * 0.8], s)
        assert res.value == pytest.approx(ref / 2, abs=1e-9)

    def test_off_center_3d(self):
        s, w = 0.6, 3.0
        f = lambda r: r ** (1 + 2 * s) * math.exp(-r * r / 4) * math.sin(r * w)
        ref, _ = scipy_quad(f, 0, 60, limit=400)
        exact = (2 * math.pi) ** -3 * math.pi**1.5 * 4 * math.pi / w * ref
        res = frac_laplacian(fam.gaussian(1.0, dim=3), [w, 0.0, 0.0], s)
        assert res.value == pytest.approx(exact, abs=1e-9)

    def test_positive_at_maximum(self):
        # at a global maximum every second difference is >= 0
        for s in (0.2, 0.5, 0.8):
            assert frac_laplacian(fam.gaussian(1.0), [0.0], s).value > 0


class TestTrivialFamilies:
    def test_constant_is_annihilated(self):
        for s in (0.25, 0.5, 0.75):
            res = frac_laplacian(fam.constant(3.0), [0.7], s)
            assert abs(res.value) < 1e-12
            assert abs(res.near_part) < 1e-12
            assert abs(res.tail_part) < 1e-12

    def test_affine_cancels_when_integrable(self):
        for x in (-1.0, 0.0, 2.5):
            res = frac_laplacian(fam.affine(1.0, 2.0), [x], 0.75)
            assert abs(res.value) < 1e-12

    def test_affine_2d(self):
        # large-radius cancellation leaves float noise; the estimate covers it
        res = frac_laplacian(fam.affine(0.5, -1.0, dim=2), [1.0, 2.0], 0.8)
        assert abs(res.value) < 1e-9
        assert abs(res.value) <= 10 * res.error_estimate + 1e-12


class TestConvexSign:
    def test_abs_power_negative(self):
        u = fam.abs_power(1.2)
        for x in (0.0, 0.5, 2.0, 10.0, 100.0):
            res = frac_laplacian(u, [x], 0.75)
            assert res.value < 0
        # strictly negative at the origin, not merely nonpositive
        assert frac_laplacian(u, [0.0], 0.75).value < -1.0

    def test_ruled_convex_negative(self):
        res = frac_laplacian(fam.ruled(1.2, dim=2), [2.0, 5.0], 0.75)
        assert res.value < 0

    def test_ruled_matches_profile(self):
        # flat directions contribute nothing, so the cylinder value equals
        # the profile value in one dimension
        r2 = frac_laplacian(fam.ruled(1.2, dim=2), [2.0, 5.0], 0.75)
        r1 = frac_laplacian(fam.abs_power(1.2), [2.0], 0.75)
        assert abs(r2.value - r1.value) <= 10 * (r2.error_estimate + r1.error_estimate)

    def test_piecewise_off_corner(self):
        res = frac_laplacian(fam.piecewise_linear_1d(0.5), [1.0], 0.75)
        assert math.isfinite(res.value)
        assert res.value < 0


class TestResultStructure:
    def test_decomposition(self):
        res = frac_laplacian(fam.gaussian(1.0), [0.4], 0.6)
        assert res.value == res.near_part + res.tail_part
        assert res.split_radius > 0
        assert res.error_estimate >= 0

    def test_validation(self):
        with pytest.raises(ValueError):
            FracLapResult(1.0, 0.5, 0.5, 0.0, 1e-9)
        with pytest.raises(ValueError):
            FracLapResult(1.0, 0.5, 0.5, 1.0, -1e-9)

    def test_error_estimate_covers_truth(self):
        cases = [
            (fam.cosine(1.0), [0.7], 0.6, math.cos(0.7)),
            (fam.gaussian(1.0), [1.0], 0.6, _gaussian_fourier_1d(1.0, 0.6)),
            (fam.constant(2.0), [0.0], 0.4, 0.0),
        ]
        for u, x, s, exact in cases:
            res = frac_laplacian(u, x, s)
            assert abs(res.value - exact) <= 10 * res.error_estimate + 1e-12


class TestRejection:
    def test_envelope_beats_order(self):
        with pytest.raises(ValueError, match="not integrable"):
            frac_laplacian(fam.abs_power(1.2), [0.0], 0.5)
        with pytest.raises(ValueError, match="not integrable"):
            frac_laplacian(fam.abs_power(2.0), [0.0], 0.9)
        with pytest.raises(ValueError, match="not integrable"):
            frac_laplacian(fam.piecewise_linear_1d(0.5), [1.0], 0.45)

    def test_corner_refused(self):
        with pytest.raises(ValueError, match="corner"):
            frac_laplacian(fam.piecewise_linear_1d(0.5), [0.0], 0.75)

    def test_bad_order_and_point(self):
        with pytest.raises(ValueError):
            frac_laplacian(fam.gaussian(1.0), [0.0], 1.0)
        with pytest.raises(ValueError):
            frac_laplacian(fam.gaussian(1.0), [0.0, 0.0], 0.5)

    def test_dimension_above_three(self):
        with pytest.raises(ValueError, match="dim <= 3"):
            frac_laplacian(fam.gaussian(1.0, dim=4), np.zeros(4), 0.75)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
    def test_non_finite_point(self, x):
        with pytest.raises(ValueError, match="point x must be finite"):
            frac_laplacian(fam.cosine(1.0), [x], 0.6)


class TestTranslation:
    def test_shifted_gaussian(self):
        base = fam.gaussian(1.0)
        shift = 1.0
        moved = fam.FunctionSpec(
            family="gaussian",
            params=(1.0,),
            dim=1,
            value=lambda p: np.exp(-np.sum((p - shift) ** 2, axis=-1)),
            envelope=base.envelope,
            convex=False,
            sup_value=1.0,
            inf_value=0.0,
            tail_mean=0.0,
        )
        a = frac_laplacian(base, [0.4], 0.55).value
        b = frac_laplacian(moved, [0.4 + shift], 0.55).value
        assert a == pytest.approx(b, abs=1e-10)


class TestPrincipalValue:
    def test_converges_to_full_value(self):
        u = fam.gaussian(1.0)
        full = frac_laplacian(u, [0.0], 0.6)
        eps = [1e-1, 1e-2, 1e-3, 1e-4]
        pv = frac_laplacian_pv(u, [0.0], 0.6, eps)
        diffs = np.abs(pv - full.value)
        assert np.all(np.diff(diffs) < 0)
        # truncation mass scales like eps^{2-2s}; one decade in eps buys
        # a factor 10^{-0.8} at s = 0.6
        ratios = diffs[1:] / diffs[:-1]
        np.testing.assert_allclose(ratios, 10 ** -0.8, rtol=0.1)
        assert diffs[-1] < 1e-3

    def test_nonnegative_at_maximum(self):
        pv = frac_laplacian_pv(fam.gaussian(1.0), [0.0], 0.6, [0.5, 0.1, 0.01])
        assert np.all(pv >= 0)

    def test_cosine_at_origin(self):
        # truncations approach the eigenvalue cos(0) * 1^{2s} = 1
        pv = frac_laplacian_pv(fam.cosine(1.0), [0.0], 0.6, [1e-2, 1e-3, 1e-4])
        assert pv[-1] == pytest.approx(1.0, abs=2e-3)
        full = frac_laplacian(fam.cosine(1.0), [0.0], 0.6)
        assert abs(pv[-1] - full.value) < abs(pv[0] - full.value)

    def test_affine_exactly_zero(self):
        pv = frac_laplacian_pv(fam.affine(1.0, 2.0), [0.3], 0.75, [1.0, 0.1, 0.01])
        assert np.all(np.abs(pv) < 1e-13)

    def test_rejects_nonintegrable_and_bad_cutoffs(self):
        with pytest.raises(ValueError, match="not integrable"):
            frac_laplacian_pv(fam.affine(1.0, 2.0), [0.0], 0.4, [0.1])
        with pytest.raises(ValueError, match="positive"):
            frac_laplacian_pv(fam.gaussian(1.0), [0.0], 0.6, [0.1, 0.0])
        with pytest.raises(ValueError, match="positive"):
            frac_laplacian_pv(fam.gaussian(1.0), [0.0], 0.6, [])


class TestTailBound:
    @pytest.mark.parametrize(
        "u",
        [fam.gaussian(1.0), fam.abs_power(1.2), fam.abs_power(0.8), fam.constant(2.0)],
    )
    def test_dominates_sampled_second_differences(self, u):
        rng = np.random.default_rng(11)
        xs = rng.uniform(-30, 30, size=1000)
        zs = rng.uniform(-50, 50, size=1000)
        pts = np.stack([xs, xs + zs, xs - zs], axis=1)[..., None]
        vals = u.value(pts.reshape(-1, 1)).reshape(-1, 3)
        second = np.abs(2 * vals[:, 0] - vals[:, 1] - vals[:, 2])
        bounds = np.array([second_difference_tail_bound(u, abs(z)) for z in zs])
        assert np.all(second <= bounds * (1 + 1e-12))

    def test_requires_declared_decay(self):
        with pytest.raises(ValueError, match="curvature decay"):
            second_difference_tail_bound(fam.cosine(1.0), 1.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="non-negative"):
            second_difference_tail_bound(fam.gaussian(1.0), -1.0)
        broken = fam.gaussian(1.0)
        broken.hessian_decay = (1.0, 0.0)
        with pytest.raises(ValueError, match="rate"):
            second_difference_tail_bound(broken, 1.0)


class TestClassification:
    def test_constant(self):
        for s in (0.3, 0.75):
            out = classify_definiteness(fam.constant(5.0), s)
            assert out.outcome is Definiteness.IDENTICALLY_ZERO

    def test_affine(self):
        assert (
            classify_definiteness(fam.affine(1.0, 2.0), 0.3).outcome
            is Definiteness.INDEFINITE
        )
        assert (
            classify_definiteness(fam.affine(1.0, 2.0), 0.75).outcome
            is Definiteness.IDENTICALLY_ZERO
        )
        assert (
            classify_definiteness(fam.affine(4.0, 0.0), 0.3).outcome
            is Definiteness.IDENTICALLY_ZERO
        )

    def test_piecewise(self):
        out = classify_definiteness(fam.piecewise_linear_1d(-0.5), 0.3)
        assert out.outcome is Definiteness.NEGATIVE_INFINITE
        assert out.location == (0.0,)
        assert (
            classify_definiteness(fam.piecewise_linear_1d(0.5), 0.3).outcome
            is Definiteness.INDEFINITE
        )
        out = classify_definiteness(fam.piecewise_linear_1d(0.5), 0.75)
        assert out.outcome is Definiteness.NEGATIVE_INFINITE
        assert out.location == (0.0,)
        assert (
            classify_definiteness(fam.piecewise_linear_1d(1.0), 0.75).outcome
            is Definiteness.IDENTICALLY_ZERO
        )
        with pytest.raises(ClassificationUnsupported):
            classify_definiteness(fam.piecewise_linear_1d(1.5), 0.75)

    def test_growth_against_order(self):
        assert (
            classify_definiteness(fam.abs_power(1.2), 0.75).outcome
            is Definiteness.CONVERGES_EVERYWHERE
        )
        assert (
            classify_definiteness(fam.abs_power(1.2), 0.55).outcome
            is Definiteness.NEGATIVE_INFINITE
        )
        assert (
            classify_definiteness(fam.abs_power(2.0), 0.9).outcome
            is Definiteness.NEGATIVE_INFINITE
        )
        assert (
            classify_definiteness(fam.ruled(1.2, dim=2), 0.75).outcome
            is Definiteness.CONVERGES_EVERYWHERE
        )

    def test_bounded_smooth(self):
        assert (
            classify_definiteness(fam.cosine(2.0), 0.4).outcome
            is Definiteness.CONVERGES_EVERYWHERE
        )
        assert (
            classify_definiteness(fam.gaussian(1.0), 0.9).outcome
            is Definiteness.CONVERGES_EVERYWHERE
        )

    def test_unsupported_and_bad_order(self):
        odd = fam.constant(1.0)
        odd.family = "mystery"
        with pytest.raises(ClassificationUnsupported):
            classify_definiteness(odd, 0.5)
        with pytest.raises(ValueError):
            classify_definiteness(fam.constant(1.0), 1.5)

    def test_result_is_frozen_with_reason(self):
        out = classify_definiteness(fam.affine(0.0, 1.0), 0.3)
        assert isinstance(out, ClassificationResult)
        assert out.reason


class TestVanishAtInfinity:
    def test_decaying_family_passes(self):
        rep = vanish_at_infinity_check(fam.abs_power(0.75), 0.75)
        assert rep.overall_pass
        names = [r.name for r in rep.records]
        assert "far-field-decay" in names and "tail-monotone" in names

    def test_slow_decay_fails_threshold(self):
        # growth exponent close to the order leaves a visible far field
        rep = vanish_at_infinity_check(fam.abs_power(1.2), 0.75)
        by_name = {r.name: r for r in rep.records}
        assert by_name["curvature-decay-declared"].passed
        assert not by_name["far-field-decay"].passed
        assert not rep.overall_pass

    def test_cosine_negative_control(self):
        rep = vanish_at_infinity_check(fam.cosine(1.0), 0.75)
        by_name = {r.name: r for r in rep.records}
        assert not by_name["curvature-decay-declared"].passed
        assert not by_name["far-field-decay"].passed
        assert not rep.overall_pass

    def test_radii_validation(self):
        with pytest.raises(ValueError):
            vanish_at_infinity_check(fam.gaussian(1.0), 0.6, radii=(1.0,))
        with pytest.raises(ValueError):
            vanish_at_infinity_check(fam.gaussian(1.0), 0.6, radii=(10.0, 1.0))
