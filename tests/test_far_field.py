"""The declared far fields of the data families and the routes that read them.

Each declaration promises |M(x, rho) - a rho^beta - b(x)| <= C(x) rho^q for
rho >= rho0(x), with M the sphere mean of the datum about x.  The means
here come from specfun.pair_sums over a direction rule built for data that
depend on the direction only through its first coordinate w_1, which holds
for every declared family at points on the first axis.  The rule is
composite Gauss-Legendre in the polar angle theta of w_1 = cos(theta),
graded toward the angle where x_1 + rho w_1 crosses the origin, so it
resolves the datum's feature there at every radius up to 1e12.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from fracheat import families as fam
from fracheat import fraclap, solver
from fracheat.families import FarBand, far_leftover
from fracheat.kernel import KernelParams
from fracheat.solver import GridSpec, _radial_bands, _solve_batch, residual_with_estimate, solution_at, solve_canonical
from fracheat.specfun import ABS_TOL, REL_TOL, RADIUS_CAP, gauss_legendre, pair_sums, sphere_rule

RADII = 10.0 ** np.arange(1, 13)
POINTS = (0.0, 0.7, -3.0, 40.0, -1e3, 1e6)


def _axis_rule(dim: int, x1: float, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Half-sphere directions (cos theta, sin theta, 0, ...) whose pair sums are sphere means.

    theta runs over [0, pi/2]; w_1 = cos(theta) has the sphere density
    proportional to sin(theta)^(dim-2), and the weights add up to 1/2, so
    the pair sums of value(x + rho d) + value(x - rho d) are the means.
    """
    if dim == 1:
        return np.array([[1.0]]), np.array([0.5])
    crossing = math.acos(min(1.0, abs(x1) / rho))
    breaks = {0.0, math.pi / 2, crossing}
    for c in (crossing, math.pi / 2):
        for k in range(1, 60):
            breaks.update({c - math.pi * 2.0**-k, c + math.pi * 2.0**-k})
    edges = np.array(sorted(b for b in breaks if 0.0 <= b <= math.pi / 2))
    g, w = gauss_legendre(16)
    mid, half = 0.5 * (edges[1:] + edges[:-1]), 0.5 * (edges[1:] - edges[:-1])
    th = (mid[:, None] + half[:, None] * g).ravel()
    wt = (half[:, None] * w).ravel() * np.sin(th) ** (dim - 2)
    dirs = np.zeros((th.size, dim))
    dirs[:, 0], dirs[:, 1] = np.cos(th), np.sin(th)
    return dirs, 0.5 * wt / wt.sum()


def _means(u, x1: float, rho: float) -> tuple[float, float]:
    """The sphere mean about (x1, 0, ...) at radius rho, and a bound on its rounding."""
    x = np.zeros((1, u.dim))
    x[0, 0] = x1
    dirs, wts = _axis_rule(u.dim, x1, rho)
    mean = float(pair_sums(u.value, x, np.array([rho]), dirs, wts)[0, 0])
    abs_mean = float(pair_sums(lambda p: np.abs(u.value(p)), x, np.array([rho]), dirs, wts)[0, 0])
    return mean, 2.0 * (len(dirs) + 8) * 2.0**-53 * abs_mean


DECLARED = [
    (fam.constant(2.0, dim=d), d) for d in (1, 2, 3)
] + [(fam.affine(0.5, 1.0, dim=d), d) for d in (1, 2, 3)] + [
    (fam.abs_power(b, dim=d), d) for b in (1.2, 0.75) for d in (1, 2, 3)
] + [(fam.ruled(b, dim=d), d) for b in (1.2, 1.6) for d in (2, 3)] + [
    (fam.gaussian(a, dim=d), d) for a in (1.0, 0.25) for d in (1, 2, 3)
] + [(fam.piecewise_linear_1d(lam), 1) for lam in (0.5, -0.5, 2.0)]


@pytest.mark.parametrize("u, dim", DECLARED, ids=[f"{u.label}-{d}d" for u, d in DECLARED])
def test_declared_remainder_bounds_the_sphere_means(u, dim):
    pts = np.zeros((len(POINTS), dim))
    pts[:, 0] = POINTS
    ff = u.far_field
    # with tail(radius, p) = radius^p the leftover is the bound on the
    # integrand itself, |M - sub| at that radius
    leftover = far_leftover(u, pts, lambda r, p: r**p)
    start = ff.remainder(pts)[1] if ff.remainder is not None else np.zeros(len(pts))
    const = u.far_const(pts)
    used = 0
    for rho in RADII:
        bounds, lead = leftover(rho)
        # short of rho0(x) the envelope bound is the one used
        assert not np.any((lead != 0.0) & (rho < start))
        used += int(np.count_nonzero(lead))
        for i, x1 in enumerate(POINTS):
            mean, floor = _means(u, x1, rho)
            sub = const[i] + lead[i] * rho**ff.power
            assert abs(mean - sub) <= bounds[i] + floor, (rho, x1)
    assert used > 0 or ff.lead == 0.0


def _remainder_holds(u, ff, x1: float, rho: float) -> bool:
    """Whether far field ff's remainder bound holds for u about (x1, 0, ...) at radius rho."""
    pt = np.zeros((1, u.dim))
    pt[0, 0] = x1
    mean, floor = _means(u, x1, rho)
    gap = abs(mean - ff.lead * rho**ff.power - float(ff.const(pt)[0]))
    return gap <= float(ff.remainder(pt)[0][0]) * rho**ff.decay + floor


REMAINDERS = [fam.abs_power(1.2, dim=2), fam.ruled(1.2, dim=2), fam.ruled(1.6, dim=3)] + [
    fam.gaussian(a, dim=d) for a in (1.0, 0.25) for d in (1, 2, 3)
] + [fam.piecewise_linear_1d(lam) for lam in (0.5, -0.5, 2.0)]


def test_remainder_bound_holds_where_it_starts():
    # the remainder branch itself, checked where it starts to apply, for
    # points whose cutoff sits just past rho0(x); a declaration that starts
    # at 0 (the kinked line about its corner) is checked from rho = 1
    for u in REMAINDERS:
        for x1 in POINTS[:5]:
            pt = np.zeros((1, u.dim))
            pt[0, 0] = x1
            start = float(u.far_field.remainder(pt)[1][0])
            for rho in (start or 1.0) * np.array([1.0, 1.5, 3.0, 10.0]):
                assert _remainder_holds(u, u.far_field, x1, rho), (u.label, u.dim, x1, rho)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("rate", [1.0, 0.25])
def test_a_cut_gaussian_constant_fails(rate, dim):
    # at x = 0 the mean is exp(-rate rho^2), which meets the bound at
    # rho0 = g / sqrt(rate): half the constant no longer bounds it
    u = fam.gaussian(rate, dim=dim)
    ff = u.far_field

    def halved(pts):
        scale, start = ff.remainder(pts)
        return 0.5 * scale, start

    rho = float(ff.remainder(np.zeros((1, dim)))[1][0])
    assert _remainder_holds(u, ff, 0.0, rho)
    assert not _remainder_holds(u, dataclasses.replace(ff, remainder=halved), 0.0, rho)


@pytest.mark.parametrize("lam", [0.5, -0.5, 2.0])
def test_a_perturbed_kinked_line_lead_fails(lam):
    # the declared field is exact past |x|, so a lead off by a part in a
    # million leaves a gap far above the rounding floor
    u = fam.piecewise_linear_1d(lam)
    ff = u.far_field
    moved = dataclasses.replace(ff, lead=ff.lead * (1.0 + 1e-6))
    for x1 in (0.7, -3.0):
        assert _remainder_holds(u, ff, x1, 10.0)
        assert not _remainder_holds(u, moved, x1, 10.0)


@pytest.mark.parametrize(
    "u, exact",
    [
        (fam.constant(1.0), True),
        (fam.affine(0.5, 1.0, dim=2), True),
        (fam.abs_power(1.2), False),
        (fam.ruled(1.2), False),
    ],
)
def test_declared_families(u, exact):
    assert u.far_field is not None and u.far_field.exact == exact


# the ids keep the case names these had when gaussian (u1) and
# piecewise_linear_1d (u4) were still on the list, before both declared fields
@pytest.mark.parametrize(
    "u", [fam.cosine(1.0), fam.abs_power(2.0), fam.ruled(0.8)], ids=["u0", "u2", "u3"]
)
def test_undeclared_families_keep_the_envelope(u):
    assert u.far_field is None
    pts = np.array([[0.3] + [0.0] * (u.dim - 1)])
    bounds, lead = far_leftover(u, pts, lambda r, p: r**p)(100.0)
    assert np.all(lead == 0.0) and bounds[0] > 0.0


def test_a_remainder_must_decay():
    with pytest.raises(ValueError, match="must decay"):
        fam.FarField(lambda p: np.zeros(len(p)), 1.0, 1.2, 0.0)


# ---------------------------------------------------------------------------
# the far band: one route, cutoff, subtraction and closed form


def _operator_band(u, pts, s, orders=(24, 16), breaks=()):
    """The operator's far band past r = 1, with its direction rule."""
    dirs, dwts = sphere_rule(u.dim, 0)
    area = 2.0 * float(dwts.sum())
    band = FarBand(u, pts, s, 1.0, 1.0, lambda t: t ** (-1.0 - 2.0 * s), (1.0,), 1.0, 0.0, area, ABS_TOL, orders, breaks)
    return band, dirs, dwts


def _axis_points(dim, xs):
    pts = np.zeros((len(xs), dim))
    pts[:, 0] = xs
    if dim > 1:
        pts[:, 1] = 0.4
    return pts


def test_a_growing_oscillation_is_refused_before_its_split():
    # 2.2 half-periods of 1e6 out to a cutoff of hundreds: the panel count
    # passes split_panels' cap, so no edge array is made
    u = dataclasses.replace(fam.abs_power(1.2), osc_scale=1e6)
    assert not u.bounded_oscillation
    with pytest.raises(ValueError, match=r"the far band of abs_power:1\.2 needs .* panels of width 6\.91e-06"):
        _operator_band(u, _axis_points(1, [0.3]), 0.9)


EVERY_FAMILY = [
    fam.constant(2.0), fam.affine(0.5, 1.0, dim=2), fam.cosine(1.0), fam.cosine(3.0, dim=2), fam.gaussian(1.0),
    fam.abs_power(1.2), fam.abs_power(0.5, dim=3), fam.piecewise_linear_1d(0.5), fam.ruled(1.2), fam.ruled(0.8),
]


@pytest.mark.parametrize("u", EVERY_FAMILY, ids=[f"{u.label}-{u.dim}d" for u in EVERY_FAMILY])
def test_only_bounded_oscillation_takes_the_averaged_route(u):
    band, _, _ = _operator_band(u, _axis_points(u.dim, [0.3, -1.7]), 0.9)
    assert u.bounded_oscillation == (u.family == "cosine")
    assert band.route == ("averaged" if u.family == "cosine" else "geometric")
    if band.route == "averaged":
        assert band.edges is None


def test_growing_oscillation_does_not_average():
    # its tail does not settle by averaging, so the band would take the
    # geometric route (not built here: its panels, no wider than 2.2
    # half-periods, would run out to the envelope's far cutoff)
    growing = dataclasses.replace(fam.cosine(1.0), envelope=fam.GrowthEnvelope(1.0, 1.0, 0.5))
    assert fam.cosine(1.0).bounded_oscillation and not growing.bounded_oscillation


@pytest.mark.parametrize("u", [fam.constant(2.0), fam.affine(0.5, 1.0), fam.affine(-1.0, 3.0, dim=2)])
def test_an_exact_field_is_its_closed_form(u):
    # no panels, no leftover: the band is area u(x) int_1^inf t^(-1-2s) dt
    s = 0.7
    pts = _axis_points(u.dim, [0.3, -1.7, 2.9])
    band, dirs, dwts = _operator_band(u, pts, s)
    assert band.rhos.size == 0
    vals, errs = band.reduce(pair_sums(u.value, pts, band.rhos, dirs, dwts), slice(None))
    assert np.all(vals == 0.0) and np.all(errs == 0.0)
    assert np.array_equal(band.closed, band.area * (u.value(pts) * (1.0 / (2.0 * s))))


BAND_CASES = [(u, d) for u, d in DECLARED if d < 3]


@pytest.mark.parametrize("u, dim", BAND_CASES, ids=[f"{u.label}-{d}d" for u, d in BAND_CASES])
def test_band_estimate_bounds_its_gap_to_a_finer_band(u, dim):
    # the reference doubles both Gauss orders and halves every panel; it
    # keeps the cutoff, so the leftover past it is no part of the gap.  The
    # rounding of the panel sums is left to the caller (fraclap adds
    # 1e-15 |value|), and so it is here
    s = 0.85
    for x1 in (0.3, -1.7, 2.9):
        pts = _axis_points(dim, [x1])
        breaks = fraclap._origin_radii(pts[0]) + fraclap._kink_radii(u, pts[0])
        band, dirs, dwts = _operator_band(u, pts, s, breaks=breaks)
        edges = band.edges
        halves = list(np.sqrt(edges[1:] * edges[:-1])) + breaks
        fine, _, _ = _operator_band(u, pts, s, orders=(48, 32), breaks=halves)
        assert fine.edges[-1] == edges[-1] and fine.edges.size == 2 * edges.size - 1
        assert np.array_equal(fine.closed, band.closed)
        val, est = (v[0] for v in band.reduce(pair_sums(u.value, pts, band.rhos, dirs, dwts), slice(None)))
        ref, _ = fine.reduce(pair_sums(u.value, pts, fine.rhos, dirs, dwts), slice(None))
        assert abs(val - ref[0]) <= est + 1e-15 * (1.0 + abs(ref[0])), (x1, val, ref[0], est)


def test_breaks_are_inserted_only_strictly_inside():
    u = fam.abs_power(1.2)
    pts = _axis_points(1, [0.3])
    plain, _, _ = _operator_band(u, pts, 0.75)
    edges = plain.edges
    inside = [1.5, 0.5 * (edges[-2] + edges[-1])]
    outside = [0.5, 1.0, float(edges[-1]), 2.0 * float(edges[-1]), -3.0]
    band, _, _ = _operator_band(u, pts, 0.75, breaks=inside + outside + [1.5])
    assert band.edges[0] == 1.0 and band.edges[-1] == edges[-1]
    assert np.all(np.diff(band.edges) > 0.0)
    assert np.array_equal(band.edges, np.unique(np.concatenate([edges, inside])))


# ---------------------------------------------------------------------------
# the solver's routes against oracles


def test_ruled_2d_equals_its_1d_profile():
    # the ruled datum is flat along x2, so the 2-D flow along x1 is the
    # 1-D flow of the profile
    times = (0.5, 2.0)
    g2 = GridSpec(2, ((-2.0, 2.0), (-1.0, 1.0)), (5, 2), times)
    g1 = GridSpec(1, ((-2.0, 2.0),), (5,), times)
    two = solve_canonical(fam.ruled(1.2, dim=2), g2, KernelParams(dim=2, s=0.75))
    one = solve_canonical(fam.abs_power(1.2), g1, KernelParams(dim=1, s=0.75))
    v2 = two.values.reshape(2, 5, 2)
    e2 = two.error_estimates.reshape(2, 5, 2)
    gap = np.abs(v2 - one.values[:, :, None])
    assert np.all(gap <= e2 + one.error_estimates[:, :, None])


def test_ruled_2d_tail_band_is_short():
    # the envelope alone laid 1,936 tail radii out to 1.5e29 here
    grid = GridSpec(2, ((-2.0, 2.0), (-2.0, 2.0)), (3, 3), (1.0,))
    sweep, _ = _radial_bands(fam.ruled(1.2, dim=2), grid.nodes(), 1.0, KernelParams(dim=2, s=0.75), "mass")
    assert sweep.radii[1].size < 300


def test_gaussian_3d_tail_band_is_short():
    # the envelope alone laid 528 tail radii out to 1.96e6 here, every term
    # an exact zero past |y| = 27.3
    grid = GridSpec(3, ((-1.0, 1.0),) * 3, (2, 2, 2), (1.0,))
    sweep, _ = _radial_bands(fam.gaussian(1.0, dim=3), grid.nodes(), 1.0, KernelParams(dim=3, s=0.75), "mass")
    assert sweep.radii[1].size <= 80


def test_straight_kinked_line_is_affine():
    # at left slope 1 the kinked line is the line u = x: an exact field,
    # whose flow leaves the datum where it is
    u0 = fam.piecewise_linear_1d(1.0)
    assert u0.is_affine
    pts = np.array([[-0.587], [0.3], [1.7]])
    for kind, exact in (("mass", pts[:, 0]), ("rate", np.zeros(3))):
        vals, ests = _solve_batch(u0, pts, 1.01, KernelParams(dim=1, s=0.55), kind)
        assert np.array_equal(vals, exact)
        assert np.all(ests <= 2.0**-53 * np.abs(exact))


@pytest.mark.parametrize("x", [-0.587, 0.3, 1.7])
def test_affine_solve_is_the_datum(x):
    u0 = fam.affine(0.5, 1.0)
    for kind in ("mass", "rate"):
        val, est = (v[0] for v in _solve_batch(u0, np.array([[x]]), 1.01, KernelParams(dim=1, s=0.55), kind))
        exact = 0.5 + x if kind == "mass" else 0.0
        assert est <= 1e-8
        assert abs(val - exact) <= est


def test_abs_power_near_the_integrability_edge():
    # 2s - beta = 0.1: the envelope alone ran the tail band to RADIUS_CAP
    # with an estimate of 7.6e-4.  The tail band's own estimate is now
    # under 1e-8; the solve's estimate is then the body's table envelope,
    # inside the package target REL_TOL (1 + |u|)
    u0, params = fam.abs_power(1.2), KernelParams(dim=1, s=0.65)
    sweep, _ = _radial_bands(u0, np.array([[0.3]]), 1.0, params, "mass")
    assert float(sweep.parts[1][1][0]) <= 1e-8
    assert float(sweep.radii[1].max()) < RADIUS_CAP
    val, est = solution_at(u0, 0.3, 1.0, params)
    assert est <= REL_TOL * (1.0 + abs(val))


def test_abs_power_estimate_bounds_a_tighter_solve(monkeypatch):
    u0, params = fam.abs_power(1.2), KernelParams(dim=1, s=0.65)
    val, est = solution_at(u0, 0.3, 1.0, params)
    monkeypatch.setattr(solver, "ABS_TOL", ABS_TOL / 100.0)
    monkeypatch.setattr(solver, "REL_TOL", REL_TOL / 100.0)
    ref, _ = solution_at(u0, 0.3, 1.0, params)
    assert abs(val - ref) <= est


@pytest.mark.parametrize(
    "u0, s",
    [(fam.abs_power(1.2), 0.65), (fam.abs_power(1.2), 0.75), (fam.abs_power(0.75, dim=3), 0.55)],
)
def test_declared_cutoffs_stay_under_the_cap(u0, s):
    pts = np.linspace(-3.0, 3.0, 7)[:, None] * np.eye(u0.dim)[0]
    sweep, _ = _radial_bands(u0, pts, 1.0, KernelParams(dim=u0.dim, s=s), "mass")
    assert float(sweep.radii[1].max()) < 1e-10 * RADIUS_CAP


def test_affine_residual_needs_no_far_field(monkeypatch):
    # an exact field lays no far panels: the batch is the seven-point
    # stencil and nothing more (the envelope route once ran it out to
    # RADIUS_CAP with an estimate of 0.025)
    batches = []

    def spying(u0, pts, *args, **kwargs):
        batches.append(pts[:, 0].copy())
        return _solve_batch(u0, pts, *args, **kwargs)

    monkeypatch.setattr(solver, "_solve_batch", spying)
    val, est = residual_with_estimate(fam.affine(0.5, 1.0), np.array([-0.587]), 1.01, KernelParams(dim=1, s=0.55))
    assert est <= 1e-13
    assert abs(val) <= est
    stencil = batches[-1]
    assert np.array_equal(stencil, -0.587 + (0.5 / 3.0) * np.arange(-3, 4))


@pytest.mark.parametrize("name", sorted(fam._FACTORIES))
def test_is_affine_reads_the_exact_far_field(name):
    # the one declaration that the flow leaves a datum where it is: constant
    # and affine (slope 0 included) data, and no other family
    factory, nargs = fam._FACTORIES[name]
    for args in ([0.5, 0.0, 1.2][:nargs], [2.0, 1.0][:nargs]):
        u = factory(*args)
        ff = u.far_field
        assert u.is_affine == (ff is not None and ff.exact)
        assert u.is_affine == (name in ("constant", "affine"))
