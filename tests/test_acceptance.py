"""Acceptance gate: one test per release criterion, one line per verdict.

Every test drives a named verification suite end to end at the contract
tolerances and prints a single pass/fail line (visible under ``pytest -s``
or in the captured-output section of a failure).  A red test here means
the criterion it names is genuinely not met.
"""

import pytest

from fracheat.cli import parse_config
from fracheat.suites import SUITES

CONFIG = parse_config("{}")


def _run(number: int, name: str):
    report = SUITES[name](CONFIG)
    status = "PASS" if report.overall_pass else "FAIL"
    print(f"criterion {number:02d} [{name}]: {status}")
    return report


def _rec(report, name: str):
    for r in report.records:
        if r.name == name or r.name.endswith("/" + name):
            return r
    raise AssertionError(f"no record named {name!r} in suite {report.suite!r}")


def test_01_half_order_closed_form():
    """Half-order kernel equals its rational closed form to 1e-6 relative."""
    report = _run(1, "kernel-closed-form")
    assert report.overall_pass
    for dim in (1, 2):
        r = _rec(report, f"dim-{dim}")
        assert r.tolerance == 1e-6
        assert r.measured <= 1e-6


def test_02_unit_mass():
    """Kernel mass is 1 to 1e-6 over 27 dimension/order/time combinations."""
    report = _run(2, "normalization")
    assert report.overall_pass
    for dim in (1, 2, 3):
        assert _rec(report, f"dim-{dim}").measured <= 1e-6


def test_03_two_sided_bounds():
    """Density and derivative ratios stay inside fixed positive windows."""
    report = _run(3, "kernel-bounds")
    assert report.overall_pass
    for dim, s in ((1, 0.55), (2, 0.75), (3, 0.6)):
        lower = _rec(report, f"dim-{dim}-s-{s:g}/kernel-ratio-lower")
        assert lower.measured > 0.0
        for kind in ("gradient-ratio", "hessian-ratio", "time-derivative-ratio"):
            assert _rec(report, f"dim-{dim}-s-{s:g}/{kind}").passed


def test_04_tail_constants():
    report = _run(4, "asymptotic-constants")
    assert report.overall_pass
    for r in report.records:
        assert r.tolerance == 0.02
        assert r.measured <= 0.02
    assert _rec(report, "dim-1-s-0.5-order-0").bound == pytest.approx(
        (2.0 / 3.141592653589793) ** 0.5
    )


def test_05_derivative_ladder():
    report = _run(5, "derivative-recursion")
    assert report.overall_pass
    assert _rec(report, "matches-finite-differences").measured <= 1e-4
    assert _rec(report, "coefficient-patterns").measured == 0.0


def test_06_multiplier_identity():
    """Cosine eigenvalue matches the symbol to 1e-4 across orders."""
    report = _run(6, "multiplier")
    assert report.overall_pass
    for s in (0.3, 0.6, 0.9):
        assert _rec(report, f"s-{s:g}").measured <= 1e-4


def test_07_solution_oracle_and_residuals():
    report = _run(7, "spectral-solution")
    assert report.overall_pass
    assert _rec(report, "cosine-oracle").measured <= 1e-4
    for name in ("cosine", "constant", "gaussian", "abs_power", "affine"):
        assert _rec(report, f"residual-{name}").measured <= 1e-3


def test_08_semigroup_convolution():
    """One-dimensional p(0.5) * p(0.7) reproduces p(1.2) to 1e-5 sup."""
    report = _run(8, "semigroup")
    assert report.overall_pass
    assert _rec(report, "sup-gap").measured <= 1e-5


def test_09_maximum_principle():
    report = _run(9, "maxprinciple")
    assert report.overall_pass
    assert len(report.records) == 10
    for r in report.records:
        assert r.tolerance == 1e-6


def test_10_geometry_transport():
    """Convexity survives, heating is strict away from affine data,
    rulings survive along and only along their direction."""
    report = _run(10, "geosol")
    assert report.overall_pass
    assert _rec(report, "convexity-preserved").measured >= -1e-6
    assert _rec(report, "strictly-heating").measured >= 1e-4
    assert _rec(report, "affine-frozen").measured <= 1e-6
    assert _rec(report, "ruling-kept").measured <= 1e-6
    assert _rec(report, "ruling-fails-across").passed


def test_11_classical_comparison():
    report = _run(11, "classical")
    assert report.overall_pass
    assert _rec(report, "quadratic-closed-form").measured <= 1e-6
    assert _rec(report, "horizon-refused").passed


def test_12_definiteness_table():
    """All six principal-value classifications land in the right class."""
    report = _run(12, "definiteness")
    assert report.overall_pass
    assert len(report.records) == 6


def test_13_decay_at_infinity():
    report = _run(13, "vanishing")
    assert report.overall_pass
    assert _rec(report, "far-field-decay").measured <= 0.1
    assert _rec(report, "cosine-control-fails").passed
