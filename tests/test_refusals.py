"""Public entry points refuse bad points and too-fast growth with the shared messages."""

import math

import pytest

from fracheat import families as fam
from fracheat.fraclap import frac_laplacian
from fracheat.kernel import (
    KernelParams,
    heat_kernel,
    heat_kernel_fourier,
    kernel_gradient,
    kernel_time_derivative,
)
from fracheat.solver import (
    GridSpec,
    initial_continuity_check,
    pde_residual,
    solution_at,
    solve_canonical,
    time_derivative,
)

PARAMS = KernelParams(dim=1, s=0.6)
COSINE = fam.cosine(1.0)

POINT_ENTRIES = {
    "heat_kernel": lambda x: heat_kernel(PARAMS, x, 1.0),
    "kernel_gradient": lambda x: kernel_gradient(PARAMS, x, 1.0),
    "kernel_time_derivative": lambda x: kernel_time_derivative(PARAMS, x, 1.0),
    "heat_kernel_fourier": lambda x: heat_kernel_fourier(PARAMS, x, 1.0),
    "frac_laplacian": lambda x: frac_laplacian(COSINE, x, 0.6),
    "solution_at": lambda x: solution_at(COSINE, x, 1.0, PARAMS),
    "time_derivative": lambda x: time_derivative(COSINE, x, 1.0, PARAMS),
    "pde_residual": lambda x: pde_residual(COSINE, x, 1.0, PARAMS),
    "initial_continuity_check": lambda x: initial_continuity_check(COSINE, x, PARAMS),
    "FunctionSpec.at": COSINE.at,
}


@pytest.mark.parametrize(
    "x, message",
    [
        ([0.0, 0.0], r"point must have exactly 1 coordinates, got shape \(2,\)"),
        ([math.nan], r"point x must be finite, got \[nan\]"),
    ],
    ids=["wrong-shape", "nan"],
)
@pytest.mark.parametrize("entry", POINT_ENTRIES.values(), ids=POINT_ENTRIES.keys())
def test_point_entries_refuse_bad_points(entry, x, message):
    with pytest.raises(ValueError, match=message):
        entry(x)


FAST = "abs_power:1.6"  # growth power 1.6 against 2s = 1.5
GROWTH_ENTRIES = {
    "frac_laplacian": lambda: frac_laplacian(fam.parse_spec(FAST), [0.0], 0.75),
    "solve_canonical": lambda: solve_canonical(
        fam.parse_spec(FAST),
        GridSpec(dim=1, box=((-1.0, 1.0),), counts=(3,), times=(0.5,)),
        KernelParams(dim=1, s=0.75),
    ),
}


@pytest.mark.parametrize("entry", GROWTH_ENTRIES.values(), ids=GROWTH_ENTRIES.keys())
def test_growth_entries_refuse_fast_growth(entry):
    with pytest.raises(
        ValueError,
        match=r"of abs_power:1\.6 is not integrable against order s=0\.75; "
        r"the integral does not converge unless power < 2s = 1\.5",
    ):
        entry()


@pytest.mark.parametrize(
    "spec, message",
    [
        ("cosine:inf", r"cosine frequency must be positive and finite, got inf"),
        ("cosine:nan", r"cosine frequency must be positive and finite, got nan"),
        ("gaussian:inf", r"gaussian rate must be positive and finite, got inf"),
        ("gaussian:nan", r"gaussian rate must be positive and finite, got nan"),
        ("piecewise_linear_1d:nan", r"piecewise_linear_1d left slope must be finite, got nan"),
    ],
    ids=["cosine:inf", "cosine:nan", "gaussian:inf", "gaussian:nan", "piecewise_linear_1d:nan"],
)
def test_non_finite_family_parameters_refused(spec, message):
    with pytest.raises(ValueError, match=message):
        fam.parse_spec(spec)
