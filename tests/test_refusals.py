"""Public entry points refuse bad points and too-fast growth with the shared messages."""

import math

import numpy as np
import pytest

from fracheat import families as fam
from fracheat.cli import main
from fracheat.fraclap import frac_laplacian
from fracheat.kernel import (
    KernelParams,
    heat_kernel,
    heat_kernel_fourier,
    kernel_derivatives,
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["kernel", "eval", "--dim", "1", "--s", "0.6", "--x", "1", "--t", "1e-300"],
            "time t=1e-300 is too small for the kernel in dim 1 at s=0.6: "
            "its values and derivatives at that time leave the float range",
        ),
        (
            ["fraclap", "eval", "--function", "cosine:1e300", "--s", "0.6", "--x", "0.5"],
            "cosine:1e+300 varies on too fine a scale for the operator: its split radius "
            "1.57e-300 is below 1e-100",
        ),
    ],
    ids=["kernel-tiny-time", "fraclap-huge-frequency"],
)
def test_overflowing_scales_are_refused_by_name(argv, message, capsys):
    # both overflowed in a power, and left through the unforeseen-error path
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "OverflowError" not in err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert len(lines) == 1 and lines[0].startswith(f"error: {message}")


@pytest.mark.parametrize("axis", ["-1:1:x", "-1:1:3.5", "a:1:3"])
def test_a_bad_grid_axis_is_refused_by_name(axis, capsys, tmp_path):
    # each once left as int()'s or float()'s own message, naming neither the
    # flag nor the axis
    argv = ["solve", "--datum", "cosine:1", "--s", "0.6", f"--grid={axis}", "--times", "1", "--out", str(tmp_path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = [line for line in err.splitlines() if line.startswith("error:")]
    assert lines == [f"error: --grid axis {axis!r} needs numeric bounds and an integer count, as lo:hi:count"]


@pytest.mark.parametrize("order", [1, 2])
def test_kernel_derivatives_refuse_a_time_whose_scale_overflows(order):
    # the order-k scale factor t^(-(1 + k)/1.2) overflows below about
    # t = 1e-185 (k = 1) and 1e-123 (k = 2) in dim 1 at s = 0.6
    with pytest.raises(ValueError, match=r"time t=1e-300 is too small for the kernel in dim 1 at s=0\.6"):
        kernel_derivatives(PARAMS, [[1.0]], [1e-300], order)
    sample = kernel_derivatives(PARAMS, [[1.0]], [1e-100], order)[0]
    assert all(np.all(np.isfinite(v)) for v in sample)
