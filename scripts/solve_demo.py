#!/usr/bin/env python3
"""Small end-to-end tour: solve a cosine datum, show decay, residual and growth envelope.

The cosine is an eigenfunction, so the exact solution is known and the
printed error column is a genuine accuracy readout, not a residual proxy.
"""

import math

import numpy as np

from fracheat import (
    GridSpec,
    KernelParams,
    cosine,
    envelope_check,
    pde_residual,
    solve_canonical,
)

par = KernelParams(dim=1, s=0.6)
grid = GridSpec(dim=1, box=((-3.0, 3.0),), counts=(13,), times=(0.0, 0.5, 1.0, 2.0))
field = solve_canonical(cosine(1.0), grid, par)
x = grid.axes()[0]

print(f"u_t + (-Lap)^{par.s} u = 0,  u0 = cos(x),  exact u = exp(-t) cos(x)\n")
print("   t    sup|u|      sup error   est bound")
for k, t in enumerate(grid.times):
    exact = math.exp(-t) * np.cos(x)
    err = float(np.max(np.abs(field.values[k] - exact)))
    row_sup = float(np.max(np.abs(field.at_time(k))))
    print(
        f"  {t:4.1f}  {row_sup:.6f}  {err:10.2e}  {float(np.max(field.error_estimates[k])):9.2e}"
    )

res = pde_residual(cosine(1.0), np.array([0.7]), 0.5, par)
print(f"\nPDE residual at x=0.7, t=0.5: {res:.2e}")

print()
print("\n".join(envelope_check(field, par).summary_lines()))
