"""Grids, domains, and variable-exponent norms, end to end.

Builds the disc domain used throughout, compares Luxembourg norms against
their constant-exponent closed form, and shows the unit-ball property for a
genuinely variable exponent.
"""

import os

import numpy as np

import varexp as vx

OUT = os.path.join(os.path.dirname(__file__), "..", "out-demo")
os.makedirs(OUT, exist_ok=True)

grid = vx.grid_on_box([-3, -3], [3, 3], [96, 96])
disc = vx.make_disc_domain((0, 0), 2.5, grid)
print(f"disc measure {disc.measure():.4f} vs pi R^2 = {np.pi * 2.5**2:.4f}")

ring = vx.shrink(disc, 1.0)
print(f"shrinking by 1.0 keeps {ring.mask.sum()} of {disc.mask.sum()} nodes")

# a smooth test field and its norms
xx = grid.coords()
f = vx.ScalarField(grid, np.exp(-(xx[0] ** 2 + xx[1] ** 2)) * np.sin(2 * xx[0]))

for q in (1.1, 1.5, 2.0, 3.0):
    p = vx.constant_exponent(grid, q)
    lux = vx.luxembourg_norm(f, p, disc)
    closed = vx.modular(f, p, disc) ** (1.0 / q)
    print(f"p = {q}: luxembourg {lux:.8f}   modular^(1/p) {closed:.8f}")

# a two-region exponent: 1.4 inside, 2.2 outside, smooth transition
rho = np.sqrt(xx[0] ** 2 + xx[1] ** 2)
p_var = vx.ExponentField(vx.ScalarField(grid, 1.8 + 0.4 * np.tanh((rho - 1.2) / 0.3)))
print(f"variable exponent: p- = {p_var.p_minus:.3f}, p+ = {p_var.p_plus:.3f}, "
      f"log-Hoelder estimate {p_var.clog_estimate:.3f}")

norm = vx.luxembourg_norm(f, p_var, disc)
unit = vx.modular(f * (1.0 / norm), p_var, disc)
print(f"unit-ball check: modular(f/||f||) = {unit:.10f}")

pc = vx.conjugate(p_var)
g = vx.ScalarField(grid, np.cos(3 * xx[1]) + 0.5 * f.values)
pairing = vx.holder_pairing(f, g, domain=disc)
bound = 2.0 * vx.luxembourg_norm(f, pc, disc) * vx.luxembourg_norm(g, p_var, disc)
print(f"pairing {pairing:.6f} within Hoelder bound {bound:.6f}")

vx.export_csv(os.path.join(OUT, "demo01_field.csv"), f, comment="demo 01 field")
vx.write_pgm(os.path.join(OUT, "demo01_exponent.pgm"), p_var.values)
print(f"wrote {OUT}/demo01_field.csv and demo01_exponent.pgm")
