"""Grid-based toolkit for variable-exponent norms, symmetric-gradient
calculus, smoothing operators, and an implicit-Euler parabolic solver."""

from .fields import (
    Domain,
    Grid,
    ScalarField,
    SymTensorField,
    TensorField,
    VectorField,
    domain_from_mask,
    export_csv,
    field_abs,
    grid_on_box,
    integrate,
    make_disc_domain,
    make_rectangle_domain,
    read_field,
    shrink,
    vertex_grid_on_box,
    write_field,
    write_pgm,
    write_table,
)
from .modular import (
    ExponentField,
    conjugate,
    constant_exponent,
    holder_pairing,
    luxembourg_norm,
    modular,
)
from .calculus import KornReport, divergence, gradient, korn_steady_check, sym_gradient
from . import korn, mollify, poincare, rothe  # noqa: F401  (submodule access)

__all__ = [
    "Grid",
    "Domain",
    "ScalarField",
    "VectorField",
    "TensorField",
    "SymTensorField",
    "grid_on_box",
    "vertex_grid_on_box",
    "make_disc_domain",
    "make_rectangle_domain",
    "domain_from_mask",
    "shrink",
    "integrate",
    "field_abs",
    "write_field",
    "read_field",
    "export_csv",
    "write_pgm",
    "write_table",
    "ExponentField",
    "constant_exponent",
    "conjugate",
    "modular",
    "luxembourg_norm",
    "holder_pairing",
    "gradient",
    "sym_gradient",
    "divergence",
    "korn_steady_check",
    "KornReport",
]

__version__ = "0.1.0"
