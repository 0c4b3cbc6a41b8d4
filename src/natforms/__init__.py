"""Exact symbolic tensor calculus for affine connections with polynomial
Christoffel symbols, plus the verification suite built on top of it."""

__version__ = "0.1.0"

from .geometry import (  # noqa: E402,F401
    Connection,
    curvature,
    load_connection,
    reference_connection,
    torsion,
)
from .verify import RandomConnectionSpec, verify_target  # noqa: E402,F401
