"""Numerical laboratory for cross ratios on the boundary circle of a surface group.

The package builds representations of surface/free groups into SL(n, R),
samples the boundary circle through fixed points of hyperbolic elements,
evaluates cross ratios attached to limit curves, and checks the functional
equations, determinant rank conditions, period formulas, reconstruction and
symplectic identities that characterise these cross ratios.
"""

__all__ = ["projlin", "surfgrp", "crossratio"]
__version__ = "0.1.0"
