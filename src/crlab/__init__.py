"""Numerical laboratory for cross ratios on the boundary circle of a surface group.

The package builds representations of the genus-2 surface group into
SL(n, R), samples the boundary circle through fixed points of hyperbolic
elements, evaluates cross ratios attached to limit curves, and checks their
defining axioms, invariance under the group, periods, the projective-line
relations and the flow a cross ratio generates.
"""

__all__ = ["projlin", "surfgrp", "crossratio"]
__version__ = "0.1.0"
