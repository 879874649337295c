"""Numerical toolkit for unit-root autoregressive operator pencils.

Pipeline: build an AR(p) pencil (pencil), locate and classify the
singularity at z=1 by contour quadrature (laurent), compute the
closed-form long-run operators and stationary-part coefficients for
simple and double poles (grj), derive the cointegrating functionals
(cointegration), and validate everything
against seeded simulation (simkit).  The cli module ties the pieces
into a small command-line tool; models holds the built-in examples.

The package re-exports only the pipeline's entry points and the
exceptions they raise; every other name is imported from its module.
"""

from .grj import NotI1, NotI2, check_i1, check_i2, i1_components, i2_components
from .laurent import ContourNotConverged, NoUnitRoot, pole_order
from .pencil import ArPencil, SingularAt, linearize
from .simkit import ClassMismatch, simulate_ar, verify_representation

__all__ = [
    "ArPencil", "linearize", "pole_order", "check_i1", "check_i2",
    "i1_components", "i2_components", "simulate_ar", "verify_representation",
    "NoUnitRoot", "NotI1", "NotI2", "ContourNotConverged", "SingularAt",
    "ClassMismatch",
]
