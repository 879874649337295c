"""Numerical toolkit for unit-root autoregressive operator pencils.

Pipeline: build an AR(p) pencil (pencil), locate and classify the
singularity at z=1 by contour quadrature (laurent), compute the
closed-form long-run operators and stationary-part coefficients for
simple and double poles (grj), study the induced moving-average and
cointegration structure (cointegration), and validate everything
against seeded simulation (simkit).  The cli module ties the pieces
into a small command-line tool; models holds the built-in examples.
"""

from .cointegration import (
    BeveridgeNelson,
    MaRepresentation,
    beveridge_nelson,
    positive_definite_check,
)
from .grj import (
    I1Report,
    I2Report,
    NotI1,
    NotI2,
    check_i1,
    check_i2,
    i1_components,
    i2_components,
    taylor_h_coefficients,
)
from .laurent import (
    ContourNotConverged,
    LaurentExpansion,
    NoUnitRoot,
    PoleOrderReport,
    circle_coefficients,
    contour_coefficients,
    essential_from_sweep,
    expansion,
    pick_radius,
    pole_order,
    riesz_projection,
)
from .numfield import (
    NotComplementary,
    Subspace,
    ascent_at_one,
    direct_sum_check,
    kernel_basis,
    numerical_rank,
    oblique_projection,
    operator_norm,
    range_basis,
    relative_generalized_inverse,
)
from .pencil import (
    ArPencil,
    CompanionPencil,
    SingularAt,
    SpectrumReport,
    eval_poly,
    linearize,
    resolvent,
    spectrum_report,
)
from .simkit import (
    ClassMismatch,
    RepresentationCheck,
    SamplePath,
    consistent_initial,
    differenced_ma,
    polynomial_cointegration_probe,
    recursion_residual,
    simulate_ar,
    simulate_ensemble,
    stationarity_slope,
    verify_representation,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
