"""Cyclic projections onto intersections of affine sets.

Exact projectors, cyclic / symmetric / Douglas-Rachford
composites, line-search step rules that accelerate the plain iteration,
closed-form solution oracles and contraction-rate analysis, plus a
benchmark CLI (`python -m cycproj`).
"""

from .geometry import (
    AffineSet,
    DimensionMismatchError,
    HalfSpace,
    Hyperplane,
    InfeasibleProblemError,
    Span,
)
from .operators import (
    CycleOperator,
    DouglasRachfordOperator,
    StageTrace,
    fixset_dr,
)
from .acceleration import (
    IterationTrace,
    NumericalFailureError,
    SolveConfig,
    StepRule,
    solve,
    step_gk_affine,
    step_oracle,
)
from .analysis import (
    RateReport,
    exact_projection,
    friederichs_cosine,
    rate_constant,
)

__version__ = "0.1.0"

__all__ = [
    "AffineSet",
    "CycleOperator",
    "DimensionMismatchError",
    "DouglasRachfordOperator",
    "HalfSpace",
    "Hyperplane",
    "InfeasibleProblemError",
    "IterationTrace",
    "NumericalFailureError",
    "RateReport",
    "SolveConfig",
    "Span",
    "StageTrace",
    "StepRule",
    "exact_projection",
    "fixset_dr",
    "friederichs_cosine",
    "rate_constant",
    "solve",
    "step_gk_affine",
    "step_oracle",
]
