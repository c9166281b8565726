"""Cyclic projections onto intersections of affine sets.

Exact projectors, cyclic / symmetric / Douglas-Rachford composites,
line-search step rules that accelerate the plain iteration, closed-form
solution oracles and contraction-rate analysis, plus a benchmark CLI
(`python -m cycproj`).  The package exports each module's __all__.
"""

from .geometry import *
from .operators import *
from .acceleration import *
from .analysis import *
from . import geometry, operators, acceleration, analysis

__version__ = "0.1.0"

__all__ = sorted(
    name for mod in (geometry, operators, acceleration, analysis) for name in mod.__all__
)
