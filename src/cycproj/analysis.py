"""Closed-form solutions and convergence-rate bounds for affine problems.

Everything here is direct linear algebra on small to medium problems:
the exact best approximation via stacked constraints, principal-angle
style cosines between subspaces, and the per-iteration contraction
constant those cosines induce for cyclic projections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .geometry import (
    AffineSet,
    NumericalFailureError,
    _affine_dim,
    _check_dim,
    _finite,
    _nearest_solution,
    _orthonormal,
    _principal,
    _row_basis,
    _stacked_constraints,
)

__all__ = [
    "RateReport",
    "exact_projection",
    "friederichs_cosine",
    "rate_constant",
]


def exact_projection(x0, sets: Sequence[AffineSet]) -> np.ndarray:
    """Nearest point to a finite x0 of the intersection of one or more affine sets.

    Subtracts A^+ (A x0 - b) from x0, where A x = b stacks all sets' rows and
    singular values below RANK_CUTOFF * sigma_max count as 0, so its absolute
    error is about 1e-16 |x0|.  Raises InfeasibleProblemError when the stacked
    system is inconsistent, read in distances to the sets, and
    NumericalFailureError at iteration 0 when the result is not finite.
    """
    x0 = _finite(x0, "x0")
    _check_dim(_affine_dim(sets), x0)
    p = _nearest_solution(*_stacked_constraints(sets), x0)
    if not np.all(np.isfinite(p)):
        raise NumericalFailureError(0)
    return p


def friederichs_cosine(u, v) -> float:
    """Cosine of the Friederichs angle between two linear subspaces.

    Takes orthonormal bases as (d, r) arrays of one d, checked
    and repaired as a Span's basis is, and returns the largest principal
    cosine left once the directions the subspaces share (sine at most
    RANK_CUTOFF) are set aside, clamped to [0, 1].  Subspaces that
    coincide or contain one another yield 0, matching the supremum over
    an empty set.
    """
    ub = _orthonormal(u)
    vb = _orthonormal(v, ub.shape[0])
    cos, _, shared = _principal(ub, vb)
    top = float(cos[~shared].max(initial=0.0))
    return min(max(top, 0.0), 1.0)


@dataclass(frozen=True)
class RateReport:
    """Per-cycle contraction data for cyclic projections.

    cosines[i] is the Friederichs cosine between set i's parallel
    subspace and the intersection of all later ones; constant is the
    induced per-iteration error factor, so k passes shrink the distance
    to the solution at least by constant ** k.
    """

    cosines: tuple[float, ...]
    constant: float


def rate_constant(sets: Sequence[AffineSet]) -> RateReport:
    """Contraction constant of one cyclic-projection pass over affine sets.

    With c_i the cosine between the i-th parallel subspace and the
    intersection of the later ones, the distance to the solution shrinks
    by at least sqrt(1 - prod(1 - c_i^2)) per pass.

    For closed subspaces c(M, N) = c(M^perp, N^perp) (Deutsch 2001,
    ch. 9), so each c_i is taken between constraint row spaces: set i's
    rows and the later sets' stacked rows.  A hyperplane is one row, so
    memory is O(rows * d); a Span of rank r brings its d - r complement
    rows, and a point (parallel subspace {0}) all of R^d, which gives
    c_i = 0.

    It is meant for a few sets.  Its n - 1 SVDs of growing stacks cost about
    n^3: 0.11 s at 100 x 200, 0.84 s at 200 x 400 and 2.96 s at 300 x 600
    (n random rows in R^2n), and on random systems of 50 or more rows the
    constant reads 1.000000.
    """
    sets = list(sets)
    if len(sets) < 2:
        raise ValueError("need at least two sets")
    _affine_dim(sets)
    cosines = []
    for i in range(len(sets) - 1):
        rows = _row_basis(sets[i].constraint_rows()[0])
        tail = _row_basis(_stacked_constraints(sets[i + 1:])[0])
        cosines.append(friederichs_cosine(rows, tail))
    prod = 1.0
    for c in cosines:
        prod *= 1.0 - c * c
    constant = float(np.sqrt(min(max(1.0 - prod, 0.0), 1.0)))
    return RateReport(cosines=tuple(cosines), constant=constant)
