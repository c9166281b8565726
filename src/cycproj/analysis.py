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

from .acceleration import NumericalFailureError
from .geometry import (
    ORTHO_REPAIR_TOL,
    AffineSet,
    HalfSpace,
    InfeasibleProblemError,
    as_vector,
)
from .operators import (
    FEAS_TOL,
    RANK_CUTOFF,
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
    """Nearest point of the intersection of affine sets to x0.

    Stacks all sets' constraint rows into A x = b and removes the
    minimum-norm correction A^+ (A x0 - b) from x0, with singular values
    below RANK_CUTOFF * sigma_max treated as zero.  Raises
    InfeasibleProblemError when the stacked system is inconsistent, and
    NumericalFailureError at iteration 0 when the result is not finite
    (A x0 overflows).
    """
    x0 = as_vector(x0)
    if not sets:
        raise ValueError("need at least one set")
    for s in sets:
        if isinstance(s, HalfSpace):
            raise TypeError("exact projection requires affine sets")
        if s.dim != x0.shape[0]:
            raise ValueError("sets and x0 must share one ambient dimension")
    a, b = _stacked_constraints(list(sets))
    if a.shape[0] == 0:
        return x0.copy()
    r = a @ x0 - b
    y, *_ = np.linalg.lstsq(a, r, rcond=RANK_CUTOFF)
    p = x0 - y
    if not np.all(np.isfinite(p)):
        raise NumericalFailureError(0)
    if np.linalg.norm(a @ p - b) > FEAS_TOL * (1.0 + np.linalg.norm(b)):
        raise InfeasibleProblemError("the sets have no common point")
    return p


def _as_basis(u) -> np.ndarray:
    """Coerce a basis given as a (d, r) array or a list of vectors."""
    if isinstance(u, np.ndarray) and u.ndim == 2:
        b = np.asarray(u, dtype=float)
    else:
        vecs = [as_vector(v) for v in u]
        if not vecs:
            raise ValueError("basis must contain at least the ambient dimension info")
        b = np.column_stack(vecs)
    if b.shape[1] > 0:
        drift = float(np.max(np.abs(b.T @ b - np.eye(b.shape[1]))))
        if drift > ORTHO_REPAIR_TOL:
            raise ValueError(f"basis is not orthonormal (drift {drift:.3e})")
    return b


def friederichs_cosine(u, v) -> float:
    """Cosine of the Friederichs angle between two linear subspaces.

    Takes orthonormal bases (as (d, r) arrays or vector lists) and returns
    the largest principal cosine left once the directions the subspaces
    share (sine at most RANK_CUTOFF) are set aside, clamped to [0, 1].
    Subspaces that coincide or contain one another yield 0, matching the
    supremum over an empty set.
    """
    ub = _as_basis(u)
    vb = _as_basis(v)
    if ub.shape[0] != vb.shape[0]:
        raise ValueError("both subspaces must share one ambient dimension")
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
    """
    sets = list(sets)
    if len(sets) < 2:
        raise ValueError("need at least two sets")
    for s in sets:
        if isinstance(s, HalfSpace):
            raise TypeError("rate analysis requires affine sets")
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
