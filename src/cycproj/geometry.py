"""Affine sets and half-spaces in R^d with exact projectors.

Three set flavours are supported: hyperplanes in normal/offset form,
affine spans given by an anchor point plus an orthonormal basis of the
parallel subspace, and half-spaces (convex but not affine, kept for
quasi-nonexpansive operator experiments).  All projections are closed
form (no iterative solves), and sets compare by identity, not by value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import ClassVar, Optional, Sequence, Union

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "InfeasibleProblemError",
    "NumericalFailureError",
    "Hyperplane",
    "Span",
    "HalfSpace",
    "AffineSet",
]

# Orthonormality drift accepted silently at construction.
ORTHO_ACCEPT_TOL = 1e-12
# Drift up to this bound is repaired by re-orthonormalisation; beyond it
# construction fails.
ORTHO_REPAIR_TOL = 1e-8
# Singular values below RANK_CUTOFF * sigma_max count as zero in null-space
# and feasibility computations.
RANK_CUTOFF = 1e-10
# Feasibility residual above this (scaled) bound marks an empty intersection.
FEAS_TOL = 1e-6


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class InfeasibleProblemError(ValueError):
    """The stated constraints admit no common point."""


class NumericalFailureError(RuntimeError):
    """A non-finite value appeared during iteration."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite value at iteration {iteration}")
        self.iteration = iteration


def as_vector(x) -> np.ndarray:
    """Coerce input to a 1-D float64 array, without copying when possible."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def _finite(x, what: str) -> np.ndarray:
    v = as_vector(x)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{what} must be finite")
    return v


def _check_dim(dim: int, x: np.ndarray) -> None:
    if x.shape[0] != dim:
        raise DimensionMismatchError(
            f"set lives in R^{dim}, vector in R^{x.shape[0]}"
        )


def _common_dim(sets) -> int:
    """The ambient dimension that a sequence of sets shares; ValueError if empty."""
    if not sets:
        raise ValueError("need at least one set")
    if any(s.dim != sets[0].dim for s in sets):
        raise DimensionMismatchError("all sets must share one ambient dimension")
    return sets[0].dim


def _affine_dim(sets) -> int:
    """_common_dim of sets that must be affine: a HalfSpace is a TypeError."""
    if any(isinstance(s, HalfSpace) for s in sets):
        raise TypeError("affine sets required, not a HalfSpace")
    return _common_dim(sets)


def _orthonormal(basis, dim: Optional[int] = None) -> np.ndarray:
    """A (d, r) array basis, d = dim if given, as is, or QR-repaired if its Gram
    drift from I exceeds ORTHO_ACCEPT_TOL; ValueError for any other input, or
    if non-finite or drifting past ORTHO_REPAIR_TOL."""
    array = isinstance(basis, np.ndarray)
    if not (array and basis.ndim == 2 and dim in (None, len(basis))):
        got = f"shape {basis.shape}" if array else type(basis).__name__
        want = "" if dim is None else f" with d = {dim}"
        raise ValueError(f"basis must be a (d, r) array{want}, got {got}")
    basis = basis.astype(float, copy=False)
    if not np.all(np.isfinite(basis)):
        raise ValueError("basis must be finite")
    # An overflowing Gram matrix reads inf or nan, which the check rejects.
    with np.errstate(over="ignore", invalid="ignore"):
        gram = basis.T @ basis - np.eye(basis.shape[1])
        drift = float(np.max(np.abs(gram), initial=0.0))
    if not drift <= ORTHO_REPAIR_TOL:
        raise ValueError(f"basis is not orthonormal (drift {drift:.3e})")
    if drift > ORTHO_ACCEPT_TOL:
        basis, _ = np.linalg.qr(basis)
    return basis


def _row_basis(a: np.ndarray, null: bool = False) -> np.ndarray:
    """Orthonormal (d, r) basis of the row space of a, or with null=True the
    (d, d - r) basis of its complement, the null space (all of R^d when a
    has no rows); singular values above RANK_CUTOFF * sigma_max count in r."""
    _, sing, vt = np.linalg.svd(a, full_matrices=null)
    r = int(np.sum(sing > RANK_CUTOFF * sing.max(initial=0.0)))
    return (vt[r:] if null else vt[:r]).T


def _stacked_constraints(sets: Sequence[AffineSet]) -> tuple[np.ndarray, np.ndarray]:
    """Rows A and values b of a nonempty sequence of sets, stacked."""
    rows, vals = zip(*(s.constraint_rows() for s in sets))
    return np.vstack(rows), np.concatenate(vals)


def _nearest_solution(a: np.ndarray, b: np.ndarray, x0: np.ndarray) -> np.ndarray:
    """x0 - A^+ (A x0 - b), the nearest point to x0 with A x = b (x0 when A
    has no rows); singular values below RANK_CUTOFF * sigma_max count as 0.
    Subtracting from x0 leaves an absolute error of about 1e-16 |x0|.

    Raises InfeasibleProblemError when the residual of A_s^+ b_s exceeds
    FEAS_TOL (1 + |b_s|), where A_s x = b_s is A x = b with each row and
    its value divided by the row's norm: the test reads distances to the
    sets, so a gap on a short row counts in full.  It reads (A, b) alone,
    so rounding that grows with |x0| cannot fail it, and a non-finite
    result, the caller's numerical failure, gets no verdict.  At full row
    rank every b is consistent, so the test is skipped there.
    """
    y, _, rank, _ = np.linalg.lstsq(a, a @ x0 - b, rcond=RANK_CUTOFF)
    p = x0 - y
    if rank < a.shape[0] and np.all(np.isfinite(p)):
        norms = np.linalg.norm(a, axis=1)
        a, b = a / norms[:, None], b / norms
        z, *_ = np.linalg.lstsq(a, b, rcond=RANK_CUTOFF)
        if np.linalg.norm(a @ z - b) > FEAS_TOL * (1.0 + np.linalg.norm(b)):
            raise InfeasibleProblemError("the sets have no common point")
    return p


def _principal(u: np.ndarray, v: np.ndarray):
    """Principal cosines between the column spaces of orthonormal u and v.

    Returns the cosines, the matching unit directions v z_i, and a mask of
    the directions the two spaces share: those whose sine, the length of
    (v - u u^T v) z_i, is at most RANK_CUTOFF.
    """
    s = u.T @ v
    _, cos, zt = np.linalg.svd(s, full_matrices=False)
    sines = np.linalg.norm((v - u @ s) @ zt.T, axis=0)
    return cos, v @ zt.T, sines <= RANK_CUTOFF


@dataclass(frozen=True, eq=False)
class _NormalForm:
    """A set's normal, offset and |normal|^2, checked once (_what names the set), and
    project_with_gap, the one formula both share; one-sided sets keep x at c <= 0."""

    normal: np.ndarray
    offset: float
    _one_sided: ClassVar[bool] = False

    def __post_init__(self):
        normal = as_vector(self.normal)
        offset = float(self.offset)
        # A finite, positive |normal|^2 proves every entry finite: a non-finite entry
        # makes it inf or nan, and an overflow makes it inf (vdot does not warn).
        nsq = float(np.vdot(normal, normal))
        if not (0.0 < nsq < math.inf and math.isfinite(offset)):
            if not (math.isfinite(offset) and np.all(np.isfinite(normal))):
                raise ValueError(f"{self._what} data must be finite")
            raise ValueError(
                f"{self._what} normal must be nonzero, with a finite squared norm"
            )
        object.__setattr__(self, "normal", normal)
        object.__setattr__(self, "offset", offset)
        object.__setattr__(self, "_nsq", nsq)

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def project_with_gap(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """x - c normal and c^2 |normal|^2, c = (<normal, x> - offset) / |normal|^2."""
        if x.shape[0] != self.normal.shape[0]:
            _check_dim(self.dim, x)
        c = (float(self.normal.dot(x)) - self.offset) / self._nsq
        if c <= 0.0 and self._one_sided:  # x is feasible
            return x, 0.0
        return x - c * self.normal, c * c * self._nsq

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.project_with_gap(x)[0]


class Hyperplane(_NormalForm):
    """The set {x : <normal, x> = offset}, normal nonzero."""

    _what = "hyperplane"

    def constraint_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows A and values b with the set equal to {x : A x = b}."""
        return self.normal[None, :], np.array([self.offset])


@dataclass(frozen=True, eq=False)
class Span:
    """Affine span anchor + col(basis), basis orthonormal, possibly empty."""

    anchor: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        anchor = _finite(self.anchor, "span anchor")
        basis = _orthonormal(self.basis, anchor.shape[0])
        object.__setattr__(self, "anchor", anchor)
        object.__setattr__(self, "basis", basis)

    @property
    def dim(self) -> int:
        return self.anchor.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def project(self, x: np.ndarray) -> np.ndarray:
        _check_dim(self.dim, x)
        return self.anchor + self.basis @ (self.basis.T @ (x - self.anchor))

    def project_with_gap(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        p = self.project(x)
        g = x - p
        return p, float(g @ g)

    def constraint_rows(self) -> tuple[np.ndarray, np.ndarray]:
        # The complement of col(basis); all of R^d (exactly I) at rank 0.
        comp = _row_basis(self.basis.T, null=True)
        return comp.T, comp.T @ self.anchor


class HalfSpace(_NormalForm):
    """The set {x : <normal, x> <= offset}, normal nonzero."""

    _what = "half-space"
    _one_sided: ClassVar[bool] = True


# Affine sets admit reflectors and span/constraint forms; half-spaces only
# project.
AffineSet = Union[Hyperplane, Span]
