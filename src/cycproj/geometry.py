"""Affine sets and half-spaces in R^d with exact projectors.

Three set flavours are supported: hyperplanes in normal/offset form,
affine spans given by an anchor point plus an orthonormal basis of the
parallel subspace, and half-spaces (convex but not affine, kept for
quasi-nonexpansive operator experiments).  All projections are closed
form; no iterative solves happen here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "DimensionMismatchError",
    "InfeasibleProblemError",
    "Hyperplane",
    "Span",
    "HalfSpace",
    "AffineSet",
    "as_vector",
]

# Orthonormality drift accepted silently at construction.
ORTHO_ACCEPT_TOL = 1e-12
# Drift up to this bound is repaired by re-orthonormalisation; beyond it
# construction fails.
ORTHO_REPAIR_TOL = 1e-8


class DimensionMismatchError(ValueError):
    """Operands live in different ambient dimensions."""


class InfeasibleProblemError(ValueError):
    """The stated constraints admit no common point."""


def as_vector(x) -> np.ndarray:
    """Coerce input to a 1-D float64 array, without copying when possible."""
    v = np.asarray(x, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return v


def _check_dim(dim: int, x: np.ndarray) -> None:
    if x.shape[0] != dim:
        raise DimensionMismatchError(
            f"set lives in R^{dim}, vector in R^{x.shape[0]}"
        )


def _set_normal_form(s, what: str) -> None:
    """Validate and store a frozen set's normal, offset and |normal|^2."""
    normal = as_vector(s.normal)
    offset = float(s.offset)
    if not np.all(np.isfinite(normal)) or not np.isfinite(offset):
        raise ValueError(f"{what} data must be finite")
    # An overflowing |normal|^2 reads inf, which the check below rejects.
    with np.errstate(over="ignore"):
        nsq = float(normal @ normal)
    if not 0.0 < nsq < np.inf:
        raise ValueError(f"{what} normal must be nonzero, with a finite squared norm")
    object.__setattr__(s, "normal", normal)
    object.__setattr__(s, "offset", offset)
    object.__setattr__(s, "_nsq", nsq)


@dataclass(frozen=True)
class Hyperplane:
    """The set {x : <normal, x> = offset}, normal nonzero."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        _set_normal_form(self, "hyperplane")

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        _check_dim(self.dim, x)
        return x - ((self.normal @ x - self.offset) / self._nsq) * self.normal

    def project_with_gap(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        """Projection plus squared distance moved, sharing one residual pass."""
        _check_dim(self.dim, x)
        c = (self.normal @ x - self.offset) / self._nsq
        return x - c * self.normal, c * c * self._nsq

    def residual(self, x: np.ndarray) -> float:
        """Distance from x to the set."""
        _check_dim(self.dim, x)
        return abs(self.normal @ x - self.offset) / np.sqrt(self._nsq)

    def constraint_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Rows A and values b with the set equal to {x : A x = b}."""
        return self.normal[None, :], np.array([self.offset])


@dataclass(frozen=True)
class Span:
    """Affine span anchor + col(basis), basis orthonormal, possibly empty."""

    anchor: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        anchor = as_vector(self.anchor)
        basis = np.asarray(self.basis, dtype=float)
        if basis.ndim == 1:
            basis = basis[:, None]
        if basis.ndim != 2 or basis.shape[0] != anchor.shape[0]:
            raise ValueError(
                f"basis must be (d, r) with d = {anchor.shape[0]}, "
                f"got shape {basis.shape}"
            )
        if not np.all(np.isfinite(anchor)) or not np.all(np.isfinite(basis)):
            raise ValueError("span data must be finite")
        if basis.shape[1] > 0:
            gram = basis.T @ basis
            drift = float(np.max(np.abs(gram - np.eye(basis.shape[1]))))
            if drift > ORTHO_REPAIR_TOL:
                raise ValueError(
                    f"span basis is not orthonormal (drift {drift:.3e})"
                )
            if drift > ORTHO_ACCEPT_TOL:
                basis, _ = np.linalg.qr(basis)
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
        if self.rank == 0:
            return self.anchor.copy()
        return self.anchor + self.basis @ (self.basis.T @ (x - self.anchor))

    def project_with_gap(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        p = self.project(x)
        g = x - p
        return p, float(g @ g)

    def residual(self, x: np.ndarray) -> float:
        p = self.project(x)
        return float(np.linalg.norm(x - p))

    def constraint_rows(self) -> tuple[np.ndarray, np.ndarray]:
        # Full QR completes the basis; trailing columns span the complement.
        if self.rank == 0:
            comp = np.eye(self.dim)
        else:
            q, _ = np.linalg.qr(self.basis, mode="complete")
            comp = q[:, self.rank:]
        return comp.T, comp.T @ self.anchor


@dataclass(frozen=True)
class HalfSpace:
    """The set {x : <normal, x> <= offset}, normal nonzero."""

    normal: np.ndarray
    offset: float

    def __post_init__(self):
        _set_normal_form(self, "half-space")

    @property
    def dim(self) -> int:
        return self.normal.shape[0]

    def project(self, x: np.ndarray) -> np.ndarray:
        _check_dim(self.dim, x)
        slack = self.normal @ x - self.offset
        if slack <= 0.0:
            return x
        return x - (slack / self._nsq) * self.normal

    def project_with_gap(self, x: np.ndarray) -> tuple[np.ndarray, float]:
        _check_dim(self.dim, x)
        slack = self.normal @ x - self.offset
        if slack <= 0.0:
            return x, 0.0
        c = slack / self._nsq
        return x - c * self.normal, c * c * self._nsq

    def residual(self, x: np.ndarray) -> float:
        _check_dim(self.dim, x)
        return max(0.0, float(self.normal @ x - self.offset)) / np.sqrt(self._nsq)


# Affine sets admit reflectors and span/constraint forms; half-spaces only
# project.
AffineSet = Union[Hyperplane, Span]
