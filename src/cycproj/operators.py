"""Composite fixed-point operators built from projectors.

Cyclic and symmetric projection cascades over affine sets or half-spaces,
and Douglas-Rachford compositions of affine pairs.  Every operator
exposes three evaluation routes: plain apply, apply with a full
per-stage trace, and apply with accumulated squared stage increments
(the cheap form the accelerated solvers consume).

`apply_with_trace` always projects set by set; that row loop is the
reference path.  A `CycleOperator` whose sets are all hyperplanes, at
least ROW_BLOCK of them, runs `apply` and `apply_with_increments` through
a stacked row kernel instead: one sweep over the rows a_i . x = b_i is
one Gauss-Seidel step on A A^T (Bjorck & Elfving 1979), computed block by
block with BLAS.  Besides the rows themselves the kernel keeps one
ROW_BLOCK x ROW_BLOCK Gram block per block of rows, 8 * n * ROW_BLOCK
bytes for n rows; the backward sweep of the symmetric cycle reads the
same blocks transposed.  Its results agree with the row loop to
roundoff, not bitwise.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import null_space
from scipy.linalg.blas import dtrsv

from .geometry import (
    AffineSet,
    HalfSpace,
    Hyperplane,
    InfeasibleProblemError,
    Span,
    _check_dim,
)

__all__ = [
    "StageTrace",
    "CycleOperator",
    "DouglasRachfordOperator",
    "fixset_dr",
]

# Singular values below RANK_CUTOFF * sigma_max count as zero in null-space
# and feasibility computations.
RANK_CUTOFF = 1e-10
# Feasibility residual above this (scaled) bound marks an empty intersection.
FEAS_TOL = 1e-6
# Rows per block of the stacked hyperplane kernel; cycles with fewer
# hyperplanes than this stay on the row loop.
ROW_BLOCK = 64


@dataclass
class StageTrace:
    """Intermediate points of one composite application.

    stages[0] is the input, stages[-1] the final output; stages[i] is the
    image of the input under the first i constituent maps.
    """

    stages: list[np.ndarray]

    @property
    def last(self) -> np.ndarray:
        return self.stages[-1]

    @property
    def increments_sq(self) -> np.ndarray:
        """Squared norms of consecutive stage differences."""
        return np.array(
            [
                float((a - b) @ (a - b))
                for a, b in zip(self.stages[:-1], self.stages[1:])
            ]
        )


class _RowKernel:
    """Hyperplanes a_i . x = b_i stacked as rows, swept block by block.

    For a block B of rows, the cyclic projections onto them move x by
    A_B^T z, where (D + L) z = b_B - A_B x and D + L is the lower
    triangle of A_B A_B^T; the squared stage increments are z_i^2 |a_i|^2.
    Going backward through the block solves with the upper triangle
    (L^T + D) instead.  The diagonal holds the rows' own |a_i|^2, so each
    division matches the row projection's.
    """

    def __init__(self, a: np.ndarray, b: np.ndarray, nsq: np.ndarray):
        self.a = a
        self.b = b
        self.nsq = nsq
        self.blocks = []
        n = a.shape[0]
        for start in range(0, n, ROW_BLOCK):
            stop = min(start + ROW_BLOCK, n)
            rows = a[start:stop]
            # Only the lower triangle is read, in Fortran order as BLAS wants.
            tri = np.asfortranarray(rows @ rows.T)
            np.fill_diagonal(tri, nsq[start:stop])
            self.blocks.append((start, stop, tri))

    def _block(self, x, start, stop, tri, backward) -> np.ndarray:
        rows = self.a[start:stop]
        z = dtrsv(tri, self.b[start:stop] - rows @ x, lower=1, trans=int(backward))
        x += rows.T @ z
        return z * z * self.nsq[start:stop]

    def sweep(self, x, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
        """One cyclic (or symmetric) application and its stage increments."""
        x = np.array(x, dtype=float)
        _check_dim(self.a.shape[1], x)
        n = self.a.shape[0]
        inc = np.empty(2 * n - 1 if symmetric else n)
        for start, stop, tri in self.blocks:
            inc[start:stop] = self._block(x, start, stop, tri, False)
        if symmetric:
            # Rows n-2 .. 0; row i's increment is stage 2n-2-i of 2n-1.
            for start, stop, tri in reversed(self.blocks):
                if stop == n:
                    stop -= 1
                    tri = tri[:-1, :-1]
                if start < stop:
                    w = self._block(x, start, stop, tri, True)
                    inc[2 * n - 1 - stop:2 * n - 1 - start] = w[::-1]
        return x, inc


@dataclass(frozen=True)
class CycleOperator:
    """Sequential projections onto affine sets or half-spaces.

    mode "cyclic" applies the projectors once in order; mode "symmetric"
    goes forward through all sets and then back through all but the last,
    which makes the composite self-adjoint in the linear case.  A cycle
    with a half-space is only firmly quasi-nonexpansive; the line-search
    step rules other than `oracle` need every set to be affine.

    When every set is a Hyperplane and there are at least ROW_BLOCK of
    them, `apply` and `apply_with_increments` run the stacked row kernel
    (see the module docstring); `apply_with_trace` and every other cycle
    project set by set.  Build large hyperplane cycles with `from_rows`,
    which shares the row matrix instead of stacking a copy of it.
    """

    sets: tuple
    mode: str = "cyclic"
    _rows: InitVar[Optional[np.ndarray]] = None

    def __post_init__(self, _rows):
        sets = tuple(self.sets)
        if not sets:
            raise ValueError("cycle needs at least one set")
        if self.mode not in ("cyclic", "symmetric"):
            raise ValueError(f"unknown mode {self.mode!r}")
        dim = sets[0].dim
        for s in sets:
            if s.dim != dim:
                raise ValueError("all sets must share one ambient dimension")
        if self.symmetric:
            stage_sets = sets + tuple(reversed(sets[:-1]))
        else:
            stage_sets = sets
        kernel = None
        if len(sets) >= ROW_BLOCK and all(isinstance(s, Hyperplane) for s in sets):
            a = np.stack([s.normal for s in sets]) if _rows is None else _rows
            b = np.array([s.offset for s in sets])
            nsq = np.array([s._nsq for s in sets])
            kernel = _RowKernel(a, b, nsq)
        object.__setattr__(self, "sets", sets)
        object.__setattr__(self, "_stage_sets", stage_sets)
        object.__setattr__(self, "_kernel", kernel)

    @classmethod
    def from_rows(cls, a, b, mode: str = "cyclic") -> "CycleOperator":
        """The cycle over the hyperplanes a[i] . x = b[i], i = 0 .. n-1.

        Each Hyperplane's normal is a view of a row of `a`, and the row
        kernel works on `a` itself, so a float64 matrix is never copied.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 2 or b.shape != (a.shape[0],):
            raise ValueError(
                f"rows must be (n, d) with n offsets, got {a.shape} and {b.shape}"
            )
        sets = tuple(Hyperplane(a[i], float(b[i])) for i in range(a.shape[0]))
        return cls(sets, mode, a)

    @property
    def dim(self) -> int:
        return self.sets[0].dim

    @property
    def symmetric(self) -> bool:
        """Whether the cycle runs forward and then back (mode "symmetric")."""
        return self.mode == "symmetric"

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self._kernel is not None:
            return self._kernel.sweep(x, self.symmetric)[0]
        for s in self._stage_sets:
            x = s.project(x)
        return x

    def apply_with_trace(self, x: np.ndarray) -> StageTrace:
        stages = [x]
        for s in self._stage_sets:
            x = s.project(x)
            stages.append(x)
        return StageTrace(stages)

    def apply_with_increments(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._kernel is not None:
            return self._kernel.sweep(x, self.symmetric)
        inc = np.empty(len(self._stage_sets))
        for i, s in enumerate(self._stage_sets):
            x, inc[i] = s.project_with_gap(x)
        return x, inc


def _dr_half(x: np.ndarray, a: AffineSet, b: AffineSet) -> np.ndarray:
    # Averaged double reflection: 0.5 (x + R_b R_a x), R_s = 2 P_s - I.
    r = 2.0 * a.project(x) - x
    return 0.5 * (x + (2.0 * b.project(r) - r))


@dataclass(frozen=True)
class DouglasRachfordOperator:
    """Averaged double reflection through an ordered pair of affine sets.

    The plain operator reflects through `first`, then `second`, then
    averages with the input.  With symmetric=True the reversed-order
    operator is applied on top, giving a self-adjoint composite in the
    linear case.
    """

    first: AffineSet
    second: AffineSet
    symmetric: bool = False

    def __post_init__(self):
        if isinstance(self.first, HalfSpace) or isinstance(self.second, HalfSpace):
            raise TypeError("Douglas-Rachford reflections require affine sets")
        if self.first.dim != self.second.dim:
            raise ValueError("both sets must share one ambient dimension")

    @property
    def dim(self) -> int:
        return self.first.dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        y = _dr_half(x, self.first, self.second)
        if self.symmetric:
            y = _dr_half(y, self.second, self.first)
        return y

    def apply_with_trace(self, x: np.ndarray) -> StageTrace:
        y = _dr_half(x, self.first, self.second)
        if not self.symmetric:
            return StageTrace([x, y])
        return StageTrace([x, y, _dr_half(y, self.second, self.first)])

    def apply_with_increments(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        trace = self.apply_with_trace(x)
        return trace.last, trace.increments_sq


def _stacked_constraints(sets: Sequence[AffineSet]) -> tuple[np.ndarray, np.ndarray]:
    """Rows A and values b of a nonempty sequence of sets, stacked."""
    rows, vals = zip(*(s.constraint_rows() for s in sets))
    return np.vstack(rows), np.concatenate(vals)


def _nullspace(a: np.ndarray) -> np.ndarray:
    if a.shape[0] == 0:
        return np.eye(a.shape[1])
    return null_space(a, rcond=RANK_CUTOFF)


def _row_basis(a: np.ndarray) -> np.ndarray:
    """Orthonormal (d, r) basis of the row space of a, the complement of
    _nullspace(a): singular values above RANK_CUTOFF * sigma_max count."""
    _, sing, vt = np.linalg.svd(a, full_matrices=False)
    return vt[:int(np.sum(sing > RANK_CUTOFF * sing.max(initial=0.0)))].T


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


def fixset_dr(c1: AffineSet, c2: AffineSet) -> Span:
    """Fixed set of the Douglas-Rachford composite for an affine pair.

    The fixed points form the affine set (C1 n C2) + (R1 n R2), where R1
    and R2 are the constraint row spaces, the orthogonal complements of
    the parallel subspaces.  R1 n R2 comes from the principal angles
    between the two row spaces, so a hyperplane pair costs O(d) there.
    The direction of C1 n C2 is null(A) for the stacked rows A, which the
    returned Span stores as a dense d x (d - rank A) basis.  Raises
    InfeasibleProblemError when the pair has empty intersection.
    """
    if isinstance(c1, HalfSpace) or isinstance(c2, HalfSpace):
        raise TypeError("fixed-set computation requires affine sets")
    if c1.dim != c2.dim:
        raise ValueError("both sets must share one ambient dimension")
    a, b = _stacked_constraints([c1, c2])
    if a.shape[0] == 0:
        anchor = np.zeros(c1.dim)
    else:
        y, *_ = np.linalg.lstsq(a, b, rcond=RANK_CUTOFF)
        if np.linalg.norm(a @ y - b) > FEAS_TOL * (1.0 + np.linalg.norm(b)):
            raise InfeasibleProblemError(
                "the two sets have no common point; the fixed set is empty"
            )
        anchor = y
    r1, r2 = (_row_basis(c.constraint_rows()[0]) for c in (c1, c2))
    _, directions, shared = _principal(r1, r2)
    return Span(anchor, np.hstack([_nullspace(a), directions[:, shared]]))
