"""Composite fixed-point operators built from projectors.

Cyclic and symmetric projection cascades over affine sets or half-spaces,
and Douglas-Rachford compositions of affine pairs.  Each has what `solve`
drives: `dim`, `symmetric`, `affine` (every set affine, as gk-affine
needs), `apply` and `apply_with_increments`, which adds the squared stage
increments.  The row-by-row reference that keeps every stage is
`stage_trace` in tests/conftest.py.

A `CycleOperator` whose sets are all hyperplanes, at least ROW_BLOCK of
them, runs both routes through a stacked row kernel instead of projecting
set by set: one sweep over the rows a_i . x = b_i is one Gauss-Seidel
step on A A^T (Bjorck & Elfving 1979), computed block by block with
BLAS.  Besides the rows themselves the kernel keeps one
ROW_BLOCK x ROW_BLOCK inverse per block of rows, 8 * n * ROW_BLOCK
bytes for n rows; the backward sweep of the symmetric cycle reads the
same blocks transposed, so one kernel serves both modes.  Its results
agree with the row loop to roundoff, not bitwise.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from typing import ClassVar, Optional

import numpy as np

from .geometry import (
    AffineSet,
    HalfSpace,
    Hyperplane,
    Span,
    _affine_dim,
    _check_dim,
    _common_dim,
    _nearest_solution,
    _principal,
    _row_basis,
    _stacked_constraints,
)

__all__ = [
    "CycleOperator",
    "DouglasRachfordOperator",
    "fixset_dr",
]

# Rows per block of the stacked hyperplane kernel; cycles with fewer
# hyperplanes than this stay on the row loop.
ROW_BLOCK = 64


class _RowKernel:
    """Hyperplanes a_i . x = b_i stacked as rows, swept block by block.

    For a block B of rows, the cyclic projections onto them move x by
    A_B^T z, where z = W (b_B - A_B x) and W inverts the lower triangle T of
    A_B A_B^T; the squared stage increments are z_i^2 |a_i|^2.  Going
    backward through the block takes W^T instead.  W is stored as
    S (S T S)^-1 S with S = diag(1/|a_i|).  S T S, the triangle of the unit
    rows' cosines, has a unit diagonal; inverting it instead of T keeps
    rows whose norms spread over many decades as accurate as the row loop.
    """

    def __init__(self, a: np.ndarray, sets: tuple):
        self.a = a
        self.b = np.array([s.offset for s in sets])
        self.nsq = nsq = np.array([s._nsq for s in sets])
        self.blocks = []
        n = a.shape[0]
        for start in range(0, n, ROW_BLOCK):
            stop = min(start + ROW_BLOCK, n)
            rows = a[start:stop]
            s = 1.0 / np.sqrt(nsq[start:stop])
            u = rows * s[:, None]
            unit = np.tril(u @ u.T)
            np.fill_diagonal(unit, 1.0)
            inv = np.tril(s[:, None] * np.linalg.inv(unit) * s)
            self.blocks.append((start, stop, inv))

    def _block(self, x, start, stop, inv, backward) -> np.ndarray:
        rows = self.a[start:stop]
        r = self.b[start:stop] - rows @ x
        z = inv.T @ r if backward else inv @ r
        x += rows.T @ z
        return z * z * self.nsq[start:stop]

    def sweep(self, x, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
        """One cyclic (or symmetric) application and its stage increments."""
        x = np.array(x, dtype=float)
        _check_dim(self.a.shape[1], x)
        n = self.a.shape[0]
        inc = np.empty(2 * n - 1 if symmetric else n)
        for start, stop, inv in self.blocks:
            inc[start:stop] = self._block(x, start, stop, inv, False)
        if symmetric:
            # Rows n-2 .. 0; row i's increment is stage 2n-2-i of 2n-1.
            # The leading block of a triangle's inverse inverts its leading block.
            for start, stop, inv in reversed(self.blocks):
                if stop == n:
                    stop -= 1
                    inv = inv[:-1, :-1]
                w = self._block(x, start, stop, inv, True)
                inc[2 * n - 1 - stop:2 * n - 1 - start] = w[::-1]
        return x, inc


@dataclass(frozen=True, eq=False)
class CycleOperator:
    """Sequential projections onto affine sets or half-spaces.

    mode "cyclic" applies the projectors once in order; mode "symmetric"
    goes forward through all sets and then back through all but the last,
    which makes the composite self-adjoint in the linear case.  A cycle
    with a half-space is only firmly quasi-nonexpansive, so `affine`, which
    the gk-affine step rule needs, is True only when no set is a HalfSpace.

    When every set is a Hyperplane and there are at least ROW_BLOCK of
    them, `apply` and `apply_with_increments` run the stacked row kernel
    (see the module docstring); every other cycle projects set by set.
    Build large hyperplane cycles with `from_rows`, which shares the row
    matrix instead of stacking a copy of it, and the same sets in the other
    mode with `with_mode`, which shares the sets and the kernel.
    """

    sets: tuple
    mode: str = "cyclic"
    _kernel: InitVar[Optional[_RowKernel]] = None
    affine: bool = field(init=False)

    def __post_init__(self, kernel):
        sets = tuple(self.sets)
        if self.mode not in ("cyclic", "symmetric"):
            raise ValueError(f"unknown mode {self.mode!r}")
        _common_dim(sets)
        if self.symmetric:
            stage_sets = sets + tuple(reversed(sets[:-1]))
        else:
            stage_sets = sets
        if kernel is None and len(sets) >= ROW_BLOCK and all(
            isinstance(s, Hyperplane) for s in sets
        ):
            kernel = _RowKernel(np.stack([s.normal for s in sets]), sets)
        object.__setattr__(self, "sets", sets)
        affine = not any(isinstance(s, HalfSpace) for s in sets)
        object.__setattr__(self, "affine", affine)
        object.__setattr__(self, "_stage_sets", stage_sets)
        object.__setattr__(self, "_kernel", kernel)

    @classmethod
    def from_rows(cls, a, b) -> "CycleOperator":
        """The cycle over the hyperplanes a[i] . x = b[i], i = 0 .. n-1, mode "cyclic".

        Each Hyperplane's normal is a view of a row of `a`, and the row
        kernel works on `a` itself, so a float64 matrix is never copied.
        The symmetric cycle over the same rows is `.with_mode("symmetric")`.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if a.ndim != 2 or b.shape != (a.shape[0],):
            raise ValueError(
                f"rows must be (n, d) with n offsets, got {a.shape} and {b.shape}"
            )
        sets = tuple(Hyperplane(a[i], float(b[i])) for i in range(a.shape[0]))
        return cls(sets, _kernel=_RowKernel(a, sets) if len(sets) >= ROW_BLOCK else None)

    def with_mode(self, mode: str) -> "CycleOperator":
        """The cycle over the same sets in `mode`, sharing the sets tuple
        and the row kernel, which serves both modes."""
        return type(self)(self.sets, mode, self._kernel)

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

    def apply_with_increments(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if self._kernel is not None:
            return self._kernel.sweep(x, self.symmetric)
        inc = np.empty(len(self._stage_sets))
        for i, s in enumerate(self._stage_sets):
            x, inc[i] = s.project_with_gap(x)
        return x, inc


def _dr_half(x: np.ndarray, a: AffineSet, b: AffineSet) -> np.ndarray:
    r = 2.0 * a.project(x) - x
    return 0.5 * (x + (2.0 * b.project(r) - r))


@dataclass(frozen=True, eq=False)
class DouglasRachfordOperator:
    """Symmetric Douglas-Rachford composite of an ordered pair of affine sets.

    One application takes two averaged double reflections, 0.5 (x + R_b R_a x)
    with R_s = 2 P_s - I: the first through `first` and then `second`, the
    second back through `second` and then `first`.  The composite is
    self-adjoint in the linear case; `symmetric` and `affine` are always
    True.  The one-sided half step alone is `dr_half` in tests/conftest.py.
    """

    first: AffineSet
    second: AffineSet
    symmetric: ClassVar[bool] = True
    affine: ClassVar[bool] = True

    def __post_init__(self):
        _affine_dim((self.first, self.second))

    @property
    def dim(self) -> int:
        return self.first.dim

    def apply(self, x: np.ndarray) -> np.ndarray:
        return _dr_half(_dr_half(x, self.first, self.second), self.second, self.first)

    def apply_with_increments(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = _dr_half(x, self.first, self.second)
        z = _dr_half(y, self.second, self.first)
        g, h = x - y, y - z
        return z, np.array([float(g.dot(g)), float(h.dot(h))])


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
    dim = _affine_dim((c1, c2))
    a, b = _stacked_constraints([c1, c2])
    anchor = _nearest_solution(a, b, np.zeros(dim))
    r1, r2 = (_row_basis(c.constraint_rows()[0]) for c in (c1, c2))
    _, directions, shared = _principal(r1, r2)
    return Span(anchor, np.hstack([_row_basis(a, null=True), directions[:, shared]]))
