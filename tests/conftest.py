"""Shared helpers for building random instances and independent oracles.

Oracles here deliberately avoid the library's own formulas: projections
come from least squares or KKT solves, line-search minimisers from grid
scans with parabolic refinement, and subspace samples from scipy null
spaces.  `stage_trace` is the row-by-row reference for the composites'
fast routes.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space

from cycproj.geometry import DimensionMismatchError, HalfSpace, Hyperplane, Span
from cycproj.operators import DouglasRachfordOperator


def orthonormal_columns(rng, d, r):
    """Random orthonormal (d, r) basis."""
    q, _ = np.linalg.qr(rng.standard_normal((d, max(r, 1))))
    return q[:, :r]


def random_hyperplane_through(rng, p):
    d = p.shape[0]
    a = rng.standard_normal(d)
    while np.linalg.norm(a) < 0.1:
        a = rng.standard_normal(d)
    return Hyperplane(a, float(a @ p))


def random_span_through(rng, p, r):
    d = p.shape[0]
    basis = orthonormal_columns(rng, d, r)
    # anchor somewhere else on the same flat, so anchor != p is exercised
    return Span(p + basis @ rng.standard_normal(r), basis)


def random_affine_instance(rng, d=None, n=None, linear=False, span_fraction=0.5):
    """Sets with a guaranteed common point; returns (sets, point).

    With linear=True the common point is the origin, so every set is a
    linear subspace.
    """
    if d is None:
        d = int(rng.integers(2, 9))
    if n is None:
        n = int(rng.integers(2, 5))
    p = np.zeros(d) if linear else 3.0 * rng.standard_normal(d)
    sets = []
    for _ in range(n):
        if d > 1 and rng.random() < span_fraction:
            r = int(rng.integers(1, d))
            sets.append(random_span_through(rng, p, r))
        else:
            sets.append(random_hyperplane_through(rng, p))
    return sets, p


def sample_point(rng, s, scale=2.0):
    """A point of the set, built without the library's projectors."""
    if isinstance(s, Hyperplane):
        a, b = s.normal, s.offset
        base = (b / (a @ a)) * a
        tangent = null_space(a[None, :])
        return base + tangent @ (scale * rng.standard_normal(tangent.shape[1]))
    if isinstance(s, Span):
        return s.anchor + s.basis @ (scale * rng.standard_normal(s.rank))
    raise TypeError(f"cannot sample from {type(s).__name__}")


def shifted(s, v):
    """The translate {p + v : p in s}, built with the set's constructor."""
    if v.shape[0] != s.dim:
        raise DimensionMismatchError(f"set lives in R^{s.dim}, shift in R^{v.shape[0]}")
    if isinstance(s, Span):
        return Span(s.anchor + v, s.basis)
    return type(s)(s.normal, s.offset + float(s.normal @ v))


def textbook_projection(s, x):
    """x - ((a @ x - b) / (a @ a)) a onto a Hyperplane {a @ x = b}, or onto a
    HalfSpace {a @ x <= b} where its slack a @ x - b is positive (x itself
    otherwise), with the squared distance moved, c^2 (a @ a) for the
    coefficient c; the projectors must match it bit for bit.
    """
    a, b = s.normal, s.offset
    slack = a @ x - b
    if isinstance(s, HalfSpace) and slack <= 0.0:
        return x, 0.0
    c = slack / (a @ a)
    return x - c * a, c * c * (a @ a)


def distance(s, x):
    """|a @ x - b| / |a| from x to a Hyperplane {a @ x = b}, or the positive
    part of a @ x - b over |a| to a HalfSpace {a @ x <= b}; the test-local
    distance formula, apart from the projectors' own arithmetic.
    """
    slack = float(s.normal @ x - s.offset)
    if isinstance(s, HalfSpace):
        slack = max(0.0, slack)
    return abs(slack) / float(np.linalg.norm(s.normal))


def translate_check(x, s, y):
    """Project via the translation identity P_S(x) = P_{S-y}(x-y) + y.

    A distinct arithmetic path from s.project(x), for the projector tests.
    """
    if x.shape[0] != s.dim:
        raise DimensionMismatchError(f"set lives in R^{s.dim}, vector in R^{x.shape[0]}")
    return shifted(s, -y).project(x - y) + y


def total_sq(stage_trace):
    """Squared norm of a composite application's input minus its output."""
    g = stage_trace.stages[0] - stage_trace.stages[-1]
    return float(g @ g)


def dr_half(x, a, b):
    """One averaged double reflection 0.5 (x + R_b R_a x), R_s = 2 P_s - I."""
    r = 2.0 * a.project(x) - x
    return 0.5 * (x + (2.0 * b.project(r) - r))


@dataclass
class StageTrace:
    """Every intermediate point of one composite application.

    stages[0] is the input, stages[-1] the output; stages[i] is the image
    of the input under the first i constituent maps.
    """

    stages: list

    @property
    def last(self):
        return self.stages[-1]

    @property
    def increments_sq(self):
        """Squared norms of consecutive stage differences."""
        return np.array(
            [float((a - b) @ (a - b)) for a, b in zip(self.stages[:-1], self.stages[1:])]
        )


def stage_trace(op, x):
    """The row-by-row reference application of a composite, stage by stage.

    A CycleOperator projects set by set, never through the stacked row
    kernel: forward through its sets and, in mode "symmetric", back
    through all but the last.  A DouglasRachfordOperator takes one
    averaged double reflection per stage.
    """
    if isinstance(op, DouglasRachfordOperator):
        y = dr_half(x, op.first, op.second)
        tail = [dr_half(y, op.second, op.first)] if op.symmetric else []
        return StageTrace([x, y] + tail)
    stages = [x]
    for s in op.sets + (tuple(reversed(op.sets[:-1])) if op.symmetric else ()):
        stages.append(s.project(stages[-1]))
    return StageTrace(stages)


def contraction_factors(trace, eps):
    """Per-update distance ratios d_k / d_{k-1} of a solve with a known solution.

    d_0 is the trace's initial distance; a ratio is None where d_{k-1} is at
    most eps^2.  Needs every row stored (store_every=1).
    """
    prev = [trace.initial_dist] + trace.dists[:-1]
    return [None if p <= eps * eps else d / p for p, d in zip(prev, trace.dists)]


# The GK step's Pythagorean identity, summed from row k to the last row K:
# dist_k^2 = dist_K^2 + sum_{j>k} change_j^2.  gk-affine and accel-sym-cp
# met it to at most 1.35e-9 relative on the rows that gk_identity_misfits
# keeps (golden CLI solves, and row-kernel solves at 2000 x 1000 and
# 600 x 500 in both modes, seeds 0-3); the bound leaves a factor 7.
GK_IDENTITY_TOL = 1e-8


def gk_identity_misfits(dists, changes, x0_norm):
    """|dist_k^2 - (dist_K^2 + sum_{j>k} change_j^2)| / dist_k^2 per kept row.

    Every update of an exact line search toward p = P_M(x0) on an affine
    cycle has |x_k - p|^2 = |x_{k+1} - p|^2 + (t_k |Qx_k - x_k|)^2, and the
    change column is the last term's root.  The cumulative form avoids the
    cancellation of per-row differences near convergence.

    Rows whose dist_k sits at roundoff are dropped by one fixed rule.  A
    computed distance is off by about eps |x0| in absolute terms (at most
    2.2 eps |x0| measured), from rounding the iterates and the target, and
    that moves dist_k^2 by twice dist_k times it.  A row is kept when
    20 eps |x0| dist_k, ten times that shift at one eps |x0|, is below
    GK_IDENTITY_TOL dist_k^2; rounding alone then stays well inside the bound.
    """
    dists = np.asarray(dists, dtype=float)
    sq = np.asarray(changes, dtype=float) ** 2
    tail = np.append(np.cumsum(sq[::-1])[::-1][1:], 0.0)
    keep = GK_IDENTITY_TOL * dists > 20.0 * np.finfo(float).eps * x0_norm
    d2 = dists[keep] ** 2
    return np.abs(d2 - (dists[-1] ** 2 + tail[keep])) / d2


def stacked_rows(sets):
    """Constraint rows A and values b of the sets, built from scratch.

    Hyperplane rows are taken directly, span complements via scipy
    null_space.
    """
    rows, vals = [], []
    for s in sets:
        if isinstance(s, Hyperplane):
            rows.append(s.normal[None, :])
            vals.append(np.array([s.offset]))
        elif isinstance(s, Span):
            if s.rank == 0:
                comp = np.eye(s.dim)
            else:
                comp = null_space(s.basis.T)
            rows.append(comp.T)
            vals.append(comp.T @ s.anchor)
        else:
            raise TypeError(f"cannot stack {type(s).__name__}")
    return np.vstack(rows), np.concatenate(vals)


def lstsq_projection(x, sets):
    """Independent best-approximation oracle via stacked normal equations.

    Stacks the constraints with `stacked_rows` and solves the KKT least
    squares problem with numpy.
    """
    a, b = stacked_rows(sets)
    y, *_ = np.linalg.lstsq(a, a @ x - b, rcond=None)
    return x - y


# The analysis oracles below work with the parallel subspaces themselves,
# as dense d x (d - rows) bases, where the library works with constraint
# row spaces.  Their rank cutoff is the library's RANK_CUTOFF.
NULL_RCOND = 1e-10


def complement_of_unit(unit):
    """Orthonormal basis of the orthogonal complement of a unit vector.

    Columns 1..d-1 of the Householder reflector that carries e_1 onto
    +-unit are orthonormal and orthogonal to unit.
    """
    d = unit.shape[0]
    v = unit.copy()
    v[0] += 1.0 if v[0] >= 0.0 else -1.0
    h = np.eye(d) - (2.0 / (v @ v)) * np.outer(v, v)
    return h[:, 1:]


def parallel_basis(s):
    """Orthonormal basis of a set's parallel subspace (d x (d-1) for a hyperplane)."""
    if isinstance(s, Hyperplane):
        return complement_of_unit(s.normal / np.linalg.norm(s.normal))
    return s.basis


def span_form(h):
    """A Hyperplane as a Span: its nearest point to 0 plus its parallel basis."""
    return Span((h.offset / (h.normal @ h.normal)) * h.normal, parallel_basis(h))


def _orth_columns(b):
    # Deflated bases started from unit columns, so singular values below
    # the cutoff mean content that was subtracted away, not scale.
    if b.shape[1] == 0:
        return b
    left, sing, _ = np.linalg.svd(b, full_matrices=False)
    return left[:, sing > NULL_RCOND]


def stack_friederichs_cosine(u, v):
    """Friederichs cosine from the joint null space of two projectors.

    The intersection is the null space of the stacked 2d x d matrix
    [I - U U^T; I - V V^T]; it is removed from both bases, and the
    cosine is the spectral norm of the remaining cross product.
    """
    d = u.shape[0]
    if u.shape[1] == 0 or v.shape[1] == 0:
        return 0.0
    stack = np.vstack([np.eye(d) - u @ u.T, np.eye(d) - v @ v.T])
    w = null_space(stack, rcond=NULL_RCOND)
    if w.shape[1] > 0:
        u = u - w @ (w.T @ u)
        v = v - w @ (w.T @ v)
    u = _orth_columns(u)
    v = _orth_columns(v)
    if u.shape[1] == 0 or v.shape[1] == 0:
        return 0.0
    return min(max(float(np.linalg.norm(u.T @ v, ord=2)), 0.0), 1.0)


def stack_rate_cosines(sets):
    """Cosines between each parallel subspace and the later sets' intersection."""
    cosines = []
    for i in range(len(sets) - 1):
        tail = null_space(stacked_rows(sets[i + 1:])[0], rcond=NULL_RCOND)
        cosines.append(stack_friederichs_cosine(parallel_basis(sets[i]), tail))
    return cosines


def stack_fixset_basis(c1, c2):
    """Direction basis of the Douglas-Rachford fixed set of an affine pair.

    null(A) for the stacked rows, plus the null space of the two parallel
    bases side by side (the vectors orthogonal to both parallel subspaces).
    """
    direction = null_space(stacked_rows([c1, c2])[0], rcond=NULL_RCOND)
    spans = np.hstack([parallel_basis(c1), parallel_basis(c2)])
    return np.hstack([direction, null_space(spans.T, rcond=NULL_RCOND)])


def scan_line_min(x, direction, target, lo=-2.0, hi=3.0, step=1e-2):
    """Grid argmin of ||x + t*direction - target|| with parabolic refinement.

    The objective is an exact quadratic in t, so a three-point parabola
    through the best grid node recovers the true minimiser to roundoff.
    The window doubles while the minimiser sits on its edge.
    """
    for _ in range(60):
        ts = np.arange(lo, hi + 0.5 * step, step)
        pts = x[None, :] + ts[:, None] * direction[None, :] - target[None, :]
        vals = np.einsum("ij,ij->i", pts, pts)
        i = int(np.argmin(vals))
        if i == 0:
            lo -= hi - lo
            continue
        if i == len(ts) - 1:
            hi += hi - lo
            continue
        denom = vals[i - 1] - 2.0 * vals[i] + vals[i + 1]
        if denom <= 0.0:
            return float(ts[i])
        return float(ts[i] + 0.5 * step * (vals[i - 1] - vals[i + 1]) / denom)
    raise RuntimeError("line scan failed to bracket the minimiser")


def strictly_feasible_halfspaces(rng, d, n, margin_lo=0.1, margin_hi=1.0):
    """Half-spaces sharing a strictly interior point; returns (sets, point)."""
    m = 2.0 * rng.standard_normal(d)
    sets = []
    for _ in range(n):
        a = rng.standard_normal(d)
        while np.linalg.norm(a) < 0.1:
            a = rng.standard_normal(d)
        gamma = float(rng.uniform(margin_lo, margin_hi))
        sets.append(HalfSpace(a, float(a @ m) + gamma))
    return sets, m


def violating_point(rng, halfspaces, scale=4.0):
    """A random point pushed outside the first half-space."""
    d = halfspaces[0].dim
    x = scale * rng.standard_normal(d)
    h = halfspaces[0]
    slack = h.normal @ x - h.offset
    if slack <= 0.0:
        x = x + ((1.0 - slack) / (h.normal @ h.normal)) * h.normal
    assert h.normal @ x - h.offset > 0.0
    return x
