"""Step-size rules and the relaxed fixed-point iteration driver.

The iteration is x_{k+1} = x_k + t_k (T(x_k) - x_k) for a composite
operator T.  Unit steps give the classical method; the other rules pick
t_k by exact line search toward the solution set, computable from the
current point alone (plus per-stage increments of one application of T).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .geometry import (
    DimensionMismatchError,
    InfeasibleProblemError,
    NumericalFailureError,
    _finite,
    as_vector,
)

__all__ = [
    "StepRule",
    "SolveConfig",
    "IterationTrace",
    "solve",
    "step_gk_affine",
    "step_oracle",
]

# Relative fixed-point threshold: below it the step degenerates to t = 1.
FIX_TOL = 1e-14
# An oracle witness must be fixed by the operator within this relative bound.
ORACLE_WITNESS_TOL = 1e-8

_VARIANTS = ("unit", "gk-affine", "oracle")


@dataclass(frozen=True)
class StepRule:
    """One rule per step formula: StepRule("unit"), StepRule("gk-affine"), or
    StepRule("oracle", m) with finite witness m (m = 0 is the linear GK step)."""

    variant: str
    m: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown step rule {self.variant!r}")
        if self.variant == "oracle":
            if self.m is None:
                raise ValueError("oracle rule needs a witness point m")
            object.__setattr__(self, "m", _finite(self.m, "oracle witness m"))
        elif self.m is not None:
            raise ValueError("only the oracle rule carries a witness point")


@dataclass(frozen=True)
class SolveConfig:
    """Iteration limits, termination rule and trace thinning.

    When `solution` is given, the run stops once ||x_k - solution|| < eps;
    otherwise it stops when the successive change drops below eps.
    store_every=j keeps every j-th per-iteration record and the last one
    (0 keeps none, for the large benchmarks); the final state always stays.
    """

    eps: float = 1e-9
    max_iter: int = 100_000
    solution: Optional[np.ndarray] = None
    store_every: int = 1

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError("eps must be positive")
        if self.max_iter < 0:
            raise ValueError("max_iter must be nonnegative")
        if self.store_every < 0:
            raise ValueError("store_every must be nonnegative")
        if self.solution is not None:
            object.__setattr__(self, "solution", _finite(self.solution, "solution"))


@dataclass(eq=False)
class IterationTrace:
    """Outcome of one solve, with per-update records (possibly thinned).

    stop is why the run ended: "converged", "stalled" or "max-iter".  Row i
    describes completed update ks[i]: the step taken, the iterate it
    produced, the change it caused, and (when the solution is known) the
    distance it achieved.  The rows hold one d-vector each; a solve that
    streams them through on_row leaves them empty.
    """

    start: np.ndarray
    final: np.ndarray
    iterations: int
    stop: str
    ks: list[int] = field(default_factory=list)
    steps: list[float] = field(default_factory=list)
    changes: list[float] = field(default_factory=list)
    iterates: list[np.ndarray] = field(default_factory=list)
    dists: Optional[list[float]] = None
    initial_dist: Optional[float] = None

    @property
    def converged(self) -> bool:
        return self.stop == "converged"

    def keep(self, k: int, t: float, change: float, x: np.ndarray, dist) -> None:
        """Append the row of update k (dist is kept when dists is a list)."""
        self.ks.append(k)
        self.steps.append(t)
        self.changes.append(change)
        self.iterates.append(x)
        if self.dists is not None:
            self.dists.append(dist)


def _is_fixed(gap: float, x: np.ndarray) -> bool:
    """Whether a displacement of length gap leaves x fixed within FIX_TOL."""
    return gap <= FIX_TOL * (1.0 + math.sqrt(x.dot(x)))


def _trace_step(gap_sq: float, inc: np.ndarray) -> float:
    # 1/2 + sum of squared stage increments / (2 |Qx - x|^2).
    return 0.5 + float(inc.sum()) / (2.0 * gap_sq)


def _witness_step(d: np.ndarray, x: np.ndarray, m, gap_sq: float) -> float:
    # <x - Qx, x - m> / |x - Qx|^2 with d = Qx - x.
    return -float(d.dot(x - m)) / gap_sq


def _displacement(x, qx) -> tuple[np.ndarray, np.ndarray, float]:
    x = as_vector(x)
    d = as_vector(qx) - x
    gap_sq = float(d @ d)
    if _is_fixed(math.sqrt(gap_sq), x):
        raise ValueError(
            "point is fixed within tolerance; the caller must take t = 1"
        )
    return x, d, gap_sq


def step_gk_affine(x, qx, inc) -> float:
    """Line-search step from one application Qx of a projection cycle.

    Equals 1/2 plus the sum of the squared stage increments `inc` over
    twice |x - Qx|^2, which minimises the distance to the intersection
    projection along the update direction without knowing any
    intersection point.  A symmetric cycle over n sets is the plain cycle
    over its 2n-1 stages, and a symmetric Douglas-Rachford step has two
    stages, its two averaged double reflections; the formula is the same.
    """
    _, _, gap_sq = _displacement(x, qx)
    return _trace_step(gap_sq, np.asarray(inc, dtype=float))


def step_oracle(x, qx, m) -> float:
    """Line-search step toward a known solution-set point m.

    For affine cycles this matches the trace-based step exactly; for
    general firmly quasi-nonexpansive cycles it is bounded below by it.
    At m = 0 it is the linear Gearhart-Koshy step, toward the origin that
    every linear subspace contains; solve takes it as
    StepRule("oracle", np.zeros(d)).
    """
    x, d, gap_sq = _displacement(x, qx)
    return _witness_step(d, x, as_vector(m), gap_sq)


def _validate_rule(op, rule: StepRule) -> None:
    if rule.variant == "gk-affine":
        if not getattr(op, "affine", False):
            raise ValueError(
                "gk-affine rule drives a CycleOperator of affine sets"
                " or a DouglasRachfordOperator"
            )
    elif rule.variant == "oracle":
        # The one check that the known point solves the cycle; a nan drift fails it.
        # math.hypot scales its arguments, so 2-norms past 1e154 do not overflow.
        m = rule.m
        drift = math.hypot(*(op.apply(m) - m))
        if not drift <= ORACLE_WITNESS_TOL * (1.0 + math.hypot(*m)):
            raise ValueError(
                f"oracle witness is not fixed by the operator (drift {drift:.3e})"
            )


def solve(op, rule: StepRule, x0, cfg: SolveConfig, on_row=None) -> IterationTrace:
    """Run the relaxed iteration of op from a finite x0 under the given step rule.

    On a symmetric composite (cycle or Douglas-Rachford pair) the
    gk-affine rule first advances the start point by one application of
    the composite, per its derivation; reported iterations count updates
    after that.  The run stops at the first of three events, named by
    trace.stop: the criterion is met ("converged"), an update leaves the
    iterate bitwise unchanged ("stalled"), or max_iter updates are done
    ("max-iter").  With store_every > 0 the row of the last update is
    always stored, whether or not store_every divides its index.  A change-based
    "converged" on an affine op raises InfeasibleProblemError if a squared stage
    increment at the final x exceeds eps (1 + |x|).  Increments tend to the gap g
    between the sets (Bauschke & Borwein 1994), and at a consistent stop are about
    eps / sin(a) at most, a the sets' angle.  So g > sqrt(eps (1 + |x|)) is caught,
    and a consistent system is kept while sin(a) > sqrt(eps / (1 + |x|)).

    With on_row given, each stored row goes to on_row(k, t_k, change, x_k)
    in the order the trace would keep it, and the trace's per-row lists
    stay empty, so memory does not grow with the iteration count.
    """
    x0 = _finite(x0, "x0")
    sol = cfg.solution
    for name, v in (("x0", x0), ("solution", sol), ("oracle witness m", rule.m)):
        if v is not None and v.shape[0] != op.dim:
            msg = f"operator lives in R^{op.dim}, {name} in R^{v.shape[0]}"
            raise DimensionMismatchError(msg)
    _validate_rule(op, rule)

    variant = rule.variant
    needs_increments = variant == "gk-affine"
    x = op.apply(x0) if needs_increments and op.symmetric else x0.copy()

    trace = IterationTrace(start=x, final=x, iterations=0, stop="converged")
    if sol is not None:
        trace.dists = []
        trace.initial_dist = math.sqrt((e := x - sol).dot(e))
        if trace.initial_dist < cfg.eps:
            return trace
    # One sink for stored rows: on_row, or the trace's own lists.
    keep = trace.keep if on_row is None else (lambda k, t, c, z, _: on_row(k, t, c, z))

    eps, store_every = cfg.eps, cfg.store_every
    step = op.apply_with_increments if needs_increments else op.apply
    lazy = sol is not None and variant == "unit"  # Qx - x read by stored rows only
    k, done, stalled, dist = 0, False, False, trace.initial_dist
    for k in range(1, cfg.max_iter + 1):
        if needs_increments:
            y, inc = step(x)
        else:
            y = step(x)
        t, x_new = 1.0, y
        if not lazy:
            d = y - x
            gap_sq = float(d.dot(d))
            gap = math.sqrt(gap_sq)
            if variant != "unit" and not _is_fixed(gap, x):
                if needs_increments:
                    t = _trace_step(gap_sq, inc)
                else:
                    t = _witness_step(d, x, rule.m, gap_sq)
                x_new = x + t * d
        if sol is not None:
            # An x_new equal to x has x's distance bitwise, so compare only then.
            prev, e = dist, x_new - sol
            measure = dist = math.sqrt(e.dot(e))  # as np.linalg.norm computes it
            stalled = dist == prev and not (x_new != x).any()
        else:
            measure, stalled = abs(t) * gap, x_new is not y and not (x_new != x).any()
        if not math.isfinite(measure):
            raise NumericalFailureError(k)

        done = measure < eps
        last = done or stalled or k == cfg.max_iter
        if store_every > 0 and (last or k % store_every == 0):
            if lazy:
                gap = math.sqrt(float((d := y - x).dot(d)))
            keep(k, t, abs(t) * gap, x_new, dist)
        x = x_new
        if last:
            break

    if done and sol is None and getattr(op, "affine", False):
        if op.apply_with_increments(x)[1].max() > eps * (1.0 + math.sqrt(x.dot(x))):
            raise InfeasibleProblemError("the sets have no common point")
    trace.stop = "converged" if done else "stalled" if stalled else "max-iter"
    trace.iterations = k
    trace.final = x
    return trace
