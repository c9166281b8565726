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

from .geometry import HalfSpace, as_vector
from .operators import CycleOperator, DouglasRachfordOperator

__all__ = [
    "NumericalFailureError",
    "StepRule",
    "SolveConfig",
    "IterationTrace",
    "solve",
    "step_gk_affine",
    "step_oracle",
]

# Relative fixed-point threshold: below it the step degenerates to t = 1.
FIX_TOL = 1e-14
# A set counts as containing the origin (linear) within this residual.
LINEAR_ORIGIN_TOL = 1e-10
# An oracle witness must be fixed by the operator within this relative bound.
ORACLE_WITNESS_TOL = 1e-8

_VARIANTS = ("unit", "gk-linear", "gk-affine", "oracle")


class NumericalFailureError(RuntimeError):
    """A non-finite value appeared during iteration."""

    def __init__(self, iteration: int):
        super().__init__(f"non-finite value at iteration {iteration}")
        self.iteration = iteration


@dataclass(frozen=True)
class StepRule:
    """Choice of relaxation parameter t_k, with an optional witness point."""

    variant: str
    m: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.variant not in _VARIANTS:
            raise ValueError(f"unknown step rule {self.variant!r}")
        if self.variant == "oracle":
            if self.m is None:
                raise ValueError("oracle rule needs a witness point m")
            object.__setattr__(self, "m", as_vector(self.m))
        elif self.m is not None:
            raise ValueError("only the oracle rule carries a witness point")

    @classmethod
    def unit(cls) -> "StepRule":
        return cls("unit")

    @classmethod
    def gk_linear(cls) -> "StepRule":
        return cls("gk-linear")

    @classmethod
    def gk_affine(cls) -> "StepRule":
        return cls("gk-affine")

    @classmethod
    def oracle(cls, m) -> "StepRule":
        return cls("oracle", m)


@dataclass
class SolveConfig:
    """Iteration limits, termination rule and trace thinning.

    When `solution` is given, the run stops once ||x_k - solution|| < eps;
    otherwise it stops when the successive change drops below eps.
    store_every=j keeps every j-th per-iteration record (0 keeps none,
    which the large benchmarks use); the final state is always available.
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
            self.solution = as_vector(self.solution)


@dataclass
class IterationTrace:
    """Outcome of one solve, with per-update records (possibly thinned).

    Row i describes completed update ks[i]: the step taken, the iterate it
    produced, the change it caused, and (when the solution is known) the
    distance it achieved.  The rows hold one d-vector each; a solve that
    streams them through on_row leaves them empty.
    """

    start: np.ndarray
    final: np.ndarray
    iterations: int
    converged: bool
    ks: list[int] = field(default_factory=list)
    steps: list[float] = field(default_factory=list)
    changes: list[float] = field(default_factory=list)
    iterates: list[np.ndarray] = field(default_factory=list)
    dists: Optional[list[float]] = None
    initial_dist: Optional[float] = None


def _is_fixed(gap: float, x: np.ndarray) -> bool:
    """Whether a displacement of length gap leaves x fixed within FIX_TOL."""
    return gap <= FIX_TOL * (1.0 + float(np.linalg.norm(x)))


def _trace_step(gap_sq: float, inc: np.ndarray) -> float:
    # 1/2 + sum of squared stage increments / (2 |Qx - x|^2).
    return 0.5 + float(inc.sum()) / (2.0 * gap_sq)


def _witness_step(d: np.ndarray, x: np.ndarray, m, gap_sq: float) -> float:
    # <x - Qx, x - m> / |x - Qx|^2 with d = Qx - x.
    return -float(d @ (x - m)) / gap_sq


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
    At m = 0 it is the step toward the origin that cycles of linear
    subspaces take.
    """
    x, d, gap_sq = _displacement(x, qx)
    return _witness_step(d, x, as_vector(m), gap_sq)


def _validate_rule(op, rule: StepRule) -> None:
    v = rule.variant
    affine_cycle = isinstance(op, CycleOperator) and not any(
        isinstance(s, HalfSpace) for s in op.sets
    )
    if v == "gk-affine":
        symmetric_dr = isinstance(op, DouglasRachfordOperator) and op.symmetric
        if not (affine_cycle or symmetric_dr):
            raise ValueError(
                "gk-affine rule drives a CycleOperator of affine sets"
                " or a symmetric DouglasRachfordOperator"
            )
    elif v == "gk-linear":
        if not (affine_cycle and not op.symmetric):
            raise ValueError(
                "gk-linear rule drives a cyclic CycleOperator of affine sets"
            )
        origin = np.zeros(op.dim)
        if any(s.residual(origin) > LINEAR_ORIGIN_TOL for s in op.sets):
            raise ValueError("gk-linear rule needs every set through the origin")
    elif v == "oracle":
        m = rule.m
        drift = float(np.linalg.norm(op.apply(m) - m))
        if drift > ORACLE_WITNESS_TOL * (1.0 + float(np.linalg.norm(m))):
            raise ValueError(
                f"oracle witness is not fixed by the operator (drift {drift:.3e})"
            )


def solve(op, rule: StepRule, x0, cfg: SolveConfig, on_row=None) -> IterationTrace:
    """Run the relaxed iteration of op from x0 under the given step rule.

    On a symmetric composite (cycle or Douglas-Rachford pair) the
    gk-affine rule first advances the start point by one application of
    the composite, per its derivation; reported iterations count updates
    after that.  Stops on the configured criterion, on reaching an exact
    fixed point, or at max_iter (flagged non-converged).

    With on_row given, each stored row goes to on_row(k, t_k, change, x_k)
    in the order the trace would keep it, and the trace's per-row lists
    stay empty, so memory does not grow with the iteration count.
    """
    x0 = as_vector(x0)
    sol = cfg.solution
    for name, v in (("x0", x0), ("solution", sol)):
        if v is not None and v.shape[0] != op.dim:
            raise ValueError(f"operator lives in R^{op.dim}, {name} in R^{v.shape[0]}")
    _validate_rule(op, rule)

    variant = rule.variant
    needs_increments = variant == "gk-affine"
    # gk-linear is the witness step toward the origin; x - 0.0 is x bitwise.
    m = rule.m if variant == "oracle" else 0.0
    x = op.apply(x0) if needs_increments and op.symmetric else x0.copy()

    trace = IterationTrace(start=x, final=x, iterations=0, converged=False)
    if sol is not None:
        trace.dists = []
        trace.initial_dist = float(np.linalg.norm(x - sol))
        if trace.initial_dist < cfg.eps:
            trace.converged = True
            return trace

    last_row = None
    k = 0
    while k < cfg.max_iter:
        if needs_increments:
            y, inc = op.apply_with_increments(x)
        else:
            y = op.apply(x)

        change = None
        if variant == "unit":
            t = 1.0
            x_new = y
        else:
            d = y - x
            gap_sq = float(d @ d)
            gap = math.sqrt(gap_sq)
            if _is_fixed(gap, x):
                t = 1.0
                x_new = y
            else:
                if needs_increments:
                    t = _trace_step(gap_sq, inc)
                else:
                    t = _witness_step(d, x, m, gap_sq)
                x_new = x + t * d
            change = abs(t) * gap
            if not math.isfinite(t):
                raise NumericalFailureError(k + 1)
        k += 1

        dist = None
        if sol is not None:
            dist = float(np.linalg.norm(x_new - sol))
            if not math.isfinite(dist):
                raise NumericalFailureError(k)

        if change is None and (sol is None or cfg.store_every > 0):
            g = x_new - x
            change = math.sqrt(float(g @ g))
        if sol is None:
            if not math.isfinite(change):
                raise NumericalFailureError(k)
            done = change < cfg.eps
        else:
            done = dist < cfg.eps

        if cfg.store_every > 0:
            last_row = (k, float(t), float(change), x_new, dist)
            if k % cfg.store_every == 0:
                _record(trace, on_row, last_row)
                last_row = None

        stalled = not done and np.array_equal(x_new, x)
        x = x_new
        if done or stalled:
            trace.converged = done
            break
    else:
        # max_iter exhausted without meeting the criterion
        trace.converged = False

    if last_row is not None:
        _record(trace, on_row, last_row)
    trace.iterations = k
    trace.final = x
    return trace


def _record(trace: IterationTrace, on_row, row) -> None:
    k, t, change, x_new, dist = row
    if on_row is not None:
        on_row(k, t, change, x_new)
        return
    trace.ks.append(k)
    trace.steps.append(t)
    trace.changes.append(change)
    trace.iterates.append(x_new)
    if trace.dists is not None:
        trace.dists.append(dist)
