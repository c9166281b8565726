"""Step-size rules and the relaxed iteration driver."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycproj.acceleration import (
    NumericalFailureError,
    IterationTrace,
    SolveConfig,
    StepRule,
    solve,
    step_gk_affine,
    step_oracle,
)
from cycproj.analysis import exact_projection
from cycproj.geometry import HalfSpace, Hyperplane
from cycproj.operators import (
    ROW_BLOCK,
    CycleOperator,
    DouglasRachfordOperator,
    fixset_dr,
)

from conftest import (
    contraction_factors,
    lstsq_projection,
    random_affine_instance,
    sample_point,
    scan_line_min,
    strictly_feasible_halfspaces,
    total_sq,
    violating_point,
)

XAXIS = Hyperplane(np.array([0.0, 1.0]), 0.0)
DIAGONAL = Hyperplane(np.array([1.0, -1.0]), 0.0)


def test_step_rule_constructors_and_validation():
    for name in ("unit", "gk-linear", "gk-affine"):
        assert StepRule(name).variant == name
        with pytest.raises(ValueError):
            StepRule(name, m=np.zeros(2))
    # gk-affine drives the symmetric composites too; they have no rule names
    for name in ("symmetric", "symmetric-dr"):
        with pytest.raises(ValueError):
            StepRule(name)
    r = StepRule.oracle(np.array([1.0, 2.0]))
    assert r.variant == "oracle"
    assert np.array_equal(r.m, [1.0, 2.0])
    with pytest.raises(ValueError):
        StepRule("oracle")
    with pytest.raises(ValueError):
        StepRule("newton")


def test_solve_config_validation():
    SolveConfig(eps=1e-6, max_iter=10, store_every=0)
    with pytest.raises(ValueError):
        SolveConfig(eps=0.0)
    with pytest.raises(ValueError):
        SolveConfig(max_iter=-1)
    with pytest.raises(ValueError):
        SolveConfig(store_every=-1)
    with pytest.raises(TypeError):
        SolveConfig(fix_tol=1e-3)  # the fixed-point tolerance is not a setting


def test_frozen_linear_step_example():
    # two lines through the origin: the x-axis and the diagonal y = x
    x = np.array([1.0, 2.0])
    qx = DIAGONAL.project(XAXIS.project(x))
    assert np.array_equal(qx, [0.5, 0.5])
    t = step_oracle(x, qx, np.zeros(2))
    assert t == 3.5 / 2.5
    # the traced step of the same cycle agrees
    tr = CycleOperator((XAXIS, DIAGONAL)).apply_with_trace(x)
    assert step_gk_affine(x, qx, tr.increments_sq) == t
    # and from a literal dense scan of ||x + s(qx - x)|| at 1e-6 resolution
    ss = np.arange(0.0, 2.0, 1e-6)
    pts = x[None, :] + ss[:, None] * (qx - x)[None, :]
    best = ss[np.argmin(np.einsum("ij,ij->i", pts, pts))]
    assert abs(best - t) <= 5e-7


def test_frozen_affine_step_example():
    op = CycleOperator((XAXIS, DIAGONAL))
    x = np.array([2.0, 1.0])
    tr = op.apply_with_trace(x)
    assert np.array_equal(tr.last, [1.0, 1.0])
    assert step_gk_affine(x, tr.last, tr.increments_sq) == 2.0
    assert step_oracle(x, tr.last, np.zeros(2)) == 2.0


def test_affine_step_equals_oracle_step():
    rng = np.random.default_rng(50)
    for _ in range(20):
        sets, _ = random_affine_instance(rng)
        op = CycleOperator(tuple(sets))
        x = 4.0 * rng.standard_normal(op.dim)
        tr = op.apply_with_trace(x)
        if total_sq(tr) < 1e-20:
            continue
        m = lstsq_projection(x, sets)
        t_trace = step_gk_affine(x, tr.last, tr.increments_sq)
        t_known = step_oracle(x, tr.last, m)
        assert abs(t_trace - t_known) <= 1e-10 * max(1.0, abs(t_known))


def test_step_is_exact_line_search():
    rng = np.random.default_rng(51)
    for _ in range(10):
        sets, _ = random_affine_instance(rng)
        op = CycleOperator(tuple(sets))
        x = 4.0 * rng.standard_normal(op.dim)
        tr = op.apply_with_trace(x)
        target = lstsq_projection(x, sets)
        t = step_gk_affine(x, tr.last, tr.increments_sq)
        assert abs(t - scan_line_min(x, tr.last - x, target)) <= 1e-8 * max(
            1.0, abs(t)
        )
        # optimality against a plain parameter grid
        best = np.linalg.norm(x + t * (tr.last - x) - target)
        for s in np.linspace(-1.0, 3.0, 81):
            here = np.linalg.norm(x + s * (tr.last - x) - target)
            assert best <= here + 1e-12 * max(1.0, here)


def test_solve_steps_match_traced_step_on_row_kernel():
    # solve takes its step from the row kernel's increments; the reference
    # is step_gk_affine on the row loop's trace at the same iterate.  Near
    # convergence both are ratios of roundoff-level differences, so the
    # error is weighed by the gap |x_k - Q x_k|.
    rng = np.random.default_rng(59)
    n, d = 2 * ROW_BLOCK + 5, 3 * ROW_BLOCK
    a = rng.standard_normal((n, d))
    b = a @ rng.standard_normal(d)
    x0 = 5.0 * rng.standard_normal(d)
    for mode, rule in (("cyclic", StepRule.gk_affine()), ("symmetric", StepRule.gk_affine())):
        op = CycleOperator.from_rows(a, b, mode)
        tr = solve(op, rule, x0, SolveConfig(eps=1e-10, max_iter=1000))
        assert tr.converged
        assert tr.ks == list(range(1, tr.iterations + 1))
        for x, t in zip([tr.start] + tr.iterates[:-1], tr.steps):
            ref = op.apply_with_trace(x)
            t_ref = step_gk_affine(x, ref.last, ref.increments_sq)
            err = abs(t - t_ref) * math.sqrt(total_sq(ref))
            assert err <= 1e-12 * np.linalg.norm(x)


def _steps_taken(trace):
    """(iterate, step) pairs of a solve run stored with store_every=1."""
    return list(zip([trace.start] + trace.iterates[:-1], trace.steps))


def test_solve_steps_are_the_step_functions_bitwise():
    # solve evaluates exactly the arithmetic of step_gk_affine and
    # step_oracle, on the same apply_with_increments / apply results; at a
    # fixed point both functions refuse and solve takes t = 1.
    rng = np.random.default_rng(60)
    sets, _ = random_affine_instance(rng, d=6, n=3)
    pair, _ = random_affine_instance(rng, d=5, n=2)
    linear, _ = random_affine_instance(rng, d=5, n=3, linear=True)
    x0 = 4.0 * rng.standard_normal(6)
    m = exact_projection(x0, sets)
    dr = DouglasRachfordOperator(pair[0], pair[1], symmetric=True)
    runs = [
        (CycleOperator(tuple(sets)), StepRule.gk_affine(), None),
        (CycleOperator(tuple(sets), mode="symmetric"), StepRule.gk_affine(), None),
        (dr, StepRule.gk_affine(), None),
        (CycleOperator(tuple(sets)), StepRule.oracle(m), m),
        (CycleOperator(tuple(linear)), StepRule.gk_linear(), np.zeros(5)),
    ]
    for op, rule, witness in runs:
        start = x0 if op.dim == 6 else 4.0 * rng.standard_normal(op.dim)
        tr = solve(op, rule, start, SolveConfig(eps=1e-10, max_iter=500))
        assert tr.converged and tr.steps
        for x, t in _steps_taken(tr):
            try:
                if witness is None:
                    want = step_gk_affine(x, *op.apply_with_increments(x))
                else:
                    want = step_oracle(x, op.apply(x), witness)
            except ValueError:
                want = 1.0
            assert t == want


class _RowLoop:
    """Test-local reference composite: one projection per hyperplane, in order."""

    def __init__(self, sets):
        self.sets = tuple(sets)
        self.dim = self.sets[0].dim

    def apply(self, x):
        for s in self.sets:
            x = s.project(x)
        return x


def test_row_kernel_iteration_counts_match_row_loop():
    # Criterion 09's instance: hyperplane_bench(m=500, n=250, seed=0), 10 starts.
    m, n, seed = 500, 250, 0
    inst_rng = np.random.default_rng([seed, m, n])
    a = inst_rng.standard_normal((n, m))
    b = a @ inst_rng.standard_normal(m)
    cfg = SolveConfig(eps=1e-6, max_iter=100_000, store_every=0)
    for mode in ("cyclic", "symmetric"):
        kernel = CycleOperator.from_rows(a, b, mode)
        loop = _RowLoop(kernel._stage_sets)
        for r in range(10):
            v = np.random.default_rng([seed, m, n, r]).standard_normal(m)
            x0 = (10.0 / np.linalg.norm(v)) * v
            fast = solve(kernel, StepRule.unit(), x0, cfg)
            slow = solve(loop, StepRule.unit(), x0, cfg)
            assert fast.converged and slow.converged
            assert fast.iterations == slow.iterations


def test_symmetric_step_equals_affine_step_on_unfolded_cycle():
    rng = np.random.default_rng(52)
    sets, _ = random_affine_instance(rng, d=6, n=3)
    sym = CycleOperator(tuple(sets), mode="symmetric")
    unfolded = CycleOperator(tuple(list(sets) + list(reversed(sets[:-1]))))
    x = 4.0 * rng.standard_normal(6)
    t_sym = step_gk_affine(x, *sym.apply_with_increments(x))
    t_unf = step_gk_affine(x, *unfolded.apply_with_increments(x))
    assert t_sym == t_unf


def test_dr_step_matches_line_search():
    rng = np.random.default_rng(53)
    for _ in range(10):
        sets, _ = random_affine_instance(rng, d=5, n=2)
        dr = DouglasRachfordOperator(sets[0], sets[1], symmetric=True)
        fix = fixset_dr(sets[0], sets[1])
        z = 4.0 * rng.standard_normal(5)
        full, inc = dr.apply_with_increments(z)
        if np.linalg.norm(z - full) < 1e-8:
            continue
        t = step_gk_affine(z, full, inc)
        target = sample_point(rng, fix) if fix.rank else fix.anchor
        assert abs(t - scan_line_min(z, full - z, target)) <= 1e-8 * max(1.0, abs(t))


def test_steps_reject_fixed_points():
    x = np.array([1.0, 1.0])
    with pytest.raises(ValueError):
        step_oracle(x, x, np.zeros(2))
    with pytest.raises(ValueError):
        step_gk_affine(x, x.copy(), np.zeros(1))


def test_fqne_cycle_step_bounds_and_descent():
    rng = np.random.default_rng(54)
    for _ in range(20):
        n = int(rng.integers(2, 5))
        halfspaces, m = strictly_feasible_halfspaces(rng, 5, n)
        cycle = CycleOperator(tuple(halfspaces))
        x = violating_point(rng, halfspaces)
        tr = cycle.apply_with_trace(x)
        if total_sq(tr) < 1e-16:
            continue
        t = step_gk_affine(x, tr.last, tr.increments_sq)
        # trace step never falls below 1/2 + 1/(2n)
        assert t >= 0.5 + 0.5 / n - 1e-12
        # the witness-based step dominates it for quasi-nonexpansive stages
        t_known = step_oracle(x, tr.last, m)
        assert t_known >= t - 1e-12 * max(1.0, abs(t))
        # stacked projections dissipate at least the stage increments
        drop = np.linalg.norm(x - m) ** 2 - np.linalg.norm(tr.last - m) ** 2
        assert drop >= float(np.sum(tr.increments_sq)) - 1e-10 * max(1.0, drop)
        # guaranteed decrease of the relaxed update at the trace step
        x_t = x + t * (tr.last - x)
        lhs = np.linalg.norm(x_t - m) ** 2
        rhs = np.linalg.norm(x - m) ** 2 - t * t * total_sq(tr)
        assert lhs <= rhs + 1e-10 * max(1.0, abs(rhs))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_trace_step_at_least_half_property(seed):
    rng = np.random.default_rng(seed)
    sets, _ = random_affine_instance(rng)
    op = CycleOperator(tuple(sets))
    x = 4.0 * rng.standard_normal(op.dim)
    tr = op.apply_with_trace(x)
    if total_sq(tr) < 1e-16:
        return
    assert step_gk_affine(x, tr.last, tr.increments_sq) >= 0.5


def test_solve_zero_iterations_when_started_at_solution():
    op = CycleOperator((XAXIS, DIAGONAL))
    x0 = np.array([3.0, 1.0])
    cfg = SolveConfig(eps=1e2, solution=x0.copy())
    tr = solve(op, StepRule.unit(), x0, cfg)
    assert tr.converged
    assert tr.iterations == 0
    assert tr.initial_dist == 0.0
    assert tr.ks == [] and tr.dists == []
    assert np.array_equal(tr.final, x0)


def test_solve_fix_branch_takes_unit_step():
    op = CycleOperator((XAXIS,))
    x0 = np.array([4.0, 0.0])  # already on the set
    tr = solve(op, StepRule.gk_affine(), x0, SolveConfig(eps=1e-12))
    assert tr.converged
    assert tr.iterations == 1
    assert tr.steps == [1.0]
    assert np.array_equal(tr.final, x0)


def test_solve_max_iter_flagged():
    op = CycleOperator((XAXIS, DIAGONAL))
    tr = solve(
        op,
        StepRule.unit(),
        np.array([5.0, 3.0]),
        SolveConfig(eps=1e-300, max_iter=7),
    )
    assert not tr.converged
    assert tr.iterations == 7
    assert tr.ks == [1, 2, 3, 4, 5, 6, 7]


class _Poison:
    """Contraction that suddenly emits a non-finite point."""

    dim = 2

    def __init__(self, after):
        self.after = after
        self.calls = 0

    def apply(self, x):
        self.calls += 1
        if self.calls > self.after:
            return np.array([math.nan, math.nan])
        return 0.5 * x


def test_solve_raises_on_non_finite_values():
    op = _Poison(after=3)
    with pytest.raises(NumericalFailureError) as info:
        solve(op, StepRule.unit(), np.array([8.0, 8.0]), SolveConfig(eps=1e-12))
    assert info.value.iteration == 4


def test_solve_rejects_unfixed_oracle_witness():
    op = CycleOperator((XAXIS, DIAGONAL))
    with pytest.raises(ValueError):
        solve(
            op,
            StepRule.oracle(np.array([5.0, 5.0])),  # on DIAGONAL, not on XAXIS
            np.array([1.0, 2.0]),
            SolveConfig(),
        )
    # the true intersection point passes
    tr = solve(op, StepRule.oracle(np.zeros(2)), np.array([1.0, 2.0]), SolveConfig())
    assert tr.converged


def test_solve_rule_operator_pairing_errors():
    cyc = CycleOperator((XAXIS, DIAGONAL))
    x0 = np.array([1.0, 2.0])
    plain_dr = DouglasRachfordOperator(XAXIS, DIAGONAL)
    with pytest.raises(ValueError):
        solve(plain_dr, StepRule.gk_affine(), x0, SolveConfig())
    offset = CycleOperator((Hyperplane(np.array([1.0, 0.0]), 5.0),))
    with pytest.raises(ValueError):
        solve(offset, StepRule.gk_linear(), x0, SolveConfig())
    with pytest.raises(ValueError):
        solve(cyc, StepRule.unit(), np.zeros(3), SolveConfig())
    # a solution of the wrong length would broadcast into the distances
    for length in (1, 3):
        with pytest.raises(ValueError):
            solve(cyc, StepRule.unit(), x0, SolveConfig(solution=np.zeros(length)))
    # half-space cycles take only the unit and oracle rules
    halves = (HalfSpace(XAXIS.normal, 0.0), HalfSpace(DIAGONAL.normal, 0.0))
    for mode, rule in (
        ("cyclic", StepRule.gk_affine()),
        ("cyclic", StepRule.gk_linear()),
        ("symmetric", StepRule.gk_affine()),
    ):
        with pytest.raises(ValueError):
            solve(CycleOperator(halves, mode=mode), rule, x0, SolveConfig())


def test_solve_limits_match_stacked_least_squares():
    rng = np.random.default_rng(55)
    sets, _ = random_affine_instance(rng, d=6, n=3)
    x0 = 6.0 * rng.standard_normal(6)
    want = exact_projection(x0, sets)
    cfg = SolveConfig(eps=1e-11, max_iter=200_000)
    for op, rule in [
        (CycleOperator(tuple(sets)), StepRule.unit()),
        (CycleOperator(tuple(sets)), StepRule.gk_affine()),
        (CycleOperator(tuple(sets), mode="symmetric"), StepRule.gk_affine()),
    ]:
        tr = solve(op, rule, x0, cfg)
        assert tr.converged
        assert np.linalg.norm(tr.final - want) <= 1e-6 * (1.0 + np.linalg.norm(x0))


def test_solve_dr_shadow_limit():
    rng = np.random.default_rng(56)
    sets, _ = random_affine_instance(rng, d=5, n=2)
    x0 = 5.0 * rng.standard_normal(5)
    dr = DouglasRachfordOperator(sets[0], sets[1], symmetric=True)
    tr = solve(dr, StepRule.gk_affine(), x0, SolveConfig(eps=1e-12))
    assert tr.converged
    # the iteration starts from the once-advanced point
    assert np.array_equal(tr.start, dr.apply(x0))
    want = exact_projection(x0, sets)
    got = sets[0].project(tr.final)
    assert np.linalg.norm(got - want) <= 1e-6 * (1.0 + np.linalg.norm(x0))


def test_distance_never_increases_under_line_search_rules():
    rng = np.random.default_rng(57)
    sets, _ = random_affine_instance(rng, d=5, n=3)
    x0 = 5.0 * rng.standard_normal(5)
    xstar = exact_projection(x0, sets)
    cfg = SolveConfig(eps=1e-10, solution=xstar, max_iter=100_000)
    for rule in (StepRule.unit(), StepRule.gk_affine()):
        tr = solve(CycleOperator(tuple(sets)), rule, x0, cfg)
        assert tr.converged
        for f in contraction_factors(tr, cfg.eps):
            if f is not None:
                assert f <= 1.0 + 1e-12


def test_acceleration_beats_plain_iteration_at_small_angle():
    theta = 0.02
    sets = (
        Hyperplane(np.array([0.0, 1.0]), 0.0),
        Hyperplane(np.array([-math.sin(theta), math.cos(theta)]), 0.0),
    )
    x0 = np.array([10.0, 0.0])
    cfg = SolveConfig(eps=1e-6, solution=np.zeros(2), max_iter=500_000, store_every=0)
    plain = solve(CycleOperator(sets), StepRule.unit(), x0, cfg)
    fast = solve(CycleOperator(sets), StepRule.gk_affine(), x0, cfg)
    assert plain.converged and fast.converged
    assert plain.iterations >= 20 * fast.iterations


def test_store_every_thinning_and_final_state():
    op = CycleOperator((XAXIS, DIAGONAL))
    x0 = np.array([7.0, 3.0])
    runs = {}
    for j in (0, 1, 7):
        runs[j] = solve(op, StepRule.unit(), x0, SolveConfig(eps=1e-9, store_every=j))
    k_total = runs[1].iterations
    assert runs[0].iterations == runs[7].iterations == k_total
    assert np.array_equal(runs[0].final, runs[1].final)
    assert np.array_equal(runs[7].final, runs[1].final)
    assert runs[0].ks == []
    assert runs[1].ks == list(range(1, k_total + 1))
    assert all(k % 7 == 0 for k in runs[7].ks[:-1])
    assert runs[7].ks[-1] == k_total
    assert runs[1].steps == [1.0] * k_total


def test_halfspace_cycle_reaches_feasibility():
    rng = np.random.default_rng(58)
    halfspaces, m = strictly_feasible_halfspaces(rng, 4, 3)
    cycle = CycleOperator(tuple(halfspaces))
    x0 = violating_point(rng, halfspaces)
    for rule in (StepRule.unit(), StepRule.oracle(m)):
        tr = solve(cycle, rule, x0, SolveConfig(eps=1e-10))
        assert tr.converged
        for h in halfspaces:
            assert h.residual(tr.final) <= 1e-8
