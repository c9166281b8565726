"""Step-size rules and the relaxed iteration driver."""

import math
from dataclasses import FrozenInstanceError

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
from cycproj.cli import _theta_grid, _unit_start, angle_instance
from cycproj.geometry import (
    DimensionMismatchError,
    HalfSpace,
    Hyperplane,
    InfeasibleProblemError,
)
from cycproj.operators import (
    ROW_BLOCK,
    CycleOperator,
    DouglasRachfordOperator,
    fixset_dr,
)

from conftest import (
    GK_IDENTITY_TOL,
    contraction_factors,
    distance,
    gk_identity_misfits,
    lstsq_projection,
    random_affine_instance,
    sample_point,
    scan_line_min,
    stage_trace,
    strictly_feasible_halfspaces,
    total_sq,
    violating_point,
)

XAXIS = Hyperplane(np.array([0.0, 1.0]), 0.0)
DIAGONAL = Hyperplane(np.array([1.0, -1.0]), 0.0)


def test_step_rule_constructors_and_validation():
    for name in ("unit", "gk-affine"):
        assert StepRule(name).variant == name
        with pytest.raises(ValueError):
            StepRule(name, m=np.zeros(2))
    # gk-affine drives the symmetric composites too; they have no rule names.
    # The linear step is the oracle rule at the origin, with no name of its own.
    for name in ("symmetric", "symmetric-dr", "gk-linear"):
        with pytest.raises(ValueError, match=f"^unknown step rule '{name}'$"):
            StepRule(name)
    r = StepRule("oracle", np.array([1.0, 2.0]))
    assert r.variant == "oracle"
    assert np.array_equal(r.m, [1.0, 2.0])
    with pytest.raises(ValueError):
        StepRule("oracle")
    # A non-finite witness is refused before any arithmetic touches it.
    for m in ([np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="^oracle witness m must be finite$"):
            StepRule("oracle", m)
    with pytest.raises(ValueError):
        StepRule("newton")
    # A rule is built by name only, with no classmethod alias per name.
    for alias in ("unit", "gk_linear", "gk_affine", "oracle"):
        assert not hasattr(StepRule, alias)


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
    # The checks hold after construction too: a config cannot be reassigned.
    cfg = SolveConfig()
    with pytest.raises(FrozenInstanceError):
        cfg.solution = np.array([np.nan, 0.0])


def test_frozen_linear_step_example():
    # two lines through the origin: the x-axis and the diagonal y = x
    x = np.array([1.0, 2.0])
    qx = DIAGONAL.project(XAXIS.project(x))
    assert np.array_equal(qx, [0.5, 0.5])
    t = step_oracle(x, qx, np.zeros(2))
    assert t == 3.5 / 2.5
    # the traced step of the same cycle agrees
    tr = stage_trace(CycleOperator((XAXIS, DIAGONAL)), x)
    assert step_gk_affine(x, qx, tr.increments_sq) == t
    # and from a literal dense scan of ||x + s(qx - x)|| at 1e-6 resolution
    ss = np.arange(0.0, 2.0, 1e-6)
    pts = x[None, :] + ss[:, None] * (qx - x)[None, :]
    best = ss[np.argmin(np.einsum("ij,ij->i", pts, pts))]
    assert abs(best - t) <= 5e-7


def test_frozen_affine_step_example():
    op = CycleOperator((XAXIS, DIAGONAL))
    x = np.array([2.0, 1.0])
    tr = stage_trace(op, x)
    assert np.array_equal(tr.last, [1.0, 1.0])
    assert step_gk_affine(x, tr.last, tr.increments_sq) == 2.0
    assert step_oracle(x, tr.last, np.zeros(2)) == 2.0


def test_affine_step_equals_oracle_step():
    rng = np.random.default_rng(50)
    for _ in range(20):
        sets, _ = random_affine_instance(rng)
        op = CycleOperator(tuple(sets))
        x = 4.0 * rng.standard_normal(op.dim)
        tr = stage_trace(op, x)
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
        tr = stage_trace(op, x)
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
    for mode in ("cyclic", "symmetric"):
        op = CycleOperator.from_rows(a, b).with_mode(mode)
        tr = solve(op, StepRule("gk-affine"), x0, SolveConfig(eps=1e-10, max_iter=1000))
        assert tr.converged
        assert tr.ks == list(range(1, tr.iterations + 1))
        for x, t in zip([tr.start] + tr.iterates[:-1], tr.steps):
            ref = stage_trace(op, x)
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
    dr = DouglasRachfordOperator(pair[0], pair[1])
    runs = [
        (CycleOperator(tuple(sets)), StepRule("gk-affine"), None),
        (CycleOperator(tuple(sets), mode="symmetric"), StepRule("gk-affine"), None),
        (dr, StepRule("gk-affine"), None),
        (CycleOperator(tuple(sets)), StepRule("oracle", m), m),
        (CycleOperator(tuple(linear)), StepRule("oracle", np.zeros(5)), np.zeros(5)),
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
        kernel = CycleOperator.from_rows(a, b).with_mode(mode)
        loop = _RowLoop(kernel._stage_sets)
        for r in range(10):
            v = np.random.default_rng([seed, m, n, r]).standard_normal(m)
            x0 = (10.0 / np.linalg.norm(v)) * v
            fast = solve(kernel, StepRule("unit"), x0, cfg)
            slow = solve(loop, StepRule("unit"), x0, cfg)
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
        dr = DouglasRachfordOperator(sets[0], sets[1])
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
        tr = stage_trace(cycle, x)
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
    tr = stage_trace(op, x)
    if total_sq(tr) < 1e-16:
        return
    assert step_gk_affine(x, tr.last, tr.increments_sq) >= 0.5


def test_solve_zero_iterations_when_started_at_solution():
    op = CycleOperator((XAXIS, DIAGONAL))
    x0 = np.array([3.0, 1.0])
    cfg = SolveConfig(eps=1e2, solution=x0.copy())
    tr = solve(op, StepRule("unit"), x0, cfg)
    assert tr.converged
    assert tr.iterations == 0
    assert tr.initial_dist == 0.0
    assert tr.ks == [] and tr.dists == []
    assert np.array_equal(tr.final, x0)


def test_solve_fix_branch_takes_unit_step():
    op = CycleOperator((XAXIS,))
    x0 = np.array([4.0, 0.0])  # already on the set
    tr = solve(op, StepRule("gk-affine"), x0, SolveConfig(eps=1e-12))
    assert tr.converged
    assert tr.iterations == 1
    assert tr.steps == [1.0]
    assert np.array_equal(tr.final, x0)


def test_solve_max_iter_flagged():
    op = CycleOperator((XAXIS, DIAGONAL))
    tr = solve(
        op,
        StepRule("unit"),
        np.array([5.0, 3.0]),
        SolveConfig(eps=1e-300, max_iter=7),
    )
    assert not tr.converged and tr.stop == "max-iter"
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
        solve(op, StepRule("unit"), np.array([8.0, 8.0]), SolveConfig(eps=1e-12))
    assert info.value.iteration == 4


def test_solve_rejects_unfixed_oracle_witness():
    op = CycleOperator((XAXIS, DIAGONAL))
    with pytest.raises(ValueError):
        solve(
            op,
            StepRule("oracle", np.array([5.0, 5.0])),  # on DIAGONAL, not on XAXIS
            np.array([1.0, 2.0]),
            SolveConfig(),
        )
    # the true intersection point passes
    tr = solve(op, StepRule("oracle", np.zeros(2)), np.array([1.0, 2.0]), SolveConfig())
    assert tr.converged
    # The bound is a 2-norm computed without overflow, so a witness whose
    # squared norm overflows is still refused when unfixed, and kept when fixed.
    with pytest.raises(ValueError, match="witness is not fixed by the operator"):
        solve(op, StepRule("oracle", [1e155, 1e155]), [1.0, 2.0], SolveConfig())
    tr = solve(CycleOperator((XAXIS,)), StepRule("oracle", [1e155, 0.0]), [1.0, 2.0],
               SolveConfig())
    assert tr.converged and np.array_equal(tr.final, [1.0, 0.0])


def test_solve_rule_operator_pairing_errors():
    cyc = CycleOperator((XAXIS, DIAGONAL))
    x0 = np.array([1.0, 2.0])
    # the linear step's witness, the origin, must lie on every set
    offset = CycleOperator((Hyperplane(np.array([1.0, 0.0]), 5.0),))
    with pytest.raises(ValueError, match="witness is not fixed by the operator"):
        solve(offset, StepRule("oracle", np.zeros(2)), x0, SolveConfig())
    # a vector of the wrong length is a DimensionMismatchError naming it
    want = r"^operator lives in R\^2, x0 in R\^3$"
    with pytest.raises(DimensionMismatchError, match=want):
        solve(cyc, StepRule("unit"), np.zeros(3), SolveConfig())
    with pytest.raises(ValueError, match=r"^expected a 1-D vector, got shape \(2, 1\)$"):
        solve(cyc, StepRule("unit"), np.zeros((2, 1)), SolveConfig())
    # a solution of the wrong length would broadcast into the distances, and a
    # witness of the wrong length is caught before the operator is applied to it
    for length in (1, 3):
        want = rf"^operator lives in R\^2, solution in R\^{length}$"
        with pytest.raises(DimensionMismatchError, match=want):
            solve(cyc, StepRule("unit"), x0, SolveConfig(solution=np.zeros(length)))
        want = rf"^operator lives in R\^2, oracle witness m in R\^{length}$"
        with pytest.raises(DimensionMismatchError, match=want):
            solve(cyc, StepRule("oracle", np.zeros(length)), x0, SolveConfig())
    # a non-finite solution or start is refused before the first update
    for sol in ([np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="^solution must be finite$"):
            solve(cyc, StepRule("unit"), x0, SolveConfig(solution=sol))
    runs = (
        (cyc, StepRule("unit")),
        (cyc, StepRule("gk-affine")),
        (cyc.with_mode("symmetric"), StepRule("gk-affine")),
        (DouglasRachfordOperator(XAXIS, DIAGONAL), StepRule("gk-affine")),
    )
    for op, rule in runs:
        for start in ([np.nan, 0.0], [np.inf, 0.0]):
            with pytest.raises(ValueError, match="^x0 must be finite$"):
                solve(op, rule, start, SolveConfig())
    # half-space cycles take only the unit and oracle rules
    halves = (HalfSpace(XAXIS.normal, 0.0), HalfSpace(DIAGONAL.normal, 0.0))
    for mode in ("cyclic", "symmetric"):
        op = CycleOperator(halves, mode=mode)
        with pytest.raises(ValueError, match="gk-affine rule drives"):
            solve(op, StepRule("gk-affine"), x0, SolveConfig())


class _AffineDuck:
    """A composite known to solve only by its members: the cycle over XAXIS
    and DIAGONAL, declared affine, with no operator class of its own."""

    dim, symmetric, affine = 2, False, True

    def apply(self, x):
        return DIAGONAL.project(XAXIS.project(x))

    def apply_with_increments(self, x):
        y, g = XAXIS.project_with_gap(x)
        z, h = DIAGONAL.project_with_gap(y)
        return z, np.array([g, h])


def test_solve_drives_any_composite_that_declares_affine():
    x0, cfg = np.array([1.0, 2.0]), SolveConfig(eps=1e-12)
    duck = solve(_AffineDuck(), StepRule("gk-affine"), x0, cfg)
    cycle = solve(CycleOperator((XAXIS, DIAGONAL)), StepRule("gk-affine"), x0, cfg)
    assert duck.converged and duck.iterations == cycle.iterations
    assert duck.steps == cycle.steps and np.array_equal(duck.final, cycle.final)
    # A composite that does not declare affine is refused.
    with pytest.raises(ValueError, match="gk-affine rule drives"):
        solve(_RowLoop((XAXIS, DIAGONAL)), StepRule("gk-affine"), x0, cfg)


def test_solve_limits_match_stacked_least_squares():
    rng = np.random.default_rng(55)
    sets, _ = random_affine_instance(rng, d=6, n=3)
    x0 = 6.0 * rng.standard_normal(6)
    want = exact_projection(x0, sets)
    cfg = SolveConfig(eps=1e-11, max_iter=200_000)
    for op, rule in [
        (CycleOperator(tuple(sets)), StepRule("unit")),
        (CycleOperator(tuple(sets)), StepRule("gk-affine")),
        (CycleOperator(tuple(sets), mode="symmetric"), StepRule("gk-affine")),
    ]:
        tr = solve(op, rule, x0, cfg)
        assert tr.converged
        assert np.linalg.norm(tr.final - want) <= 1e-6 * (1.0 + np.linalg.norm(x0))


def test_solve_dr_shadow_limit():
    rng = np.random.default_rng(56)
    sets, _ = random_affine_instance(rng, d=5, n=2)
    x0 = 5.0 * rng.standard_normal(5)
    dr = DouglasRachfordOperator(sets[0], sets[1])
    tr = solve(dr, StepRule("gk-affine"), x0, SolveConfig(eps=1e-12))
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
    for rule in (StepRule("unit"), StepRule("gk-affine")):
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
    plain = solve(CycleOperator(sets), StepRule("unit"), x0, cfg)
    fast = solve(CycleOperator(sets), StepRule("gk-affine"), x0, cfg)
    assert plain.converged and fast.converged
    assert plain.iterations >= 20 * fast.iterations


def test_store_every_thinning_and_final_state():
    op = CycleOperator((XAXIS, DIAGONAL))
    x0 = np.array([7.0, 3.0])
    runs = {}
    for j in (0, 1, 7):
        runs[j] = solve(op, StepRule("unit"), x0, SolveConfig(eps=1e-9, store_every=j))
    k_total = runs[1].iterations
    assert runs[0].iterations == runs[7].iterations == k_total
    assert np.array_equal(runs[0].final, runs[1].final)
    assert np.array_equal(runs[7].final, runs[1].final)
    assert runs[0].ks == []
    assert runs[1].ks == list(range(1, k_total + 1))
    assert all(k % 7 == 0 for k in runs[7].ks[:-1])
    assert runs[7].ks[-1] == k_total
    assert runs[1].steps == [1.0] * k_total


def test_stall_stops_unconverged_and_keeps_the_final_row():
    # The start lies on both lines, so the first update leaves it bitwise
    # unchanged; the given solution lies elsewhere, so the criterion never holds.
    op = CycleOperator((XAXIS, DIAGONAL))
    for rule in (StepRule("unit"), StepRule("gk-affine")):
        for j in (1, 7):
            cfg = SolveConfig(
                eps=1e-9, max_iter=50, solution=np.array([1.0, 0.0]), store_every=j
            )
            tr = solve(op, rule, np.zeros(2), cfg)
            assert not tr.converged and tr.stop == "stalled"
            assert tr.iterations == 1 < cfg.max_iter
            assert tr.ks == [1]
            assert tr.steps == [1.0] and tr.changes == [0.0] and tr.dists == [1.0]
            assert np.array_equal(tr.final, np.zeros(2))

    # The first move, 1e-170 along the x-axis, squares to 0.0 but is no
    # stall; the second update leaves the iterate bitwise unchanged.
    op = CycleOperator((Hyperplane(np.array([1.0, 0.0]), 1e-170),))
    for rule in (StepRule("unit"), StepRule("gk-affine")):
        for j, ks in ((1, [1, 2]), (7, [2])):
            cfg = SolveConfig(
                eps=1e-9, max_iter=50, solution=np.array([1.0, 0.0]), store_every=j
            )
            tr = solve(op, rule, np.zeros(2), cfg)
            assert not tr.converged and tr.stop == "stalled"
            assert tr.iterations == 2 and tr.ks == ks
            assert np.array_equal(tr.final, np.array([1e-170, 0.0]))


def test_zero_change_converges_without_a_solution():
    # Without a solution, a stored change of 0.0 is below every eps, so
    # "converged" outranks "stalled": from the common point, and for a move
    # of 1e-170 that squares to 0.0, each run ends after one update.
    cases = (
        (CycleOperator((XAXIS, DIAGONAL)), np.zeros(2)),
        (CycleOperator((Hyperplane(np.array([1.0, 0.0]), 1e-170),)),
         np.array([1e-170, 0.0])),
    )
    for op, final in cases:
        for rule in (StepRule("unit"), StepRule("gk-affine")):
            tr = solve(op, rule, np.zeros(2), SolveConfig(eps=1e-9, max_iter=50))
            assert tr.converged and tr.stop == "converged"
            assert tr.iterations == 1 and tr.ks == [1]
            assert tr.steps == [1.0] and tr.changes == [0.0]
            assert np.array_equal(tr.final, final)


def test_inconsistent_three_lines_do_not_converge():
    # y = 0, y = 1 and x + y = 0 share no point, yet the composite still has
    # fixed points, so the unit rule's successive change falls below eps in
    # both modes (after 33 cyclic, 32 symmetric updates).  The stage
    # increments there still span the gaps, so solve raises instead.
    sets = tuple(Hyperplane(np.array(a), b)
                 for a, b in (([0.0, 1.0], 0.0), ([0.0, 1.0], 1.0), ([1.0, 1.0], 0.0)))
    for mode in ("cyclic", "symmetric"):
        op = CycleOperator(sets, mode)
        with pytest.raises(InfeasibleProblemError, match="no common point"):
            solve(op, StepRule("unit"), [3.0, 4.0], SolveConfig())


def test_parallel_hyperplanes_do_not_converge_under_symmetric_cycles():
    # Every point of the first of two parallel planes is fixed by P0 P1 P0,
    # so sym-cp and accel-sym-cp see a change of 0.0 (after 2 updates and 1
    # update) on planes 0.01 apart; the increments at that point are the gap.
    rng = np.random.default_rng(5)
    a = rng.standard_normal(5)
    a /= np.linalg.norm(a)
    op = CycleOperator((Hyperplane(a, 0.0), Hyperplane(a, 0.01)), mode="symmetric")
    for rule in (StepRule("unit"), StepRule("gk-affine")):
        with pytest.raises(InfeasibleProblemError, match="no common point"):
            solve(op, rule, 10.0 * rng.standard_normal(5), SolveConfig())


def test_known_solution_rows_are_bitwise():
    # With the solution given, a unit step computes Qx - x only for a stored
    # row and the stall test compares iterates only when the distance
    # repeats; no row, count or final point may depend on store_every.
    rng = np.random.default_rng(61)
    theta, xstar = 0.04, np.array([1.5, -0.7])
    normals = (np.array([0.0, 1.0]), np.array([-math.sin(theta), math.cos(theta)]))
    pair = CycleOperator(tuple(Hyperplane(a, float(a @ xstar)) for a in normals))
    a = rng.standard_normal((70, 90))
    rows = CycleOperator.from_rows(a, a @ rng.standard_normal(90))
    x0 = 3.0 * rng.standard_normal(90)
    halfspaces, m = strictly_feasible_halfspaces(rng, 4, 3)
    runs = [
        (pair, rule, xstar + np.array([10.0, 0.0]), xstar)
        for rule in (StepRule("unit"), StepRule("gk-affine"))
    ] + [
        (rows, rule, x0, exact_projection(x0, rows.sets))
        for rule in (StepRule("unit"), StepRule("gk-affine"))
    ] + [
        (CycleOperator(tuple(halfspaces)), StepRule("unit"),
         violating_point(rng, halfspaces), m),
    ]
    for op, rule, start, sol in runs:
        cfgs = {j: SolveConfig(eps=1e-8, solution=sol, store_every=j) for j in (0, 1, 3)}
        traces = {j: solve(op, rule, start, cfg) for j, cfg in cfgs.items()}
        streamed = []
        traces["on_row"] = solve(
            op, rule, start, cfgs[1], on_row=lambda *row: streamed.append(row)
        )
        full = traces[1]
        k_total = full.iterations
        assert k_total > 1 and full.ks == list(range(1, k_total + 1))
        for tr in traces.values():
            assert tr.iterations == k_total and tr.converged == full.converged
            assert np.array_equal(tr.final, full.final)
        ks, steps, changes, iterates = map(list, zip(*streamed))
        assert (ks, steps, changes) == (full.ks, full.steps, full.changes)
        assert all(np.array_equal(z, x) for z, x in zip(iterates, full.iterates))
        thin = traces[3]
        assert thin.ks == [k for k in full.ks if k % 3 == 0 or k == k_total]
        for col in ("steps", "changes", "dists"):
            assert getattr(thin, col) == [getattr(full, col)[k - 1] for k in thin.ks]
        for (x, t), change, x_new, dist in zip(
            _steps_taken(full), full.changes, full.iterates, full.dists
        ):
            d = op.apply(x) - x
            e = x_new - sol
            assert change == abs(t) * math.sqrt(d.dot(d))
            assert dist == math.sqrt(e.dot(e))


def test_halfspace_cycle_reaches_feasibility():
    rng = np.random.default_rng(58)
    halfspaces, m = strictly_feasible_halfspaces(rng, 4, 3)
    cycle = CycleOperator(tuple(halfspaces))
    x0 = violating_point(rng, halfspaces)
    for rule in (StepRule("unit"), StepRule("oracle", m)):
        tr = solve(cycle, rule, x0, SolveConfig(eps=1e-10))
        assert tr.converged
        for h in halfspaces:
            assert distance(h, tr.final) <= 1e-8


def test_gk_updates_meet_the_pythagorean_identity_on_the_row_kernel():
    # Every update of gk-affine, on either mode of a row-kernel system, is an
    # exact line search toward p = P_M(x0): x0 = p + A^T w at distance 10, as
    # perfbench builds its systems, so p is known without a solve.
    for m, n in ((2000, 1000), (600, 500)):
        rng = np.random.default_rng([12, m, n])
        a = rng.standard_normal((n, m))
        p = rng.standard_normal(m)
        shift = a.T @ rng.standard_normal(n)
        x0 = p + (10.0 / np.linalg.norm(shift)) * shift
        cycle = CycleOperator.from_rows(a, a @ p)
        for mode in ("cyclic", "symmetric"):
            op = cycle.with_mode(mode)
            tr = solve(op, StepRule("gk-affine"), x0, SolveConfig(eps=1e-6))
            assert tr.converged
            dists = [np.linalg.norm(x - p) for x in tr.iterates]
            misfits = gk_identity_misfits(dists, tr.changes, np.linalg.norm(x0))
            assert len(misfits) >= 0.5 * tr.iterations, (m, mode)
            assert misfits.max() <= GK_IDENTITY_TOL, (m, mode)


def test_symmetric_gk_step_solves_two_lines_in_one_update():
    # After the advance x = S x0, the last stage put x on line 1, and Sx and
    # x* lie on it too, so one exact line search lands on x*.  Every start
    # of the criterion-08 grid: the CLI's default angles and angle-sweep's
    # points and starts at seed 0, with 10 starts each.
    for j, theta in enumerate(0.01 + 0.01 * np.arange(157)):
        xstar = np.random.default_rng([0, j]).standard_normal(2)
        op = CycleOperator(tuple(angle_instance(theta, xstar)), mode="symmetric")
        cfg = SolveConfig(eps=1e-9, solution=xstar, store_every=0)
        for r in range(10):
            v = np.random.default_rng([0, j, r]).standard_normal(2)
            tr = solve(op, StepRule("gk-affine"), (10.0 / np.linalg.norm(v)) * v, cfg)
            assert tr.converged and tr.iterations == 1, (theta, r)


def test_cp_counts_and_gk_from_the_advanced_start_on_the_sweep_grid():
    # After P0 the error (e0x, 0) lies along line 0, and each later projection
    # shrinks it by cos theta, so cp stops at the least k with
    # |e0x| cos^(2k-1) theta < eps.  Qx0 lies on line 1 with Q(Qx0) and x*, so
    # cyclic gk-affine from Qx0 lands on x* in one update.  Every fourth angle
    # of the criterion-08 grid but 0.01, with angle-sweep's points and starts.
    grid = _theta_grid(0.01, 1.57, 0.01)
    for j in range(4, len(grid), 4):
        theta = float(grid[j])
        xstar = np.random.default_rng([0, j]).standard_normal(2)
        op = CycleOperator(tuple(angle_instance(theta, xstar)))
        cfg = SolveConfig(eps=1e-9, solution=xstar, store_every=0)
        for r in range(5):
            x0 = _unit_start([0, j, r], 2)
            e0x, k = abs(x0[0] - xstar[0]), 1
            while e0x * math.cos(theta) ** (2 * k - 1) >= cfg.eps:
                k += 1
            tr = solve(op, StepRule("unit"), x0, cfg)
            assert tr.converged and tr.iterations == k, (theta, r)
            tr = solve(op, StepRule("gk-affine"), op.apply(x0), cfg)
            assert tr.converged and tr.iterations == 1, (theta, r)
