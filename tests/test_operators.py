"""Composite operator traces, Douglas-Rachford structure, fixed sets."""

import numpy as np
import pytest

from cycproj.geometry import (
    DimensionMismatchError,
    HalfSpace,
    Hyperplane,
    InfeasibleProblemError,
    Span,
)
from cycproj.operators import (
    ROW_BLOCK,
    CycleOperator,
    DouglasRachfordOperator,
    fixset_dr,
)
from cycproj.analysis import exact_projection

from conftest import (
    dr_half,
    random_affine_instance,
    random_hyperplane_through,
    sample_point,
    shifted,
    strictly_feasible_halfspaces,
)


def test_single_set_trace():
    h = Hyperplane(np.array([1.0, 1.0]), 1.0)
    op = CycleOperator((h,))
    x = np.array([3.0, 4.0])
    tr = op.apply_with_trace(x)
    assert len(tr.stages) == 2
    assert np.array_equal(tr.stages[0], x)
    assert np.array_equal(tr.stages[1], h.project(x))


def test_trace_last_matches_sequential_projection_oracle():
    rng = np.random.default_rng(31)
    p = rng.standard_normal(4)
    sets = [random_hyperplane_through(rng, p) for _ in range(3)]
    op = CycleOperator(tuple(sets))
    x = 4.0 * rng.standard_normal(4)
    want = sets[2].project(sets[1].project(sets[0].project(x)))
    tr = op.apply_with_trace(x)
    assert np.array_equal(tr.last, want)


def test_three_evaluation_routes_agree_bitwise():
    # Below ROW_BLOCK hyperplanes every route is the row loop.
    rng = np.random.default_rng(32)
    rows_rng = np.random.default_rng(47)
    short = ROW_BLOCK - 1
    for mode in ("cyclic", "symmetric"):
        sets, _ = random_affine_instance(rng, d=6, n=4)
        a = rows_rng.standard_normal((short, 2 * short))
        b = rows_rng.standard_normal(short)
        for op, x in (
            (CycleOperator(tuple(sets), mode=mode), 3.0 * rng.standard_normal(6)),
            (CycleOperator.from_rows(a, b, mode), rows_rng.standard_normal(2 * short)),
        ):
            plain = op.apply(x)
            traced = op.apply_with_trace(x)
            fast, inc = op.apply_with_increments(x)
            assert np.array_equal(plain, traced.last)
            assert np.array_equal(plain, fast)
            assert np.allclose(inc, traced.increments_sq, rtol=1e-12, atol=1e-300)


def test_fixed_input_keeps_all_stages_equal():
    rng = np.random.default_rng(33)
    sets, p = random_affine_instance(rng, d=5, n=3)
    op = CycleOperator(tuple(sets), mode="symmetric")
    tr = op.apply_with_trace(p)
    for stage in tr.stages:
        assert np.linalg.norm(stage - p) <= 1e-10 * (1.0 + np.linalg.norm(p))


def test_telescoping_sum_of_increments():
    rng = np.random.default_rng(34)
    sets, _ = random_affine_instance(rng, d=6, n=4)
    op = CycleOperator(tuple(sets))
    x = 4.0 * rng.standard_normal(6)
    tr = op.apply_with_trace(x)
    diffs = [a - b for a, b in zip(tr.stages[:-1], tr.stages[1:])]
    total = np.sum(diffs, axis=0)
    assert np.linalg.norm(total - (tr.stages[0] - tr.last)) <= 1e-12 * (
        1.0 + np.linalg.norm(x)
    )


def test_symmetric_cycle_unfolds_to_cyclic():
    rng = np.random.default_rng(35)
    sets, _ = random_affine_instance(rng, d=5, n=3)
    sym = CycleOperator(tuple(sets), mode="symmetric")
    unfolded = CycleOperator(tuple(list(sets) + list(reversed(sets[:-1]))))
    x = 3.0 * rng.standard_normal(5)
    assert np.array_equal(sym.apply(x), unfolded.apply(x))
    tr = sym.apply_with_trace(x)
    assert len(tr.stages) == 2 * len(sets)


def test_translation_reduction_to_linear_cycle():
    rng = np.random.default_rng(36)
    for _ in range(10):
        sets, p = random_affine_instance(rng, d=5, n=3)
        translated = [shifted(s, -p) for s in sets]
        op = CycleOperator(tuple(sets))
        op0 = CycleOperator(tuple(translated))
        x = 4.0 * rng.standard_normal(5)
        assert np.linalg.norm(op.apply(x) - (op0.apply(x - p) + p)) <= 1e-10 * (
            1.0 + np.linalg.norm(x)
        )


@pytest.mark.parametrize("n", [64, 65, 128, 129, 300])
@pytest.mark.parametrize("mode", ["cyclic", "symmetric"])
def test_row_kernel_matches_row_loop(n, mode):
    # The row loop (apply_with_trace) is the reference; the kernel sums in
    # another order, so the bounds are float64 roundoff fixed beforehand.
    rng = np.random.default_rng([46, n])
    for d in (n // 2, 2 * n):
        a = rng.standard_normal((n, d))
        b = rng.standard_normal(n)
        op = CycleOperator.from_rows(a, b, mode)
        assert op._kernel is not None
        x = 5.0 * rng.standard_normal(d)
        ref = op.apply_with_trace(x)
        ref_inc = ref.increments_sq
        y, inc = op.apply_with_increments(x)
        assert inc.shape == ref_inc.shape == (
            2 * len(op.sets) - 1 if op.mode == "symmetric" else len(op.sets),
        )
        assert np.linalg.norm(op.apply(x) - ref.last) <= 1e-12 * (1.0 + np.linalg.norm(x))
        assert np.linalg.norm(y - ref.last) <= 1e-12 * (1.0 + np.linalg.norm(x))
        assert np.max(np.abs(inc - ref_inc)) <= 1e-12 * np.sum(ref_inc)


def test_row_kernel_selection_and_shared_rows():
    rng = np.random.default_rng(48)
    a = rng.standard_normal((ROW_BLOCK, 10))
    b = rng.standard_normal(ROW_BLOCK)
    op = CycleOperator.from_rows(a, b)
    assert np.shares_memory(op._kernel.a, a)
    assert all(np.shares_memory(s.normal, a) for s in op.sets)
    assert [s.offset for s in op.sets] == list(b)
    # The plain constructor stacks its own copy of the rows.
    stacked = CycleOperator(op.sets)
    assert not np.shares_memory(stacked._kernel.a, a)
    x = rng.standard_normal(10)
    assert np.array_equal(stacked.apply(x), op.apply(x))
    # Short cycles and cycles with any Span stay on the row loop.
    assert CycleOperator(op.sets[1:])._kernel is None
    point = Span(np.zeros(10), np.zeros((10, 0)))
    assert CycleOperator(op.sets + (point,))._kernel is None
    with pytest.raises(ValueError):
        CycleOperator.from_rows(a, b[:-1])


def test_row_kernel_checks_dimension():
    rng = np.random.default_rng(49)
    op = CycleOperator.from_rows(rng.standard_normal((ROW_BLOCK, 10)), np.zeros(ROW_BLOCK))
    for bad in (np.zeros(9), np.zeros(11)):
        with pytest.raises(DimensionMismatchError):
            op.apply(bad)
        with pytest.raises(DimensionMismatchError):
            op.apply_with_increments(bad)


def test_cycle_rejects_halfspace_and_mixed_dims():
    h = HalfSpace(np.array([1.0, 0.0]), 1.0)
    with pytest.raises(ValueError):
        CycleOperator((h, HalfSpace(np.array([1.0, 0.0, 0.0]), 0.0)))
    a = Hyperplane(np.array([1.0, 0.0]), 0.0)
    b = Hyperplane(np.array([1.0, 0.0, 0.0]), 0.0)
    with pytest.raises(ValueError):
        CycleOperator((a, b))


def test_dr_definition_matches_reflection_composition():
    rng = np.random.default_rng(37)
    sets, _ = random_affine_instance(rng, d=4, n=2)
    dr = DouglasRachfordOperator(sets[0], sets[1])
    x = 3.0 * rng.standard_normal(4)
    r = 2.0 * sets[0].project(x) - x
    want = 0.5 * (x + (2.0 * sets[1].project(r) - r))
    assert np.array_equal(dr.apply(x), want)


def test_symmetric_dr_trace_stages():
    rng = np.random.default_rng(38)
    sets, _ = random_affine_instance(rng, d=4, n=2)
    dr = DouglasRachfordOperator(sets[0], sets[1], symmetric=True)
    x = 3.0 * rng.standard_normal(4)
    tr = dr.apply_with_trace(x)
    assert len(tr.stages) == 3
    assert np.array_equal(tr.stages[1], dr_half(x, sets[0], sets[1]))
    assert np.array_equal(tr.stages[2], dr.apply(x))


def test_dr_pythagoras_on_fixed_set():
    # affine pairs give the equality case of firm quasi-nonexpansivity for
    # the one-sided composite; the symmetric composite contracts strictly
    # off its fixed set so only the inequality survives
    rng = np.random.default_rng(39)
    for _ in range(10):
        sets, _ = random_affine_instance(rng, d=5, n=2)
        fix = fixset_dr(sets[0], sets[1])
        x = 4.0 * rng.standard_normal(5)
        y = sample_point(rng, fix) if fix.rank else fix.anchor
        rhs = np.linalg.norm(x - y) ** 2

        dr = DouglasRachfordOperator(sets[0], sets[1])
        tx = dr.apply(x)
        lhs = np.linalg.norm(tx - y) ** 2 + np.linalg.norm(x - tx) ** 2
        assert abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)

        sym = DouglasRachfordOperator(sets[0], sets[1], symmetric=True)
        sx = sym.apply(x)
        lhs = np.linalg.norm(sx - y) ** 2 + np.linalg.norm(x - sx) ** 2
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)


def test_linear_dr_adjoint_structure():
    rng = np.random.default_rng(40)
    for _ in range(10):
        sets, _ = random_affine_instance(rng, d=5, n=2, linear=True)
        forward = DouglasRachfordOperator(sets[0], sets[1])
        backward = DouglasRachfordOperator(sets[1], sets[0])
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        # the reversed-order composite is the adjoint of the forward one
        assert abs(forward.apply(x) @ y - x @ backward.apply(y)) <= 1e-10 * max(
            1.0, np.linalg.norm(x) * np.linalg.norm(y)
        )
        sym = DouglasRachfordOperator(sets[0], sets[1], symmetric=True)
        assert abs(sym.apply(x) @ y - x @ sym.apply(y)) <= 1e-10 * max(
            1.0, np.linalg.norm(x) * np.linalg.norm(y)
        )
        # and the symmetric composite is positive semidefinite
        assert x @ sym.apply(x) >= -1e-12 * (x @ x)


def test_fixset_two_lines_through_origin_is_origin():
    l1 = Hyperplane(np.array([0.0, 1.0]), 0.0)
    l2 = Hyperplane(np.array([1.0, -1.0]), 0.0)
    fix = fixset_dr(l1, l2)
    assert fix.rank == 0
    assert np.linalg.norm(fix.anchor) <= 1e-12

    dr = DouglasRachfordOperator(l1, l2, symmetric=True)
    grid = np.linspace(-2.0, 2.0, 9)
    for u in grid:
        for v in grid:
            p = np.array([u, v])
            drift = np.linalg.norm(dr.apply(p) - p)
            if np.linalg.norm(p) > 1e-9:
                assert drift > 1e-9
            else:
                assert drift <= 1e-12


def test_fixset_contains_only_fixed_points():
    rng = np.random.default_rng(41)
    p = rng.standard_normal(5)
    c1 = random_hyperplane_through(rng, p)
    c2 = random_hyperplane_through(rng, p)
    fix = fixset_dr(c1, c2)
    # two generic hyperplanes: 3-dim intersection direction, trivial
    # orthogonal part
    assert fix.rank == 3
    dr = DouglasRachfordOperator(c1, c2, symmetric=True)
    for _ in range(10):
        q = sample_point(rng, fix)
        assert np.linalg.norm(dr.apply(q) - q) <= 1e-10 * (1.0 + np.linalg.norm(q))
    # a point off the fixed set must move
    x = p + 2.0 * rng.standard_normal(5)
    if np.linalg.norm(fix.project(x) - x) > 1e-6:
        assert np.linalg.norm(dr.apply(x) - x) > 1e-9


def test_fixset_orthogonal_component():
    # two lines in R^3 meeting at a point: the orthogonal complements of
    # the parallel subspaces intersect in a plane-like part that enlarges
    # the fixed set beyond the intersection
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    c1 = Span(np.zeros(3), e1[:, None])
    c2 = Span(np.zeros(3), e2[:, None])
    fix = fixset_dr(c1, c2)
    assert fix.rank == 1
    dr = DouglasRachfordOperator(c1, c2, symmetric=True)
    q = fix.anchor + fix.basis @ np.array([1.7])
    assert np.linalg.norm(dr.apply(q) - q) <= 1e-12
    # that direction is the shared normal direction e3
    assert abs(abs(fix.basis[2, 0]) - 1.0) <= 1e-12


def test_fixset_infeasible_pair_raises():
    a = Hyperplane(np.array([1.0, 0.0]), 0.0)
    b = Hyperplane(np.array([1.0, 0.0]), 1.0)
    with pytest.raises(InfeasibleProblemError):
        fixset_dr(a, b)


def test_projection_onto_fixset_behaves_like_intersection_after_shadow():
    rng = np.random.default_rng(42)
    for _ in range(10):
        sets, _ = random_affine_instance(rng, d=6, n=2)
        fix = fixset_dr(sets[0], sets[1])
        x0 = 4.0 * rng.standard_normal(6)
        z = fix.project(x0)
        want = exact_projection(x0, sets)
        assert np.linalg.norm(sets[0].project(z) - want) <= 1e-8 * (
            1.0 + np.linalg.norm(x0)
        )


def test_shadow_bound_for_arbitrary_points():
    # ||P1(z) - PM(x0)|| <= ||z - PFix(x0)|| for any z, by nonexpansivity
    rng = np.random.default_rng(43)
    for _ in range(10):
        sets, _ = random_affine_instance(rng, d=6, n=2)
        fix = fixset_dr(sets[0], sets[1])
        x0 = 4.0 * rng.standard_normal(6)
        pm = exact_projection(x0, sets)
        pfix = fix.project(x0)
        z = 5.0 * rng.standard_normal(6)
        lhs = np.linalg.norm(sets[0].project(z) - pm)
        assert lhs <= np.linalg.norm(z - pfix) + 1e-10


def test_fqne_cycle_of_halfspaces():
    rng = np.random.default_rng(44)
    halfspaces, m = strictly_feasible_halfspaces(rng, 4, 3)
    cycle = CycleOperator(tuple(halfspaces))
    assert np.linalg.norm(cycle.apply(m) - m) <= 1e-14
    x = 5.0 * rng.standard_normal(4)
    tr = cycle.apply_with_trace(x)
    assert len(tr.stages) == 4
    fast, inc = cycle.apply_with_increments(x)
    assert np.array_equal(fast, tr.last)
    assert np.allclose(inc, tr.increments_sq, rtol=1e-12, atol=1e-300)



def test_dr_rejects_halfspace():
    h = HalfSpace(np.array([1.0, 0.0]), 1.0)
    line = Hyperplane(np.array([0.0, 1.0]), 0.0)
    with pytest.raises(TypeError):
        DouglasRachfordOperator(h, line)
    with pytest.raises(TypeError):
        DouglasRachfordOperator(line, h)
