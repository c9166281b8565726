"""Closed-form projections, Friederichs angles, contraction constants."""

import math

import numpy as np
import pytest
from scipy.linalg import null_space, subspace_angles

from cycproj.acceleration import NumericalFailureError, SolveConfig, StepRule, solve
from cycproj.analysis import (
    exact_projection,
    friederichs_cosine,
    rate_constant,
)
from cycproj.geometry import HalfSpace, Hyperplane, InfeasibleProblemError, Span
from cycproj.operators import CycleOperator, fixset_dr

from conftest import (
    NULL_RCOND,
    contraction_factors,
    lstsq_projection,
    orthonormal_columns,
    parallel_basis,
    random_affine_instance,
    random_hyperplane_through,
    random_span_through,
    shifted,
    stack_fixset_basis,
    stack_friederichs_cosine,
    stack_rate_cosines,
    stacked_rows,
)


def test_exact_projection_single_set_matches_projector():
    rng = np.random.default_rng(60)
    h = Hyperplane(rng.standard_normal(5), 1.3)
    x0 = 4.0 * rng.standard_normal(5)
    assert np.linalg.norm(exact_projection(x0, [h]) - h.project(x0)) <= 1e-12
    s = Span(rng.standard_normal(5), orthonormal_columns(rng, 5, 2))
    assert np.linalg.norm(exact_projection(x0, [s]) - s.project(x0)) <= 1e-10
    # a duplicated constraint changes nothing despite the rank deficiency
    both = exact_projection(x0, [h, h])
    assert np.linalg.norm(both - h.project(x0)) <= 1e-10
    # all of R^5 stacks no constraint rows, so x0 comes back unchanged
    whole = Span(rng.standard_normal(5), np.eye(5))
    assert np.array_equal(exact_projection(x0, [whole]), x0)


def test_exact_projection_two_lines_frozen():
    sets = [
        Hyperplane(np.array([1.0, 1.0]), 2.0),
        Hyperplane(np.array([1.0, -1.0]), 0.0),
    ]
    p = exact_projection(np.array([-3.0, 7.0]), sets)
    assert np.linalg.norm(p - np.array([1.0, 1.0])) <= 1e-12


def test_exact_projection_matches_stacked_oracle():
    rng = np.random.default_rng(61)
    for _ in range(15):
        sets, _ = random_affine_instance(rng)
        x0 = 5.0 * rng.standard_normal(sets[0].dim)
        got = exact_projection(x0, sets)
        want = lstsq_projection(x0, sets)
        assert np.linalg.norm(got - want) <= 1e-8 * (1.0 + np.linalg.norm(x0))


def test_exact_projection_agrees_with_long_plain_iteration():
    rng = np.random.default_rng(62)
    sets, _ = random_affine_instance(rng, d=6, n=3)
    x0 = 5.0 * rng.standard_normal(6)
    tr = solve(
        CycleOperator(tuple(sets)),
        StepRule("unit"),
        x0,
        SolveConfig(eps=1e-12, max_iter=500_000, store_every=0),
    )
    assert tr.converged
    assert np.linalg.norm(tr.final - exact_projection(x0, sets)) <= 1e-6


def test_exact_projection_keeps_feasible_start():
    rng = np.random.default_rng(63)
    sets, p = random_affine_instance(rng, d=6, n=3)
    assert np.linalg.norm(exact_projection(p, sets) - p) <= 1e-10 * (
        1.0 + np.linalg.norm(p)
    )


def test_exact_projection_full_row_rank_is_consistent():
    # A x = b with 200 independent rows is solvable for every b.  With
    # singular values down to 1/9e9 the residual of A^+ b is rounding near
    # the FEAS_TOL scale, and a residual test on it called draws 3 and 5
    # infeasible.  The min-norm solution is good to about cond * eps.
    cond = 9e9
    sv = np.logspace(0.0, -np.log10(cond), 200)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        u, _ = np.linalg.qr(rng.standard_normal((200, 200)))
        v, _ = np.linalg.qr(rng.standard_normal((400, 200)))
        a = (u * sv) @ v.T
        b = 100.0 * (u[:, -1] + 1e-3 * rng.standard_normal(200))
        p = exact_projection(np.zeros(400), [Hyperplane(a[i], b[i]) for i in range(200)])
        want = v @ ((u.T @ b) / sv)
        eps = np.finfo(float).eps
        assert np.linalg.norm(p - want) <= 10 * cond * eps * np.linalg.norm(want)


def test_exact_projection_input_validation():
    h = Hyperplane(np.array([1.0, 0.0]), 0.0)
    with pytest.raises(ValueError, match="^need at least one set$"):
        exact_projection(np.zeros(2), [])
    # A non-finite start is refused before any work.
    for x0 in ([np.nan, 0.0], [np.inf, 0.0]):
        with pytest.raises(ValueError, match="^x0 must be finite$"):
            exact_projection(x0, [h])
    with pytest.raises(TypeError):
        exact_projection(np.zeros(2), [HalfSpace(np.array([1.0, 0.0]), 1.0)])
    with pytest.raises(ValueError):
        exact_projection(np.zeros(3), [h])
    with pytest.raises(InfeasibleProblemError):
        exact_projection(
            np.zeros(2), [h, Hyperplane(np.array([2.0, 0.0]), 5.0)]
        )
    # A gap is a distance, whatever the row's norm: the third line is the
    # second (|a| = 4.2e-3) moved 4.3e-3 or 1e-3, beside a row of norm 323.
    # In units of b the residuals, 1.3e-5 and 3.0e-6, sit below 9e-4.
    long = 323.0 * np.array([math.cos(0.4), math.sin(0.4)])
    short = 4.2e-3 * np.array([math.cos(2.0), math.sin(2.0)])
    xstar = np.array([2.5, 1.2])
    for gap in (4.3e-3, 1e-3):
        moved = Hyperplane(short, short @ xstar + gap * np.linalg.norm(short))
        lines = [Hyperplane(long, long @ xstar), Hyperplane(short, short @ xstar)]
        with pytest.raises(InfeasibleProblemError):
            exact_projection(np.zeros(2), lines + [moved])
    # A x0 overflows: a non-finite target is an error, not a result
    diagonals = [
        Hyperplane(np.array([1.0, 1.0]), 0.0),
        Hyperplane(np.array([1.0, -1.0]), 0.0),
    ]
    with np.errstate(all="ignore"), pytest.raises(NumericalFailureError):
        exact_projection(np.array([1e308, 1e308]), diagonals)


def test_friederichs_two_lines_frozen():
    u = np.array([[1.0], [0.0]])
    v = np.array([[math.cos(0.3)], [math.sin(0.3)]])
    assert abs(friederichs_cosine(u, v) - math.cos(0.3)) <= 1e-12


def test_friederichs_orthogonal_and_contained_cases():
    e = np.eye(4)
    assert friederichs_cosine(e[:, :1], e[:, 1:2]) == 0.0
    # containment in either direction collapses to the empty supremum
    assert friederichs_cosine(e[:, :1], e[:, :2]) == 0.0
    assert friederichs_cosine(e[:, :2], e[:, :1]) == 0.0
    assert friederichs_cosine(e[:, :2], e[:, :2]) == 0.0
    # identical lines, one basis 5e-9 off unit length: repaired as a Span's
    # basis is, so they still coincide
    assert friederichs_cosine(np.array([[1 + 5e-9], [0.0]]), e[:2, :1]) == 0.0


def test_friederichs_shared_direction_is_deflated():
    # two planes in R^3 hinged along e3, opened by 0.3 radians
    u = np.column_stack([np.array([0.0, 0.0, 1.0]), np.array([1.0, 0.0, 0.0])])
    v = np.column_stack(
        [
            np.array([0.0, 0.0, 1.0]),
            np.array([math.cos(0.3), math.sin(0.3), 0.0]),
        ]
    )
    assert abs(friederichs_cosine(u, v) - math.cos(0.3)) <= 1e-10


def test_friederichs_symmetry():
    rng = np.random.default_rng(64)
    for _ in range(10):
        u = orthonormal_columns(rng, 7, int(rng.integers(1, 4)))
        v = orthonormal_columns(rng, 7, int(rng.integers(1, 4)))
        assert abs(friederichs_cosine(u, v) - friederichs_cosine(v, u)) <= 1e-10


def test_friederichs_matches_principal_angle_oracle():
    rng = np.random.default_rng(65)
    for _ in range(10):
        d = 8
        shared = orthonormal_columns(rng, d, 2)
        # extend the shared block by independent directions on either side
        qa, _ = np.linalg.qr(np.column_stack([shared, rng.standard_normal((d, 2))]))
        qb, _ = np.linalg.qr(np.column_stack([shared, rng.standard_normal((d, 3))]))
        angles = subspace_angles(qa, qb)
        nonzero = [a for a in angles if a > 1e-6]
        want = math.cos(min(nonzero)) if nonzero else 0.0
        got = friederichs_cosine(qa, qb)
        assert abs(got - want) <= 1e-8


def test_friederichs_input_validation():
    with pytest.raises(ValueError):
        friederichs_cosine(np.ones((3, 2)), np.eye(3)[:, :1])  # not orthonormal
    # LinAlgError is a ValueError too; the basis check must name the cause
    with pytest.raises(ValueError, match="finite"):
        friederichs_cosine(np.full((3, 1), np.nan), np.eye(3)[:, :1])
    with pytest.raises(ValueError, match=r"with d = 3, got shape \(4, 1\)"):
        friederichs_cosine(np.eye(3)[:, :1], np.eye(4)[:, :1])
    # A basis is a (d, r) array only: not a list of vectors, a vector, or 3-D.
    e = np.eye(3)
    for basis, got in (([e[:, 0]], "list"), (e[:, 0], r"shape \(3,\)"),
                       (e[:, :, None], r"shape \(3, 3, 1\)")):
        with pytest.raises(ValueError, match=rf"\(d, r\) array, got {got}"):
            friederichs_cosine(basis, e[:, :1])
        with pytest.raises(ValueError, match=rf"\(d, r\) array with d = 3, got {got}"):
            friederichs_cosine(e[:, :1], basis)


def test_rate_constant_two_lines_frozen():
    theta = math.pi / 4
    sets = [
        Hyperplane(np.array([0.0, 1.0]), 0.0),
        Hyperplane(np.array([-math.sin(theta), math.cos(theta)]), 0.0),
    ]
    report = rate_constant(sets)
    assert len(report.cosines) == 1
    assert abs(report.cosines[0] - math.cos(theta)) <= 1e-12
    assert abs(report.constant - math.cos(theta)) <= 1e-12


def test_rate_constant_orthogonal_sets_vanishes():
    sets = [Hyperplane(row.copy(), float(i)) for i, row in enumerate(np.eye(3))]
    report = rate_constant(sets)
    assert report.cosines == (0.0, 0.0)
    assert report.constant == 0.0
    # one full pass then solves the problem outright
    tr = solve(
        CycleOperator(tuple(sets)),
        StepRule("unit"),
        np.array([3.0, -2.0, 7.0]),
        SolveConfig(eps=1e-12),
    )
    assert tr.converged and tr.iterations <= 2


def test_rate_constant_translation_invariant():
    rng = np.random.default_rng(66)
    sets, _ = random_affine_instance(rng, d=6, n=3)
    v = rng.standard_normal(6)
    a = rate_constant(sets)
    b = rate_constant([shifted(s, v) for s in sets])
    assert a.cosines == pytest.approx(b.cosines, abs=1e-12)
    assert a.constant == pytest.approx(b.constant, abs=1e-12)


def test_rate_constant_input_validation():
    h = Hyperplane(np.array([1.0, 0.0]), 0.0)
    with pytest.raises(ValueError):
        rate_constant([h])
    with pytest.raises(TypeError):
        rate_constant([h, HalfSpace(np.array([0.0, 1.0]), 0.0)])
    with pytest.raises(ValueError, match="ambient dimension"):
        rate_constant([h, h, Hyperplane(np.array([1.0, 0.0, 0.0]), 0.0)])


def test_rate_bound_shapes_and_monotonicity():
    report = rate_constant(
        [
            Hyperplane(np.array([0.0, 1.0]), 0.0),
            Hyperplane(np.array([-math.sin(0.5), math.cos(0.5)]), 0.0),
        ]
    )
    assert report.constant ** 0 == 1.0
    ks = np.arange(6)
    vals = report.constant ** ks
    assert vals.shape == (6,)
    assert np.all(np.diff(vals) < 0.0)


def test_rate_constant_bounds_observed_contraction():
    rng = np.random.default_rng(67)
    for _ in range(5):
        sets, _ = random_affine_instance(rng, d=6, n=3, linear=True)
        report = rate_constant(sets)
        if report.constant < 1e-6 or report.constant > 1.0 - 1e-8:
            continue
        x0 = 5.0 * rng.standard_normal(6)
        xstar = exact_projection(x0, sets)
        tr = solve(
            CycleOperator(tuple(sets)),
            StepRule("unit"),
            x0,
            SolveConfig(eps=1e-9, solution=xstar, max_iter=50_000),
        )
        assert tr.converged
        d0 = tr.initial_dist
        for k, dist, factor in zip(tr.ks, tr.dists, contraction_factors(tr, 1e-9)):
            assert dist <= d0 * float(report.constant ** k) + 1e-9 * (1.0 + d0)
            if factor is not None and dist > 1e-8 * (1.0 + d0):
                assert factor <= report.constant + 1e-6


def random_mixed_sets(rng):
    """Two to four sets through one point, with each set's kind.

    Kinds: a random hyperplane or span, a point (parallel subspace {0}),
    a hyperplane parallel to an earlier one (rescaled, and half the time
    shifted off the common point), and a span inside an earlier span.
    """
    d = int(rng.integers(2, 9))
    p = 3.0 * rng.standard_normal(d)
    sets, kinds = [], []
    for _ in range(int(rng.integers(2, 5))):
        kind = str(rng.choice(["hyperplane", "span", "point", "parallel", "nested"]))
        hyperplanes = [s for s in sets if isinstance(s, Hyperplane)]
        spans = [s for s in sets if isinstance(s, Span) and s.rank > 1]
        if kind == "parallel" and hyperplanes:
            h = hyperplanes[int(rng.integers(len(hyperplanes)))]
            scale = float(rng.uniform(0.5, 2.0))
            shift = float(rng.standard_normal()) if rng.random() < 0.5 else 0.0
            s = Hyperplane(scale * h.normal, scale * h.offset + shift)
        elif kind == "nested" and spans:
            big = spans[int(rng.integers(len(spans)))]
            r = int(rng.integers(1, big.rank))
            s = Span(big.anchor, big.basis @ orthonormal_columns(rng, big.rank, r))
        elif kind == "point":
            s = Span(p, np.zeros((d, 0)))
        elif kind == "span":
            s = random_span_through(rng, p, int(rng.integers(1, d)))
        else:
            kind = "hyperplane"
            s = random_hyperplane_through(rng, p)
        sets.append(s)
        kinds.append(kind)
    return sets, kinds


def test_row_space_analysis_matches_projector_stack_route():
    # rate_constant and fixset_dr work in constraint-row space; the oracles
    # take the same quantities from dense parallel-subspace bases and the
    # 2d x d projector stack.
    rng = np.random.default_rng(68)
    cases = [random_mixed_sets(rng) for _ in range(240)]
    # The same hyperplane twice: stacked rows of rank exactly 1.
    h = random_hyperplane_through(rng, rng.standard_normal(5))
    cases.append(([h, h], ["hyperplane", "hyperplane"]))
    seen = dict.fromkeys(["hyperplane", "span", "point", "parallel", "nested"], 0)
    infeasible = 0
    # Fixed-set pairs whose stacked rows have full column rank (two points:
    # an empty null space) and pairs whose rows are linearly dependent.
    full_rank = deficient = 0
    for sets, kinds in cases:
        for kind in kinds:
            seen[kind] += 1
        report = rate_constant(sets)
        want = stack_rate_cosines(sets)
        assert np.max(np.abs(np.array(report.cosines) - want)) <= 1e-12, kinds
        prod = np.prod([1.0 - c * c for c in want])
        assert abs(report.constant - math.sqrt(min(max(1.0 - prod, 0.0), 1.0))) <= 1e-12
        tail = null_space(stacked_rows(sets[1:])[0], rcond=NULL_RCOND)
        first = parallel_basis(sets[0])
        direct = friederichs_cosine(first, tail)
        assert abs(direct - stack_friederichs_cosine(first, tail)) <= 1e-12

        try:
            fix = fixset_dr(sets[0], sets[1])
        except InfeasibleProblemError:
            a, b = stacked_rows(sets[:2])
            y, *_ = np.linalg.lstsq(a, b, rcond=None)
            assert np.linalg.norm(a @ y - b) > 1e-6, kinds
            infeasible += 1
            continue
        basis = stack_fixset_basis(sets[0], sets[1])
        assert fix.rank == basis.shape[1], kinds
        gap = np.max(np.abs(fix.basis @ fix.basis.T - basis @ basis.T))
        assert gap <= 1e-12, kinds
        a = stacked_rows(sets[:2])[0]
        rank = a.shape[1] - null_space(a, rcond=NULL_RCOND).shape[1]
        full_rank += rank == a.shape[1]
        deficient += rank < a.shape[0]
    assert min(seen.values()) >= 20 and infeasible > 0, (seen, infeasible)
    assert full_rank > 0 and deficient > 0, (full_rank, deficient)
