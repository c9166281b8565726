"""Projector and reflector properties of affine sets and half-spaces."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycproj.geometry import (
    DimensionMismatchError,
    HalfSpace,
    Hyperplane,
    Span,
)
from cycproj.operators import CycleOperator

from conftest import (
    distance,
    orthonormal_columns,
    random_affine_instance,
    sample_point,
    span_form,
    textbook_projection,
    translate_check,
)

IDEM_TOL = 1e-12
ORTH_TOL = 1e-10
ADJ_TOL = 1e-10
TRANS_TOL = 1e-10
FQNE_REL_TOL = 1e-9


def kkt_projection(x, a, b):
    """Oracle: minimise ||p - x||^2 subject to <a, p> = b via the KKT system."""
    d = x.shape[0]
    kkt = np.zeros((d + 1, d + 1))
    kkt[:d, :d] = np.eye(d)
    kkt[:d, d] = a
    kkt[d, :d] = a
    rhs = np.concatenate([x, [b]])
    sol = np.linalg.solve(kkt, rhs)
    return sol[:d]


def test_hyperplane_projection_matches_kkt_oracle():
    a = np.array([1.0, 1.0])
    x = np.array([3.0, 4.0])
    oracle = kkt_projection(x, a, 1.0)
    assert np.allclose(oracle, [0.0, 1.0], atol=1e-12)
    assert np.allclose(Hyperplane(a, 1.0).project(x), oracle, atol=1e-12)

    rng = np.random.default_rng(11)
    for _ in range(25):
        d = int(rng.integers(2, 9))
        a = rng.standard_normal(d)
        b = float(rng.standard_normal())
        x = 3.0 * rng.standard_normal(d)
        got = Hyperplane(a, b).project(x)
        want = kkt_projection(x, a, b)
        assert np.allclose(got, want, atol=1e-10)


def test_reflect_example():
    h = Hyperplane(np.array([1.0, 1.0]), 1.0)
    x = np.array([3.0, 4.0])
    assert np.allclose(2.0 * h.project(x) - x, [-3.0, -2.0], atol=1e-12)


def test_span_projection_matches_lstsq_oracle():
    rng = np.random.default_rng(12)
    for _ in range(25):
        d = int(rng.integers(2, 9))
        r = int(rng.integers(0, d))
        q, _ = np.linalg.qr(rng.standard_normal((d, max(r, 1))))
        s = Span(rng.standard_normal(d), q[:, :r])
        x = 3.0 * rng.standard_normal(d)
        coeffs, *_ = np.linalg.lstsq(s.basis, x - s.anchor, rcond=None)
        want = s.anchor + s.basis @ coeffs
        assert np.allclose(s.project(x), want, atol=1e-10)


def test_singleton_span_projects_to_anchor():
    s = Span(np.array([2.0, -1.0, 0.5]), np.zeros((3, 0)))
    assert np.array_equal(s.project(np.array([9.0, 9.0, 9.0])), s.anchor)


def test_span_constraint_rows_complete_the_basis():
    # Orthonormal rows orthogonal to the basis, d - rank of them, met by
    # every point of the span; a point (rank 0) gets exactly the identity.
    rng = np.random.default_rng(23)
    for d in (1, 2, 5, 9):
        for r in range(d + 1):
            s = Span(rng.standard_normal(d), orthonormal_columns(rng, d, r))
            rows, vals = s.constraint_rows()
            assert rows.shape == (d - s.rank, d)
            assert np.allclose(rows @ rows.T, np.eye(d - r), rtol=0, atol=1e-12)
            assert np.allclose(rows @ s.basis, 0.0, rtol=0, atol=1e-12)
            p = sample_point(rng, s)
            assert np.allclose(rows @ p, vals, rtol=0, atol=1e-10 * (1 + np.abs(p).max()))
            if r == 0:
                assert np.array_equal(rows, np.eye(d))


def test_halfspace_projection():
    h = HalfSpace(np.array([1.0, 0.0]), 1.0)
    assert np.allclose(h.project(np.array([3.0, 0.0])), [1.0, 0.0])
    # A feasible point comes back as the same object, with gap 0.0.
    inside = np.array([0.25, -4.0])
    assert h.project(inside) is inside
    p, gap = h.project_with_gap(inside)
    assert p is inside and gap == 0.0
    # So does a point on the boundary, where the slack is exactly 0.0.
    boundary = np.array([1.0, 7.0])
    p, gap = h.project_with_gap(boundary)
    assert p is boundary and gap == 0.0


def test_halfspace_result_is_feasible():
    rng = np.random.default_rng(13)
    for _ in range(50):
        d = int(rng.integers(1, 7))
        a = rng.standard_normal(d)
        while np.linalg.norm(a) < 0.1:
            a = rng.standard_normal(d)
        h = HalfSpace(a, float(rng.standard_normal()))
        x = 4.0 * rng.standard_normal(d)
        p = h.project(x)
        assert h.normal @ p <= h.offset + 1e-12 * (1.0 + abs(h.offset))


def test_projectors_are_bitwise_the_textbook_formula():
    # The projectors compute the coefficient as a Python float, which is the
    # same IEEE arithmetic as the formula's numpy scalars: every bit agrees.
    # |normal|^2 is np.vdot, the same ddot as @, for contiguous and strided
    # normals alike.
    rng = np.random.default_rng(2007)
    for d in (2, 400, 2000):
        for scale in (1e-150, 1e-100, 1e-50, 1.0, 1e50, 1e100, 1e150):
            a, p, x = scale * rng.standard_normal((3, d))
            strided = np.repeat(a, 3)[1::3]
            for kind, normal in ((Hyperplane, a), (HalfSpace, a),
                                 (Hyperplane, strided)):
                s = kind(normal, float(a @ p))
                assert s._nsq == float(normal @ normal)
                # x and its mirror through p have slacks of opposite signs.
                for z in (x, 2.0 * p - x):
                    want, want_gap = textbook_projection(s, z)
                    got, gap = s.project_with_gap(z)
                    assert np.array_equal(s.project(z), want)
                    assert np.array_equal(got, want) and gap == want_gap
    # So are the rows of an F-order matrix, which from_rows keeps as views.
    rows = np.asfortranarray(rng.standard_normal((8, 400)))
    for s, row in zip(CycleOperator.from_rows(rows, np.zeros(8)).sets, rows):
        assert not s.normal.flags.c_contiguous and s._nsq == float(row @ row)


def test_dimension_mismatch_raises():
    h = Hyperplane(np.array([1.0, 1.0]), 1.0)
    # The check comes before any product: a dot product of mismatched
    # operands would raise a plain ValueError instead.
    for s in (h, HalfSpace(h.normal, h.offset)):
        for method in (s.project, s.project_with_gap):
            for x in (np.array([1.0, 2.0, 3.0]), np.array([1.0])):
                with pytest.raises(DimensionMismatchError):
                    method(x)
    with pytest.raises(DimensionMismatchError):
        translate_check(np.array([1.0, 2.0]), h, np.array([1.0, 2.0, 3.0]))


def test_span_orthonormality_repair_and_rejection():
    base = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    drifted = base + 1e-9 * np.ones((3, 2))
    s = Span(np.zeros(3), drifted)
    gram = s.basis.T @ s.basis
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-12

    with pytest.raises(ValueError):
        Span(np.zeros(3), base + 1e-3 * np.ones((3, 2)))
    # A finite basis whose Gram matrix overflows (to inf, or to inf - inf =
    # nan off the diagonal) is rejected without a numpy overflow warning.
    for basis in ([[1e200], [0.0]], [[1e200, 1e200], [1e200, -1e200]]):
        with pytest.raises(ValueError, match="not orthonormal"):
            Span(np.zeros(2), np.array(basis))
    # A basis is a (d, r) array with the anchor's d, and nothing else.
    for basis, got in ((np.array([1.0, 0.0]), r"shape \(2,\)"),
                       ([[1.0], [0.0]], "list"), (np.eye(3)[:, :1], r"shape \(3, 1\)")):
        with pytest.raises(ValueError, match=rf"\(d, r\) array with d = 2, got {got}"):
            Span(np.zeros(2), basis)


def test_normal_form_failures():
    # No np.errstate here: a RuntimeWarning that leaks out of the check
    # fails the test under the suite's error::RuntimeWarning filter.
    non_finite = [
        ([1.0, np.nan], 0.0),
        ([np.inf, 1.0], 0.0),
        ([1.0, 2.0], np.inf),
        ([1.0, 2.0], np.nan),
        ([0.0, 0.0], np.nan),
    ]
    # Zero, overflowing (residuals would read 0 and projections stall; short,
    # long and strided) and underflowing squared norms.
    degenerate = [([0.0, 0.0, 0.0], 1.0), ([1e200, 1e200], 0.0), ([1e-200], 0.0),
                  ([1e155] * 2000, 0.0), (np.full(6000, 1e155)[::3], 0.0)]
    for kind, what in ((Hyperplane, "hyperplane"), (HalfSpace, "half-space")):
        for normal, offset in non_finite:
            with pytest.raises(ValueError, match=f"^{what} data must be finite$"):
                kind(np.array(normal), offset)
        for normal, offset in degenerate:
            message = f"^{what} normal must be nonzero, with a finite squared norm$"
            with pytest.raises(ValueError, match=message):
                kind(np.asarray(normal), offset)


def test_idempotence():
    rng = np.random.default_rng(14)
    for _ in range(60):
        sets, _ = random_affine_instance(rng)
        x = 5.0 * rng.standard_normal(sets[0].dim)
        for s in sets:
            p = s.project(x)
            assert np.linalg.norm(s.project(p) - p) <= IDEM_TOL * (
                1.0 + np.linalg.norm(x)
            )


def test_orthogonality_against_sampled_points():
    rng = np.random.default_rng(15)
    for _ in range(40):
        sets, _ = random_affine_instance(rng)
        x = 4.0 * rng.standard_normal(sets[0].dim)
        for s in sets:
            p = s.project(x)
            for _ in range(3):
                q = sample_point(rng, s)
                inner = abs((x - p) @ (q - p))
                assert inner <= ORTH_TOL * (1.0 + np.linalg.norm(x)) * (
                    1.0 + np.linalg.norm(q)
                )


def test_linear_projector_is_self_adjoint():
    rng = np.random.default_rng(16)
    for _ in range(40):
        sets, _ = random_affine_instance(rng, linear=True)
        d = sets[0].dim
        x = rng.standard_normal(d)
        y = rng.standard_normal(d)
        for s in sets:
            lhs = s.project(x) @ y
            rhs = x @ s.project(y)
            assert abs(lhs - rhs) <= ADJ_TOL * max(
                1.0, np.linalg.norm(x) * np.linalg.norm(y)
            )


def test_translation_identity():
    rng = np.random.default_rng(17)
    for _ in range(40):
        sets, _ = random_affine_instance(rng, d=5)
        x = 4.0 * rng.standard_normal(5)
        y = 3.0 * rng.standard_normal(5)
        for s in sets:
            direct = s.project(x)
            via = translate_check(x, s, y)
            assert np.linalg.norm(direct - via) <= TRANS_TOL * (
                1.0 + np.linalg.norm(x)
            )
    # y = 0 keeps the same arithmetic scale, so agreement is much tighter
    h = Hyperplane(np.array([1.0, -2.0, 0.5]), 0.7)
    x = np.array([1.0, 2.0, 3.0])
    assert np.allclose(
        translate_check(x, h, np.zeros(3)), h.project(x), atol=1e-14
    )


def test_halfspace_translation_identity():
    rng = np.random.default_rng(18)
    for _ in range(20):
        d = int(rng.integers(1, 6))
        h = HalfSpace(rng.standard_normal(d) + 0.1, float(rng.standard_normal()))
        x = 4.0 * rng.standard_normal(d)
        y = 3.0 * rng.standard_normal(d)
        assert np.linalg.norm(
            translate_check(x, h, y) - h.project(x)
        ) <= TRANS_TOL * (1.0 + np.linalg.norm(x))


def test_affine_projector_pythagoras():
    # equality form of firm quasi-nonexpansivity for affine targets
    rng = np.random.default_rng(19)
    for _ in range(40):
        sets, _ = random_affine_instance(rng)
        x = 4.0 * rng.standard_normal(sets[0].dim)
        for s in sets:
            p = s.project(x)
            y = sample_point(rng, s)
            lhs = np.linalg.norm(p - y) ** 2 + np.linalg.norm(x - p) ** 2
            rhs = np.linalg.norm(x - y) ** 2
            assert abs(lhs - rhs) <= FQNE_REL_TOL * max(1.0, rhs)


def test_halfspace_projector_is_firmly_quasi_nonexpansive():
    rng = np.random.default_rng(20)
    for _ in range(40):
        d = int(rng.integers(2, 6))
        h = HalfSpace(rng.standard_normal(d) + 0.1, float(rng.standard_normal()))
        x = 4.0 * rng.standard_normal(d)
        p = h.project(x)
        # any feasible y qualifies as a fixed point of the projector
        y = 4.0 * rng.standard_normal(d)
        y = h.project(y)
        lhs = np.linalg.norm(p - y) ** 2 + np.linalg.norm(x - p) ** 2
        rhs = np.linalg.norm(x - y) ** 2
        assert lhs <= rhs + 1e-9 * max(1.0, rhs)


def test_reflection_is_involution_for_linear_sets():
    rng = np.random.default_rng(21)
    for _ in range(30):
        sets, _ = random_affine_instance(rng, linear=True)
        x = 3.0 * rng.standard_normal(sets[0].dim)
        for s in sets:
            r = 2.0 * s.project(x) - x
            back = 2.0 * s.project(r) - r
            assert np.linalg.norm(back - x) <= 1e-10 * (1.0 + np.linalg.norm(x))


def test_hyperplane_span_form_agrees():
    rng = np.random.default_rng(22)
    for _ in range(25):
        d = int(rng.integers(2, 9))
        h = Hyperplane(rng.standard_normal(d) + 0.05, float(rng.standard_normal()))
        s = span_form(h)
        x = 4.0 * rng.standard_normal(d)
        assert np.linalg.norm(h.project(x) - s.project(x)) <= 1e-10 * (
            1.0 + np.linalg.norm(x)
        )
        assert distance(h, s.anchor) <= 1e-12


@given(
    st.integers(2, 6),
    st.integers(0, 2 ** 32 - 1),
    st.floats(-5.0, 5.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_projection_shrinks_distance_property(d, seed, b):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(d)
    if np.linalg.norm(a) < 1e-3:
        a = np.ones(d)
    h = Hyperplane(a, b)
    x = 5.0 * rng.standard_normal(d)
    p = h.project(x)
    assert distance(h, p) <= 1e-10 * (1.0 + np.linalg.norm(x))
    q = h.project(p)
    assert np.linalg.norm(q - p) <= IDEM_TOL * (1.0 + np.linalg.norm(x))


@given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
@settings(max_examples=60, deadline=None)
def test_halfspace_projection_never_increases_residual(d, seed):
    rng = np.random.default_rng(seed)
    h = HalfSpace(rng.standard_normal(d) + 0.1, float(rng.standard_normal()))
    x = 5.0 * rng.standard_normal(d)
    assert distance(h, h.project(x)) <= 1e-10 * (1.0 + np.linalg.norm(x))
