"""Differential verdicts on random small affine systems.

Each draw is run by every solve method through the library's `solve` and
through `cycproj solve` on the same draw written as a problem file, once
with the exact-projection oracle and once past it, where the stop check
alone decides.  `exact_projection` is the truth: its InfeasibleProblemError
marks an inconsistent draw.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import cycproj.cli
from cycproj.acceleration import SolveConfig, solve
from cycproj.analysis import exact_projection
from cycproj.cli import PLANS, SOLVE_METHODS, build_operator, main
from cycproj.geometry import Hyperplane, InfeasibleProblemError, Span
from cycproj.operators import fixset_dr

from conftest import GK_IDENTITY_TOL, gk_identity_misfits

EPS = 1e-9
MAX_ITER = 300
# A Gaussian draw counts as well conditioned when its stacked rows' singular
# values lie within this ratio.  Given its solution, each method met eps
# within 132 updates on the 291 such draws among 400 (d from 2 to 7).
WELL_CONDITIONED = 5.0
ROW_FAMILIES = ("gaussian", "duplicated", "nearly-parallel", "rank-deficient", "scaled")
CONSISTENCY = ("consistent", "random-b", "shifted-duplicate")
# Fixed draws; the explain phase is left out, since its imports warn.
DRAWS = settings(
    max_examples=25,
    derandomize=True,
    deadline=None,
    phases=[p for p in Phase if p is not Phase.explain],
)
# The exit code `cycproj solve` gives each stop of the library's solve.
EXIT_CODES = {"converged": 0, "stalled": 2, "max-iter": 2, "inconsistent": 3}


def _rotated(rng, row, angle):
    """row turned by angle in a random plane through it, its norm kept."""
    u = rng.standard_normal(row.shape[0])
    u -= (u @ row) / (row @ row) * row
    u *= np.linalg.norm(row) / np.linalg.norm(u)
    return math.cos(angle) * row + math.sin(angle) * u


def _rows(rng, family, n, d):
    """n rows in R^d: Gaussian, or degenerate in the family's way."""
    a = rng.standard_normal((n, d))
    if family == "duplicated":
        for i in range(1, n):
            if i == n - 1 or rng.random() < 0.5:
                a[i] = a[rng.integers(i)]
    elif family == "nearly-parallel":
        for i in range(1, n):
            if i == n - 1 or rng.random() < 0.5:
                angle = 10.0 ** rng.uniform(-6.0, -3.0)
                a[i] = _rotated(rng, a[rng.integers(i)], angle)
    elif family == "rank-deficient":
        r = int(rng.integers(1, min(n, d)))
        a = rng.standard_normal((n, r)) @ rng.standard_normal((r, d))
    elif family == "scaled":
        a *= 10.0 ** rng.uniform(-3.0, 3.0, size=(n, 1))
    return a


@st.composite
def draws(draw, family):
    """(x0, sets) of one random system whose rows come from `family`.

    n sets in R^d, up to two of them `point` Spans, with b = A x*, a random
    b, or the last row a copy of an earlier one shifted by a gap of 1e-3
    to 1.  Points sit at x* except under a random b.
    """
    d = draw(st.integers(2, 7))
    n = draw(st.integers(2, 3 * d))
    points = draw(st.integers(0, min(2, n - 2)))
    consistency = draw(st.sampled_from(CONSISTENCY))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = _rows(rng, family, n - points, d)
    xstar = 3.0 * rng.standard_normal(d)
    b = a @ xstar
    if consistency == "random-b":
        b = 3.0 * np.linalg.norm(a, axis=1) * rng.standard_normal(len(b))
        xstar = 3.0 * rng.standard_normal(d)
    elif consistency == "shifted-duplicate":
        j = int(rng.integers(len(b) - 1))
        gap = 10.0 ** rng.uniform(-3.0, 0.0)
        a[-1], b[-1] = a[j], b[j] + gap * np.linalg.norm(a[j])
    sets = [Hyperplane(row, float(value)) for row, value in zip(a, b)]
    sets += [Span(xstar, np.zeros((d, 0))) for _ in range(points)]
    order = rng.permutation(n)
    return 5.0 * rng.standard_normal(d), [sets[i] for i in order]


def _write(path, x0, sets):
    """The draw as a problem file, every float written exactly."""

    def numbers(values):
        return " ".join(repr(float(v)) for v in values)

    lines = [f"dim {x0.shape[0]}", "x0 " + numbers(x0)]
    for s in sets:
        if isinstance(s, Hyperplane):
            lines.append(f"hyperplane {numbers(s.normal)} {s.offset!r}")
        else:
            lines.append("point " + numbers(s.anchor))
    path.write_text("\n".join(lines) + "\n")


def _library_stop(op, rule, x0, solution=None):
    """The library's trace and its stop, "inconsistent" where solve raises."""
    cfg = SolveConfig(eps=EPS, max_iter=MAX_ITER, solution=solution)
    try:
        trace = solve(op, rule, x0, cfg)
    except InfeasibleProblemError:
        return None, "inconsistent"
    return trace, trace.stop


def _cli_exit(problem, method, oracle):
    """cycproj solve's exit code and stderr, past the oracle unless `oracle`."""
    limit = cycproj.cli.ORACLE_SIZE_LIMIT if oracle else 0
    args = ["solve", str(problem), "--method", method, "--eps", str(EPS),
            "--max-iter", str(MAX_ITER), "--store-every", "0",
            "--out", str(problem.with_suffix(".csv"))]
    err = io.StringIO()
    with mock.patch.object(cycproj.cli, "ORACLE_SIZE_LIMIT", limit):
        with contextlib.redirect_stderr(err):
            code = main(args)
    return code, err.getvalue()


def _well_conditioned(family, sets):
    if family != "gaussian" or not all(isinstance(s, Hyperplane) for s in sets):
        return False
    sing = np.linalg.svd(np.array([s.normal for s in sets]), compute_uv=False)
    return sing[0] <= WELL_CONDITIONED * sing[-1]


def _truth(x0, sets):
    """exact_projection of x0, or None for an inconsistent draw."""
    try:
        return exact_projection(x0, sets)
    except InfeasibleProblemError:
        return None


@pytest.mark.parametrize("family", ROW_FAMILIES)
@DRAWS
@given(data=st.data())
def test_verdicts_agree_with_the_truth(family, data):
    # The CLI's exit code is the library's stop, except that the oracle
    # rejects an inconsistent draw before the solve; neither ever reads an
    # inconsistent draw as "converged", and a well-conditioned one that
    # knows its solution converges.
    x0, sets = data.draw(draws(family))
    truth = _truth(x0, sets)
    methods = [m for m in SOLVE_METHODS if len(sets) == 2 or PLANS[m][0] != "dr"]
    with tempfile.TemporaryDirectory() as tmp:
        problem = Path(tmp) / "draw.txt"
        _write(problem, x0, sets)
        for method in methods:
            op, rule = build_operator(sets, method)
            _, stop = _library_stop(op, rule, x0)
            for oracle in (True, False):
                code, err = _cli_exit(problem, method, oracle)
                want = 3 if truth is None and oracle else EXIT_CODES[stop]
                assert code == want, (method, oracle, stop, err)
            if truth is None:
                assert stop != "converged", method
            elif _well_conditioned(family, sets):
                # A Douglas-Rachford iterate tends to its own fixed set's point.
                dr = PLANS[method][0] == "dr"
                target = fixset_dr(*sets).project(x0) if dr else truth
                assert _library_stop(op, rule, x0, target)[1] == "converged", method


GK_IDENTITY_FAILS = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="nearly-parallel rows: the gk-affine step grows large (1e7 on two lines "
    "2.7e-4 rad apart), and its updates miss the GK identity by up to 1.9e-3 "
    "relative, past GK_IDENTITY_TOL",
)


@pytest.mark.parametrize(
    "family",
    [pytest.param(f, marks=GK_IDENTITY_FAILS) if f == "nearly-parallel" else f
     for f in ROW_FAMILIES],
)
def test_gk_affine_rows_meet_the_identity(family):
    # The worst misfit over the draws is checked after them, so the known
    # failure stays an assertion of this test and not a failing example.
    worst = []

    @DRAWS
    @given(data=st.data())
    def misfits(data):
        # One refinement: exact_projection's own error grows with the
        # condition of the rows (1e-13 at |x0| = 4.5 on rows scaled 200
        # apart), past the rounding that gk_identity_misfits allows the truth.
        x0, sets = data.draw(draws(family))
        truth = _truth(x0, sets)
        if truth is not None:
            truth = exact_projection(truth, sets)
            trace, _ = _library_stop(*build_operator(sets, "gk-affine"), x0)
            dists = [np.linalg.norm(x - truth) for x in trace.iterates]
            found = gk_identity_misfits(dists, trace.changes, np.linalg.norm(x0))
            worst.append((found.max(initial=0.0), x0, sets))

    misfits()
    misfit, x0, sets = max(worst, key=lambda w: w[0])
    assert misfit <= GK_IDENTITY_TOL, (misfit, x0, sets)
