"""Acceptance gate: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -s` to see the summary lines as
they happen; without -s pytest shows them for failing criteria only.
"""

import math
import time

import numpy as np

from cycproj.acceleration import (
    SolveConfig,
    StepRule,
    solve,
    step_gk_affine,
    step_oracle,
)
from cycproj.analysis import exact_projection, rate_constant
from cycproj.cli import angle_sweep, hyperplane_bench, main
from cycproj.geometry import HalfSpace, Hyperplane, Span
from cycproj.operators import (
    CycleOperator,
    DouglasRachfordOperator,
    fixset_dr,
)

from conftest import (
    lstsq_projection,
    orthonormal_columns,
    random_affine_instance,
    sample_point,
    scan_line_min,
    stage_trace,
    strictly_feasible_halfspaces,
    total_sq,
    translate_check,
    violating_point,
)


def check(num: int, desc: str, passed: bool) -> None:
    state = "PASS" if passed else "FAIL"
    print(f"[criterion {num:02d}] {state} - {desc}", flush=True)
    assert passed, f"criterion {num:02d} failed: {desc}"


def padded(dists, upto):
    """Extend a distance list of a run that stopped on an exact fixed point."""
    if len(dists) >= upto:
        return dists
    tail = dists[-1] if dists else 0.0
    return list(dists) + [tail] * (upto - len(dists))


def test_criterion_01_trace_step_matches_witness_step():
    rng = np.random.default_rng(201)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        d = int(rng.integers(2, 21))
        n = int(rng.integers(2, 6))
        sets, _ = random_affine_instance(rng, d=d, n=n)
        op = CycleOperator(tuple(sets))
        x = 4.0 * rng.standard_normal(d)
        tr = stage_trace(op, x)
        if total_sq(tr) < 1e-18:
            continue
        t = step_gk_affine(x, tr.last, tr.increments_sq)
        t_wit = step_oracle(x, tr.last, lstsq_projection(x, sets))
        ok = ok and abs(t - t_wit) <= 1e-8 * (1.0 + abs(t))
    elapsed = time.perf_counter() - start
    check(
        1,
        "trace step equals witness step on 200 mixed affine instances "
        f"({elapsed:.1f}s)",
        ok and elapsed < 10.0,
    )


def test_criterion_02_linear_reduction():
    rng = np.random.default_rng(202)
    ok = True
    for _ in range(100):
        sets, _ = random_affine_instance(rng, linear=True)
        op = CycleOperator(tuple(sets))
        x = 4.0 * rng.standard_normal(op.dim)
        tr = stage_trace(op, x)
        if total_sq(tr) < 1e-18:
            continue
        t_linear = step_oracle(x, tr.last, np.zeros(op.dim))
        diff = abs(step_gk_affine(x, tr.last, tr.increments_sq) - t_linear)
        ok = ok and diff <= 1e-10
    check(2, "trace step reduces to the origin-anchored step on linear sets", ok)


def test_criterion_03_line_search_optimality():
    rng = np.random.default_rng(203)
    grid = np.linspace(-2.0, 3.0, 101)
    ok = True
    for _ in range(50):
        sets, _ = random_affine_instance(rng)
        op = CycleOperator(tuple(sets))
        x = 5.0 * rng.standard_normal(op.dim)
        pm = exact_projection(x, sets)
        for _ in range(20):
            tr = stage_trace(op, x)
            gap = math.sqrt(total_sq(tr))
            if gap <= 1e-13 * (1.0 + np.linalg.norm(x)):
                break
            t = step_gk_affine(x, tr.last, tr.increments_sq)
            step_dir = tr.last - x
            chosen = np.linalg.norm(x + t * step_dir - pm)
            for s in grid:
                ok = ok and chosen <= np.linalg.norm(x + s * step_dir - pm) + 1e-12
            x = x + t * step_dir
    check(3, "chosen step beats 101 sampled relaxation parameters", ok)


def test_criterion_04_contraction_rate_bound():
    rng = np.random.default_rng(204)
    ok = True
    done = 0
    while done < 50:
        sets, _ = random_affine_instance(rng)
        report = rate_constant(sets)
        if not report.constant < 1.0:
            continue
        done += 1
        x0 = 5.0 * rng.standard_normal(sets[0].dim)
        xstar = exact_projection(x0, sets)
        d0 = float(np.linalg.norm(x0 - xstar))
        if d0 < 1e-9:
            continue
        tr = solve(
            CycleOperator(tuple(sets)),
            StepRule("unit"),
            x0,
            SolveConfig(
                eps=1e-12 * (1.0 + d0), max_iter=200, solution=xstar
            ),
        )
        for k, dist in zip(tr.ks, tr.dists):
            ok = ok and dist <= report.constant**k * d0 * (1.0 + 1e-8)
    check(4, "per-pass contraction bound holds over 50 instances", ok)


def test_criterion_05_symmetric_dominance():
    rng = np.random.default_rng(205)
    ok = True
    for _ in range(30):
        n = int(rng.integers(3, 6))
        d = n + int(rng.integers(1, 5))
        sets, _ = random_affine_instance(rng, d=d, n=n)
        x0 = 5.0 * rng.standard_normal(d)
        xstar = exact_projection(x0, sets)
        op = CycleOperator(tuple(sets), mode="symmetric")
        accel = solve(
            op,
            StepRule("gk-affine"),
            x0,
            SolveConfig(eps=1e-300, max_iter=100, solution=xstar),
        )
        plain = solve(
            op,
            StepRule("unit"),
            x0,
            SolveConfig(eps=1e-300, max_iter=101, solution=xstar),
        )
        plain_dists = padded(plain.dists, 101)
        for k, dist in zip(accel.ks, accel.dists):
            ok = ok and dist <= plain_dists[k] + 1e-10
    check(5, "accelerated symmetric iterates dominate the plain ones", ok)


def test_criterion_06_symmetric_dr_dominance_and_shadows():
    rng = np.random.default_rng(206)
    ok = True
    for _ in range(30):
        sets, _ = random_affine_instance(rng, d=10, n=2)
        x0 = 5.0 * rng.standard_normal(10)
        op = DouglasRachfordOperator(sets[0], sets[1])
        pfix = fixset_dr(sets[0], sets[1]).project(x0)
        pm = exact_projection(x0, sets)
        accel = solve(
            op,
            StepRule("gk-affine"),
            x0,
            SolveConfig(eps=1e-9, max_iter=2000, solution=pfix),
        )
        plain = solve(
            op,
            StepRule("unit"),
            x0,
            SolveConfig(eps=1e-300, max_iter=101, solution=pfix),
        )
        plain_dists = padded(plain.dists, 101)
        for i, k in enumerate(accel.ks):
            if k > 100:
                break
            dist = accel.dists[i]
            ok = ok and dist <= plain_dists[k] + 1e-10
            z = accel.iterates[i]
            worst = max(
                float(np.linalg.norm(sets[0].project(z) - pm)),
                float(np.linalg.norm(sets[1].project(z) - pm)),
            )
            ok = ok and worst <= dist + 1e-10
        ok = ok and accel.converged
        shadow = sets[0].project(accel.final)
        ok = ok and float(np.linalg.norm(shadow - pm)) <= 1e-8
    check(6, "symmetric DR dominance and shadow bounds hold in R^10", ok)


def test_criterion_07_halfspace_step_lower_bound():
    rng = np.random.default_rng(207)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 5))
        halfspaces, m = strictly_feasible_halfspaces(rng, 5, n)
        x = violating_point(rng, halfspaces)
        cycle = CycleOperator(tuple(halfspaces))
        tr = stage_trace(cycle, x)
        if total_sq(tr) < 1e-18:
            continue
        bound = step_gk_affine(x, tr.last, tr.increments_sq)
        t_scan = scan_line_min(x, tr.last - x, m)
        ok = ok and t_scan >= bound - 1e-10

        boundaries = [Hyperplane(h.normal, h.offset) for h in halfspaces]
        op = CycleOperator(tuple(boundaries))
        tr2 = stage_trace(op, x)
        if total_sq(tr2) < 1e-18:
            continue
        bound2 = step_gk_affine(x, tr2.last, tr2.increments_sq)
        target = exact_projection(x, boundaries)
        t_scan2 = scan_line_min(x, tr2.last - x, target)
        ok = ok and abs(t_scan2 - bound2) <= 1e-9
    check(7, "scan argmin respects the half-space step lower bound", ok)


def test_criterion_08_small_angle_sweep_ratios():
    start = time.perf_counter()
    rows = angle_sweep([0.01, 1.57], reps=10, eps=1e-9, seed=0, max_iter=400_000)
    elapsed = time.perf_counter() - start
    means = {(round(r.theta, 2), r.method): r.mean_iterations for r in rows}
    ratio_small = means[(0.01, "cp")] / means[(0.01, "gk-affine")]
    ratio_wide = means[(1.57, "cp")] / means[(1.57, "gk-affine")]
    ok = (
        all(r.all_converged for r in rows)
        and ratio_small >= 20.0
        and ratio_wide <= 2.0
        and elapsed < 120.0
    )
    check(
        8,
        f"angle sweep ratios {ratio_small:.0f}x at 0.01, "
        f"{ratio_wide:.2f}x at 1.57 ({elapsed:.0f}s)",
        ok,
    )


def test_criterion_09_hyperplane_benchmark_ranges():
    start = time.perf_counter()
    rows = hyperplane_bench(
        500, 250, reps=10, eps=1e-6, seed=0, methods=["cp", "accel-cp"],
        max_iter=100_000,
    )
    elapsed = time.perf_counter() - start
    by = {r.method: r for r in rows}
    ok = (
        all(r.all_converged for r in rows)
        and 40.0 <= by["cp"].mean_iterations <= 110.0
        and by["accel-cp"].mean_iterations < by["cp"].mean_iterations
        and by["accel-cp"].mean_residual < by["cp"].mean_residual
        and elapsed < 60.0
    )
    check(
        9,
        f"benchmark means cp={by['cp'].mean_iterations:.1f}, "
        f"accel={by['accel-cp'].mean_iterations:.1f} ({elapsed:.1f}s)",
        ok,
    )


def test_criterion_10_projector_axiom_suite():
    rng = np.random.default_rng(210)
    start = time.perf_counter()
    ok = True
    for i in range(500):
        d = int(rng.integers(2, 8))
        x = 4.0 * rng.standard_normal(d)
        kind = i % 3
        if kind == 2:
            w = 2.0 * rng.standard_normal(d)
            a = rng.standard_normal(d)
            h = HalfSpace(a, float(a @ w) + float(rng.uniform(0.1, 1.0)))
            p = h.project(x)
            ok = ok and float(a @ p) <= h.offset + 1e-12 * (1.0 + abs(h.offset))
            ok = ok and float((x - p) @ (w - p)) <= 1e-10 * (
                1.0 + np.linalg.norm(x)
            ) * (1.0 + np.linalg.norm(w))
            lhs = np.linalg.norm(p - w) ** 2 + np.linalg.norm(x - p) ** 2
            rhs = np.linalg.norm(x - w) ** 2
            ok = ok and lhs <= rhs * (1.0 + 1e-9) + 1e-9
            continue
        if kind == 0:
            a = rng.standard_normal(d)
            while np.linalg.norm(a) < 0.1:
                a = rng.standard_normal(d)
            s = Hyperplane(a, float(rng.standard_normal()))
        else:
            anchor = np.zeros(d) if i % 2 else rng.standard_normal(d)
            s = Span(anchor, orthonormal_columns(rng, d, int(rng.integers(0, d))))
        p = s.project(x)
        ok = ok and np.linalg.norm(s.project(p) - p) <= 1e-12 * (
            1.0 + np.linalg.norm(x)
        )
        witness = sample_point(rng, s)
        ok = ok and abs(float((x - p) @ (witness - p))) <= 1e-10 * (
            1.0 + np.linalg.norm(x)
        ) * (1.0 + np.linalg.norm(witness))
        lhs = np.linalg.norm(p - witness) ** 2 + np.linalg.norm(x - p) ** 2
        rhs = np.linalg.norm(x - witness) ** 2
        ok = ok and abs(lhs - rhs) <= 1e-9 * max(1.0, rhs)
        shift = 2.0 * rng.standard_normal(d)
        ok = ok and np.linalg.norm(translate_check(x, s, shift) - p) <= 1e-10
        if isinstance(s, Span) and np.linalg.norm(s.anchor) == 0.0:
            y = rng.standard_normal(d)
            ok = ok and abs(
                float(s.project(x) @ y) - float(x @ s.project(y))
            ) <= 1e-10 * max(1.0, np.linalg.norm(x) * np.linalg.norm(y))
    elapsed = time.perf_counter() - start
    check(
        10,
        f"500 projector axiom checks ({elapsed:.1f}s)",
        ok and elapsed < 5.0,
    )


def test_criterion_11_benchmark_determinism(tmp_path):
    args = ["hyperplane-bench", "--seed", "7", "--m", "100", "--n", "50"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    ok = main(args + ["--out", str(first)]) == 0
    ok = ok and main(args + ["--out", str(second)]) == 0

    def data_columns(path):
        lines = path.read_text().splitlines()
        rows = []
        for line in lines[1:]:
            cols = line.split(",")
            del cols[5]  # the wall-clock column
            rows.append(cols)
        return lines[0], rows

    ok = ok and data_columns(first) == data_columns(second)
    check(11, "benchmark data columns are byte-identical across runs", ok)
