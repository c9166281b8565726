"""Command-line benchmark harness.

Three subcommands: `solve` runs one method on a problem file and emits a
per-iteration trace; `angle-sweep` measures iteration counts of plain
versus line-search cyclic projections on two lines at a controlled
angle; `hyperplane-bench` times both methods on random hyperplane
systems.  Summary tables are CSV with fixed headers; all randomness is
derived from the --seed flag, so identical invocations produce identical
data columns (timings excluded).
"""

from __future__ import annotations

import argparse
import contextlib
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .acceleration import NumericalFailureError, SolveConfig, StepRule, solve
from .analysis import exact_projection
from .geometry import Hyperplane, InfeasibleProblemError, Span
from .operators import CycleOperator, DouglasRachfordOperator

__all__ = [
    "ProblemFileError",
    "UsageError",
    "SweepRow",
    "BenchRow",
    "parse_problem_file",
    "build_operator",
    "angle_instance",
    "angle_sweep",
    "hyperplane_bench",
    "write_table",
    "main",
    "run",
]

SWEEP_HEADER = "theta,method,mean_iterations,std_iterations,reps,seed"
BENCH_HEADER = "m,n,method,mean_iterations,mean_residual,mean_time_s,reps,seed"
TRACE_DIGITS = 17
TABLE_DIGITS = 6

# Each method: the composite it iterates ("cyclic" or "symmetric" cycle,
# or "dr", the symmetric Douglas-Rachford pair) and whether the gk-affine
# line search accelerates it.
PLANS = {
    "cp": ("cyclic", False),
    "gk-affine": ("cyclic", True),
    "accel-cp": ("cyclic", True),
    "sym-cp": ("symmetric", False),
    "accel-sym-cp": ("symmetric", True),
    "dr": ("dr", False),
    "accel-dr": ("dr", True),
}
SOLVE_METHODS = ("cp", "gk-affine", "sym-cp", "accel-sym-cp", "dr", "accel-dr")
BENCH_METHODS = ("cp", "accel-cp", "sym-cp", "accel-sym-cp")
SWEEP_METHODS = ("cp", "gk-affine")

# x0 is declared already feasible when every constraint residual sits below
# this relative bound; the solve then reports zero iterations.
FEASIBLE_X0_TOL = 1e-12
# The exact-projection oracle is skipped when constraint rows times ambient
# dimension exceeds this (it would dominate the run).
ORACLE_SIZE_LIMIT = 4_000_000


class ProblemFileError(ValueError):
    """Problem file rejected; carries the offending line number."""

    def __init__(self, lineno: int, msg: str):
        super().__init__(f"line {lineno}: {msg}")
        self.lineno = lineno


class UsageError(ValueError):
    """Bad flag combination or value."""


# Row types list their fields in CSV column order; the header names them.
@dataclass
class SweepRow:
    """One angle-sweep line: one method at one angle."""

    theta: float
    method: str
    mean_iterations: float
    std_iterations: float
    reps: int
    seed: int
    all_converged: bool


@dataclass
class BenchRow:
    """One hyperplane-bench line: one method on one system."""

    m: int
    n: int
    method: str
    mean_iterations: float
    mean_residual: float
    mean_time_s: float
    reps: int
    seed: int
    all_converged: bool


def _fmt(x: float, digits: int) -> str:
    return format(float(x), f".{digits}g")


@contextlib.contextmanager
def _open_out(path: Optional[str]):
    """The output stream; a regular file at path is removed if the run fails."""
    if path is None or path == "-":
        yield sys.stdout
        return
    try:
        fh = open(path, "w", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc}") from exc
    try:
        with fh:
            yield fh
    except BaseException:
        if os.path.isfile(path):
            os.remove(path)
        raise


def parse_problem_file(path: str) -> tuple[np.ndarray, list]:
    """Read a problem file into (x0, sets).

    Format: `dim <d>`, then `x0 <d reals>`, then one constraint per line,
    either `hyperplane <d reals> <offset>` or `point <d reals>`.  Blank
    lines and lines starting with '#' are ignored.
    """
    try:
        with open(path) as fh:
            raw = fh.readlines()
    except OSError as exc:
        raise ProblemFileError(0, f"cannot read {path}: {exc}") from exc

    lines = []
    for i, line in enumerate(raw, start=1):
        stripped = line.strip()
        if stripped and not stripped.startswith("#"):
            lines.append((i, stripped))
    if not lines:
        raise ProblemFileError(0, "empty problem file")

    def floats(lineno, tokens, count, what):
        if len(tokens) != count:
            raise ProblemFileError(
                lineno, f"{what} needs {count} numbers, got {len(tokens)}"
            )
        try:
            vals = np.array([float(t) for t in tokens])
        except ValueError:
            raise ProblemFileError(lineno, f"{what} contains a non-number")
        if not np.all(np.isfinite(vals)):
            raise ProblemFileError(lineno, f"{what} contains a non-finite value")
        return vals

    lineno, header = lines[0]
    tokens = header.split()
    if tokens[0] != "dim" or len(tokens) != 2:
        raise ProblemFileError(lineno, "first line must be 'dim <d>'")
    try:
        dim = int(tokens[1])
    except ValueError:
        raise ProblemFileError(lineno, "dimension must be an integer")
    if dim < 1:
        raise ProblemFileError(lineno, "dimension must be positive")

    if len(lines) < 2:
        raise ProblemFileError(lineno, "missing x0 line")
    lineno, x0_line = lines[1]
    tokens = x0_line.split()
    if tokens[0] != "x0":
        raise ProblemFileError(lineno, "second line must be 'x0 <d reals>'")
    x0 = floats(lineno, tokens[1:], dim, "x0")

    # Each constraint kind: how many numbers it takes, and the set they make.
    kinds = {
        "hyperplane": (dim + 1, lambda v: Hyperplane(v[:dim], float(v[dim]))),
        "point": (dim, lambda v: Span(v, np.zeros((dim, 0)))),
    }
    sets = []
    for lineno, line in lines[2:]:
        kind, *tokens = line.split()
        if kind not in kinds:
            raise ProblemFileError(lineno, f"unknown constraint kind {kind!r}")
        count, make = kinds[kind]
        vals = floats(lineno, tokens, count, kind)
        try:
            sets.append(make(vals))
        except ValueError as exc:
            raise ProblemFileError(lineno, str(exc)) from exc
    if not sets:
        raise ProblemFileError(lines[-1][0], "no constraint sets given")
    return x0, sets


def _plans(methods: Sequence[str], build) -> dict:
    """Each method's (operator, step rule); build(composite) makes an operator.

    Methods that iterate the same composite share one operator.
    """
    ops = {}
    plans = {}
    for name in methods:
        composite, accelerated = PLANS[name]
        if composite not in ops:
            ops[composite] = build(composite)
        rule = StepRule.gk_affine() if accelerated else StepRule.unit()
        plans[name] = (ops[composite], rule)
    return plans


def build_operator(sets: Sequence, method: str):
    """Operator and step rule for a method name."""
    if method not in PLANS:
        raise UsageError(f"unknown method {method!r}")

    def build(composite):
        if composite != "dr":
            return CycleOperator(tuple(sets), mode=composite)
        if len(sets) != 2:
            raise UsageError("dr methods need exactly two constraint sets")
        return DouglasRachfordOperator(sets[0], sets[1], symmetric=True)

    return _plans([method], build)[method]


def _solution_estimate(x0, sets) -> Optional[np.ndarray]:
    rows = sum(1 if isinstance(s, Hyperplane) else s.dim - s.rank for s in sets)
    if rows * x0.shape[0] > ORACLE_SIZE_LIMIT:
        return None
    return exact_projection(x0, sets)


def cmd_solve(args) -> int:
    method = args.method
    # Overflow shows as a non-finite value, which the checks below report
    # in one error line; numpy's warnings would only repeat it.
    with np.errstate(all="ignore"):
        x0, sets = parse_problem_file(args.problem)
        worst = max(s.residual(x0) for s in sets)
        bound = FEASIBLE_X0_TOL * (1.0 + float(np.linalg.norm(x0)))
        # An overflowing start reads inf on both sides; it is not feasible.
        if np.isfinite(bound) and worst <= bound:
            with _open_out(args.out) as fh:
                fh.write("k,t_k,successive_change\n")
            _summary(method, True, 0, x0)
            return 0

        target = _solution_estimate(x0, sets)
        op, rule = build_operator(sets, method)
        cfg = SolveConfig(
            eps=args.eps,
            max_iter=args.max_iter,
            store_every=args.store_every,
        )
        # A Douglas-Rachford iterate answers through its shadow on the first set.
        shadow = sets[0].project if PLANS[method][0] == "dr" else (lambda z: z)

        with _open_out(args.out) as fh:
            dist_column = "" if target is None else ",dist_to_solution"
            fh.write(f"k,t_k,successive_change{dist_column}\n")

            def write_row(k, t, change, z):
                cols = [str(k), _fmt(t, TRACE_DIGITS), _fmt(change, TRACE_DIGITS)]
                if target is not None:
                    dist = np.linalg.norm(shadow(z) - target)
                    cols.append(_fmt(dist, TRACE_DIGITS))
                fh.write(",".join(cols) + "\n")

            trace = solve(op, rule, x0, cfg, on_row=write_row)
    _summary(method, trace.converged, trace.iterations, shadow(trace.final))
    return 0 if trace.converged else 2


def _summary(method: str, converged: bool, iterations: int, final: np.ndarray) -> None:
    state = "converged" if converged else "hit the iteration limit"
    coords = " ".join(_fmt(v, TRACE_DIGITS) for v in final)
    print(f"{method}: {state} after {iterations} iterations", file=sys.stderr)
    print(f"final: {coords}", file=sys.stderr)


def angle_instance(theta: float, xstar: np.ndarray) -> list:
    """Two lines in the plane through xstar, one horizontal, one at angle theta."""
    first = Hyperplane(np.array([0.0, 1.0]), float(xstar[1]))
    normal = np.array([-np.sin(theta), np.cos(theta)])
    second = Hyperplane(normal, float(normal @ xstar))
    return [first, second]


def _unit_start(rng: np.random.Generator, dim: int, radius: float = 10.0) -> np.ndarray:
    v = rng.standard_normal(dim)
    nrm = float(np.linalg.norm(v))
    while nrm == 0.0:
        v = rng.standard_normal(dim)
        nrm = float(np.linalg.norm(v))
    return (radius / nrm) * v


def angle_sweep(
    thetas: Sequence[float],
    reps: int,
    eps: float,
    seed: int,
    max_iter: int,
) -> list[SweepRow]:
    """Iteration counts of cp and gk-affine across a grid of angles.

    Each angle gets its own random reference point; each replication gets
    its own random start of norm 10, shared by both methods.  Runs stop
    when the iterate is within eps of the reference point.
    """
    rows = []
    for j, theta in enumerate(thetas):
        inst_rng = np.random.default_rng([seed, j])
        xstar = inst_rng.standard_normal(2)
        sets = tuple(angle_instance(theta, xstar))
        plans = _plans(SWEEP_METHODS, lambda mode: CycleOperator(sets, mode))
        counts = {name: [] for name in SWEEP_METHODS}
        ok = dict.fromkeys(SWEEP_METHODS, True)
        for r in range(reps):
            rep_rng = np.random.default_rng([seed, j, r])
            x0 = _unit_start(rep_rng, 2)
            for name, (op, rule) in plans.items():
                cfg = SolveConfig(
                    eps=eps, max_iter=max_iter, solution=xstar, store_every=0
                )
                tr = solve(op, rule, x0, cfg)
                counts[name].append(tr.iterations)
                ok[name] = ok[name] and tr.converged
        for name in SWEEP_METHODS:
            arr = np.array(counts[name], dtype=float)
            rows.append(
                SweepRow(
                    theta=float(theta),
                    method=name,
                    mean_iterations=float(arr.mean()),
                    std_iterations=float(arr.std()),
                    reps=reps,
                    seed=seed,
                    all_converged=ok[name],
                )
            )
    return rows


def hyperplane_bench(
    m: int,
    n: int,
    reps: int,
    eps: float,
    seed: int,
    methods: Sequence[str],
    max_iter: int,
) -> list[BenchRow]:
    """Iterations, residuals and timings on one random hyperplane system.

    The system A x = b has standard normal entries and is consistent by
    construction.  Runs stop when the change between sweeps drops below
    eps.  Memory grows as 8*n*m bytes for the matrix itself, which the
    operators share without a copy, plus 8*n*ROW_BLOCK bytes of block
    triangles for each of the cyclic and symmetric operators in use.
    """
    for name in methods:
        if name not in BENCH_METHODS:
            raise UsageError(f"unknown benchmark method {name!r}")
    inst_rng = np.random.default_rng([seed, m, n])
    a = inst_rng.standard_normal((n, m))
    xstar = inst_rng.standard_normal(m)
    b = a @ xstar
    plans = _plans(methods, lambda mode: CycleOperator.from_rows(a, b, mode))

    results = {name: {"iters": [], "res": [], "time": []} for name in methods}
    ok = dict.fromkeys(methods, True)
    for r in range(reps):
        rep_rng = np.random.default_rng([seed, m, n, r])
        x0 = _unit_start(rep_rng, m)
        for name in methods:
            op, rule = plans[name]
            cfg = SolveConfig(eps=eps, max_iter=max_iter, store_every=0)
            t0 = time.perf_counter()
            tr = solve(op, rule, x0, cfg)
            elapsed = time.perf_counter() - t0
            results[name]["iters"].append(tr.iterations)
            results[name]["res"].append(float(np.linalg.norm(a @ tr.final - b)))
            results[name]["time"].append(elapsed)
            ok[name] = ok[name] and tr.converged

    rows = []
    for name in methods:
        rows.append(
            BenchRow(
                m=m,
                n=n,
                method=name,
                mean_iterations=float(np.mean(results[name]["iters"])),
                mean_residual=float(np.mean(results[name]["res"])),
                mean_time_s=float(np.mean(results[name]["time"])),
                reps=reps,
                seed=seed,
                all_converged=ok[name],
            )
        )
    return rows


def write_table(header: str, rows: Sequence, fh) -> None:
    """Write a CSV table: each column is the row attribute the header names."""
    columns = header.split(",")
    fh.write(header + "\n")
    for row in rows:
        cells = []
        for name in columns:
            value = getattr(row, name)
            is_float = isinstance(value, float)
            cells.append(_fmt(value, TABLE_DIGITS) if is_float else str(value))
        fh.write(",".join(cells) + "\n")


def _theta_grid(lo: float, hi: float, step: float) -> np.ndarray:
    if step <= 0.0:
        raise UsageError("theta step must be positive")
    if hi < lo:
        raise UsageError("theta range is empty")
    count = int(np.floor((hi - lo) / step + 1e-9)) + 1
    return lo + step * np.arange(count)


def cmd_angle_sweep(args) -> int:
    thetas = _theta_grid(args.theta_min, args.theta_max, args.theta_step)
    rows = angle_sweep(thetas, args.reps, args.eps, args.seed, args.max_iter)
    with _open_out(args.out) as fh:
        write_table(SWEEP_HEADER, rows, fh)
    return 0 if all(r.all_converged for r in rows) else 2


def cmd_hyperplane_bench(args) -> int:
    sizes = [(m, args.n if args.n is not None else m // 2) for m in args.m]
    for m, n in sizes:
        if n < 1:
            raise UsageError(f"--m {m} gives n = m // 2 = 0 rows; pass --n")
    methods = [name.strip() for name in args.methods.split(",") if name.strip()]
    if not methods:
        raise UsageError("no benchmark methods given")
    rows = []
    for m, n in sizes:
        rows += hyperplane_bench(
            m, n, args.reps, args.eps, args.seed, methods, args.max_iter
        )
    with _open_out(args.out) as fh:
        write_table(BENCH_HEADER, rows, fh)
    return 0 if all(r.all_converged for r in rows) else 2


def _number(kind, what, low=None):
    """Flag converter for an int or a finite float, above low when given."""

    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            noun = "an integer" if kind is int else "a number"
            raise argparse.ArgumentTypeError(f"{what} must be {noun}")
        if kind is float and not math.isfinite(value):
            raise argparse.ArgumentTypeError(f"{what} must be a finite number")
        if low is not None and value <= low:
            need = "positive" if low == 0 else f"greater than {low}"
            raise argparse.ArgumentTypeError(f"{what} must be {need}")
        return value

    return convert


def _positive_list(kind, what):
    one = _number(kind, what, 0)
    return lambda text: [one(item) for item in text.split(",")]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cycproj",
        description="cyclic projection solvers and benchmarks for affine feasibility",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, eps_default):
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.add_argument("--eps", type=_number(float, "eps", 0), default=eps_default)
        p.add_argument(
            "--max-iter", type=_number(int, "max-iter", 0), default=100_000
        )

    p_solve = sub.add_parser("solve", help="run one method on a problem file")
    p_solve.add_argument("problem", help="problem file path")
    p_solve.add_argument("--method", choices=SOLVE_METHODS, default="cp")
    p_solve.add_argument(
        "--store-every",
        type=_number(int, "store-every", -1),
        default=1,
        help="keep every j-th trace row (0 keeps none)",
    )
    common(p_solve, eps_default=1e-9)
    p_solve.set_defaults(func=cmd_solve)

    p_sweep = sub.add_parser(
        "angle-sweep", help="iteration counts for two lines at varied angles"
    )
    p_sweep.add_argument("--theta-min", type=_number(float, "theta-min"), default=0.01)
    p_sweep.add_argument("--theta-max", type=_number(float, "theta-max"), default=1.57)
    p_sweep.add_argument(
        "--theta-step", type=_number(float, "theta-step", 0), default=0.01
    )
    p_sweep.add_argument("--reps", type=_number(int, "reps", 0), default=10)
    common(p_sweep, eps_default=1e-9)
    p_sweep.set_defaults(func=cmd_angle_sweep)

    p_bench = sub.add_parser(
        "hyperplane-bench", help="time methods on a random hyperplane system"
    )
    p_bench.add_argument(
        "--m",
        type=_positive_list(int, "m"),
        default="500",
        help="comma-separated ambient dimensions, one system each",
    )
    p_bench.add_argument(
        "--n", type=_number(int, "n", 0), default=None, help="defaults to m // 2"
    )
    p_bench.add_argument("--reps", type=_number(int, "reps", 0), default=10)
    p_bench.add_argument(
        "--methods", default="cp,accel-cp", help="comma-separated method list"
    )
    common(p_bench, eps_default=1e-6)
    p_bench.set_defaults(func=cmd_hyperplane_bench)
    for p in (p_sweep, p_bench):
        p.add_argument("--seed", type=_number(int, "seed", -1), default=0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point returning the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.func(args)
    except (ProblemFileError, UsageError, NumericalFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main(sys.argv[1:]))
