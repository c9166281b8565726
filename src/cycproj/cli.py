"""Command-line benchmark harness.

Three subcommands: `solve` runs one method on a problem file and emits a
per-iteration trace; `angle-sweep` measures iteration counts of plain
versus line-search cyclic projections on two lines at a controlled
angle; `hyperplane-bench` times up to four methods (two by default) on
random hyperplane systems.  Summary tables are CSV with fixed headers;
all randomness is derived from the --seed flag, so identical invocations
produce identical data columns (timings excluded).
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

from .acceleration import SolveConfig, StepRule, solve
from .analysis import exact_projection
from .geometry import Hyperplane, InfeasibleProblemError, NumericalFailureError, Span
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

# The exact-projection oracle is skipped when constraint rows times ambient
# dimension exceeds this (it would dominate the run).
ORACLE_SIZE_LIMIT = 4_000_000
# angle-sweep refuses a grid of more angles than this (the paper's has 157).
MAX_THETAS = 100_000


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
    """Read a UTF-8 problem file into (x0, sets), one line at a time.

    Format: `dim <d>`, then `x0 <d reals>`, then one constraint per line,
    either `hyperplane <d reals> <offset>` or `point <d reals>`.  Blank
    lines and lines starting with '#' are ignored.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            return _parse_lines(
                (i, tokens)
                for i, tokens in enumerate(map(str.split, fh), start=1)
                if tokens and not tokens[0].startswith("#")
            )
    except (OSError, UnicodeDecodeError) as exc:
        raise ProblemFileError(0, f"cannot read {path}: {exc}") from exc


def _parse_lines(lines) -> tuple[np.ndarray, list]:
    """The (x0, sets) of a problem file's content lines, as (lineno, tokens)."""

    def floats(lineno, tokens, count, what):
        if len(tokens) != count:
            raise ProblemFileError(
                lineno, f"{what} needs {count} numbers, got {len(tokens)}"
            )
        try:
            vals = np.array(tokens, dtype=float)
        except ValueError:
            raise ProblemFileError(lineno, f"{what} contains a non-number")
        if not np.all(np.isfinite(vals)):
            raise ProblemFileError(lineno, f"{what} contains a non-finite value")
        return vals

    lineno, tokens = next(lines, (0, None))
    if tokens is None:
        raise ProblemFileError(0, "empty problem file")
    if tokens[0] != "dim" or len(tokens) != 2:
        raise ProblemFileError(lineno, "first line must be 'dim <d>'")
    try:
        dim = int(tokens[1])
    except ValueError:
        raise ProblemFileError(lineno, "dimension must be an integer")
    if dim < 1:
        raise ProblemFileError(lineno, "dimension must be positive")

    lineno, tokens = next(lines, (lineno, None))
    if tokens is None:
        raise ProblemFileError(lineno, "missing x0 line")
    if tokens[0] != "x0":
        raise ProblemFileError(lineno, "second line must be 'x0 <d reals>'")
    x0 = floats(lineno, tokens[1:], dim, "x0")

    # Each constraint kind: how many numbers it takes, and the set they make.
    kinds = {
        "hyperplane": (dim + 1, lambda v: Hyperplane(v[:dim], float(v[dim]))),
        "point": (dim, lambda v: Span(v, np.zeros((dim, 0)))),
    }
    sets = []
    for lineno, (kind, *tokens) in lines:
        if kind not in kinds:
            raise ProblemFileError(lineno, f"unknown constraint kind {kind!r}")
        count, make = kinds[kind]
        vals = floats(lineno, tokens, count, kind)
        try:
            sets.append(make(vals))
        except ValueError as exc:
            raise ProblemFileError(lineno, str(exc)) from exc
    if not sets:
        raise ProblemFileError(lineno, "no constraint sets given")
    return x0, sets


def _plans(methods: Sequence[str], cycle: CycleOperator) -> dict:
    """Each method's (operator, step rule), all built from one cyclic cycle.

    The symmetric cycle is `cycle.with_mode`, which shares the sets and the
    row kernel, and a dr method iterates the pair of the cycle's two sets.
    Methods that iterate the same composite share one operator.
    """
    ops = {"cyclic": cycle}
    plans = {}
    for name in methods:
        composite, accelerated = PLANS[name]
        if composite not in ops:
            if composite != "dr":
                ops[composite] = cycle.with_mode(composite)
            elif len(cycle.sets) == 2:
                ops[composite] = DouglasRachfordOperator(*cycle.sets)
            else:
                raise UsageError("dr methods need exactly two constraint sets")
        rule = StepRule("gk-affine" if accelerated else "unit")
        plans[name] = (ops[composite], rule)
    return plans


def build_operator(sets: Sequence, method: str):
    """Operator and step rule for a method name."""
    if method not in PLANS:
        raise UsageError(f"unknown method {method!r}")
    return _plans([method], CycleOperator(tuple(sets)))[method]


def _solution_estimate(x0, sets) -> Optional[np.ndarray]:
    rows = sum(1 if isinstance(s, Hyperplane) else s.dim - s.rank for s in sets)
    if rows * x0.shape[0] > ORACLE_SIZE_LIMIT:
        return None
    return exact_projection(x0, sets)


def cmd_solve(args) -> bool:
    method = args.method
    # Overflow shows as a non-finite value, which the checks below report
    # in one error line; numpy's warnings would only repeat it.
    with np.errstate(all="ignore"):
        x0, sets = parse_problem_file(args.problem)
        if args.out not in (None, "-") and os.path.exists(args.out):
            if os.path.samefile(args.out, args.problem):
                raise UsageError(f"--out {args.out} is the problem file")
        op, rule = build_operator(sets, method)
        target = _solution_estimate(x0, sets)
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
            line = "%d" + f",%.{TRACE_DIGITS}g" * (2 if target is None else 3) + "\n"

            def write_row(k, t, change, z):
                cols = (k, t, change)
                if target is not None:
                    e = shadow(z) - target
                    cols += (math.sqrt(e.dot(e)),)  # as np.linalg.norm computes it
                fh.write(line % cols)

            trace = solve(op, rule, x0, cfg, on_row=write_row)
    _summary(method, trace.stop, trace.iterations, shadow(trace.final))
    return trace.converged


def _summary(method: str, stop: str, iterations: int, final: np.ndarray) -> None:
    state = "hit the iteration limit" if stop == "max-iter" else stop
    coords = " ".join(_fmt(v, TRACE_DIGITS) for v in final)
    print(f"{method}: {state} after {iterations} iterations", file=sys.stderr)
    print(f"final: {coords}", file=sys.stderr)


def angle_instance(theta: float, xstar: np.ndarray) -> list:
    """Two lines in the plane through xstar, one horizontal, one at angle theta."""
    first = Hyperplane(np.array([0.0, 1.0]), float(xstar[1]))
    normal = np.array([-np.sin(theta), np.cos(theta)])
    second = Hyperplane(normal, float(normal @ xstar))
    return [first, second]


def _unit_start(key: list, dim: int) -> np.ndarray:
    """A random start of norm 10, drawn from the seed sequence key."""
    v = np.random.default_rng(key).standard_normal(dim)
    return (10.0 / float(np.linalg.norm(v))) * v


def _runs(plans: dict, starts: Sequence[np.ndarray], cfg: SolveConfig) -> dict:
    """Each plan's (trace, seconds) from every start, starts outermost.

    Each call looks up `solve` anew, so a wrapper patched over cli.solve sees it.
    """
    runs = {name: [] for name in plans}
    for x0 in starts:
        for name, (op, rule) in plans.items():
            t0 = time.perf_counter()
            trace = solve(op, rule, x0, cfg)
            runs[name].append((trace, time.perf_counter() - t0))
    return runs


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
        xstar = np.random.default_rng([seed, j]).standard_normal(2)
        sets = tuple(angle_instance(theta, xstar))
        plans = _plans(SWEEP_METHODS, CycleOperator(sets))
        starts = [_unit_start([seed, j, r], 2) for r in range(reps)]
        cfg = SolveConfig(eps=eps, max_iter=max_iter, solution=xstar, store_every=0)
        for name, runs in _runs(plans, starts, cfg).items():
            arr = np.array([tr.iterations for tr, _ in runs], dtype=float)
            rows.append(
                SweepRow(
                    theta=float(theta),
                    method=name,
                    mean_iterations=float(arr.mean()),
                    std_iterations=float(arr.std()),
                    reps=reps,
                    seed=seed,
                    all_converged=all(tr.converged for tr, _ in runs),
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
    eps.  The system's hyperplanes and its row kernel are built once and
    shared by the cyclic and symmetric operators, so memory grows as
    8*n*m bytes for the matrix, which is not copied, plus 8*n*ROW_BLOCK
    bytes of block inverses.  `methods` are distinct names from
    BENCH_METHODS, as the CLI checks.
    """
    inst_rng = np.random.default_rng([seed, m, n])
    a = inst_rng.standard_normal((n, m))
    xstar = inst_rng.standard_normal(m)
    b = a @ xstar
    plans = _plans(methods, CycleOperator.from_rows(a, b))
    starts = [_unit_start([seed, m, n, r], m) for r in range(reps)]
    cfg = SolveConfig(eps=eps, max_iter=max_iter, store_every=0)

    rows = []
    for name, runs in _runs(plans, starts, cfg).items():
        rows.append(
            BenchRow(
                m=m,
                n=n,
                method=name,
                mean_iterations=float(np.mean([tr.iterations for tr, _ in runs])),
                mean_residual=float(
                    np.mean([np.linalg.norm(a @ tr.final - b) for tr, _ in runs])
                ),
                mean_time_s=float(np.mean([s for _, s in runs])),
                reps=reps,
                seed=seed,
                all_converged=all(tr.converged for tr, _ in runs),
            )
        )
    return rows


def _write_table(out: Optional[str], header: str, make_rows) -> bool:
    """Open out, then write make_rows() as CSV; True if every row converged."""
    with _open_out(out) as fh:
        rows = make_rows()
        fh.write(header + "\n")
        for row in rows:
            cells = (getattr(row, name) for name in header.split(","))
            line = ",".join(
                _fmt(v, TABLE_DIGITS) if isinstance(v, float) else str(v) for v in cells
            )
            fh.write(line + "\n")
            if not row.all_converged:
                print(f"not converged: {line}", file=sys.stderr)
    return all(r.all_converged for r in rows)


def _theta_grid(lo: float, hi: float, step: float) -> np.ndarray:
    if hi < lo:
        raise UsageError("theta range is empty")
    last = np.floor((hi - lo) / step + 1e-9)
    if not last < MAX_THETAS:
        raise UsageError(f"theta grid has more than {MAX_THETAS} angles")
    return lo + step * np.arange(int(last) + 1)


def cmd_angle_sweep(args) -> bool:
    thetas = _theta_grid(args.theta_min, args.theta_max, args.theta_step)
    sweep = (thetas, args.reps, args.eps, args.seed, args.max_iter)
    return _write_table(args.out, SWEEP_HEADER, lambda: angle_sweep(*sweep))


def cmd_hyperplane_bench(args) -> bool:
    sizes = [(m, args.n if args.n is not None else m // 2) for m in args.m]
    for m, n in sizes:
        if n < 1:
            raise UsageError(f"--m {m} gives n = m // 2 = 0 rows; pass --n")
    methods = [name.strip() for name in args.methods.split(",") if name.strip()]
    if not methods:
        raise UsageError("no benchmark methods given")
    for i, name in enumerate(methods):
        if name not in BENCH_METHODS:
            raise UsageError(f"unknown benchmark method {name!r}")
        if name in methods[:i]:
            raise UsageError(f"benchmark method {name!r} is given twice")
    common = (args.reps, args.eps, args.seed, methods, args.max_iter)
    return _write_table(
        args.out,
        BENCH_HEADER,
        lambda: [r for m, n in sizes for r in hyperplane_bench(m, n, *common)],
    )


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

    def common(p, eps_default, max_iter_default=100_000):
        p.add_argument("--out", default=None, help="output CSV path (default stdout)")
        p.add_argument("--eps", type=_number(float, "eps", 0), default=eps_default)
        p.add_argument(
            "--max-iter", type=_number(int, "max-iter", 0), default=max_iter_default
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
    # cp needs about 224,500 iterations at the grid's smallest angle, 0.01.
    common(p_sweep, eps_default=1e-9, max_iter_default=400_000)
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
    p_bench.add_argument(
        "--methods", default="cp,accel-cp", help="comma-separated method list"
    )
    common(p_bench, eps_default=1e-6)
    p_bench.set_defaults(func=cmd_hyperplane_bench)
    for p in (p_sweep, p_bench):
        p.add_argument("--reps", type=_number(int, "reps", 0), default=10)
        p.add_argument("--seed", type=_number(int, "seed", -1), default=0)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """The process exit code; each subcommand returns whether it converged."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return 0 if args.func(args) else 2
    except (ProblemFileError, UsageError, NumericalFailureError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleProblemError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    sys.exit(main(sys.argv[1:]))
