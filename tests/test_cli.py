"""Problem files, subcommands, exit codes and CSV schemas."""

import csv
import importlib.metadata
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import cycproj
from cycproj.acceleration import SolveConfig, StepRule, solve
from cycproj.analysis import exact_projection
from cycproj.cli import (
    BENCH_HEADER,
    SOLVE_METHODS,
    SWEEP_HEADER,
    ProblemFileError,
    UsageError,
    angle_instance,
    angle_sweep,
    build_operator,
    hyperplane_bench,
    main,
    parse_problem_file,
)
from cycproj.geometry import Hyperplane, Span
from cycproj.operators import CycleOperator, DouglasRachfordOperator


SOURCE_ROOT = Path(cycproj.__file__).resolve().parents[1]
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


TWO_LINES = """\
dim 2
x0 3 4

# the two axes' diagonals meet at the origin
hyperplane 0 1 0
hyperplane 1 -1 0
"""


def write_problem(tmp_path, text, name="problem.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_parse_problem_file_roundtrip(tmp_path):
    text = """\
# leading comment

dim 3
x0 1 2 3
hyperplane 1 0 0 4
point 0.5 -0.5 0
"""
    x0, sets = parse_problem_file(write_problem(tmp_path, text))
    assert np.array_equal(x0, [1.0, 2.0, 3.0])
    assert isinstance(sets[0], Hyperplane)
    assert np.array_equal(sets[0].normal, [1.0, 0.0, 0.0])
    assert sets[0].offset == 4.0
    assert isinstance(sets[1], Span)
    assert sets[1].rank == 0
    assert np.array_equal(sets[1].anchor, [0.5, -0.5, 0.0])


@pytest.mark.parametrize(
    "text,lineno",
    [
        ("x0 1 2\n", 1),
        ("dim 0\nx0\n", 1),
        ("dim two\nx0 1 2\n", 1),
        ("dim 2\n", 1),
        ("dim 2\nhyperplane 1 0 0\n", 2),
        ("dim 2\nx0 1\n", 2),
        ("dim 2\nx0 1 nope\n", 2),
        ("dim 2\nx0 1 2\nhyperplane 1 0\n", 3),
        ("dim 2\nx0 1 2\nhyperplane 0 0 1\n", 3),
        ("dim 2\nx0 1 2\nhyperplane 1 0 inf\n", 3),
        ("dim 2\nx0 1 2\nhyperplane 1e200 1e200 0\n", 3),
        ("dim 2\nx0 1 2\nball 1 0 1\n", 3),
        ("dim 2\nx0 1 2\n", 2),
        ("# nothing here\n", 0),
    ],
)
def test_parse_problem_file_errors(tmp_path, text, lineno):
    with pytest.raises(ProblemFileError) as info:
        parse_problem_file(write_problem(tmp_path, text))
    assert info.value.lineno == lineno
    assert f"line {lineno}:" in str(info.value)


def test_parse_problem_file_missing_path(tmp_path):
    with pytest.raises(ProblemFileError) as info:
        parse_problem_file(str(tmp_path / "absent.txt"))
    assert info.value.lineno == 0


def test_build_operator_variants():
    sets = angle_instance(0.7, np.zeros(2))
    op, rule = build_operator(sets, "cp")
    assert isinstance(op, CycleOperator) and op.mode == "cyclic"
    assert rule.variant == "unit"
    _, rule = build_operator(sets, "gk-affine")
    assert rule.variant == "gk-affine"
    op, rule = build_operator(sets, "sym-cp")
    assert op.mode == "symmetric" and rule.variant == "unit"
    _, rule = build_operator(sets, "accel-sym-cp")
    assert rule.variant == "gk-affine"
    op, rule = build_operator(sets, "dr")
    assert isinstance(op, DouglasRachfordOperator) and op.symmetric
    assert rule.variant == "unit"
    _, rule = build_operator(sets, "accel-dr")
    assert rule.variant == "gk-affine"


def test_build_operator_errors():
    sets = angle_instance(0.7, np.zeros(2))
    with pytest.raises(UsageError):
        build_operator(sets, "sor")
    with pytest.raises(UsageError):
        build_operator(sets + [Hyperplane(np.array([1.0, 1.0]), 0.0)], "dr")


def test_solve_trace_csv(tmp_path, capsys):
    problem = write_problem(tmp_path, TWO_LINES)
    out = tmp_path / "trace.csv"
    code = main(["solve", problem, "--method", "cp", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "k,t_k,successive_change,dist_to_solution"
    rows = read_rows(str(out))
    assert [int(r["k"]) for r in rows] == list(range(1, len(rows) + 1))
    assert all(float(r["t_k"]) == 1.0 for r in rows)
    changes = [float(r["successive_change"]) for r in rows]
    dists = [float(r["dist_to_solution"]) for r in rows]
    assert changes[0] > changes[-1]
    assert dists[-1] < 1e-8
    err = capsys.readouterr().err
    assert "cp: converged after" in err
    assert "final:" in err


def test_solve_accelerated_trace_and_final(tmp_path, capsys):
    problem = write_problem(tmp_path, TWO_LINES)
    finals = {}
    iters = {}
    for method in ("cp", "gk-affine", "sym-cp", "accel-sym-cp", "dr", "accel-dr"):
        out = tmp_path / f"{method}.csv"
        code = main(["solve", problem, "--method", method, "--out", str(out)])
        assert code == 0
        err = capsys.readouterr().err
        iters[method] = int(err.split("after ")[1].split(" iterations")[0])
        finals[method] = np.array(
            [float(v) for v in err.splitlines()[1].split(":")[1].split()]
        )
    for method, final in finals.items():
        assert np.linalg.norm(final) <= 1e-6, method
    assert iters["gk-affine"] <= iters["cp"]


def test_solve_feasible_start_writes_empty_trace(tmp_path, capsys):
    text = "dim 2\nx0 2 2\nhyperplane 0 1 2\nhyperplane 1 -1 0\n"
    problem = write_problem(tmp_path, text)
    out = tmp_path / "trace.csv"
    code = main(["solve", problem, "--out", str(out)])
    assert code == 0
    assert out.read_text() == "k,t_k,successive_change\n"
    assert "after 0 iterations" in capsys.readouterr().err


def test_solve_store_every_zero_keeps_header_only(tmp_path, capsys):
    problem = write_problem(tmp_path, TWO_LINES)
    out = tmp_path / "trace.csv"
    code = main(["solve", problem, "--store-every", "0", "--out", str(out)])
    assert code == 0
    assert len(out.read_text().splitlines()) == 1
    assert "converged" in capsys.readouterr().err


@pytest.mark.parametrize(
    "x0,rows,line",
    [
        # A x0 overflows in the closed-form oracle, before any iteration.
        ("1e308 1e308", ("1 1 0", "1 -1 0"), "error: non-finite value at iteration 0"),
        # The oracle is finite; the first step's change overflows.
        ("1e200 1e200", ("1 0 0", "0 1 0"), "error: non-finite value at iteration 1"),
        # |normal|^2 overflows while the file is read.
        (
            "1 2",
            ("1e200 1e200 0", "1 -1 0"),
            "error: line 3: hyperplane normal must be nonzero,"
            " with a finite squared norm",
        ),
    ],
)
def test_overflow_prints_one_error_line(tmp_path, x0, rows, line):
    text = f"dim 2\nx0 {x0}\n" + "".join(f"hyperplane {r}\n" for r in rows)
    problem = write_problem(tmp_path, text)
    for method in ("cp", "gk-affine", "dr"):
        args = ["solve", problem, "--method", method, "--out", "t.csv"]
        result = run_child([sys.executable, "-m", "cycproj"] + args, tmp_path)
        assert result.returncode == 1, method
        assert result.stderr == line + "\n", method
        assert result.stdout == ""
        assert not (tmp_path / "t.csv").exists(), method


FLAG_ERRORS = [
    ("hyperplane-bench", "--m", "x", "m must be an integer"),
    ("hyperplane-bench", "--reps", "x", "reps must be an integer"),
    ("hyperplane-bench", "--eps", "x", "eps must be a number"),
    ("angle-sweep", "--theta-step", "x", "theta-step must be a number"),
    ("angle-sweep", "--theta-min", "nan", "theta-min must be a finite number"),
    ("angle-sweep", "--theta-step", "nan", "theta-step must be a finite number"),
    ("angle-sweep", "--theta-max", "inf", "theta-max must be a finite number"),
    ("angle-sweep", "--theta-step", "inf", "theta-step must be a finite number"),
    ("angle-sweep", "--eps", "nan", "eps must be a finite number"),
    ("angle-sweep", "--eps", "inf", "eps must be a finite number"),
]


@pytest.mark.parametrize(
    "command,flag,value,message",
    FLAG_ERRORS,
    # The non-number "x" cases keep their names from before the value column.
    ids=["-".join(c[:2] + c[3:] if c[2] == "x" else c) for c in FLAG_ERRORS],
)
def test_flag_type_errors_name_the_type(capsys, command, flag, value, message):
    assert main([command, flag, value]) == 1
    assert f"error: argument {flag}: {message}\n" in capsys.readouterr().err


@pytest.mark.parametrize("out", [".", "missing/x.csv"])
def test_unwritable_out_prints_one_error_line(tmp_path, out):
    target = str(tmp_path / out)  # "." is the directory itself
    problem = write_problem(tmp_path, TWO_LINES)
    sweep = ["angle-sweep", "--theta-min", "0.5", "--theta-max", "0.5", "--reps", "1"]
    for args in (["solve", problem], sweep):
        cmd = [sys.executable, "-m", "cycproj"] + args + ["--out", target]
        result = run_child(cmd, tmp_path)
        assert result.returncode == 1, args[0]
        assert "Traceback" not in result.stderr
        assert result.stderr.startswith(f"error: cannot write {target}: ")
        assert result.stderr.count("\n") == 1, result.stderr
        assert result.stdout == ""


def write_rows_problem(tmp_path, name, x0, a, b):
    """A problem file of the hyperplanes a[i] . x = b[i], floats written exactly."""
    lines = [f"dim {a.shape[1]}", "x0 " + " ".join(repr(float(v)) for v in x0)]
    for row, value in zip(a, b):
        lines.append(
            "hyperplane " + " ".join(repr(float(v)) for v in row) + f" {float(value)!r}"
        )
    return write_problem(tmp_path, "\n".join(lines) + "\n", name)


def hyperplane_pair(rng, d, theta):
    """Unit normals at angle theta, hyperplanes through a random point p,
    and a start 10 from p in their row space; returns (x0, a, b)."""
    a1 = rng.standard_normal(d)
    a1 /= np.linalg.norm(a1)
    u = rng.standard_normal(d)
    u -= (u @ a1) * a1
    u /= np.linalg.norm(u)
    a = np.array([a1, math.cos(theta) * a1 + math.sin(theta) * u])
    p = rng.standard_normal(d)
    return p + 10.0 * (a1 + u) / math.sqrt(2.0), a, a @ p


def trace_csv(problem, method, store_every):
    """The solve CSV rebuilt from the trace that solve() keeps in memory."""
    x0, sets = parse_problem_file(problem)
    target = exact_projection(x0, sets)
    op, rule = build_operator(sets, method)
    cfg = SolveConfig(eps=1e-9, max_iter=100_000, store_every=store_every)
    trace = solve(op, rule, x0, cfg)
    shadow = sets[0].project if method in ("dr", "accel-dr") else (lambda z: z)
    lines = ["k,t_k,successive_change,dist_to_solution"]
    for k, t, change, z in zip(trace.ks, trace.steps, trace.changes, trace.iterates):
        dist = np.linalg.norm(shadow(z) - target)
        cells = [format(float(v), ".17g") for v in (t, change, dist)]
        lines.append(",".join([str(k)] + cells))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("store_every", ["1", "3", "0"])
def test_streamed_csv_equals_in_memory_trace(tmp_path, capsys, store_every):
    # 70 rows take the row kernel; the dr methods need exactly two sets,
    # so only the pair runs them.
    rng = np.random.default_rng(70)
    a = rng.standard_normal((70, 140))
    p = rng.standard_normal(140)
    x0 = p + a.T @ rng.standard_normal(70) / 10.0
    system = write_rows_problem(tmp_path, "system.txt", x0, a, a @ p)
    pair = write_rows_problem(tmp_path, "pair.txt", *hyperplane_pair(rng, 20, 0.3))
    cycles = [m for m in SOLVE_METHODS if not m.endswith("dr")]
    out = tmp_path / "trace.csv"
    for problem, methods in ((system, cycles), (pair, SOLVE_METHODS)):
        for method in methods:
            args = ["solve", problem, "--method", method, "--store-every", store_every]
            assert main(args + ["--out", str(out)]) == 0, method
            want = trace_csv(problem, method, int(store_every))
            assert out.read_bytes() == want, method
    capsys.readouterr()


def test_solve_memory_does_not_grow_with_iterations(tmp_path, capsys):
    # cp on two hyperplanes at theta = 0.05 in R^400 takes 6,674 iterations;
    # their iterates alone would take 21 MB.
    rng = np.random.default_rng(11)
    problem = write_rows_problem(tmp_path, "pair.txt", *hyperplane_pair(rng, 400, 0.05))
    out = tmp_path / "trace.csv"
    tracemalloc.start()
    try:
        code = main(["solve", problem, "--method", "cp", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    err = capsys.readouterr().err
    iterations = int(err.split("after ")[1].split(" iterations")[0])
    assert iterations > 5000
    assert len(out.read_text().splitlines()) == iterations + 1
    assert peak < 2_000_000


def test_solve_exit_codes(tmp_path, capsys):
    bad = write_problem(tmp_path, "dim 2\nx0 1 2\nhyperplane 1 0\n", "bad.txt")
    assert main(["solve", bad]) == 1
    assert "error: line 3:" in capsys.readouterr().err

    problem = write_problem(tmp_path, TWO_LINES)
    out = tmp_path / "t.csv"
    assert main(["solve", problem, "--max-iter", "1", "--out", str(out)]) == 2
    assert "hit the iteration limit" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 2  # header plus the one row

    infeasible = write_problem(
        tmp_path,
        "dim 2\nx0 1 2\nhyperplane 1 0 0\nhyperplane 2 0 5\n",
        "inf.txt",
    )
    assert main(["solve", infeasible]) == 3
    capsys.readouterr()

    three = write_problem(
        tmp_path,
        TWO_LINES + "hyperplane 1 1 0\n",
        "three.txt",
    )
    assert main(["solve", three, "--method", "dr"]) == 1
    assert "two constraint sets" in capsys.readouterr().err

    # |x0|^2 overflows: not a feasible start, but a numerical failure
    huge = write_problem(
        tmp_path,
        "dim 2\nx0 1e308 1e308\nhyperplane 1 1 0\nhyperplane 1 -1 0\n",
        "huge.txt",
    )
    with np.errstate(all="ignore"):
        assert main(["solve", huge]) == 1
    err = capsys.readouterr().err
    assert "error: non-finite value" in err and "converged" not in err

    assert main(["solve", problem, "--method", "qr"]) == 1
    capsys.readouterr()
    assert main(["solve", problem, "--seed", "1"]) == 1
    capsys.readouterr()
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_angle_sweep_schema_and_determinism(tmp_path):
    args = [
        "angle-sweep",
        "--theta-min", "0.3",
        "--theta-max", "0.5",
        "--theta-step", "0.1",
        "--reps", "2",
        "--eps", "1e-6",
        "--seed", "7",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    lines = first.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    rows = read_rows(str(first))
    assert len(rows) == 6  # three angles, two methods
    assert [r["method"] for r in rows] == ["cp", "gk-affine"] * 3
    assert sorted({r["theta"] for r in rows}) == ["0.3", "0.4", "0.5"]
    assert all(r["reps"] == "2" and r["seed"] == "7" for r in rows)
    for r in rows:
        assert float(r["mean_iterations"]) >= 1.0
        assert float(r["std_iterations"]) >= 0.0

    third = tmp_path / "c.csv"
    assert main(args[:-2] + ["--seed", "8", "--out", str(third)]) == 0
    assert third.read_bytes() != first.read_bytes()


def test_angle_sweep_acceleration_dominates_small_angles(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "angle-sweep",
            "--theta-min", "0.05",
            "--theta-max", "0.15",
            "--theta-step", "0.05",
            "--reps", "3",
            "--eps", "1e-6",
            "--max-iter", "200000",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_rows(str(out))
    by_theta = {}
    for r in rows:
        by_theta.setdefault(r["theta"], {})[r["method"]] = float(r["mean_iterations"])
    for theta, methods in by_theta.items():
        assert methods["gk-affine"] * 5 <= methods["cp"], theta


def test_angle_sweep_failure_paths(tmp_path, capsys):
    assert main(["angle-sweep", "--theta-min", "1.0", "--theta-max", "0.5"]) == 1
    assert "error:" in capsys.readouterr().err
    out = tmp_path / "s.csv"
    code = main(
        [
            "angle-sweep",
            "--theta-min", "0.01",
            "--theta-max", "0.01",
            "--theta-step", "1",
            "--reps", "1",
            "--max-iter", "5",
            "--out", str(out),
        ]
    )
    assert code == 2
    assert out.read_text().splitlines()[0] == SWEEP_HEADER


def test_hyperplane_bench_schema_and_determinism(tmp_path):
    args = [
        "hyperplane-bench",
        "--m", "40",
        "--n", "20",
        "--reps", "2",
        "--methods", "cp,accel-cp,sym-cp,accel-sym-cp",
        "--seed", "3",
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + ["--out", str(first)]) == 0
    assert main(args + ["--out", str(second)]) == 0

    def strip_times(path):
        lines = path.read_text().splitlines()
        keep = []
        for line in lines[1:]:
            cols = line.split(",")
            del cols[5]
            keep.append(cols)
        return lines[0], keep

    assert strip_times(first) == strip_times(second)

    header, _ = strip_times(first)
    assert header == BENCH_HEADER
    rows = read_rows(str(first))
    assert [r["method"] for r in rows] == ["cp", "accel-cp", "sym-cp", "accel-sym-cp"]
    for r in rows:
        assert r["m"] == "40" and r["n"] == "20"
        assert float(r["mean_residual"]) < 1e-2
        assert float(r["mean_time_s"]) > 0.0
    by = {r["method"]: float(r["mean_iterations"]) for r in rows}
    assert by["accel-cp"] <= by["cp"]
    assert by["accel-sym-cp"] <= by["sym-cp"]


def test_hyperplane_bench_default_n_and_errors(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    code = main(
        [
            "hyperplane-bench",
            "--m", "30",
            "--reps", "1",
            "--methods", "accel-cp",
            "--out", str(out),
        ]
    )
    assert code == 0
    rows = read_rows(str(out))
    assert rows[0]["n"] == "15"

    assert main(["hyperplane-bench", "--methods", "lsqr", "--m", "10"]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["hyperplane-bench", "--methods", ",", "--m", "10"]) == 1
    capsys.readouterr()
    assert main(["hyperplane-bench", "--m", "-3"]) == 1
    capsys.readouterr()
    # m = 1 gives n = m // 2 = 0 rows: a usage error, not a traceback
    assert main(["hyperplane-bench", "--m", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:")
    assert main(["hyperplane-bench", "--m", "40,1", "--out", str(out)]) == 1
    capsys.readouterr()
    assert main(["hyperplane-bench", "--m", "40,0"]) == 1
    capsys.readouterr()


def test_all_converged_is_per_method():
    # A bound that the accelerated method meets and the plain one does not,
    # taken from the counts of an unbounded run.
    rows = hyperplane_bench(40, 20, 1, 1e-6, 3, ["cp", "accel-cp"], 100_000)
    cp, accel = (int(r.mean_iterations) for r in rows)
    assert accel < cp
    rows = hyperplane_bench(40, 20, 1, 1e-6, 3, ["cp", "accel-cp"], accel)
    assert [r.all_converged for r in rows] == [False, True]

    rows = angle_sweep([0.1], 1, 1e-6, 3, 100_000)
    cp, accel = (int(r.mean_iterations) for r in rows)
    assert accel < cp
    rows = angle_sweep([0.1], 1, 1e-6, 3, accel)
    assert [r.all_converged for r in rows] == [False, True]


def test_experiment_scripts(tmp_path):
    args = ["--theta-min", "0.5", "--theta-max", "0.6", "--theta-step", "0.1",
            "--reps", "1", "--out", "sweep.csv"]
    sweep = [sys.executable, str(SCRIPTS / "angle_sweep.py")]
    result = run_child(sweep + args, tmp_path)
    assert result.returncode == 0, result.stderr
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == SWEEP_HEADER and len(lines) == 1 + 2 * 2

    bench = [sys.executable, str(SCRIPTS / "hyperplane_bench.py")]
    result = run_child(bench + ["--m", "40,60", "--reps", "1"], tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert lines[0] == BENCH_HEADER and len(lines) == 1 + 2 * 2
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["40", "20", "cp"], ["40", "20", "accel-cp"],
        ["60", "30", "cp"], ["60", "30", "accel-cp"],
    ]

    result = run_child(bench + ["--reps", "0"], tmp_path)
    assert result.returncode == 1
    assert result.stdout == ""
    assert "error: argument --reps: reps must be positive" in result.stderr


def run_child(args, tmp_path):
    """Run a child process in tmp_path that imports the source tree under test.

    The tree the tests imported goes first on the child's PYTHONPATH, so
    neither a relative inherited entry nor a stale install can stand in
    for it.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE_ROOT), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        args, capture_output=True, text=True, cwd=tmp_path, env=env
    )


def declared_console_script():
    """The `cycproj` console-script entry point that pyproject.toml declares."""
    try:
        import tomllib
    except ModuleNotFoundError:  # Python 3.10
        tomllib = pytest.importorskip("tomli")
    with open(PYPROJECT, "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"]["cycproj"]
    return importlib.metadata.EntryPoint(
        name="cycproj", value=value, group="console_scripts"
    )


def run_entry_point(entry_point, args, tmp_path):
    """Call an entry point in a child process the way pip's wrapper does."""
    code = (
        "import sys\n"
        f"sys.argv[0] = {entry_point.name!r}\n"
        f"from {entry_point.module} import {entry_point.attr.split('.')[0]}\n"
        f"sys.exit({entry_point.attr}())\n"
    )
    return run_child([sys.executable, "-c", code, *args], tmp_path)


def test_module_and_script_entrypoints(tmp_path):
    result = run_child([sys.executable, "-m", "cycproj", "--help"], tmp_path)
    assert result.returncode == 0
    assert "angle-sweep" in result.stdout

    result = run_child(
        [sys.executable, "-c", "import cycproj; print(cycproj.__file__)"], tmp_path
    )
    assert result.returncode == 0
    assert Path(result.stdout.strip()).resolve() == Path(cycproj.__file__).resolve()

    script = declared_console_script()
    problem = write_problem(tmp_path, TWO_LINES)
    out = tmp_path / "trace.csv"
    result = run_entry_point(
        script,
        ["solve", problem, "--method", "gk-affine", "--out", str(out)],
        tmp_path,
    )
    assert result.returncode == 0, result.stderr
    assert out.read_text().startswith("k,t_k,successive_change")

    # main's exit code must reach the process: 1 for an unreadable file
    result = run_entry_point(
        script, ["solve", str(tmp_path / "absent.txt")], tmp_path
    )
    assert result.returncode == 1, result.stderr
    assert "error:" in result.stderr


@pytest.mark.skipif(
    shutil.which("cycproj") is None, reason="cycproj console script not installed"
)
def test_installed_console_script(tmp_path):
    problem = write_problem(tmp_path, TWO_LINES)
    out = tmp_path / "trace.csv"
    result = run_child(
        [shutil.which("cycproj"), "solve", problem, "--method", "gk-affine",
         "--out", str(out)],
        tmp_path,
    )
    assert result.returncode == 0
    assert out.read_text().startswith("k,t_k,successive_change")


def test_solve_point_constraint(tmp_path, capsys):
    text = "dim 2\nx0 4 0\npoint 1 1\n"
    problem = write_problem(tmp_path, text)
    assert main(["solve", problem]) == 0
    err = capsys.readouterr().err
    final = np.array([float(v) for v in err.splitlines()[1].split(":")[1].split()])
    assert np.allclose(final, [1.0, 1.0], atol=1e-9)


def test_stdout_default_stream(tmp_path, capsys):
    problem = write_problem(tmp_path, TWO_LINES)
    assert main(["solve", problem, "--method", "gk-affine"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("k,t_k,successive_change")
    assert "gk-affine: converged" in captured.err


def test_solve_final_matches_exact_projection(tmp_path, capsys):
    text = """\
dim 3
x0 2 -1 5
hyperplane 1 1 0 1
hyperplane 0 1 -1 2
"""
    problem = write_problem(tmp_path, text)
    x0, sets = parse_problem_file(problem)
    want = exact_projection(x0, sets)
    assert main(["solve", problem, "--method", "gk-affine"]) == 0
    err = capsys.readouterr().err
    final = np.array([float(v) for v in err.splitlines()[1].split(":")[1].split()])
    assert np.linalg.norm(final - want) <= 1e-6
