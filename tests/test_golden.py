"""Golden CLI outputs: refactors must leave every pinned output byte-identical.

`tests/golden/cli.json` stores, for each CLI case below, the SHA-256 of
the output file, its row count, the stderr text and the exit code, next
to the numpy version and BLAS library that produced them.  The cases run
in one child process with OPENBLAS_NUM_THREADS=1 in its environment, so
the oracle's least-squares solve takes the same path on any core count.
On another numpy or BLAS the test skips and names the difference.

Regenerate the file, only in a change that says why, with
`PYTHONPATH=src python tests/test_golden.py`.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cycproj
from cycproj.cli import main, parse_problem_file

from conftest import GK_IDENTITY_TOL, gk_identity_misfits

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli.json"
SOURCE_ROOT = Path(cycproj.__file__).resolve().parents[1]
SOLVE_METHODS = ("cp", "gk-affine", "sym-cp", "accel-sym-cp", "dr", "accel-dr")
BENCH_METHODS = ("cp", "accel-cp", "sym-cp", "accel-sym-cp")

# Runs each case through cli.main and prints the records as JSON.  A
# case's output goes to its own file; a run that fails before writing
# leaves none, recorded as a null digest.  Columns named in the case's
# mask are replaced by "*" before hashing.
CHILD = """\
import contextlib, hashlib, io, json, os, sys
from cycproj.cli import main

records = {}
for name, argv, mask in json.loads(sys.argv[1]):
    out = name + ".csv"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv + ["--out", out])
    digest = rows = None
    if os.path.exists(out):
        with open(out) as fh:
            lines = fh.read().splitlines()
        hidden = [i for i, col in enumerate(lines[0].split(",")) if col in mask]
        for j in range(1, len(lines)):
            cells = lines[j].split(",")
            for i in hidden:
                cells[i] = "*"
            lines[j] = ",".join(cells)
        digest = hashlib.sha256("\\n".join(lines).encode()).hexdigest()
        rows = len(lines) - 1
    records[name] = {"sha256": digest, "rows": rows, "stderr": err.getvalue(),
                     "exit": code}
json.dump(records, sys.stdout, indent=1, sort_keys=True)
"""


def environment():
    """The numpy version and the BLAS library numpy was built against."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.26 has no config dicts
        name = "unknown"
    return {"numpy": np.__version__, "blas": name}


def rows_problem(x0, a, b):
    """Problem-file text for the hyperplanes a[i] . x = b[i], floats exact."""
    lines = [f"dim {a.shape[1]}", "x0 " + " ".join(repr(float(v)) for v in x0)]
    for row, value in zip(a, b):
        cells = " ".join(repr(float(v)) for v in row)
        lines.append(f"hyperplane {cells} {float(value)!r}")
    return "\n".join(lines) + "\n"


def problem_files(directory):
    """Write the four seeded problem files; returns {name: path}."""
    rng = np.random.default_rng(20200701)
    # 70 rows in R^140 take the row kernel; x0 sits in their row space.
    a = rng.standard_normal((70, 140))
    p = rng.standard_normal(140)
    system = rows_problem(p + a.T @ rng.standard_normal(70) / 10.0, a, a @ p)
    # Two lines through p at 0.3 rad, and a start drawn around p at scale 10.
    p = rng.standard_normal(2)
    normals = np.array([[0.0, 1.0], [-np.sin(0.3), np.cos(0.3)]])
    x0 = p + 10.0 * rng.standard_normal(2)
    pair = rows_problem(x0, normals, normals @ p)
    texts = {
        "system": system,
        "pair": pair,
        "pair-point": pair + "point " + " ".join(repr(float(v)) for v in p) + "\n",
        "parallel": rows_problem(x0, np.array([normals[0], normals[0]]),
                                 np.array([0.0, 1.0])),
    }
    paths = {}
    for name, text in texts.items():
        path = Path(directory) / f"{name}.txt"
        path.write_text(text)
        paths[name] = str(path)
    return paths


def cases(paths):
    """Each case's (name, argv, masked columns)."""
    out = []
    for problem, path in paths.items():
        for method in SOLVE_METHODS:
            argv = ["solve", path, "--method", method, "--store-every", "1"]
            out.append((f"solve-{problem}-{method}", argv, []))
    sweep = ["--theta-min", "0.05", "--theta-max", "1.55", "--theta-step", "0.1"]
    out.append(("angle-sweep", ["angle-sweep", *sweep, "--reps", "3"], []))
    bench = ["--m", "200,300", "--reps", "2", "--methods", ",".join(BENCH_METHODS)]
    out.append(("hyperplane-bench", ["hyperplane-bench", *bench], ["mean_time_s"]))
    return out


def record(directory):
    """Run every case in one child process; returns the golden record."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SOURCE_ROOT), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, "-c", CHILD, json.dumps(cases(problem_files(directory)))],
        capture_output=True, text=True, cwd=directory, env=env,
    )
    assert result.returncode == 0, result.stderr
    return {"environment": environment(), "cases": json.loads(result.stdout)}


def test_cli_outputs_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    here = environment()
    differ = [f"{k} {golden['environment'][k]} -> {v}"
              for k, v in here.items() if golden["environment"][k] != v]
    if differ:
        pytest.skip("golden outputs were taken on another " + ", ".join(differ))
    got = record(tmp_path)["cases"]
    assert sorted(got) == sorted(golden["cases"])
    for name, want in golden["cases"].items():
        assert got[name] == want, name


def test_store_every_thins_the_solve_rows(tmp_path, capsys):
    # Each solve case again at --store-every 3 and 0: the same run (exit code
    # and stderr), with the header, every third row and the last row kept at
    # 3, and the header alone at 0.  A run that fails writes no file.
    for name, argv, _ in cases(problem_files(tmp_path)):
        if argv[0] != "solve":
            continue
        runs = {}
        for every in ("1", "3", "0"):
            out = tmp_path / f"{name}-{every}.csv"
            code = main(argv[:-1] + [every, "--out", str(out)])
            lines = out.read_text().splitlines() if out.exists() else None
            runs[every] = (code, capsys.readouterr().err, lines)
        code, err, lines = runs["1"]
        if lines is None:
            assert runs["3"] == runs["0"] == runs["1"], name
            continue
        n = len(lines) - 1
        kept = [row for k, row in enumerate(lines[1:], 1) if k % 3 == 0 or k == n]
        assert runs["3"] == (code, err, lines[:1] + kept), name
        assert runs["0"] == (code, err, lines[:1]), name


def test_gk_solve_rows_meet_the_pythagorean_identity(tmp_path, capsys):
    # Each gk-affine and accel-sym-cp update is an exact line search toward
    # the oracle's target, so every stored row meets the summed identity
    # (conftest.gk_identity_misfits).  accel-dr is left out: its distance
    # column is the shadow's, and the identity holds for the iterate.
    kept = {}
    for name, argv, _ in cases(problem_files(tmp_path)):
        if argv[0] != "solve" or argv[3] not in ("gk-affine", "accel-sym-cp"):
            continue
        out = tmp_path / f"{name}.csv"
        main(argv + ["--out", str(out)])
        capsys.readouterr()
        if not out.exists():  # the parallel lines have no common point
            continue
        header, *rows = out.read_text().splitlines()
        assert header == "k,t_k,successive_change,dist_to_solution", name
        cols = np.array([row.split(",") for row in rows], dtype=float)
        x0, _ = parse_problem_file(argv[1])
        misfits = gk_identity_misfits(cols[:, 3], cols[:, 2], np.linalg.norm(x0))
        assert misfits.max(initial=0.0) <= GK_IDENTITY_TOL, name
        kept[name] = len(misfits)
    # The pair and pair-point accelerated runs land at roundoff in one or two
    # updates and keep no row; the three slower runs keep at least 20 each.
    assert len(kept) == 6, kept
    assert min(kept[f"solve-{p}-gk-affine"] for p in ("system", "pair")) >= 20, kept
    assert kept["solve-system-accel-sym-cp"] >= 20, kept


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        rec = record(tmp)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(rec, indent=1, sort_keys=True) + "\n")
