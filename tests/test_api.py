"""Every exported name resolves, the import graph holds, exit codes are
set in one place, the benchmark's hooks hold, sets and composites compare
by identity, the README's examples run, and the source stays within its
line budget."""

import ast
import copy
import importlib
import inspect
import os
import re
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import cycproj
import cycproj.acceleration as acceleration
import cycproj.cli as cli
from cycproj.acceleration import IterationTrace
from cycproj.geometry import HalfSpace, Hyperplane, Span
from cycproj.operators import CycleOperator, DouglasRachfordOperator


@pytest.mark.parametrize(
    "module",
    ["cycproj", "cycproj.geometry", "cycproj.operators", "cycproj.acceleration",
     "cycproj.analysis", "cycproj.cli"],
)
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_package_exports_are_pinned():
    # An export added or removed shows up as an edit here.
    assert cycproj.__all__ == [
        "AffineSet",
        "CycleOperator",
        "DimensionMismatchError",
        "DouglasRachfordOperator",
        "HalfSpace",
        "Hyperplane",
        "InfeasibleProblemError",
        "IterationTrace",
        "NumericalFailureError",
        "RateReport",
        "SolveConfig",
        "Span",
        "StepRule",
        "exact_projection",
        "fixset_dr",
        "friederichs_cosine",
        "rate_constant",
        "solve",
        "step_gk_affine",
        "step_oracle",
    ]


def test_step_rules_and_set_methods_are_pinned():
    # One rule per step formula, and one distance path per set kind
    # (project_with_gap): a second path added back, such as a named rule for
    # the linear step or a residual method, shows up as an edit here.
    assert acceleration._VARIANTS == ("unit", "gk-affine", "oracle")

    def public(cls):
        return [name for name in dir(cls) if not name.startswith("_")]

    assert public(Hyperplane) == [
        "constraint_rows", "dim", "project", "project_with_gap"
    ]
    assert public(Span) == [
        "constraint_rows", "dim", "project", "project_with_gap", "rank"
    ]
    assert public(HalfSpace) == ["dim", "project", "project_with_gap"]
    # One normal-form body: _NormalForm.project_with_gap serves both
    # Hyperplane and HalfSpace (the latter one-sided), and Span has its own.
    bodies = (Hyperplane, HalfSpace, Span)
    assert [c.__name__ for c in bodies if "project_with_gap" in vars(c)] == ["Span"]


def test_from_rows_spelling_is_pinned():
    # A row cycle has one construction: from_rows(a, b) is the cyclic cycle
    # and with_mode gives the other mode.  A mode parameter added back shows
    # up as an edit here.
    assert list(inspect.signature(CycleOperator.from_rows).parameters) == ["a", "b"]


def test_import_graph_is_pinned():
    # Each fact lives in one layer: geometry imports no sibling, the
    # operators, the solver and the analysis build on geometry alone.  An
    # import edge added back shows up here.
    allowed = {
        "geometry": set(),
        "operators": {"geometry"},
        "acceleration": {"geometry"},
        "analysis": {"geometry"},
    }
    source = Path(cycproj.__file__).resolve().parent
    for name, want in allowed.items():
        tree = ast.parse((source / f"{name}.py").read_text())
        got = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                got |= {node.module} if node.module else {a.name for a in node.names}
        assert got <= want, (name, got - want)


def test_exit_codes_are_set_in_main_only():
    # Each subcommand returns whether it converged and main maps that to an
    # exit code.  A second copy of the 0/2 rule shows up here.
    def int_constant(node):
        return isinstance(node, ast.Constant) and type(node.value) is int

    def int_choice(node):  # a constant, or a conditional between constants
        if isinstance(node, ast.IfExp):
            return int_constant(node.body) and int_constant(node.orelse)
        return int_constant(node)

    tree = ast.parse(Path(cli.__file__).read_text())
    returns_two = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        values = [n.value for n in ast.walk(func)
                  if isinstance(n, ast.Return) and n.value is not None]
        if func.name.startswith("cmd_"):
            assert [ast.unparse(v) for v in values if int_choice(v)] == [], func.name
        if any(int_constant(n) and n.value == 2 for v in values for n in ast.walk(v)):
            returns_two.add(func.name)
    assert returns_two == {"main"}


def test_benchmark_hooks(monkeypatch):
    # perfbench times each solve by patching cli.solve, and reads these
    # row and trace fields; a solve bound elsewhere would go untimed.
    calls = []
    real_solve = cli.solve

    def counting_solve(op, rule, x0, cfg, on_row=None):
        calls.append((id(op), rule.variant, tuple(x0)))
        return real_solve(op, rule, x0, cfg, on_row)

    monkeypatch.setattr(cli, "solve", counting_solve)
    rows = cli.angle_sweep([0.5, 1.0], 3, 1e-6, 0, 1000)
    assert len(calls) == len(set(calls)) == 2 * 3 * len(cli.SWEEP_METHODS)
    assert len(rows) == 2 * len(cli.SWEEP_METHODS)
    calls.clear()
    rows = cli.hyperplane_bench(20, 10, 2, 1e-6, 0, list(cli.BENCH_METHODS), 1000)
    methods = len(cli.BENCH_METHODS)
    assert len(calls) == len(set(calls)) == 2 * methods
    assert len({x0 for _, _, x0 in calls}) == 2
    assert len(rows) == methods

    def names(cls):
        return {f.name for f in fields(cls)}

    sweep = {"theta", "method", "mean_iterations", "std_iterations", "reps",
             "all_converged"}
    assert sweep <= names(cli.SweepRow)
    bench = {"method", "mean_iterations", "mean_residual", "reps", "all_converged"}
    assert bench <= names(cli.BenchRow)
    assert {"iterates", "iterations", "final"} <= names(IterationTrace)

    # The tracer patches by identity, so each package export is the object its
    # defining module exports, and each module's __all__ is exported once.
    homes = [importlib.import_module(f"cycproj.{m}")
             for m in ("geometry", "operators", "acceleration", "analysis")]
    exported = [(mod, name) for mod in homes for name in mod.__all__]
    assert sorted(name for _, name in exported) == cycproj.__all__
    for mod, name in exported:
        assert getattr(cycproj, name) is getattr(mod, name), (mod.__name__, name)

    # Every function the layer tracer wraps resolves in its module; one moved
    # elsewhere would leave its traced layer silently at zero.
    harness = Path(__file__).resolve().parents[1] / "perfbench"
    layers = harness / "layers.py"
    if not layers.is_file():
        pytest.skip("perfbench/ is absent")
    spans = next(
        ast.literal_eval(node.value) for node in ast.parse(layers.read_text()).body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["FUNCTION_SPANS"]
    )
    assert spans
    for _, module, name in spans:
        fn = getattr(importlib.import_module(f"cycproj.{module}"), name, None)
        assert callable(fn), (module, name)

    # Every name the harness takes from cycproj or cycproj.cli resolves, so a
    # rename fails here rather than in a benchmark run.
    taken = set()
    for script in ("child.py", "run.py"):
        tree = ast.parse((harness / script).read_text())
        bound = {}  # local name -> the cycproj module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for a in node.names:
                    if a.name.startswith("cycproj"):
                        bound[a.asname or "cycproj"] = a.name if a.asname else "cycproj"
            elif (isinstance(node, ast.ImportFrom)
                  and node.module in ("cycproj", "cycproj.cli")):
                taken |= {(node.module, (a.name,)) for a in node.names}
                bound.update({a.asname or a.name: f"{node.module}.{a.name}"
                              for a in node.names if a.name == "cli"})
        for node in ast.walk(tree):
            path = []
            while isinstance(node, ast.Attribute):
                path.insert(0, node.attr)
                node = node.value
            if path and isinstance(node, ast.Name) and node.id in bound:
                taken.add((bound[node.id], tuple(path)))
    assert ("cycproj.cli", ("solve",)) in taken
    for module, path in taken:
        obj = importlib.import_module(module)
        for attr in path:
            assert hasattr(obj, attr), (module, path)
            obj = getattr(obj, attr)


def test_sets_composites_and_traces_compare_by_identity():
    # Each holds arrays, so value equality would be ambiguous; == and hash are
    # the object's own, and none of them raises.
    h, g = (Hyperplane(np.array([1.0, 0.0]), 0.0) for _ in range(2))
    objects = [
        h,
        Span(np.zeros(2), np.eye(2)[:, :1]),
        HalfSpace(np.array([1.0, 0.0]), 0.0),
        CycleOperator((h, g)),
        DouglasRachfordOperator(h, g),
        IterationTrace(np.zeros(2), np.zeros(2), iterations=0, stop="converged"),
    ]
    assert h != g and len({h, g}) == 2
    for obj in objects:
        assert obj == obj and obj != copy.copy(obj)
        assert {obj: 1}[obj] == 1
    assert len(set(objects)) == len(objects)


def test_readme_examples_run(tmp_path):
    # Every python block of README.md runs, in order and in one namespace,
    # so a name or spelling the package no longer has cannot stay in the docs.
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"^```python\n(.*?)^```$", readme.read_text(), re.M | re.S)
    assert blocks
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    source = str(Path(cycproj.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(p for p in (source, env.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", "".join(blocks)], cwd=tmp_path,
                            env=env, capture_output=True, text=True)
    assert result.returncode == 0, result.stderr


def test_source_line_budget():
    # The round's budget for src/cycproj/*.py, counted as `cat | wc -l` does.
    files = (Path(__file__).resolve().parents[1] / "src" / "cycproj").glob("*.py")
    lines = sum(path.read_bytes().count(b"\n") for path in files)
    assert 0 < lines <= 1650
