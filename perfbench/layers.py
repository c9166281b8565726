"""Layer tracer for the benchmark: counting timers around cycproj's public calls.

`LayerTracer.install()` replaces the public functions and methods of each
package module with wrappers that aggregate calls into one record per span
name (call count, total seconds, self seconds) instead of keeping one span
per call.  Functions are replaced under every name a caller can look them up
by (for example `cycproj.cli.solve` as well as `cycproj.acceleration.solve`);
methods are replaced on their classes.  `uninstall()` restores the
originals.

A call made while a span of the same name is open (Span.project_with_gap
calling Span.project, a Douglas-Rachford apply_with_increments calling
apply_with_trace) belongs to the open span, so each projection and each
composite application is counted once.  Self time is a span's duration
minus the spans opened directly inside it.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref

GEOMETRY_METHODS = ("project", "project_with_gap")
OPERATOR_METHODS = ("apply", "apply_with_increments", "apply_with_trace")
# (span name, module, function name); analysis.fixset_dr lives in operators.
FUNCTION_SPANS = (
    ("acceleration.solve", "acceleration", "solve"),
    ("analysis.exact_projection", "analysis", "exact_projection"),
    ("analysis.rate_constant", "analysis", "rate_constant"),
    ("analysis.fixset_dr", "operators", "fixset_dr"),
    ("cli.parse", "cli", "parse_problem_file"),
    ("cli.main", "cli", "main"),
    ("cli.angle_sweep", "cli", "angle_sweep"),
    ("cli.hyperplane_bench", "cli", "hyperplane_bench"),
)
COUNTS = ("iterations", "trace_rows", "trace_bytes", "flops", "bytes")


def _classes(module):
    return [
        v for v in vars(module).values()
        if isinstance(v, type) and v.__module__ == module.__name__
    ]


def projection_cost(s) -> tuple[int, int]:
    """Computed (flops, bytes) of one projection onto a set.

    Hyperplane or half-space: a dot product and an axpy over d entries,
    reading the normal and x and writing the result.  Span of rank r:
    two products with the d x r basis plus the anchor shift.  Unknown
    kinds count as zero.
    """
    normal = getattr(s, "normal", None)
    if normal is not None:
        d = normal.shape[0]
        return 4 * d, 24 * d
    basis = getattr(s, "basis", None)
    if basis is not None:
        d, r = basis.shape
        return 4 * d * r + 2 * d, 8 * (2 * d * r + 4 * d)
    return 0, 0


def composite_cost(op) -> tuple[int, int]:
    """Computed (flops, bytes) of one composite application."""
    sets = getattr(op, "sets", None)
    if sets is not None:
        stages = list(sets)
        if getattr(op, "mode", "cyclic") == "symmetric":
            stages += list(reversed(sets[:-1]))
        costs = [projection_cost(s) for s in stages]
        return sum(c[0] for c in costs), sum(c[1] for c in costs)
    first = getattr(op, "first", None)
    if first is not None:
        # One averaged double reflection: two projections, 2P - x twice and
        # the average, each a pass of 2 flops and 24 bytes per entry.
        fa, ba = projection_cost(first)
        fb, bb = projection_cost(op.second)
        d = first.dim
        halves = 2 if op.symmetric else 1
        return halves * (fa + fb + 6 * d), halves * (ba + bb + 72 * d)
    return 0, 0


class LayerTracer:
    """Aggregated spans and work counts for one traced stretch of work."""

    def __init__(self):
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts = dict.fromkeys(COUNTS, 0)
        self._stack: list[list] = []
        self._undo: list[tuple] = []
        self._costs: dict[int, tuple] = {}

    def install(self) -> None:
        import cycproj.cli  # noqa: F401  (the package and every module)

        mods = {name: sys.modules[f"cycproj.{name}"] for name in
                ("geometry", "operators", "acceleration", "analysis", "cli")}
        for cls in _classes(mods["geometry"]):
            for meth in GEOMETRY_METHODS:
                if meth in cls.__dict__:
                    self._replace(cls, meth, self._wrap(cls.__dict__[meth], "geometry.project"))
        for cls in _classes(mods["operators"]):
            for meth in OPERATOR_METHODS:
                if meth in cls.__dict__:
                    wrapped = self._wrap(cls.__dict__[meth], "operators.apply", self._count_apply)
                    self._replace(cls, meth, wrapped)
        owners = [m for n, m in sorted(sys.modules.items())
                  if m is not None and (n == "cycproj" or n.startswith("cycproj."))]
        for span, mod, name in FUNCTION_SPANS:
            fn = getattr(mods[mod], name, None)
            if fn is None:
                continue
            hook = self._count_solve if span == "acceleration.solve" else None
            wrapped = self._wrap(fn, span, hook)
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._replace(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            obj, attr, orig = self._undo.pop()
            setattr(obj, attr, orig)

    def to_dict(self) -> dict:
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counts": dict(self.counts)}

    def _replace(self, obj, attr, value) -> None:
        self._undo.append((obj, attr, vars(obj)[attr]))
        setattr(obj, attr, value)

    def _wrap(self, fn, span, on_exit=None):
        rec = self.spans.setdefault(span, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if stack and stack[-1][0] is rec:
                return fn(*args, **kwargs)
            frame = [rec, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]
                if stack:
                    stack[-1][1] += dt
            if on_exit is not None:
                on_exit(args, out)
            return out

        return wrapper

    def _count_apply(self, args, out) -> None:
        op = args[0]
        entry = self._costs.get(id(op))
        if entry is None or entry[0]() is not op:
            entry = (weakref.ref(op), *composite_cost(op))
            self._costs[id(op)] = entry
        self.counts["flops"] += entry[1]
        self.counts["bytes"] += entry[2]

    def _count_solve(self, args, trace) -> None:
        rows = len(trace.iterates)
        self.counts["iterations"] += trace.iterations
        self.counts["trace_rows"] += rows
        self.counts["trace_bytes"] += rows * trace.final.shape[0] * 8


def merge(parts) -> dict:
    """Sum tracer dicts (one per process or pass) into one."""
    total = {"spans": {}, "counts": dict.fromkeys(COUNTS, 0), "import_s": 0.0}
    for part in parts:
        for name, rec in part["spans"].items():
            acc = total["spans"].setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += rec[i]
        for key in COUNTS:
            total["counts"][key] += part["counts"][key]
        total["import_s"] += part.get("import_s", 0.0)
    return total
