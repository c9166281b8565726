#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of cycproj.

Run from any directory of a source checkout (the package is loaded from the
checkout's `src`, never from an installed copy):

    python3 perfbench/run.py --workload angle-sweep --seed 1 --seconds 20 --trace 0

Workloads (see perfbench/README.md for why each exists):
    angle-sweep      one cli.angle_sweep call: two lines in R^2 over an angle grid
    hyperplane-rows  one cli.hyperplane_bench call: all four methods, m = 2000
    solve-cli        `python -m cycproj solve` processes on generated problem files

Each run sets up the inputs several times in fresh interpreters (setup_s),
makes one checked warm-up pass, then repeats checked passes for --seconds.
With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates untraced and traced passes and prints the per-layer
metrics, the traced minus untraced pass time being the tracing overhead.
The last line of standard output is the result object; the lines before it
record the machine, the iteration totals and every failed check.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# BLAS runs single-threaded in this process and every child: the plain
# single-threaded run is the baseline, and 1 <= nproc always holds.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_PROBES = {0: 7, 1: 3}  # fresh-interpreter set-ups per run, by --trace
CHILD_TIMEOUT_S = 120.0
TAIL_BEYOND = 10  # the tail percentile keeps this many samples beyond it

FULL = {
    "angle-sweep": {"theta_min": 0.04, "theta_max": 1.56, "theta_step": 0.04,
                    "reps": 5, "eps": 1e-9, "max_iter": 100_000},
    "hyperplane-rows": {"m": 2000, "reps": 1, "eps": 1e-6, "max_iter": 100_000},
    "solve-cli": {"system_d": 600, "system_n": 300, "pair_d": 400, "pair_theta": 0.05},
}
TINY = {
    "angle-sweep": {"theta_min": 0.4, "theta_max": 1.2, "theta_step": 0.4,
                    "reps": 2, "eps": 1e-9, "max_iter": 100_000},
    "hyperplane-rows": {"m": 60, "reps": 1, "eps": 1e-6, "max_iter": 100_000},
    "solve-cli": {"system_d": 30, "system_n": 15, "pair_d": 20, "pair_theta": 0.3},
}

# hyperplane-rows: ||Ax - b|| after the eps = 1e-6 change-based stop.  The
# residuals seen at m = 2000 are about 1e-4, with ||b|| about 2000.
RESIDUAL_TOL = 1e-3
# solve-cli: distance of the final point from the generator's projection.
# The change-based stop at eps = 1e-9 leaves about eps / (1 - rho) with
# 1 - rho about theta^2 = 2.5e-3 on the pair, so 4e-7; 1e-5 is 25x that.
ANSWER_TOL = 1e-5
# Distance of each solve-cli start point from its answer.
START_DIST = 10.0
SWEEP_METHODS = ("cp", "gk-affine")
BENCH_METHODS = ("cp", "accel-cp", "sym-cp", "accel-sym-cp")
SYSTEM_METHODS = ("cp", "gk-affine", "sym-cp", "accel-sym-cp")
PAIR_METHODS = ("cp", "gk-affine", "dr", "accel-dr")
TRACE_HEADER = "k,t_k,successive_change,dist_to_solution"


@dataclass
class PassResult:
    """Outcome of one pass over a workload's fixed work."""

    seconds: float = 0.0
    attempted: int = 0
    failures: list = field(default_factory=list)
    fingerprint: list = field(default_factory=list)  # must repeat every pass
    iterations: dict = field(default_factory=dict)
    solve_s: list = field(default_factory=list)
    peak_rss_mb: float = 0.0
    out_bytes: int = 0
    trace: dict = None
    notes: dict = field(default_factory=dict)

    def fail(self, what: str) -> None:
        self.failures.append(what)


@dataclass
class Child:
    wall_s: float
    code: int
    rss_mb: float
    stdout: str
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    return env


def run_child(cmd: list, work: Path) -> Child:
    """Run one process to completion, with its wall time and peak RSS."""
    out_path, err_path = work / "child.out", work / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        try:
            fd = os.pidfd_open(proc.pid)
            try:
                ready, _, _ = select.select([fd], [], [], CHILD_TIMEOUT_S)
            finally:
                os.close(fd)
            if not ready:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            raise
        wall = time.perf_counter() - t0
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024.0,
                 out_path.read_text(), err_path.read_text())


@contextlib.contextmanager
def timed_solves(cli, samples: list):
    """Time each `solve` call that cli makes (one wrapper, no layer spans)."""
    orig = cli.solve

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            samples.append(time.perf_counter() - t0)

    cli.solve = timed
    try:
        yield
    finally:
        cli.solve = orig


@contextlib.contextmanager
def layer_trace(res: PassResult):
    from layers import LayerTracer

    tracer = LayerTracer()
    tracer.install()
    try:
        yield
    finally:
        tracer.uninstall()
        res.trace = tracer.to_dict()


class InProcess:
    """A workload that calls the public API from this process."""

    def run_pass(self, traced: bool) -> PassResult:
        import cycproj.cli as cli

        res = PassResult()
        ctx = layer_trace(res) if traced else timed_solves(cli, res.solve_s)
        t0 = time.perf_counter()
        try:
            with ctx:
                rows = self.call(cli)
        except Exception:
            res.seconds = time.perf_counter() - t0
            res.attempted = self.expected_rows
            res.fail("pass raised: " + traceback.format_exc(limit=3))
            return res
        res.seconds = time.perf_counter() - t0
        self.check(rows, res)
        return res

    def peak_rss_mb(self, passes: list) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class AngleSweep(InProcess):
    def __init__(self, cfg: dict, seed: int, work: Path):
        self.cfg, self.seed = cfg, seed
        count = int((cfg["theta_max"] - cfg["theta_min"]) / cfg["theta_step"] + 1e-9) + 1
        self.thetas = [cfg["theta_min"] + cfg["theta_step"] * k for k in range(count)]
        self.expected_rows = len(SWEEP_METHODS) * count

    def setup_spec(self) -> dict:
        return {"workload": "angle-sweep", "seed": self.seed, "thetas": self.thetas}

    def call(self, cli):
        c = self.cfg
        return cli.angle_sweep(self.thetas, c["reps"], c["eps"], self.seed, c["max_iter"])

    def check(self, rows, res: PassResult) -> None:
        res.attempted = len(rows)
        if len(rows) != self.expected_rows:
            res.fail(f"{len(rows)} sweep rows, expected {self.expected_rows}")
        means = {}
        for r in rows:
            means[(r.theta, r.method)] = r.mean_iterations
            res.fingerprint.append((r.theta, r.method, r.mean_iterations, r.std_iterations))
            res.iterations[r.method] = res.iterations.get(r.method, 0) + round(
                r.mean_iterations * r.reps)
            if not r.all_converged:
                res.fail(f"theta={r.theta:.2f} {r.method}: not converged")
        # Reported, not counted as a failure: near pi/2 plain cp needs only a
        # few iterations and the line search can take one or two more.
        res.notes["gk_above_cp_thetas"] = [
            round(t, 6) for t in self.thetas
            if means.get((t, "gk-affine"), 0.0) > means.get((t, "cp"), 0.0)]


class HyperplaneRows(InProcess):
    def __init__(self, cfg: dict, seed: int, work: Path):
        self.cfg, self.seed = cfg, seed
        self.expected_rows = len(BENCH_METHODS)

    def setup_spec(self) -> dict:
        return {"workload": "hyperplane-rows", "seed": self.seed, "m": self.cfg["m"]}

    def call(self, cli):
        c = self.cfg
        return cli.hyperplane_bench(c["m"], c["m"] // 2, c["reps"], c["eps"], self.seed,
                                    list(BENCH_METHODS), c["max_iter"])

    def check(self, rows, res: PassResult) -> None:
        res.attempted = len(rows)
        if len(rows) != self.expected_rows:
            res.fail(f"{len(rows)} bench rows, expected {self.expected_rows}")
        for r in rows:
            res.fingerprint.append((r.method, r.mean_iterations, r.mean_residual))
            res.iterations[r.method] = round(r.mean_iterations * r.reps)
            if not r.all_converged:
                res.fail(f"{r.method}: not converged")
            if not r.mean_residual <= RESIDUAL_TOL:
                res.fail(f"{r.method}: ||Ax-b|| = {r.mean_residual:.3e} > {RESIDUAL_TOL:g}")


def write_problem(path: Path, x0, a, b) -> None:
    with open(path, "w") as fh:
        fh.write(f"dim {x0.size}\n")
        fh.write("x0 " + " ".join(map(repr, x0.tolist())) + "\n")
        for row, val in zip(a.tolist(), b.tolist()):
            fh.write("hyperplane " + " ".join(map(repr, row)) + f" {val!r}\n")


class SolveCli:
    """`cycproj solve` processes on problem files generated from the seed.

    Each problem is built around a known answer p: the start is p plus a
    vector in the row space of the constraints, so p is the projection of
    the start onto the solution set without solving anything.
    """

    def __init__(self, cfg: dict, seed: int, work: Path):
        import numpy as np

        self.work = work
        theta, d = cfg["pair_theta"], cfg["pair_d"]
        rng = np.random.default_rng([seed, 0])
        a = rng.standard_normal((cfg["system_n"], cfg["system_d"]))
        p = rng.standard_normal(cfg["system_d"])
        shift = a.T @ rng.standard_normal(cfg["system_n"])
        system = (a, a @ p, p, p + START_DIST * shift / np.linalg.norm(shift))

        rng = np.random.default_rng([seed, 1])
        a1 = rng.standard_normal(d)
        a1 /= np.linalg.norm(a1)
        u = rng.standard_normal(d)
        u -= (u @ a1) * a1
        u /= np.linalg.norm(u)
        a = np.array([a1, np.cos(theta) * a1 + np.sin(theta) * u])
        p = rng.standard_normal(d)
        c = rng.standard_normal(2)
        pair = (a, a @ p, p, p + START_DIST * (c[0] * a1 + c[1] * u) / np.linalg.norm(c))

        self.problems = []
        for name, (a, b, p, x0), methods in (("system", system, SYSTEM_METHODS),
                                             ("pair", pair, PAIR_METHODS)):
            path = work / f"{name}.txt"
            write_problem(path, x0, a, b)
            self.problems.append({"name": name, "path": path, "a": a, "b": b,
                                  "answer": p, "methods": methods})

    def setup_spec(self) -> dict:
        return {"workload": "solve-cli", "problems": [str(p["path"]) for p in self.problems]}

    def run_pass(self, traced: bool) -> PassResult:
        from layers import merge

        res = PassResult()
        traces = []
        t0 = time.perf_counter()
        for prob in self.problems:
            for method in prob["methods"]:
                csv = self.work / f"{prob['name']}-{method}.csv"
                csv.unlink(missing_ok=True)
                args = ["solve", str(prob["path"]), "--method", method, "--out", str(csv)]
                child = self._spawn("cli", args, traced, traces)
                res.solve_s.append(child.wall_s)
                self._check_solve(prob, method, child, csv, res)
            if prob["name"] == "pair":
                child = self._spawn("verify", [str(prob["path"])], traced, traces)
                self._check_verify(prob, child, res)
        res.seconds = time.perf_counter() - t0
        if traced:
            res.trace = merge(traces)
        return res

    def peak_rss_mb(self, passes: list) -> float:
        return max(p.peak_rss_mb for p in passes)

    def _spawn(self, mode: str, args: list, traced: bool, traces: list) -> Child:
        trace_path = self.work / "trace.json"
        child_py = [sys.executable, str(HERE / "child.py")]
        if not traced:
            cmd = ([sys.executable, "-m", "cycproj"] + args if mode == "cli"
                   else child_py + ["verify"] + args)
        else:
            trace_path.unlink(missing_ok=True)
            cmd = (child_py + ["cli", str(trace_path)] + args if mode == "cli"
                   else child_py + ["verify"] + args + [str(trace_path)])
        child = run_child(cmd, self.work)
        if traced and trace_path.exists():
            traces.append(json.loads(trace_path.read_text()))
        return child

    def _check_solve(self, prob: dict, method: str, child: Child, csv: Path,
                     res: PassResult) -> None:
        import numpy as np

        name = f"{prob['name']} {method}"
        res.attempted += 1
        res.peak_rss_mb = max(res.peak_rss_mb, child.rss_mb)
        iters = final = None
        for line in child.stderr.splitlines():
            if line.startswith(f"{method}: converged after "):
                iters = int(line.split()[3])
            elif line.startswith("final: "):
                final = np.array(line.split()[1:], dtype=float)
        problems = []
        if child.code != 0:
            problems.append(f"exit code {child.code}")
        if iters is None:
            problems.append("not converged")
        else:
            res.iterations[name] = iters
        if final is None or final.shape != prob["answer"].shape:
            problems.append("no final point")
        else:
            err = float(np.linalg.norm(final - prob["answer"]))
            if not err <= ANSWER_TOL:
                problems.append(f"final point {err:.3e} from the answer")
        data = csv.read_bytes() if csv.exists() else b""
        lines = data.decode().splitlines()
        res.out_bytes += len(data)
        if not lines or lines[0] != TRACE_HEADER:
            problems.append("unexpected CSV header")
        elif iters is not None and len(lines) - 1 != iters:
            problems.append(f"{len(lines) - 1} CSV rows for {iters} iterations")
        res.fingerprint.append((name, iters, hashlib.sha256(data).hexdigest()))
        if problems:
            res.fail(f"{name}: " + "; ".join(problems))

    def _check_verify(self, prob: dict, child: Child, res: PassResult) -> None:
        import numpy as np

        res.attempted += 1
        res.peak_rss_mb = max(res.peak_rss_mb, child.rss_mb)
        if child.code != 0:
            res.fail(f"verify {prob['name']}: exit code {child.code}")
            return
        out = json.loads(child.stdout.splitlines()[-1])
        a, b = prob["a"], prob["b"]
        cos = abs(float(a[0] @ a[1]))  # unit normals
        anchor = np.array(out["anchor"])
        problems = []
        if len(out["cosines"]) != 1 or abs(out["cosines"][0] - cos) > 1e-9:
            problems.append(f"cosines {out['cosines']} != {cos!r}")
        if abs(out["constant"] - cos) > 1e-9:
            problems.append(f"rate constant {out['constant']!r} != {cos!r}")
        if out["rank"] != a.shape[1] - 2:
            problems.append(f"fixed set rank {out['rank']} != {a.shape[1] - 2}")
        if np.max(np.abs(a @ anchor - b)) > 1e-8 * (1.0 + np.max(np.abs(b))):
            problems.append("fixed set anchor is off the intersection")
        res.fingerprint.append(("verify", out["rank"], out["constant"]))
        if problems:
            res.fail(f"verify {prob['name']}: " + "; ".join(problems))


WORKLOADS = {"angle-sweep": AngleSweep, "hyperplane-rows": HyperplaneRows,
             "solve-cli": SolveCli}


def machine_info() -> dict:
    import numpy as np
    import scipy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches[f"L{(index / 'level').read_text().strip()}"] = (
                    index / "size").read_text().strip()
        except OSError:
            pass
    model = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((ln.split(":", 1)[1].strip() for ln in fh
                          if ln.startswith("model name")), model)
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": caches,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": BLAS_THREADS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "loadavg_at_start": os.getloadavg(),
    }


def setup_seconds(workload, work: Path, probes: int) -> tuple[list, list]:
    """Fresh-interpreter set-up times and the import times inside them."""
    spec = json.dumps(workload.setup_spec())
    setups, imports = [], []
    for _ in range(probes):
        start = time.monotonic()
        child = run_child([sys.executable, str(HERE / "child.py"), "setup", spec], work)
        if child.code != 0:
            raise RuntimeError(f"set-up probe failed:\n{child.stderr}")
        out = json.loads(child.stdout.splitlines()[-1])
        setups.append(out["t_first_apply"] - start)
        imports.append(out["import_s"])
    return setups, imports


def tail(samples: list) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its value."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return 100.0, ordered[-1]
    return 100.0 * (n - TAIL_BEYOND) / n, ordered[n - TAIL_BEYOND - 1]


def end_to_end(workload, setups: list, timed: list, log) -> dict:
    solves = [s for p in timed for s in p.solve_s]
    pct, tail_s = tail(solves)
    log("solve_latency", {"samples": len(solves), "tail_percentile": round(pct, 2)})
    return {
        "setup_s": statistics.median(setups),
        "run_s": statistics.median(p.seconds for p in timed),
        "solve_p50_s": statistics.median(solves),
        "solve_tail_s": tail_s,
        "peak_rss_mb": workload.peak_rss_mb(timed),
    }


def per_layer(traced: list, untraced: list, imports: list) -> dict:
    """Medians over traced passes of each pass's layer figures."""
    rows = []
    for p in traced:
        spans, counts = p.trace["spans"], p.trace["counts"]

        def span(name):
            return spans.get(name, [0, 0.0, 0.0])

        geo, ops, acc = span("geometry.project"), span("operators.apply"), span("acceleration.solve")
        analysis = {k: span(f"analysis.{k}") for k in ("exact_projection", "rate_constant", "fixset_dr")}
        parse = span("cli.parse")
        cli_self = sum(span(n)[2] for n in ("cli.main", "cli.angle_sweep", "cli.hyperplane_bench"))
        row = {
            "geometry.project_calls": geo[0],
            "geometry.project_s": geo[1],
            "operators.apply_calls": ops[0],
            "operators.apply_self_s": ops[2],
            "operators.flops_computed": counts["flops"],
            "operators.bytes_computed": counts["bytes"],
            "operators.flops_per_byte": counts["flops"] / counts["bytes"] if counts["bytes"] else 0.0,
            "acceleration.iterations": counts["iterations"],
            "acceleration.self_s": acc[2],
            "acceleration.self_us_per_iter": (1e6 * acc[2] / counts["iterations"]
                                              if counts["iterations"] else 0.0),
            "acceleration.trace_rows": counts["trace_rows"],
            "acceleration.trace_bytes": counts["trace_bytes"],
            "cli.parse_s": parse[1],
            "cli.self_s": cli_self,
            "cli.out_bytes": p.out_bytes,
        }
        for k, rec in analysis.items():
            row[f"analysis.{k}_s"] = rec[1]
            row[f"analysis.{k}_calls"] = rec[0]
        shares = {
            "geometry": geo[2],
            "operators": ops[2],
            "acceleration": acc[2],
            "analysis": sum(rec[2] for rec in analysis.values()),
            "cli": cli_self + parse[2] + p.trace.get("import_s", 0.0),
        }
        for layer, seconds in shares.items():
            row[f"share.{layer}"] = seconds / p.seconds
        row["share.other"] = 1.0 - sum(shares.values()) / p.seconds
        rows.append(row)
    out = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    out["cli.import_s"] = statistics.median(imports)
    out["trace.run_s"] = statistics.median(p.seconds for p in traced)
    out["trace.untraced_run_s"] = statistics.median(p.seconds for p in untraced)
    out["trace.overhead_s"] = out["trace.run_s"] - out["trace.untraced_run_s"]
    return out


def check_reference(name: str, seed: int, totals: dict, tiny: bool) -> dict:
    """Iteration totals against the ones this benchmark recorded per seed."""
    if tiny:
        return {"totals": totals, "reference": "none at tiny size"}
    ref = json.loads((HERE / "reference.json").read_text()).get(name, {}).get(str(seed))
    if ref is None:
        return {"totals": totals, "reference": f"none for seed {seed}"}
    differs = {k: {"reference": ref.get(k), "now": totals.get(k)}
               for k in sorted(set(ref) | set(totals)) if ref.get(k) != totals.get(k)}
    return {"totals": totals, "reference": "differs" if differs else "match",
            "differs": differs}


def prepare_process() -> bool:
    """Load cycproj from this checkout's sources with BLAS single-threaded."""
    if not (SRC / "cycproj" / "__init__.py").is_file():
        print(f"error: no cycproj sources under {SRC}", file=sys.stderr)
        return False
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS  # before numpy loads, here and in children
    sys.path.insert(0, str(SRC))
    import cycproj.cli

    if not Path(cycproj.cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"cycproj loaded from {cycproj.cli.__file__}, not {SRC}")
    return True


@contextlib.contextmanager
def workdir(name: str):
    """A scratch directory inside the checkout, removed afterwards."""
    base = ROOT / ".bench_work"
    work = base / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()


def run(args, log) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    cfg = (TINY if args.tiny else FULL)[args.workload]
    log("machine", machine_info())
    log("workload", {"name": args.workload, "seed": args.seed, "config": cfg,
                     "seconds": args.seconds, "trace": args.trace})
    with workdir(args.workload) as work:
        workload = WORKLOADS[args.workload](cfg, args.seed, work)
        setups, imports = setup_seconds(workload, work, SETUP_PROBES[args.trace])

        passes = [workload.run_pass(traced=False)]  # warm-up: checked, not timed
        deadline = time.perf_counter() + args.seconds
        while time.perf_counter() < deadline or len(passes) < (3 if args.trace else 2):
            traced = bool(args.trace) and len(passes) % 2 == 0
            passes.append(workload.run_pass(traced=traced))

    first = passes[0]
    attempted = failed = 0
    failures = []
    for i, p in enumerate(passes):
        bad = len(p.failures)
        if p.fingerprint != first.fingerprint and not p.failures:
            p.fail(f"pass {i}: outputs differ from the first pass")
            bad = p.attempted
        attempted += p.attempted
        failed += min(bad, p.attempted)
        failures += p.failures
    log("iterations", check_reference(args.workload, args.seed, first.iterations, args.tiny))
    log("checks", {"failed_frac": failed / max(attempted, 1), "failures": failures[:20],
                   **first.notes})

    timed = passes[1:]
    if args.trace:
        values = per_layer([p for p in timed if p.trace], [p for p in timed if not p.trace],
                           imports)
        declared = bench["per_layer"]
    else:
        values = end_to_end(workload, setups, timed, log)
        declared = bench["end_to_end"]
    missing = {m["name"] for m in declared} ^ set(values)
    if missing:
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {sorted(missing)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny inputs, for the benchmark's own smoke test")
    args = parser.parse_args(argv)

    if not prepare_process():
        return 2

    def log(key, value):
        print(f"{key}: {json.dumps(value)}", flush=True)

    result = run(args, log)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
