"""Child processes of the benchmark, each started in a fresh interpreter.

    child.py setup <spec-json>
        Set-up probe: import cycproj, build or parse the workload's inputs,
        apply the first composite once, and print a JSON line with the
        CLOCK_MONOTONIC time of that moment and the phase durations.
    child.py cli <trace-json> <cycproj CLI arguments...>
        Run `cycproj.cli.main` under the layer tracer and write the tracer
        record to <trace-json>; exits with main's code.
    child.py verify <problem-file> [<trace-json>]
        Verification job for a two-set problem: `rate_constant` and
        `fixset_dr`, printed as one JSON line for the caller to check.

The caller puts the package's `src` directory on PYTHONPATH and fixes the
BLAS thread count in the environment.
"""

import json
import sys
import time


def _import_cycproj() -> float:
    t0 = time.perf_counter()
    import cycproj.cli  # noqa: F401  (the package and every module)

    return time.perf_counter() - t0


def setup(spec: dict) -> None:
    import_s = _import_cycproj()
    import numpy as np
    from cycproj import CycleOperator, Hyperplane
    from cycproj import cli

    t0 = time.perf_counter()
    if spec["workload"] == "angle-sweep":
        ops = []
        for j, theta in enumerate(spec["thetas"]):
            xstar = np.random.default_rng([spec["seed"], j]).standard_normal(2)
            ops.append(CycleOperator(tuple(cli.angle_instance(theta, xstar))))
        firsts = [(ops[0], np.full(2, 10.0))]
    elif spec["workload"] == "hyperplane-rows":
        # The same instance recipe as cli.hyperplane_bench.
        m, n = spec["m"], spec["m"] // 2
        rng = np.random.default_rng([spec["seed"], m, n])
        a = rng.standard_normal((n, m))
        b = a @ rng.standard_normal(m)
        op = CycleOperator(tuple(Hyperplane(a[i], float(b[i])) for i in range(n)))
        firsts = [(op, np.zeros(m))]
    else:
        firsts = []
        for path in spec["problems"]:
            x0, sets = cli.parse_problem_file(path)
            firsts.append((cli.build_operator(sets, "cp")[0], x0))
    build_s = time.perf_counter() - t0
    for op, x0 in firsts:
        op.apply(x0)
    print(json.dumps({"t_first_apply": time.monotonic(),
                      "import_s": import_s, "build_s": build_s}))


def traced_cli(trace_path: str, argv: list) -> int:
    import_s = _import_cycproj()
    from layers import LayerTracer

    import cycproj.cli

    tracer = LayerTracer()
    tracer.install()
    try:
        code = cycproj.cli.main(argv)
    finally:
        tracer.uninstall()
        record = tracer.to_dict()
        record["import_s"] = import_s
        with open(trace_path, "w") as fh:
            json.dump(record, fh)
    return code


def verify(problem: str, trace_path: str = None) -> None:
    import_s = _import_cycproj()
    from layers import LayerTracer

    import cycproj.cli

    tracer = LayerTracer()
    if trace_path:
        tracer.install()
    try:
        _, sets = cycproj.cli.parse_problem_file(problem)
        report = cycproj.rate_constant(sets)
        fix = cycproj.fixset_dr(sets[0], sets[1])
    finally:
        tracer.uninstall()
    if trace_path:
        record = tracer.to_dict()
        record["import_s"] = import_s
        with open(trace_path, "w") as fh:
            json.dump(record, fh)
    print(json.dumps({
        "cosines": list(report.cosines),
        "constant": report.constant,
        "rank": fix.rank,
        "anchor": fix.anchor.tolist(),
    }))


def main(argv: list) -> int:
    mode = argv[0]
    if mode == "setup":
        setup(json.loads(argv[1]))
        return 0
    if mode == "cli":
        return traced_cli(argv[1], argv[2:])
    if mode == "verify":
        verify(*argv[1:3])
        return 0
    print(f"unknown mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
