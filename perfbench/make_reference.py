#!/usr/bin/env python3
"""Record the iteration totals of every workload per seed in reference.json.

    python3 perfbench/make_reference.py 0-63 7919

Each listed seed (single seeds or inclusive ranges) gets one checked pass of
each workload at full size; nothing is timed.  run.py compares the totals of
its first pass with this table and names every total that differs.  Rerun
this only in a change that is meant to alter iteration counts, and say so.
"""

import json
import sys

import run


def parse_seeds(tokens: list) -> list:
    seeds = []
    for token in tokens:
        lo, _, hi = token.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main(argv: list) -> int:
    if not argv or not run.prepare_process():
        print(__doc__, file=sys.stderr)
        return 2
    table = {}
    for name, cls in run.WORKLOADS.items():
        table[name] = {}
        for seed in parse_seeds(argv):
            with run.workdir(name) as work:
                res = cls(run.FULL[name], seed, work).run_pass(traced=False)
            if res.failures:
                print(f"{name} seed {seed}: {res.failures}", file=sys.stderr)
                return 1
            table[name][str(seed)] = res.iterations
            print(name, seed, res.iterations, flush=True)
    path = run.HERE / "reference.json"
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
