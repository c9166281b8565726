#!/usr/bin/env python3
"""Random hyperplane benchmark at publication scales (m = 2n).

Times plain and line-search cyclic projections on consistent random
systems A x = b with standard normal entries, 10 starts per size.  The
default sizes stop at m=5000; pass --sizes 500,5000,50000 for the
largest row, which needs about 8 * m * (m // 2) bytes of memory (10 GB
at m=50000) for the matrix, held once and never copied, plus
8 * (m // 2) * 64 bytes of block triangles per cyclic or symmetric
operator (13 MB at m=50000).
"""

import argparse
import sys

from cycproj.cli import BENCH_HEADER, hyperplane_bench, write_table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--sizes",
        default="500,5000",
        help="comma-separated ambient dimensions m; each uses n = m // 2",
    )
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--eps", type=float, default=1e-6)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-iter", type=int, default=100_000)
    parser.add_argument("--methods", default="cp,accel-cp")
    parser.add_argument("--out", default=None, help="output CSV path (default stdout)")
    args = parser.parse_args(argv)

    methods = [name.strip() for name in args.methods.split(",") if name.strip()]
    rows = []
    for text in args.sizes.split(","):
        m = int(text)
        if m < 2:
            parser.error(f"size {m} gives n = m // 2 = 0 rows")
        rows.extend(
            hyperplane_bench(
                m, m // 2, args.reps, args.eps, args.seed, methods, args.max_iter
            )
        )

    if args.out is None or args.out == "-":
        write_table(BENCH_HEADER, rows, sys.stdout)
    else:
        with open(args.out, "w", newline="") as fh:
            write_table(BENCH_HEADER, rows, fh)
    return 0 if all(row.all_converged for row in rows) else 2


if __name__ == "__main__":
    sys.exit(main())
