#!/usr/bin/env python3
"""Random hyperplane benchmark at publication scales (m = 2n).

Times plain and line-search cyclic projections on consistent random
systems A x = b with standard normal entries, 10 starts per size, and
writes the summary CSV (default stdout).  Any cycproj hyperplane-bench
flag can be appended to override the experiment defaults.  The default
sizes stop at m=5000; pass --m 500,5000,50000 for the largest row,
which needs about 8 * m * (m // 2) bytes of memory (10 GB at m=50000)
for the matrix, held once and never copied, plus 8 * (m // 2) * 64
bytes of block triangles per cyclic or symmetric operator (13 MB at
m=50000).
"""

import sys

from cycproj.cli import main

DEFAULTS = ["hyperplane-bench", "--m", "500,5000"]

if __name__ == "__main__":
    sys.exit(main(DEFAULTS + sys.argv[1:]))
