"""Screen the k = 6 sections of the count-ext workload.

Usage (from the repository root):  python3 perfbench/screen_k6.py [N]

Draws 6-dim K in S^- over F_2 from a fixed seed and prints the first N
(default 24) that verify_k6_relation accepts (a finite dual scheme, seen up
to F_16) and whose report passes the workload's scalar check, as the
K6_POOL literal of workloads.py.  It was run once to make that pool; the
benchmark itself never screens, so the code it measures does not choose its
inputs.
"""

import random
import sys
from types import SimpleNamespace

import run
from workloads import DIM_S, K6_MAX_DEGREE, check_k6, k6_basis


def main(argv) -> int:
    want = int(argv[0]) if argv else 24
    lib = SimpleNamespace(**run.load_library())
    field = lib.fields.PrimeField(2)
    rng = random.Random("k6-pool")
    pool = []
    while len(pool) < want:
        rows = tuple(rng.getrandbits(16) for _ in range(6))
        K = lib.linalg.Subspace(field, DIM_S, k6_basis(rows))
        if K.dim != 6:
            continue
        try:
            report = lib.counting.verify_k6_relation(K, max_degree=K6_MAX_DEGREE)
        except ValueError:
            continue
        if check_k6(lib, rows, report) is None:
            pool.append(rows)
    print("K6_POOL = (")
    for rows in pool:
        print("    (" + ", ".join(f"0x{r:04X}" for r in rows) + "),")
    print(")")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
