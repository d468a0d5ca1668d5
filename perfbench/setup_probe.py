"""Cold set-up of one workload, timed inside a fresh interpreter.

Usage: python3 perfbench/setup_probe.py P:M[,P:M...]

Imports every spinor10 layer module, does the lazy set-up of the extension
fields F_{P^M} that the workload would otherwise pay inside its first op
(see lazy_setup) and prints {"setup_s": seconds} as JSON.  The clock starts
after this file's own imports, numpy among them, so it covers importing
spinor10 and the set-up.
"""

import importlib
import json
import sys
import time
from pathlib import Path

# Imported before the clock starts: numpy's import is the same for every
# commit of spinor10, and would make up more than half of setup_s.
import numpy  # noqa: F401

from tracing import LAYERS


def lazy_setup(fields, scan, ext_fields):
    """Build each extension field and the scan's lookup tables for it."""
    for p, m in ext_fields:
        # scanning P^0 with no forms builds the tables as a first real scan would
        scan.ext_zero_locus([], fields.get_ext_field(p, m), 1)


def main(argv) -> int:
    t0 = time.perf_counter()
    ext_fields = [tuple(int(x) for x in f.split(":")) for f in argv[0].split(",") if f]
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    modules = dict(zip(LAYERS, (importlib.import_module(f"spinor10.{layer}") for layer in LAYERS)))
    lazy_setup(modules["fields"], modules["scan"], ext_fields)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or [""]))
