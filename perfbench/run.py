"""spinor10 benchmark: checked workloads, end-to-end metrics, per-layer spans.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each run is one process and one Python thread, with the library at its
defaults (workers=1) and numpy's BLAS at one thread.  The seed makes the
inputs; the library only sees the generated inputs.  Every op's answer is
checked against a reference; an op that raises or gives a rejected answer
is counted as failed and the run goes on.

--trace 0 prints the end-to-end metrics: wall_s (median full pass),
op_p50_s, op_tail_s, setup_s (median over cold processes) and peak_rss_mb.
--trace 1 alternates untraced and traced passes over the same inputs and
prints the per-layer metrics, derived from span self times.  Both print
human-readable lines (every metric with its unit, fail_ratio included),
write a summary to perfbench/out/, and end with one JSON line:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

# One BLAS thread, set before numpy loads (the set-up probes inherit it).  A
# second thread gains nothing on the scan's 16-column matrix products
# (measured on 2 cores) but makes them several times slower whenever
# another process holds a core.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

from setup_probe import lazy_setup  # noqa: E402
from tracing import LAYERS, OP_SPAN, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 21
TAIL_BEYOND = 10

END_TO_END = {
    "wall_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# The layer functions whose per-layer numbers are reported (see README.md).
FUNCTIONS = (
    "scan.zero_locus",
    "scan.find_first_zero",
    "scan.ext_zero_locus",
    "fields.get_ext_field",
    "clifford.eval_quadratic",
    "clifford.pairing",
    "clifford.clifford_mul",
    "variety.mu",
    "variety.annihilator",
    "variety.restrict_quadric",
    "gamma.gamma",
    "gamma.rho",
    "gamma.rho_form",
    "gamma.polarize_mu",
    "linalg.rref",
    "linalg.kernel_basis",
    "linalg.mat_mul",
    "sections.make_section",
    "sections.smoothness_scan",
    "sections.classify",
    "sections.perp_in_plus",
    "spaces.f4_scan",
    "spaces.span_pi4",
    "counting.count_section_points",
    "counting.dual_point_profile",
    "scene.emit_scene",
    "scene.parse_scene",
)
SCAN_COUNTS = {
    "scan.zero_locus": ("points", "hits"),
    "scan.find_first_zero": ("points",),
    "scan.ext_zero_locus": ("points", "hits"),
}
# Scan entry points that also get points enumerated per second of self time.
RATES = ("scan.zero_locus", "scan.ext_zero_locus")


def per_layer_units():
    units = {}
    for fn in FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
        for stat in SCAN_COUNTS.get(fn, ()):
            units[f"{fn}.{stat}"] = "count"
    units["fields.get_ext_field.cold_builds"] = "count"
    units["fields.get_ext_field.build_s"] = "s"
    for fn in RATES:
        units[f"{fn}.points_per_s"] = "1/s"
    for layer in LAYERS:
        units[f"{layer}.self_s"] = "s"
    units["sections.smooth_accept_ratio"] = "ratio"
    units["trace_overhead"] = "ratio"
    return units


PER_LAYER = per_layer_units()


# --- statistics -----------------------------------------------------------------


def tail_percentile(samples, beyond: int = TAIL_BEYOND):
    """The highest percentile that still has `beyond` samples above it.

    Returns (value, percentile, n): the sample of rank n - beyond - 1 in
    ascending order, and the share of samples at or below that rank.
    """
    n = len(samples)
    if n <= beyond:
        raise ValueError(f"{n} samples cannot leave {beyond} beyond a percentile")
    rank = n - beyond - 1
    return sorted(samples)[rank], 100.0 * (rank + 1) / n, n


# --- environment ----------------------------------------------------------------


def blas_info():
    """BLAS library, version and thread count as numpy reports them."""
    import numpy as np

    info = {"blas": "unknown", "blas_threads": None}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{deps.get('name')} {deps.get('version')}"
    except (KeyError, TypeError, ValueError):
        pass
    info["blas_threads"] = _openblas_threads()
    return info


def _openblas_threads():
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def git_commit():
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def provenance(args):
    import numpy as np

    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }
    info.update(blas_info())
    return info


# --- library --------------------------------------------------------------------


def load_library():
    """Import the spinor10 layers from this checkout's src/ (never elsewhere)."""
    sys.path.insert(0, str(SRC))
    modules = {layer: importlib.import_module(f"spinor10.{layer}") for layer in LAYERS}
    origin = Path(modules["fields"].__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"spinor10 imported from {origin}, not from {SRC}")
    return modules


def setup_probe(workload) -> float:
    """setup_s of one cold interpreter (see setup_probe.py)."""
    fields = ",".join(f"{p}:{m}" for p, m in workload.ext_fields())
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve().parent / "setup_probe.py"), fields],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


# --- passes ---------------------------------------------------------------------


def run_pass(ops, tracer=None):
    """Run every op once.  Returns (wall, [(answer, error, latency)])."""
    results = []
    gc.collect()
    t0 = time.perf_counter()
    for op_id, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = op_id
            span = tracer.open_span(OP_SPAN)
        s = time.perf_counter()
        try:
            answer, error = op.run(), None
        except Exception as e:  # an op that raises is a failed op; the run goes on
            answer, error = None, f"{type(e).__name__}: {e}"
        latency = time.perf_counter() - s
        if tracer is not None:
            tracer.close_span(span)
        results.append((answer, error, latency))
    return time.perf_counter() - t0, results


def check_pass(ops, results):
    """Reference-check each answer.  Returns [(label, latency, reason|None)]."""
    checked = []
    for op, (answer, error, latency) in zip(ops, results):
        reason = error
        if reason is None:
            try:
                reason = op.check(answer)
            except Exception as e:  # a check that cannot read the answer rejects it
                reason = f"check raised {type(e).__name__}: {e}"
        checked.append((op.label, latency, reason))
    return checked


def findings(ops, results):
    """k = 6 relation outcomes: a finding, never an op failure."""
    held = total = 0
    for op, (answer, error, _) in zip(ops, results):
        if op.kind == "k6" and error is None:
            total += 1
            held += bool(answer.passed)
    return {"k6_relation_held": held, "k6_relation_checked": total} if total else {}


def measure_untraced(workload, lib, args):
    """Passes until --seconds (at least stat_passes), and the set-up probes."""
    passes, setup = [], []
    begin = time.perf_counter()
    index = 0
    while index < workload.stat_passes or time.perf_counter() - begin < args.seconds:
        ops = workload.draw_pass(lib, args.seed, index)
        wall, results = run_pass(ops)
        passes.append({"wall": wall, "ops": check_pass(ops, results), "findings": findings(ops, results)})
        index += 1
        # Spread the cold set-up probes over the run, so that one slow spell
        # of a shared machine does not set all of them.
        due = SETUP_REPEATS * min(1.0, (time.perf_counter() - begin) / args.seconds)
        while len(setup) < due:
            setup.append(setup_probe(workload))
    return passes, setup


def measure_traced(workload, lib, modules, args):
    tracer = Tracer()
    tracer.install(modules)
    tracer.active = True
    lazy_setup(lib.fields, lib.scan, workload.ext_fields())
    tracer.active = False
    setup_stats = tracer.function_stats().get("fields.get_ext_field", {})
    tracer.clear()
    tracer.uninstall()

    ops = workload.draw_pass(lib, args.seed, 0)
    reps = []
    spans = None
    begin = time.perf_counter()
    while True:
        t_pair = time.perf_counter()
        wall_plain, results_plain = run_pass(ops)
        tracer.install(modules)
        tracer.active = True
        wall_traced, results_traced = run_pass(ops, tracer)
        tracer.active = False
        tracer.uninstall()
        stats = tracer.function_stats()
        accept = tracer.accept_ratio("sections.make_section", "sections.smoothness_scan")
        uncounted = tracer.uncounted
        if spans is None:
            spans = tracer.span_records()
            spans["ops"] = [op.label for op in ops]
        tracer.clear()
        reps.append(
            {
                "wall_plain": wall_plain,
                "wall_traced": wall_traced,
                "stats": stats,
                "accept": accept,
                "uncounted": uncounted,
                "ops": check_pass(ops, results_plain) + check_pass(ops, results_traced),
            }
        )
        elapsed = time.perf_counter() - begin
        if elapsed + (time.perf_counter() - t_pair) > args.seconds:
            break
    return setup_stats, reps, spans


# --- metrics --------------------------------------------------------------------


def end_to_end_metrics(workload, passes, setup_samples):
    latencies = [lat for p in passes[: workload.stat_passes] for _, lat, _ in p["ops"]]
    tail, pct, n = tail_percentile(latencies)
    values = {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "op_p50_s": statistics.median(latencies),
        "op_tail_s": tail,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "wall_s": f"median of {len(passes)} passes",
        "op_p50_s": f"median of {n} ops over {workload.stat_passes} passes",
        "op_tail_s": f"p{pct:.1f} of {n} ops, {TAIL_BEYOND} beyond",
        "setup_s": f"median of {len(setup_samples)} cold processes",
        "peak_rss_mb": "max resident set of this process",
    }
    return values, notes, {"op_tail_percentile": pct, "op_samples": n}


def per_layer_metrics(setup_stats, reps):
    def med(values):
        return statistics.median(list(values))

    first = reps[0]["stats"]
    values = {}
    for fn in FUNCTIONS:
        values[f"{fn}.calls"] = first.get(fn, {}).get("calls", 0)
        values[f"{fn}.self_s"] = med(r["stats"].get(fn, {}).get("self_s", 0.0) for r in reps)
        for stat in SCAN_COUNTS.get(fn, ()):
            values[f"{fn}.{stat}"] = first.get(fn, {}).get(stat, 0)
    values["fields.get_ext_field.cold_builds"] = setup_stats.get("cold_builds", 0)
    values["fields.get_ext_field.build_s"] = setup_stats.get("build_s", 0.0)
    for fn in RATES:
        t = values[f"{fn}.self_s"]
        values[f"{fn}.points_per_s"] = values[f"{fn}.points"] / t if t else 0.0
    for layer in LAYERS:
        values[f"{layer}.self_s"] = med(
            sum(st["self_s"] for name, st in r["stats"].items() if name.split(".")[0] == layer)
            for r in reps
        )
    returned, made = reps[0]["accept"]
    values["sections.smooth_accept_ratio"] = returned / made if made else 0.0
    values["trace_overhead"] = (
        med(r["wall_traced"] for r in reps) / med(r["wall_plain"] for r in reps) - 1.0
    )
    return values


def function_table(reps):
    """Every traced function: calls, median self time, share of traced op time."""
    names = sorted({n for r in reps for n in r["stats"]})
    # Op spans are the roots, so the self times of all spans add up to the op time.
    op_total = statistics.median(sum(st["self_s"] for st in r["stats"].values()) for r in reps)
    table = {}
    for name in names:
        self_s = statistics.median(r["stats"].get(name, {}).get("self_s", 0.0) for r in reps)
        row = dict(reps[0]["stats"].get(name, {}))
        row["self_s"] = self_s
        row["share"] = self_s / op_total if op_total else 0.0
        table[name] = row
    layers = {}
    for name, row in table.items():
        layer = name.split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + row["share"]
    return table, layers


# --- output ---------------------------------------------------------------------


def print_function_table(table, layer_shares, reps: int):
    print(f"traced functions (median of {reps} traced passes; share of traced op time):")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_s"]):
        counts = " ".join(f"{k}={row[k]}" for k in ("points", "hits", "cold_builds") if k in row)
        print(
            f"  {name:34s} calls={row['calls']:<8d} self_s={row['self_s']:.6f} "
            f"share={row['share']:.4f} {counts}".rstrip()
        )
    print("layer shares: " + " ".join(f"{k}={v:.4f}" for k, v in sorted(layer_shares.items())))


def write_out(name: str, payload, compress: bool = False):
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    data = json.dumps(payload, indent=None if compress else 1, default=str).encode()
    if compress:
        with gzip.open(path, "wb") as fh:
            fh.write(data)
    else:
        path.write_bytes(data)
    return path


def report_failures(checked):
    failed = [(label, reason) for label, _, reason in checked if reason is not None]
    for label, reason in failed[:20]:
        print(f"FAILED op {label}: {reason}")
    if len(failed) > 20:
        print(f"... and {len(failed) - 20} more failed ops")
    return len(failed)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "spinor10" / "__init__.py").is_file():
        print(f"error: no spinor10 sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    modules = load_library()
    lib = SimpleNamespace(**modules)
    prov = provenance(args)
    print("provenance " + json.dumps(prov, sort_keys=True))

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if not args.trace:
        lazy_setup(lib.fields, lib.scan, workload.ext_fields())
        passes, setup_samples = measure_untraced(workload, lib, args)
        checked = [c for p in passes for c in p["ops"]]
        values, notes, extra = end_to_end_metrics(workload, passes, setup_samples)
        units = END_TO_END
        summary = {"passes": passes, "setup_samples": setup_samples, **extra}
        found = passes[0]["findings"]
    else:
        setup_stats, reps, spans = measure_traced(workload, lib, modules, args)
        checked = [c for r in reps for c in r["ops"]]
        values = per_layer_metrics(setup_stats, reps)
        units = PER_LAYER
        notes = {}
        table, layer_shares = function_table(reps)
        print_function_table(table, layer_shares, len(reps))
        spans_path = write_out(f"{args.workload}-seed{args.seed}-spans.json.gz", spans, compress=True)
        print(f"spans written: {spans_path.relative_to(ROOT)}")
        summary = {"functions": table, "layer_shares": layer_shares, "reps": [
            {k: r[k] for k in ("wall_plain", "wall_traced", "accept", "uncounted")} for r in reps]}
        if reps[0]["uncounted"]:
            print(f"warning: {reps[0]['uncounted']} scan calls per pass could not be counted")
        found = {}

    attempted = len(checked)
    failed = report_failures(checked)
    for key, value in found.items():
        print(f"finding {key} {value}")
    for name, unit in units.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"metric {name} {values[name]!r} {unit}{note}")
    print(f"metric fail_ratio {failed / attempted!r} ratio  ({failed} of {attempted} ops)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    path = write_out(stem + ".json", {"provenance": prov, "result": result, "findings": found, **summary})
    print(f"summary written: {path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
