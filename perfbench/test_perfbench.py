"""Self-tests of the benchmark's own code (not of spinor10).

Run from the repository root:  python3 -m pytest perfbench
"""

import dataclasses
import json
import sys
import types
from pathlib import Path

import pytest

import run
from tracing import Tracer, lex_rank, merged_length, self_times
from workloads import DIM_S, K6_MAX_DEGREE, K6_POOL, WORKLOADS, check_k6, k6_basis, scalar_dual_count

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def spinor10_scan():
    sys.path.insert(0, str(ROOT / "src"))
    from spinor10 import scan

    return scan


def test_tail_rule_leaves_ten_samples_beyond():
    samples = [float(x) for x in range(20, 0, -1)]
    value, pct, n = run.tail_percentile(samples)
    assert (value, pct, n) == (10.0, 50.0, 20)
    assert sum(1 for s in samples if s > value) == 10


def test_tail_rule_needs_more_than_ten_samples():
    assert run.tail_percentile(list(range(11)))[0] == 0
    with pytest.raises(ValueError):
        run.tail_percentile(list(range(10)))


def test_tail_rule_counts_ties_by_rank():
    samples = [1.0] * 5 + [2.0] * 10
    value, pct, n = run.tail_percentile(samples)
    assert value == 1.0 and n == 15
    assert pct == pytest.approx(100 * 5 / 15)


def test_merged_length_unions_overlaps():
    assert merged_length([]) == 0.0
    assert merged_length([(1, 4), (3, 6), (8, 9)]) == 6
    assert merged_length([(1, 9), (2, 3)]) == 8


def test_self_time_subtracts_covered_child_interval():
    # root [0, 10] > a [1, 4] > a1 [2, 3];  root > b [5, 6];  root > c [12, 13]
    starts = [0.0, 1.0, 2.0, 5.0, 12.0]
    ends = [10.0, 4.0, 3.0, 6.0, 13.0]
    parents = [-1, 0, 1, 0, 0]
    selfs = self_times(starts, ends, parents)
    # c lies outside its parent: only the covered part counts
    assert selfs == [10 - 3 - 1, 3 - 1, 1, 1, 1]
    assert sum(selfs[:4]) == ends[0] - starts[0]


def test_lex_rank_matches_scan_order_on_p2_f3(spinor10_scan):
    rows = [tuple(int(x) for x in row) for b in spinor10_scan.projective_blocks(3, 3) for row in b]
    assert len(rows) == spinor10_scan.num_projective_points(3, 3) == 13
    assert rows == sorted(rows)
    assert [lex_rank(r, 3) for r in rows] == list(range(13))


def test_lex_rank_matches_extension_scan_order(spinor10_scan):
    rows = [tuple(int(x) for x in row) for b in spinor10_scan.ext_projective_blocks(4, 3) for row in b]
    assert [lex_rank(r, 4) for r in rows] == list(range(len(rows)))


def _fake_package():
    pkg = types.ModuleType("fakepkg")
    a = types.ModuleType("fakepkg.a")
    b = types.ModuleType("fakepkg.b")
    exec("def leaf(x):\n    return x + 1\n\ndef inner(x):\n    return leaf(x) * 2\n", a.__dict__)
    a.leaf.__module__ = a.inner.__module__ = "fakepkg.a"
    exec("def outer(x):\n    return inner(x) + inner(x)\n", b.__dict__)
    b.outer.__module__ = "fakepkg.b"
    b.inner = a.inner  # as bound by `from .a import inner`
    return {"fakepkg": pkg, "fakepkg.a": a, "fakepkg.b": b}


def test_tracer_wraps_names_bound_by_from_import(monkeypatch):
    mods = _fake_package()
    for name, mod in mods.items():
        monkeypatch.setitem(sys.modules, name, mod)
    tracer = Tracer(package="fakepkg")
    wrapped = tracer.install({"a": mods["fakepkg.a"], "b": mods["fakepkg.b"]})
    assert wrapped == ["a.inner", "a.leaf", "b.outer"]
    tracer.active = True
    tracer.op_id = 7
    assert mods["fakepkg.b"].outer(1) == 8
    tracer.active = False
    tracer.uninstall()
    assert not hasattr(mods["fakepkg.b"].inner, "__wrapped__")

    names = [tracer.names[n] for n in tracer.name]
    assert names == ["b.outer", "a.inner", "a.leaf", "a.inner", "a.leaf"]
    assert list(tracer.parent) == [-1, 0, 1, 0, 3]
    assert set(tracer.op) == {7}
    stats = tracer.function_stats()
    assert {k: v["calls"] for k, v in stats.items()} == {"b.outer": 1, "a.inner": 2, "a.leaf": 2}
    total = sum(v["self_s"] for v in stats.values())
    assert total == pytest.approx(tracer.end[0] - tracer.start[0])


def test_scan_work_counts_from_outside(spinor10_scan):
    sys.path.insert(0, str(ROOT / "src"))
    from spinor10 import fields

    tracer = Tracer()
    tracer.install({"scan": spinor10_scan})
    try:
        tracer.active = True
        # x1^2 + x2^2 over F_3: -1 is not a square, so the only zero is (1, 0, 0),
        # the fifth point in scan order
        form = [[0, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert spinor10_scan.find_first_zero([form], 3, 3) == (1, 0, 0)
        count, _ = spinor10_scan.zero_locus([form], 3, 3)
        # x1^2 + x1x2 + x2^2 splits over F_4 = {0, 1, x, x+1}: first zero (0, 1, x)
        ext = fields.get_ext_field(2, 2)
        split = [[0, 0, 0], [0, 1, 1], [0, 0, 1]]
        _, pts = spinor10_scan.ext_zero_locus([split], ext, 3, find_first=True)
        tracer.active = False
    finally:
        tracer.uninstall()
    stats = tracer.function_stats()
    assert stats["scan.find_first_zero"]["points"] == 5
    assert stats["scan.zero_locus"]["points"] == 13
    assert stats["scan.zero_locus"]["hits"] == count == 1
    assert pts == [(0, 1, 2)]
    assert stats["scan.ext_zero_locus"]["points"] == 1 + 2 + 1
    attrs = {tracer.names[tracer.name[i]]: a for i, a in tracer.attrs.items()}
    assert attrs["scan.zero_locus"][:4] == (3, 3, 1, "count")
    assert attrs["scan.ext_zero_locus"][:4] == (4, 3, 1, "first")


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert all(w["name"] in WORKLOADS for w in spec["workloads"])


def test_k6_check_rejects_profiles_the_scalar_counts_contradict():
    lib = types.SimpleNamespace(**run.load_library())
    rows = K6_POOL[0]
    K = lib.linalg.Subspace(lib.fields.PrimeField(2), DIM_S, k6_basis(rows))
    report = lib.counting.verify_k6_relation(K, max_degree=K6_MAX_DEGREE)
    assert check_k6(lib, rows, report) is None
    assert check_k6(lib, rows, dataclasses.replace(report, predicted=report.predicted + 4))
    n1, n2 = scalar_dual_count(lib, rows, 1), scalar_dual_count(lib, rows, 2)
    a2 = (n2 - n1) // 2
    for wrong in (
        [(1, n1 + 1), (2, a2)],  # N_1 off
        [(1, n1), (2, a2 + 1)],  # N_2 off
        [(1, n1), (2, a2), (4, 4)],  # length > 12
    ):
        wrong = [(d, a) for d, a in wrong if a]
        notes = f"experimental; dual degrees {wrong}, length >= 0"
        assert check_k6(lib, rows, dataclasses.replace(report, notes=notes)), wrong
