import argparse
import json
import random
import subprocess
import sys

import pytest

from spinor10.clifford import DIM_S, DIM_V, HalfSpinor, MINUS
from spinor10 import cli, counting
from spinor10.cli import build_parser, main
from spinor10.counting import DEFAULT_COUNT_BUDGET, CountReport
from spinor10.fields import PrimeField, QQ
from spinor10.linalg import Subspace
from spinor10.scene import (
    Scene,
    SceneError,
    SceneObject,
    emit_scene,
    parse_scene,
    section_scene,
)
from spinor10.variety import random_spinor

F5 = PrimeField(5)


def test_empty_scene_round_trip():
    s = Scene(PrimeField(2))
    text = emit_scene(s)
    assert parse_scene(text) == s
    assert emit_scene(parse_scene(text)) == text


def test_spinor_scene_round_trip():
    # kappa = e_1 + e_234 over F_5, coordinates in the documented subset order
    kappa = HalfSpinor.from_subsets(
        F5, MINUS, [((1,), F5.one), ((2, 3, 4), F5.one)]
    ).coords
    s = Scene(F5, 42, (SceneObject("kappa", "spinor-", kappa),))
    text = emit_scene(s)
    back = parse_scene(text)
    assert back == s
    assert back.get("kappa").data == kappa
    doc = json.loads(text)
    assert doc["schema"] == "spinor10-scene/1"
    assert doc["objects"][0]["coords"][0] == 1  # e_1 is the first odd subset


def test_rational_scene_round_trip():
    from fractions import Fraction

    coords = tuple(Fraction(i - 3, 2) for i in range(DIM_S))
    s = Scene(QQ, 0, (SceneObject("t", "spinor+", coords),))
    text = emit_scene(s)
    assert parse_scene(text) == s
    assert '"-3/2"' in text


def test_not_prime_rejected():
    text = json.dumps({"schema": "spinor10-scene/1", "field": 6, "objects": []})
    with pytest.raises(SceneError, match="not prime"):
        parse_scene(text)


def test_schema_violations():
    with pytest.raises(SceneError, match="invalid JSON"):
        parse_scene("{nope")
    with pytest.raises(SceneError, match="schema"):
        parse_scene(json.dumps({"schema": "other/9", "field": 2}))
    bad = {
        "schema": "spinor10-scene/1",
        "field": 5,
        "objects": [{"name": "x", "type": "spinor-", "coords": [7] * 16}],
    }
    with pytest.raises(SceneError, match="out of range"):
        parse_scene(json.dumps(bad))
    bad["objects"][0]["coords"] = [0] * 15
    with pytest.raises(SceneError, match="16 coordinates"):
        parse_scene(json.dumps(bad))


def test_rational_lowest_terms_enforced():
    doc = {
        "schema": "spinor10-scene/1",
        "field": "Q",
        "objects": [{"name": "x", "type": "spinor-", "coords": ["2/4"] + ["0/1"] * 15}],
    }
    with pytest.raises(SceneError, match="lowest terms"):
        parse_scene(json.dumps(doc))
    doc["objects"][0]["coords"][0] = "1/-2"
    with pytest.raises(SceneError, match="positive denominator"):
        parse_scene(json.dumps(doc))


def test_section_scene_subspace():
    rows = [
        [1] + [0] * 15,
        [0, 1] + [0] * 14,
    ]
    F3 = PrimeField(3)
    K = Subspace(F3, DIM_S, rows)
    text = emit_scene(section_scene(F3, K, seed=7))
    back = parse_scene(text)
    assert back.get("K").as_subspace(F3) == K
    assert back.seed == 7


# ---------------------------------------------------------------- CLI


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_count_k0(capsys):
    code, out, _ = run_cli(["count", "--field", "2", "--k", "0"], capsys)
    assert code == 0
    assert out.strip() == "2295"


def test_cli_classify_pure_hyperplane(tmp_path, capsys):
    kappa = HalfSpinor.from_subsets(F5, MINUS, [((1,), F5.one)]).coords
    scene = Scene(F5, 0, (SceneObject("kappa", "section", (kappa,)),))
    p = tmp_path / "s.json"
    p.write_text(emit_scene(scene))
    code, out, _ = run_cli(["classify", "--scene", str(p)], capsys)
    assert code == 0
    assert "label: singular-hyperplane" in out


def test_cli_classify_refuses_an_empty_section(tmp_path, capsys):
    p = tmp_path / "s.json"
    p.write_text(emit_scene(Scene(F5, 0, (SceneObject("K", "section", ()),))))
    code, out, err = run_cli(["classify", "--scene", str(p)], capsys)
    assert (code, out) == (2, "") and err.startswith("error: smoothness is decided")


def test_cli_member_and_gamma(capsys):
    pure = ",".join(["1"] + ["0"] * 15)
    code, out, _ = run_cli(
        ["member", "--field", "2", "--half", "-", "--coords", pure], capsys
    )
    assert code == 0 and "on_variety: True" in out
    code, _, err = run_cli(["gamma", "--field", "Q", "--coords", pure], capsys)
    assert code == 1 and "undefined" in err


def test_cli_make_section_f4_roundtrip(tmp_path, capsys):
    p = tmp_path / "sp.json"
    code, _, _ = run_cli(
        ["make-section", "--kind", "special", "--field", "3", "--seed", "5",
         "--out", str(p)],
        capsys,
    )
    assert code == 0
    code, out, _ = run_cli(["f4", "--scene", str(p), "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["count"] == 4  # P^1(F_3)


@pytest.mark.parametrize("q, count", [("5", 6), ("7", 8)])
def test_cli_f4_counts_the_4_spaces_of_a_special_pencil_at_any_q(q, count, tmp_path, capsys):
    p = tmp_path / "sp.json"
    assert run_cli(["make-section", "--kind", "special", "--field", q, "--out", str(p)], capsys)[0] == 0
    code, out, _ = run_cli(["f4", "--scene", str(p), "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["count"] == count


def test_cli_f4_over_budget_exits_1(tmp_path, capsys):
    # P(C_K) of a hyperplane over F_23 is P^6(F_23), 1.5e8 points
    p = tmp_path / "h.json"
    assert run_cli(["make-section", "--kind", "generic-1", "--field", "23", "--out", str(p)], capsys)[0] == 0
    code, out, err = run_cli(["f4", "--scene", str(p)], capsys)
    assert (code, out) == (1, "") and err.count("error:") == 1 and "exceeds budget" in err


PURE = ",".join(["1"] + ["0"] * 15)


@pytest.mark.parametrize("argv, flag", [
    (["member", "--coords", PURE, "--scene", "/nonexistent.json"], "--coords"),
    (["gamma", "--coords", PURE, "--scene", "/nonexistent.json"], "--coords"),
    (["annihilator", "--coords", PURE, "--scene", "/nonexistent.json"], "--coords"),
    (["span", "--kind", "pi4", "--coords", PURE, "--scene", "/nonexistent.json"], "--coords"),
    (["rho", "--coords", PURE, "--coords2", PURE, "--scene", "/nonexistent.json"], "--coords"),
    (["member", "--object", "K"], "--object"),
    (["count", "--field", "2", "--object", "K"], "--object"),
    (["rho", "--objects", "a,b"], "--objects"),
    (["span", "--kind", "annihilator-kernel"], "--scene"),
])
def test_cli_refuses_scene_flags_it_would_ignore(argv, flag, capsys):
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "") and err.count("error:") == 1 and flag in err
    assert "Traceback" not in err


def test_cli_rho_inline(capsys):
    a = ",".join(["1"] + ["0"] * 15)
    b = ",".join(["0"] * 5 + ["1"] + ["0"] * 10)
    code, out, _ = run_cli(
        ["rho", "--field", "5", "--coords", a, "--coords2", b], capsys
    )
    assert (code, out) == (0, "rho: 0\nvanishes: True\n")  # kappa1 is pure: secant vanishing


@pytest.mark.parametrize("kind, vanishes", [("special", True), ("generic-2", False)])
@pytest.mark.parametrize("seed", range(3))
def test_cli_rho_answers_in_characteristic_2_as_classify_does(kind, vanishes, seed, tmp_path, capsys):
    p = tmp_path / "pencil.json"
    argv = ["make-section", "--kind", kind, "--field", "2", "--seed", str(seed), "--out", str(p)]
    assert run_cli(argv, capsys) == (0, "", "")
    code, out, _ = run_cli(["classify", "--scene", str(p)], capsys)
    assert code == 0 and f"label: {'special' if vanishes else 'nonspecial'}\n" in out
    k1, k2 = (",".join(map(str, v)) for v in parse_scene(p.read_text()).get("K").data)
    argv = ["rho", "--field", "2", "--coords", k1, "--coords2", k2]
    # rho itself is -b_V(mu(k1), mu(k2)) / 2: only whether it vanishes has a meaning
    assert run_cli(argv, capsys) == (0, f"vanishes: {vanishes}\n", "")
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0 and json.loads(out) == {"vanishes": vanishes}


@pytest.mark.parametrize("kind, vanishes", [("special", True), ("generic-2", False)])
@pytest.mark.parametrize("q", ["2", "3"])
def test_cli_rho_reads_the_pencil_that_make_section_writes(q, kind, vanishes, tmp_path, capsys):
    p = tmp_path / "s.json"
    argv = ["make-section", "--kind", kind, "--field", q, "--out", str(p)]
    assert run_cli(argv, capsys) == (0, "", "")
    code, out, _ = run_cli(["rho", "--scene", str(p), "--format", "json"], capsys)
    assert code == 0 and json.loads(out)["vanishes"] is vanishes
    # the same pencil given by its basis rows
    k1, k2 = (",".join(map(str, v)) for v in parse_scene(p.read_text()).get("K").data)
    code, inline, _ = run_cli(["rho", "--field", q, "--coords", k1, "--coords2", k2, "--format", "json"], capsys)
    assert (code, inline) == (0, out)


def test_cli_rho_of_a_section_uses_its_stored_rows(tmp_path, capsys):
    """rho changes by det^2 under a change of basis, so a section stored in
    rows that are not its reduced basis gives rho of those rows."""
    from spinor10.gamma import rho
    from spinor10.sections import make_section

    basis = make_section("generic-2", F5).K.basis
    rows = [[2 * a % 5 for a in basis[0]], [(a + b) % 5 for a, b in zip(*basis)]]  # det 2
    p = tmp_path / "s.json"
    p.write_text(emit_scene(Scene(F5, 0, (SceneObject("K", "section", tuple(map(tuple, rows))),))))
    code, out, _ = run_cli(["rho", "--scene", str(p), "--format", "json"], capsys)
    k1, k2 = (",".join(map(str, r)) for r in rows)
    inline = run_cli(["rho", "--field", "5", "--coords", k1, "--coords2", k2, "--format", "json"], capsys)
    assert code == 0 and inline == (0, out, "")
    assert json.loads(out)["rho"] == str(rho(F5, *rows).value) != str(rho(F5, *basis).value)


@pytest.mark.parametrize("kind, k", [("generic-1", 1), ("very-special", 3)])
def test_cli_rho_refuses_a_section_that_is_not_a_pencil(kind, k, tmp_path, capsys):
    p = tmp_path / "s.json"
    assert run_cli(["make-section", "--kind", kind, "--field", "3", "--out", str(p)], capsys)[0] == 0
    code, out, err = run_cli(["rho", "--scene", str(p)], capsys)
    assert (code, out) == (2, "") and err.count("error:") == 1
    assert "rho needs a pencil (k = 2)" in err and f"has k = {k}" in err
    assert "Traceback" not in err


FORMAT_ARGV = {
    "member": ["--coords", PURE],
    "gamma": ["--field", "5", "--coords", ",".join(["1"] + ["0"] * 14 + ["1"])],
    "annihilator": ["--coords", PURE],
    "span": ["--kind", "pi4", "--coords", PURE],
    "rho": ["--field", "5", "--coords", PURE, "--coords2", ",".join(["0"] * 15 + ["1"])],
    "classify": ["--scene"],
    "f4": ["--scene"],
}


@pytest.mark.parametrize("command", sorted(FORMAT_ARGV))
def test_cli_format_offers_plain_and_json_only(command, tmp_path, capsys):
    argv = [command, *FORMAT_ARGV[command]]
    if argv[-1] == "--scene":
        p = tmp_path / "s.json"
        make = ["make-section", "--kind", "special", "--field", "3", "--out", str(p)]
        assert run_cli(make, capsys) == (0, "", "")
        argv.append(str(p))
    code, plain, _ = run_cli(argv, capsys)
    assert code == 0 and plain and run_cli(argv + ["--format", "plain"], capsys) == (0, plain, "")
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0 and json.loads(out)
    code, err = exit_code(argv + ["--format", "csv"], capsys)
    assert code == 2 and "invalid choice: 'csv'" in err


def test_cli_verify_format_offers_csv_and_json_only(capsys):
    argv = ["verify", "motive", "--field", "2"]
    code, csv, _ = run_cli(argv, capsys)
    assert code == 0 and csv.startswith(CountReport.CSV_HEADER + "\n")
    assert run_cli(argv + ["--format", "csv"], capsys) == (0, csv, "")
    code, out, _ = run_cli(argv + ["--format", "json"], capsys)
    assert code == 0 and [r["actual"] for r in json.loads(out)] == [
        int(line.split(", ")[4]) for line in csv.splitlines()[1:]
    ]
    code, err = exit_code(argv + ["--format", "plain"], capsys)
    assert code == 2 and "invalid choice: 'plain'" in err


def test_cli_verify_motive(capsys):
    code, out, _ = run_cli(["verify", "motive", "--field", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q, m, k, side, actual, predicted, pass"
    assert len(lines) == 7 and all(l.endswith("True") for l in lines[1:])


@pytest.mark.parametrize("field", ["2", "3", "5"])
def test_cli_verify_incidence_holds_at_every_k(field, capsys):
    code, out, _ = run_cli(["verify", "incidence", "--field", field], capsys)
    lines = out.strip().splitlines()
    assert code == 0 and lines[0] == CountReport.CSV_HEADER
    assert [line.split(", ")[2] for line in lines[1:]] == [str(k) for k in range(1, 16)]
    assert all(line.endswith(", True") for line in lines[1:])


@pytest.mark.parametrize("suite, ks", [("motive", range(6)), ("incidence", range(1, 16))])
def test_cli_verify_suites_count_over_the_ext_degree(suite, ks, capsys):
    code, out, _ = run_cli(["verify", suite, "--field", "2", "--ext-degree", "2"], capsys)
    lines = out.strip().splitlines()
    assert code == 0 and len(lines) == 1 + len(ks)
    for line, k in zip(lines[1:], ks):
        q, m, kk, _, actual, predicted, passed = line.split(", ")
        assert (q, m, kk, passed) == ("2", "2", str(k), "True") and actual == predicted


def test_cli_count_budget_bounds_the_chart_fibres(capsys):
    # X(F_4): P^15(F_4) is over the default budget, its 16 * 4^4 chart fibres are not
    argv = ["count", "--field", "2", "--k", "0", "--ext-degree", "2"]
    assert run_cli(argv, capsys)[:2] == (0, "1419925\n")
    assert run_cli(argv + ["--budget", "4096"], capsys)[:2] == (0, "1419925\n")
    code, out, err = run_cli(argv + ["--budget", "4095"], capsys)
    assert (code, out) == (1, "") and "4096 fibres" in err and "exceeds budget 4095" in err


@pytest.mark.parametrize("argv, k, q", [
    (["count", "--field", "7", "--k", "3"], 3, 7),
    # 16 * 9^7 fibres on the old seven-entry charts: refused at the default budget
    (["count", "--field", "3", "--k", "1", "--ext-degree", "2"], 1, 9),
])
def test_cli_counts_larger_fields_on_the_charts(argv, k, q, capsys):
    assert run_cli(argv, capsys) == (0, f"{counting.predicted_count(k, q)}\n", "")


def test_cli_usage_errors(capsys):
    code, _, err = run_cli(["count", "--field", "6", "--k", "0"], capsys)
    assert code == 2 and "not prime" in err
    code, _, err = run_cli(["rho", "--field", "5"], capsys)
    assert code == 2
    with pytest.raises(SystemExit) as e:
        main(["no-such-command"])
    assert e.value.code == 2


def test_cli_defaults_are_declared_per_subcommand():
    parser = build_parser()
    for argv in (["count"], ["verify", "motive"]):
        args = parser.parse_args(argv)
        assert (args.ext_degree, args.budget) == (1, DEFAULT_COUNT_BUDGET)


# Every flag a subcommand accepts is one its handler reads.
FLAGS = {
    "member": {"field", "half", "coords", "scene", "object", "format"},
    "gamma": {"field", "coords", "scene", "object", "format"},
    "annihilator": {"field", "half", "coords", "scene", "object", "format"},
    "span": {"field", "kind", "half", "coords", "scene", "object", "format"},
    "rho": {"field", "coords", "coords2", "scene", "objects", "format"},
    "classify": {"scene", "object", "format"},
    "make-section": {"field", "seed", "kind", "out"},
    "f4": {"scene", "object", "format"},
    "count": {"field", "seed", "k", "side", "ext-degree", "budget", "scene", "object"},
    "verify": {"suite", "field", "seed", "ext-degree", "budget", "format"},
}


def test_cli_subcommands_declare_only_the_flags_they_read():
    (subparsers,) = [
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    ]
    declared = {
        name: {
            a.option_strings[0].lstrip("-") if a.option_strings else a.dest
            for a in p._actions
            if not isinstance(a, argparse._HelpAction)
        }
        for name, p in subparsers.choices.items()
    }
    assert declared == FLAGS
    assert sum(map(len, declared.values())) == 54


def exit_code(argv, capsys):
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    return code, capsys.readouterr().err


def test_cli_rejects_removed_commands_and_flags(capsys):
    assert exit_code(["report"], capsys)[0] == 2
    coords = ",".join(["1"] + ["0"] * 15)
    assert exit_code(["member", "--coords", coords, "--budget", "5"], capsys)[0] == 2
    argv = ["make-section", "--kind", "special", "--ext-degree", "3"]
    assert exit_code(argv, capsys)[0] == 2
    for argv in (["verify", "blowup"], ["verify", "k6"], ["verify", "motive", "--sections", "1"],
                 ["count", "--workers", "2"], ["verify", "motive", "--workers", "2"]):
        code, err = exit_code(argv, capsys)
        assert code == 2 and "Traceback" not in err, argv


def test_cli_scene_errors_exit_2_without_traceback(tmp_path, capsys):
    # a scene with no section, subspace-v or spinor object
    p = tmp_path / "v.json"
    p.write_text(emit_scene(Scene(F5, 0, (SceneObject("v", "vector-v", (0,) * DIM_V),))))
    for argv in (
        ["classify"],
        ["f4"],
        ["classify", "--scene", str(p)],
        ["f4", "--scene", str(p)],
        ["count", "--field", "5", "--scene", str(p)],
        ["span", "--kind", "annihilator-kernel", "--scene", str(p)],
        ["member", "--scene", str(p)],
    ):
        code, err = exit_code(argv, capsys)
        assert code == 2, argv
        assert err.count("error:") == 1 and "Traceback" not in err, argv


def test_cli_budget_refusal_in_a_suite_exits_1_without_traceback(capsys):
    code, out, err = run_cli(["verify", "motive", "--field", "2", "--budget", "10"], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "exceeds budget 10" in err


def test_cli_verify_incidence_failing_row_exits_1_and_writes_nothing(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    real = cli.count_report

    def failing_at_k6(K, *args, **kw):
        report = real(K, *args, **kw)
        return CountReport(2, 1, 6, "X", 50, 52, False) if K.dim == 6 else report

    monkeypatch.setattr(cli, "count_report", failing_at_k6)
    code, out, err = run_cli(["verify", "incidence", "--field", "2"], capsys)
    assert (code, err) == (1, "") and "2, 1, 6, X, 50, 52, False\n" in out
    assert list(tmp_path.iterdir()) == []


def test_cli_verify_incidence_budget_refusal_exits_1(capsys):
    argv = ["verify", "incidence", "--field", "2", "--budget", "10"]
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "exceeds budget 10" in err


def test_cli_count_predicts_a_singular_pencil(tmp_path, capsys):
    # <e_1, e_2 + e_345> over F_2: e_1 is pure, so #X_K = 567 + 2^6 * 1
    field = PrimeField(2)
    pure = HalfSpinor.from_subsets(field, MINUS, [((1,), 1)]).coords
    other = HalfSpinor.from_subsets(field, MINUS, [((2,), 1), ((3, 4, 5), 1)]).coords
    p = tmp_path / "pencil.json"
    p.write_text(emit_scene(Scene(field, 0, (SceneObject("K", "section", (pure, other)),))))
    assert run_cli(["count", "--field", "2", "--scene", str(p)], capsys) == (0, "631\n", "")


def test_cli_count_scene_refuses_the_flags_it_would_ignore(tmp_path, capsys):
    p = tmp_path / "pencil.json"
    argv = ["make-section", "--kind", "generic-2", "--field", "3", "--seed", "1", "--out", str(p)]
    assert run_cli(argv, capsys) == (0, "", "")
    for argv in ([], ["--field", "3"]):
        assert run_cli(["count", *argv, "--scene", str(p)], capsys) == (0, "10192\n", "")
    for flag, value in (("--field", "5"), ("--field", "2"), ("--field", "Q"), ("--k", "5"),
                        ("--seed", "9"), ("--seed", "0")):
        code, out, err = run_cli(["count", flag, value, "--scene", str(p)], capsys)
        assert (code, out) == (2, "") and err.count("error:") == 1 and flag in err, flag


def test_cli_count_dual_of_a_large_section_on_the_charts(tmp_path, capsys):
    # P^14(F_5) has 7.6e9 points, over the default budget; the charts count
    # X^v_K as X_{K'} with 16 * 5^4 fibres
    rng = random.Random(15)
    K = Subspace(F5, DIM_S, [])
    while K.dim < 15:
        K = Subspace(F5, DIM_S, [random_spinor(F5, rng, MINUS) for _ in range(15)])
    p = tmp_path / "k15.json"
    p.write_text(emit_scene(section_scene(F5, K, seed=15)))
    want = counting.count_section_points(K, "X^v")
    assert run_cli(["count", "--side", "X^v", "--scene", str(p)], capsys) == (0, f"{want}\n", "")


def test_cli_count_predicts_over_an_extension(capsys, monkeypatch):
    reports = []
    real = cli.count_report

    def spy(*args, **kw):
        reports.append(real(*args, **kw))
        return reports[-1]

    monkeypatch.setattr(cli, "count_report", spy)
    argv = ["count", "--field", "2", "--k", "3", "--ext-degree", "2"]
    assert run_cli(argv, capsys) == (0, "22165\n", "")
    assert (reports[0].predicted, reports[0].notes) == (22165, "")


def test_cli_explicit_budget_equal_to_another_default_is_honoured(capsys):
    # P^4(F_32) has 1,082,401 points: both budgets refuse before scanning
    results = []
    for budget in ("300000", "300001"):
        argv = ["count", "--field", "2", "--k", "5", "--side", "X^v", "--ext-degree", "5",
                "--budget", budget]
        code, out, err = run_cli(argv, capsys)
        results.append((code, out, err.replace(budget, "B")))
    assert results[0] == results[1]
    code, out, err = results[0]
    assert code == 1 and out == "" and "exceeds budget B" in err


def test_cli_range_checked_flags_are_usage_errors(capsys):
    for argv in (
        ["count", "--field", "2", "--k", "1", "--ext-degree", "0"],
        ["count", "--field", "2", "--budget", "-1"],
        ["verify", "motive", "--ext-degree", "0"],
    ):
        code, err = exit_code(argv, capsys)
        assert code == 2, argv
        assert "must be at least" in err and "Traceback" not in err, argv
    code, err = exit_code(["count", "--budget", "two"], capsys)
    assert code == 2 and "invalid int value: 'two'" in err


def test_cli_budget_that_scans_nothing_certifies_nothing(tmp_path, capsys):
    # a pencil through the pure spinor e1 over F_3: X_K is singular
    pure = HalfSpinor.from_subsets(PrimeField(3), MINUS, [((1,), 1)]).coords
    other = HalfSpinor.from_subsets(PrimeField(3), MINUS, [((2,), 1), ((3, 4, 5), 1)]).coords
    p = tmp_path / "pencil.json"
    p.write_text(emit_scene(Scene(PrimeField(3), 0, (SceneObject("K", "section", (pure, other)),))))
    code, out, _ = run_cli(["classify", "--scene", str(p)], capsys)
    assert code == 0 and "smoothness: certified-singular" in out


@pytest.mark.parametrize("kind", ["generic-1", "generic-2", "special"])
def test_cli_sections_over_f7_are_certified_smooth(kind, tmp_path, capsys):
    p = tmp_path / "s.json"
    argv = ["make-section", "--kind", kind, "--field", "7", "--out", str(p)]
    assert run_cli(argv, capsys) == (0, "", "")
    code, out, _ = run_cli(["classify", "--scene", str(p)], capsys)
    assert code == 0 and "smoothness: certified-smooth\n" in out


def test_cli_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "spinor10.cli", "count", "--field", "2", "--k", "0"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "2295"
