import json
import subprocess
import sys

import pytest

from spinor10.clifford import DIM_S, HalfSpinor, MINUS
from spinor10 import cli
from spinor10.cli import build_parser, main
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


def test_cli_count_workers_byte_identical(capsys):
    outs = []
    for w in ("1", "4"):
        code, out, _ = run_cli(
            ["count", "--field", "2", "--k", "2", "--seed", "3", "--workers", w],
            capsys,
        )
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_cli_ext_count_workers_byte_identical(capsys):
    outs = []
    for w in ("1", "2"):
        argv = ["count", "--field", "2", "--k", "5", "--ext-degree", "2", "--workers", w]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]


def test_cli_classify_pure_hyperplane(tmp_path, capsys):
    kappa = HalfSpinor.from_subsets(F5, MINUS, [((1,), F5.one)]).coords
    scene = Scene(F5, 0, (SceneObject("kappa", "section", (kappa,)),))
    p = tmp_path / "s.json"
    p.write_text(emit_scene(scene))
    code, out, _ = run_cli(["classify", "--scene", str(p)], capsys)
    assert code == 0
    assert "label: singular-hyperplane" in out


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


def test_cli_rho_inline(capsys):
    a = ",".join(["1"] + ["0"] * 15)
    b = ",".join(["0"] * 5 + ["1"] + ["0"] * 10)
    code, out, _ = run_cli(
        ["rho", "--field", "5", "--coords", a, "--coords2", b], capsys
    )
    assert code == 0 and "vanishes: True" in out  # kappa1 is pure: secant vanishing


def test_cli_verify_motive(capsys):
    code, out, _ = run_cli(["verify", "motive", "--field", "2"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "q, m, k, side, actual, predicted, pass"
    assert len(lines) == 7 and all(l.endswith("True") for l in lines[1:])


def test_cli_verify_blowup(capsys):
    code, out, _ = run_cli(["verify", "blowup", "--field", "2"], capsys)
    assert code == 0
    assert len(out.strip().splitlines()) == 6


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
    for argv in (["count"], ["verify", "motive"], ["report"]):
        args = parser.parse_args(argv)
        assert (args.ext_degree, args.budget) == (1, 1 << 26)
    for argv in (["classify"], ["make-section", "--kind", "special"]):
        args = parser.parse_args(argv)
        assert (args.ext_degree, args.budget) == (6, 300_000)
    args = parser.parse_args(["f4"])
    assert (args.ext_degree, args.budget) == (1, 300_000)


def test_cli_explicit_budget_equal_to_another_default_is_honoured(capsys):
    # P^10(F_4) has 1,398,101 points: both budgets refuse before scanning
    results = []
    for budget in ("300000", "300001"):
        argv = ["count", "--field", "2", "--k", "5", "--ext-degree", "2", "--budget", budget]
        code, out, err = run_cli(argv, capsys)
        results.append((code, out, err.replace(budget, "B")))
    assert results[0] == results[1]
    code, out, err = results[0]
    assert code == 1 and out == "" and "exceeds budget B" in err


def test_cli_classify_honours_explicit_ext_degree(tmp_path, capsys, monkeypatch):
    reports = []
    real = cli.classify

    def spy(*args, **kw):
        reports.append(real(*args, **kw))
        return reports[-1]

    monkeypatch.setattr(cli, "classify", spy)
    p = tmp_path / "pencil.json"
    argv = ["make-section", "--kind", "generic-2", "--field", "3", "--seed", "1"]
    assert run_cli(argv + ["--out", str(p)], capsys)[0] == 0
    code, explicit, _ = run_cli(["classify", "--scene", str(p), "--ext-degree", "1"], capsys)
    assert code == 0 and reports[-1].smoothness.scanned == (1,)
    code, default, _ = run_cli(["classify", "--scene", str(p)], capsys)
    cert = reports[-1].smoothness
    assert code == 0 and sorted(cert.scanned + cert.skipped) == [1, 2, 3, 4, 5, 6]
    assert default == explicit == "k: 2\nlabel: nonspecial\nsmoothness: no-point-up-to-degree-M\nnotes: \n"


def test_cli_entry_point_subprocess():
    out = subprocess.run(
        [sys.executable, "-m", "spinor10.cli", "count", "--field", "2", "--k", "0"],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0
    assert out.stdout.strip() == "2295"
