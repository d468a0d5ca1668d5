"""Golden CLI output: `make-section` for every kind over F_2, F_3 and F_7,
then `classify` and `f4` on the written scene in plain and json formats,
compared byte for byte with tests/golden/cli_stdout.json.

A change that keeps the library's answers keeps these bytes.  To rewrite the
fixture from the current sources (only after checking that a change of
output is intended):

    PYTHONPATH=src python tests/test_cli_golden.py > tests/golden/cli_stdout.json
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from spinor10.cli import main

FIXTURE = Path(__file__).resolve().parent / "golden" / "cli_stdout.json"
KINDS = ("special", "very-special") + tuple(f"generic-{k}" for k in range(1, 9))
FIELDS = ("2", "3", "7")
SEEDS = (1, 2)
# f4 on a hyperplane over F_7 lists all 19608 of its 4-space witnesses.
F4_SKIPPED = {("7", "generic-1")}


def run(argv):
    """(exit code, stdout) of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def section_outputs(field, kind, seed, workdir):
    """{command line: [exit code, stdout]} for one section and its scene."""
    argv = ["make-section", "--kind", kind, "--field", field, "--seed", str(seed)]
    code, scene = run(argv)
    results = {" ".join(argv): [code, scene]}
    path = Path(workdir) / f"{field}-{kind}-{seed}.json"
    path.write_text(scene)
    commands = ("classify",) if (field, kind) in F4_SKIPPED else ("classify", "f4")
    for command in commands:
        for fmt in ("plain", "json"):
            code, out = run([command, "--scene", str(path), "--format", fmt])
            results[f"{command} --format {fmt} < {' '.join(argv[1:])}"] = [code, out]
    return results


CASES = [(f, k, s) for f in FIELDS for k in KINDS for s in SEEDS]


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("field, kind, seed", CASES)
def test_cli_stdout_matches_golden(field, kind, seed, golden, tmp_path):
    for line, got in section_outputs(field, kind, seed, tmp_path).items():
        assert got == golden[line], line


def test_golden_fixture_holds_no_other_lines(golden):
    # each case looks up its own lines; this keeps stale ones out
    assert len(golden) == sum(1 + 2 * (1 if (f, k) in F4_SKIPPED else 2) for f, k, _ in CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as d:
        fixture = {}
        for case in CASES:
            fixture.update(section_outputs(*case, d))
    json.dump(fixture, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
