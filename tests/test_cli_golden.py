"""Golden output of the element subcommands, pinned byte for byte.

Each case runs ``cli.main`` in process and compares its exit code, stdout
and stderr with ``golden/cli_golden.json``.  The cases cover ``normalize``,
``equals``, ``expect``, ``alpha`` and ``kill`` on an untwisted rational
spec, a cyclotomic twisted spec and a float spec with an irrational angle,
in both output formats; the expressions multiply monomials whose rewrite
windows are cut at either end, empty or collapse to the identity, and
``kill`` runs at the default shift and one above it.

The expected file is written from a trusted tree by

    PYTHONPATH=src python tests/test_cli_golden.py

and is never regenerated to make a failing case pass.
"""

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

from cuntzlab import cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "cli_golden.json"

SPEC_TEXTS = {
    "e23": "k = 2\ndims = 2 3\n",
    "tw23": "k = 2\ndims = 2 3\ntheta = 0 1/4 0 0\nscalars = cyclotomic:4\n",
    "twf23": "k = 2\ndims = 2 3\ntheta = 0 0.3183098861837907 0.1 0\nscalars = float\n",
}

PRODUCT = (
    "(1/2+3i)*e(0,1;2)'*e(1,1;3) - 2/3*e(1,0;1)*e(0,1;1)'*e(1,1;4)*e(0,2;5)'"
    " + e(1,0;1)'*e(0,1;2)*e(0,1;0)' + e(2,0;3)'*e(1,1;2)"
)
MIXED = (
    "(e(1,0;0) + 3*e(0,1;1)*e(1,0;1)')*(e(0,1;2)' - 1/4*e(1,1;5)*e(1,0;0)')"
    " + (2-1i)*e(0,1;0)*e(1,0;1)*e(0,2;7)'"
)
GAUGED = (
    MIXED + " + e(1,0;1)*e(0,1;1)'*e(0,1;1)*e(1,0;0)' + (1/3-2i)*e(1,1;2)*e(1,1;4)'"
    " - e(0,1;2)'*e(1,1;3)*e(1,0;1)'"
)
CUNTZ_SUM = "e(1,0;0)*e(1,0;0)' + e(1,0;1)*e(1,0;1)'"

COMMANDS = [
    ("normalize", [PRODUCT]),
    ("normalize", [MIXED]),
    ("equals", [CUNTZ_SUM, "I"]),
    ("equals", ["e(0,1;0)*e(1,0;1)", "e(1,0;1)*e(0,1;0)"]),
    ("equals", [MIXED, MIXED + " + 0*I"]),
    ("expect", [GAUGED]),
    ("alpha", ["1,0", PRODUCT]),
    ("alpha", ["0,1", MIXED]),
    ("alpha", ["1,1", GAUGED]),
    ("kill", ["e(1,0;0)", "e(0,1;0)"]),
    ("kill", ["e(1,0;0)", "e(0,1;0)", "--shift", "2,2"]),
]


def _cases():
    for name in SPEC_TEXTS:
        for fmt in ("text", "json-lines"):
            for command, rest in COMMANDS:
                yield {
                    "spec": name,
                    "argv": [command, "--spec", "{spec}", "--format", fmt, *rest],
                }


def _run(case, spec_dir: Path):
    path = spec_dir / f"{case['spec']}.spec"
    path.write_text(SPEC_TEXTS[case["spec"]], encoding="utf-8")
    argv = [str(path) if a == "{spec}" else a for a in case["argv"]]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_file_covers_every_case():
    assert [(c["spec"], c["argv"]) for c in _golden()] == [
        (c["spec"], c["argv"]) for c in _cases()
    ]


@pytest.mark.parametrize("index", range(len(SPEC_TEXTS) * 2 * len(COMMANDS)))
def test_cli_output_matches_golden(index, tmp_path):
    case = _golden()[index]
    code, out, err = _run(case, tmp_path)
    assert (code, out, err) == (case["code"], case["stdout"], case["stderr"])


def _write_golden():
    records = []
    with tempfile.TemporaryDirectory() as spec_dir:
        for case in _cases():
            code, out, err = _run(case, Path(spec_dir))
            records.append({**case, "code": code, "stdout": out, "stderr": err})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(records, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(records)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _write_golden()
