"""Golden output of the element subcommands, pinned byte for byte.

Each case runs ``cli.main`` in process and compares its exit code, stdout
and stderr with ``golden/cli_golden.json``.  The cases cover ``normalize``,
``equals``, ``expect``, ``alpha`` and ``kill`` on an untwisted rational
spec, a cyclotomic twisted spec and a float spec with an irrational angle,
in both output formats; the expressions multiply monomials whose rewrite
windows are cut at either end, empty or collapse to the identity, and
``kill`` runs at the default shift and one above it.  The other
subcommands run once per format: ``eval`` of a sum with and without a
character twist, and of a float sum whose three coefficients on one term
cancel to a residue below the zero tolerance; ``witness``, ``classify``,
``iso``, and ``relations`` on one canonical and one violated assignment.
``classify`` and ``witness`` also run on two specs of three generators and
one of four, both with and without a dimension collision.

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
    "e24": "k = 2\ndims = 2 4\n",
    "f23": "k = 2\ndims = 2 3\nscalars = float\n",
    "e469": "k = 3\ndims = 4 6 9\n",
    "e1218827": "k = 4\ndims = 12 18 8 27\n",
    "e61015": "k = 3\ndims = 6 10 15\n",
}
ELEMENT_SPECS = ("e23", "tw23", "twf23")

ASSIGNMENT_LINES = "(1,0) = e(1,0;0)\n(1,1) = e(1,0;1)\n(2,0) = e(0,1;0)\n(2,1) = e(0,1;1)\n"
ASSIGNMENT_TEXTS = {
    "canonical": ASSIGNMENT_LINES + "(2,2) = e(0,1;2)\n",
    # two second-slot generators share one image
    "violated": ASSIGNMENT_LINES + "(2,2) = e(0,1;1)\n",
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

EVAL_SUM = CUNTZ_SUM + " - I + 2*e(0,1;1)*e(1,0;0)' - 1/3*e(1,1;2)'"
FLOAT_SUM = (
    "0.1*e(1,0;0)*e(0,1;1)' + 0.2*e(1,0;0)*e(0,1;1)' - 0.3*e(1,0;0)*e(0,1;1)'"
    " + (0.25-1.5i)*e(0,1;2)*e(1,0;1)' + 0.7*e(1,0;0)*e(1,0;0)'"
    " + 0.7*e(1,0;1)*e(1,0;1)' - 0.7*I"
)

# (spec, subcommand, arguments after --format); "{name}" is the path of a
# spec or assignment file written for the case
OTHER_COMMANDS = [
    ("e23", "eval", ["--spec", "{spec}", EVAL_SUM]),
    ("e23", "eval", ["--spec", "{spec}", "--lambda", "i,-1", EVAL_SUM]),
    ("f23", "eval", ["--spec", "{spec}", FLOAT_SUM]),
    ("e24", "witness", ["--spec", "{spec}"]),
    ("e24", "classify", ["--spec", "{spec}"]),
    ("tw23", "classify", ["--spec", "{spec}"]),
    (None, "iso", ["2", "3"]),
    ("e23", "relations", ["--spec", "{spec}", "{canonical}"]),
    ("e23", "relations", ["--spec", "{spec}", "{violated}"]),
    # more than two generators: two dimension collisions and an injective
    # dimension function
    ("e469", "classify", ["--spec", "{spec}"]),
    ("e469", "witness", ["--spec", "{spec}"]),
    ("e1218827", "classify", ["--spec", "{spec}"]),
    ("e1218827", "witness", ["--spec", "{spec}"]),
    ("e61015", "classify", ["--spec", "{spec}"]),
    ("e61015", "witness", ["--spec", "{spec}"]),
]


def _cases():
    for name in ELEMENT_SPECS:
        for fmt in ("text", "json-lines"):
            for command, rest in COMMANDS:
                yield {
                    "spec": name,
                    "argv": [command, "--spec", "{spec}", "--format", fmt, *rest],
                }
    for name, command, rest in OTHER_COMMANDS:
        for fmt in ("text", "json-lines"):
            yield {"spec": name, "argv": [command, "--format", fmt, *rest]}


def _argument(arg: str, case, spec_dir: Path) -> str:
    """The argument, or the path of the file its placeholder names, written
    to ``spec_dir``."""
    if arg == "{spec}":
        name, text = f"{case['spec']}.spec", SPEC_TEXTS[case["spec"]]
    elif arg.startswith("{") and arg.endswith("}"):
        name, text = f"{arg[1:-1]}.assign", ASSIGNMENT_TEXTS[arg[1:-1]]
    else:
        return arg
    path = spec_dir / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(case, spec_dir: Path):
    argv = [_argument(a, case, spec_dir) for a in case["argv"]]
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


@pytest.mark.parametrize("index", range(len(list(_cases()))))
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
