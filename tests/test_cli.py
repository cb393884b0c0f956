"""End-to-end tests for the command-line interface.

Every test drives ``cli.main`` in process and asserts on the exact text
output and the exit status.  Spec and assignment files live under the
pytest tmp_path, since ``--spec`` only accepts file paths.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cuntzlab import analysis, cli, morphisms, scalars
from cuntzlab.system import FiberVector, SystemSpec

from conftest import format_assignment


# nextprime(10^19) * nextprime(10^20): a semiprime no factorizer splits quickly
PQ = 10000000000000000051 * 100000000000000000039

SPEC_TEXTS = {
    "e23": "k = 2\ndims = 2 3\n",
    "e24": "k = 2\ndims = 2 4\n",
    "e26": "k = 2\ndims = 2 6\n",
    "e48": "k = 2\ndims = 4 8\n",
    "e15": "k = 2\ndims = 1 5\n",
    "e469": "k = 3\ndims = 4 6 9\n",
    "e1218827": "k = 4\ndims = 12 18 8 27\n",
    "e1010": "k = 2\ndims = 10 10\n",
    "f23": "k = 2\ndims = 2 3\nscalars = float\n",
    "e2p": "k = 2\ndims = 2 1000000000000000003\n",
    "tw14": "k = 2\ndims = 1 1\ntheta = 0 0 1/4 0\nscalars = cyclotomic:4\n",
    "tw23": "k = 2\ndims = 2 3\ntheta = 0 1/4 0 0\nscalars = cyclotomic:4\n",
    "tw8": "k = 2\ndims = 2 3\ntheta = 0 1/8 0 0\nscalars = cyclotomic:8\n",
    "twf": "k = 2\ndims = 2 3\ntheta = 0 0.1234 0 0\nscalars = float\n",
    "twq": "k = 2\ndims = 2 3\ntheta = 0 0.25 0 0\nscalars = float\n",
    "tw23q8": "k = 2\ndims = 2 3\ntheta = 0 1/4 0 0\nscalars = cyclotomic:8\n",
    "tw23q17": "k = 2\ndims = 2 3\ntheta = 0 3/17 0 0\nscalars = cyclotomic:17\n",
    "c4": "k = 2\ndims = 2 3\nscalars = cyclotomic:4\n",
    "c8": "k = 2\ndims = 2 3\nscalars = cyclotomic:8\n",
    "epq": f"k = 2\ndims = {PQ} 10000000000000000051\n",
    "epq2": f"k = 2\ndims = {PQ} {PQ**2}\n",
}


@pytest.fixture
def spec_path(tmp_path):
    def write(name):
        path = tmp_path / f"{name}.spec"
        path.write_text(SPEC_TEXTS[name], encoding="utf-8")
        return str(path)

    return write


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def lines_of(out):
    return out.rstrip("\n").split("\n")


# --- normalize -------------------------------------------------------------


def test_normalize_orthogonality_collapses(capsys, spec_path):
    code, out, _ = run_cli(
        capsys, ["normalize", "--spec", spec_path("e23"), "e(1,0;0)'*e(1,0;1)"]
    )
    assert code == 0
    assert out == "0\n"


def test_normalize_merges_coefficients(capsys, spec_path):
    code, out, _ = run_cli(
        capsys, ["normalize", "--spec", spec_path("e23"), "2*e(0,1;1) - e(0,1;1)"]
    )
    assert code == 0
    assert out == "e(0,1;1)\n"


def test_normalize_raises_to_common_fiber(capsys, spec_path):
    # the lone generator term is raised to left fiber (1,1), where it
    # overlaps the first summand
    code, out, _ = run_cli(
        capsys,
        ["normalize", "--spec", spec_path("e23"), "e(1,1;0)*e(0,1;0)' + e(1,0;0)"],
    )
    assert code == 0
    assert out == (
        "2*e(1,1;0)*e(0,1;0)' + e(1,1;1)*e(0,1;1)' + e(1,1;2)*e(0,1;2)'\n"
    )


@pytest.mark.parametrize(
    "name, text",
    [("e23", "(3/4-2/3i)*e(1,0;0)"), ("c4", "zeta(4)^1*e(1,0;0)")],
)
def test_normalize_prints_the_field_form(capsys, spec_path, name, text):
    # the Gaussian rationals and Q(zeta_4) hold the same numbers; each field
    # prints its own form, (a+bi) or powers of the root
    source = text.replace("^1", "")
    code, out, err = run_cli(capsys, ["normalize", "--spec", spec_path(name), source])
    assert (code, out, err) == (0, text + "\n", "")


def test_normalize_deep_single_term(capsys, spec_path):
    # fiber (5,5) has dimension 7776; its degree block would hold 6*10^7 cells
    term = "e(5,5;0)*e(5,5;0)'"
    code, out, _ = run_cli(capsys, ["normalize", "--spec", spec_path("e23"), term])
    assert code == 0
    assert out == term + "\n"


def test_normalize_adjoint_against_deep_fiber(capsys, spec_path):
    # i((0,1);0)* i((40,0);0) has 3 survivors in a window of 2^40 indices
    code, out, _ = run_cli(
        capsys, ["normalize", "--spec", spec_path("e23"), "e(0,1;0)' * e(40,0;0)"]
    )
    assert code == 0
    assert out == (
        "e(40,0;0)*e(0,1;0)' + e(40,0;1)*e(0,1;1)' + e(40,0;2)*e(0,1;2)'\n"
    )


# --- equals ----------------------------------------------------------------


def test_equals_cuntz_sum_is_identity(capsys, spec_path):
    code, out, _ = run_cli(
        capsys,
        [
            "equals",
            "--spec",
            spec_path("e23"),
            "e(1,0;0)*e(1,0;0)' + e(1,0;1)*e(1,0;1)'",
            "I",
        ],
    )
    assert code == 0
    assert out == "true\n"


def test_equals_deep_cuntz_sum_is_identity(capsys, spec_path):
    # the 2592 range projections of fiber (5,4) sum to the identity
    total = " + ".join(f"e(5,4;{j})*e(5,4;{j})'" for j in range(2 ** 5 * 3 ** 4))
    code, out, _ = run_cli(capsys, ["equals", "--spec", spec_path("e23"), total, "I"])
    assert code == 0
    assert out == "true\n"


def test_equals_false_exits_one(capsys, spec_path):
    code, out, _ = run_cli(
        capsys, ["equals", "--spec", spec_path("e23"), "e(1,0;0)*e(1,0;0)'", "I"]
    )
    assert code == 1
    assert out == "false\n"


# --- expect / alpha --------------------------------------------------------


def test_expect_keeps_degree_zero_part(capsys, spec_path):
    code, out, _ = run_cli(
        capsys,
        ["expect", "--spec", spec_path("e23"), "e(1,0;0) + 3*e(0,1;1)*e(0,1;1)'"],
    )
    assert code == 0
    assert out == "3*e(0,1;1)*e(0,1;1)'\n"


def test_alpha_shifts_projection(capsys, spec_path):
    code, out, _ = run_cli(
        capsys, ["alpha", "--spec", spec_path("e23"), "1,0", "e(0,1;0)*e(0,1;0)'"]
    )
    assert code == 0
    assert out == "e(1,1;0)*e(1,1;0)' + e(1,1;3)*e(1,1;3)'\n"


def test_alpha_identity_becomes_range_sum(capsys, spec_path):
    # literally a sum of range projections; equal to I only through the
    # covariance relation, which `equals` confirms separately
    code, out, _ = run_cli(capsys, ["alpha", "--spec", spec_path("e23"), "1,0", "I"])
    assert code == 0
    assert out == "e(1,0;0)*e(1,0;0)' + e(1,0;1)*e(1,0;1)'\n"


# --- eval ------------------------------------------------------------------


def test_eval_dimension_collision_is_zero(capsys, spec_path):
    code, out, _ = run_cli(
        capsys,
        ["eval", "--spec", spec_path("e24"), "--level", "4", "e(2,0;0) - e(0,1;0)"],
    )
    assert code == 0
    assert lines_of(out) == ["base level: 4", "level 4 -> 16: zero", "zero"]


def test_eval_twisted_detects_witness(capsys, spec_path):
    code, out, _ = run_cli(
        capsys,
        [
            "eval",
            "--spec",
            spec_path("e24"),
            "--level",
            "4",
            "--lambda",
            "i,1",
            "e(2,0;0) - e(0,1;0)",
        ],
    )
    assert code == 1
    assert lines_of(out) == [
        "base level: 4",
        "level 4 -> 16: 4 entries",
        "  [0,0] = -2",
        "  [1,1] = -2",
        "  [2,2] = -2",
        "  [3,3] = -2",
        "nonzero",
    ]


def test_eval_at_a_level_no_entry_list_could_hold(capsys, spec_path):
    # the 1296 range projections of fiber (4,4) minus I, at 10^30 times the
    # minimal level: evaluation is one run per term, whatever the level
    total = " + ".join(f"e(4,4;{j})*e(4,4;{j})'" for j in range(2 ** 4 * 3 ** 4))
    level = str(2 ** 4 * 3 ** 4 * 10 ** 30)
    code, out, _ = run_cli(
        capsys, ["eval", "--spec", spec_path("e23"), "--level", level, total + " - I"]
    )
    assert code == 0
    assert lines_of(out) == [f"base level: {level}", f"level {level} -> {level}: zero", "zero"]


def test_eval_defaults_to_minimal_level(capsys, spec_path):
    code, out, _ = run_cli(capsys, ["eval", "--spec", spec_path("e23"), "e(0,1;0)'"])
    assert code == 1
    assert lines_of(out) == [
        "base level: 3",
        "level 3 -> 1: 1 entries",
        "  [0,0] = 1",
        "nonzero",
    ]


# --- classify / witness ----------------------------------------------------


def test_classify_simple(capsys, spec_path):
    code, out, _ = run_cli(capsys, ["classify", "--spec", spec_path("e23")])
    assert code == 0
    assert out == "SimplePurelyInfinite\n"


def test_classify_tensor_circle(capsys, spec_path):
    code, out, _ = run_cli(capsys, ["classify", "--spec", spec_path("e24")])
    assert code == 0
    assert out == "TensorCircle(2)\n"


def test_classify_large_prime_dimension(capsys, spec_path):
    # 10^18 + 3 is prime; classification must not depend on factoring it
    code, out, _ = run_cli(capsys, ["classify", "--spec", spec_path("e2p")])
    assert code == 0
    assert out == "SimplePurelyInfinite\n"


def test_classify_semiprime_dimensions(capsys, spec_path):
    code, out, _ = run_cli(capsys, ["classify", "--spec", spec_path("epq")])
    assert (code, out) == (0, "SimplePurelyInfinite\n")
    code, out, _ = run_cli(capsys, ["classify", "--spec", spec_path("epq2")])
    assert (code, out) == (0, f"TensorCircle({PQ})\n")


def test_witness_semiprime_dimensions(capsys, spec_path):
    code, out, _ = run_cli(capsys, ["witness", "--spec", spec_path("epq2")])
    assert code == 0
    assert lines_of(out)[0] == "witness fibers: (2,0) (0,1)"
    assert lines_of(out)[-1] == "witness verified: true"


def test_classify_unknown_exits_one(capsys, spec_path):
    code, out, _ = run_cli(capsys, ["classify", "--spec", spec_path("tw14")])
    assert code == 1
    assert out == "Unknown\n"


def test_witness_report(capsys, spec_path):
    code, out, _ = run_cli(capsys, ["witness", "--spec", spec_path("e24")])
    assert code == 0
    assert lines_of(out) == [
        "witness fibers: (2,0) (0,1)",
        "character: 1, -1",
        "distinguished representation: zero",
        "character-twisted: nonzero",
        "witness verified: true",
    ]


@pytest.mark.parametrize(
    "name, verdict",
    [
        ("e23", "SimplePurelyInfinite"),
        ("e24", "TensorCircle(2)"),
        ("e48", "TensorCircle(2)"),
        ("e15", "TensorCircle(5)"),
        ("tw14", "Unknown"),
        ("e469", "NonSimple"),
        ("e1218827", "NonSimple"),
    ],
)
def test_classify_and_witness_take_no_scalar_inverse(
    capsys, spec_path, monkeypatch, name, verdict
):
    # the exponent matrix is reduced in Fractions, with no scalar field:
    # with every cyclotomic inverse refused, both commands print what they
    # print without the refusal
    path = spec_path(name)
    argvs = [["classify", "--spec", path], ["witness", "--spec", path]]

    def refuse(self):
        raise AssertionError("Cyclotomic.inv called")

    with monkeypatch.context() as patch:
        patch.setattr(scalars.Cyclotomic, "inv", refuse)
        refused = [run_cli(capsys, argv) for argv in argvs]
    assert refused == [run_cli(capsys, argv) for argv in argvs]
    assert refused[0][1] == verdict + "\n"


def test_witness_refused_when_injective(capsys, spec_path):
    code, out, _ = run_cli(capsys, ["witness", "--spec", spec_path("e23")])
    assert code == 1
    assert out == "no witness: the dimension function is injective\n"


# --- kill ------------------------------------------------------------------


def test_kill_report(capsys, spec_path):
    code, out, _ = run_cli(
        capsys, ["kill", "--spec", spec_path("e23"), "e(1,0;0)", "e(0,1;0)"]
    )
    assert code == 0
    assert lines_of(out) == [
        "shift fiber: (1,1)",
        "vector fiber: (0,6), support 1 of 729",
        "compressed pair: zero",
    ]


def test_kill_deep_construction(capsys, spec_path):
    # 36 orthogonality steps, each extending by a fiber of dimension 9: the
    # vector lives in a fiber of dimension 3^72 with a single nonzero entry
    code, out, _ = run_cli(
        capsys, ["kill", "--spec", spec_path("e23"), "e(2,0;0)", "e(0,2;0)"]
    )
    assert code == 0
    assert lines_of(out) == [
        "shift fiber: (2,2)",
        f"vector fiber: (0,72), support 1 of {3**72}",
        "compressed pair: zero",
    ]


def test_kill_dims_two_four(capsys, spec_path):
    code, out, _ = run_cli(
        capsys, ["kill", "--spec", spec_path("e24"), "e(1,0;0)", "e(0,1;0)"]
    )
    assert code == 0
    assert lines_of(out) == [
        "shift fiber: (1,1)",
        "vector fiber: (0,8), support 1 of 65536",
        "compressed pair: zero",
    ]


def test_kill_explicit_shift_matches_default(capsys, spec_path):
    path = spec_path("e23")
    _, default_out, _ = run_cli(capsys, ["kill", "--spec", path, "e(1,0;0)", "e(0,1;0)"])
    code, out, _ = run_cli(
        capsys,
        ["kill", "--spec", path, "--shift", "1,1", "e(1,0;0)", "e(0,1;0)"],
    )
    assert code == 0
    assert out == default_out


def test_kill_wide_shift(capsys, spec_path):
    # 108 * 72 orthogonality steps, each on a support-1 vector; the vector's
    # fiber dimension has 15812 digits, past the interpreter's 4300-digit limit
    code, out, err = run_cli(
        capsys,
        ["kill", "--spec", spec_path("e23"), "--shift", "3,3", "e(1,0;0)", "e(0,1;0)"],
    )
    assert (code, err) == (0, "")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        dimension = str(3**23328 * 2**15552)
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(dimension) == 15812
    assert lines_of(out) == [
        "shift fiber: (3,3)",
        f"vector fiber: (15552,23328), support 1 of {dimension}",
        "compressed pair: zero",
    ]


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_kill_prints_dimensions_past_the_digit_limit(capsys, spec_path, monkeypatch, fmt):
    # the stub returns a support-1 vector whose fiber dimension 3^9100 has
    # 4342 digits, in every output format; test_kill_wide_shift runs a real
    # construction past the limit
    spec = SystemSpec((2, 3))
    fiber = (0, 9100)
    vector = FiberVector(fiber, spec.dim(fiber), {0: spec.field.one}, spec.field.zero)
    monkeypatch.setattr(analysis, "annihilating_vector", lambda spec, instance: vector)
    monkeypatch.setattr(analysis, "verify_annihilation", lambda spec, instance, w: True)
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(
        capsys,
        ["kill", "--spec", spec_path("e23"), "--format", fmt, "e(1,0;0)", "e(0,1;0)"],
    )
    assert (code, err) == (0, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        digits = str(3**9100)
        assert len(digits) > 4300
        if fmt == "text":
            assert lines_of(out)[1] == f"vector fiber: (0,9100), support 1 of {digits}"
        else:
            record = json.loads(lines_of(out)[1])
            assert record["dimension"] == 3**9100
            assert (record["support"], record["vector_fiber"]) == (1, [0, 9100])
    finally:
        sys.set_int_max_str_digits(limit)


def test_kill_reports_hypothesis_violation(capsys, spec_path):
    # both scheduled compressions have dimension 4, so the construction
    # refuses rather than emitting an unfounded certificate
    code, out, _ = run_cli(
        capsys, ["kill", "--spec", spec_path("e24"), "e(2,0;0)", "e(0,1;0)"]
    )
    assert code == 1
    assert out.startswith("hypothesis violation:")


# --- iso / relations -------------------------------------------------------


def test_iso_round_trip(capsys):
    code, out, _ = run_cli(capsys, ["iso", "2", "3"])
    assert code == 0
    assert lines_of(out) == [
        "forward relations: ok (54 checked)",
        "backward relations: ok (21 checked)",
        "round trip: true",
    ]


def test_iso_rejects_nonpositive(capsys):
    code, _, err = run_cli(capsys, ["iso", "0", "3"])
    assert code == 2
    assert err.startswith("error:")


def test_relations_accepts_canonical_assignment(capsys, spec_path, tmp_path):
    spec = SystemSpec((2, 3))
    text = format_assignment(morphisms.canonical_assignment(spec))
    assignment = tmp_path / "canonical.txt"
    assignment.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(
        capsys, ["relations", "--spec", spec_path("e23"), str(assignment)]
    )
    assert code == 0
    assert out == "relations: ok (21 checked)\n"


def test_relations_reports_violations(capsys, spec_path, tmp_path):
    # duplicate image breaks orthogonality across the first slot
    assignment = tmp_path / "broken.txt"
    assignment.write_text(
        "(1,0) = e(1,0;0)\n"
        "(1,1) = e(1,0;0)\n"
        "(2,0) = e(0,1;0)\n"
        "(2,1) = e(0,1;1)\n"
        "(2,2) = e(0,1;2)\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(
        capsys, ["relations", "--spec", spec_path("e23"), str(assignment)]
    )
    assert code == 1
    rows = lines_of(out)
    assert rows[0].startswith("relations: violated (")
    assert len(rows) > 1
    assert all(row.startswith("  ") for row in rows[1:])


def test_relations_cross_system(capsys, spec_path, tmp_path):
    # images of the (2,3)-system generators inside the (2,6)-system algebra
    pair = morphisms.factor_iso(2, 3)
    text = format_assignment(pair.backward)
    assignment = tmp_path / "backward.txt"
    assignment.write_text(text, encoding="utf-8")
    code, out, _ = run_cli(
        capsys,
        [
            "relations",
            "--spec",
            spec_path("e23"),
            "--target",
            spec_path("e26"),
            str(assignment),
        ],
    )
    assert code == 0
    assert out == "relations: ok (21 checked)\n"


@pytest.mark.parametrize(
    "source, target",
    [("tw23", "e23"), ("tw8", "tw23"), ("twf", "c8")],
)
def test_relations_across_scalar_fields(capsys, spec_path, tmp_path, source, target):
    # the twisted source's commutation phase, i, zeta_8 or exp(2 pi i 0.1234),
    # is taken in the target's field; where that field lacks it, as Q(zeta_4)
    # lacks zeta_8, an instance holds only if both products vanish
    spec = SystemSpec((2, 3))
    assignment = tmp_path / "canonical.txt"
    assignment.write_text(
        format_assignment(morphisms.canonical_assignment(spec)), encoding="utf-8"
    )
    code, out, err = run_cli(
        capsys,
        [
            "relations",
            "--spec",
            spec_path(source),
            "--target",
            spec_path(target),
            str(assignment),
        ],
    )
    assert (code, err) == (1, "")
    rows = lines_of(out)
    assert rows[0] == "relations: violated (21 checked)"
    assert rows[1:] == [
        f"  commutation: U(1,{i}) U(2,{j}) != ratio * U(2,{p}) U(1,{q})"
        for i in range(2)
        for j in range(3)
        for p, q in [divmod(i * 3 + j, 2)]
    ]


@pytest.mark.parametrize("source, target", [("twq", "tw23"), ("tw23", "tw23q8")])
def test_relations_across_scalar_fields_holds(capsys, spec_path, tmp_path, source, target):
    # theta = 0.25 on float converts exactly, so Q(zeta_4) holds its phase
    # i; Q(zeta_8) holds the phase of the cyclotomic:4 source
    spec = SystemSpec((2, 3))
    assignment = tmp_path / "canonical.txt"
    assignment.write_text(
        format_assignment(morphisms.canonical_assignment(spec)), encoding="utf-8"
    )
    code, out, err = run_cli(
        capsys,
        [
            "relations",
            "--spec",
            spec_path(source),
            "--target",
            spec_path(target),
            str(assignment),
        ],
    )
    assert (code, out, err) == (0, "relations: ok (21 checked)\n", "")


def test_relations_above_the_kernel_cutoff(capsys, spec_path):
    # Q(zeta_17) has degree 16, past scalars.KERNEL_MAX_PHI: its values add
    # and negate by generated code and multiply and conjugate by the loops
    canonical = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "e23-canonical.assign"
    code, out, err = run_cli(
        capsys, ["relations", "--spec", spec_path("tw23q17"), str(canonical)]
    )
    assert (code, out, err) == (0, "relations: ok (21 checked)\n", "")


# --- selftest --------------------------------------------------------------


SELFTEST_TEXT = """\
ok e23: cuntz sums
ok e23: isometry relations
ok e23: normal form round trip
ok e23: printer round trip
ok e23: alpha unital
ok e23: classify -> SimplePurelyInfinite
ok e24: cuntz sums
ok e24: isometry relations
ok e24: normal form round trip
ok e24: printer round trip
ok e24: alpha unital
ok e24: classify -> TensorCircle(2)
ok e48: cuntz sums
ok e48: isometry relations
ok e48: normal form round trip
ok e48: printer round trip
ok e48: alpha unital
ok e48: classify -> TensorCircle(2)
ok e15: cuntz sums
ok e15: isometry relations
ok e15: normal form round trip
ok e15: printer round trip
ok e15: alpha unital
ok e15: classify -> TensorCircle(5)
ok tw14: cuntz sums
ok tw14: isometry relations
ok tw14: normal form round trip
ok tw14: printer round trip
ok tw14: alpha unital
ok tw14: classify -> Unknown
ok tw14: UV = zeta*VU
ok e24: witness separates representations
selftest: 32 of 32 checks passed
"""

SELFTEST_JSON = """\
{"check": "cuntz sums", "command": "selftest", "ok": true, "spec": "e23"}
{"check": "isometry relations", "command": "selftest", "ok": true, "spec": "e23"}
{"check": "normal form round trip", "command": "selftest", "ok": true, "spec": "e23"}
{"check": "printer round trip", "command": "selftest", "ok": true, "spec": "e23"}
{"check": "alpha unital", "command": "selftest", "ok": true, "spec": "e23"}
{"check": "classify", "command": "selftest", "ok": true, "spec": "e23"}
{"check": "cuntz sums", "command": "selftest", "ok": true, "spec": "e24"}
{"check": "isometry relations", "command": "selftest", "ok": true, "spec": "e24"}
{"check": "normal form round trip", "command": "selftest", "ok": true, "spec": "e24"}
{"check": "printer round trip", "command": "selftest", "ok": true, "spec": "e24"}
{"check": "alpha unital", "command": "selftest", "ok": true, "spec": "e24"}
{"check": "classify", "command": "selftest", "ok": true, "spec": "e24"}
{"check": "cuntz sums", "command": "selftest", "ok": true, "spec": "e48"}
{"check": "isometry relations", "command": "selftest", "ok": true, "spec": "e48"}
{"check": "normal form round trip", "command": "selftest", "ok": true, "spec": "e48"}
{"check": "printer round trip", "command": "selftest", "ok": true, "spec": "e48"}
{"check": "alpha unital", "command": "selftest", "ok": true, "spec": "e48"}
{"check": "classify", "command": "selftest", "ok": true, "spec": "e48"}
{"check": "cuntz sums", "command": "selftest", "ok": true, "spec": "e15"}
{"check": "isometry relations", "command": "selftest", "ok": true, "spec": "e15"}
{"check": "normal form round trip", "command": "selftest", "ok": true, "spec": "e15"}
{"check": "printer round trip", "command": "selftest", "ok": true, "spec": "e15"}
{"check": "alpha unital", "command": "selftest", "ok": true, "spec": "e15"}
{"check": "classify", "command": "selftest", "ok": true, "spec": "e15"}
{"check": "cuntz sums", "command": "selftest", "ok": true, "spec": "tw14"}
{"check": "isometry relations", "command": "selftest", "ok": true, "spec": "tw14"}
{"check": "normal form round trip", "command": "selftest", "ok": true, "spec": "tw14"}
{"check": "printer round trip", "command": "selftest", "ok": true, "spec": "tw14"}
{"check": "alpha unital", "command": "selftest", "ok": true, "spec": "tw14"}
{"check": "classify", "command": "selftest", "ok": true, "spec": "tw14"}
{"check": "twist phase", "command": "selftest", "ok": true, "spec": "tw14"}
{"check": "witness", "command": "selftest", "ok": true, "spec": "e24"}
{"command": "selftest", "passed": 32, "total": 32}
"""


def test_selftest_battery(capsys):
    code, out, _ = run_cli(capsys, ["selftest"])
    assert code == 0
    assert out == SELFTEST_TEXT
    assert len(lines_of(out)) == 33


def test_module_runs_the_cli():
    # ``python -m cuntzlab`` is the same entry point as the console script
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run(
        [sys.executable, "-m", "cuntzlab", "selftest"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "selftest: 32 of 32 checks passed" in lines_of(done.stdout)


def test_selftest_battery_json_lines(capsys):
    code, out, _ = run_cli(capsys, ["selftest", "--format", "json-lines"])
    assert code == 0
    assert out == SELFTEST_JSON


def test_selftest_reports_failures(capsys, monkeypatch):
    # the checks that decide by algebra.equals fail; the printer round trip
    # compares elements structurally, and classify and the witness do not
    # call equals, so those eleven still pass.  The canonical assignments
    # are monomial families, whose relations are decided by index
    # arithmetic without equals, so their ten relation rows pass until the
    # families are hidden from the checker
    monkeypatch.setattr(cli.algebra, "equals", lambda a, b: False)
    failing = {
        "cuntz sums",
        "isometry relations",
        "normal form round trip",
        "alpha unital",
        "UV = zeta*VU",
    }

    def want(failing):
        return [
            "FAIL" + row[2:] if row.split(": ", 1)[1] in failing else row
            for row in lines_of(SELFTEST_TEXT)[:-1]
        ]

    relations = {"cuntz sums", "isometry relations"}
    code, out, _ = run_cli(capsys, ["selftest"])
    assert code == 1
    assert lines_of(out) == want(failing - relations) + ["selftest: 21 of 32 checks passed"]
    monkeypatch.setattr(cli.morphisms, "_monomial_family", lambda target, us: None)
    code, out, _ = run_cli(capsys, ["selftest"])
    assert code == 1
    assert lines_of(out) == want(failing) + ["selftest: 11 of 32 checks passed"]


def test_selftest_twist_phase_is_a_known_answer(capsys, monkeypatch):
    # a builtin whose twist gives UV = zeta_4^3 VU still satisfies its own
    # relations, phases included; only the hard-coded zeta_4 catches it
    monkeypatch.setitem(
        cli.BUILTIN_SPECS,
        "tw14",
        "k = 2\ndims = 1 1\ntheta = 0 0 3/4 0\nscalars = cyclotomic:4\n",
    )
    code, out, _ = run_cli(capsys, ["selftest"])
    assert code == 1
    rows = lines_of(out)
    assert [row for row in rows if not row.startswith("ok ")] == [
        "FAIL tw14: UV = zeta*VU",
        "selftest: 31 of 32 checks passed",
    ]


# --- output format ---------------------------------------------------------


def test_json_lines_classify(capsys, spec_path):
    code, out, _ = run_cli(
        capsys, ["classify", "--spec", spec_path("e24"), "--format", "json-lines"]
    )
    assert code == 0
    record = json.loads(out)
    assert record["verdict"] == "TensorCircle(2)"
    assert record["kind"] == "TensorCircle"
    assert record["power_base"] == [2, 1, 2]
    assert record["witness"] == [[2, 0], [0, 1]]


def test_json_lines_eval(capsys, spec_path):
    code, out, _ = run_cli(
        capsys,
        [
            "eval",
            "--spec",
            spec_path("e24"),
            "--format",
            "json-lines",
            "--level",
            "4",
            "--lambda",
            "i,1",
            "e(2,0;0) - e(0,1;0)",
        ],
    )
    assert code == 1
    records = [json.loads(row) for row in lines_of(out)]
    assert records[0] == {"command": "eval", "base_level": 4}
    block = records[1]
    assert block["level_in"] == 4 and block["level_out"] == 16
    assert block["entries"] == [[0, 0, "-2"], [1, 1, "-2"], [2, 2, "-2"], [3, 3, "-2"]]
    assert records[-1] == {"command": "eval", "zero": False}


def test_json_lines_equals(capsys, spec_path):
    code, out, _ = run_cli(
        capsys,
        [
            "equals",
            "--spec",
            spec_path("e23"),
            "--format",
            "json-lines",
            "e(1,0;0)'*e(1,0;1)",
            "0",
        ],
    )
    assert code == 0
    assert json.loads(out) == {"command": "equals", "equal": True}


# per subcommand: the spec it reads, or None, and its other arguments
SUBCOMMAND_RUNS = {
    "normalize": ("e23", ["e(1,0;0)'*e(1,0;1) + e(0,1;2)"]),
    "equals": ("e23", ["I", "0"]),
    "expect": ("e23", ["e(1,0;0)*e(1,0;1)' + e(1,0;0)"]),
    "alpha": ("e23", ["1,0", "e(0,1;2)*e(1,0;1)'"]),
    "eval": ("e24", ["--level", "4", "e(2,0;0) - e(0,1;0)"]),
    "classify": ("e24", []),
    "witness": ("e24", []),
    "kill": ("e23", ["e(1,0;0)", "e(0,1;0)"]),
    "iso": (None, ["2", "3"]),
    "relations": ("e23", ["canonical.txt"]),
    "selftest": (None, []),
}


@pytest.mark.parametrize("command", sorted(SUBCOMMAND_RUNS))
def test_json_lines_records_name_their_subcommand(capsys, spec_path, tmp_path, command):
    spec, rest = SUBCOMMAND_RUNS[command]
    if command == "relations":
        text = format_assignment(morphisms.canonical_assignment(SystemSpec((2, 3))))
        (tmp_path / rest[0]).write_text(text, encoding="utf-8")
        rest = [str(tmp_path / rest[0])]
    argv = [command, "--format", "json-lines"]
    argv += ["--spec", spec_path(spec)] if spec else []
    code, out, err = run_cli(capsys, argv + rest)
    assert code in (0, 1) and err == ""
    records = [json.loads(row) for row in lines_of(out)]
    assert records and all(r["command"] == command for r in records)


# --- failure modes ---------------------------------------------------------


def test_missing_spec_file(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, ["classify", "--spec", str(tmp_path / "absent.spec")]
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read spec file")


def test_bad_spec_file(capsys, tmp_path):
    path = tmp_path / "broken.spec"
    path.write_text("k = 2\ndims = 2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, ["classify", "--spec", str(path)])
    assert code == 2
    assert err.startswith("error: bad spec file")


@pytest.mark.parametrize("scalars", ["rational", "cyclotomic:4", "float"])
def test_non_finite_theta_exits_two(capsys, tmp_path, scalars):
    path = tmp_path / "inf.spec"
    path.write_text(
        f"k = 2\ndims = 2 3\ntheta = 0 1e400 0 0\nscalars = {scalars}\n",
        encoding="utf-8",
    )
    for argv in (["classify"], ["normalize", "I"]):
        code, out, err = run_cli(capsys, [argv[0], "--spec", str(path), *argv[1:]])
        assert code == 2
        assert out == ""
        assert err == (
            f"error: bad spec file {str(path)!r}: line 3: theta entries must be "
            "finite, got inf\n"
        )


def test_float_overflow_in_a_scalar_exits_two(capsys, tmp_path):
    spec = tmp_path / "float.spec"
    spec.write_text("k = 2\ndims = 2 3\nscalars = float\n", encoding="utf-8")
    assignment = tmp_path / "big.assign"
    assignment.write_text(
        "(1,0) = 1e400*e(1,0;0)\n(1,1) = e(1,0;1)\n"
        "(2,0) = e(0,1;0)\n(2,1) = e(0,1;1)\n(2,2) = e(0,1;2)\n",
        encoding="utf-8",
    )
    reason = "scalar not representable: integer division result too large for a float"
    cases = [
        (["normalize", "1e400*I"], f"error: in '1e400*I': position 0: {reason}\n"),
        (
            ["eval", "--lambda", "1e400,1", "I"],
            f"error: bad character value '1e400': position 0: {reason}\n",
        ),
        (["relations", str(assignment)], f"error: position 0: {reason}\n"),
    ]
    for argv, message in cases:
        code, out, err = run_cli(capsys, [argv[0], "--spec", str(spec), *argv[1:]])
        assert code == 2
        assert out == ""
        assert err == message


def test_long_literal_exits_two(capsys, spec_path):
    # the value is bounded at the token, before it is built: a huge
    # exponent is refused at once, and no int() conversion overflows
    limit = sys.get_int_max_str_digits()
    for text, position in [
        ("1" + "0" * limit + "*I", 0),
        ("e(1,0;0) - 1.5e999999*I", 11),
        ("2*e(1,0;0)*(1e-" + str(limit) + ")", 12),
    ]:
        code, out, err = run_cli(capsys, ["normalize", "--spec", spec_path("e23"), text])
        assert code == 2
        assert out == ""
        assert err == (
            f"error: in {text!r}: position {position}: number exceeds {limit} "
            "digits in lowest terms\n"
        )


def test_non_finite_result_exits_two(capsys, tmp_path):
    # float products overflow to inf and inf - inf is nan; neither has text
    spec = tmp_path / "float.spec"
    spec.write_text("k = 2\ndims = 2 3\nscalars = float\n", encoding="utf-8")
    cases = [
        (["normalize", "(1e308*I)*(1e308*I) - (1e308*I)*(1e308*I)"], "real nan, imaginary 0.0"),
        (["normalize", "(1e308i*I)*(1e308*I) - (1e308*I)*(1e308i*I)"], "real 0.0, imaginary nan"),
        (["expect", "1e200*(1e200*e(1,0;0)*e(1,0;0)')"], "real inf, imaginary 0.0"),
        (["eval", "1e200*(1e200*e(1,0;0))"], "real inf, imaginary 0.0"),
        # nan compares unequal to everything, itself included: no verdict
        (["equals", "(1e308*I)*(1e308*I) - (1e308*I)*(1e308*I)", "I"], "real nan, imaginary 0.0"),
        (["equals", "I", "(1e308*I)*(1e308*I) - (1e308*I)*(1e308*I)"], "real nan, imaginary 0.0"),
    ]
    for argv, part in cases:
        code, out, err = run_cli(capsys, [argv[0], "--spec", str(spec), *argv[1:]])
        assert code == 2
        assert out == ""
        assert err == (
            f"error: the result has a coefficient with a non-finite part ({part}): "
            "float arithmetic overflowed\n"
        )


def test_relations_refuses_non_finite_images(capsys, spec_path, tmp_path):
    # an image with an inf coefficient supports no verdict, as in equals
    canonical = Path(__file__).resolve().parents[1] / "bench" / "fixtures" / "e23-canonical.assign"
    assignment = tmp_path / "inf.assign"
    assignment.write_text(
        canonical.read_text(encoding="utf-8").replace(
            "(1,0) = e(1,0;0)", "(1,0) = (1e200*I)*(1e200*e(1,0;0))"
        ),
        encoding="utf-8",
    )
    code, out, err = run_cli(
        capsys, ["relations", "--spec", spec_path("f23"), str(assignment)]
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: the result has a coefficient with a non-finite part (real inf, "
        "imaginary 0.0): float arithmetic overflowed\n"
    )


def test_result_past_the_digit_limit_exits_two(capsys, spec_path):
    # each literal parses, but their product has 6001 digits, which the
    # printer may not write because the parser would refuse it
    limit = sys.get_int_max_str_digits()
    text = "(1e3000)*(1e3000)*I"
    for name, command in [
        ("e23", "normalize"), ("e23", "expect"), ("e23", "eval"),
        ("tw14", "normalize"), ("tw14", "expect"),
    ]:
        code, out, err = run_cli(capsys, [command, "--spec", spec_path(name), text])
        assert code == 2
        assert out == ""
        assert err == (
            f"error: the result has a coefficient that exceeds {limit} digits "
            "in lowest terms, the limit for a number in expression text\n"
        )


@pytest.mark.parametrize("fmt", ["text", "json-lines"])
def test_eval_prints_levels_past_the_digit_limit(capsys, spec_path, fmt):
    # the output level 2^20000 has 6021 digits; it is printed in full, and
    # the interpreter's limit is restored afterwards
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(
        capsys, ["eval", "--spec", spec_path("e23"), "--format", fmt, "e(20000,0;0)"]
    )
    assert (code, err) == (1, "")
    assert sys.get_int_max_str_digits() == limit
    sys.set_int_max_str_digits(0)
    try:
        digits = str(2**20000)
        assert len(digits) > limit
        if fmt == "text":
            assert lines_of(out) == [
                "base level: 1",
                f"level 1 -> {digits}: 1 entries",
                "  [0,0] = 1",
                "nonzero",
            ]
        else:
            record = json.loads(lines_of(out)[1])
            assert (record["level_in"], record["level_out"]) == (1, 2**20000)
            assert record["entries"] == [[0, 0, "1"]]
    finally:
        sys.set_int_max_str_digits(limit)


def test_monomial_index_past_the_digit_limit_exits_two(capsys, spec_path):
    # alpha_(1,0) of e(0,9100;0) has the index 3^9100, of 4342 digits, which
    # the parser would refuse as a literal
    limit = sys.get_int_max_str_digits()
    code, out, err = run_cli(capsys, ["alpha", "--spec", spec_path("e23"), "1,0", "e(0,9100;0)"])
    assert (code, out) == (2, "")
    assert err == (
        f"error: the result has a monomial index that exceeds {limit} digits, "
        "the limit for a number in expression text\n"
    )


def test_alpha_refuses_an_unprintable_shift_before_building_it(capsys, spec_path, monkeypatch):
    # alpha_(0,9100) of e(1,0;1) would have 3^9100 terms; its largest image
    # index, 2 * (3^9100 - 1) + 1, has 4343 digits, so nothing is built
    def never(*args):
        pytest.fail("the shift was built")

    monkeypatch.setattr(cli.algebra, "shift_endomorphism", never)
    limit = sys.get_int_max_str_digits()
    start = time.perf_counter()
    code, out, err = run_cli(capsys, ["alpha", "--spec", spec_path("e23"), "0,9100", "e(1,0;1)"])
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert err == (
        f"error: the result has a monomial index that exceeds {limit} digits, "
        "the limit for a number in expression text\n"
    )


def test_alpha_refuses_a_huge_shift_without_its_dimension(capsys, spec_path, monkeypatch):
    # dim(0,10^7) on e23 has about 4.8 million digits: its logarithm
    # refuses the shift, and the power itself is never computed.  A
    # coordinate past a float's range is refused by its size, on e23 and
    # on the dimension-5 slot of dims 1 5; on the dimension-one slot it
    # adds nothing to the index, and the printer refuses the coordinate
    # 10^limit of the result
    dim = SystemSpec._dim

    def recorded(self, s):
        assert all(e < 10**7 for m, e in zip(self.gen_dims, s) if m > 1)
        return dim(self, s)

    monkeypatch.setattr(SystemSpec, "_dim", recorded)
    limit = sys.get_int_max_str_digits()
    for name, fiber in [
        ("e23", "0,10000000"),
        ("e23", "9" * 400 + ",0"),
        ("e15", "0," + "9" * 400),
        ("e15", "9" * limit + ",0"),
    ]:
        code, out, err = run_cli(capsys, ["alpha", "--spec", spec_path(name), fiber, "e(1,0;0)"])
        assert (code, out) == (2, "")
        assert err == (
            f"error: the result has a monomial index that exceeds {limit} digits, "
            "the limit for a number in expression text\n"
        )


def test_alpha_shifts_by_a_huge_coordinate_of_a_dimension_one_generator(capsys, spec_path):
    # dims 1 5: the fiber (10^400 - 1, 0) has dimension one, so the image
    # of e(1,0;0) is one term with a 401-digit coordinate
    n = 10**400
    argv = ["alpha", "--spec", spec_path("e15"), f"{n - 1},0", "e(1,0;0)"]
    code, out, err = run_cli(capsys, argv)
    assert (code, err) == (0, "")
    assert out == f"e({n},0;0)*e({n - 1},0;0)'\n"


def test_alpha_of_zero_needs_no_dimension(capsys, spec_path, monkeypatch):
    # alpha_s(0) = 0 for every s: the 4.8-million-digit dim(0,10^7) on e23
    # is never computed
    dims = []
    dim = SystemSpec._dim

    def recorded(self, s):
        dims.append(s)
        return dim(self, s)

    monkeypatch.setattr(SystemSpec, "_dim", recorded)
    code, out, err = run_cli(capsys, ["alpha", "--spec", spec_path("e23"), "0,10000000", "0"])
    assert (code, out, err) == (0, "0\n", "")
    assert (0, 10000000) not in dims


def test_alpha_prints_the_largest_printable_index(capsys, spec_path):
    # on dims 10 10 the image f of e(L-1,0;10^(L-1) - 1) under alpha_(1,0)
    # has the index (f + 1) * 10^(L-1) - 1, which for f = 9 is L nines
    limit = sys.get_int_max_str_digits()
    x = f"e({limit - 1},0;{10 ** (limit - 1) - 1})"
    code, out, err = run_cli(capsys, ["alpha", "--spec", spec_path("e1010"), "1,0", x])
    assert (code, err) == (0, "")
    assert out.endswith(f"e({limit},0;{'9' * limit})*e(1,0;9)'\n")


def test_bad_expression_reports_position(capsys, spec_path):
    code, _, err = run_cli(
        capsys, ["normalize", "--spec", spec_path("e23"), "e(1,0;7)"]
    )
    assert code == 2
    assert err.startswith("error: in \"e(1,0;7)\"") or err.startswith("error: in 'e(1,0;7)'")
    assert "position" in err


def test_deep_nesting_is_an_expression_error(capsys, spec_path):
    # past 200 levels the parser refuses the "(" that opens level 201,
    # before the interpreter's stack runs out
    for name in ("e23", "f23"):
        deep = "(" * 400 + "I" + ")" * 400
        for argv in (["normalize", deep], ["equals", deep, "I"]):
            code, out, err = run_cli(capsys, [argv[0], "--spec", spec_path(name), *argv[1:]])
            assert (code, out) == (2, "")
            assert "position 200: parentheses nest deeper than 200" in err
        code, out, _ = run_cli(capsys, ["equals", "--spec", spec_path(name), deep[200:-200], "I"])
        assert (code, out) == (0, "true\n")


def test_bad_level_rejected(capsys, spec_path):
    # 5 is not divisible by the adjoint's right-fiber dimension 2
    code, _, err = run_cli(
        capsys, ["eval", "--spec", spec_path("e23"), "--level", "5", "e(1,0;0)'"]
    )
    assert code == 2
    assert err.startswith("error:")
    code, _, err = run_cli(
        capsys, ["eval", "--spec", spec_path("e23"), "--level", "0", "I"]
    )
    assert code == 2
    assert err == "error: base level must be a positive integer, got 0\n"


def test_unexpected_errors_exit_three(capsys, spec_path, monkeypatch):
    # exit 1 is the false verdict, so a crash must not end there
    cases = [
        (MemoryError(), "error: out of memory"),
        (RuntimeError("boom"), "internal error: RuntimeError: boom"),
    ]
    for exc, message in cases:
        def crash(args, reporter, exc=exc):
            raise exc

        monkeypatch.setattr(cli, "_cmd_normalize", crash)
        code, out, err = run_cli(capsys, ["normalize", "--spec", spec_path("e23"), "I"])
        assert code == 3
        assert out == ""
        assert err.startswith(message)
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "k = 2\ndims = 2 3\ntheta = 0 0.25 0 0\nscalars = cyclotomic:4\n",
            "line 3: cyclotomic scalar mode needs rational theta entries, got float 0.25",
        ),
        ("k = 2\ndims = 2 3\nscalars\n", "line 3: expected 'key = value', got 'scalars'"),
        ("k = 2\nk = 2\ndims = 2 3\n", "line 2: duplicate key 'k'"),
        ("k = 2\n", "line 1: missing required line 'dims = ...'"),
        ("k = 2\ndims = 2 3\ntheta = 0 x 0 0\n", "line 3: bad numeric entry 'x'"),
    ],
)
def test_bad_spec_lines_exit_two(capsys, tmp_path, text, message):
    path = tmp_path / "bad.spec"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, ["classify", "--spec", str(path)])
    assert (code, out) == (2, "")
    assert err == f"error: bad spec file {str(path)!r}: {message}\n"


def test_refused_arguments_exit_two(capsys, spec_path, tmp_path):
    e23 = spec_path("e23")
    bad_key = tmp_path / "bad_key.assign"
    bad_key.write_text("(1,x) = e(1,0;0)\n", encoding="utf-8")
    cases = [
        (
            ["eval", "--spec", e23, "--lambda", "2,1", "I"],
            "error: character value RationalComplex(2, 0) is not of modulus one\n",
        ),
        (
            ["kill", "--spec", e23, "e(1,0;0)+e(0,1;0)", "e(0,1;0)"],
            "error: 'e(1,0;0)+e(0,1;0)' is not a single generator monomial\n",
        ),
        (
            ["kill", "--spec", e23, "e(1,0;0)", "e(0,1;0)", "--shift", "0,1"],
            "error: pair 0: shift fiber (0, 1) does not dominate (1, 0)\n",
        ),
        (
            ["relations", "--spec", e23, str(bad_key)],
            "error: line 1: malformed generator key '(1,x)'\n",
        ),
        (
            ["normalize", "--spec", e23, "zeta(0)*I"],
            "error: in 'zeta(0)*I': position 5: root order must be positive\n",
        ),
        (
            ["eval", "--spec", e23, "--lambda", "1 2,1", "I"],
            "error: bad character value '1 2': position 2: unexpected '2' (expected end of input)\n",
        ),
    ]
    for argv, message in cases:
        assert run_cli(capsys, argv) == (2, "", message)
    missing = str(tmp_path / "absent.assign")
    code, out, err = run_cli(capsys, ["relations", "--spec", e23, missing])
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read assignment {missing!r}: ")


def test_float_character_keeps_the_degree_zero_phase_exact(capsys, spec_path):
    # the phase of degree zero is the field's one; lambda * conj(lambda)
    # rounds to 0.9999999999999999 for lambda = zeta(3) in floating point
    code, out, err = run_cli(
        capsys,
        ["eval", "--spec", spec_path("f23"), "--lambda", "zeta(3),1", "I + e(1,0;0)*e(1,0;0)'"],
    )
    assert (code, err) == (1, "")
    assert lines_of(out) == [
        "base level: 2",
        "level 2 -> 2: 2 entries",
        "  [0,0] = 2.0",
        "  [1,1] = 1.0",
        "nonzero",
    ]


def test_bad_lambda_count(capsys, spec_path):
    code, _, err = run_cli(
        capsys, ["eval", "--spec", spec_path("e24"), "--lambda", "i", "e(0,1;0)"]
    )
    assert code == 2
    assert "--lambda needs 2 comma-separated scalars" in err


def test_bad_fiber_rejected(capsys, spec_path):
    code, _, err = run_cli(capsys, ["alpha", "--spec", spec_path("e23"), "1", "I"])
    assert code == 2
    assert err.startswith("error: bad fiber")


def test_kill_requires_plain_generator(capsys, spec_path):
    code, _, err = run_cli(
        capsys, ["kill", "--spec", spec_path("e23"), "2*e(1,0;0)", "e(0,1;0)"]
    )
    assert code == 2
    assert "not a plain generator monomial" in err


def test_unknown_command_exits_two(capsys):
    assert run_cli(capsys, ["frobnicate"])[0] == 2


def test_no_arguments_exits_two(capsys):
    assert run_cli(capsys, [])[0] == 2


def test_witness_output_is_deterministic(capsys, spec_path):
    path = spec_path("e24")
    first = run_cli(capsys, ["witness", "--spec", path])
    second = run_cli(capsys, ["witness", "--spec", path])
    assert first == second
