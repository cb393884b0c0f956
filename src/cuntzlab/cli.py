"""Command-line front end.

Every verification and construction in the package is reachable through a
subcommand.  Exit status encodes the verdict: 0 for success or a true
verdict, 1 for a false verdict or a reported violation, 2 for usage,
parse, or configuration errors, and 3 for an unexpected failure such as
running out of memory, reported in one line on stderr.  Output ordering
is deterministic (elements print in their canonical degree-lexicographic
term order), so runs on identical inputs are textually identical.

``selftest`` runs one battery in one loop.  On each builtin system it
reads the range sums and the isometry relations off the report of
``morphisms.check_relations`` for the identity assignment, round-trips
random elements through the normal form, the printer and the trivial
shift, and classifies; then it checks the twisted builtin's phase against
the known answer UV = zeta_4 VU and the e24 nonsimplicity witness.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import random
import sys
from fractions import Fraction

from . import algebra, analysis, expr, morphisms, steprep
from .analysis import HypothesisViolationError
from .runs import cells
from .steprep import CharacterTwist
from .system import (
    BasisMonomial,
    ConfigurationError,
    SpecFormatError,
    SystemSpec,
    parse_spec_text,
)


class UsageError(Exception):
    """Bad invocation: unreadable spec, malformed expression or flags."""


# built-in systems used by selftest; the twist satisfies UV = zeta_4 VU
# for U = e(0,1;0), V = e(1,0;0)
BUILTIN_SPECS = {
    "e23": "k = 2\ndims = 2 3\n",
    "e24": "k = 2\ndims = 2 4\n",
    "e48": "k = 2\ndims = 4 8\n",
    "e15": "k = 2\ndims = 1 5\n",
    "tw14": "k = 2\ndims = 1 1\ntheta = 0 0 1/4 0\nscalars = cyclotomic:4\n",
}


class Reporter:
    """Writes records to stdout as plain lines or as one JSON object per line,
    each record naming the subcommand that wrote it."""

    def __init__(self, fmt: str, command: str):
        self.fmt = fmt
        self.command = command

    def emit(self, text: str, **record):
        if self.fmt == "json-lines":
            print(json.dumps({"command": self.command, **record}, sort_keys=True))
        else:
            print(text)


def _load_spec(path: str) -> SystemSpec:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise UsageError(f"cannot read spec file {path!r}: {err}") from None
    try:
        return parse_spec_text(text)
    except (SpecFormatError, ConfigurationError, ValueError) as err:
        raise UsageError(f"bad spec file {path!r}: {err}") from None


def _parse_element(spec: SystemSpec, text: str):
    try:
        return expr.parse_element(spec, text)
    except expr.ExpressionError as err:
        raise UsageError(f"in {text!r}: {err}") from None


def _parse_fiber(spec: SystemSpec, text: str):
    try:
        coords = tuple(int(p) for p in text.split(","))
        return spec.check_fiber(coords)
    except ValueError as err:
        raise UsageError(f"bad fiber {text!r}: {err}") from None


def _parse_character(spec: SystemSpec, text: str) -> CharacterTwist:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != spec.k:
        raise UsageError(
            f"--lambda needs {spec.k} comma-separated scalars, got {len(parts)}"
        )
    values = []
    for part in parts:
        try:
            values.append(expr.parse_scalar(spec, part))
        except expr.ExpressionError as err:
            raise UsageError(f"bad character value {part!r}: {err}") from None
    try:
        return CharacterTwist(values)
    except ValueError as err:
        raise UsageError(str(err)) from None


def _parse_generator(spec: SystemSpec, text: str):
    """A CLI argument that must denote a single generator isometry."""
    elem = _parse_element(spec, text)
    runs = elem.pairs[0][2] if len(elem.pairs) == 1 else ()
    if len(runs) != 1 or runs[0][2] != 1:
        raise UsageError(f"{text!r} is not a single generator monomial")
    fx, fy, _ = elem.pairs[0]
    i, j, _, coeff = runs[0]
    if BasisMonomial(fy, j) != spec.identity_monomial or not coeff.is_one():
        raise UsageError(f"{text!r} is not a plain generator monomial")
    return BasisMonomial(fx, i)


def _fiber_text(fiber) -> str:
    return "(" + ",".join(str(c) for c in fiber) + ")"


# ---------------------------------------------------------------------------
# subcommand handlers; each returns the process exit code


def _cmd_normalize(args, reporter: Reporter) -> int:
    spec = _load_spec(args.spec)
    element = _parse_element(spec, args.expression)
    canonical = algebra.expand_normal_form(algebra.normal_form(element))
    text = expr.format_element(canonical)
    reporter.emit(text, element=text)
    return 0


def _cmd_equals(args, reporter: Reporter) -> int:
    spec = _load_spec(args.spec)
    left = _parse_element(spec, args.left)
    right = _parse_element(spec, args.right)
    expr.require_finite(left, right)
    verdict = algebra.equals(left, right)
    reporter.emit("true" if verdict else "false", equal=verdict)
    return 0 if verdict else 1


def _cmd_expect(args, reporter: Reporter) -> int:
    spec = _load_spec(args.spec)
    element = _parse_element(spec, args.expression)
    text = expr.format_element(algebra.gauge_expectation(element))
    reporter.emit(text, element=text)
    return 0


def _cmd_alpha(args, reporter: Reporter) -> int:
    spec = _load_spec(args.spec)
    fiber = _parse_fiber(spec, args.fiber)
    element = _parse_element(spec, args.expression)
    # the largest image index, (dim(s) - 1) * dim(x) + x.index, tells before
    # any term is built whether the result can be printed; once log10 dim(s)
    # passes the limit by a digit, 10^limit stands in for dim(s) - 1.  A
    # dimension-one generator adds nothing, and on any other a coordinate
    # past 4 (limit + 1) passes the limit, as log10 2 > 1/4, so no
    # coordinate is made a float that would overflow one
    limit = sys.get_int_max_str_digits()
    if limit and element.pairs:
        log_dim = sum(
            e * math.log10(m) if e <= 4 * (limit + 1) else math.inf
            for m, e in zip(spec.gen_dims, fiber)
            if m > 1
        )
        step = 10**limit if log_dim > limit + 1 else spec.dim(fiber) - 1
        # a run's largest indices are its last entry's
        tops = [
            step * spec.dim(f) + start + n - 1
            for fx, fy, runs in element.pairs
            for r, c, n, _ in runs
            for f, start in ((fx, r), (fy, c))
        ]
        if max(tops) >= 10**limit:
            raise expr._past_digit_limit("a monomial index that exceeds {} digits")
    text = expr.format_element(algebra.shift_endomorphism(element, fiber))
    reporter.emit(text, fiber=list(fiber), element=text)
    return 0


def _emit_family(family, reporter: Reporter) -> None:
    # every entry is formatted, under the digit limit, before the first line
    # is emitted, so a value the printer rejects leaves stdout empty; the
    # cells of a block's swept runs come in (row, col) order
    blocks = []
    for level_out in sorted(family.blocks):
        block = family.blocks[level_out]
        entries = [(r, c, expr.format_scalar(v)) for r, c, v in cells(block.runs)]
        blocks.append((level_out, block, entries))
    with _all_digits():
        reporter.emit(f"base level: {family.base_level}", base_level=family.base_level)
        for level_out, block, entries in blocks:
            size = f"{len(entries)} entries" if entries else "zero"
            reporter.emit(
                f"level {block.level_in} -> {level_out}: {size}",
                level_in=block.level_in,
                level_out=level_out,
                entries=[[r, c, v] for r, c, v in entries],
            )
            if reporter.fmt == "text":
                for r, c, v in entries:
                    reporter.emit(f"  [{r},{c}] = {v}")


def _cmd_eval(args, reporter: Reporter) -> int:
    spec = _load_spec(args.spec)
    element = _parse_element(spec, args.expression)
    twist = None
    try:
        if args.lambda_values is not None:
            twist = _parse_character(spec, args.lambda_values)
        family = steprep.evaluate(element, args.level, twist=twist)
    except (ValueError, TypeError) as err:
        raise UsageError(str(err)) from None
    _emit_family(family, reporter)
    zero = family.is_zero()
    reporter.emit("zero" if zero else "nonzero", zero=zero)
    return 0 if zero else 1


def _cmd_classify(args, reporter: Reporter) -> int:
    spec = _load_spec(args.spec)
    result = analysis.classify(spec)
    record = {
        "verdict": result.verdict(),
        "kind": result.kind,
        "dims": list(result.gen_dims),
        "twisted": result.twisted,
        "rank": result.rank,
    }
    if result.witness is not None:
        record["witness"] = [list(result.witness[0]), list(result.witness[1])]
    if result.power_base is not None:
        record["power_base"] = list(result.power_base)
    reporter.emit(result.verdict(), **record)
    return 0 if result.kind != "Unknown" else 1


def _cmd_witness(args, reporter: Reporter) -> int:
    spec = _load_spec(args.spec)
    witness = analysis.classify(spec).witness
    if witness is None:
        reporter.emit("no witness: the dimension function is injective", witness=None)
        return 1
    s, t = witness
    try:
        element, twist = analysis.nonsimplicity_witness(spec, s, t)
    except ValueError as err:
        reporter.emit(f"no witness: {err}", witness=None)
        return 1
    plain_zero = steprep.evaluate(element).is_zero()
    twisted_zero = steprep.evaluate(element, twist=twist).is_zero()
    verdict = plain_zero and not twisted_zero
    reporter.emit(
        f"witness fibers: {_fiber_text(s)} {_fiber_text(t)}",
        fibers=[list(s), list(t)],
    )
    reporter.emit(
        "character: " + ", ".join(expr.format_scalar(v) for v in twist.values),
        character=[expr.format_scalar(v) for v in twist.values],
    )
    reporter.emit(
        "distinguished representation: " + ("zero" if plain_zero else "nonzero"),
        plain_zero=plain_zero,
    )
    reporter.emit(
        "character-twisted: " + ("zero" if twisted_zero else "nonzero"),
        twisted_zero=twisted_zero,
    )
    reporter.emit(
        "witness verified: " + ("true" if verdict else "false"),
        verified=verdict,
    )
    return 0 if verdict else 1


@contextlib.contextmanager
def _all_digits():
    """Convert ints to text in full, past the interpreter's 4300-digit limit,
    and restore the limit afterwards: the levels of a step family and the
    fiber dimensions of an annihilating vector can be that long."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _cmd_kill(args, reporter: Reporter) -> int:
    spec = _load_spec(args.spec)
    x = _parse_generator(spec, args.x)
    y = _parse_generator(spec, args.y)
    shift = _parse_fiber(spec, args.shift) if args.shift else None
    try:
        instance = analysis.annihilation_instance(spec, [(x, y)], shift)
        vector = analysis.annihilating_vector(spec, instance)
    except HypothesisViolationError as err:
        reporter.emit(f"hypothesis violation: {err}", error=str(err))
        return 1
    except ValueError as err:
        raise UsageError(str(err)) from None
    support = len(vector.entries)
    reporter.emit(
        f"shift fiber: {_fiber_text(instance.shift_fiber)}",
        shift=list(instance.shift_fiber),
    )
    with _all_digits():
        reporter.emit(
            f"vector fiber: {_fiber_text(vector.fiber)}, support {support} of "
            f"{vector.dim}",
            vector_fiber=list(vector.fiber),
            support=support,
            dimension=vector.dim,
        )
    verdict = analysis.verify_annihilation(spec, instance, vector)
    reporter.emit(
        "compressed pair: " + ("zero" if verdict else "nonzero"),
        annihilated=verdict,
    )
    return 0 if verdict else 1


def _cmd_iso(args, reporter: Reporter) -> int:
    if args.m < 1 or args.n < 1:
        raise UsageError("m and n must be positive")
    pair = morphisms.factor_iso(args.m, args.n)
    for direction, assignment in (("forward", pair.forward), ("backward", pair.backward)):
        report = assignment.report()
        reporter.emit(
            f"{direction} relations: {'ok' if report.ok else 'violated'} "
            f"({report.checked} checked)",
            **{f"{direction}_ok": report.ok, f"{direction}_checked": report.checked},
        )
    verdict = morphisms.verify_roundtrip(pair)
    reporter.emit("round trip: " + ("true" if verdict else "false"), roundtrip=verdict)
    return 0 if verdict else 1


def _cmd_relations(args, reporter: Reporter) -> int:
    spec = _load_spec(args.spec)
    target_spec = _load_spec(args.target) if args.target else spec
    try:
        with open(args.assignment, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as err:
        raise UsageError(f"cannot read assignment {args.assignment!r}: {err}") from None
    try:
        assignment = morphisms.parse_assignment(spec, target_spec, text)
    except (ConfigurationError, expr.ExpressionError) as err:
        raise UsageError(str(err)) from None
    expr.require_finite(*assignment.images.values())
    report = assignment.report()
    reporter.emit(
        f"relations: {'ok' if report.ok else 'violated'} ({report.checked} checked)",
        ok=report.ok,
        checked=report.checked,
        violations=list(report.violations),
    )
    if reporter.fmt == "text":
        for violation in report.violations:
            reporter.emit("  " + violation)
    return 0 if report.ok else 1


# ---------------------------------------------------------------------------
# selftest battery


_SELFTEST_VERDICTS = {
    "e23": "SimplePurelyInfinite",
    "e24": "TensorCircle(2)",
    "e48": "TensorCircle(2)",
    "e15": "TensorCircle(5)",
    "tw14": "Unknown",
}


def _spec_checks(spec: SystemSpec, rng: random.Random):
    """Yield (label, check) for one builtin; each check returns True on pass."""
    # the slot relations, as the library's checker reports them for the
    # identity assignment
    relations = morphisms.canonical_assignment(spec)

    def clean(*kinds):
        return not any(v.startswith(kinds) for v in relations.report().violations)

    def random_element():
        fibers = [(0,) * spec.k, spec.unit_fiber(0), spec.unit_fiber(spec.k - 1)]
        acc = algebra.zero(spec)
        for _ in range(3):
            s = rng.choice(fibers)
            t = rng.choice(fibers)
            acc = acc + algebra.monomial_pair(
                spec,
                spec.monomial(s, rng.randrange(spec.dim(s))),
                spec.monomial(t, rng.randrange(spec.dim(t))),
                Fraction(rng.randint(-2, 2) or 1),
            )
        return acc

    def normal_form_roundtrip():
        for _ in range(5):
            a = random_element()
            b = algebra.expand_normal_form(algebra.normal_form(a))
            if not algebra.equals(a, b):
                return False
            if not spec.is_twisted:
                fam_a = steprep.evaluate(a)
                fam_b = steprep.evaluate(b, fam_a.base_level)
                if not fam_a.equal(fam_b):
                    return False
        return True

    def printer_roundtrip():
        for _ in range(5):
            a = random_element()
            if expr.parse_element(spec, expr.format_element(a)) != a:
                return False
        return True

    def alpha_unital():
        one = algebra.identity(spec)
        for slot in range(spec.k):
            shifted = algebra.shift_endomorphism(one, spec.unit_fiber(slot))
            if not algebra.equals(shifted, one):
                return False
        a = random_element()
        return algebra.equals(algebra.shift_endomorphism(a, (0,) * spec.k), a)

    yield "cuntz sums", lambda: clean("range sum")
    yield "isometry relations", lambda: clean("isometry", "orthogonality")
    yield "normal form round trip", normal_form_roundtrip
    yield "printer round trip", printer_roundtrip
    yield "alpha unital", alpha_unital


def _selftest_checks(rng: random.Random):
    """Yield (spec name, label, json key, check) for the whole battery."""
    specs = {name: parse_spec_text(text) for name, text in BUILTIN_SPECS.items()}
    for name, spec in specs.items():
        for label, check in _spec_checks(spec, rng):
            yield name, label, label, check
        verdict = analysis.classify(spec).verdict()
        ok = verdict == _SELFTEST_VERDICTS[name]
        yield name, f"classify -> {verdict}", "classify", lambda ok=ok: ok

    # the twisted builtin carries the commutation phase UV = zeta_4 VU; the
    # relation report takes its ratio exp(2*pi*i*(theta_ab - theta_ba)) from
    # the angle matrix multiply takes its phases from, so only this known
    # zeta_4 catches a convention that is wrong in both
    tw14 = specs["tw14"]
    U = algebra.isometry(tw14, tw14.monomial((0, 1), 0))
    V = algebra.isometry(tw14, tw14.monomial((1, 0), 0))
    zeta = tw14.field.zeta_power(1)
    yield "tw14", "UV = zeta*VU", "twist phase", lambda: algebra.equals(
        algebra.multiply(U, V), algebra.multiply(V, U).scaled(zeta)
    )

    # witness for the dimension collision of e24, criterion-style
    element, twist = analysis.nonsimplicity_witness(specs["e24"], (2, 0), (0, 1))
    yield "e24", "witness separates representations", "witness", lambda: (
        steprep.evaluate(element).is_zero()
        and not steprep.evaluate(element, twist=twist).is_zero()
    )


def _cmd_selftest(args, reporter: Reporter) -> int:
    total = passed = 0
    for name, label, key, check in _selftest_checks(random.Random(20240817)):
        ok = bool(check())
        total += 1
        passed += ok
        reporter.emit(
            f"{'ok' if ok else 'FAIL'} {name}: {label}",
            spec=name,
            check=key,
            ok=ok,
        )
    reporter.emit(
        f"selftest: {passed} of {total} checks passed",
        passed=passed,
        total=total,
    )
    return 0 if passed == total else 1


# ---------------------------------------------------------------------------
# argument surface


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later calls.

    Each subcommand names its handler; ``main`` looks the name up when it
    runs, so a module-level handler replaced after the first call is used.
    """
    parser = argparse.ArgumentParser(
        prog="cuntzlab",
        description="Exact computer algebra for product-system Cuntz algebras.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec=True):
        if spec:
            p.add_argument("--spec", required=True, help="path to a spec file")
        p.add_argument(
            "--format",
            choices=("text", "json-lines"),
            default="text",
            help="output format (default: text)",
        )

    p = sub.add_parser("normalize", help="canonical normal form of an expression")
    common(p)
    p.add_argument("expression")
    p.set_defaults(handler="_cmd_normalize")

    p = sub.add_parser("equals", help="decide equality of two expressions")
    common(p)
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler="_cmd_equals")

    p = sub.add_parser("expect", help="gauge-invariant expectation of an expression")
    common(p)
    p.add_argument("expression")
    p.set_defaults(handler="_cmd_expect")

    p = sub.add_parser("alpha", help="apply the shift endomorphism for a fiber")
    common(p)
    p.add_argument("fiber", help="comma-separated fiber, e.g. 1,0")
    p.add_argument("expression")
    p.set_defaults(handler="_cmd_alpha")

    p = sub.add_parser("eval", help="evaluate in the step representation")
    common(p)
    p.add_argument("--level", type=int, default=None, help="base level")
    p.add_argument(
        "--lambda",
        dest="lambda_values",
        default=None,
        help="comma-separated modulus-one scalars twisting the generators",
    )
    p.add_argument("expression")
    p.set_defaults(handler="_cmd_eval")

    p = sub.add_parser("classify", help="simplicity classification of a spec")
    common(p)
    p.set_defaults(handler="_cmd_classify")

    p = sub.add_parser("witness", help="nonsimplicity witness for a spec")
    common(p)
    p.set_defaults(handler="_cmd_witness")

    p = sub.add_parser("kill", help="annihilate a monomial pair by compression")
    common(p)
    p.add_argument("x", help="left generator monomial, e.g. 'e(1,0;0)'")
    p.add_argument("y", help="right generator monomial")
    p.add_argument("--shift", default=None, help="shift fiber (default: as summed)")
    p.set_defaults(handler="_cmd_kill")

    p = sub.add_parser("iso", help="dimension-absorbing isomorphism round trip")
    common(p, spec=False)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.set_defaults(handler="_cmd_iso")

    p = sub.add_parser("relations", help="check a generator assignment file")
    common(p)
    p.add_argument(
        "--target", default=None, help="target spec path (default: --spec)"
    )
    p.add_argument("assignment", help="file of '(a,i) = <expression>' lines")
    p.set_defaults(handler="_cmd_relations")

    p = sub.add_parser("selftest", help="run the built-in verification battery")
    common(p, spec=False)
    p.set_defaults(handler="_cmd_selftest")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code or 0)
    reporter = Reporter(args.format, args.command)
    try:
        return globals()[args.handler](args, reporter)
    except (UsageError, expr.UnprintableError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 0
    except MemoryError:
        print("error: out of memory; try a smaller input or level", file=sys.stderr)
        return 3
    except Exception as err:
        # exit 1 means a false verdict, so a bug must not end there
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())

