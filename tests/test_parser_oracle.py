"""The parser against the one it replaced, kept below as an oracle.

``_tokenize`` and ``_Parser`` are copied verbatim from the parser that
tokenized with one regex match per token and parsed a parenthesized
coefficient as an element.  Texts that parse must give identical elements,
float coefficients identical to the bit; texts that do not must fail with
the same position, message and expected set.
"""

import random
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuntzlab import algebra, scalars
from cuntzlab.algebra import AlgebraElement
from cuntzlab.expr import ExpressionError, format_element, parse_element
from cuntzlab.system import SystemSpec, parse_spec_text

from conftest import random_element

# ---------------------------------------------------------------------------
# the oracle, verbatim


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<decimal>\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_]+)
  | (?P<punct>[-+*/;,()'^])
    """,
    re.VERBOSE,
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ExpressionError(pos, f"unexpected character {text[pos]!r}")
        if m.lastgroup == "ws":
            pos = m.end()
            continue
        kind = m.lastgroup
        if kind == "punct":
            kind = m.group()
        tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, spec: SystemSpec, text: str):
        self.spec = spec
        self.tokens = _tokenize(text)
        self.at = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0):
        return self.tokens[min(self.at + ahead, len(self.tokens) - 1)]

    def accept(self, kind: str):
        tok = self.tokens[self.at]
        if tok[0] == kind:
            self.at += 1
            return tok
        return None

    def expect(self, kind: str, expected=None):
        tok = self.tokens[self.at]
        if tok[0] != kind:
            what = tok[1] or "end of input"
            raise ExpressionError(
                tok[2], f"unexpected {what!r}", expected or {kind}
            )
        self.at += 1
        return tok

    # -- scalars -------------------------------------------------------------

    def _rational(self) -> Fraction:
        tok = self.accept("int") or self.accept("decimal")
        if tok is None:
            raise ExpressionError(
                self.peek()[2], "expected a number", {"int", "decimal"}
            )
        value = Fraction(tok[1])
        if tok[0] == "int" and self.peek()[0] == "/" and self.peek(1)[0] == "int":
            self.accept("/")
            den_tok = self.expect("int")
            den = int(den_tok[1])
            if den == 0:
                raise ExpressionError(den_tok[2], "zero denominator")
            value /= den
        return value

    def _try_scalar(self, greedy_complex: bool = True, negate: bool = False):
        """Parse a scalar or return None with the position restored.

        ``greedy_complex`` lets a trailing "+/- rational i" bind into the
        atom, which is how term coefficients like "1+2i*g" read; bare
        scalar expressions turn it off and let the sum loop assemble
        complex values.  A leading sign already consumed by the caller is
        passed as ``negate`` and folded into the first component only, so
        "-3/2-1i" means (-3/2) + (-1)i.
        """
        tok = self.peek()
        if tok[0] == "name" and tok[1] == "zeta":
            self.at += 1
            self.expect("(")
            q_tok = self.expect("int")
            q = int(q_tok[1])
            if q < 1:
                raise ExpressionError(q_tok[2], "root order must be positive")
            self.expect(")")
            power = 1
            if self.accept("^"):
                sign = -1 if self.accept("-") else 1
                power = sign * int(self.expect("int")[1])
            try:
                root = self.spec.field.root_of_unity(Fraction(power, q))
            except (TypeError, ValueError) as err:
                raise ExpressionError(
                    tok[2], f"zeta({q}) is not representable: {err}"
                ) from None
            return -root if negate else root
        if tok[0] == "name" and tok[1] == "i":
            self.at += 1
            unit = Fraction(-1) if negate else Fraction(1)
            return self._coerce_complex(Fraction(0), unit, tok[2])
        if tok[0] not in ("int", "decimal"):
            return None
        re_part = self._rational()
        if negate:
            re_part = -re_part
        nxt = self.peek()
        if nxt[0] == "name" and nxt[1] == "i":
            self.at += 1
            return self._coerce_complex(Fraction(0), re_part, tok[2])
        if greedy_complex and nxt[0] in ("+", "-"):
            save = self.at
            sign = Fraction(-1 if nxt[0] == "-" else 1)
            self.at += 1
            if self.peek()[0] in ("int", "decimal"):
                im_part = self._rational()
                tail = self.peek()
                if tail[0] == "name" and tail[1] == "i":
                    self.at += 1
                    return self._coerce_complex(re_part, sign * im_part, tok[2])
            self.at = save
        return self._coerce_complex(re_part, Fraction(0), tok[2])

    def _coerce_complex(self, re_part: Fraction, im_part: Fraction, pos: int):
        value = scalars.RationalComplex(re_part, im_part)
        try:
            return self.spec.field.coerce(value)
        except (TypeError, ValueError, OverflowError) as err:
            raise ExpressionError(pos, f"scalar not representable: {err}") from None

    # -- structure -----------------------------------------------------------

    def _generator(self) -> AlgebraElement:
        name_tok = self.expect("name")
        self.expect("(", {"("})
        coords = [int(self.expect("int", {"int"})[1])]
        while self.accept(","):
            coords.append(int(self.expect("int", {"int"})[1]))
        self.expect(";", {";", ","})
        index_tok = self.expect("int", {"int"})
        self.expect(")", {")"})
        if len(coords) != self.spec.k:
            raise ExpressionError(
                name_tok[2],
                f"fiber has {len(coords)} coordinates, spec rank is {self.spec.k}",
            )
        try:
            mono = self.spec.monomial(tuple(coords), int(index_tok[1]))
        except ValueError as err:
            raise ExpressionError(index_tok[2], str(err)) from None
        return algebra.isometry(self.spec, mono)

    def _factor(self) -> AlgebraElement:
        tok = self.peek()
        if tok[0] == "name" and tok[1] == "e":
            elem = self._generator()
        elif tok[0] == "name" and tok[1] == "I":
            self.at += 1
            elem = algebra.identity(self.spec)
        elif tok[0] == "(":
            self.at += 1
            elem = self._expr()
            self.expect(")", {")"})
        else:
            what = tok[1] or "end of input"
            raise ExpressionError(
                tok[2], f"unexpected {what!r}", {"e(", "I", "("}
            )
        if self.accept("'"):
            elem = elem.adjoint()
        return elem

    def _term(self, negate: bool = False) -> AlgebraElement:
        scalar = self._try_scalar(negate=negate)
        if scalar is not None:
            if not self.accept("*"):
                nxt = self.peek()
                if nxt[0] in ("+", "-", ")", "end"):
                    return algebra.identity(self.spec).scaled(scalar)
                what = nxt[1] or "end of input"
                raise ExpressionError(
                    nxt[2], f"unexpected {what!r} after scalar", {"*", "+", "-"}
                )
            elem = self._factor().scaled(scalar)
        else:
            elem = self._factor()
            if negate:
                elem = -elem
        while self.accept("*"):
            elem = algebra.multiply(elem, self._factor())
        return elem

    def _expr(self) -> AlgebraElement:
        negate = False
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.at += 1
            negate = tok[0] == "-"
        elem = self._term(negate=negate)
        if self.peek()[0] not in ("+", "-"):
            return elem
        # merge every term into one map and build the element once; adding
        # element by element would re-sort the growing sum for each term
        acc = {(t.left, t.right): t.coeff for t in elem.terms}
        while self.peek()[0] in ("+", "-"):
            tok = self.peek()
            self.at += 1
            for t in self._term(negate=tok[0] == "-").terms:
                key = (t.left, t.right)
                cur = acc.get(key)
                if cur is None:
                    acc[key] = t.coeff
                    continue
                total = cur + t.coeff
                # drop cancelled terms as each partial sum did, so a float
                # residue below tolerance is discarded the same way
                if total.is_zero():
                    del acc[key]
                else:
                    acc[key] = total
        return AlgebraElement(self.spec, acc)

    def parse(self) -> AlgebraElement:
        elem = self._expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError(
                tok[2], f"unexpected {tok[1]!r}", {"+", "-", "*", "end of input"}
            )
        return elem

    def _scalar_atom(self):
        value = self._try_scalar(greedy_complex=False)
        if value is None:
            raise ExpressionError(
                self.peek()[2], "expected a scalar", {"int", "decimal", "i", "zeta("}
            )
        return value

    def parse_scalar(self):
        # scalars alone also form sums of products, so printed cyclotomic
        # values like "1 - 1/2*zeta(8)^1" read back in
        negate = False
        tok = self.peek()
        if tok[0] in ("+", "-"):
            self.at += 1
            negate = tok[0] == "-"
        value = self._scalar_atom()
        while self.accept("*"):
            value = value * self._scalar_atom()
        if negate:
            value = -value
        while True:
            tok = self.peek()
            if tok[0] not in ("+", "-"):
                break
            self.at += 1
            nxt = self._scalar_atom()
            while self.accept("*"):
                nxt = nxt * self._scalar_atom()
            value = value - nxt if tok[0] == "-" else value + nxt
        tok = self.peek()
        if tok[0] != "end":
            raise ExpressionError(tok[2], f"unexpected {tok[1]!r}", {"end of input"})
        return value


def oracle_parse(spec, text):
    return _Parser(spec, text).parse()


# ---------------------------------------------------------------------------
# the property

SPECS = {
    "e23": SystemSpec((2, 3)),
    "q8": parse_spec_text("k = 2\ndims = 2 3\ntheta = 0 3/8 0 0\nscalars = cyclotomic:8\n"),
    "float": parse_spec_text("k = 2\ndims = 2 3\nscalars = float\n"),
    "twisted float": parse_spec_text(
        "k = 2\ndims = 2 3\ntheta = 0 0.3183098861837907 0.1 0\nscalars = float\n"
    ),
}


LIMIT = sys.get_int_max_str_digits()
LONG_LITERAL = re.compile(rf"\d{{{LIMIT + 1},}}")
INT_LIMIT = f"Exceeds the limit ({LIMIT} digits)"


def outcome(parse, spec, text):
    """The terms with their coefficients' repr, which shows every bit of a
    float; or the error's position, message and expected set.

    A literal past the digit limit is refused by the parser with its own
    message, and by the oracle's int() with int()'s ValueError, which the
    oracle puts at the literal only for a generator index.  Literals are
    read left to right, so the oracle's bare ValueError is at the leftmost
    such literal.
    """
    try:
        elem = parse(spec, text)
    except ExpressionError as err:
        if f"number exceeds {LIMIT} digits" in str(err) or INT_LIMIT in str(err):
            return "past the digit limit", err.position
        return "error", err.position, str(err), err.expected
    except ValueError as err:
        if parse is not oracle_parse or INT_LIMIT not in str(err):
            raise
        return "past the digit limit", LONG_LITERAL.search(text).start()
    return "element", [(repr(t.coeff), t.left, t.right) for t in elem.terms]


@st.composite
def printed(draw):
    spec = SPECS[draw(st.sampled_from(sorted(SPECS)))]
    rng = random.Random(draw(st.integers(0, 2**32)))
    nterms = draw(st.integers(0, 6))
    return format_element(random_element(spec, rng, nterms=nterms, max_sum=2))


_space = st.sampled_from(["", "", " ", "  ", "\t", "\n "])
_generators = st.sampled_from([
    "e(1,0;1)", "e(0,1;2)", "e(1,1;5)", "e(2,0;3)", "e(0,0;0)", "e(0,2;8)",
    "e( 1 , 0 ; 0 )", "e (0,1; 1)", "I",
])
_scalars = st.sampled_from([
    "3", "07", "3/4", "0.125", "1.5e-3", "2E2", "2i", "i", "1+2i", "1/2-3/4i",
    "zeta(8)^-3", "zeta(8)", "zeta(4)^2", "2*zeta(8)^5",
])
# terms as the printer writes them, each one token on the exact fields, and
# the same shapes with an index out of range, a zero denominator, or a
# literal past the digit limit (no leading zero, so that two edits leave it
# past the limit)
_terms = st.sampled_from([
    "(3/4-2/3i)*e(1,0;0)*e(0,1;1)'", "(7/3+1i)*e(2,1;11)*e(1,1;2)'", "(2i)*I",
    "(1/2i)*e(0,2;8)'", "5/7*e(2,0;3)", "2*e(1,1;5)'", "e(1,0;1)*e(1,0;1)'",
    "0*e(0,1;2)'", "3*I", "e(0,0;0)*e(1,0;0)'",
    "2*e(1,0;7)*e(0,1;0)'", "(1/2-1/0i)*e(1,0;0)", "3/0*I",
    "1" * (LIMIT + 3) + "*e(1,0;0)", "e(1,0;" + "1" * (LIMIT + 3) + ")*e(0,1;0)'",
])


def _join(draw, parts):
    return "".join(draw(_space) + p for p in parts) + draw(_space)


@st.composite
def _factor(draw, inner):
    kind = draw(st.sampled_from(["gen", "adjoint", "group", "scalar", "term"]))
    if kind == "gen":
        return draw(_generators)
    if kind == "term":
        return draw(_terms) + draw(st.sampled_from(["", "'"]))
    if kind == "adjoint":
        return draw(_generators) + "'"
    body = draw(inner) if kind == "group" else draw(_scalars)
    return _join(draw, ["(", body, ")" + draw(st.sampled_from(["", "'"]))])


@st.composite
def _sum(draw, inner):
    parts = [draw(st.sampled_from(["", "", "-", "+"]))]
    for n in range(draw(st.integers(1, 3))):
        if n:
            parts.append(draw(st.sampled_from(["+", "-"])))
        if draw(st.booleans()):
            parts += [draw(_scalars), "*"]
        factors = draw(st.lists(_factor(inner), min_size=1, max_size=3))
        parts.append("*".join(factors))
    return _join(draw, parts)


hand_built = st.recursive(
    st.one_of(_generators, _scalars, _terms), lambda inner: _sum(inner), max_leaves=6
)
texts = st.one_of(printed(), hand_built)
# a printed term alone, after a scalar, before a factor, under an adjoint,
# inside parentheses, as a summand, and where the grammar wants an int
placed_terms = st.builds(
    str.format,
    st.sampled_from([
        "{}", "2*{}", "{}*e(1,0;0)", "e(1,0;0)*{}", "{}'", "({})", "({})'", "I + {}",
        "-{0} - I", "(I - {0})*I", "e({0}", "zeta(8)^{0}", "1/{0}", "1+{0}", "{0} {0}",
    ]),
    _terms,
)


LONG_DECIMAL = re.compile(r"\d{100}[.eE]|[.eE][+-]?\d{100}")


@st.composite
def mutated(draw):
    text = draw(texts)
    # two edits at most and no digit but 0, so an edited generator fiber
    # stays small enough for the products to finish
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(["cut", "drop", "insert", "replace"]))
        piece = draw(st.one_of(
            st.sampled_from(list("e()I,;'*+-/.i^ 0z$") + ["zeta(", "e(", "1e400"]), _terms
        ))
        if op == "cut":
            text = text[:at]
        elif op == "drop":
            text = text[:at] + text[at + 1 :]
        elif op == "insert":
            text = text[:at] + piece + text[at:]
        else:
            text = text[:at] + piece + text[at + 1 :]
    # an edit can put a point or an exponent into a literal past the digit
    # limit; the oracle's Fraction bounds the digits on each side of it
    # apart, the parser bounds the value, so the two may part there
    assume(not LONG_DECIMAL.search(text))
    return text


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(text=texts)
def test_parser_matches_oracle(name, text):
    spec = SPECS[name]
    assert outcome(parse_element, spec, text) == outcome(oracle_parse, spec, text)


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(text=placed_terms)
def test_printed_terms_match_oracle(name, text):
    spec = SPECS[name]
    assert outcome(parse_element, spec, text) == outcome(oracle_parse, spec, text)


# an edit can turn a float's digits into an exponent; the oracle builds
# 10**exponent before any check and would not finish
LONG_EXPONENT = re.compile(r"[eE][+-]?\d{4}")


@pytest.mark.parametrize("name", sorted(SPECS))
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(text=mutated())
def test_parser_errors_match_oracle(name, text):
    assume(not LONG_EXPONENT.search(text))
    spec = SPECS[name]
    assert outcome(parse_element, spec, text) == outcome(oracle_parse, spec, text)
