"""Expression text for algebra elements: parser and canonical printer.

The surface grammar:

    expr   := [ "+" | "-" ] term { ("+"|"-") term }
    term   := [ scalar "*" ] factor { "*" factor } | scalar
    factor := gen [ "'" ] | "(" expr ")" [ "'" ] | "I"
    gen    := "e(" int { "," int } ";" int ")"
    scalar := rational [ ("+"|"-") rational "i" ] | rational "i" | "i"
            | "zeta(" int ")" [ "^" [-] int ]

A postfix apostrophe is the adjoint.  Rationals accept "p", "p/q" and exact
decimal literals.  A scalar with a complex tail binds greedily: "1+2i*g" is
the coefficient (1+2i) on g, not a sum; the canonical printer always
parenthesizes complex coefficients, so printed output never depends on this
rule.  Parse and semantic errors carry the character position and, for pure
syntax errors, the set of token kinds that would have been accepted.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from . import algebra, scalars
from .algebra import AlgebraElement
from .system import SystemSpec


class ExpressionError(ValueError):
    """A parse or semantic failure at a known character position."""

    def __init__(self, position: int, message: str, expected=()):
        self.position = position
        self.expected = frozenset(expected)
        text = f"position {position}: {message}"
        if self.expected:
            text += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(text)


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


def parse_element(spec: SystemSpec, text: str) -> AlgebraElement:
    """Parse expression text into a canonical algebra element."""
    return _Parser(spec, text).parse()


def parse_scalar(spec: SystemSpec, text: str):
    """Parse a bare scalar literal into the spec's field."""
    return _Parser(spec, text).parse_scalar()


# ---------------------------------------------------------------------------
# Canonical printer.  Terms are emitted in the element's canonical order
# (degree-lexicographic, then left fiber, then indices); cyclotomic
# coefficients fan out into one printed term per nonzero power of the root.
# The output re-parses to a structurally identical element.


def _format_ratio(num: int, den: int) -> str:
    """num/den (den > 0) in lowest terms, as ``str(Fraction(num, den))``."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    return str(num) if den == 1 else f"{num}/{den}"


def _monomial_text(term) -> str:
    left, right = term.left, term.right
    left_trivial = all(c == 0 for c in left.fiber)
    right_trivial = all(c == 0 for c in right.fiber)
    if left_trivial and right_trivial:
        return "I"
    gen = lambda m: "e(" + ",".join(str(c) for c in m.fiber) + f";{m.index})"
    if right_trivial:
        return gen(left)
    if left_trivial:
        return gen(right) + "'"
    return gen(left) + "*" + gen(right) + "'"


def _signed_sum(pieces) -> str:
    """Join (negative, body) pieces as "a - b + c"; "0" when there are none."""
    out = []
    for negative, body in pieces:
        if out:
            out.append(" - " if negative else " + ")
        elif negative:
            out.append("-")
        out.append(body)
    return "".join(out) or "0"


def _complex_parts(value):
    """(re, im, part) of a Gaussian or float value, None of a cyclotomic one.

    ``part`` prints one part: a numerator over the common denominator in
    lowest terms, or a float by ``repr``.
    """
    if isinstance(value, scalars.RationalComplex):
        den = value.den
        return value.re_num, value.im_num, lambda num: _format_ratio(num, den)
    if isinstance(value, scalars.FloatComplex):
        return value.value.real, value.value.imag, repr
    if isinstance(value, scalars.Cyclotomic):
        return None
    raise TypeError(f"cannot print scalar of type {type(value).__name__}")


def _complex_body(re_part, im_part, part) -> str:
    # inner text of "(a+bi)"; a zero real part is left out
    tail = part(abs(im_part)) + "i"
    if re_part == 0:
        return ("-" if im_part < 0 else "") + tail
    return part(re_part) + ("-" if im_part < 0 else "+") + tail


def _cyclotomic_pieces(value):
    """(negative, magnitude text, root text) per nonzero power of the root;
    the root text is None for power 0."""
    for power, coeff in enumerate(value.coeffs):
        if coeff != 0:
            root = f"zeta({value.field.order})^{power}" if power else None
            yield coeff < 0, str(abs(coeff)), root


def _term_pieces(coeff, mon: str):
    """Yield (negative: bool, body: str) printed atoms for one stored term.

    Complex coefficients are sign-normalized so the parenthesized body never
    leads with a minus: the overall sign moves out to the joining +/-.
    """
    parts = _complex_parts(coeff)
    if parts is None:
        pieces = _cyclotomic_pieces(coeff)
    else:
        re_part, im_part, part = parts
        if im_part != 0:
            negative = re_part < 0 or (re_part == 0 and im_part < 0)
            if negative:
                re_part, im_part = -re_part, -im_part
            yield negative, f"({_complex_body(re_part, im_part, part)})*{mon}"
            return
        pieces = [(re_part < 0, part(abs(re_part)), None)]
    for negative, mag, root in pieces:
        if root is None:
            yield negative, mon if mag == "1" else f"{mag}*{mon}"
        else:
            yield negative, f"{root}*{mon}" if mag == "1" else f"{mag}*({root}*{mon})"


def format_element(a: AlgebraElement) -> str:
    """Canonical text for an element; re-parses to the same canonical form."""
    return _signed_sum(
        piece
        for term in a.terms
        for piece in _term_pieces(term.coeff, _monomial_text(term))
    )


def format_scalar(value) -> str:
    """Canonical text for a bare scalar, parseable by parse_scalar."""
    parts = _complex_parts(value)
    if parts is None:
        return _signed_sum(
            (negative, mag if root is None else root if mag == "1" else f"{mag}*{root}")
            for negative, mag, root in _cyclotomic_pieces(value)
        )
    re_part, im_part, part = parts
    return part(re_part) if im_part == 0 else _complex_body(re_part, im_part, part)
