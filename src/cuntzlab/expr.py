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
syntax errors, the set of token kinds that would have been accepted.  A
numeric literal whose numerator or denominator in lowest terms would have
more digits than ``sys.get_int_max_str_digits()`` is an error at its
position, found before the value is built, so a long exponent costs nothing.

Parsing costs about its tokens, and a generator written without spaces,
as the printer writes it, is one token.  On the exact fields a sum as the
printer writes it, terms with a Gaussian or real coefficient such as
"(c)*e(x)*e(y)'" joined by signs and grouped by parentheses, a group maybe
closed by the adjoint's ")'", is first read whole: one regex match per term,
which becomes its one term (c, x, y) with no token, no factor element and
no ``multiply``, each coefficient and generator text read and checked once
per parse.  Any other text, and one with a piece that fails a check, is
parsed from scratch by the grammar, which reports the error.  The 648-term
Cuntz sum of fiber (3,4) on e23, coefficients included, is read in about
5.8 ms, some 9 us per printed term (best of 25; CPU, Python 3.11 on a
shared 2-vCPU host), and under "'" in 3.5-6.0 ms against 3.2-5.7 ms plain
(best of 9).  Parentheses nest at most ``MAX_DEPTH`` deep; the "(" past it
is an error.

The printer writes every value it is given except a float with an inf or
nan part, which no text denotes, and an exact value whose numerator or
denominator, or a monomial whose index, exceeds the digit limit, which no
literal may; it raises ``UnprintableError`` instead.
"""

from __future__ import annotations

import cmath
import math
import re
import sys
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate

from . import algebra, scalars
from .algebra import AlgebraElement
from .runs import cells
from .system import BasisMonomial, SystemSpec


class ExpressionError(ValueError):
    """A parse or semantic failure at a known character position."""

    def __init__(self, position: int, message: str, expected=()):
        self.position = position
        self.expected = frozenset(expected)
        text = f"position {position}: {message}"
        if self.expected:
            text += " (expected " + ", ".join(sorted(self.expected)) + ")"
        super().__init__(text)


class UnprintableError(ValueError):
    """A value whose text would not parse: inf, nan, or past the digit limit."""


# One regex split finds every token; whitespace and characters no token can
# start are left in the gaps between them.  A generator written without
# spaces, as the printer writes it, is one "gen" token.
_GEN = r"e\(\d+(?:,\d+)*;\d+\)"
_TOKEN_RE = re.compile(
    r"(\d+\.\d+(?:[eE][+-]?\d+)?|\d+[eE][+-]?\d+|\d+"
    rf"|{_GEN}|[A-Za-z_]+|[-+*/;,()'^])"
)
_PUNCT = frozenset("-+*/;,()'^")
_GEN_PARTS = re.compile(r"\d+|.")

# Parentheses nest at most this deep.  Each level costs the grammar a few
# Python frames, so a much deeper text would exhaust the interpreter's stack.
MAX_DEPTH = 200

# One item of a sum as the printer writes it on the exact fields: spaces, an
# optional sign, then "(" or a term.  A term is an optional coefficient
# "(a+bi)*", "(a-bi)*", "(bi)*" or "a*", with a and b each p or p/q, then
# "e(x)*e(y)'", "e(y)'", "e(x)" or "I", and after it the ")" it closes, each
# maybe with the "'" of an adjoint group, and then a sign or the end.  The
# term comes first, as a Gaussian coefficient starts with "(" too.  Groups:
# 1 the sign, 2 the term, 3 its coefficient, 4-10 the coefficient's numbers
# and sign, 11-13 the monomials, 14 the closers.
_RATIO = r"(\d+)(?:/(\d+))?"
_ITEM_RE = re.compile(
    rf"\s*([-+]?)\s*(?:((?:(\((?:{_RATIO}([+-]))?{_RATIO}i\)|{_RATIO})\*)?"
    rf"(?:({_GEN})(?:\*({_GEN})'|('))?|I))((?:\s*\)(?:\s*')?)*)\s*(?=[-+]|\Z)|\()"
)


def _tokenize(text: str) -> list:
    """(kind, text, position) tokens, ended by two end tokens, so one token
    of lookahead never runs off the list.

    A "gen" token shows the text "e", as the name it starts with, and
    carries the whole generator as a fourth item.
    """
    pieces = _TOKEN_RE.split(text)
    # piece i ends at ends[i]; a token starts where the gap before it ends
    ends = list(accumulate(map(len, pieces)))
    gaps = pieces[0::2]
    spaces = "".join(gaps)
    if spaces and not spaces.isspace():
        for gap, end in zip(gaps, ends[0::2]):
            rest = gap.lstrip()
            if rest:
                raise ExpressionError(
                    end - len(rest), f"unexpected character {rest[0]!r}"
                )
    tokens = [
        (t, t, p) if t in _PUNCT
        else ("int", t, p) if t.isdecimal()
        else ("decimal", t, p) if t[0].isdecimal()
        else ("gen", "e", p, t) if t[-1] == ")"
        else ("name", t, p)
        for t, p in zip(pieces[1::2], ends[0::2])
    ]
    end = ("end", "", len(text))
    tokens += (end, end)
    return tokens


@lru_cache(maxsize=4)
def _power_of_ten(n: int) -> int:
    """10**n, built once per digit limit, which can change between parses."""
    return 10**n


class _Parser:
    def __init__(self, spec: SystemSpec, text: str):
        self.spec = spec
        self.text = text
        self.at = 0
        # the parentheses open around the token at ``at``
        self.depth = 0
        # 0 means no limit, as for int()
        self.max_digits = sys.get_int_max_str_digits()
        self.one = spec.field.one
        self.identity = spec.identity_monomial
        # generator text -> its checked monomial, and the text of a fiber
        # -> its coordinates
        self.monomials = {}
        self.fibers = {}
        # a printed coefficient's text -> its value
        self.coefficients = {}

    # -- token plumbing ----------------------------------------------------

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

    # -- numeric literals ----------------------------------------------------

    def _too_long(self, tok):
        return ExpressionError(
            tok[2], f"number exceeds {self.max_digits} digits in lowest terms"
        )

    def _int(self, tok) -> int:
        """An int token's value; one longer than int() converts is an error
        at the token."""
        text = tok[1]
        if len(text) > self.max_digits > 0:
            text = text.lstrip("0")
            if len(text) > self.max_digits:
                raise self._too_long(tok)
        return int(text)

    def _decimal(self, tok) -> tuple[int, int]:
        """A decimal token's exact value as (numerator, denominator) in
        lowest terms, bounded like an int token before it is built, so a
        long exponent costs nothing."""
        mantissa, _, exponent = tok[1].lower().partition("e")
        whole, _, frac = mantissa.partition(".")
        digits = (whole + frac).lstrip("0")
        stripped = digits.rstrip("0")
        if not stripped:
            return 0, 1
        limit = self.max_digits or math.inf
        magnitude = exponent.lstrip("+-").lstrip("0") or "0"
        if len(stripped) > limit or len(magnitude) > limit:
            raise self._too_long(tok)
        # the value is int(stripped) * 10**shift; a denominator 10**-shift
        # loses fewer digits than int(stripped) has to the lowest terms
        shift = len(digits) - len(stripped) - len(frac)
        shift += -int(magnitude) if exponent.startswith("-") else int(magnitude)
        if len(stripped) + shift > limit or -shift - len(stripped) >= limit:
            raise self._too_long(tok)
        value = Fraction(int(stripped) * 10 ** max(shift, 0), 10 ** max(-shift, 0))
        if self.max_digits and value.denominator >= _power_of_ten(self.max_digits):
            raise self._too_long(tok)
        return value.numerator, value.denominator

    # -- scalars -------------------------------------------------------------

    def _rational(self) -> tuple[int, int]:
        """A rational literal as (numerator, denominator), denominator > 0."""
        tok = self.tokens[self.at]
        if tok[0] == "decimal":
            self.at += 1
            return self._decimal(tok)
        if tok[0] != "int":
            raise ExpressionError(tok[2], "expected a number", {"int", "decimal"})
        self.at += 1
        num = self._int(tok)
        slash, den_tok = self.tokens[self.at], self.tokens[self.at + 1]
        if slash[0] != "/" or den_tok[0] != "int":
            return num, 1
        self.at += 2
        den = self._int(den_tok)
        if den == 0:
            raise ExpressionError(den_tok[2], "zero denominator")
        return num, den

    def _try_scalar(self, greedy_complex: bool = True, negate: bool = False):
        """Parse a scalar or return None with the position restored.

        ``greedy_complex`` lets a trailing "+/- rational i" bind into the
        atom, which is how term coefficients like "1+2i*g" read; bare
        scalar expressions turn it off and let the sum loop assemble
        complex values.  A leading sign already consumed by the caller is
        passed as ``negate`` and folded into the first component only, so
        "-3/2-1i" means (-3/2) + (-1)i.
        """
        tok = self.tokens[self.at]
        if tok[0] == "name" and tok[1] == "zeta":
            self.at += 1
            self.expect("(")
            q_tok = self.expect("int")
            q = self._int(q_tok)
            if q < 1:
                raise ExpressionError(q_tok[2], "root order must be positive")
            self.expect(")")
            power = 1
            if self.accept("^"):
                sign = -1 if self.accept("-") else 1
                power = sign * self._int(self.expect("int"))
            try:
                root = self.spec.field.root_of_unity(Fraction(power, q))
            except (TypeError, ValueError) as err:
                raise ExpressionError(
                    tok[2], f"zeta({q}) is not representable: {err}"
                ) from None
            return -root if negate else root
        if tok[0] == "name" and tok[1] == "i":
            self.at += 1
            return self._coerce_complex((0, 1), (-1 if negate else 1, 1), tok[2])
        if tok[0] not in ("int", "decimal"):
            return None
        re_part = self._rational()
        if negate:
            re_part = (-re_part[0], re_part[1])
        nxt = self.tokens[self.at]
        if nxt[0] == "name" and nxt[1] == "i":
            self.at += 1
            return self._coerce_complex((0, 1), re_part, tok[2])
        if greedy_complex and nxt[0] in ("+", "-"):
            save = self.at
            self.at += 1
            if self.tokens[self.at][0] in ("int", "decimal"):
                im_part = self._rational()
                tail = self.tokens[self.at]
                if tail[0] == "name" and tail[1] == "i":
                    self.at += 1
                    if nxt[0] == "-":
                        im_part = (-im_part[0], im_part[1])
                    return self._coerce_complex(re_part, im_part, tok[2])
            self.at = save
        return self._coerce_complex(re_part, (0, 1), tok[2])

    def _coerce_complex(self, re_part: tuple, im_part: tuple, pos: int):
        """The field's value of re + im*i, each part a (numerator,
        denominator) pair, handed to the field as integers."""
        (a, b), (c, d) = re_part, im_part
        try:
            return self.spec.field.gaussian(a * d, c * b, b * d)
        except (TypeError, ValueError, OverflowError) as err:
            raise ExpressionError(pos, f"scalar not representable: {err}") from None

    # -- structure -----------------------------------------------------------

    def _generator(self) -> BasisMonomial:
        name_tok = self.tokens[self.at]
        self.at += 1
        self.expect("(", {"("})
        coords = [self._int(self.expect("int", {"int"}))]
        while self.accept(","):
            coords.append(self._int(self.expect("int", {"int"})))
        self.expect(";", {";", ","})
        index_tok = self.expect("int", {"int"})
        self.expect(")", {")"})
        if len(coords) != self.spec.k:
            raise ExpressionError(
                name_tok[2],
                f"fiber has {len(coords)} coordinates, spec rank is {self.spec.k}",
            )
        try:
            mono = self.spec.monomial(tuple(coords), self._int(index_tok))
        except ValueError as err:
            raise ExpressionError(index_tok[2], str(err)) from None
        return mono

    def _monomial(self, text: str):
        """The checked monomial of the generator text "e(x;j)", or None
        when it is not one of the spec; each text is checked once a parse."""
        mono = self.monomials.get(text)
        if mono is None:
            head, _, index = text[2:-1].partition(";")
            fiber = self.fibers.get(head)
            try:
                if fiber is None:
                    coords = head.split(",")
                    if len(coords) != self.spec.k:
                        return None
                    # int() also fails on a number longer than its limit
                    fiber = self.fibers[head] = tuple(map(int, coords))
                mono = self.spec.monomial(fiber, int(index))
            except ValueError:
                return None
            self.monomials[text] = mono
        return mono

    def _compact_generator(self, tok) -> BasisMonomial:
        """The monomial of the "gen" token at ``at``.  If it is not one of
        the spec, the token is split into its int and punctuation tokens
        and ``_generator`` reports the error."""
        mono = self._monomial(tok[3])
        if mono is not None:
            self.at += 1
            return mono
        self.tokens[self.at : self.at + 1] = [
            ("name" if m[0] == "e" else "int" if m[0].isdecimal() else m[0],
             m[0], tok[2] + m.start())
            for m in _GEN_PARTS.finditer(tok[3])
        ]
        return self._generator()

    def _factor(self) -> AlgebraElement:
        tok = self.tokens[self.at]
        if tok[0] == "gen" or (tok[0] == "name" and tok[1] == "e"):
            mono = self._compact_generator(tok) if tok[0] == "gen" else self._generator()
            # i(x) and i(x)* are one run each, on a monomial that
            # spec.monomial has checked
            e = self.identity.fiber
            if self.accept("'"):
                pair = (e, mono.fiber, ((0, mono.index, 1, self.one.conj()),))
            else:
                pair = (mono.fiber, e, ((mono.index, 0, 1, self.one),))
            return AlgebraElement._canonical(self.spec, [pair])
        if tok[0] == "name" and tok[1] == "I":
            self.at += 1
            elem = algebra.identity(self.spec)
        elif tok[0] == "(":
            if self.depth == MAX_DEPTH:
                raise ExpressionError(
                    tok[2], f"parentheses nest deeper than {MAX_DEPTH}"
                )
            self.at += 1
            self.depth += 1
            elem = self._expr()
            self.expect(")", {")"})
            self.depth -= 1
        else:
            what = tok[1] or "end of input"
            raise ExpressionError(
                tok[2], f"unexpected {what!r}", {"e(", "I", "("}
            )
        if self.accept("'"):
            elem = elem.adjoint()
        return elem

    def _term(self, negate: bool = False) -> AlgebraElement:
        """A product of factors; a leading scalar scales the first."""
        scalar = self._try_scalar(negate=negate)
        if scalar is not None:
            if not self.accept("*"):
                nxt = self.tokens[self.at]
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
        tok = self.tokens[self.at]
        if tok[0] in ("+", "-"):
            self.at += 1
            negate = tok[0] == "-"
        elem = self._term(negate)
        if self.tokens[self.at][0] not in ("+", "-"):
            return elem
        # one sum and one build for the whole sum, not one per term
        acc: dict = {}
        algebra.add_runs(acc, elem, 1)
        while self.tokens[self.at][0] in ("+", "-"):
            tok = self.tokens[self.at]
            self.at += 1
            algebra.add_runs(acc, self._term(tok[0] == "-"), 1)
        return algebra.summed(self.spec, acc)

    # -- a printed sum, read whole -------------------------------------------

    def _printed_sum(self):
        """The element of the text when it is a sum as the printer writes
        it, read one ``_ITEM_RE`` match per item; None for any other text
        and for a piece that fails a check, which the grammar then parses
        from scratch.  A group's sign is carried into its terms, so
        "-(a - b)" adds -a and b to the sum, and a group closed by
        ")'" conjugates and swaps the terms read inside it.  The terms are
        summed by ``algebra._from_cells``, as ``from_terms`` sums its
        triples: on the exact fields, the grammar's element."""
        text, match = self.text, _ITEM_RE.match
        end = len(text)
        terms = []
        # the negation outside each open group and the count of terms read
        # before it, the innermost last
        outer = []
        negate = False
        at = 0
        while True:
            m = match(text, at)
            if m is None:
                return None
            at = m.end()
            groups = m.groups()
            if groups[1] is None:
                # a "(" that nests too deep is the grammar's error
                if len(outer) == MAX_DEPTH:
                    return None
                outer.append((negate, len(terms)))
                negate ^= groups[0] == "-"
                continue
            term = self._printed_term(groups, negate ^ (groups[0] == "-"))
            if term is None:
                return None
            terms.append(term)
            for closer in "".join(groups[13].split()):
                if closer == ")":
                    if not outer:
                        return None
                    negate, start = outer.pop()
                else:  # the "'" after the ")" just read
                    terms[start:] = [(c.conj(), y, x) for c, x, y in terms[start:]]
            if at == end:
                break
        if outer:
            return None
        return algebra._from_cells(self.spec, terms)

    def _printed_term(self, groups, negate: bool):
        """The term (c, x, y) of a printed term's ``_ITEM_RE`` groups, or
        None when a piece fails a check."""
        if len(groups[1]) > self.max_digits > 0:
            return None
        text = groups[2]
        if text is None:
            coeff = self.one
        else:
            coeff = self.coefficients.get(text)
            if coeff is None:
                coeff = self._printed_coefficient(*groups[3:10])
                if coeff is None:
                    return None
                self.coefficients[text] = coeff
        if negate:
            coeff = -coeff
        x, y, adjoint = groups[10:13]
        identity = self.identity
        if x is None:
            return coeff, identity, identity
        # a hit, as for every y of a Cuntz sum, costs no call
        monomials = self.monomials
        left = monomials.get(x) or self._monomial(x)
        if left is None:
            return None
        if adjoint:
            return coeff, identity, left
        if y is None:
            return coeff, left, identity
        right = monomials.get(y) or self._monomial(y)
        return None if right is None else (coeff, left, right)

    def _printed_coefficient(self, re_num, re_den, sign, im_num, im_den, num, den):
        """The value of a printed coefficient "(a+bi)", "(a-bi)", "(bi)" or
        "a"; None for a zero denominator or a value the field lacks."""
        if im_num is None:
            re_num, re_den, im_num, im_den = num, den, "0", None
        b, d = int(re_den or 1), int(im_den or 1)
        if b == 0 or d == 0:
            return None
        c = int(im_num)
        try:
            return self._coerce_complex(
                (int(re_num or 0), b), (-c if sign == "-" else c, d), 0
            )
        except ExpressionError:
            return None

    # -- entry points --------------------------------------------------------

    def parse(self) -> AlgebraElement:
        # float never takes the reader: the unit phases of its products can
        # flip the sign of a zero part, so only the grammar's products give
        # its element to the bit
        if self.spec.field.exact:
            elem = self._printed_sum()
            if elem is not None:
                return elem
        self.tokens = _tokenize(self.text)
        elem = self._expr()
        tok = self.tokens[self.at]
        if tok[0] != "end":
            raise ExpressionError(
                tok[2], f"unexpected {tok[1]!r}", {"+", "-", "*", "end of input"}
            )
        return elem

    def parse_scalar(self):
        self.tokens = _tokenize(self.text)
        # scalars alone also form sums of products, so printed cyclotomic
        # values like "1 - 1/2*zeta(8)^1" read back in; only the first
        # summand may go without a sign, and a "-" negates its product
        value = None
        while True:
            tok = self.tokens[self.at]
            if tok[0] in ("+", "-"):
                self.at += 1
            elif value is not None:
                break
            product = None
            while product is None or self.accept("*"):
                atom = self._try_scalar(greedy_complex=False)
                if atom is None:
                    raise ExpressionError(
                        self.tokens[self.at][2],
                        "expected a scalar",
                        {"int", "decimal", "i", "zeta("},
                    )
                product = atom if product is None else product * atom
            if tok[0] == "-":
                product = -product
            value = product if value is None else value + product
        tok = self.tokens[self.at]
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


def _past_digit_limit(what: str) -> UnprintableError:
    """The error for a number past the digit limit, whose literal the parser
    refuses too; ``what`` names the number, with {} for the limit."""
    return UnprintableError(
        f"the result has {what.format(sys.get_int_max_str_digits())}, "
        "the limit for a number in expression text"
    )


def _format_ratio(num: int, den: int) -> str:
    """num/den (den > 0) in lowest terms, as ``str(Fraction(num, den))``."""
    g = math.gcd(num, den)
    num, den = num // g, den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        raise _past_digit_limit("a coefficient that exceeds {} digits in lowest terms") from None


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


def _finite(value) -> complex:
    """The value of a float scalar, which must be finite: an inf or nan part
    has no text and supports no verdict."""
    z = value.value
    if not cmath.isfinite(z):
        raise UnprintableError(
            "the result has a coefficient with a non-finite part (real "
            f"{z.real!r}, imaginary {z.imag!r}): float arithmetic overflowed"
        )
    return z


def require_finite(*elements: AlgebraElement) -> None:
    """``_finite`` of every coefficient; exact fields have nothing to check."""
    for a in elements:
        if not a.spec.field.exact:
            for _, _, runs in a.pairs:
                for run in runs:
                    _finite(run[3])


def _complex_parts(value):
    """(re, im, part) of a Gaussian or float value, None of a cyclotomic one.

    ``part`` prints one part: a numerator over the common denominator in
    lowest terms, or a float by ``repr``.
    """
    field = scalars.field_of(value)
    if field is scalars.RATIONAL:
        (re_num, im_num), den = value.nums, value.den
        return re_num, im_num, lambda num: _format_ratio(num, den)
    if field is scalars.FLOAT:
        z = _finite(value)
        return z.real, z.imag, repr
    return None


def _complex_body(re_part, im_part, part) -> str:
    # inner text of "(a+bi)"; a zero real part is left out
    tail = part(abs(im_part)) + "i"
    if re_part == 0:
        return ("-" if im_part < 0 else "") + tail
    return part(re_part) + ("-" if im_part < 0 else "+") + tail


def _cyclotomic_pieces(value):
    """(negative, magnitude text, root text) per nonzero power of the root;
    the root text is None for power 0."""
    for power, num in enumerate(value.nums):
        if num != 0:
            root = f"zeta({value.field.order})^{power}" if power else None
            yield num < 0, _format_ratio(abs(num), value.den), root


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


def _pair_pieces(fx, fy, runs):
    """The ``_term_pieces`` of the cells of one fiber pair, in the order of
    ``runs.cells``, each cell's indices written into the pair's one
    monomial text: "e(fx;{0})*e(fy;{1})'", "e(fx;{0})", "e(fy;{1})'" or
    "I", a trivial fiber left out."""
    try:
        left = f"e({','.join(map(str, fx))};{{0}})" if any(fx) else ""
        right = f"e({','.join(map(str, fy))};{{1}})'" if any(fy) else ""
        pattern = "*".join(filter(None, (left, right))) or "I"
        for r, c, v in cells(runs):
            yield from _term_pieces(v, pattern.format(r, c))
    except UnprintableError:
        raise
    except ValueError:  # an index or a coordinate past the digit limit
        raise _past_digit_limit("a monomial index that exceeds {} digits") from None


def format_element(a: AlgebraElement) -> str:
    """Canonical text for an element; re-parses to the same canonical form."""
    return _signed_sum(piece for fx, fy, runs in a.pairs for piece in _pair_pieces(fx, fy, runs))


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
