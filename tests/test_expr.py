"""Expression parsing and canonical printing."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import algebra, expr, scalars
from cuntzlab.expr import (
    MAX_DEPTH,
    ExpressionError,
    _term_pieces,
    format_element,
    format_scalar,
    parse_element,
    parse_scalar,
)
from cuntzlab.system import parse_spec_text

from conftest import PRODUCT_SPECS, random_element


@pytest.fixture
def flspec():
    return parse_spec_text("k = 2\ndims = 2 3\nscalars = float\n")


class TestParseElement:
    def test_monomial_pair(self, e23):
        a = parse_element(e23, "e(1,0;0)*e(0,1;2)'")
        expected = algebra.monomial_pair(
            e23, e23.monomial((1, 0), 0), e23.monomial((0, 1), 2)
        )
        assert a.terms == expected.terms

    def test_cuntz_sum_parses_to_identity(self, e23):
        text = " + ".join(f"e(0,1;{j})*e(0,1;{j})'" for j in range(3))
        assert algebra.equals(parse_element(e23, text), algebra.identity(e23))

    def test_identity_and_scalars(self, e23):
        assert algebra.equals(parse_element(e23, "I"), algebra.identity(e23))
        a = parse_element(e23, "3/2*I - 2*e(1,0;1)")
        expected = algebra.identity(e23).scaled(
            scalars.RationalComplex(Fraction(3, 2))
        ) - algebra.isometry(e23, e23.monomial((1, 0), 1)).scaled(
            scalars.RationalComplex(2)
        )
        assert a.terms == expected.terms

    def test_adjoint_postfix(self, e23):
        a = parse_element(e23, "e(1,0;0)'")
        assert a.terms == algebra.isometry(
            e23, e23.monomial((1, 0), 0)
        ).adjoint().terms

    def test_parenthesized_adjoint(self, e23):
        a = parse_element(e23, "(e(1,0;0)*e(0,1;1)')'")
        b = algebra.monomial_pair(
            e23, e23.monomial((1, 0), 0), e23.monomial((0, 1), 1)
        ).adjoint()
        assert algebra.equals(a, b)

    def test_leading_sign(self, e23):
        a = parse_element(e23, "-e(1,0;0) + I")
        b = algebra.identity(e23) - algebra.isometry(e23, e23.monomial((1, 0), 0))
        assert algebra.equals(a, b)

    def test_greedy_complex_coefficient(self, e23):
        # "1+2i" binds as one coefficient when followed by '*'
        a = parse_element(e23, "1+2i*e(1,0;0)")
        assert len(a.terms) == 1
        assert a.terms[0].coeff == scalars.RationalComplex(1, 2)
        # with a space-separated product the sum reads as two terms
        b = parse_element(e23, "1 + 2*e(1,0;0)")
        assert len(b.terms) == 2

    def test_sign_folds_into_first_component(self, e23):
        a = parse_element(e23, "-3/2-1i*e(1,0;0)")
        assert a.terms[0].coeff == scalars.RationalComplex(
            Fraction(-3, 2), Fraction(-1)
        )

    def test_index_out_of_range_position(self, e23):
        with pytest.raises(ExpressionError) as exc:
            parse_element(e23, "e(1,0;7)")
        assert exc.value.position == 6

    def test_arity_mismatch(self, e23):
        with pytest.raises(ExpressionError):
            parse_element(e23, "e(1;0)")
        with pytest.raises(ExpressionError):
            parse_element(e23, "e(1,0,0;0)")

    def test_syntax_error_expected_set(self, e23):
        with pytest.raises(ExpressionError) as exc:
            parse_element(e23, "e(1,0;0) +")
        assert exc.value.expected

    def test_trailing_garbage(self, e23):
        with pytest.raises(ExpressionError):
            parse_element(e23, "I I")

    def test_zeta_requires_matching_field(self, e23, tw23):
        with pytest.raises(ExpressionError):
            parse_element(e23, "zeta(8)^1*I")
        a = parse_element(tw23, "zeta(4)^3*I")
        k4 = scalars.cyclotomic_field(4)
        assert a.terms[0].coeff == k4.zeta_power(3)

    def test_decimal_literals_are_exact_in_rational_field(self, e23):
        a = parse_element(e23, "0.125*I")
        assert a.terms[0].coeff == scalars.RationalComplex(Fraction(1, 8))

    def test_float_field_scientific(self, flspec):
        a = parse_element(flspec, "1e-3*e(1,0;0)")
        assert abs(a.terms[0].coeff.value - 1e-3) < 1e-15


    def test_long_sum_matches_from_terms(self, monkeypatch):
        # on every exact spec, the basis pairs x y* of fiber (4,4), all 1296
        # of them on a (2,3) spec, and of three more fiber pairs, plus one
        # term that merges with the first and one that cancels the second:
        # the reader and from_terms build the same runs from the same cells
        tokenized = []
        monkeypatch.setattr(expr, "_tokenize", lambda text: tokenized.append(text))
        for spec in PRODUCT_SPECS.values():
            if not spec.field.exact:
                continue
            triples, parts = [], []
            for fx, fy in [((4, 4), (4, 4)), ((1, 0), (0, 1)), ((0, 1), (1, 1)), ((2, 0), (0, 0))]:
                dx, dy = spec.dim(fx), spec.dim(fy)
                for j in range(max(dx, dy)):
                    coeff = Fraction(j % 7 - 3, 1 + j % 4)
                    x, y = spec.monomial(fx, j % dx), spec.monomial(fy, 5 * j % dy)
                    triples.append((coeff, x, y))
            triples.append((Fraction(2), triples[0][1], triples[0][2]))
            triples.append((-triples[1][0], triples[1][1], triples[1][2]))
            for coeff, x, y in triples:
                sign = "-" if coeff < 0 else "+"
                parts.append(f"{sign} {abs(coeff)}*{x!r}*{y!r}'")
            parsed = parse_element(spec, " ".join(parts))
            built = algebra.AlgebraElement.from_terms(spec, triples)
            assert repr(parsed.pairs) == repr(built.pairs) and parsed == built
            # a plain dict sum of the cells, the oracle of the term count
            sums: dict = {}
            for coeff, x, y in triples:
                sums[x, y] = sums.get((x, y), 0) + coeff
            assert len(parsed.terms) == sum(1 for c in sums.values() if c != 0)
        assert tokenized == []  # each text read whole by the printed-sum reader

    def test_sum_carries_a_cancelled_residue_to_the_end(self, flspec):
        # the partial sum cancels to a residue below the float tolerance;
        # as in every sum, a cell adds its terms in order and is dropped
        # only at the end if it is zero, as from_terms does, so the residue
        # stays in the cell the last term reaches
        terms = ["e(1,0;0)", "-0.9999999999999*e(1,0;0)", "+e(1,0;0)", "+2*e(0,1;1)"]
        parsed = parse_element(flspec, " ".join(terms))
        x, y = flspec.monomial((1, 0), 0), flspec.monomial((0, 1), 1)
        e = flspec.identity_monomial
        triples = [(1, x, e), (-0.9999999999999, x, e), (1, x, e), (2, y, e)]
        want = algebra.AlgebraElement.from_terms(flspec, triples)
        assert [repr(t) for t in parsed.terms] == [repr(t) for t in want.terms]
        assert {t.left.fiber: t.coeff.value for t in parsed.terms} == {
            (1, 0): 1 - 0.9999999999999 + 1,
            (0, 1): 2,
        }


    def test_cuntz_sum_parse_work(self, e23, monkeypatch):
        # a printed term "(c)*e(x)*e(x)'" is one token, built as its one
        # term with no product and no factor element; each distinct
        # monomial is checked once, though a Cuntz sum's terms name it twice
        coeff = scalars.RationalComplex(Fraction(-3, 4), Fraction(2, 3))
        basis = e23.basis((2, 1))
        text = format_element(
            algebra.AlgebraElement.from_terms(e23, [(coeff, x, x) for x in basis])
        )
        assert text.count("(3/4-2/3i)*e(2,1;") == len(basis) == 12
        counts = {"multiply": 0, "identity": 0}
        checked = []

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        def monomial(fiber, index, check=e23.monomial):
            checked.append((fiber, index))
            return check(fiber, index)

        monkeypatch.setattr(algebra, "multiply", counted("multiply", algebra.multiply))
        monkeypatch.setattr(algebra, "identity", counted("identity", algebra.identity))
        monkeypatch.setattr(e23, "monomial", monomial)
        parsed = parse_element(e23, text)
        assert counts == {"multiply": 0, "identity": 0}
        assert sorted(checked) == [(x.fiber, x.index) for x in basis]
        assert parsed.terms == tuple(
            algebra.Term(coeff, x, x) for x in basis
        )

    def test_printed_sum_is_read_whole(self, e23, monkeypatch):
        # a parenthesized printed Cuntz sum minus a negated printed term, and
        # a printed sum under "'", are read one match per term: no token, no
        # product
        coeff = scalars.RationalComplex(Fraction(3, 5), Fraction(-7, 5))
        cuntz = algebra.AlgebraElement.from_terms(
            e23, [(coeff, x, x) for x in e23.basis((2, 2))]
        )
        text = f"({format_element(cuntz)}) - (-(3/5-7/5i)*I)"
        counts = {"_tokenize": 0, "multiply": 0}

        def counted(module, name):
            fn = getattr(module, name)

            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            monkeypatch.setattr(module, name, wrapper)

        counted(expr, "_tokenize")
        counted(algebra, "multiply")
        parsed = parse_element(e23, text)
        assert parsed == cuntz + algebra.identity(e23).scaled(coeff)
        # ")'" conjugates and swaps the terms of the group it closes, nested
        # groups included
        a = algebra.AlgebraElement.from_terms(
            e23, [(coeff, x, y) for x in e23.basis((1, 1)) for y in e23.basis((0, 1))]
        )
        printed = format_element(a)
        assert parse_element(e23, f"({printed})'") == a.adjoint()
        assert parse_element(e23, f"-(I - ( {printed} ) ' ) '") == a - algebra.identity(e23)
        assert counts == {"_tokenize": 0, "multiply": 0}
        # a generator outside the spec is the grammar's error, after one
        # tokenization of the whole text
        with pytest.raises(ExpressionError) as exc:
            parse_element(e23, "e(1,0;7)")
        assert counts == {"_tokenize": 1, "multiply": 0}
        assert str(exc.value) == (
            "position 6: index 7 out of range for fiber (1, 0) (dimension 2)"
        )

    def test_printed_sum_declines_a_coefficient_the_field_lacks(self):
        # on Q(zeta_3), which lacks i, the reader declines a Gaussian
        # coefficient and the grammar reports it where it starts
        c3 = parse_spec_text("k = 2\ndims = 2 3\nscalars = cyclotomic:3\n")
        assert expr._Parser(c3, "2*e(1,0;0) + e(0,1;0)")._printed_sum() is not None
        for text, position in [
            ("(1+2i)*e(1,0;0) + e(0,1;0)", 1),
            ("e(0,1;0) - (2i)*e(1,0;0)'", 12),
        ]:
            assert expr._Parser(c3, text)._printed_sum() is None
            with pytest.raises(ExpressionError) as exc:
                parse_element(c3, text)
            assert str(exc.value) == (
                f"position {position}: scalar not representable: Q(zeta_3) does "
                "not contain i; cannot represent an imaginary part exactly"
            )

    @pytest.mark.parametrize(
        "name", [name for name, spec in PRODUCT_SPECS.items() if spec.field.exact]
    )
    def test_printed_adjoint_round_trip(self, name, rng):
        spec = PRODUCT_SPECS[name]
        for _ in range(8):
            x = random_element(spec, rng, nterms=4)
            assert parse_element(spec, "(" + format_element(x) + ")'") == x.adjoint()

    def test_nesting_is_bounded(self, e23, flspec):
        # the reader and the grammar keep the same bound
        for spec in (e23, flspec):
            for body in ("I", "I*I", "-e(1,0;0)"):
                deepest = "(" * MAX_DEPTH + body + ")" * MAX_DEPTH
                assert parse_element(spec, deepest) == parse_element(spec, body)
                for text in ("(" + deepest + ")", "I - (" + deepest + ")"):
                    with pytest.raises(ExpressionError) as exc:
                        parse_element(spec, text)
                    assert exc.value.position == text.index("(") + MAX_DEPTH
                    assert str(exc.value).endswith(
                        f"parentheses nest deeper than {MAX_DEPTH}"
                    )

    def test_long_literals_are_bounded(self, e23):
        limit = sys.get_int_max_str_digits()
        one = algebra.identity(e23)
        # the value counts, not the text: leading zeros and a zero mantissa
        assert parse_element(e23, "0" * (2 * limit) + "1*I") == one
        assert parse_element(e23, "0.0e99999999999*I") == algebra.zero(e23)
        # at the limit: 10**(limit-1) and 1/(2*10**(limit-1)) have limit digits
        big = parse_element(e23, f"1e{limit - 1}*I").terms[0].coeff
        assert big == scalars.RationalComplex(10 ** (limit - 1))
        small = parse_element(e23, f"5e-{limit}*I").terms[0].coeff
        assert small == scalars.RationalComplex(Fraction(1, 2 * 10 ** (limit - 1)))
        # the bound follows a limit changed between parses
        sys.set_int_max_str_digits(limit + 1)
        try:
            tiny = parse_element(e23, f"1e-{limit}*I").terms[0].coeff
        finally:
            sys.set_int_max_str_digits(limit)
        assert tiny == scalars.RationalComplex(Fraction(1, 10**limit))
        for text, position in [
            (f"1e{limit}*I", 0),
            (f"I + 1e-{limit}*I", 4),
            ("(2+1" + "0" * limit + "i)*I", 3),
            ("3/1" + "0" * limit + "*I", 2),
            ("e(1" + "0" * limit + ",0;0)", 2),
            ("e(1,0;1" + "0" * limit + ")", 6),
            ("zeta(1" + "0" * limit + ")*I", 5),
            ("1.5e" + "9" * (limit + 1) + "*I", 0),
        ]:
            with pytest.raises(ExpressionError) as exc:
                parse_element(e23, text)
            assert exc.value.position == position
            assert str(exc.value).endswith(
                f"number exceeds {limit} digits in lowest terms"
            )


class TestParseScalar:
    def test_forms(self, e23):
        assert parse_scalar(e23, "3/2") == scalars.RationalComplex(Fraction(3, 2))
        assert parse_scalar(e23, "i") == scalars.RationalComplex(0, 1)
        assert parse_scalar(e23, "2i") == scalars.RationalComplex(0, 2)
        assert parse_scalar(e23, "-1/2+2i") == scalars.RationalComplex(
            Fraction(-1, 2), 2
        )
        assert parse_scalar(e23, "1 - i") == scalars.RationalComplex(1, -1)

    def test_zeta(self, tw23):
        k4 = scalars.cyclotomic_field(4)
        assert parse_scalar(tw23, "zeta(4)") == k4.zeta_power(1)
        assert parse_scalar(tw23, "zeta(4)^-1") == k4.zeta_power(3)
        assert parse_scalar(tw23, "2*zeta(4)^2") == k4.from_fraction(Fraction(-2))

    def test_products_and_sums(self, e23):
        assert parse_scalar(e23, "2*3/4") == scalars.RationalComplex(Fraction(3, 2))
        assert parse_scalar(e23, "1+i - 2i") == scalars.RationalComplex(1, -1)

    def test_rejects_generators(self, e23):
        with pytest.raises(ExpressionError):
            parse_scalar(e23, "e(1,0;0)")


class TestFormatting:
    def test_canonical_order(self, e23):
        a = (
            algebra.isometry(e23, e23.monomial((1, 1), 4))
            + algebra.isometry(e23, e23.monomial((0, 1), 0))
            - algebra.identity(e23).scaled(scalars.RationalComplex(2))
        )
        assert format_element(a) == "-2*I + e(0,1;0) + e(1,1;4)"

    def test_zero(self, e23):
        assert format_element(algebra.zero(e23)) == "0"

    def test_bare_generator_and_adjoint(self, e23):
        x = algebra.isometry(e23, e23.monomial((1, 0), 1))
        assert format_element(x) == "e(1,0;1)"
        assert format_element(x.adjoint()) == "e(1,0;1)'"

    def test_complex_coefficients_parenthesized(self, e23):
        a = algebra.isometry(e23, e23.monomial((1, 0), 0)).scaled(
            scalars.RationalComplex(1, -2)
        )
        assert format_element(a) == "(1-2i)*e(1,0;0)"

    def test_sign_normalization(self, e23):
        # parenthesized bodies never lead with a minus sign
        a = algebra.isometry(e23, e23.monomial((1, 0), 0)).scaled(
            scalars.RationalComplex(-1, 2)
        )
        assert format_element(a) == "-(1-2i)*e(1,0;0)"

    def test_format_scalar(self, e23, tw23, flspec):
        assert format_scalar(scalars.RationalComplex(Fraction(3, 2))) == "3/2"
        assert format_scalar(scalars.RationalComplex(0, -1)) == "-1i"
        k4 = scalars.cyclotomic_field(4)
        assert format_scalar(k4.zeta_power(1)) == "zeta(4)^1"
        assert "zeta" in format_scalar(k4.zeta_power(1) + k4.one)


class TestRoundTrips:
    def test_random_rational(self, e23, rng):
        for _ in range(40):
            a = random_element(e23, rng, nterms=3)
            assert algebra.equals(parse_element(e23, format_element(a)), a)

    def test_random_cyclotomic(self, tw23, rng):
        for _ in range(30):
            a = random_element(tw23, rng, nterms=3)
            assert algebra.equals(parse_element(tw23, format_element(a)), a)

    def test_random_float(self, flspec, rng):
        for _ in range(30):
            a = random_element(flspec, rng, nterms=3)
            assert algebra.equals(parse_element(flspec, format_element(a)), a)

    def test_scalar_round_trips(self, e23, tw23, flspec):
        cases = [
            (e23, scalars.RationalComplex(Fraction(-3, 7), Fraction(1, 2))),
            (tw23, scalars.cyclotomic_field(4).zeta_power(3) * Fraction(2, 5)),
            (flspec, scalars.FloatComplex(1e-09 + 2.5j)),
        ]
        for spec, value in cases:
            back = parse_scalar(spec, format_scalar(value))
            assert (back - spec.field.coerce(value)).is_zero()

    def test_zero_round_trip(self, e23):
        assert format_element(parse_element(e23, "0")) == "0"


# The Gaussian-rational printer as it read when ``re`` and ``im`` were its
# inputs, kept verbatim with its helpers as the oracle for the printer on
# integer triples; it shares no code with the printer it checks.


def _format_fraction(f: Fraction) -> str:
    return str(f)


def _real_piece(mag_text: str, mon: str) -> str:
    return mon if mag_text == "1" else f"{mag_text}*{mon}"


def _complex_body(re_text: str, im_text: str, re_zero: bool, im_neg: bool) -> str:
    # inner text of "(a+bi)"; callers pass magnitudes plus the sign flag
    if re_zero:
        return ("-" if im_neg else "") + im_text + "i"
    return re_text + ("-" if im_neg else "+") + im_text + "i"


def fraction_term_pieces(coeff, mon: str):
    re_part, im_part = coeff.coeffs
    if im_part == 0:
        yield re_part < 0, _real_piece(_format_fraction(abs(re_part)), mon)
    else:
        negative = re_part < 0 or (re_part == 0 and im_part < 0)
        if negative:
            re_part, im_part = -re_part, -im_part
        body = _complex_body(
            _format_fraction(re_part),
            _format_fraction(abs(im_part)),
            re_part == 0,
            im_part < 0,
        )
        yield negative, f"({body})*{mon}"


def fraction_format_scalar(value) -> str:
    re_part, im_part = value.coeffs
    if im_part == 0:
        return _format_fraction(re_part)
    return _complex_body(
        _format_fraction(re_part),
        _format_fraction(abs(im_part)),
        re_part == 0,
        im_part < 0,
    )


_numerators = st.one_of(st.integers(-12, 12), st.integers(-(10**30), 10**30))
_denominators = st.one_of(st.integers(1, 12), st.integers(1, 10**30))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_numerators, _denominators, _numerators, _denominators)
def test_gaussian_printing_matches_fraction_printing(a, b, c, d):
    value = scalars.RationalComplex(Fraction(a, b), Fraction(c, d))
    assert list(_term_pieces(value, "e(1,0;0)")) == list(
        fraction_term_pieces(value, "e(1,0;0)")
    )
    assert format_scalar(value) == fraction_format_scalar(value)
