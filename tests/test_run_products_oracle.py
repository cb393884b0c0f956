"""Products of long runs against the term-list product.

``algebra.multiply`` composes each pair of runs to at most one run;
``conftest.term_multiply`` tests every pair of terms for its survivor
window, as products did before.  On every product spec the two must agree
on elements whose runs are long: Cuntz sums, shift images,
``factor_iso``-shaped backward images and the partial isometries
e(0,k;0)' e(k,0;0), with their adjoints, sums and scalings, and on
products of random sums, whose fiber pairs hold several short runs each.
Coefficients are compared by ``repr``, so float products agree bit for
bit.  Counted tests pin the cost: a pair of runs makes one piece, whatever
its length, and a pair of fiber pairs one lookup of its fiber data.
"""

import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import algebra, runs
from cuntzlab.algebra import AlgebraElement
from cuntzlab.morphisms import factor_iso
from cuntzlab.system import BasisMonomial, SystemSpec, sub_degree

from conftest import (
    PRODUCT_SPECS,
    TermElement,
    flat_runs,
    random_coeff,
    random_element,
    term_multiply,
)
from test_run_elements_oracle import _run_reprs, assert_canonical

EXAMPLES = settings(max_examples=60, deadline=None, derandomize=True, database=None)

# fibers of degree at most 2: Cuntz sums of up to 9 terms on (2,3) and (3,2)
FIBERS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]


def _reprs(a):
    return [(repr(c), x, y) for c, x, y in a.terms]


def _oracle(a):
    return TermElement.from_terms(a.spec, [(t.coeff, t.left, t.right) for t in a.terms])


def cuntz_sum(spec, fiber, coeff):
    """coeff * sum_{x in B_fiber} i(x) i(x)*: one run on the exact fields."""
    return AlgebraElement.from_terms(spec, [(coeff, x, x) for x in spec.basis(fiber)])


def backward_image(spec, f, g, j, coeff):
    """sum_l e(f; j*dim(g) + l) e(g; l)' for l < dim(g), the shape of a
    ``factor_iso`` backward image (f = (0,1), g = (1,0) there): one run of
    length dim(g), which must fit in the fiber f."""
    n = spec.dim(g)
    return AlgebraElement.from_terms(
        spec, [(coeff, BasisMonomial(f, j * n + l), BasisMonomial(g, l)) for l in range(n)]
    )


def partial_isometry(spec, k):
    """e(0,k;0)' e(k,0;0), a product whose survivors are one run."""
    x = algebra.isometry(spec, spec.monomial((0, k), 0))
    y = algebra.isometry(spec, spec.monomial((k, 0), 0))
    return algebra.multiply(x.adjoint(), y)


def assoc_element(spec, rng):
    """A product of two random sums of 4-8 terms over fibers of degree at
    most 1, as an associativity check makes one: many fiber pairs, several
    short runs in each."""
    a = random_element(spec, rng, rng.randint(4, 8), 1)
    return algebra.multiply(a, random_element(spec, rng, rng.randint(4, 8), 1))


@st.composite
def long_run_element(draw, spec):
    rng = random.Random(draw(st.integers(0, 10**6)))

    def coeff():
        c = random_coeff(spec, rng)
        return c if not c.is_zero() else spec.field.one

    kind = draw(st.sampled_from(["cuntz", "shift", "backward", "partial", "random", "assoc"]))
    if kind == "cuntz":
        out = cuntz_sum(spec, draw(st.sampled_from(FIBERS)), coeff())
    elif kind == "shift":
        a = random_element(spec, rng, rng.randint(1, 3), 1)
        out = algebra.shift_endomorphism(a, draw(st.sampled_from(FIBERS[1:4])))
    elif kind == "backward":
        f, g = draw(st.sampled_from([((0, 1), (1, 0)), ((1, 1), (1, 0)), ((1, 1), (0, 1))]))
        if spec.dim(f) < spec.dim(g):
            f, g = g, f  # on (3, 2) a run of dim(1,0) does not fit in (0,1)
        slots = spec.dim(f) // spec.dim(g)
        out = backward_image(spec, f, g, draw(st.integers(0, slots - 1)), coeff())
    elif kind == "partial":
        out = partial_isometry(spec, draw(st.integers(1, 2))).scaled(coeff())
    elif kind == "assoc":
        out = assoc_element(spec, rng)
    else:
        out = random_element(spec, rng, rng.randint(1, 4), 2)
    # adjoints, sums and scalings mix runs of several shapes and lengths
    if draw(st.booleans()):
        out = out.adjoint()
    if draw(st.booleans()):
        out = out + cuntz_sum(spec, draw(st.sampled_from(FIBERS)), coeff())
    return out


@st.composite
def cases(draw):
    spec = PRODUCT_SPECS[draw(st.sampled_from(sorted(PRODUCT_SPECS)))]
    return draw(long_run_element(spec)), draw(long_run_element(spec))


def _assert_products_match(a, b):
    oa, ob = _oracle(a), _oracle(b)
    for got, want in (
        (algebra.multiply(a, b), term_multiply(oa, ob)),
        (algebra.multiply(b, a), term_multiply(ob, oa)),
        (algebra.multiply(a, a.adjoint()), term_multiply(oa, oa.adjoint())),
        (algebra.multiply(b.adjoint(), a), term_multiply(ob.adjoint(), oa)),
    ):
        assert_canonical(got)
        assert _reprs(got) == _reprs(want)


@EXAMPLES
@given(cases())
def test_long_run_products_match_the_term_list_product(case):
    _assert_products_match(*case)


@pytest.mark.parametrize("name", sorted(PRODUCT_SPECS))
def test_products_of_assoc_products_match_the_term_list_product(name):
    # the "assoc" kind on every product spec, which the sampled cases
    # above need not all reach
    spec = PRODUCT_SPECS[name]
    rng = random.Random(f"assoc-{name}")
    for _ in range(3):
        _assert_products_match(assoc_element(spec, rng), assoc_element(spec, rng))


def test_factor_iso_backward_images_match_the_term_list_product():
    # the m-entry runs of the backward images, each times each image and
    # adjoint, as the relation check and the round trip multiply them
    for m, n in [(2, 2), (3, 2), (2, 3)]:
        images = factor_iso(m, n).backward.images
        elements = [*images.values(), *(e.adjoint() for e in images.values())]
        for a in elements:
            for b in elements:
                got = algebra.multiply(a, b)
                assert_canonical(got)
                assert _reprs(got) == _reprs(term_multiply(_oracle(a), _oracle(b)))


def test_a_product_meets_the_left_runs_of_a_row_in_column_order():
    # row 2 of the left operand meets its runs (0,0,3), (1,4,2) and (2,0,1)
    # at columns 2, 5 and 0, and the right column holds 0.1, 0.2 and 0.3 at
    # rows 0, 2 and 5: cell (2, 0) sums them in column order, as the entry
    # pairs always did, and the runs' (row0, col0) order would give other
    # bits
    spec = PRODUCT_SPECS["f23"]
    m = spec.monomial
    runs_ = [(0, 0, 3), (1, 4, 2), (2, 0, 1)]
    left = [(1.0, m((0, 2), r + u), m((0, 2), c + u)) for r, c, n in runs_ for u in range(n)]
    right = [(v, m((0, 2), r), m((0, 2), 0)) for v, r in [(0.1, 0), (0.2, 2), (0.3, 5)]]
    a, b = AlgebraElement.from_terms(spec, left), AlgebraElement.from_terms(spec, right)
    got = algebra.multiply(a, b)
    want = term_multiply(TermElement.from_terms(spec, left), TermElement.from_terms(spec, right))
    assert _reprs(got) == _reprs(want)
    cell = {(x.index, y.index): c.value for c, x, y in got.terms}[2, 0]
    assert repr(cell) == repr(complex(0.1 + 0.2 + 0.3)) != repr(complex(0.2 + 0.3 + 0.1))


def test_a_row_of_three_runs_keeps_the_order_of_its_entry_pairs():
    # a's pair (0,1),(0,1) holds three runs in row 0, and b's identity
    # pair and its pair (0,1),(0,1) both land on the output pair
    # (0,1),(0,1): cell (0, 2) sums 0.1 (first run through the pair),
    # 0.1 (second run through the pair) and 0.4 (third run through the
    # identity) in that order, the order of the entry pairs.  A loop that
    # put b's pairs outside a's runs would add the 0.4 first, other bits
    m = (0, 1)
    for name in ("f23", "twf23"):
        spec = PRODUCT_SPECS[name]
        e = spec.monomial
        left = [(1.0, e(m, 0), e(m, j)) for j in range(3)]
        right = [
            (0.4, e((0, 0), 0), e((0, 0), 0)),
            (0.1, e(m, 0), e(m, 2)),
            (0.1, e(m, 1), e(m, 2)),
        ]
        a, b = AlgebraElement.from_terms(spec, left), AlgebraElement.from_terms(spec, right)
        assert [len(runs) for _, _, runs in a.pairs] == [3]
        got = algebra.multiply(a, b)
        oa, ob = TermElement.from_terms(spec, left), TermElement.from_terms(spec, right)
        assert _reprs(got) == _reprs(term_multiply(oa, ob))
        if name == "f23":
            cell = {(x.index, y.index): c.value for c, x, y in got.terms}[0, 2]
            in_order, identity_first = (0.1 + 0.1) + 0.4, (0.4 + 0.1) + 0.1
            assert repr(cell) == repr(complex(in_order)) != repr(complex(identity_first))


def _count_pieces(monkeypatch):
    pieces = []
    run_product = algebra._run_product

    def counted(*args):
        out = run_product(*args)
        pieces.append(out)
        return out

    monkeypatch.setattr(algebra, "_run_product", counted)
    return pieces


def test_a_pair_of_long_runs_composes_one_piece(monkeypatch):
    # e(0,30;0)' e(30,0;0) is one run of length 2^30; times its adjoint, in
    # both orders, each product composes exactly one piece, the range
    # projection of one fiber, and so does its square, one run of 2^60
    spec = SystemSpec((2, 3))
    a = partial_isometry(spec, 30)
    assert a.pairs == (((30, 0), (0, 30), ((0, 0, 2**30, spec.field.one),)),)
    pieces = _count_pieces(monkeypatch)
    one = spec.field.one
    for left, right, pair in [
        (a, a.adjoint(), ((30, 0), (30, 0), ((0, 0, 2**30, one),))),
        (a.adjoint(), a, ((0, 30), (0, 30), ((0, 0, 2**30, one),))),
        (a, a, ((60, 0), (0, 60), ((0, 0, 2**60, one),))),
    ]:
        pieces.clear()
        assert algebra.multiply(left, right).pairs == (pair,)
        assert len(pieces) == 1


def _count_summed_pieces(monkeypatch):
    """The pieces ``multiply`` hands to ``summed``, one list per call."""
    pieces = []
    summed = algebra.summed

    def counted(spec, acc):
        pieces.append([run for runs in acc.values() for run in runs])
        return summed(spec, acc)

    monkeypatch.setattr(algebra, "summed", counted)
    return pieces


def _count_fiber_data(monkeypatch):
    quads = []
    fiber_data = algebra._fiber_data

    def counted(spec, *quad):
        quads.append(quad)
        return fiber_data(spec, *quad)

    monkeypatch.setattr(algebra, "_fiber_data", counted)
    return quads


def test_a_product_costs_its_run_pairs(monkeypatch):
    # three long runs times four: twelve pieces, whatever the lengths, and
    # the product is the sum of the one-run products of its run pairs
    spec = SystemSpec((2, 3))
    a = sum((partial_isometry(spec, k) for k in (20, 21, 22)), algebra.zero(spec))
    b = a.adjoint() + algebra.identity(spec)
    pieces = _count_summed_pieces(monkeypatch)
    product = algebra.multiply(a, b)
    assert len(pieces) == 1
    assert len(pieces[0]) == len(flat_runs(a)) * len(flat_runs(b)) == 12
    one_run = [
        AlgebraElement._canonical(spec, [(fx, fy, (run,))])
        for fx, fy, runs in (*a.pairs, *b.pairs)
        for run in runs
    ]
    pairs = [algebra.multiply(x, y) for x in one_run[:3] for y in one_run[3:]]
    assert product == sum(pairs, algebra.zero(spec))


def test_a_pair_of_fiber_pairs_finds_its_fiber_data_once(monkeypatch):
    # a's pair (1,0),(1,0) holds two runs in column 0 and b's two in row
    # 0; each run pair of the pair with itself and with b's identity pair
    # survives, six pieces from two pairs of fiber pairs, two lookups.  Random products
    # make at most one lookup per pair of fiber pairs with a survivor
    spec = SystemSpec((2, 3))
    e = spec.monomial
    f = (1, 0)
    a = AlgebraElement.from_terms(spec, [(2, e(f, 0), e(f, 0)), (3, e(f, 1), e(f, 0))])
    b = AlgebraElement.from_terms(
        spec,
        [(1, e((0, 0), 0), e((0, 0), 0)), (5, e(f, 0), e(f, 0)), (7, e(f, 0), e(f, 1))],
    )
    cases = [(a, b)]
    rng = random.Random(47)
    for _ in range(20):
        x = random_element(spec, rng, rng.randint(4, 8), 1)
        cases.append((x, random_element(spec, rng, rng.randint(4, 8), 1)))
    for x, y in cases:
        surviving = {
            (i, j)
            for i, (xf, t, runs_x) in enumerate(x.pairs)
            for j, (s, yf, runs_y) in enumerate(y.pairs)
            if any(
                algebra._run_product(spec, xf, t, p, s, yf, q).pairs
                for p in runs_x
                for q in runs_y
            )
        }
        pieces = _count_summed_pieces(monkeypatch)
        quads = _count_fiber_data(monkeypatch)
        algebra.multiply(x, y)
        monkeypatch.undo()
        assert len(quads) == len(surviving)
        if (x, y) == (a, b):
            assert len(pieces[0]) == 6 and len(quads) == 2


def test_sums_of_one_entry_runs_are_not_swept(monkeypatch):
    # three one-term elements that meet in one fiber pair, one cell twice,
    # are summed cell by cell by ``runs.sweep``: no piece table is built,
    # and the sum is the one the term list gives
    spec = SystemSpec((2, 3))
    sweeps, pieces = [], []
    sweep, swept_pieces = runs.sweep, runs._swept_pieces

    def counted(given):
        sweeps.append(given)
        return sweep(given)

    def by_pieces(given):
        pieces.append(given)
        return swept_pieces(given)

    monkeypatch.setattr(algebra, "sweep", counted)
    monkeypatch.setattr(runs, "_swept_pieces", by_pieces)
    m = spec.monomial
    terms = [
        (2, m((1, 0), 0), m((0, 1), 0)),
        (3, m((1, 0), 1), m((0, 1), 1)),
        (-2, m((1, 0), 0), m((0, 1), 0)),
    ]
    total = algebra.zero(spec)
    for c, x, y in terms:
        total = total + algebra.monomial_pair(spec, x, y, c)
    assert [len(given) for given in sweeps] == [2, 3]
    assert not pieces
    assert total == AlgebraElement.from_terms(spec, terms)
    assert total.pairs == (((1, 0), (0, 1), ((1, 1, 1, spec.field.coerce(3)),)),)


@pytest.mark.parametrize("name", sorted(PRODUCT_SPECS))
@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(st.data())
def test_adjoints_and_expanded_normal_forms_are_not_rebuilt(name, data):
    # ``adjoint`` only sorts the transposed runs and ``normal_form`` takes
    # each degree's swept runs as they are; both equal the rebuild through
    # ``algebra._build`` that they were, run for run and bit for bit, on
    # long runs and on products of them
    spec = PRODUCT_SPECS[name]
    a = data.draw(long_run_element(spec))
    for b in (a, algebra.multiply(a, data.draw(long_run_element(spec)))):
        transposed = [
            (fy, fx, [(c, r, n, v.conj()) for r, c, n, v in runs]) for fx, fy, runs in b.pairs
        ]
        assert _run_reprs(b.adjoint().pairs) == _run_reprs(algebra._build(transposed))
        raised = []

        def recorded(placed):
            raised.append(runs.raise_terms(placed))
            return raised[-1]

        with mock.patch.object(algebra, "raise_terms", recorded):
            nf = algebra.normal_form(b)
        blocks = [(c, d, list(runs)) for c, d, runs in nf.pairs]
        assert _run_reprs(nf.pairs) == _run_reprs(algebra._build(blocks))
        (by_degree,) = raised
        assert len(nf.pairs) == sum(1 for runs in by_degree.values() if runs)
        assert all(runs is by_degree[sub_degree(c, d)] for c, d, runs in nf.pairs)
