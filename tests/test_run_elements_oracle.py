"""Elements made of runs against the term-list algebra.

``conftest.TermElement`` stores one term per entry, as elements did before
they were made of runs; ``term_multiply``, ``term_equals`` and
``term_raised_blocks`` are its product, equality and normal form.  On every
product spec the run elements must agree with it: ``.terms``, ``==``,
``+``, ``-``, ``scaled``, ``adjoint``, ``multiply``, ``equals`` and
``normal_form``, each compared by coefficient ``repr``, so float results
agree bit for bit.  ``scaled``, which joins again only the fiber pairs of
two or more runs, is compared with the rebuild of every pair.  Cases walk diagonals, so their terms form runs that
continue each other, runs that cancel, and equal coefficients held as
distinct objects.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import algebra
from cuntzlab.algebra import AlgebraElement
from cuntzlab.system import BasisMonomial, sub_degree

from conftest import (
    blocks_of,
    PRODUCT_SPECS,
    TermElement,
    flat_runs,
    identical,
    random_coeff,
    term_equals,
    term_multiply,
    term_raised_blocks,
)

EXAMPLES = settings(max_examples=150, deadline=None, derandomize=True, database=None)

FIBERS = [(0, 0), (1, 0), (0, 1), (1, 1)]
# a diagonal is mostly continued, so runs form
STEPS = ["continue"] * 4 + ["gap", "new", "equal", "equal", "cancel"]


def _reprs(a):
    return [(repr(c), x, y) for c, x, y in a.terms]


@st.composite
def diagonal_terms(draw, spec):
    """(coeff, x, y) terms in blocks that each walk one diagonal of a fiber
    pair.  Each step continues the diagonal, leaves a gap, draws a new
    coefficient, takes an equal coefficient that is another object, or
    cancels the term just made; a block may go on where the last one
    stopped.  Coefficients come from a small pool, so runs of one pair
    often share one."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    pool = [random_coeff(spec, rng) for _ in range(3)]
    one = spec.field.one
    terms = []
    i = j = 0
    coeff = pool[0]
    pair = (FIBERS[0], FIBERS[0])
    for _ in range(draw(st.integers(1, 4))):
        if not terms or draw(st.booleans()):
            pair = (draw(st.sampled_from(FIBERS)), draw(st.sampled_from(FIBERS)))
            i = draw(st.integers(0, spec.dim(pair[0]) - 1))
            j = draw(st.integers(0, spec.dim(pair[1]) - 1))
            coeff = draw(st.sampled_from(pool))
        fx, fy = pair
        for step in draw(st.lists(st.sampled_from(STEPS), min_size=2, max_size=6)):
            if i >= spec.dim(fx) or j >= spec.dim(fy):
                break
            x, y = BasisMonomial(fx, i), BasisMonomial(fy, j)
            terms.append((coeff, x, y))
            if step == "cancel":
                terms.append((-coeff, x, y))
            i, j = (i + 2, j + 2) if step == "gap" else (i + 1, j + 1)
            if step == "new":
                coeff = draw(st.sampled_from(pool))
            elif step == "equal":
                coeff = coeff * one
    return terms


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(PRODUCT_SPECS)))
    spec = PRODUCT_SPECS[name]
    return spec, draw(diagonal_terms(spec)), draw(diagonal_terms(spec))


def assert_canonical(a):
    """Fiber pairs in canonical order (degree, then left fiber), each once
    and with a non-empty tuple of nonzero runs sorted by (row0, col0);
    runs of a diagonal disjoint, and none continuing the last run of its
    diagonal with an identical coefficient: ``==`` on the exact fields,
    the same ``repr``, so the same bits, on float."""
    keys = [(sub_degree(fx, fy), fx) for fx, fy, _ in a.pairs]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    for fx, fy, runs in a.pairs:
        assert type(runs) is tuple and runs
        assert [run[:2] for run in runs] == sorted(run[:2] for run in runs)
        ends = {}
        for r, c, n, v in runs:
            assert n >= 1 and not v.is_zero()
            last = ends.get(c - r)
            assert last is None or last[0] <= r
            assert last is None or last[0] != r or not identical(last[1], v)
            ends[c - r] = (r + n, v)


def scale_of(spec, seed):
    """A random coefficient, or zero for one seed in five."""
    return random_coeff(spec, random.Random(seed)) if seed % 5 else Fraction(0)


@EXAMPLES
@given(cases())
def test_elements_match_the_term_list_algebra(case):
    spec, ta, tb = case
    a, b = AlgebraElement.from_terms(spec, ta), AlgebraElement.from_terms(spec, tb)
    oa, ob = TermElement.from_terms(spec, ta), TermElement.from_terms(spec, tb)
    lam = scale_of(spec, len(ta) + 3 * len(tb))
    pairs = [
        (a, oa),
        (b, ob),
        (a + b, oa + ob),
        (a - b, oa - ob),
        (-a, -oa),
        (a.scaled(lam), oa.scaled(lam)),
        (a.adjoint(), oa.adjoint()),
        (algebra.multiply(a, b), term_multiply(oa, ob)),
        (algebra.multiply(b.adjoint(), a), term_multiply(ob.adjoint(), oa)),
    ]
    for got, want in pairs:
        assert_canonical(got)
        assert _reprs(got) == _reprs(want)
    # a pair whose runs are subtracted again cancels whole
    assert _reprs((a + b) - b) == _reprs((oa + ob) - ob)
    assert not (a - a).pairs
    assert (a == b) == (oa == ob)
    assert algebra.equals(a, b) == term_equals(oa, ob)
    assert algebra.equals(a - b, b.scaled(-1) + a)
    blocks = blocks_of(algebra.normal_form(a + b))
    assert repr(blocks) == repr(term_raised_blocks(spec, (oa + ob).terms))


def test_float_equals_sums_pairs_in_the_order_they_reached_the_difference():
    # the pairs of a - b meet in the one degree-0 block: 1e16 from I, 1
    # from (1,0) and -1e16 from (0,1); summed in that order the 1 is lost,
    # summed in canonical pair order it is not, and equals reads the order
    # the term list raised
    spec = PRODUCT_SPECS["f23"]
    m = spec.monomial
    ta = [(1e16, m((0, 0), 0), m((0, 0), 0)), (1, m((1, 0), 0), m((1, 0), 0))]
    tb = [(1e16, m((0, 1), j), m((0, 1), j)) for j in range(3)]
    a, b = AlgebraElement.from_terms(spec, ta), AlgebraElement.from_terms(spec, tb)
    oa, ob = TermElement.from_terms(spec, ta), TermElement.from_terms(spec, tb)
    assert algebra.equals(a, b) == term_equals(oa, ob) is True


def test_float_eq_compares_the_matrices_not_the_runs():
    # 1.0 and 1.0 + 1e-15 have different bits, so the second diagonal is
    # two runs where the first is one; within the tolerance they are one
    # matrix, as equals says, and a coefficient off by 0.1 is not
    spec = PRODUCT_SPECS["f23"]
    m = spec.monomial

    def diagonal(second):
        terms = [(1.0, m((1, 0), 0), m((1, 0), 0)), (second, m((1, 0), 1), m((1, 0), 1))]
        return AlgebraElement.from_terms(spec, terms)

    one, near, off = diagonal(1.0), diagonal(1.0 + 1e-15), diagonal(1.1)
    assert (len(flat_runs(one)), len(flat_runs(near))) == (1, 2)
    assert one == near and near == one and algebra.equals(one, near)
    assert one != off and not algebra.equals(one, off)


@EXAMPLES
@given(cases())
def test_rebuilt_and_perturbed_elements(case):
    """An element rebuilt from its terms in reverse order is ``==`` to it;
    one entry changed makes ``equals`` false, as the term list says."""
    spec, ta, _ = case
    a = AlgebraElement.from_terms(spec, ta)
    rebuilt = AlgebraElement.from_terms(spec, list(reversed(a.terms)))
    assert rebuilt == a and algebra.equals(rebuilt, a)
    if a.terms:
        c, x, y = a.terms[len(a.terms) // 2]
        bumped = AlgebraElement.from_terms(spec, [*a.terms, (c, x, y)])
        oa = TermElement.from_terms(spec, [(t.coeff, t.left, t.right) for t in a.terms])
        obumped = TermElement.from_terms(spec, [*oa.terms, (c, x, y)])
        assert_canonical(bumped)
        assert _reprs(bumped) == _reprs(obumped)
        assert algebra.equals(bumped, a) == term_equals(obumped, oa) is False


def full_rebuild(a, coeff):
    """The pairs of ``a`` scaled by ``coeff``, every fiber pair rebuilt by
    ``algebra._build``: zero runs dropped and each pair's runs joined."""
    c = a.spec.field.coerce(coeff)
    return algebra._build(
        [(fx, fy, [(r, col, n, c * v) for r, col, n, v in runs]) for fx, fy, runs in a.pairs]
    )


def _run_reprs(pairs):
    return [(fx, fy, *run[:3], repr(run[3])) for fx, fy, runs in pairs for run in runs]


@EXAMPLES
@given(cases(), st.integers(0, 10**6))
def test_scaled_matches_the_full_rebuild(case, seed):
    spec, ta, _ = case
    a = AlgebraElement.from_terms(spec, ta)
    lams = [scale_of(spec, seed), -1, 0]
    if not spec.field.exact:
        lams += [-0.0, complex(-0.0, -0.0), 1e-320]
    for lam in lams:
        got = a.scaled(lam)
        assert_canonical(got)
        assert _run_reprs(got.pairs) == _run_reprs(full_rebuild(a, lam))


def test_float_scaled_joins_runs_made_identical_and_drops_underflow():
    # 1+0j and 1-0j differ in a sign bit, so they are two runs of one
    # diagonal; times 1 or 2 both products carry +0.0 and join.  Times
    # 1e-320 the one-run pair 1e-5 underflows to 0.0, and every run goes
    spec = PRODUCT_SPECS["f23"]
    m = spec.monomial
    diagonal = [
        (complex(1, 0.0), m((1, 0), 0), m((1, 0), 0)),
        (complex(1, -0.0), m((1, 0), 1), m((1, 0), 1)),
    ]
    lone = [(1e-5, m((0, 1), 2), m((0, 0), 0))]
    a = AlgebraElement.from_terms(spec, diagonal + lone)
    assert len(flat_runs(a)) == 3
    for lam, count in ((1, 2), (1e-320, 0), (-0.0, 0), (2, 2)):
        got = a.scaled(lam)
        assert len(flat_runs(got)) == count
        assert _run_reprs(got.pairs) == _run_reprs(full_rebuild(a, lam))
