"""The cell order of ``runs.cells`` against the term view.

``runs.cells`` reads swept runs cell by cell in (row, col) order; the
printer, ``eval``'s entries and ``morphisms.map_element`` walk it.  Its
cells must be the sorted cells of a step operator and each fiber pair's
slice of ``AlgebraElement.terms``, on runs whose rows interleave too.
``expr.format_element`` must print the text of ``conftest.term_format_element``,
which builds a ``Term`` and its monomials' reprs per cell, on every product
spec, and both must refuse an index or a coordinate past the digit limit.
``map_element`` must build the image of ``conftest.term_map_element``,
which walks ``.terms``, run for run and coefficient bits for bits.
"""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import algebra, expr, runs, scalars
from cuntzlab.algebra import AlgebraElement
from cuntzlab.morphisms import GeneratorAssignment, canonical_assignment, factor_iso, map_element
from cuntzlab.steprep import StepOperator
from cuntzlab.system import BasisMonomial, SystemSpec

from conftest import (
    PRODUCT_SPECS,
    random_element,
    random_fiber,
    term_format_element,
    term_map_element,
)
from test_runs import run_lists

EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True, database=None)


def _bits(a):
    """The runs of ``a`` with their fiber pair, each coefficient by
    ``repr``, so float values compare by their bits."""
    return [(fx, fy, r, c, n, repr(v)) for fx, fy, rs in a.pairs for r, c, n, v in rs]


# -- runs.cells ---------------------------------------------------------------


def _check_cells(swept):
    got = list(runs.cells(swept))
    entries = StepOperator(1, 1, runs=swept).entries
    assert got == [(r, c, v) for (r, c), v in sorted(entries.items())]
    if not swept:
        return
    # two pairs of canonical order, each holding the runs: .terms is their
    # cells, pair by pair
    pairs = [((2, 2), (2, 2), swept), ((3, 2), (2, 3), swept)]
    terms = AlgebraElement._canonical(PRODUCT_SPECS["e23"], pairs).terms
    for k, (fx, fy, _) in enumerate(pairs):
        part = terms[k * len(got) : (k + 1) * len(got)]
        assert [(t.left.fiber, t.right.fiber) for t in part] == [(fx, fy)] * len(got)
        assert [(t.left.index, t.right.index, t.coeff) for t in part] == got


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(run_lists())
def test_cells_are_the_sorted_entries_and_the_terms(case):
    _check_cells(runs.sweep(case[1]))


def test_cells_of_runs_whose_rows_interleave():
    one = scalars.RATIONAL.one
    # rows 0-5 on the main diagonal, rows 2-4 above it and rows 3-4 below
    swept = runs.sweep([(0, 0, 6, one), (2, 7, 3, one * 2), (3, 1, 2, -one)])
    assert [(r, c) for r, c, _ in runs.cells(swept)] == [
        (0, 0), (1, 1), (2, 2), (2, 7), (3, 1), (3, 3), (3, 8), (4, 2), (4, 4), (4, 9), (5, 5)
    ]
    _check_cells(swept)


# -- the printer ---------------------------------------------------------------


def _element(spec, rng):
    """A random element, maybe a product of two or a shift image, so runs
    are long and rows interleave."""
    a = random_element(spec, rng, nterms=rng.randint(0, 4))
    roll = rng.random()
    if roll < 0.3:
        a = algebra.multiply(a, random_element(spec, rng, nterms=rng.randint(1, 3)).adjoint())
    elif roll < 0.6:
        a = algebra.shift_endomorphism(a, random_fiber(spec, rng, max_sum=2))
    return a


@EXAMPLES
@given(st.sampled_from(sorted(PRODUCT_SPECS)), st.integers(0, 10**6))
def test_printer_matches_the_term_printer(name, seed):
    spec, rng = PRODUCT_SPECS[name], random.Random(seed)
    a = _element(spec, rng)
    assert expr.format_element(a) == term_format_element(a)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="no digit limit")
@pytest.mark.parametrize("where", ["index", "coordinate"])
def test_past_the_digit_limit_both_printers_refuse(where):
    limit = sys.get_int_max_str_digits()
    if where == "index":
        # 16^(limit + 1) > 10^(limit + 1): the index 10^limit lies in the fiber
        spec, x = PRODUCT_SPECS["e23"], BasisMonomial((4 * (limit + 1), 0), 10**limit)
    else:
        # dimension one, its coordinate past the limit
        spec, x = PRODUCT_SPECS["rot11"], BasisMonomial((10**limit, 0), 0)
    a = algebra.monomial_pair(spec, x, spec.identity_monomial, 3)
    a = a + algebra.identity(spec)
    errors = []
    for printer in (expr.format_element, term_format_element):
        with pytest.raises(expr.UnprintableError) as info:
            printer(a)
        errors.append(str(info.value))
    assert errors[0] == errors[1]


# -- map_element ---------------------------------------------------------------


def _unit(spec, rng):
    """A random power of the field's root of unity of order 4, or of the
    cyclotomic field's own root."""
    if isinstance(spec.field, scalars.CyclotomicField):
        return spec.field.zeta_power(rng.randrange(spec.field.order))
    return spec.field.root_of_unity(Fraction(rng.randrange(4), 4))


def _random_family(spec, rng):
    """Each slot's images are its fiber's basis, forwards, or backwards for
    every slot alike, times one random unit per slot: an assignment of the
    spec into itself that satisfies the relations."""
    backwards = rng.random() < 0.5
    images = {}
    for a, d in enumerate(spec.gen_dims, start=1):
        c = _unit(spec, rng)
        for i in range(d):
            x = spec.monomial(spec.unit_fiber(a - 1), d - 1 - i if backwards else i)
            images[a, i] = algebra.monomial_pair(spec, x, spec.identity_monomial, c)
    return GeneratorAssignment(spec, spec, images)


def _on_float(assignment):
    """The assignment between the float specs of its source's and target's
    dimensions, each image read from its printed text.  The backward
    images of ``factor_iso`` are sums, so the images of distinct cells
    overlap and a float image keeps its bits only in the cells' order."""
    source, target = (
        SystemSpec(spec.gen_dims, scalar_mode="float")
        for spec in (assignment.source, assignment.target)
    )
    images = {
        key: expr.parse_element(target, expr.format_element(image))
        for key, image in assignment.images.items()
    }
    return GeneratorAssignment(source, target, images)


_ISO = factor_iso(2, 3)
FIXED = {
    **{f"{name}-canonical": canonical_assignment(spec) for name, spec in PRODUCT_SPECS.items()},
    "iso23-forward": _ISO.forward,
    "iso23-backward": _ISO.backward,
    "iso23-forward-float": _on_float(_ISO.forward),
    "iso23-backward-float": _on_float(_ISO.backward),
}


@EXAMPLES
@given(
    st.sampled_from(sorted(FIXED) + [f"{name}-random" for name in sorted(PRODUCT_SPECS)]),
    st.integers(0, 10**6),
)
def test_induced_image_matches_the_term_walk(name, seed):
    rng = random.Random(seed)
    assignment = FIXED.get(name)
    if assignment is None:
        assignment = _random_family(PRODUCT_SPECS[name.removesuffix("-random")], rng)
        assert assignment.report().ok
    element = _element(assignment.source, rng)
    # float targets compare by repr, so by the coefficients' bits
    assert _bits(map_element(assignment, element)) == _bits(term_map_element(assignment, element))
