"""Element sums against the sum built one element at a time.

``conftest.sequential_sum`` adds elements left to right; each step merges
the terms of two canonical elements and prunes the keys that cancel.
``+``, ``-`` and ``equals`` must agree with it on every product spec, term
by term and by coefficient ``repr``, float twists included.  A parsed sum
of several summands adds each cell's terms in order and drops the cell at
the end if it is zero, so it must agree, the same way, with
``conftest.TermElement.from_terms`` over the summands' terms in order.
``morphisms.map_element`` must agree with
``conftest.sequential_image`` exactly on the exact fields and within the
zero tolerance on float.  The summands share a small pool of keys, and
some cancel an earlier summand exactly or, on float, to a residue below
the tolerance.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import algebra, expr
from cuntzlab.morphisms import canonical_assignment, factor_iso, map_element

from conftest import (
    PRODUCT_SPECS,
    TermElement,
    random_element,
    sequential_image,
    sequential_sum,
)

EXAMPLES = settings(max_examples=100, deadline=None, derandomize=True, database=None)

_ISO = factor_iso(2, 2)
ASSIGNMENTS = {
    **{name: canonical_assignment(spec) for name, spec in PRODUCT_SPECS.items()},
    "iso22-forward": _ISO.forward,
    "iso22-backward": _ISO.backward,
}


def _reprs(a):
    return [(repr(c), x, y) for c, x, y in a.terms]


def _summands(spec, rng, count):
    """At least ``count`` random elements on fibers of degree at most 1.
    Some negate an earlier one, some come as three parts 1/10, 2/10 and
    -3/10 of one, and some as f, (10^-12 - 1) f and f again, whose first
    two cancel on float to a residue below the zero tolerance."""
    out = []
    while len(out) < count:
        roll = rng.random()
        if out and roll < 0.2:
            out.append(-rng.choice(out))
        elif out and roll < 0.35:
            e = rng.choice(out)
            out += [e.scaled(Fraction(p, 10)) for p in (1, 2, -3)]
        elif roll < 0.5:
            f = random_element(spec, rng, nterms=rng.randint(1, 3), max_sum=1)
            out += [f, f.scaled(Fraction(1 - 10**12, 10**12)), f]
        else:
            out.append(random_element(spec, rng, nterms=rng.randint(0, 3), max_sum=1))
    return out


def _joined(texts):
    """The texts as one signed sum, as the printer joins terms."""
    out = texts[0]
    for text in texts[1:]:
        out += " - " + text[1:] if text.startswith("-") else " + " + text
    return out


@EXAMPLES
@given(st.sampled_from(sorted(PRODUCT_SPECS)), st.integers(1, 8), st.integers(0, 10**6))
def test_sums_match_the_sequential_sum(name, count, seed):
    spec, rng = PRODUCT_SPECS[name], random.Random(seed)
    summands = _summands(spec, rng, count)
    total = algebra.zero(spec)
    for e in summands:
        total = total + e
    assert _reprs(total) == _reprs(sequential_sum(spec, summands))
    for a, b in zip(summands, summands[1:] + summands[:1]):
        difference = sequential_sum(spec, [a, -b])
        assert _reprs(a - b) == _reprs(difference)
        assert algebra.equals(a, b) == (not algebra.normal_form(difference).pairs)
    texts = [expr.format_element(e) for e in summands]
    parsed = [expr.parse_element(spec, text) for text in texts]
    assert _reprs(expr.parse_element(spec, _joined(texts))) == _reprs(
        TermElement.from_terms(spec, [term for p in parsed for term in p.terms])
    )


@EXAMPLES
@given(st.sampled_from(sorted(ASSIGNMENTS)), st.integers(0, 6), st.integers(0, 10**6))
def test_induced_image_matches_the_sequential_image(name, nterms, seed):
    assignment, rng = ASSIGNMENTS[name], random.Random(seed)
    element = random_element(assignment.source, rng, nterms=nterms)
    image = map_element(assignment, element)
    expected = sequential_image(assignment, element)
    if assignment.target.field.exact:
        assert _reprs(image) == _reprs(expected)
    else:
        # float coefficients compare within the zero tolerance
        assert image.terms == expected.terms
