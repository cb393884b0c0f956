"""``runs.raise_terms``, the one builder behind normal forms and step
evaluation, on hand-made terms and placements."""

from fractions import Fraction

from cuntzlab.runs import raise_terms
from cuntzlab.scalars import FloatComplex, RationalComplex
from cuntzlab.system import BasisMonomial

A, B, C = ((1, 0), (0, 0)), ((0, 1), (0, 0)), ((1, 1), (1, 0))


def term(coeff, pair, i=0, j=0):
    return (coeff, BasisMonomial(pair[0], i), BasisMonomial(pair[1], j))


def q(num, den=1):
    return RationalComplex(Fraction(num, den))


def recording(placements):
    """A placement that looks each pair up in ``placements`` and records
    the pairs it was given."""
    seen = []

    def place(pairs):
        seen.extend(pairs)
        return [placements[pair] for pair in pairs]

    return place, seen


def test_pairs_in_order_of_first_appearance():
    terms = [term(q(1), B), term(q(2), A, 1), term(q(3), B, 1, 1), term(q(4), C)]
    place, seen = recording({A: ("a", 1, None), B: ("b", 1, None), C: ("a", 1, None)})
    out = raise_terms(terms, place)
    assert seen == [B, A, C]
    assert list(out) == ["b", "a"]


def test_runs_come_pair_by_pair():
    # the three terms land on one cell: grouped by pair the float sum is
    # (1e16 - 1e16) + 1, where the term order would give (1e16 + 1) - 1e16 = 0
    terms = [
        term(FloatComplex(1e16), A),
        term(FloatComplex(1.0), B),
        term(FloatComplex(-1e16), A),
    ]
    place, _ = recording({A: (0, 1, None), B: (0, 1, None)})
    assert [v.value for *_, v in raise_terms(terms, place)[0]] == [1.0]


def test_stripe_and_phase_give_the_run():
    terms = [term(q(2), A, 1, 0), term(q(3), B, 0, 2)]
    place, _ = recording({A: ("k", 3, q(-1)), B: ("k", 2, None)})
    assert raise_terms(terms, place) == {"k": ((0, 4, 2, q(3)), (3, 0, 3, q(-2)))}


def test_each_key_is_swept_on_its_own():
    # A and C overlap on key 0, B overlaps nothing on key 1
    terms = [term(q(1), A), term(q(1), B), term(q(2), C)]
    place, _ = recording({A: (0, 4, None), B: (1, 4, None), C: (0, 2, None)})
    assert raise_terms(terms, place) == {
        0: ((0, 0, 2, q(3)), (2, 2, 2, q(1))),
        1: ((0, 0, 4, q(1)),),
    }


def test_cancelling_key_maps_to_empty_tuple():
    terms = [term(q(1, 2), A, 1, 1), term(q(5), B), term(q(-1, 2), C, 1, 1)]
    place, _ = recording({A: ("gone", 2, None), B: ("kept", 1, None), C: ("gone", 2, None)})
    assert raise_terms(terms, place) == {"gone": (), "kept": ((0, 0, 1, q(5)),)}


def test_float_sums_follow_term_order_bit_for_bit():
    # adjacent terms of one pair: the sum is ((0.1 + 0.2) + 0.3), which
    # differs in the last bit from 0.1 + (0.2 + 0.3)
    values = [0.1, 0.2, 0.3]
    terms = [term(FloatComplex(v), A) for v in values]
    place, _ = recording({A: (0, 1, None)})
    (run,) = raise_terms(terms, place)[0]
    assert run[3].value == complex((0.1 + 0.2) + 0.3)
    assert run[3].value != complex(0.1 + (0.2 + 0.3))
    # with a phase each coefficient is scaled before the sum
    place, _ = recording({A: (0, 1, FloatComplex(1j))})
    (run,) = raise_terms(terms, place)[0]
    expected = (complex(0.1) * 1j + complex(0.2) * 1j) + complex(0.3) * 1j
    assert run[3].value == expected
