"""``runs.raise_terms``, the one builder behind normal forms and step
evaluation, on hand-made element pairs and placements."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import algebra, cli, expr, scalars, steprep
from cuntzlab import runs as runs_module
from cuntzlab.runs import joined, raise_terms, sweep
from cuntzlab.scalars import FloatComplex, RationalComplex
from cuntzlab.system import BasisMonomial, parse_spec_text

import conftest
from conftest import flat_runs, identical, pairs_of, piecewise_sweep, stepwise_raise_terms
from test_equals_oracle import cuntz_sum
from test_raising_oracle import cells

A, B, C = ((1, 0), (0, 0)), ((0, 1), (0, 0)), ((1, 1), (1, 0))


def term(coeff, pair, i=0, j=0, length=1):
    """The run of coeff * e(fx;i) e(fy;j)', or of ``length`` such terms
    along the diagonal, its fiber pair in front; ``pairs_of`` groups such
    runs into element pairs."""
    return (pair[0], pair[1], i, j, length, coeff)


def as_runs(terms):
    """One run per (coeff, x, y) term, its fiber pair in front."""
    return [(x.fiber, y.fiber, x.index, y.index, 1, c) for c, x, y in terms]


def q(num, den=1):
    return RationalComplex(Fraction(num, den))


def placed(pairs, placements):
    """The pairs (fx, fy, runs) as ``runs.raise_terms`` takes them: each
    pair's placement (key, stripe, phase), looked up in ``placements``,
    in front of its runs."""
    return [(*placements[(fx, fy)], runs) for fx, fy, runs in pairs]


def test_pairs_in_order_of_first_appearance():
    # keys come in the order their first pair does
    pairs = [
        (*B, ((0, 0, 1, q(1)), (1, 1, 1, q(3)))),
        (*A, ((1, 0, 1, q(2)),)),
        (*C, ((0, 0, 1, q(4)),)),
    ]
    placements = {A: ("a", 1, None), B: ("b", 1, None), C: ("a", 1, None)}
    out = raise_terms(placed(pairs, placements))
    assert list(out) == ["b", "a"]


def test_runs_come_pair_by_pair():
    # the three pairs land on one cell, and the float sum follows the
    # pairs: in the order A, C, B it is (1e16 - 1e16) + 1, in the order A,
    # B, C it is (1e16 + 1) - 1e16 = 0
    one, big, minus = (((0, 0, 1, FloatComplex(v)),) for v in (1.0, 1e16, -1e16))
    placements = {A: (0, 1, None), B: (0, 1, None), C: (0, 1, None)}
    out = raise_terms(placed([(*A, big), (*C, minus), (*B, one)], placements))
    assert [v.value for *_, v in out[0]] == [1.0]
    assert raise_terms(placed([(*A, big), (*B, one), (*C, minus)], placements)) == {0: ()}


def test_stripe_and_phase_give_the_run():
    terms = [term(q(2), A, 1, 0), term(q(3), B, 0, 2)]
    placements = {A: ("k", 3, q(-1)), B: ("k", 2, None)}
    assert raise_terms(placed(pairs_of(terms), placements)) == {
        "k": ((0, 4, 2, q(3)), (3, 0, 3, q(-2)))
    }


def test_each_key_is_swept_on_its_own():
    # A and C overlap on key 0, B overlaps nothing on key 1
    terms = [term(q(1), A), term(q(1), B), term(q(2), C)]
    placements = {A: (0, 4, None), B: (1, 4, None), C: (0, 2, None)}
    assert raise_terms(placed(pairs_of(terms), placements)) == {
        0: ((0, 0, 2, q(3)), (2, 2, 2, q(1))),
        1: ((0, 0, 4, q(1)),),
    }


def test_cancelling_key_maps_to_empty_tuple():
    terms = [term(q(1, 2), A, 1, 1), term(q(5), B), term(q(-1, 2), C, 1, 1)]
    placements = {A: ("gone", 2, None), B: ("kept", 1, None), C: ("gone", 2, None)}
    assert raise_terms(placed(pairs_of(terms), placements)) == {
        "gone": (),
        "kept": ((0, 0, 1, q(5)),),
    }


def test_float_sums_follow_term_order_bit_for_bit():
    # adjacent terms of one pair: the sum is ((0.1 + 0.2) + 0.3), which
    # differs in the last bit from 0.1 + (0.2 + 0.3)
    values = [0.1, 0.2, 0.3]
    terms = [term(FloatComplex(v), A) for v in values]
    placements = {A: (0, 1, None)}
    (run,) = raise_terms(placed(pairs_of(terms), placements))[0]
    assert run[3].value == complex((0.1 + 0.2) + 0.3)
    assert run[3].value != complex(0.1 + (0.2 + 0.3))
    # with a phase each coefficient is scaled before the sum
    placements = {A: (0, 1, FloatComplex(1j))}
    (run,) = raise_terms(placed(pairs_of(terms), placements))[0]
    expected = (complex(0.1) * 1j + complex(0.2) * 1j) + complex(0.3) * 1j
    assert run[3].value == expected


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 5), st.integers(0, 5), st.integers(1, 6), st.integers(1, 4),
    st.sampled_from([None, q(-1), RationalComplex(0, 1)]),
)
def test_a_run_raises_as_its_entries(i, j, length, stripe, phase):
    placements = {C: ("k", stripe, phase)}
    entries = [term(q(3), C, i + u, j + u) for u in range(length)]
    (run,) = raise_terms(placed(pairs_of([term(q(3), C, i, j, length)]), placements))["k"]
    assert (run,) == raise_terms(placed(pairs_of(entries), placements))["k"]
    assert run == (i * stripe, j * stripe, length * stripe, q(3) if phase is None else q(3) * phase)


# ---------------------------------------------------------------------------
# maximal runs on the exact fields
# ---------------------------------------------------------------------------

Q8 = scalars.cyclotomic_field(8)
VALUES = {
    "rational": [q(1), q(-1), q(2), q(1, 2), RationalComplex(1, 1)],
    "cyclotomic:8": [Q8.zeta_power(k) * n for k in (0, 1, 3) for n in (1, -2)],
    "float": [FloatComplex(v) for v in (0.1, 0.2, 0.3, -0.1, 1e16, -1e16, 1j)],
}


@st.composite
def run_lists(draw):
    """(field name, runs) on a few diagonals, with runs that overlap, runs
    split into adjacent halves or continued with their coefficient, and
    runs cancelled by their negation, in any order."""
    name = draw(st.sampled_from(sorted(VALUES)))
    run = st.tuples(
        st.integers(1, 8), st.integers(-1, 1), st.integers(1, 4), st.sampled_from(VALUES[name])
    )
    out = []
    for row0, offset, length, coeff in draw(st.lists(run, max_size=10)):
        col0 = row0 + offset
        action = draw(st.sampled_from(["keep", "split", "continue", "cancel"]))
        if action == "split" and length > 1:
            out += [(row0, col0, 1, coeff), (row0 + 1, col0 + 1, length - 1, coeff)]
            continue
        out.append((row0, col0, length, coeff))
        if action == "continue":
            out.append((row0 + length, col0 + length, draw(st.integers(1, 3)), coeff))
        elif action == "cancel":
            out.append((row0, col0, length, -coeff))
    return name, draw(st.permutations(out))


def bits(runs):
    return [(r, c, n, v.value.real.hex(), v.value.imag.hex()) for r, c, n, v in runs]


def cell_runs(runs):
    """One run per cell of ``runs``, in (row, col) order."""
    return sorted((r, c, 1, v) for (r, c), v in cells(runs).items())


@st.composite
def cutover_lists(draw):
    """(field name, side, runs): a ``run_lists`` case padded with runs that
    put its mean length below, at or above ``sweep``'s cutover of three
    entries a run, which picks between summing cell by cell and by
    pieces.  Padding runs overlap the others and come anywhere."""
    name, out = draw(run_lists())
    out = list(out)
    side = draw(st.sampled_from(["below", "at", "above"]))

    def pad(length):
        row0, offset = draw(st.integers(1, 8)), draw(st.integers(-1, 1))
        run = (row0, row0 + offset, length, draw(st.sampled_from(VALUES[name])))
        out.insert(draw(st.integers(0, len(out))), run)

    excess = sum(run[2] for run in out) - 3 * len(out)
    if side == "below":
        for _ in range(max(0, excess + 1)):
            pad(1)
    elif side == "above":
        pad(max(1, 4 - excess) + draw(st.integers(0, 3)))
    elif excess <= 0:
        pad(3 - excess)
    else:
        # a run of two lowers the excess by one, a run of one by two
        for length in [2] * (excess % 2) + [1] * (excess // 2):
            pad(length)
    return name, side, out


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cutover_lists())
def test_sweep_against_the_per_piece_sweep(case):
    name, side, given_runs = case
    excess = sum(run[2] for run in given_runs) - 3 * len(given_runs)
    assert {"below": excess < 0, "at": excess == 0, "above": excess > 0}[side]
    got, want = sweep(given_runs), piecewise_sweep(given_runs)
    assert list(got) == sorted(got)
    assert sum(n for _, _, n, _ in got) == len(cells(got)), "swept runs overlap"
    assert cells(got) == cells(want)
    if name == "float":
        # each cell keeps the bits of its piece
        assert bits(cell_runs(got)) == bits(cell_runs(want))
    by_diagonal = sorted(got, key=lambda run: (run[1] - run[0], run[0]))
    for (r, c, n, v), (r2, c2, _, v2) in zip(by_diagonal, by_diagonal[1:]):
        assert not (
            c2 - r2 == c - r and r + n == r2 and identical(v, v2)
        ), "swept runs not maximal"


def test_sweep_sums_runs_of_up_to_three_entries_cell_by_cell(monkeypatch):
    # the mean run length picks the path: up to three entries a run the
    # cells are summed in a dict and no piece table is built
    pieces = []
    swept_pieces = runs_module._swept_pieces
    monkeypatch.setattr(
        runs_module, "_swept_pieces", lambda given: pieces.append(given) or swept_pieces(given)
    )
    at, past = [(0, 0, 5, q(1)), (2, 2, 1, q(1))], [(0, 0, 5, q(1)), (2, 2, 2, q(1))]
    assert sweep(at) == ((0, 0, 2, q(1)), (2, 2, 1, q(2)), (3, 3, 2, q(1)))
    assert not pieces
    assert sweep(past) == ((0, 0, 2, q(1)), (2, 2, 2, q(2)), (4, 4, 1, q(1)))
    assert pieces == [past]
    # one run is swept as it is, or to nothing when it is zero
    run = (1, 2, 7, q(3))
    assert sweep([run])[0] is run and sweep([(1, 2, 7, q(0))]) == ()
    assert pieces == [past]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(run_lists(), st.randoms(use_true_random=False))
def test_joined_is_the_sweep_of_disjoint_runs(case, rnd):
    # the entries of swept runs, in any order, their equal coefficients
    # held by one object per run
    name, given_runs = case
    entries = [(r + u, c + u, 1, v) for r, c, n, v in sweep(given_runs) for u in range(n)]
    rnd.shuffle(entries)
    got, want = joined(entries), sweep(entries)
    assert got == want
    assert all(a[3] is b[3] for a, b in zip(got, want))


def recorded_sweep(seen):
    """``runs.sweep``, recording each run list it is given in ``seen``."""

    def spy(given_runs):
        seen.append(list(given_runs))
        return sweep(seen[-1])

    return spy


def swept_inputs(monkeypatch):
    """The run lists that reach ``runs.sweep`` from here on, recorded."""
    seen = []
    monkeypatch.setattr(runs_module, "sweep", recorded_sweep(seen))
    return seen


def test_adjacent_equal_runs_merge_within_a_pair(monkeypatch):
    seen = swept_inputs(monkeypatch)
    terms = [term(q(3), C, 0, 0), term(q(3), C, 1, 1), term(q(3), C, 2, 2)]
    placements = {C: ("k", 2, None)}
    assert raise_terms(placed(pairs_of(terms), placements)) == {"k": ((0, 0, 6, q(3)),)}
    assert seen == [[(0, 0, 6, q(3))]]


def test_adjacent_equal_runs_merge_across_pairs_of_a_key(monkeypatch):
    seen = swept_inputs(monkeypatch)
    # B's phase -1 makes its raised coefficient 1, equal to A's and C's
    terms = [term(q(1), A, 0, 0), term(q(-1), B, 1, 1), term(q(1), C, 2, 2)]
    placements = {A: ("k", 3, None), B: ("k", 3, q(-1)), C: ("k", 3, None)}
    assert raise_terms(placed(pairs_of(terms), placements)) == {"k": ((0, 0, 9, q(1)),)}
    assert seen == [[(0, 0, 9, q(1))]]


def test_gap_unequal_coefficient_or_interleaved_run_stops_the_merge(monkeypatch):
    seen = swept_inputs(monkeypatch)
    placements = {C: ("k", 2, None)}
    gap = [term(q(1), C, 0, 0), term(q(1), C, 2, 2)]
    unequal = [term(q(1), C, 0, 0), term(q(2), C, 1, 1)]
    interleaved = [term(q(1), C, 0, 0), term(q(1), C, 3, 3), term(q(1), C, 1, 1)]
    assert raise_terms(placed(pairs_of(gap), placements)) == {
        "k": ((0, 0, 2, q(1)), (4, 4, 2, q(1)))
    }
    assert raise_terms(placed(pairs_of(unequal), placements)) == {
        "k": ((0, 0, 2, q(1)), (2, 2, 2, q(2)))
    }
    # the sweep still joins what the builder could not
    assert raise_terms(placed(pairs_of(interleaved), placements)) == {
        "k": ((0, 0, 4, q(1)), (6, 6, 2, q(1)))
    }
    assert [len(given_runs) for given_runs in seen] == [2, 2, 3]


def test_float_merges_only_identical_coefficients(monkeypatch):
    seen = swept_inputs(monkeypatch)
    placements = {C: ("k", 2, None)}
    # two objects with the same bits merge
    same = [term(FloatComplex(1.0), C, 0, 0), term(FloatComplex(1.0), C, 1, 1)]
    assert [run[:3] for run in raise_terms(placed(pairs_of(same), placements))["k"]] == [(0, 0, 4)]
    # equal only within the tolerance, or apart only in the sign bit of a
    # zero part: never merged
    near = [term(FloatComplex(1.0), C, 0, 0), term(FloatComplex(1.0 + 1e-15), C, 1, 1)]
    signed = [
        term(FloatComplex(complex(1, 0.0)), C, 0, 0),
        term(FloatComplex(complex(1, -0.0)), C, 1, 1),
    ]
    for terms in (near, signed):
        assert [run[:3] for run in raise_terms(placed(pairs_of(terms), placements))["k"]] == [
            (0, 0, 2),
            (2, 2, 2),
        ]
    assert [[run[:3] for run in given_runs] for given_runs in seen] == [
        [(0, 0, 4)],
        [(0, 0, 2), (2, 2, 2)],
        [(0, 0, 2), (2, 2, 2)],
    ]


# ---------------------------------------------------------------------------
# the builder against the stepwise builder
# ---------------------------------------------------------------------------

FIBERS = [(0, 0), (1, 0), (0, 1)]


@st.composite
def raising_cases(draw):
    """(field name, terms, placements): a few fiber pairs, often sharing
    a placement, with phases and several pairs per key, and blocks of terms
    in any pair order, so a pair is revisited after another.  A block walks
    one diagonal: each step continues it, leaves a gap, draws a new
    coefficient, takes an equal coefficient that is another object, or
    cancels the term just made; the next block may go on from there in
    another pair.  The terms of one pair may be cancelled at the end, so
    that a key's runs cancel.  A fiber is held now and then as a distinct
    tuple equal to it, as ``tuple([1, 0])`` beside ``(1, 0)``."""
    name = draw(st.sampled_from(sorted(VALUES)))
    values = VALUES[name]
    fiber_pair = st.tuples(st.sampled_from(FIBERS), st.sampled_from(FIBERS))
    pairs = draw(st.lists(fiber_pair, min_size=1, max_size=4, unique=True))
    phase = st.none() | st.sampled_from(values)
    placement = st.tuples(st.integers(0, 1), st.integers(1, 3), phase)
    shared = st.sampled_from(draw(st.lists(placement, min_size=1, max_size=3)))
    placements = {pair: draw(shared) for pair in pairs}
    move = st.sampled_from(["continue", "gap", "new", "equal", "cancel"])
    moves = st.lists(move, min_size=1, max_size=6)
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        fx, fy = draw(st.sampled_from(pairs))
        # a block may go on where the last one stopped, in another pair
        if not terms or draw(st.booleans()):
            i, j = draw(st.integers(0, 3)), draw(st.integers(0, 3))
            coeff = draw(st.sampled_from(values))
        for step in draw(moves):
            if draw(st.booleans()):
                fx = tuple(list(fx))
            if draw(st.booleans()):
                fy = tuple(list(fy))
            x, y = BasisMonomial(fx, i), BasisMonomial(fy, j)
            terms.append((coeff, x, y))
            if step == "cancel":
                terms.append((-coeff, x, y))
            i, j = (i + 2, j + 2) if step == "gap" else (i + 1, j + 1)
            if step == "new":
                coeff = draw(st.sampled_from(values))
            elif step == "equal":
                coeff = coeff * scalars.field_of(coeff).one
    if draw(st.booleans()):
        gone = draw(st.sampled_from(pairs))
        terms += [(-c, x, y) for c, x, y in terms if (x.fiber, y.fiber) == gone]
    return name, terms, placements


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(raising_cases())
def test_builder_against_the_stepwise_builder(case):
    name, terms, placements = case
    swept, stepwise_swept = [], []
    with mock.patch.object(runs_module, "sweep", recorded_sweep(swept)), mock.patch.object(
        conftest, "sweep", recorded_sweep(stepwise_swept)
    ):
        got = raise_terms(placed(pairs_of(as_runs(terms)), placements))
        want = stepwise_raise_terms(terms, placements)
    # keys come in the same order, that of their first pairs
    assert list(got) == list(want)
    if name == "float":
        assert repr(got) == repr(want)
        assert repr(swept) == repr(stepwise_swept)
    else:
        assert got == want
        assert swept == stepwise_swept


# ---------------------------------------------------------------------------
# run counts of structured sums
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["e23", "tw23"])
def test_deep_diagonal_product_is_one_run(fixture, request):
    spec = request.getfixturevalue(fixture)
    product = expr.parse_element(spec, "e(0,12;0)'*e(12,0;0)")
    assert len(product.terms) == 4096
    ((c, runs),) = algebra.normal_form(product).blocks.values()
    assert len(runs) == 1 and runs[0][2] == 4096


def test_float_deep_product_and_printed_cuntz_sum_are_one_run(capsys, tmp_path):
    # float runs merge where their coefficients have the same bits, so the
    # 2^20-entry survivor window and the 1296-term Cuntz sum, read back
    # from alpha's printed text, are one run each, as on the exact fields
    spec_file = tmp_path / "f23.spec"
    spec_file.write_text("k = 2\ndims = 2 3\nscalars = float\n")
    spec = parse_spec_text(spec_file.read_text())
    a = expr.parse_element(spec, "e(0,20;0)'*e(20,0;0)")
    b = expr.parse_element(spec, "(e(20,0;0)'*e(0,20;0))'")
    assert [run[4] for run in flat_runs(a)] == [run[4] for run in flat_runs(b)] == [2**20]
    assert algebra.equals(a, b)
    assert cli.main(["alpha", "--spec", str(spec_file), "4,4", "I"]) == 0
    cuntz = expr.parse_element(spec, capsys.readouterr().out)
    assert [run[4] for run in flat_runs(cuntz)] == [1296]


def test_cuntz_sum_normal_form_is_one_run(e23):
    nf = algebra.normal_form(cuntz_sum(e23, (3, 4)))
    assert nf.blocks == {(0, 0): ((3, 4), ((0, 0, 648, e23.field.one),))}


def test_zero_test_at_a_huge_level_sweeps_two_runs(e23, monkeypatch):
    diff = cuntz_sum(e23, (4, 4)) - algebra.identity(e23)
    seen = swept_inputs(monkeypatch)
    assert steprep.evaluate(diff, steprep.minimal_level(diff) * 10**30).is_zero()
    assert sum(map(len, seen)) <= 3


@pytest.mark.parametrize("route", ["normal_form", "evaluate"])
def test_zero_test_merges_once_per_fiber_pair(route, e23, monkeypatch):
    diff = cuntz_sum(e23, (4, 4)) - algebra.identity(e23)
    assert len(diff.terms) == 1297
    calls = []
    merge, real_sweep = runs_module._merge, runs_module.sweep

    def merge_spy(given_runs, pieces):
        pieces = list(pieces)
        calls.append(("merge", len(pieces)))
        merge(given_runs, pieces)

    def sweep_spy(given_runs):
        calls.append(("sweep", len(given_runs)))
        return real_sweep(given_runs)

    monkeypatch.setattr(runs_module, "_merge", merge_spy)
    monkeypatch.setattr(runs_module, "sweep", sweep_spy)
    if route == "normal_form":
        assert algebra.normal_form(diff).is_zero()
    else:
        assert steprep.evaluate(diff, steprep.minimal_level(diff) * 10**30).is_zero()
    # the one run of I and the one run of the Cuntz sum, then the one
    # offset of the sweep
    assert calls == [("merge", 1), ("merge", 1), ("sweep", 2), ("merge", 0)]


# ---------------------------------------------------------------------------
# work that does not grow with the fiber
# ---------------------------------------------------------------------------


def counted_raise(monkeypatch):
    """The run counts handed to ``runs.raise_terms`` from here on, through
    ``algebra`` and ``steprep`` alike."""
    counts = []
    real = runs_module.raise_terms

    def spy(given):
        given = list(given)
        counts.append(sum(len(runs) for *_, runs in given))
        return real(given)

    monkeypatch.setattr(runs_module, "raise_terms", spy)
    monkeypatch.setattr(algebra, "raise_terms", spy)
    return counts


@pytest.mark.parametrize("route", ["equals", "evaluate"])
def test_cuntz_sum_zero_test_raises_the_same_runs_at_every_fiber(route, e23, monkeypatch):
    counts = {}
    for k in (2, 6):
        basis = e23.basis((k, k))
        cuntz = algebra.AlgebraElement.from_terms(e23, [(1, x, x) for x in basis])
        diff = cuntz - algebra.identity(e23)
        seen = counted_raise(monkeypatch)
        if route == "equals":
            assert algebra.equals(diff, algebra.zero(e23))
        else:
            level = steprep.minimal_level(diff) * 10**30
            assert steprep.evaluate(diff, level).is_zero()
        counts[k] = seen
        monkeypatch.undo()
    assert counts[2] == counts[6] and all(n <= 3 for n in counts[6])


def test_deep_product_is_one_run_of_one_block(e23):
    product = algebra.multiply(
        expr.parse_element(e23, "e(0,30;0)'"), expr.parse_element(e23, "e(30,0;0)")
    )
    assert product.pairs == (((30, 0), (0, 30), ((0, 0, 2**30, e23.field.one),)),)
    ((c, runs),) = algebra.normal_form(product).blocks.values()
    assert c == (30, 0) and runs == ((0, 0, 2**30, e23.field.one),)
