"""The sparse annihilation construction against a dense reference.

``dense_annihilating_vector`` is the construction as first written: every
vector is a dense coefficient list and each orthogonality step sums over
the whole basis of the current fiber.  It costs the fiber dimension, so it
only runs on small instances, where the sparse route must return the same
vector coefficient by coefficient.  On larger schedules the construction
is compared with ``conftest.stepwise_annihilating_vector``, which builds a
fiber vector at every step.  The verdict of ``verify_annihilation`` is
checked against the exact normal form of the expanded compression, and
against ``conftest.composed_annihilation``, which composes the step
operators of the pieces where the check compares index ranges.
"""

import cmath
import math
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from cuntzlab import algebra, analysis
from cuntzlab.analysis import HypothesisViolationError
from cuntzlab.system import (
    BasisMonomial,
    FiberVector,
    SystemSpec,
    add_fibers,
    max_fiber,
    parse_spec_text,
    sub_degree,
)

from conftest import (
    PRODUCT_SPECS,
    composed_annihilation,
    compressed_pair_element,
    dense_vector,
    nullspace,
    stepwise_annihilating_vector,
)

SPECS = {
    "e23": SystemSpec((2, 3)),
    "e32": SystemSpec((3, 2)),
    "e24": SystemSpec((2, 4)),
    "e34": SystemSpec((3, 4)),
    "tw23": parse_spec_text("k = 2\ndims = 2 3\ntheta = 0 1/4 0 0\nscalars = cyclotomic:4\n"),
}
# every theta entry nonzero, so omega(r, r) is a nontrivial phase
Q8 = parse_spec_text("k = 2\ndims = 2 3\ntheta = 1/8 3/8 5/8 1/4\nscalars = cyclotomic:8\n")
# an irrational angle: every phase is an inexact float
TWF23 = PRODUCT_SPECS["twf23"]
FIBERS = [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
# the dense route costs the final vector dimension
DENSE_LIMIT = 4096


def dense_orthogonality_step(spec, fiber, coeffs, f, g):
    """One step on a dense vector: returns (fiber, coeffs) of v (x) v'."""
    s, t = f.fiber, g.fiber
    if spec.dim(s) == spec.dim(t):
        raise HypothesisViolationError("equal dimensions")
    if spec.dim(s) > spec.dim(t):
        f, g = g, f
        s, t = t, s
    r = fiber
    dim_s, dim_t, dim_r = spec.dim(s), spec.dim(t), spec.dim(r)
    field = spec.field
    phase = (
        spec.multiplier(t, r)
        * spec.multiplier(r, t).conj()
        * spec.multiplier(r, s)
        * spec.multiplier(s, r).conj()
    )
    constraint = [[field.zero] * dim_t for _ in range(dim_s)]
    for w in range(dim_r):
        j1, l1 = divmod(g.index * dim_r + w, dim_t)
        j2, l2 = divmod(f.index * dim_r + w, dim_s)
        c = coeffs[j1].conj() * coeffs[j2]
        if not c.is_zero():
            constraint[l2][l1] = constraint[l2][l1] + phase * c
    rows = [[x.conj() for x in row] for row in constraint]
    kernel = nullspace(rows, dim_t, field)
    if not kernel:
        raise HypothesisViolationError("no orthogonal extension")
    ext = kernel[0]
    mul_phase = spec.multiplier(r, t)
    out = [field.zero] * (dim_r * dim_t)
    for j, a in enumerate(coeffs):
        for l, b in enumerate(ext):
            if not (a.is_zero() or b.is_zero()):
                out[j * dim_t + l] = mul_phase * a * b
    return add_fibers(r, t), out


def dense_annihilating_vector(spec, instance):
    c = instance.shift_fiber
    fiber, coeffs = (0,) * spec.k, [spec.field.one]
    for x, y in instance.pairs:
        s_i = sub_degree(c, x.fiber)
        t_i = sub_degree(c, y.fiber)
        for f in spec.basis(s_i):
            for g in spec.basis(t_i):
                fiber, coeffs = dense_orthogonality_step(spec, fiber, coeffs, f, g)
    return dense_vector(spec, fiber, coeffs)


def _dense_size(spec, instance):
    """Dimension of the vector the construction reaches (0 if it must fail)."""
    c = instance.shift_fiber
    size = 1
    for x, y in instance.pairs:
        ds = spec.dim(sub_degree(c, x.fiber))
        dt = spec.dim(sub_degree(c, y.fiber))
        if ds == dt:
            return 0
        size *= max(ds, dt) ** (ds * dt)
    return size


def _outcome(build):
    try:
        return build()
    except HypothesisViolationError:
        return HypothesisViolationError


def _agrees_with_normal_form(spec, instance, w):
    """verify_annihilation(w) against the normal form of the expanded
    compression."""
    expanded = compressed_pair_element(spec, instance, w, 0)
    verdict = algebra.normal_form(expanded).is_zero()
    assert analysis.verify_annihilation(spec, instance, w) == verdict
    return verdict


def _check_instance(spec, instance, perturb_index):
    sparse = _outcome(lambda: analysis.annihilating_vector(spec, instance))
    dense = _outcome(lambda: dense_annihilating_vector(spec, instance))
    assert sparse == dense
    if sparse is HypothesisViolationError:
        return
    assert sparse.coeffs == dense.coeffs
    assert not sparse.is_zero()
    assert analysis.verify_annihilation(spec, instance, sparse)
    expanded = compressed_pair_element(spec, instance, sparse, 0)
    assert algebra.normal_form(expanded).is_zero()
    j = perturb_index % sparse.dim
    perturbed = dense_vector(
        spec,
        sparse.fiber,
        [c + spec.field.one if i == j else c for i, c in enumerate(sparse.coeffs)],
    )
    if not perturbed.is_zero():
        _agrees_with_normal_form(spec, instance, perturbed)


def _monomial(spec, fiber, seed):
    return BasisMonomial(fiber, seed % spec.dim(fiber))


ORACLE = settings(
    max_examples=25,
    deadline=None,
    derandomize=True,
    database=None,
    suppress_health_check=[HealthCheck.filter_too_much],
)


@settings(ORACLE, max_examples=50)
@given(
    st.sampled_from(sorted(SPECS)),
    st.sampled_from(FIBERS),
    st.sampled_from(FIBERS),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
    st.integers(0, 10**6),
)
def test_monomial_pairs_match_dense(name, fx, fy, i, j, perturb):
    spec = SPECS[name]
    assume(fx != fy)
    instance = analysis.annihilation_instance(
        spec, [(_monomial(spec, fx, i), _monomial(spec, fy, j))]
    )
    assume(_dense_size(spec, instance) <= DENSE_LIMIT)
    _check_instance(spec, instance, perturb)


@ORACLE
@given(
    st.lists(st.integers(-2, 2), min_size=2, max_size=2).filter(any),
    st.sampled_from([(0, 0), (0, 1)]),
    st.integers(0, 2),
    st.booleans(),
    st.integers(0, 10**6),
)
def test_vector_pairs_match_dense(coeffs, fy, j, vector_left, perturb):
    spec = SPECS["e23"]
    v = dense_vector(spec, (1, 0), coeffs)
    y = _monomial(spec, fy, j)
    pair = (v, y) if vector_left else (y, v)
    _check_instance(spec, analysis.annihilation_instance(spec, [pair]), perturb)


def _unit_coefficient(spec, data):
    """A nonzero Gaussian rational or a root of unity of the spec's field."""
    field = spec.field
    if data.draw(st.booleans()):
        re, im = data.draw(st.tuples(st.integers(-3, 3), st.integers(-3, 3)).filter(any))
        return field.gaussian(re, im, data.draw(st.integers(1, 3)))
    order = getattr(field, "order", 4)
    return field.root_of_unity(Fraction(data.draw(st.integers(0, order - 1)), order))


def _outcome_text(build):
    """The built vector as (fiber, dim, entries with the repr of each
    coefficient), or the message of the hypothesis violation raised."""
    try:
        v = build()
    except HypothesisViolationError as err:
        return str(err)
    return v.fiber, v.dim, {j: repr(c) for j, c in v.entries.items()}


def test_step_matches_dense_on_support_one():
    # the construction only ever meets vectors a e_j (see
    # test_construction_steps_keep_support_one), whose constraint matrix is
    # one diagonal run or none; the free column of every such vector of a
    # fiber r, times e(r;j) by the product rule, against the dense step,
    # which reduces the whole matrix.  Equal dimensions are refused by the
    # construction before its first step.
    outcomes = set()
    specs = {**SPECS, "q8": Q8}

    @settings(ORACLE, max_examples=150)
    @given(
        st.sampled_from(sorted(specs)),
        st.sampled_from(FIBERS + [(2, 1), (1, 2)]),
        st.sampled_from(FIBERS),
        st.sampled_from(FIBERS),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.integers(0, 10**6),
        st.data(),
    )
    def check(name, fr, fs, ft, i, j, k, data):
        spec = specs[name]
        dim_r = spec.dim(fr)
        a = _unit_coefficient(spec, data)
        v = BasisMonomial(fr, k % dim_r)
        f, g = _monomial(spec, fs, i), _monomial(spec, ft, j)
        coeffs = FiberVector(fr, dim_r, {v.index: a}, spec.field.zero).coeffs
        dense = _outcome(
            lambda: dense_vector(spec, *dense_orthogonality_step(spec, fr, coeffs, f, g))
        )
        dim_s, dim_t = spec.dim(fs), spec.dim(ft)
        if dim_s == dim_t:
            assert dense is HypothesisViolationError
            return
        if dim_s > dim_t:
            f, g, dim_s, dim_t = g, f, dim_t, dim_s
        col = analysis._orthogonality_step(v.index, dim_r, f.index, dim_s, g.index, dim_t)
        phase, w = spec.mul_basis(v, BasisMonomial(g.fiber, col))
        sparse = FiberVector(w.fiber, dim_r * dim_t, {w.index: phase * a}, spec.field.zero)
        assert sparse.coeffs == dense.coeffs
        outcomes.add("past the run" if col else "column 0")

    check()
    # every pair of distinct fibers of equal dimension, scheduled first by
    # an instance: the construction refuses it with the step's message
    for spec in specs.values():
        for fs in FIBERS:
            for ft in FIBERS:
                dim = spec.dim(fs)
                if fs == ft or dim != spec.dim(ft):
                    continue
                f, g = BasisMonomial(fs, 0), BasisMonomial(ft, 0)
                shift = max_fiber(fs, ft)
                instance = analysis.annihilation_instance(
                    spec, [(BasisMonomial(sub_degree(shift, fs), 0), BasisMonomial(sub_degree(shift, ft), 0))]
                )
                assert _outcome_text(lambda: analysis.annihilating_vector(spec, instance)) == (
                    f"scheduled pair ({f!r}, {g!r}) has fibers of equal dimension {dim}"
                )
                outcomes.add("equal dimensions")
    assert outcomes == {"equal dimensions", "past the run", "column 0"}


STEPWISE_SPECS = {**SPECS, "q8": Q8, "twf23": TWF23}
# the stepwise route costs about the square of its schedule: e23 at shift
# (3,3) schedules 108 * 72 steps, 0.26 s
STEPWISE_LIMIT = 8000


def _schedule_size(spec, instance):
    return sum(spec.dim(s) * spec.dim(t) for s, t in instance.schedule)


def _built(build):
    """The built vector, or the message of the hypothesis violation raised."""
    try:
        return build()
    except HypothesisViolationError as err:
        return str(err)


def _same_construction(spec, instance):
    """The construction against the fiber vector per step that it replaced:
    the same fiber, dimension and index, the same coefficient down to its
    repr on exact fields and within 1e-6 on float ones, whose phases the
    construction multiplies pairwise in closed form; a pair of equal
    dimensions must be refused with the same message."""
    jumped = _built(lambda: analysis.annihilating_vector(spec, instance))
    stepwise = _built(lambda: stepwise_annihilating_vector(spec, instance))
    if isinstance(jumped, str) or isinstance(stepwise, str):
        assert jumped == stepwise
        return
    assert (jumped.fiber, jumped.dim, jumped.entries.keys()) == (
        stepwise.fiber,
        stepwise.dim,
        stepwise.entries.keys(),
    )
    for j, coeff in jumped.entries.items():
        if spec.field.exact:
            assert repr(coeff) == repr(stepwise.entries[j])
        else:
            assert abs(coeff.value - stepwise.entries[j].value) < 1e-6


def test_construction_matches_stepwise():
    # on every spec, the float twist included, with one or two drawn pairs
    # and shifts up to (3,3); the schedule of a drawn instance is bounded
    seen = set()

    @settings(ORACLE, max_examples=100)
    @given(
        st.sampled_from(sorted(STEPWISE_SPECS)),
        st.lists(
            st.tuples(
                st.sampled_from(FIBERS),
                st.sampled_from(FIBERS),
                st.integers(0, 10**6),
                st.integers(0, 10**6),
            ),
            min_size=1,
            max_size=2,
        ),
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
    )
    # on e24 dim(2,0) = dim(0,1): refused as the first pair, and after a pair
    @example("e24", [((0, 1), (2, 0), 0, 0)], (0, 0))
    @example("e24", [((1, 0), (0, 1), 1, 2), ((0, 1), (2, 0), 0, 0)], (0, 0))
    # kill e(1,0;0) e(0,1;0) at the largest shift, and a larger spec
    @example("e23", [((1, 0), (0, 1), 0, 0)], (3, 3))
    @example("e34", [((1, 0), (0, 1), 2, 3), ((0, 0), (1, 1), 0, 5)], (1, 1))
    def check(name, drawn, shift):
        spec = STEPWISE_SPECS[name]
        pairs = [(_monomial(spec, fx, i), _monomial(spec, fy, j)) for fx, fy, i, j in drawn]
        assume(all(x.fiber != y.fiber for x, y in pairs))
        for x, y in pairs:
            shift = max_fiber(shift, max_fiber(x.fiber, y.fiber))
        instance = analysis.annihilation_instance(spec, pairs, shift)
        assume(_schedule_size(spec, instance) <= STEPWISE_LIMIT)
        _same_construction(spec, instance)
        seen.add(name)

    check()
    assert seen == set(STEPWISE_SPECS)


@pytest.mark.parametrize("shift", [(3, 3), (3, 4)])
def test_float_twisted_phase_is_the_exactly_reduced_pairing(shift):
    # the coefficient of kill e(1,0;0) e(0,1;0) on the float twist is the
    # root of unity of the theta pairing summed over the schedule, taken
    # exactly in Fractions, a float converting exactly, and reduced mod 1
    spec = TWF23
    theta = [[Fraction(x) for x in row] for row in spec.theta]

    def pairing(s, t):
        return sum(theta[a][b] * s[a] * t[b] for a in range(spec.k) for b in range(spec.k))

    x, y = spec.monomial((1, 0), 0), spec.monomial((0, 1), 0)
    instance = analysis.annihilation_instance(spec, [(x, y)], shift)
    (coeff,) = analysis.annihilating_vector(spec, instance).entries.values()
    total, fiber = Fraction(0), (0,) * spec.k
    for s, t in instance.schedule:
        u = s if spec.dim(s) > spec.dim(t) else t
        n = spec.dim(s) * spec.dim(t)
        # omega(r + i u, u) over i < n, omega being bilinear
        total += n * pairing(fiber, u) + n * (n - 1) // 2 * pairing(u, u)
        fiber = tuple(r + n * e for r, e in zip(fiber, u))
    assert abs(coeff.value - cmath.exp(2j * math.pi * float(total % 1))) < 1e-12


def test_jump_reaches_zero_one_and_several_moves(monkeypatch):
    # the steps the construction computes and those among them that move
    # the vector (a column past 0), against the stepwise route: no pairs;
    # kill e(1,0;0) e(0,1;0), whose 6 scheduled steps move it at step 0;
    # and on e23 the pairs (e(0,1;0), e(1,0;0)) and (e(1,0;0), I) at shift
    # (1,1), whose 24 scheduled steps move it at steps 0 and 14
    spec = SPECS["e23"]
    step = analysis._orthogonality_step
    cases = [
        ([], None, 0, 0),
        ([(spec.monomial((1, 0), 0), spec.monomial((0, 1), 0))], None, 2, 1),
        (
            [
                (spec.monomial((0, 1), 0), spec.monomial((1, 0), 0)),
                (spec.monomial((1, 0), 0), spec.identity_monomial),
            ],
            (1, 1),
            3,
            2,
        ),
    ]
    for pairs, shift, computed, moves in cases:
        columns = []

        def recorded(*args):
            columns.append(step(*args))
            return columns[-1]

        instance = analysis.annihilation_instance(spec, pairs, shift)
        with monkeypatch.context() as patch:
            patch.setattr(analysis, "_orthogonality_step", recorded)
            _same_construction(spec, instance)
        assert len(columns) == computed
        assert sum(1 for col in columns if col) == moves


def _sparse_vector(spec, data, fiber):
    """A vector of the fiber with 1-3 support indices, or fewer when the
    fiber is smaller, each with a nonzero drawn coefficient."""
    dim = spec.dim(fiber)
    size = data.draw(st.integers(1, min(3, dim)))
    indices = data.draw(st.sets(st.integers(0, dim - 1), min_size=size, max_size=size))
    entries = {j: _unit_coefficient(spec, data) for j in sorted(indices)}
    return FiberVector(fiber, dim, entries, spec.field.zero)


def _oracle_member(spec, data, fiber):
    """The zero vector of the fiber, a basis monomial or a drawn vector."""
    if data.draw(st.integers(0, 3)) == 0:
        return FiberVector(fiber, spec.dim(fiber), {}, spec.field.zero)
    return _drawn_pair_member(spec, data, fiber)


def _oracle_w(spec, instance, kind, data):
    """The constructed vector, it with 1-2 entries changed (support 1-3), a
    drawn vector of support 1-3 or the zero vector."""
    if kind == "random":
        return _sparse_vector(spec, data, data.draw(st.sampled_from(FIBERS)))
    if kind == "zero":
        fiber = data.draw(st.sampled_from(FIBERS))
        return FiberVector(fiber, spec.dim(fiber), {}, spec.field.zero)
    try:
        w = analysis.annihilating_vector(spec, instance)
    except HypothesisViolationError:
        assume(False)
    if kind == "perturbed":
        (index,) = w.entries
        entries = dict(w.entries)
        for _ in range(data.draw(st.integers(1, 2))):
            # next to the vector's index, where its pieces' ranges lie, or anywhere
            near = data.draw(st.booleans())
            j = (index if near else 0) + data.draw(st.integers(0, 2 if near else 10**6))
            j %= w.dim
            entries[j] = entries.get(j, spec.field.zero) + _unit_coefficient(spec, data)
        w = FiberVector(w.fiber, w.dim, entries, spec.field.zero)
    return w


def test_check_matches_composition():
    # the check by index ranges against composing the pieces' step
    # operators, which it replaced: the same verdict on every spec, the
    # float twist included, for vectors of wider support whose pieces may
    # cancel, pairs of vectors and zero vectors
    verdicts = set()

    @settings(ORACLE, max_examples=200)
    @given(
        st.sampled_from(sorted(STEPWISE_SPECS)),
        st.lists(
            st.tuples(st.sampled_from(FIBERS), st.sampled_from(FIBERS)),
            min_size=1,
            max_size=2,
        ),
        st.tuples(st.integers(0, 2), st.integers(0, 2)),
        st.sampled_from(["constructed", "perturbed", "random", "zero"]),
        st.data(),
    )
    def check(name, fibers, shift, kind, data):
        spec = STEPWISE_SPECS[name]
        assume(all(fx != fy for fx, fy in fibers))
        pairs = [(_oracle_member(spec, data, fx), _oracle_member(spec, data, fy)) for fx, fy in fibers]
        for fx, fy in fibers:
            shift = max_fiber(shift, max_fiber(fx, fy))
        instance = analysis.annihilation_instance(spec, pairs, shift)
        w = _oracle_w(spec, instance, kind, data)
        verdict = analysis.verify_annihilation(spec, instance, w)
        assert verdict is composed_annihilation(spec, instance, w)
        verdicts.add(verdict)

    check()
    assert verdicts == {True, False}



def test_check_sums_pieces_that_cancel():
    # kill e(1,0;0) e(0,1;0) on dims 2 3 has L_out = 2 and L_in = 3, and for
    # w of support {0, 2, 3} the piece pairs (0, 0) and (3, 2) give one run:
    # 0 * 2 - 0 * 3 = 3 * 2 - 2 * 3.  Every other pair's run falls outside
    # the window once dim(w) = 27, so the product is that run alone, with
    # coefficient conj(w_0) w_0 + conj(w_3) w_2 up to a phase: zero for
    # (i, -1, 1), and not for (i, -2, 1) or without the conjugate
    for spec in (SPECS["e23"], SPECS["tw23"]):
        field = spec.field
        i = field.gaussian(0, 1, 1)
        instance = analysis.annihilation_instance(
            spec, [(spec.monomial((1, 0), 0), spec.monomial((0, 1), 0))]
        )
        for w_2, verdict in ((-1, True), (-2, False)):
            entries = {0: i, 2: field.gaussian(w_2, 0, 1), 3: field.one}
            w = FiberVector((0, 3), 27, entries, field.zero)
            assert _agrees_with_normal_form(spec, instance, w) is verdict
            assert composed_annihilation(spec, instance, w) is verdict


CHECK_SPECS = {
    "e23": SPECS["e23"],
    "e32": SPECS["e32"],
    # 2 and 4 share a factor, so the levels follow fibers, not dimensions
    "e24": SPECS["e24"],
    "tw23": SPECS["tw23"],
    "q8": Q8,
}
SMALL_FIBERS = [(0, 0), (1, 0), (0, 1), (1, 1)]
SHIFT_EXTRAS = [(0, 0), (0, 0), (1, 0), (0, 1)]


def _drawn_vector(spec, data, fiber):
    """A nonzero vector of any support in the fiber."""
    dim = spec.dim(fiber)
    coeffs = data.draw(st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any))
    return dense_vector(spec, fiber, coeffs)


def _support(x):
    return len(x.entries) if isinstance(x, FiberVector) else 1


def _drawn_pair_member(spec, data, fiber):
    if data.draw(st.booleans()):
        return _monomial(spec, fiber, data.draw(st.integers(0, 10**6)))
    return _drawn_vector(spec, data, fiber)


def test_restricted_check_matches_normal_form():
    # the check composes only the schedule's pairs in the step model, on
    # twisted specs too; the expanded compression's normal form decides
    # independently, for any w and for shifts above the minimal one
    verdicts = []

    @settings(ORACLE, max_examples=200)
    @given(
        st.sampled_from(sorted(CHECK_SPECS)),
        st.sampled_from(FIBERS[:5]),
        st.sampled_from(FIBERS[:5]),
        st.sampled_from(SHIFT_EXTRAS),
        st.sampled_from(["drawn", "constructed", "perturbed"]),
        st.data(),
    )
    def check(name, fx, fy, extra, kind, data):
        spec = CHECK_SPECS[name]
        assume(fx != fy)
        x, y = _drawn_pair_member(spec, data, fx), _drawn_pair_member(spec, data, fy)
        shift = add_fibers(tuple(max(a, b) for a, b in zip(fx, fy)), extra)
        instance = analysis.annihilation_instance(spec, [(x, y)], shift)
        if kind == "drawn":
            w = _drawn_vector(spec, data, data.draw(st.sampled_from(SMALL_FIBERS)))
        else:
            assume(0 < _dense_size(spec, instance) <= DENSE_LIMIT)
            w = analysis.annihilating_vector(spec, instance)
            if kind == "perturbed":
                j = data.draw(st.integers(0, 10**6)) % w.dim
                entries = dict(w.entries)
                entries[j] = entries.get(j, spec.field.zero) + spec.field.one
                w = FiberVector(w.fiber, w.dim, entries, spec.field.zero)
        # the expanded compression has about this many term products
        assume(spec.dim(shift) * _support(w) ** 2 * _support(x) * _support(y) <= 1000)
        verdicts.append(_agrees_with_normal_form(spec, instance, w))

    check()
    assert set(verdicts) == {True, False}


def test_dense_reference_on_known_instances():
    spec = SPECS["e23"]
    instance = analysis.annihilation_instance(
        spec, [(spec.monomial((1, 0), 0), spec.monomial((0, 1), 0))]
    )
    w = dense_annihilating_vector(spec, instance)
    assert w.fiber == (0, 6)
    assert w == analysis.annihilating_vector(spec, instance)
    # a perturbed vector that no longer annihilates, decided by both routes
    instance = analysis.annihilation_instance(
        spec, [(spec.identity_monomial, spec.monomial((1, 0), 1))]
    )
    w = dense_annihilating_vector(spec, instance)
    perturbed = dense_vector(spec, w.fiber, [c + spec.field.one for c in w.coeffs])
    assert _agrees_with_normal_form(spec, instance, w) is True
    assert _agrees_with_normal_form(spec, instance, perturbed) is False


def test_twisted_verification_of_a_large_compression():
    # on tw23 the expanded compression of a non-annihilating vector of
    # dimension 27 has degree blocks of about 1.3*10^8 cells; the check
    # never forms it and composes the schedule's three pairs of isometries
    spec = SPECS["tw23"]
    instance = analysis.annihilation_instance(
        spec, [(spec.identity_monomial, spec.monomial((0, 1), 0))]
    )
    w = analysis.annihilating_vector(spec, instance)
    assert w.dim == 27
    assert analysis.verify_annihilation(spec, instance, w) is True
    one = spec.field.one
    perturbed = dense_vector(
        spec, w.fiber, [c + one if i in (0, 5) else c for i, c in enumerate(w.coeffs)]
    )
    assert analysis.verify_annihilation(spec, instance, perturbed) is False
