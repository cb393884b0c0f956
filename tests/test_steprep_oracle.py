"""Step operators on runs against the per-entry dicts they replaced.

``dict_evaluate`` is ``steprep.evaluate`` as first written: every term
writes one dict entry per cell of its stripe, so it costs the level and
only runs at small levels.  Operators were dicts {(row, col): scalar}
composed by ``linalg.sparse_matmul`` and compared and transposed by the
two functions below.  The run form must give every block the same
entries: equal on the exact fields, the identical complex number on the
float field.
"""

import cmath
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import algebra, linalg, scalars
from cuntzlab.scalars import RationalComplex, common_field, cyclotomic_field, field_of
from cuntzlab.steprep import CharacterTwist, StepOperator, evaluate, minimal_level
from cuntzlab.system import SystemSpec, sub_degree

from conftest import random_coeff, random_element

SPECS = {
    "e23": SystemSpec((2, 3)),
    "e24": SystemSpec((2, 4)),
    "f23": SystemSpec((2, 3), scalar_mode="float"),
}
_K8 = cyclotomic_field(8)
TWISTS = [
    None,
    CharacterTwist([RationalComplex(-1), RationalComplex(0, 1)]),
    CharacterTwist([_K8.zeta_power(1), _K8.zeta_power(3)]),
]
FLOAT_TWIST = CharacterTwist(
    [scalars.FloatComplex(cmath.exp(0.3j)), scalars.FloatComplex(-1)]
)

ORACLE = settings(max_examples=30, deadline=None, derandomize=True, database=None)


def dict_evaluate(a, base_level, twist=None):
    """{level_out: entries} with one dict entry per stripe cell."""
    spec = a.spec
    field = spec.field
    if twist is not None:
        for v in twist.values:
            field = common_field(field, field_of(v))
    blocks = {}
    for t in a.terms:
        coeff = t.coeff
        if twist is not None:
            phase = twist.phase(sub_degree(t.left.fiber, t.right.fiber))
            coeff = field.coerce(phase) * field.coerce(coeff)
        stripe = base_level // spec.dim(t.right.fiber)
        entries = blocks.setdefault(stripe * spec.dim(t.left.fiber), {})
        row0, col0 = t.left.index * stripe, t.right.index * stripe
        for u in range(stripe):
            key = (row0 + u, col0 + u)
            cur = entries.get(key)
            entries[key] = coeff if cur is None else cur + coeff
    return {
        lv: {k: v for k, v in e.items() if not v.is_zero()} for lv, e in blocks.items()
    }


def dict_conj_transpose(a):
    return {(c, r): v.conj() for (r, c), v in a.items()}


def dict_equal(a, b):
    for key in a.keys() | b.keys():
        va, vb = a.get(key), b.get(key)
        if va is None:
            if not vb.is_zero():
                return False
        elif vb is None:
            if not va.is_zero():
                return False
        elif not (va - vb).is_zero():
            return False
    return True


def _same_entries(runs, entries):
    assert runs.keys() == entries.keys()
    for key, v in entries.items():
        if isinstance(v, scalars.FloatComplex):
            assert repr(runs[key].value) == repr(v.value)
        else:
            assert runs[key] == v


def _cancelling_element(spec, rng):
    """An element the step model sends to zero: a Cuntz sum minus I, or a
    dimension-collision witness on e24."""
    if spec.gen_dims == (2, 4) and rng.random() < 0.5:
        return algebra.isometry(spec, spec.monomial((2, 0), 0)) - algebra.isometry(
            spec, spec.monomial((0, 1), 0)
        )
    fiber = rng.choice([(1, 0), (0, 1), (1, 1)])
    acc = algebra.identity(spec).scaled(-1)
    for x in spec.basis(fiber):
        s = algebra.isometry(spec, x)
        acc = acc + algebra.multiply(s, s.adjoint())
    return acc


@ORACLE
@given(
    st.sampled_from(sorted(SPECS)),
    st.integers(0, 10**6),
    st.sampled_from([1, 2, 8]),
    st.integers(0, len(TWISTS)),
    st.booleans(),
)
def test_blocks_match_per_entry_evaluation(name, seed, mult, twist_index, cancel):
    spec = SPECS[name]
    rng = random.Random(seed)
    a = random_element(spec, rng, nterms=rng.randint(1, 5))
    if cancel:
        a = a + _cancelling_element(spec, rng)
    twist = FLOAT_TWIST if twist_index == len(TWISTS) else TWISTS[twist_index]
    level = minimal_level(a) * mult
    family = evaluate(a, level, twist=twist)
    want = dict_evaluate(a, level, twist)
    # a block whose entries all cancel keeps its output level
    assert family.blocks.keys() == want.keys()
    for lv, op in family.blocks.items():
        assert (op.level_in, op.level_out) == (level, lv)
        _same_entries(op.entries, want[lv])
        assert op.is_zero() == (not want[lv])
    assert family.is_zero() == all(not e for e in want.values())


def _random_entries(spec, rng, rows, cols):
    """A dict with a few scalars, some of them zero, and some diagonal
    stripes so that runs of several cells meet in products."""
    out = {}
    for _ in range(rng.randint(0, 6)):
        out[(rng.randrange(rows), rng.randrange(cols))] = random_coeff(spec, rng)
    for _ in range(rng.randint(0, 2)):
        r, c = rng.randrange(rows), rng.randrange(cols)
        coeff = random_coeff(spec, rng)
        for u in range(min(rows - r, cols - c, rng.randint(1, 4))):
            out[(r + u, c + u)] = coeff
    if out and rng.random() < 0.3:
        out[next(iter(out))] = spec.field.zero
    return out


def _nonzero(entries):
    return {k: v for k, v in entries.items() if not v.is_zero()}


@ORACLE
@given(st.sampled_from(["e23", "e24"]), st.integers(0, 10**6))
def test_operators_match_dict_route(name, seed):
    spec = SPECS[name]
    rng = random.Random(seed)
    n_in, n_mid, n_out = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
    a = _random_entries(spec, rng, n_out, n_mid)
    b = _random_entries(spec, rng, n_mid, n_in)
    op_a, op_b = StepOperator(n_mid, n_out, a), StepOperator(n_in, n_mid, b)
    assert op_a.entries == _nonzero(a)
    assert op_a.is_zero() == (not _nonzero(a))
    assert op_a.compose(op_b).entries == linalg.sparse_matmul(a, b)
    assert op_a.conj_transpose().entries == _nonzero(dict_conj_transpose(a))
    # equal against itself rewritten, against a moved entry, and across levels
    other = dict(a)
    if other and rng.random() < 0.5:
        key = rng.choice(sorted(other))
        other[key] = other[key] + random_coeff(spec, rng)
    if rng.random() < 0.5:
        other[(rng.randrange(n_out), rng.randrange(n_mid))] = spec.field.zero
    assert op_a.equal(StepOperator(n_mid, n_out, other)) == dict_equal(a, other)
    assert not op_a.equal(StepOperator(n_mid + 1, n_out, a))


@ORACLE
@given(st.sampled_from(["e23", "e24"]), st.integers(0, 10**6))
def test_block_products_match_dict_route(name, seed):
    # blocks of evaluated elements are runs of many cells
    spec = SPECS[name]
    rng = random.Random(seed)
    a = random_element(spec, rng, nterms=3, max_sum=1)
    b = random_element(spec, rng, nterms=3, max_sum=1)
    mb = minimal_level(b)
    level = minimal_level(a) * mb * mb
    for lv_mid, op_b in evaluate(b, level).blocks.items():
        for op_a in evaluate(a, lv_mid).blocks.values():
            product = op_a.compose(op_b)
            want = linalg.sparse_matmul(op_a.entries, op_b.entries)
            assert product.entries == want
            assert product.equal(StepOperator(level, op_a.level_out, want))
            star = op_a.conj_transpose()
            assert star.entries == dict_conj_transpose(op_a.entries)
            assert star.conj_transpose().equal(op_a)
