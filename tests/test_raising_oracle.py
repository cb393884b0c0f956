"""The normal form is the step model keyed by degree.

``algebra.normal_form`` raises the terms of a degree g to the bidegree
(c, c - g), and ``steprep.evaluate`` at base level N raises a term of right
fiber t by the stripe N/dim(t).  The fill dim(c - fx) of a raised term is
dim(c - g)/dim(fy), so a normal-form block is the step evaluation at level
dim(c - g): scaling its runs by N/dim(c - g) and summing them into the
output level N*dim(c)/dim(c - g) rebuilds ``evaluate(a, N)``.  The two share
the builder ``runs.raise_terms`` but not its placements, so the rebuild
checks each placement against the other, cell by cell.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import algebra, scalars
from cuntzlab.runs import sweep
from cuntzlab.steprep import evaluate, minimal_level
from cuntzlab.system import SystemSpec

from conftest import PRODUCT_SPECS, random_element

SPECS = {name: spec for name, spec in PRODUCT_SPECS.items() if not spec.is_twisted}
SPECS["e24"] = SystemSpec((2, 4))
SPECS["e222"] = SystemSpec((2, 2, 2))


def levels_from_normal_form(a, base_level):
    """{output level: swept runs} rebuilt from ``normal_form(a)``."""
    spec = a.spec
    by_level: dict = {}
    for c, d, runs in algebra.normal_form(a).pairs:
        scale = Fraction(base_level, spec.dim(d))
        level = scale * spec.dim(c)
        assert level.denominator == 1, "the output level is not an integer"
        pieces = by_level.setdefault(int(level), [])
        for row0, col0, length, coeff in runs:
            ends = [row0 * scale, col0 * scale, length * scale]
            assert all(e.denominator == 1 for e in ends), "a scaled endpoint is not an integer"
            pieces.append((*(int(e) for e in ends), coeff))
    return {level: sweep(pieces) for level, pieces in by_level.items()}


def cells(runs):
    return {(r + u, c + u): v for r, c, n, v in runs for u in range(n)}


def same_cells(got, want, field):
    """Equal on the exact fields; within the tolerance on float, a missing
    cell counting as zero."""
    if field is scalars.FLOAT:
        value = lambda d, k: d[k].value if k in d else 0
        return all(abs(value(got, k) - value(want, k)) < 1e-9 for k in got.keys() | want.keys())
    return got == want


def cancelling(spec, rng, a):
    """a minus a times the Cuntz sum of a fiber: zero, spelled in raised terms."""
    fiber = tuple(rng.randint(0, 1) for _ in range(spec.k))
    one = spec.field.one
    cuntz = algebra.AlgebraElement.from_terms(spec, [(one, x, x) for x in spec.basis(fiber)])
    return a - algebra.multiply(a, cuntz)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(SPECS)),
    st.integers(0, 10**6),
    st.sampled_from([1, 2, 6]),
    st.sampled_from(["plain", "zero", "half"]),
)
def test_evaluate_rebuilt_from_normal_form(name, seed, multiple, shape):
    spec = SPECS[name]
    rng = random.Random(seed)
    a = random_element(spec, rng, nterms=rng.randint(1, 4))
    if shape == "zero":
        a = cancelling(spec, rng, a)
    elif shape == "half":
        a = a + cancelling(spec, rng, random_element(spec, rng, nterms=2))
    if not a.terms:
        return
    base_level = minimal_level(a) * multiple
    family = evaluate(a, base_level)
    rebuilt = levels_from_normal_form(a, base_level)
    assert set(rebuilt) <= set(family.blocks)
    for level, op in family.blocks.items():
        assert same_cells(cells(rebuilt.get(level, ())), op.entries, spec.field), level
    if shape == "zero":
        assert not rebuilt and family.is_zero()
