"""``morphisms.check_relations`` against the pairwise relation check.

``pairwise_check_relations`` is the check as first written: every ordered
pair of images in a slot is multiplied, so a slot of d images costs d^2
products plus the range sum, and every commutation instance two.
``check_relations`` decides with no product a slot that is its fiber's
basis forwards or backwards times a unit, and a pair of such slots that run
the same way, and multiplies pairs only when a slot's isometry or
range-sum check fails, or when the target field is float; on randomly
corrupted assignments both must return the identical report: the verdict,
every violation in the same order, and the count.  The corruptions include
the ways a monomial family breaks: a permuted slot, an image index off by
one, one image times a unit, and a whole slot times 2; a whole slot times a
unit stays valid.  Families whose slots run opposite ways break their
commutation relations, and a family slot of every size up to 4, forwards
and backwards, is compared with the pairwise check.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuntzlab import algebra
from cuntzlab.morphisms import (
    GeneratorAssignment,
    RelationReport,
    canonical_assignment,
    check_relations,
    factor_iso,
)
from cuntzlab.system import BasisMonomial, SystemSpec, parse_spec_text

from conftest import random_coeff, random_monomial


def pairwise_check_relations(spec, assignment) -> RelationReport:
    one = algebra.identity(assignment.target)
    nothing = algebra.zero(assignment.target)
    violations = []
    checked = 0
    for a in range(1, spec.k + 1):
        d_a = spec.gen_dims[a - 1]
        us = [assignment.image(a, i) for i in range(d_a)]
        for i in range(d_a):
            for j in range(d_a):
                checked += 1
                prod = algebra.multiply(us[i].adjoint(), us[j])
                if i == j:
                    if not algebra.equals(prod, one):
                        violations.append(f"isometry: U({a},{i})' U({a},{i}) != I")
                elif not algebra.equals(prod, nothing):
                    violations.append(
                        f"orthogonality: U({a},{i})' U({a},{j}) != 0"
                    )
        total = nothing
        for i in range(d_a):
            total = total + algebra.multiply(us[i], us[i].adjoint())
        checked += 1
        if not algebra.equals(total, one):
            violations.append(f"range sum: sum_i U({a},i) U({a},i)' != I")
    for a in range(1, spec.k + 1):
        e_a = spec.unit_fiber(a - 1)
        d_a = spec.gen_dims[a - 1]
        for b in range(a + 1, spec.k + 1):
            e_b = spec.unit_fiber(b - 1)
            d_b = spec.gen_dims[b - 1]
            ratio = spec.multiplier(e_a, e_b) * spec.multiplier(e_b, e_a).conj()
            for i in range(d_a):
                for j in range(d_b):
                    checked += 1
                    # U(a,i) U(b,j) lands on basis slot i*d_b + j of the
                    # mixed fiber; the reversed order reaches the same slot
                    # as p*d_a + q.
                    p, q = divmod(i * d_b + j, d_a)
                    lhs = algebra.multiply(assignment.image(a, i), assignment.image(b, j))
                    rhs = algebra.multiply(assignment.image(b, p), assignment.image(a, q))
                    if not algebra.equals(lhs, rhs.scaled(ratio)):
                        violations.append(
                            f"commutation: U({a},{i}) U({b},{j}) != "
                            f"ratio * U({b},{p}) U({a},{q})"
                        )
    return RelationReport(not violations, tuple(violations), checked)


def family(spec, backwards, units=None):
    """The assignment U(a,i) = c_a i(e(e_a; x)) of ``spec`` onto itself,
    x = d_a - 1 - i for the slots in ``backwards`` and x = i for the rest,
    c_a the field's one unless ``units`` gives it."""
    images = {}
    for a, d in enumerate(spec.gen_dims, start=1):
        c = spec.field.one if units is None else units[a - 1]
        for i in range(d):
            x = spec.monomial(spec.unit_fiber(a - 1), d - 1 - i if a in backwards else i)
            images[a, i] = algebra.monomial_pair(spec, x, spec.identity_monomial, c)
    return GeneratorAssignment(spec, spec, images)


def _assignments():
    tw23 = parse_spec_text("k = 2\ndims = 2 3\ntheta = 0 1/4 0 0\nscalars = cyclotomic:4\n")
    f23 = SystemSpec((2, 3), theta=[[0, math.sqrt(2) - 1], [0, 0]], scalar_mode="float")
    iso22, iso13, iso33 = factor_iso(2, 2), factor_iso(1, 3), factor_iso(3, 3)
    # a twisted monomial family with reversed indices and unit coefficients,
    # which satisfies the relations
    units = (tw23.field.root_of_unity(Fraction(1, 4)), -tw23.field.one)
    e23 = SystemSpec((2, 3))
    return {
        "e23": canonical_assignment(e23),
        "e212": canonical_assignment(SystemSpec((2, 1, 2))),
        "tw23": canonical_assignment(tw23),
        "tw23-reversed": family(tw23, {1, 2}, units),
        "f23": canonical_assignment(f23),
        "iso22-forward": iso22.forward,
        "iso22-backward": iso22.backward,
        "iso13-backward": iso13.backward,
        "iso33-forward": iso33.forward,
        # monomial families that break the relations: slots that run
        # opposite ways, the target's twist not the source's, a slot short
        # of its fiber, and single images off the start of a fiber
        "e23-mixed": family(e23, {2}),
        "tw23-mixed": family(tw23, {2}),
        "e23-into-tw23": GeneratorAssignment(e23, tw23, canonical_assignment(tw23).images),
        "e22-into-e23": GeneratorAssignment(
            SystemSpec((2, 2)),
            e23,
            {
                (a, i): algebra.isometry(e23, e23.monomial(e23.unit_fiber(a - 1), i))
                for a in (1, 2)
                for i in range(2)
            },
        ),
        "e11-into-e23": GeneratorAssignment(
            SystemSpec((1, 1)),
            e23,
            {
                (1, 0): algebra.isometry(e23, e23.monomial((1, 0), 1)),
                (2, 0): algebra.isometry(e23, e23.monomial((0, 1), 0)),
            },
        ),
    }


ASSIGNMENTS = _assignments()
BROKEN = {"e23-mixed", "tw23-mixed", "e23-into-tw23", "e22-into-e23", "e11-into-e23"}
CORRUPTIONS = [
    "scale",
    "duplicate",
    "swap-within",
    "swap-across",
    "add-term",
    "permute-slot",
    "off-by-one",
    "unit",
    "unit-slot",
    "scale-slot",
]


def _off_by_one(target, image, step):
    """``image`` with every left index moved by ``step`` within its fiber."""
    terms = []
    for coeff, x, y in image.terms:
        index = (x.index + step) % target.dim(x.fiber)
        terms.append((coeff, BasisMonomial(x.fiber, index), y))
    return algebra.AlgebraElement.from_terms(target, terms)


def corrupted(assignment, kinds, rng):
    source, target = assignment.source, assignment.target
    images = dict(assignment.images)
    slots = sorted(images)
    for kind in kinds:
        a, i = key = rng.choice(slots)
        same_slot = [k for k in slots if k[0] == a and k != key]
        other_slot = [k for k in slots if k[0] != a]
        if kind == "scale":
            factor = rng.choice([2, -1, random_coeff(target, rng)])
            images[key] = images[key].scaled(factor)
        elif kind == "duplicate" and same_slot:
            images[key] = images[rng.choice(same_slot)]
        elif kind == "swap-within" and same_slot:
            other = rng.choice(same_slot)
            images[key], images[other] = images[other], images[key]
        elif kind == "swap-across" and other_slot:
            other = rng.choice(other_slot)
            images[key], images[other] = images[other], images[key]
        elif kind == "add-term":
            x, y = random_monomial(target, rng, 2), random_monomial(target, rng, 2)
            images[key] = images[key] + algebra.monomial_pair(
                target, x, y, random_coeff(target, rng)
            )
        elif kind == "permute-slot":
            keys = [k for k in slots if k[0] == a]
            moved = [images[k] for k in keys]
            rng.shuffle(moved)
            images.update(zip(keys, moved))
        elif kind == "off-by-one":
            images[key] = _off_by_one(target, images[key], rng.choice([1, -1]))
        elif kind in ("unit", "unit-slot", "scale-slot"):
            if kind == "scale-slot":
                factor = 2
            else:
                factor = rng.choice([-target.field.one, target.field.root_of_unity(Fraction(1, 4))])
            for k in [key] if kind == "unit" else [k for k in slots if k[0] == a]:
                images[k] = images[k].scaled(factor)
    return GeneratorAssignment(source, target, images)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from(sorted(ASSIGNMENTS)),
    st.lists(st.sampled_from(CORRUPTIONS), max_size=2),
    st.integers(0, 10**6),
)
def test_report_matches_pairwise_check(name, kinds, seed):
    assignment = corrupted(ASSIGNMENTS[name], kinds, random.Random(seed))
    report = check_relations(assignment.source, assignment)
    assert report == pairwise_check_relations(assignment.source, assignment)


def test_valid_assignments_verify():
    for name, assignment in ASSIGNMENTS.items():
        report = check_relations(assignment.source, assignment)
        assert report.ok == (name not in BROKEN)
        assert report == pairwise_check_relations(assignment.source, assignment)


def test_isometries_without_range_sum_are_caught():
    # every image an isometry, but two ranges coincide: the range sum fails,
    # and the pairwise pass then names the orthogonality violations too
    assignment = corrupted(ASSIGNMENTS["e23"], ["duplicate"], random.Random(3))
    report = check_relations(assignment.source, assignment)
    assert not report.ok
    assert any(v.startswith("orthogonality") for v in report.violations)
    assert any(v.startswith("range sum") for v in report.violations)
    assert report == pairwise_check_relations(assignment.source, assignment)


def test_every_corruption_on_every_assignment():
    # each corruption kind on each assignment, three draws apiece; a whole
    # slot times a unit keeps an exact assignment valid, and a whole slot
    # times 2 breaks that slot but none of its commutation instances
    for name, assignment in ASSIGNMENTS.items():
        for kind in CORRUPTIONS:
            for seed in range(3):
                broken = corrupted(assignment, [kind], random.Random(seed))
                report = check_relations(broken.source, broken)
                assert report == pairwise_check_relations(broken.source, broken), (name, kind)
                if kind == "unit-slot" and broken.target.field.exact:
                    assert report.ok == assignment.report().ok, name
                if kind == "scale-slot" and assignment.report().ok:
                    assert not report.ok, name
                    assert not any(v.startswith("commutation") for v in report.violations)


def test_mixed_directions_break_every_commutation_instance():
    for name in ("e23-mixed", "tw23-mixed"):
        report = check_relations(ASSIGNMENTS[name].source, ASSIGNMENTS[name])
        assert report.checked == 21
        assert len(report.violations) == 6
        assert all(v.startswith("commutation") for v in report.violations)


@pytest.mark.parametrize("twisted", [False, True], ids=["rational", "cyclotomic:4"])
def test_family_directions_match_pairwise_check(twisted):
    # every pair of slot sizes up to 4, each slot forwards or backwards: the
    # relations hold when both run the same way or one has a single image
    for d_a in range(1, 5):
        for d_b in range(1, 5):
            if twisted:
                spec = SystemSpec(
                    (d_a, d_b), theta=[[0, Fraction(1, 4)], [0, 0]], scalar_mode="cyclotomic:4"
                )
            else:
                spec = SystemSpec((d_a, d_b))
            for backwards in (set(), {1}, {2}, {1, 2}):
                assignment = family(spec, backwards)
                report = check_relations(spec, assignment)
                assert report == pairwise_check_relations(spec, assignment), (d_a, d_b, backwards)
                same_way = len(backwards) != 1 or d_a == 1 or d_b == 1
                assert report.ok == same_way, (d_a, d_b, backwards)
