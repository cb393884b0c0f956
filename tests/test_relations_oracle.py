"""``morphisms.check_relations`` against the pairwise relation check.

``pairwise_check_relations`` is the check as first written: every ordered
pair of images in a slot is multiplied, so a slot of d images costs d^2
products plus the range sum.  ``check_relations`` multiplies each pair only
when a slot's isometry or range-sum check fails, or when the target field
is float; on randomly corrupted assignments both must return the identical
report: the verdict, every violation in the same order, and the count.
"""

import math
import random

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
from cuntzlab.system import SystemSpec, parse_spec_text

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


def _assignments():
    tw23 = parse_spec_text("k = 2\ndims = 2 3\ntheta = 0 1/4 0 0\nscalars = cyclotomic:4\n")
    f23 = SystemSpec((2, 3), theta=[[0, math.sqrt(2) - 1], [0, 0]], scalar_mode="float")
    iso22, iso13 = factor_iso(2, 2), factor_iso(1, 3)
    return {
        "e23": canonical_assignment(SystemSpec((2, 3))),
        "e212": canonical_assignment(SystemSpec((2, 1, 2))),
        "tw23": canonical_assignment(tw23),
        "f23": canonical_assignment(f23),
        "iso22-forward": iso22.forward,
        "iso22-backward": iso22.backward,
        "iso13-backward": iso13.backward,
    }


ASSIGNMENTS = _assignments()
CORRUPTIONS = ["scale", "duplicate", "swap-within", "swap-across", "add-term"]


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
    return GeneratorAssignment(source, target, images)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
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
    for assignment in ASSIGNMENTS.values():
        report = check_relations(assignment.source, assignment)
        assert report.ok
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
