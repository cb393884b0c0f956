"""Generator assignments and induced *-homomorphisms.

A representation of the algebra in another algebra is pinned down by where
the generator isometries go.  This module checks the defining relations for a
proposed assignment, extends verified assignments to arbitrary basis
monomials and algebra elements, and builds the explicit isomorphism that
absorbs one generator dimension into another (``factor_iso``) together with
a round-trip verifier.  On an exact target the relations of a slot of d
images cost d isometry products and the range sum, not d^2 products, and a
slot whose images are its fiber's basis forwards or backwards times a unit
costs none, nor does a pair of such slots that run the same way (see
``check_relations``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

from . import algebra
from .algebra import AlgebraElement
from .runs import cells
from .system import (
    BasisMonomial,
    ConfigurationError,
    SystemSpec,
    add_fibers,
    same_system,
)


# ---------------------------------------------------------------------------
# Assignments and relation checking.


@dataclass(frozen=True)
class RelationReport:
    """Outcome of checking the defining relations for an assignment.

    ``violations`` names every failed instance; ``ok`` is their absence.
    """

    ok: bool
    violations: tuple
    checked: int


class GeneratorAssignment:
    """A choice of target image for every generator isometry.

    ``images`` maps ``(a, i)`` to an element of the algebra of the
    ``target`` spec, where ``a`` is the 1-based generator slot and
    ``0 <= i < m_a`` indexes its basis.  The relation report is computed
    lazily and cached; extension to monomials refuses to run until the
    report is clean.
    """

    def __init__(self, source: SystemSpec, target: SystemSpec, images: dict):
        expected = {
            (a, i)
            for a in range(1, source.k + 1)
            for i in range(source.gen_dims[a - 1])
        }
        got = set(images)
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            parts = []
            if missing:
                parts.append(f"missing images for {missing[:4]}")
            if extra:
                parts.append(f"unexpected keys {extra[:4]}")
            raise ConfigurationError("; ".join(parts))
        self.source = source
        self.target = target
        self.images = dict(images)
        self._report = None

    def image(self, a: int, i: int):
        return self.images[a, i]

    def report(self) -> RelationReport:
        if self._report is None:
            self._report = check_relations(self.source, self)
        return self._report

    def verified(self) -> bool:
        return self.report().ok


def canonical_assignment(spec: SystemSpec) -> GeneratorAssignment:
    """The identity assignment of a spec onto its own algebra."""
    images = {
        (a, i): algebra.isometry(spec, spec.monomial(spec.unit_fiber(a - 1), i))
        for a in range(1, spec.k + 1)
        for i in range(spec.gen_dims[a - 1])
    }
    return GeneratorAssignment(spec, spec, images)


def _monomial_family(target: SystemSpec, us: list):
    """(f, sigma, c) when the images ``us`` form a monomial family that
    passes its slot checks: each ``us[i]`` the one run (alpha + sigma*i, 0,
    1, c) of the fiber pair (f, 0) of the target, c i(e(f; alpha +
    sigma*i)), with d = dim f images, c conj(c) = 1, and the basis of f
    forwards (sigma = 1, alpha = 0) or backwards (sigma = -1, alpha = d -
    1); else None."""
    if any(
        len(u.pairs) != 1 or len(u.pairs[0][2]) != 1 or not same_system(u.spec, target)
        for u in us
    ):
        return None
    e = target.identity_monomial.fiber
    f, _, ((alpha, _, _, c),) = us[0].pairs[0]
    d = len(us)
    sigma = -1 if alpha else 1
    if d != target._dim(f) or alpha not in (0, d - 1) or not (c * c.conj()).is_one():
        return None
    for i, u in enumerate(us):
        fx, fy, ((r, col, n, v),) = u.pairs[0]
        if (fx, fy, r, col, n) != (f, e, alpha + sigma * i, 0, 1) or not (v is c or v == c):
            return None
    return f, sigma, c


def check_relations(spec: SystemSpec, assignment: GeneratorAssignment) -> RelationReport:
    """Check every defining relation instance and name the failures.

    Within each generator slot: isometry ``U'U = I``, pairwise orthogonality
    of ranges, and the full range sum ``sum_i U U' = I``.  Across slots the
    images must commute the same way the source isometries do, including the
    scalar ratio a twisted source imposes, taken in the target's field; an
    instance whose ratio that field lacks holds only if both of its products
    are zero.  Violations are report entries,
    not exceptions, and ``checked`` counts d^2 + 1 instances per slot of d
    images and d_a d_b per slot pair.

    On an exact target a slot costs d isometry checks and the range sum.
    They imply orthogonality in any C*-algebra: with P_i = U_i U_i' the
    range projections sum to 1, so P_i = P_i (sum_j P_j) P_i gives
    sum_{j != i} (P_j P_i)'(P_j P_i) = 0, the P_i are mutually orthogonal,
    and U_i' U_j = U_i' P_i P_j U_j = 0 for i != j.  ``normal_form``
    decides equality in O_E exactly, so the d + 1 checks establish all
    d^2 + 1 instances.  The other image pairs are multiplied only when a
    slot check fails, to name every violation, and always on a float
    target, where a range sum within tolerance bounds orthogonality only
    loosely.

    On an exact target a slot that ``_monomial_family`` accepts, U(a,i) =
    c i(x_i) with (x_i) the basis of f forwards or backwards and c a unit,
    holds with no product: U(a,i)' U(a,j) = <x_i|x_j>, and the range sum is
    the Cuntz sum of f.  By ``SystemSpec.mul_basis``, U(a,i) U(b,j) is c_a
    c_b omega(f_a, f_b) times the basis isometry of index idx(x_i) d_b +
    idx(y_j) of f_a + f_b, and U(b,p) U(a,q) is c_b c_a omega(f_b, f_a)
    times that of idx(y_p) d_a + idx(x_q).  With k = i d_b + j = p d_a + q
    both indices are k when both slots run forwards and d_a d_b - 1 - k
    when both run backwards; a slot of one image runs either way.  Basis
    isometries are linearly independent, so such a pair holds exactly when
    omega(f_a, f_b) = ratio omega(f_b, f_a), omega the target's multiplier.
    Any other slot or pair, a ratio the field lacks and a float target take
    the products above, so every violation is named.
    """
    target = assignment.target
    one = algebra.identity(target)
    nothing = algebra.zero(target)
    exact = target.field.exact
    theta = spec.theta if spec.is_twisted else None
    dims = spec.gen_dims
    checked = sum(d * d + 1 for d in dims) + sum(d_a * d_b for d_a, d_b in combinations(dims, 2))
    violations = []
    families = {}
    for a in range(1, spec.k + 1):
        d_a = dims[a - 1]
        us = [assignment.image(a, i) for i in range(d_a)]
        family = _monomial_family(target, us) if exact else None
        if family is not None:
            families[a] = family
            continue
        isometries = [algebra.equals(algebra.multiply(u.adjoint(), u), one) for u in us]
        acc: dict = {}
        for u in us:
            algebra.add_runs(acc, algebra.multiply(u, u.adjoint()), 1)
        range_sum = algebra.equals(algebra.summed(target, acc), one)
        if exact and all(isometries) and range_sum:
            continue
        for i in range(d_a):
            for j in range(d_a):
                if i == j:
                    if not isometries[i]:
                        violations.append(f"isometry: U({a},{i})' U({a},{i}) != I")
                elif not algebra.equals(algebra.multiply(us[i].adjoint(), us[j]), nothing):
                    violations.append(f"orthogonality: U({a},{i})' U({a},{j}) != 0")
        if not range_sum:
            violations.append(f"range sum: sum_i U({a},i) U({a},i)' != I")
    for a in range(1, spec.k + 1):
        d_a = dims[a - 1]
        for b in range(a + 1, spec.k + 1):
            d_b = dims[b - 1]
            # exp(2*pi*i*(theta_ab - theta_ba)) in the target's field; float
            # angles convert exactly
            angle = Fraction(theta[a - 1][b - 1]) - Fraction(theta[b - 1][a - 1]) if theta else 0
            try:
                ratio = target.field.root_of_unity(angle)
            except ValueError:  # the field lacks it: nonzero images cannot commute by it
                ratio = None
            if ratio is not None and a in families and b in families:
                (f_a, sigma_a, _), (f_b, sigma_b, _) = families[a], families[b]
                same_way = sigma_a == sigma_b or d_a == 1 or d_b == 1
                if same_way and target._phase(f_a, f_b) == ratio * target._phase(f_b, f_a):
                    continue
            for i in range(d_a):
                for j in range(d_b):
                    # U(a,i) U(b,j) lands on basis slot i*d_b + j of the
                    # mixed fiber; the reversed order reaches the same slot
                    # as p*d_a + q.
                    p, q = divmod(i * d_b + j, d_a)
                    lhs = algebra.multiply(assignment.image(a, i), assignment.image(b, j))
                    rhs = algebra.multiply(assignment.image(b, p), assignment.image(a, q))
                    if ratio is None:
                        holds = algebra.equals(lhs, nothing) and algebra.equals(rhs, nothing)
                    else:
                        # an untwisted pair's exact ratio is the field's one
                        if not (exact and ratio is target.field.one):
                            rhs = rhs.scaled(ratio)
                        holds = algebra.equals(lhs, rhs)
                    if not holds:
                        violations.append(
                            f"commutation: U({a},{i}) U({b},{j}) != "
                            f"ratio * U({b},{p}) U({a},{q})"
                        )
    return RelationReport(not violations, tuple(violations), checked)


def _require_verified(assignment: GeneratorAssignment):
    report = assignment.report()
    if not report.ok:
        raise ValueError(
            "assignment does not satisfy the generator relations; refusing "
            "to extend (first failure: " + report.violations[0] + ")"
        )


def extend(spec: SystemSpec, assignment: GeneratorAssignment, x: BasisMonomial, order=None):
    """Image of a basis monomial under the verified assignment.

    The monomial is peeled into generator digits along ``order`` (a 1-based
    permutation of the generator slots; default is slot order) and the digit
    images are multiplied left to right; a monomial with no digits maps to
    the identity.  For a twisted source the peeled product differs from
    ``x`` by the multiplier phase accumulated along the digits, so that
    phase is conjugated back in; the result is therefore independent of the
    chosen order.  On an untwisted source the phase stays one and is never
    computed.
    """
    if not same_system(spec, assignment.source):
        raise ValueError("monomial does not belong to the assignment's source")
    _require_verified(assignment)
    slots = None if order is None else tuple(int(a) - 1 for a in order)
    out = None
    phase, fiber = spec.field.one, (0,) * spec.k
    for slot0, digit in spec.factor_monomial(x, slots):
        if spec.is_twisted:
            e_a = spec.unit_fiber(slot0)
            phase = phase * spec.multiplier(fiber, e_a)
            fiber = add_fibers(fiber, e_a)
        image = assignment.image(slot0 + 1, digit)
        out = image if out is None else algebra.multiply(out, image)
    if out is None:
        return algebra.identity(assignment.target)
    if not phase == spec.field.one:
        out = out.scaled(phase.conj())
    return out


def map_element(assignment: GeneratorAssignment, element: AlgebraElement):
    """Image of an algebra element under the induced *-homomorphism."""
    _require_verified(assignment)
    if not same_system(element.spec, assignment.source):
        raise ValueError("element does not belong to the assignment's source")
    source, field = assignment.source, assignment.target.field
    acc: dict = {}
    # cell by cell in the element's order, so float images sum in it
    for fx, fy, runs in element.pairs:
        for i, j, v in cells(runs):
            left = extend(source, assignment, BasisMonomial(fx, i))
            right = extend(source, assignment, BasisMonomial(fy, j))
            image = algebra.multiply(left, right.adjoint())
            c = field.coerce(v)
            # an exact coefficient of one scales nothing
            if not (field.exact and c.is_one()):
                image = image.scaled(c)
            algebra.add_runs(acc, image, 1)
    return algebra.summed(assignment.target, acc)


# ---------------------------------------------------------------------------
# The dimension-absorbing isomorphism.  The system with generator dimensions
# (m, m*n) embeds its second family as products "second then first" inside
# the system with dimensions (m, n), and that map is invertible.


@dataclass(frozen=True)
class IsomorphismPair:
    """Mutually inverse assignments between two untwisted rank-2 systems.

    ``forward`` maps the (m, m*n) system into the algebra of the (m, n)
    system; ``backward`` goes the other way.
    """

    forward: GeneratorAssignment
    backward: GeneratorAssignment


def factor_iso(m: int, n: int) -> IsomorphismPair:
    """Isomorphism pair between the (m, m*n) and (m, n) systems.

    Forward images: the first family goes to the first family, and the x-th
    second-slot isometry goes to the x-th basis isometry of the mixed fiber
    (1, 1).  Backward images: the first family comes back identically, and
    the j-th second-slot isometry of the small system is the sum over l of
    the second-slot isometry at slot j*m + l times the adjoint of the l-th
    first-slot isometry, the m terms e((0,1); j*m + l) e((1,0); l)' built
    as their one run (j*m, 0, m, 1) of the fiber pair ((0,1), (1,0)).
    For m = 1 the pair degenerates consistently: the
    single first-slot range projection is the identity.
    """
    if m < 1 or n < 1:
        raise ValueError("generator dimensions are positive integers")
    big = SystemSpec((m, m * n))
    small = SystemSpec((m, n))
    fwd_images = {}
    for i in range(m):
        fwd_images[1, i] = algebra.isometry(small, small.monomial((1, 0), i))
    for x in range(m * n):
        fwd_images[2, x] = algebra.isometry(small, small.monomial((1, 1), x))
    bwd_images = {}
    for i in range(m):
        bwd_images[1, i] = algebra.isometry(big, big.monomial((1, 0), i))
    for j in range(n):
        run = (j * m, 0, m, big.field.one)
        bwd_images[2, j] = AlgebraElement._canonical(big, [((0, 1), (1, 0), (run,))])
    return IsomorphismPair(
        GeneratorAssignment(big, small, fwd_images),
        GeneratorAssignment(small, big, bwd_images),
    )


def verify_roundtrip(pair: IsomorphismPair) -> bool:
    """Check that the two assignments are mutually inverse on generators.

    Relation reports for both assignments are computed first.  A pair whose
    assignments break the generator relations cannot consist of mutually
    inverse *-homomorphisms, so it verifies as False without attempting the
    composition; the named failures stay available on the reports.  The True
    answer states that composing the maps in both orders fixes every
    generator isometry, which pins the composites down as identity maps on
    the whole algebra.
    """
    for assignment in (pair.forward, pair.backward):
        if not assignment.report().ok:
            return False
    for there, back in ((pair.forward, pair.backward), (pair.backward, pair.forward)):
        spec = there.source
        for a in range(1, spec.k + 1):
            for i in range(spec.gen_dims[a - 1]):
                image = map_element(back, there.image(a, i))
                fixed = algebra.isometry(spec, spec.monomial(spec.unit_fiber(a - 1), i))
                if not algebra.equals(image, fixed):
                    return False
    return True


# ---------------------------------------------------------------------------
# Plain-text serialization: one "(a,i) = <expression>" line per generator.


def parse_assignment(
    source: SystemSpec, target_spec: SystemSpec, text: str
) -> GeneratorAssignment:
    """Parse ``(a,i) = <expression>`` lines into an assignment.

    Expressions are parsed against ``target_spec``.  Every generator of the
    source must receive exactly one line; duplicates and malformed left-hand
    sides are configuration errors.
    """
    from . import expr

    images: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, sep, body = line.partition("=")
        if not sep:
            raise ConfigurationError(f"line {lineno}: expected '(a,i) = <expression>'")
        head = head.strip()
        if not (head.startswith("(") and head.endswith(")")):
            raise ConfigurationError(f"line {lineno}: malformed generator key {head!r}")
        try:
            a_text, i_text = head[1:-1].split(",")
            key = (int(a_text), int(i_text))
        except ValueError:
            raise ConfigurationError(
                f"line {lineno}: malformed generator key {head!r}"
            ) from None
        if key in images:
            raise ConfigurationError(f"line {lineno}: duplicate image for {key}")
        images[key] = expr.parse_element(target_spec, body.strip())
    return GeneratorAssignment(source, target_spec, images)
