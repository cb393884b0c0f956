"""The dense *-subalgebra spanned by products i(x) i(y)*.

Elements are finite sums  sum c * e(s;j) e(t;l)'  with scalar coefficients
from the system's field.  Multiplication rewrites inner products of adjoint
pairs back into the spanning family:

    i(y')* i(x')  =  sum_{x in B_s, y in B_t} <x'.y, y'.x> i(x) i(y)*

(s the fiber of x', t the fiber of y'), which for basis monomials leaves at
most dim(s) surviving terms along a stride.  ``multiply`` finds them as one
window of index arithmetic per pair of inner monomials; the degree, the
product fibers and the phases of a fiber quadruple (x fiber, s, y fiber, t)
are cached on the spec, so products on one spec compute them once.  On the
exact fields the rewrite phase and the two basis phases fold into one
factor, so a term pair costs at most two field multiplications; on float
they stay three factors in a fixed order, so a product keeps its rounding
whether the cache was cold or warm.  Zero and equality testing go
through ``normal_form``, which raises the terms of each degree g to one
bidegree (c, c - g) as diagonal runs (see ``runs``).  They vanish exactly
when the element is zero: the monomials at one bidegree are linearly
independent whenever the system admits a nontrivial Cuntz representation,
as every twisted lexicographic system, the only kind the engine builds, does.

``equals(a, b)`` decides a = b in O_E, exactly on the exact fields, as
``normal_form(a - b)`` would; the relation checks of ``morphisms`` rest on it.
"""

from __future__ import annotations

from itertools import groupby
from typing import Iterable, NamedTuple

from .runs import raise_terms
from .system import (
    BasisMonomial,
    SystemSpec,
    add_fibers,
    max_fiber,
    same_system,
    sub_degree,
)


class Term(NamedTuple):
    coeff: object
    left: BasisMonomial
    right: BasisMonomial


def _term_sort_key(t: Term):
    degree = sub_degree(t.left.fiber, t.right.fiber)
    return (degree, t.left.fiber, t.left.index, t.right.index)


class AlgebraElement:
    """An immutable finite sum of terms c * e(left) e(right)'.

    Terms are kept merged, zero-pruned and canonically sorted (by degree,
    then left fiber, then indices), so ``==`` is structural identity of the
    canonical form.  Semantic equality in the algebra is ``equals``.

    An element is valid by construction: ``AlgebraElement(spec, term_map)``,
    and ``from_terms`` through it, passes both monomials of every key to
    ``spec.monomial``, so each fiber is in N^k and each index an int below
    the fiber's dimension.  Every key is checked, never one per fiber:
    (1.0, 0) hashes and compares like (1, 0).  The package's kernels build
    their results from checked monomials with ``_canonical`` and
    ``_from_map``, which check nothing, and no later operation checks again.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: SystemSpec, term_map: dict):
        monomial = spec.monomial
        for x, y in term_map:
            monomial(*x)
            monomial(*y)
        self.spec = spec
        self.terms = AlgebraElement._from_map(spec, term_map).terms

    @classmethod
    def _canonical(cls, spec: SystemSpec, terms) -> "AlgebraElement":
        """An element of terms that are already merged, nonzero and sorted."""
        out = cls.__new__(cls)
        out.spec = spec
        out.terms = tuple(terms)
        return out

    @classmethod
    def _from_map(cls, spec: SystemSpec, term_map: dict) -> "AlgebraElement":
        """The element of a {(left, right): coeff} map whose monomials are
        checked or built from checked ones: zeros pruned, terms sorted."""
        terms = [Term(c, x, y) for (x, y), c in term_map.items() if not c.is_zero()]
        terms.sort(key=_term_sort_key)
        return cls._canonical(spec, terms)

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_terms(spec: SystemSpec, triples: Iterable) -> "AlgebraElement":
        acc: dict = {}
        field = spec.field
        for coeff, x, y in triples:
            c = field.coerce(coeff)
            key = (x, y)
            cur = acc.get(key)
            acc[key] = c if cur is None else cur + c
        return AlgebraElement(spec, acc)

    # -- linear structure ---------------------------------------------------

    def _require_same(self, other: "AlgebraElement"):
        if not same_system(self.spec, other.spec):
            raise ValueError("elements belong to different systems")

    def __add__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same(other)
        acc = {(x, y): c for c, x, y in self.terms}
        add_terms(acc, other.terms, 1)
        return AlgebraElement._from_map(self.spec, acc)

    def __sub__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        # negation keeps the terms distinct, nonzero and in canonical order
        return AlgebraElement._canonical(
            self.spec, [Term(-c, x, y) for c, x, y in self.terms]
        )

    def scaled(self, coeff) -> "AlgebraElement":
        # scaling keeps the terms distinct and in canonical order
        c = self.spec.field.coerce(coeff)
        terms = [Term(c * t.coeff, t.left, t.right) for t in self.terms]
        return AlgebraElement._canonical(
            self.spec, [t for t in terms if not t.coeff.is_zero()]
        )

    def adjoint(self) -> "AlgebraElement":
        return AlgebraElement._from_map(
            self.spec, {(t.right, t.left): t.coeff.conj() for t in self.terms}
        )

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return same_system(self.spec, other.spec) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "AlgebraElement<0>"
        parts = [f"{t.coeff!r}*{t.left!r}{t.right!r}'" for t in self.terms[:4]]
        more = "" if len(self.terms) <= 4 else f" ... ({len(self.terms)} terms)"
        return "AlgebraElement<" + " + ".join(parts) + more + ">"


def add_terms(acc: dict, terms, sign: int) -> None:
    """Add ``sign`` (+1 or -1) times the (coeff, left, right) terms of one
    element into the {(left, right): coeff} map ``acc``, dropping a key the
    moment its coefficient sums to zero: the rule for every sum of
    elements.  A sum built so, one element at a time, prunes as adding the
    elements one by one does; on float a residue below the zero tolerance
    is dropped, not carried into later additions.
    """
    for c, x, y in terms:
        key = (x, y)
        cur = acc.get(key)
        if cur is None:
            acc[key] = c if sign > 0 else -c
            continue
        total = cur + c if sign > 0 else cur - c
        if total.is_zero():
            del acc[key]
        else:
            acc[key] = total


def zero(spec: SystemSpec) -> AlgebraElement:
    return AlgebraElement._canonical(spec, ())


def identity(spec: SystemSpec) -> AlgebraElement:
    e = spec.identity_monomial
    return AlgebraElement._canonical(spec, [Term(spec.field.one, e, e)])


def monomial_pair(spec, x: BasisMonomial, y: BasisMonomial, coeff=1) -> AlgebraElement:
    return AlgebraElement(spec, {(x, y): spec.field.coerce(coeff)})


def isometry(spec, x: BasisMonomial) -> AlgebraElement:
    """The generator element i(x) = e(x) * identity'."""
    return monomial_pair(spec, x, spec.identity_monomial)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


_UNSEEN = object()


def _window(spec: SystemSpec, y_prime: BasisMonomial, x_prime: BasisMonomial):
    """The survivors of i(y')* i(x') as one window, or None if there are none.

    With s the fiber of x' and t that of y', the survivors are the pairs
    (e(s;lx), e(t;base+lx)) for lo <= lx < hi; the window is returned as
    (s, t, dim_s, dim_t, base, lo, hi).  It is index arithmetic only: every
    survivor carries the rewrite phase omega(s,t) * conj(omega(t,s)), which
    depends on the fibers alone (see ``_fiber_data``).  Equal fibers leave
    <x'|y'> times the identity,
    returned as the one-survivor window of the zero fiber.  Both fibers
    must be valid.
    """
    s, t = x_prime.fiber, y_prime.fiber
    if s == t:
        if x_prime.index != y_prime.index:
            return None
        e = spec.identity_monomial.fiber
        return e, e, 1, 1, 0, 0, 1
    dim_s, dim_t = spec._dim(s), spec._dim(t)
    base = y_prime.index * dim_s - x_prime.index * dim_t
    # survivors are the lx with 0 <= base + lx < dim_t
    lo, hi = max(0, -base), min(dim_s, dim_t - base)
    if lo >= hi:
        return None
    return s, t, dim_s, dim_t, base, lo, hi


def rewrite_pair(
    spec: SystemSpec, y_prime: BasisMonomial, x_prime: BasisMonomial
) -> AlgebraElement:
    """Expand i(y')* i(x') in the spanning family: the product of the
    one-term elements i(y')* and i(x'), whose survivors are one window (see
    ``_window``) in canonical order.

    When the fibers agree this collapses to <x'|y'> times the identity.
    Otherwise the surviving terms are exactly the basis pairs (x, y) with
    index(x'.y) == index(y'.x), each carrying the phase
    omega(s,t) * conj(omega(t,s)).
    """
    spec.monomial(*y_prime)
    spec.monomial(*x_prime)
    e, one = spec.identity_monomial, spec.field.one
    return _term_product(spec, Term(one, e, y_prime), Term(one, x_prime, e))


def _keyed_element(spec: SystemSpec, acc: dict) -> AlgebraElement:
    """The element of {(degree, left fiber, left index, right fiber, right
    index): coeff}; the keys sort in the canonical term order, since the
    degree and the left fiber fix the right fiber.  Terms share their
    monomials, one per distinct (fiber, index), which must be built from
    checked ones."""
    monomials: dict = {}
    terms = []
    for (_, fx, ix, fy, iy), c in sorted(acc.items()):
        if c.is_zero():
            continue
        x = monomials.get((fx, ix))
        if x is None:
            x = monomials[(fx, ix)] = BasisMonomial(fx, ix)
        y = monomials.get((fy, iy))
        if y is None:
            y = monomials[(fy, iy)] = BasisMonomial(fy, iy)
        terms.append(Term(c, x, y))
    return AlgebraElement._canonical(spec, terms)


def _fiber_data(spec: SystemSpec, x: BasisMonomial, y: BasisMonomial, window):
    """(degree, x.s, y.t, factors) of a survivor window of x ... y*: the
    data of its fiber quadruple (x fiber, s, y fiber, t), whose fibers are
    valid, computed once into the spec's ``fiber_quads`` cache.  No other
    code reads or writes that cache.

    ``factors`` are the scalars that multiply a term coefficient c_a*c_b:
    none when untwisted; on an exact field the one product of the rewrite
    phase omega(s,t) * conj(omega(t,s)), omega(x, s) and conj(omega(y, t)),
    or none when that is one; on float the three of them in that order, so
    float products keep their rounding.  Both fibers of the identity window
    are zero, so its rewrite phase is the field's one, float bits included.
    """
    quad = (x.fiber, window[0], y.fiber, window[1])
    data = spec.fiber_quads.get(quad)
    if data is None:
        xf, s, yf, t = quad
        fx, fy = add_fibers(xf, s), add_fibers(yf, t)
        factors = ()
        if spec.is_twisted:
            phase = spec._phase
            factors = (phase(s, t) * phase(t, s).conj(), phase(xf, s), phase(yf, t).conj())
            if spec.field.exact:
                folded = factors[0] * factors[1] * factors[2]
                factors = () if folded.is_one() else (folded,)
        data = spec.fiber_quads[quad] = sub_degree(fx, fy), fx, fy, factors
    return data


def _term_product(spec: SystemSpec, ta: Term, tb: Term) -> AlgebraElement:
    """The product of two one-term elements.

    Its survivors have distinct monomials and come in canonical order, so
    it needs no dict and no sort; the coefficient is built as ``multiply``
    builds it and pruned as ``_keyed_element`` prunes it.  The identity
    window keeps the input monomials.
    """
    ca, x, ya = ta
    cb, xb, y = tb
    window = _window(spec, ya, xb)
    if window is None:
        return zero(spec)
    _, fx, fy, factors = _fiber_data(spec, x, y, window)
    coeff = ca * cb
    for f in factors:
        coeff = coeff * f
    if coeff.is_zero():
        return zero(spec)
    s, t, dim_s, dim_t, base, lo, hi = window
    if s == t:
        return AlgebraElement._canonical(spec, [Term(coeff, x, y)])
    i0 = x.index * dim_s
    j0 = y.index * dim_t + base
    terms = [
        Term(coeff, BasisMonomial(fx, i0 + lx), BasisMonomial(fy, j0 + lx))
        for lx in range(lo, hi)
    ]
    return AlgebraElement._canonical(spec, terms)


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The product a*b, one survivor window per pair of terms.

    A term pair (c_a x y_a*) (c_b x_b y*) contributes the survivors of
    i(y_a)* i(x_b), mapped to e(x.s; x.index*dim_s + lx) e(y.t;
    y.index*dim_t + base + lx)' with the coefficient c_a*c_b times the
    rewrite phase, omega(x, s) and conj(omega(y, t)).  Windows are computed
    once per pair of inner monomials; the degree, the fibers x.s and y.t
    and the phases once per fiber quadruple (x fiber, s, y fiber, t), in
    the spec's ``fiber_quads`` cache, so later products on the spec reuse
    them.  On exact fields the three phases are folded into one factor, so
    a term pair costs at most two field multiplications; the survivors
    cost index arithmetic only.  A product of two one-term elements skips
    the dicts and the sort (see ``_term_product``).
    """
    a._require_same(b)
    spec = a.spec
    if len(a.terms) == 1 and len(b.terms) == 1:
        return _term_product(spec, a.terms[0], b.terms[0])
    windows: dict = {}
    acc: dict = {}
    for ca, x, ya in a.terms:
        for cb, xb, y in b.terms:
            key = (ya.fiber, ya.index, xb.fiber, xb.index)
            window = windows.get(key, _UNSEEN)
            if window is _UNSEEN:
                window = windows[key] = _window(spec, ya, xb)
            if window is None:
                continue
            s, t, dim_s, dim_t, base, lo, hi = window
            g, fx, fy, factors = _fiber_data(spec, x, y, window)
            coeff = ca * cb
            for f in factors:
                coeff = coeff * f
            i0 = x.index * dim_s
            j0 = y.index * dim_t + base
            for lx in range(lo, hi):
                k = (g, fx, i0 + lx, fy, j0 + lx)
                cur = acc.get(k)
                acc[k] = coeff if cur is None else cur + coeff
    return _keyed_element(spec, acc)


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------


class NormalForm:
    """Canonical run data of an element: per degree g a block (c, runs).

    The runs are the sweep (see ``runs``) of the raised terms, in term
    order; a run ``(row0, col0, length, coeff)`` puts ``coeff`` on the
    entries e(c;row0+f) e(c-g;col0+f)' for f < length.  Blocks without runs
    are dropped, so the element is zero exactly when ``blocks`` is empty.
    """

    __slots__ = ("spec", "blocks")

    def __init__(self, spec: SystemSpec, blocks: dict):
        self.spec = spec
        self.blocks = blocks  # degree -> (c, tuple of runs)

    def is_zero(self) -> bool:
        return not self.blocks

    def __repr__(self):
        keys = ", ".join(str(k) for k in sorted(self.blocks))
        return f"NormalForm<degrees: {keys or '0 (empty)'}>"


def _raised_blocks(spec: SystemSpec, terms) -> dict:
    """The nonzero blocks {degree: (c, runs)} of the (coeff, left, right)
    terms, in degree order: ``runs.raise_terms`` keyed by degree."""
    tops: dict = {}  # degree -> c, the max of its left fibers

    def place(pairs):
        degrees = [sub_degree(fx, fy) for fx, fy in pairs]
        for (fx, _), g in zip(pairs, degrees):
            tops[g] = max_fiber(tops[g], fx) if g in tops else fx
        out = []
        for (fx, fy), g in zip(pairs, degrees):
            r = sub_degree(tops[g], fx)
            phase = None
            if spec.is_twisted:
                # an exact phase of one is skipped; float keeps its product
                phase = spec._phase(fx, r) * spec._phase(fy, r).conj()
                if spec.field.exact and phase.is_one():
                    phase = None
            out.append((g, spec._dim(r), phase))
        return out

    raised = raise_terms(terms, place)
    return {g: (tops[g], raised[g]) for g in sorted(raised) if raised[g]}


def normal_form(a: AlgebraElement) -> NormalForm:
    # the canonical term order keeps the terms of one fiber pair together,
    # so the runs of each degree are raised in term order
    return NormalForm(a.spec, _raised_blocks(a.spec, a.terms))


def expand_normal_form(nf: NormalForm) -> AlgebraElement:
    """Rebuild an element from its normal form runs, one term per entry;
    swept runs are disjoint, so the entries are distinct."""
    acc = {}
    for degree, (c, runs) in nf.blocks.items():
        c_right = sub_degree(c, degree)
        for row0, col0, length, coeff in runs:
            for f in range(length):
                acc[BasisMonomial(c, row0 + f), BasisMonomial(c_right, col0 + f)] = coeff
    return AlgebraElement._from_map(nf.spec, acc)


def equals(a: AlgebraElement, b: AlgebraElement) -> bool:
    """Equality in the algebra: structural fast path, then normal form.

    The terms of b are subtracted from those of a by ``add_terms``, and
    the rest are raised and swept as ``normal_form`` would do with a - b,
    without building a - b as an element.
    """
    a._require_same(b)
    if a.terms == b.terms:
        return True
    acc = {(t.left, t.right): t.coeff for t in a.terms}
    add_terms(acc, b.terms, -1)
    return not _raised_blocks(a.spec, ((c, x, y) for (x, y), c in acc.items()))


# ---------------------------------------------------------------------------
# gauge expectation and shift endomorphisms
# ---------------------------------------------------------------------------


def gauge_expectation(a: AlgebraElement) -> AlgebraElement:
    """Projection onto the degree-zero terms (the gauge-invariant part)."""
    return AlgebraElement._canonical(
        a.spec, [t for t in a.terms if t.left.fiber == t.right.fiber]
    )


def shift_endomorphism(a: AlgebraElement, s) -> AlgebraElement:
    """sum over the basis f of the fiber s of  i(f) a i(f)*.

    A term c x y* becomes the terms c' (f.x)(f.y)*, where f.x has index
    f*dim(x) + x.index and c' = c omega(s, x) conj(omega(s, y)) is the same
    for every f; fibers and phases are computed once per fiber pair (x, y).
    The images step by dim(x) on the left and dim(y) on the right, so they
    are strided, not a diagonal run, and each is its own term: a shift by s
    costs dim(s) terms per term.  They are distinct and come out in
    canonical order: the terms of one fiber pair are contiguous in
    ``a.terms``, and within a pair image f of every term precedes image f + 1.
    """
    spec = a.spec
    s = spec.check_fiber(s)
    if not a.terms:
        return a  # alpha_s(0) = 0, however large dim(s) is
    n = spec._dim(s)
    terms = []
    for (xf, yf), group in groupby(a.terms, key=lambda t: (t.left.fiber, t.right.fiber)):
        group = [(t.coeff, t.left.index, t.right.index) for t in group]
        # untwisted phases are the field's one; a float product may be zero
        if spec.is_twisted:
            ph_l, ph_r = spec._phase(s, xf), spec._phase(s, yf).conj()
            group = [(c * ph_l * ph_r, i, j) for c, i, j in group]
            group = [(c, i, j) for c, i, j in group if not c.is_zero()]
        fx, fy = add_fibers(s, xf), add_fibers(s, yf)
        dim_x, dim_y = spec._dim(xf), spec._dim(yf)
        for f in range(n):
            terms += [
                Term(c, BasisMonomial(fx, f * dim_x + i), BasisMonomial(fy, f * dim_y + j))
                for c, i, j in group
            ]
    return AlgebraElement._canonical(spec, terms)
