"""The dense *-subalgebra spanned by products i(x) i(y)*.

Elements are finite sums  sum c * e(s;j) e(t;l)'  with scalar coefficients
from the system's field, held per fiber pair (s, t) as diagonal runs: a
run ``(row0, col0, length, c)`` of the pair is the sum of c e(s;row0+u)
e(t;col0+u)' for u < length, the run format of ``runs``.  The runs of a
fiber pair are maximal (on float only identical bits merge), so a Cuntz
sum  sum_{x in B_f} i(x) i(x)*  is one run and costs one run in every
sum, zero test and evaluation, whatever dim(f) is.
Every sum adds a cell's contributions in order and drops the cell at the
end if it is zero, so float sums keep the bits of entry sums; the cells
(c, x, y) of ``from_terms`` are summed so too, as one-entry runs.
``AlgebraElement.terms`` expands the runs into terms, on demand, in the
cell order of ``runs.cells``: the term view of the benchmark and the tests,
which no path of the package reads.

Multiplication rewrites inner products of adjoint pairs back into the
spanning family:

    i(y')* i(x')  =  sum_{x in B_s, y in B_t} <x'.y, y'.x> i(x) i(y)*

(s the fiber of x', t the fiber of y'), which for basis monomials leaves at
most dim(s) surviving terms along a stride.  Along a pair of runs the
strides line up: a run of a times a run of b is the first run raised by s
composed with the second raised by t, at most one run (``_piece``), so
``multiply`` costs its run pairs and the sum of their pieces, never the
run lengths.  Everything but that interval arithmetic and the coefficient
product belongs to the fiber quadruple (x fiber, s, y fiber, t) of a
pair of fiber pairs: dim(s), dim(t), the product fibers and the phases.
``multiply`` finds it once per pair of fiber pairs, not per run pair, and
the product fibers and phases are cached on the spec, so products on one
spec compute them once.  The loops keep the order of the entry pairs, a's
runs outer and b's pairs inner, so a float cell adds its products in the
order the term list would: two of b's pairs can meet a's pair on one
output pair, and the other order would add one of them first.  On the
exact fields the rewrite phase and the two basis phases fold into one
factor, so a run pair costs at most two field multiplications; on float
they stay three factors in a fixed order, so a product keeps its rounding
whether the cache was cold or warm.
Zero and equality testing go through ``normal_form``, which raises the runs of
each degree g to one bidegree (c, c - g) (see ``runs``).  They vanish
exactly when the element is zero: the monomials at one bidegree are
linearly independent whenever the system admits a nontrivial Cuntz
representation, as every twisted lexicographic system, the only kind the
engine builds, does.

``equals(a, b)`` decides a = b in O_E, exactly on the exact fields, as
``normal_form(a - b)`` would; the relation checks of ``morphisms`` rest on it.
"""

from __future__ import annotations

from itertools import islice
from typing import Iterable, NamedTuple

from .runs import adjoint as run_adjoint, cells, diagonal_order, equal, joined, raise_terms, sweep
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


def _pair_order(pair):
    """The canonical order of pairs (fx, fy[, runs]): degree, left fiber."""
    return sub_degree(pair[0], pair[1]), pair[0]


class AlgebraElement:
    """An immutable finite sum held as ``pairs``: one (s, t, runs) per
    nonzero fiber pair, sorted by degree, then left fiber.  Each ``runs``
    is a non-empty tuple of runs (row0, col0, length, c), nonzero,
    disjoint, maximal and sorted by (row0, col0).  ``==`` compares each
    fiber pair's runs by ``runs.equal``, which is ``==`` of canonical runs
    on the exact fields; float runs join only where coefficients have the
    same bits, so one matrix may be held as different runs.  Semantic
    equality in the algebra is ``equals``.

    An element is valid by construction.  There is no public constructor:
    ``AlgebraElement(...)`` is a ``TypeError``, and ``from_terms``, the
    one builder from outside terms, passes both monomials of every term to
    ``spec.monomial``, so each fiber is in N^k and each index an int below
    the fiber's dimension.  Every term is checked, never one per fiber:
    (1.0, 0) hashes and compares like (1, 0).  The package's kernels build
    their results from checked fibers and indices by one of four builders,
    which check nothing: ``_canonical`` for canonical runs, ``_build`` for
    disjoint runs, ``summed`` for overlapping ones, summed by ``sweep``,
    and ``_from_cells`` for cells, each a one-entry run for ``summed``.
    """

    __slots__ = ("spec", "pairs")

    @classmethod
    def _canonical(cls, spec: SystemSpec, pairs) -> "AlgebraElement":
        """An element of pairs (fx, fy, runs) that are already canonical."""
        out = cls.__new__(cls)
        out.spec = spec
        out.pairs = tuple(pairs)
        return out

    # -- construction -----------------------------------------------------

    @staticmethod
    def from_terms(spec: SystemSpec, triples: Iterable) -> "AlgebraElement":
        """The sum of c * e(x) e(y)' over triples (c, x, y): each c coerced
        into the spec's field and x and y checked by ``spec.monomial``,
        triple by triple, then summed by ``_from_cells``, so the
        coefficients of a repeated (x, y) add in the order given."""
        field, monomial = spec.field, spec.monomial
        return _from_cells(
            spec, ((field.coerce(c), monomial(*x), monomial(*y)) for c, x, y in triples)
        )

    # -- terms ------------------------------------------------------------

    def _iter_terms(self):
        """The terms of the runs in canonical order: by degree, left fiber
        and (left index, right index).  A pair's cells come lazily from
        ``runs.cells``, so ``repr`` reads the first terms without expanding
        the rest."""
        for fx, fy, runs in self.pairs:
            for i, j, v in cells(runs):
                yield Term(v, BasisMonomial(fx, i), BasisMonomial(fy, j))

    @property
    def terms(self) -> tuple:
        """The terms c * e(left) e(right)', one per entry of the runs, in
        canonical order; it costs the entries, not the runs."""
        return tuple(self._iter_terms())

    # -- linear structure ---------------------------------------------------

    def _require_same(self, other: "AlgebraElement"):
        if not same_system(self.spec, other.spec):
            raise ValueError("elements belong to different systems")

    def _plus(self, other, sign: int) -> "AlgebraElement":
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        self._require_same(other)
        acc: dict = {}
        add_runs(acc, self, 1)
        add_runs(acc, other, sign)
        return summed(self.spec, acc)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return AlgebraElement._canonical(
            self.spec, [(fx, fy, _negated(runs)) for fx, fy, runs in self.pairs]
        )

    def scaled(self, coeff) -> "AlgebraElement":
        # scaling keeps the fiber pairs in canonical order; a scaled run may
        # be zero, and rounding can make distinct float coefficients
        # identical, so a pair's runs are joined again, which a pair of one
        # run skips
        c = self.spec.field.coerce(coeff)
        scaled = (
            (fx, fy, [(r, col, n, c * v) for r, col, n, v in runs]) for fx, fy, runs in self.pairs
        )
        return AlgebraElement._canonical(self.spec, _build(scaled))

    def adjoint(self) -> "AlgebraElement":
        # conjugate transposes of canonical runs are canonical once sorted,
        # on float too, since ``identical`` commutes with conj
        pairs = [(fy, fx, tuple(sorted(map(run_adjoint, runs)))) for fx, fy, runs in self.pairs]
        pairs.sort(key=_pair_order)
        return AlgebraElement._canonical(self.spec, pairs)

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        if not same_system(self.spec, other.spec):
            return False
        a, b = self.pairs, other.pairs
        # both in canonical pair order, so the pair sets agree pair by pair
        return len(a) == len(b) and all(
            pa[:2] == pb[:2] and equal(pa[2], pb[2]) for pa, pb in zip(a, b)
        )

    def __repr__(self):
        if not self.pairs:
            return "AlgebraElement<0>"
        parts = [f"{t.coeff!r}*{t.left!r}{t.right!r}'" for t in islice(self._iter_terms(), 4)]
        count = sum(run[2] for _, _, runs in self.pairs for run in runs)
        more = "" if count <= 4 else f" ... ({count} terms)"
        return "AlgebraElement<" + " + ".join(parts) + more + ">"


def _negated(runs: tuple) -> tuple:
    """-runs: negation keeps runs nonzero, maximal and in order."""
    return tuple([(r, c, n, -v) for r, c, n, v in runs])


def _build(pairs) -> tuple:
    """The canonical pairs of the pairs (fx, fy, runs), in any order, their
    runs disjoint and their fibers and indices checked: pairs sorted, zero
    runs dropped, a pair's runs made maximal by ``runs.joined`` and a pair
    left without runs dropped."""
    out = []
    for fx, fy, runs in sorted(pairs, key=_pair_order):
        runs = joined([run for run in runs if not run[3].is_zero()])
        if runs:
            out.append((fx, fy, runs))
    return tuple(out)


def add_runs(acc: dict, a: AlgebraElement, sign: int) -> None:
    """Add ``sign`` (+1 or -1) times ``a`` into the sum ``acc``: the rule
    for every sum of elements, read back by ``summed``.

    ``acc`` maps a fiber pair to its runs: the runs of the one element that
    reached it, or the list of every element's runs, summed by ``sweep``
    when read, so a sum costs its runs whatever their lengths.  A cell's
    contributions are summed in the order the elements came, and the cell
    is dropped at the end if the sum is zero; on float a residue below the
    zero tolerance is carried to the end, not dropped on the way.  A pair
    whose runs equal those subtracted from it cancels at one ``==`` per run
    and is never summed: ``equals`` of two elements that differ in a few
    pairs sums only those.
    """
    for fx, fy, runs in a.pairs:
        pair = fx, fy
        cur = acc.get(pair)
        if cur is None:
            acc[pair] = runs if sign > 0 else _negated(runs)
        elif sign < 0 and cur == runs:
            del acc[pair]
        else:
            if type(cur) is tuple:
                cur = acc[pair] = list(cur)
            cur += runs if sign > 0 else _negated(runs)


def summed(spec: SystemSpec, acc: dict) -> AlgebraElement:
    """The element of the sum ``acc`` built by ``add_runs`` or ``_from_cells``."""
    return AlgebraElement._canonical(spec, _read(acc, sorted(acc, key=_pair_order)))


def _from_cells(spec: SystemSpec, cells) -> AlgebraElement:
    """The sum of c * e(x) e(y)' over cells (c, x, y), each c in the spec's
    field and x and y checked: each cell is a one-entry run of its fiber
    pair, and ``summed`` sums the runs of a pair by ``runs.sweep``, so a
    repeated cell adds its coefficients in the order given."""
    groups: dict = {}
    for c, x, y in cells:
        groups.setdefault((x.fiber, y.fiber), []).append((x.index, y.index, 1, c))
    return summed(spec, groups)


def _read(acc: dict, pairs) -> list:
    """The pairs (fx, fy, runs) of the sum ``acc`` built by ``add_runs``,
    in the order of the fiber pairs ``pairs``: the runs of a pair that one
    element reached are canonical as they are, those of a pair that
    several reached are summed by ``runs.sweep``, and a pair whose sum
    cancels is dropped."""
    out = []
    for fx, fy in pairs:
        runs = acc[fx, fy]
        if type(runs) is not tuple:
            runs = sweep(runs)
            if not runs:
                continue
        out.append((fx, fy, runs))
    return out


def zero(spec: SystemSpec) -> AlgebraElement:
    return AlgebraElement._canonical(spec, ())


def identity(spec: SystemSpec) -> AlgebraElement:
    e = spec.identity_monomial.fiber
    return AlgebraElement._canonical(spec, [(e, e, ((0, 0, 1, spec.field.one),))])


def monomial_pair(spec, x: BasisMonomial, y: BasisMonomial, coeff=1) -> AlgebraElement:
    """coeff * e(x) e(y)', its one run built directly, as ``identity``'s
    is, after both monomials are checked as ``from_terms`` checks them."""
    spec.monomial(*x)
    spec.monomial(*y)
    c = spec.field.coerce(coeff)
    pairs = () if c.is_zero() else [(x.fiber, y.fiber, ((x.index, y.index, 1, c),))]
    return AlgebraElement._canonical(spec, pairs)


def isometry(spec, x: BasisMonomial) -> AlgebraElement:
    """The generator element i(x) = e(x) * identity'."""
    return monomial_pair(spec, x, spec.identity_monomial)


# ---------------------------------------------------------------------------
# multiplication
# ---------------------------------------------------------------------------


def rewrite_pair(
    spec: SystemSpec, y_prime: BasisMonomial, x_prime: BasisMonomial
) -> AlgebraElement:
    """Expand i(y')* i(x') in the spanning family: the product of the
    one-term elements i(y')* and i(x'), whose survivors are one run (see
    ``_piece``).

    When the fibers agree this collapses to <x'|y'> times the identity.
    Otherwise the surviving terms are exactly the basis pairs (x, y) with
    index(x'.y) == index(y'.x), each carrying the phase
    omega(s,t) * conj(omega(t,s)).
    """
    spec.monomial(*y_prime)
    spec.monomial(*x_prime)
    e, one = spec.identity_monomial.fiber, spec.field.one
    y_star, x = (0, y_prime.index, 1, one), (x_prime.index, 0, 1, one)
    return _run_product(spec, e, y_prime.fiber, y_star, x_prime.fiber, e, x)


def _fiber_data(spec: SystemSpec, xf, s, yf, t):
    """((x.s, y.t), factors) of the fiber quadruple (x fiber, s, y fiber,
    t), whose fibers are valid, computed once into the spec's
    ``fiber_quads`` cache.  No other code reads or writes that cache.

    ``factors`` are the scalars that multiply a coefficient product c_a*c_b:
    none when untwisted; on an exact field the one product of the rewrite
    phase omega(s,t) * conj(omega(t,s)), omega(x, s) and conj(omega(y, t)),
    or none when that is one; on float the three of them in that order, so
    float products keep their rounding.  Equal inner fibers leave the
    identity, the quadruple with s and t zero, so its rewrite phase is the
    field's one, float bits included.
    """
    quad = (xf, s, yf, t)
    data = spec.fiber_quads.get(quad)
    if data is None:
        factors = ()
        if spec.is_twisted:
            phase = spec._phase
            factors = (phase(s, t) * phase(t, s).conj(), phase(xf, s), phase(yf, t).conj())
            if spec.field.exact:
                folded = factors[0] * factors[1] * factors[2]
                factors = () if folded.is_one() else (folded,)
        data = spec.fiber_quads[quad] = (add_fibers(xf, s), add_fibers(yf, t)), factors
    return data


def _piece(spec: SystemSpec, xf, t, a: tuple, s, yf, b: tuple):
    """The product of a run a = (row0, col0, L, c) of the fiber pair (x, t)
    and a run b of the pair (s, y) as (fiber pair, run (row0, col0, length,
    coeff)), or None when no entry pair survives: the one product kernel.

    An entry pair meets through i(y')* i(x') with y' = e(t;j) and x' =
    e(s;i).  When s = t that is <x'|y'>, so the pair is ``runs.compose``
    of the two runs on their indices, on the fiber pair (x, y).  Otherwise
    it leaves the survivors (e(s;lx), e(t;j*dim(s) - i*dim(t) + lx)), and
    the survivors of the whole run pair are the positions P of the
    intersection of [col0_a*dim(s), (col0_a + L_a)*dim(s)) with [row0_b *
    dim(t), (row0_b + L_b)*dim(t)): the left run raised by s composed with
    the right run raised by t.  Each P is one survivor, e(x.s; P +
    (row0_a - col0_a)*dim(s)) e(y.t; P + (col0_b - row0_b)*dim(t))', so
    every pair of runs is one run.  Its coefficient is c_a*c_b times the
    factors of the quadruple (x, s, y, t) (see ``_fiber_data``).  Both
    cases are ``runs.compose``'s interval arithmetic, inlined with dim(s) =
    dim(t) = 1 for the first: building the raised runs as tuples for it
    made a product of one-entry runs measurably slower.  This is the
    product of two one-run elements (``_run_product``); ``multiply`` runs
    the same arithmetic inline, with the dimensions, the product pair and
    the factors found once per pair of fiber pairs.
    """
    ra, ca, la, va = a
    rb, cb, lb, vb = b
    if s == t:
        s = t = (0,) * len(s)
        ds = dt = 1
    else:
        ds, dt = spec._dim(s), spec._dim(t)
    lo, hi = ca * ds, (ca + la) * ds
    if rb * dt > lo:
        lo = rb * dt
    if (rb + lb) * dt < hi:
        hi = (rb + lb) * dt
    if lo >= hi:
        return None
    pair, factors = _fiber_data(spec, xf, s, yf, t)
    coeff = va * vb
    for f in factors:
        coeff = coeff * f
    return pair, (lo + (ra - ca) * ds, lo + (cb - rb) * dt, hi - lo, coeff)


def _run_product(spec: SystemSpec, xf, t, a: tuple, s, yf, b: tuple) -> AlgebraElement:
    """The product of two one-run elements, given by their pairs and runs
    as ``_piece`` takes them: at most one run, made without enumerating
    it."""
    piece = _piece(spec, xf, t, a, s, yf, b)
    if piece is None or piece[1][3].is_zero():
        return zero(spec)
    (fx, fy), run = piece
    return AlgebraElement._canonical(spec, [(fx, fy, (run,))])


def multiply(a: AlgebraElement, b: AlgebraElement) -> AlgebraElement:
    """The product a*b: one piece (see ``_piece``) per pair of runs, so
    it costs its run pairs plus the sum of their pieces, whatever the run
    lengths.

    What a piece needs beyond its interval arithmetic belongs to a pair of
    fiber pairs, so for each fiber pair of a one slot per fiber pair of b
    holds dim(s), dim(t) and, s = t standing for the zero fiber, its
    quadruple; the first piece that survives fills in the slot's output
    group and phase factors with one ``_fiber_data`` call.  A run pair
    then costs the interval arithmetic and one coefficient product.

    The pieces of each fiber pair are summed by ``runs.sweep``, in the order
    their run pairs are met: a's fiber pairs in canonical order, each
    pair's runs in diagonal order (col0 - row0, then row0), which along any
    row is column order, and b's pairs and runs inner.  Each cell so sums
    its entry products left entry outer, right entry inner, as the entry
    pairs always were, so float products keep their bits.  The order of
    the middle loops matters: two of b's pairs, (0, y - t) and (t, y), land
    on the output pair (x, y) of a's pair (x, t), and a loop with b's pairs
    outside a's runs would add the first pair's contribution to a cell
    before those of a's earlier runs in the row, which changes float sums
    once a row holds three runs.  A product of two one-run elements is one
    piece (``_run_product``).
    """
    a._require_same(b)
    spec = a.spec
    if len(a.pairs) == 1 == len(b.pairs):
        (xf, t, runs_a), (s, yf, runs_b) = a.pairs[0], b.pairs[0]
        if len(runs_a) == 1 == len(runs_b):
            return _run_product(spec, xf, t, runs_a[0], s, yf, runs_b[0])
    dim, e = spec._dim, (0,) * spec.k
    groups: dict = {}
    for xf, t, runs_a in a.pairs:
        # one slot per fiber pair of b: [dim(s), dim(t), runs, group,
        # factors, (s, yf, t)], s = t standing for the zero fiber e as in
        # ``_piece``; group and factors are found at its first survivor
        slots = []
        for s, yf, runs_b in b.pairs:
            if s == t:
                slots.append([1, 1, runs_b, None, (), (e, yf, e)])
            else:
                slots.append([dim(s), dim(t), runs_b, None, (), (s, yf, t)])
        for ra, ca, la, va in sorted(runs_a, key=diagonal_order) if len(runs_a) > 1 else runs_a:
            for slot in slots:
                ds, dt, runs_b, group, factors, quad = slot
                # ``_piece``'s interval arithmetic
                a_lo = ca * ds
                a_hi = a_lo + la * ds
                row_off = (ra - ca) * ds
                for rb, cb, lb, vb in runs_b:
                    lo = rb * dt
                    hi = lo + lb * dt
                    if lo < a_lo:
                        lo = a_lo
                    if hi > a_hi:
                        hi = a_hi
                    if lo >= hi:
                        continue
                    if group is None:
                        pair, factors = _fiber_data(spec, xf, *quad)
                        group = groups.get(pair)
                        if group is None:
                            group = groups[pair] = []
                        slot[3], slot[4] = group, factors
                    coeff = va * vb
                    for f in factors:
                        coeff = coeff * f
                    group.append((lo + row_off, lo + (cb - rb) * dt, hi - lo, coeff))
    return summed(spec, groups)


# ---------------------------------------------------------------------------
# normal form
# ---------------------------------------------------------------------------


class NormalForm:
    """Canonical run data of an element: per degree g a block (c, runs).

    The runs are the sweep (see ``runs``) of the raised runs of the
    element; a run ``(row0, col0, length, coeff)`` puts ``coeff`` on the
    entries e(c;row0+f) e(c-g;col0+f)' for f < length.  Swept runs are
    maximal, so on the exact fields a block holds the fewest runs its
    matrix allows: a Cuntz sum is one run.  Blocks without runs are
    dropped, so the element is zero exactly when ``blocks`` is empty.
    ``expand_normal_form`` takes the swept runs of each block as they are.
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


def _raised_blocks(spec: SystemSpec, pairs) -> dict:
    """The nonzero blocks {degree: (c, runs)} of the element pairs (fx, fy,
    runs), in degree order: ``runs.raise_terms`` keyed by degree."""
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

    raised = raise_terms(pairs, place)
    return {g: (tops[g], raised[g]) for g in sorted(raised) if raised[g]}


def normal_form(a: AlgebraElement) -> NormalForm:
    """The degree blocks of ``a``: its runs raised and swept by
    ``runs.raise_terms``, which makes the runs maximal."""
    return NormalForm(a.spec, _raised_blocks(a.spec, a.pairs))


def expand_normal_form(nf: NormalForm) -> AlgebraElement:
    """Rebuild an element from its normal form: a block (c, runs) of degree
    g holds the swept runs of the fiber pair (c, c - g), taken as they are.
    It costs the blocks, not the runs."""
    pairs = [(c, sub_degree(c, g), runs) for g, (c, runs) in sorted(nf.blocks.items())]
    return AlgebraElement._canonical(nf.spec, pairs)


def equals(a: AlgebraElement, b: AlgebraElement) -> bool:
    """Equality in the algebra: structural fast path, then normal form.

    b is subtracted from a by ``add_runs``, and the runs of the difference
    are raised and swept as ``normal_form`` would do with a - b, without
    building a - b as an element.  The pairs are raised in the order they
    reached the difference, which fixes the order of the float sums where
    pairs meet in a block.
    """
    a._require_same(b)
    if a.pairs == b.pairs:
        return True
    acc: dict = {}
    add_runs(acc, a, 1)
    add_runs(acc, b, -1)
    return not _raised_blocks(a.spec, _read(acc, acc))


# ---------------------------------------------------------------------------
# gauge expectation and shift endomorphisms
# ---------------------------------------------------------------------------


def gauge_expectation(a: AlgebraElement) -> AlgebraElement:
    """Projection onto the degree-zero pairs (the gauge-invariant part)."""
    return AlgebraElement._canonical(a.spec, [pair for pair in a.pairs if pair[0] == pair[1]])


def shift_endomorphism(a: AlgebraElement, s) -> AlgebraElement:
    """sum over the basis f of the fiber s of  i(f) a i(f)*.

    A run (row0, col0, length, c) of the fiber pair (x, y) becomes the runs
    (f*dim(x) + row0, f*dim(y) + col0, length, c') of the pair (s.x, s.y),
    where c' = c omega(s, x) conj(omega(s, y)) is the same for every f;
    fibers and phases are computed once per fiber pair (x, y).  The images
    step by dim(x) on the left and dim(y) on the right, so a shift by s
    costs dim(s) runs per run; ``_build`` joins the images that continue
    each other, as those of a Cuntz sum do, into one run.
    """
    spec = a.spec
    s = spec.check_fiber(s)
    if not a.pairs:
        return a  # alpha_s(0) = 0, however large dim(s) is
    n = spec._dim(s)
    images = []
    for xf, yf, runs in a.pairs:
        # untwisted phases are the field's one; a float product may be zero
        if spec.is_twisted:
            ph_l, ph_r = spec._phase(s, xf), spec._phase(s, yf).conj()
            runs = [(r, c, m, v * ph_l * ph_r) for r, c, m, v in runs]
        dx, dy = spec._dim(xf), spec._dim(yf)
        shifted = [(f * dx + r, f * dy + c, m, v) for f in range(n) for r, c, m, v in runs]
        images.append((add_fibers(s, xf), add_fibers(s, yf), shifted))
    return AlgebraElement._canonical(spec, _build(images))
