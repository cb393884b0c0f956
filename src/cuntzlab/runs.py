"""Diagonal runs: the sparse format of normal forms, step operators and cores.

A run ``(row0, col0, length, coeff)`` puts ``coeff`` on the matrix entries
(row0 + u, col0 + u) for u < length; entries no run covers are zero.  A
raised term and a core matrix unit tensored with an identity are each one
run, so their cost follows the terms, never the block size, the level or
the fiber dimension.  Runs are *swept* when they are nonzero, disjoint and
sorted by (row0, col0); a sum of runs is zero exactly when its sweep is empty.
Swept runs are maximal on the exact fields: no run continues another on its
diagonal with an ``==`` coefficient.  On float nothing merges.

Raising: xy* = sum_f (x.f)(y.f)* over the basis f of a fiber r, and x.f
has index x.index*n + f with n = dim(r), so a term c x y* raised by r is
the one run (x.index*n, y.index*n, n, c*phase) of *stripe* n, the phase
being omega(fx, r) conj(omega(fy, r)) on twisted specs.  ``raise_terms``
raises for ``algebra.normal_form`` and ``equals``, keyed by degree
g = fx - fy with r = c - fx, c the max of the degree's left fibers, and
for ``steprep.evaluate`` at level N, keyed by output level with stripe
N/dim(fy).  Since dim(c - fx) = dim(c - g)/dim(fy), the normal form is the
step model keyed by degree, at level dim(c - g).  R terms cost O(R) to
raise and O(R' log R' + R'*F) scalar operations to sweep, R' <= R being the
runs left after merging (a Cuntz sum raised to a common fiber is one run)
and F the number of left fibers of a key: on one diagonal a fiber's runs
are disjoint.  Memory is O(R).
"""

from __future__ import annotations

from .scalars import field_of


def _extend(runs: list, run: tuple) -> None:
    """Append ``run`` to ``runs``, or lengthen the last run of ``runs`` when
    ``run`` continues its diagonal: it starts at (row0 + length, col0 +
    length) of that run, with an ``==`` coefficient."""
    if runs:
        row0, col0, length, coeff = runs[-1]
        if row0 + length == run[0] and col0 + length == run[1] and coeff == run[3]:
            runs[-1] = (row0, col0, length + run[2], coeff)
            return
    runs.append(run)


def _emitter(coeff):
    """How runs of ``coeff``'s field are emitted: by ``_extend`` on the exact
    fields, appended on float, whose ``==`` is a tolerance, so that float
    runs and sums stay those of the pieces, bit for bit."""
    return _extend if field_of(coeff).exact else list.append


def sweep(runs) -> tuple:
    """The swept form of ``runs``, which may overlap and come in any order.

    Runs are grouped by diagonal offset col0 - row0.  On one offset the
    sorted run endpoints cut the diagonal into pieces, and each piece sums,
    in the order of ``runs``, the coefficients of the runs covering it, as
    an entry-by-entry accumulation would (bit for bit on floats).  Nonzero
    pieces are kept, and on the exact fields adjacent pieces with ``==``
    sums are one run, so the swept form is maximal there.  The cost is the
    number of runs times the pieces each covers, whatever their lengths.
    """
    by_offset: dict[int, list] = {}
    for row0, col0, length, coeff in runs:
        by_offset.setdefault(col0 - row0, []).append((row0, row0 + length, coeff))
    if not by_offset:
        return ()
    emit = _emitter(coeff)  # any run's coefficient names the field
    out = []
    for offset, segments in by_offset.items():
        points = sorted({p for start, end, _ in segments for p in (start, end)})
        where = {p: i for i, p in enumerate(points)}
        sums = [None] * (len(points) - 1)
        for start, end, coeff in segments:
            for i in range(where[start], where[end]):
                sums[i] = coeff if sums[i] is None else sums[i] + coeff
        for i, v in enumerate(sums):
            if v is not None and not v.is_zero():
                emit(out, (points[i], points[i] + offset, points[i + 1] - points[i], v))
    # swept runs differ in (row0, col0), so coefficients are never compared
    out.sort()
    return tuple(out)


def raise_terms(terms, place) -> dict:
    """{key: swept runs} of the (coeff, x, y) terms.

    ``place`` gets all fiber pairs (x.fiber, y.fiber) in order of first
    appearance, since a stripe may depend on every pair of its key, and
    returns one (key, stripe, phase) per pair, None standing for a phase of
    exactly one.  A key's runs come pair by pair in that order and in term
    order within a pair, which is the term order when a pair's terms are
    adjacent; the sweep's float sums follow it.  Raised terms are emitted
    by the sweep's rule, so on the exact fields a Cuntz sum is one run
    before it is swept.  A key whose runs cancel maps to ().
    """
    pairs: dict = {}
    for term in terms:
        pairs.setdefault((term[1].fiber, term[2].fiber), []).append(term)
    if not pairs:
        return {}
    emit = _emitter(term[0])
    by_key: dict = {}
    for group, (key, stripe, phase) in zip(pairs.values(), place(pairs)):
        runs = by_key.setdefault(key, [])
        for c, x, y in group:
            if phase is not None:
                c = c * phase
            emit(runs, (x.index * stripe, y.index * stripe, stripe, c))
    for key, runs in by_key.items():
        by_key[key] = sweep(runs)
    return by_key


def compose(a: tuple, b: tuple) -> tuple | None:
    """The run of the product a o b, or None when it is empty.

    b takes column col0_b + u to row row0_b + u and a takes column
    col0_a + v to row row0_a + v, so the product is nonzero exactly on the
    one interval where b's rows meet a's columns.
    """
    row_a, col_a, len_a, coeff_a = a
    row_b, col_b, len_b, coeff_b = b
    lo = max(col_a, row_b)
    hi = min(col_a + len_a, row_b + len_b)
    if lo >= hi:
        return None
    return (row_a + lo - col_a, col_b + lo - row_b, hi - lo, coeff_a * coeff_b)


def product(a: tuple, b: tuple) -> tuple:
    """The swept runs of the matrix product a b of two run tuples.

    Each pair of runs composes to at most one run, so the cost is the
    number of run pairs plus the sweep, whatever the run lengths.
    """
    pieces = (compose(x, y) for y in b for x in a)
    return sweep([run for run in pieces if run is not None])


def equal(a: tuple, b: tuple) -> bool:
    """Whether two run tuples hold the same matrix: a - b sweeps to nothing."""
    return not sweep([*a, *((r, c, n, -v) for r, c, n, v in b)])


def adjoint(run: tuple) -> tuple:
    """The run of the conjugate transpose."""
    row0, col0, length, coeff = run
    return (col0, row0, length, coeff.conj())
