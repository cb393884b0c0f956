"""Diagonal runs: the sparse format of normal forms, step operators and cores.

A run ``(row0, col0, length, coeff)`` puts ``coeff`` on the matrix entries
(row0 + u, col0 + u) for u < length; entries no run covers are zero.  A
raised term and a core matrix unit tensored with an identity are each one
run, so their cost follows the terms, never the block size, the level or
the fiber dimension.  Runs are *swept* when they are nonzero, disjoint and
sorted by (row0, col0); a sum of runs is zero exactly when its sweep is empty.
Swept runs are maximal on the exact fields: no run continues another on its
diagonal with an ``==`` coefficient.  On float nothing merges.  The one
merge rule is ``_merge``, which lengthens the last run of a list by each
run that continues it; ``raise_terms`` hands it the raised terms of one
fiber pair at a time, and ``sweep`` the nonzero pieces of one offset.

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
are disjoint.  A raised term costs one run tuple, built by its pair's
comprehension, and one pass of the merge loop: its fibers are compared by
identity with the previous term's, and a dict lookup is made only when
they differ; a coefficient ``==`` is made only when it continues the open
run and is not the same object.  Memory is O(R).
"""

from __future__ import annotations

from .scalars import field_of


def _merge(runs: list, pieces) -> None:
    """Append the runs ``pieces`` to ``runs`` in order, on the exact fields:
    the one merge rule.  A run that continues the last run of ``runs`` on
    its diagonal, starting at (row0 + length, col0 + length) with a
    coefficient that ``is`` or ``==`` that run's, lengthens it.  The open
    run is held in locals, and a run that merges with nothing is appended
    as given, so no tuple is built for it."""
    pieces = iter(pieces)
    last = runs.pop() if runs else next(pieces, None)
    if last is None:
        return
    row0, col0, length, coeff = last
    for run in pieces:
        r, c, n, v = run
        if r - row0 == length and c - col0 == length and (v is coeff or v == coeff):
            length += n
            continue
        runs.append(last if length == last[2] else (row0, col0, length, coeff))
        last = run
        row0, col0, length, coeff = run
    runs.append(last if length == last[2] else (row0, col0, length, coeff))


def _emitter(coeff):
    """How runs of ``coeff``'s field are emitted: merged by ``_merge`` on
    the exact fields, appended as they are on float, whose ``==`` is a
    tolerance, so that float runs and sums stay those of the pieces, bit
    for bit."""
    return _merge if field_of(coeff).exact else list.extend


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
        pieces = [
            (points[i], points[i] + offset, points[i + 1] - points[i], v)
            for i, v in enumerate(sums)
            if v is not None and not v.is_zero()
        ]
        emit(out, pieces)
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
    adjacent; the sweep's float sums follow it.  A pair's raised terms are
    emitted at once by the sweep's rule, so on the exact fields a Cuntz sum
    is one run before it is swept.  A key whose runs cancel maps to ().
    """
    pairs: dict = {}
    fx = fy = None
    for term in terms:
        _, x, y = term
        # the terms of a pair mostly come together, holding the same fibers
        if x.fiber is not fx or y.fiber is not fy:
            fx, fy = x.fiber, y.fiber
            group = pairs.get((fx, fy))
            if group is None:
                group = pairs[fx, fy] = []
        group.append(term)
    if not pairs:
        return {}
    emit = _emitter(term[0])
    by_key: dict = {}
    for group, (key, stripe, phase) in zip(pairs.values(), place(pairs)):
        if phase is None:
            raised = [(x.index * stripe, y.index * stripe, stripe, c) for c, x, y in group]
        else:
            raised = [(x.index * stripe, y.index * stripe, stripe, c * phase) for c, x, y in group]
        emit(by_key.setdefault(key, []), raised)
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
