"""Diagonal runs: the sparse format of elements, normal forms, step
operators and cores.

A run ``(row0, col0, length, coeff)`` puts ``coeff`` on the matrix entries
(row0 + u, col0 + u) for u < length; entries no run covers are zero.  An
element (``algebra.AlgebraElement``) holds one tuple of runs per fiber
pair, as its *pairs* ``(fx, fy, runs)``.  A Cuntz sum, a raised term and a
core matrix unit tensored with an identity are each one run, so their cost
follows the runs, never the block size, the level or the fiber dimension.
Runs are *swept* when they are nonzero, disjoint and sorted by (row0,
col0); a sum of runs is zero exactly when its sweep is empty.  Swept runs
are maximal: no run continues another on its diagonal with an identical
coefficient, one that ``is`` it or is ``identical`` to it, which is ``==``
on the exact fields and the same bits on float, whose ``==`` is a
tolerance.  Merging does no arithmetic, so float values keep their bits.
The one merge rule of a run list is ``_merge``, which lengthens the last
run of a list by each run that continues it; ``raise_terms`` hands it the
raised runs of one fiber pair at a time, ``sweep`` its cells or pieces
and ``joined`` disjoint runs, both in ``diagonal_order``.  ``sweep`` is
the one rule that sums runs, for element sums, products, elements built
from cells, normal forms, step operators and cores.  ``cells`` reads
swept runs cell by cell in (row, col) order, the one cell order of
printing and induced maps.

Raising: xy* = sum_f (x.f)(y.f)* over the basis f of a fiber r, and x.f
has index x.index*n + f with n = dim(r), so a term c x y* raised by r is
the one run (x.index*n, y.index*n, n, c*phase) of *stripe* n, the phase
being omega(fx, r) conj(omega(fy, r)) on twisted specs, and a run of
length L raised by r is the one run of length L*n.  ``raise_terms`` raises
for ``algebra.normal_form`` and ``equals``, keyed by degree g = fx - fy
with r = c - fx, c the max of the degree's left fibers, and for
``steprep.evaluate`` at level N, keyed by output level with stripe
N/dim(fy).  Since dim(c - fx) = dim(c - g)/dim(fy), the normal form is the
step model keyed by degree, at level dim(c - g).  R runs cost O(R) to
raise and O(R' log R' + R'*F) scalar operations to sweep, R' <= R being the
runs left after merging and F the number of left fibers of a key: on one
diagonal a fiber's runs are disjoint.  A raised run costs one run tuple,
built by its pair's comprehension, and one pass of the merge loop; a
coefficient ``==`` is made only when it continues the open run and is not
the same object.  Memory is O(R).
"""

from __future__ import annotations

from heapq import merge
from itertools import repeat

from .scalars import common_field, field_of


def _merge(runs: list, pieces) -> None:
    """Append the runs ``pieces`` to ``runs`` in order: the one merge rule.
    A run that continues the last run of ``runs`` on its diagonal, starting
    at (row0 + length, col0 + length) with a coefficient that ``is`` or is
    ``identical`` to that run's, lengthens it.  The open run is held in
    locals, and a run that merges with nothing is appended as given, so no
    tuple is built for it."""
    pieces = iter(pieces)
    last = runs.pop() if runs else next(pieces, None)
    if last is None:
        return
    row0, col0, length, coeff = last
    for run in pieces:
        r, c, n, v = run
        if r - row0 == length and c - col0 == length and (v is coeff or v.identical(coeff)):
            length += n
            continue
        runs.append(last if length == last[2] else (row0, col0, length, coeff))
        last = run
        row0, col0, length, coeff = run
    runs.append(last if length == last[2] else (row0, col0, length, coeff))


def diagonal_order(run):
    """The order of runs along their diagonals: by col0 - row0, then row0."""
    return run[1] - run[0], run[0]


def cells(runs):
    """(row, col, coeff) for each cell of the swept runs ``runs``, in (row,
    col) order, merged lazily, so the first cells cost the runs, not the
    cells of the rest.  Disjoint runs share no (row, col), so the merge
    never compares coefficients."""
    group = [zip(range(r, r + n), range(c, c + n), repeat(v)) for r, c, n, v in runs]
    return group[0] if len(group) == 1 else merge(*group)


def joined(runs) -> tuple:
    """The maximal form of disjoint runs, sorted by (row0, col0): runs that
    continue each other on a diagonal are joined by ``_merge``, the first
    coefficient object kept.  It costs a sort of the runs, not the sweep's
    pieces."""
    if len(runs) < 2:
        return tuple(runs)  # no run to join
    out: list = []
    _merge(out, sorted(runs, key=diagonal_order))
    # joined runs differ in (row0, col0), so coefficients are never compared
    out.sort()
    return tuple(out)


def sweep(runs) -> tuple:
    """The swept form of the list ``runs``, which may overlap and come in
    any order: each cell sums the coefficients of the runs covering it in
    the order of ``runs``, as an entry-by-entry accumulation would (bit for
    bit on floats), and ``_merge`` joins the nonzero cells that continue
    each other with identical sums.  The runs pick the path.  One run is
    swept as it is, unless it is zero, as a float product may be.  Runs of
    at most three entries on average are summed in a dict keyed by (col -
    row, row) and read in one sorted pass, which costs less than the piece
    table of so short runs.  Longer runs go to ``_swept_pieces``, which
    costs their pieces, whatever their lengths."""
    if len(runs) == 1:
        return () if runs[0][3].is_zero() else tuple(runs)
    if sum(run[2] for run in runs) > 3 * len(runs):
        return _swept_pieces(runs)
    sums: dict = {}
    for r, c, n, v in runs:
        d = c - r
        for row in range(r, r + n):
            key = (d, row)
            cur = sums.get(key)
            sums[key] = v if cur is None else cur + v
    out: list = []
    _merge(out, [(row, row + d, 1, v) for (d, row), v in sorted(sums.items()) if not v.is_zero()])
    # merged runs differ in (row0, col0), so coefficients are never compared
    out.sort()
    return tuple(out)


def _swept_pieces(runs) -> tuple:
    """``sweep`` by pieces: on each diagonal offset col0 - row0 the sorted
    run endpoints cut the diagonal into pieces, each summing the runs that
    cover it in the order of ``runs``, and the nonzero pieces go to
    ``_merge``.  The cost is the number of runs times the pieces each
    covers."""
    by_offset: dict[int, list] = {}
    for row0, col0, length, coeff in runs:
        by_offset.setdefault(col0 - row0, []).append((row0, row0 + length, coeff))
    out: list = []
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
        _merge(out, pieces)
    # swept runs differ in (row0, col0), so coefficients are never compared
    out.sort()
    return tuple(out)


def raise_terms(pairs, place) -> dict:
    """{key: swept runs} of the element pairs (fx, fy, runs), each fiber
    pair given once.

    ``place`` gets all fiber pairs (fx, fy) in order, since a stripe may
    depend on every pair of its key, and returns one (key, stripe, phase)
    per pair, None standing for a phase of exactly one.  A run raised by
    stripe n is the one run (row0*n, col0*n, length*n, c*phase).  A key's
    runs come pair by pair in that order and in run order within a pair;
    the sweep's float sums follow it.  A pair's raised runs are merged at
    once by ``_merge``.  A key whose runs cancel maps to ().
    """
    by_key: dict = {}
    placed = place([(fx, fy) for fx, fy, _ in pairs])
    for (_, _, runs), (key, n, phase) in zip(pairs, placed):
        if phase is None:
            raised = [(r * n, c * n, m * n, v) for r, c, m, v in runs]
        else:
            raised = [(r * n, c * n, m * n, v * phase) for r, c, m, v in runs]
        _merge(by_key.setdefault(key, []), raised)
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
    """Whether two swept run tuples hold the same matrix.  Tuples of two
    fields are compared in their common field.  Swept runs are nonzero and
    maximal, hence canonical on the exact fields, so there this is ``==``;
    on float, whose ``==`` is a tolerance, a - b must sweep to nothing."""
    if not a or not b:
        return a == b
    field, other = field_of(a[0][3]), field_of(b[0][3])
    if field != other:
        # a coercion keeps equal coefficients equal and unequal ones unequal
        field = common_field(field, other)
        a, b = ([(r, c, n, field.coerce(v)) for r, c, n, v in runs] for runs in (a, b))
    if field.exact:
        return a == b
    return not sweep([*a, *((r, c, n, -v) for r, c, n, v in b)])


def adjoint(run: tuple) -> tuple:
    """The run of the conjugate transpose."""
    row0, col0, length, coeff = run
    return (col0, row0, length, coeff.conj())
