"""Diagonal runs: the sparse format of normal forms, step operators and cores.

A run ``(row0, col0, length, coeff)`` puts ``coeff`` on the matrix entries
(row0 + u, col0 + u) for u < length; entries no run covers are zero.  A
raised normal-form term, a term evaluated at a step level and a core matrix
unit tensored with an identity are each one run, so their cost follows the
terms, never the block size, the level or the fiber dimension.
Runs are *swept* when they are nonzero, disjoint and sorted by (row0,
col0); a sum of runs is zero exactly when its sweep is empty.
"""

from __future__ import annotations


def sweep(runs) -> tuple:
    """The swept form of ``runs``, which may overlap and come in any order.

    Runs are grouped by diagonal offset col0 - row0.  On one offset the
    sorted run endpoints cut the diagonal into pieces, and each piece sums,
    in the order of ``runs``, the coefficients of the runs covering it, as
    an entry-by-entry accumulation would (bit for bit on floats).  Nonzero
    pieces are kept.  The cost is the number of runs times the pieces each
    covers, whatever their lengths.
    """
    by_offset: dict[int, list] = {}
    for row0, col0, length, coeff in runs:
        by_offset.setdefault(col0 - row0, []).append((row0, row0 + length, coeff))
    out = []
    for offset, segments in by_offset.items():
        points = sorted({p for start, end, _ in segments for p in (start, end)})
        where = {p: i for i, p in enumerate(points)}
        sums = [None] * (len(points) - 1)
        for start, end, coeff in segments:
            for i in range(where[start], where[end]):
                sums[i] = coeff if sums[i] is None else sums[i] + coeff
        out += [
            (points[i], points[i] + offset, points[i + 1] - points[i], v)
            for i, v in enumerate(sums)
            if v is not None and not v.is_zero()
        ]
    # swept runs differ in (row0, col0), so coefficients are never compared
    out.sort()
    return tuple(out)


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
