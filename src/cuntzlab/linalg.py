"""Exact linear algebra: the kernel of an integer matrix, and the sparse
reference product.

``nullspace`` reduces an integer matrix over the rationals, in
``fractions.Fraction``, and gives ``analysis.classify`` the rank and the
kernel of the exponent matrix in one reduction.  ``sparse_matmul`` is the
reference product that step-operator compositions are compared against.
"""

from __future__ import annotations

from fractions import Fraction


def nullspace(rows, ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of an integer matrix with ncols columns,
    one vector per pivot-free column, in column order (so callers can
    deterministically take the first), read off the reduced row echelon
    form over Q."""
    mat = [[Fraction(x) for x in row] for row in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot_row = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        pivot = mat[r][c]
        mat[r] = [x / pivot for x in mat[r]]
        for i, row in enumerate(mat):
            f = row[c]
            if i != r and f:
                mat[i] = [x - f * y for x, y in zip(row, mat[r])]
        pivots.append(c)
    basis = []
    for f in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[f] = Fraction(1)
        for r, c in enumerate(pivots):
            vec[c] = -mat[r][f]
        basis.append(vec)
    return basis


# -- sparse maps ---------------------------------------------------------
#
# Sparse matrices are dicts {(row, col): scalar} with implied zeros.  Step
# operators compose by runs; this dict product is the reference that tests
# compare them against.


def sparse_matmul(a: dict, b: dict) -> dict:
    by_col: dict[int, list] = {}
    for (r, c), v in a.items():
        by_col.setdefault(c, []).append((r, v))
    out: dict = {}
    for (rb, cb), vb in b.items():
        for ra, va in by_col.get(rb, ()):
            key = (ra, cb)
            cur = out.get(key)
            out[key] = va * vb if cur is None else cur + va * vb
    return {k: v for k, v in out.items() if not v.is_zero()}
