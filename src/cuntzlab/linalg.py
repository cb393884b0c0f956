"""Exact dense linear algebra over the engine's scalar fields.

Matrices are lists of row lists of scalars.  Everything here relies only on
field operations (add, mul, inv, conj, is_zero), so the same code serves the
Gaussian-rational and cyclotomic domains exactly and the float domain up to
its tolerance.  ``nullspace`` gives ``analysis.classify`` the rank and the
kernel of the exponent matrix in one reduction.  ``sparse_matmul`` is the
reference product that step-operator compositions are compared against.
"""

from __future__ import annotations


def _rref(rows, field):
    """Reduced row echelon form; returns (matrix, pivot_columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return mat, []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, len(mat)):
            if not mat[i][c].is_zero():
                pivot_row = i
                break
        if pivot_row is None:
            continue
        mat[r], mat[pivot_row] = mat[pivot_row], mat[r]
        inv = mat[r][c].inv()
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and not mat[i][c].is_zero():
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def nullspace(rows, ncols: int, field):
    """Basis of the right kernel, one vector per pivot-free column, in
    column order (so callers can deterministically take the first)."""
    mat, pivots = _rref(rows, field)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = [field.zero] * ncols
        vec[f] = field.one
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
