"""The Fraction tableau ratlp replaced: the oracle for its integer rows.

_pivot and rref are the elimination step and reduced row echelon form that
ratlp ran over fractions.Fraction before its rows became ints with one
positive denominator each.  rank and nullspace read this rref the way
ratlp's do, so the tests can require exact equality of all three.
in_span compares two ranks, for the test that shifted states lie in HC^1.
"""

from fractions import Fraction

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _pivot(rows, r, c):
    """The one elimination step: scale row r to a one in column c, then clear
    column c from every other row.  In place; rows are lists of Fractions."""
    pv = rows[r][c]
    rows[r] = [v / pv for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c] != 0:
            f = row[c]
            rows[i] = [a - f * b for a, b in zip(row, rows[r])]


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns).

    rows are lists of Fractions (any width); input is not mutated.
    """
    mat = [list(map(Fraction, r)) for r in rows]
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        _pivot(mat, r, c)
        pivots.append(c)
    return mat, pivots


def rank(rows) -> int:
    return len(rref(rows)[1])


def in_span(basis, vec) -> bool:
    """Exact membership of vec in the span of basis vectors."""
    rows = [list(b) for b in basis]
    return rank(rows) == rank(rows + [list(vec)])


def nullspace(rows, nvars):
    """Basis of the kernel of the homogeneous system rows * x = 0."""
    if not rows:
        return [[_ONE if j == i else _ZERO for j in range(nvars)] for i in range(nvars)]
    mat, pivots = rref(rows)
    free = [c for c in range(nvars) if c not in pivots]
    basis = []
    for f in free:
        vec = [_ZERO] * nvars
        vec[f] = _ONE
        for r, p in enumerate(pivots):
            vec[p] = -mat[r][f]
        basis.append(vec)
    return basis
