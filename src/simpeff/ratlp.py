"""Exact rational linear algebra and a small tableau simplex.

Everything runs over fractions.Fraction.  The simplex uses Bland's rule, so
it terminates without any perturbation; infeasibility comes with a Farkas
certificate that callers can re-verify independently.
"""

from __future__ import annotations

__all__ = ["OPTIMAL", "INFEASIBLE", "rref", "rank", "nullspace", "in_span", "BoxLP"]

from fractions import Fraction

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

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


def in_span(basis, vec) -> bool:
    """Exact membership of vec in the span of basis vectors."""
    rows = [list(b) for b in basis]
    return rank(rows) == rank(rows + [list(vec)])


class BoxLP:
    """Equalities A x = b with every variable constrained to [0, 1].

    Internally: standard form over x (n vars) and upper-bound slacks s
    (n vars) with rows [A 0; I I], then a two-phase tableau simplex with
    Bland's rule.  Each tableau row ends with its right-hand side, and the
    last row holds the reduced costs, so every step is one `_pivot`.  Phase 1
    runs once, in the constructor; its artificial columns end up holding
    B^-1, so the duals (a Farkas certificate) fall out.  Each solve runs
    phase 2 from a copy of the feasible basis phase 1 leaves.
    """

    def __init__(self, A, b):
        n = self.n = len(A[0]) if A else 0
        self._rows = [[Fraction(v) for v in row] + [_ZERO] * n for row in A]
        self._rows += [[_ONE if k in (j, n + j) else _ZERO for k in range(2 * n)]
                       for j in range(n)]
        self._b = [Fraction(v) for v in b] + [_ONE] * n
        nrows, width = len(self._rows), 2 * n
        signs = [-1 if v < 0 else 1 for v in self._b]
        tab = [[sg * v for v in row] + [_ONE if k == i else _ZERO for k in range(nrows)]
               + [abs(r)] for i, (row, r, sg) in enumerate(zip(self._rows, self._b, signs))]
        basis = list(range(width, width + nrows))
        self._price(tab, basis, [_ZERO] * width + [Fraction(-1)] * nrows)
        self._simplex(tab, basis)
        reduced = tab.pop()
        self._farkas = None
        if reduced[-1] > 0:
            # the infeasibility is left as the objective's right-hand side;
            # the duals y sit under the artificial columns as -1 - y, and the
            # signs undo the flips that made the right-hand sides nonnegative
            self._farkas = [(1 + d) * sg for d, sg in zip(reduced[width:-1], signs)]
            return
        # drive leftover artificials out of the basis
        for r in range(nrows):
            if basis[r] >= width and tab[r][-1] == 0:
                c = next((j for j in range(width) if tab[r][j] != 0), None)
                if c is not None:
                    _pivot(tab, r, c)
                    basis[r] = c
        live = [r for r in range(nrows) if basis[r] < width]
        self._tab = [tab[r][:width] + tab[r][-1:] for r in live]
        self._basis = [basis[r] for r in live]

    @staticmethod
    def _price(tab, basis, cost):
        """Append the reduced costs c - c_B B^-1 A, with -c_B x_B as their
        right-hand side."""
        reduced = list(cost) + [_ZERO]
        for row, bvar in zip(tab, basis):
            if cost[bvar] != 0:
                reduced = [d - cost[bvar] * v for d, v in zip(reduced, row)]
        tab.append(reduced)

    @staticmethod
    def _simplex(tab, basis):
        """Maximize over a priced tableau; Bland's rule; in place.  Both
        phases are bounded, so an entering column always has a leaving row."""
        while True:
            enter = next((j for j, d in enumerate(tab[-1][:-1]) if d > 0), None)
            if enter is None:
                return
            leave, best = None, None
            for i in range(len(basis)):
                if tab[i][enter] > 0:
                    ratio = tab[i][-1] / tab[i][enter]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best, leave = ratio, i
            _pivot(tab, leave, enter)
            basis[leave] = enter

    def solve(self, objective=None, maximize=True):
        """Returns (status, x, value, farkas).

        status OPTIMAL: x is a vertex of the box polytope (objective zero
        vector when only feasibility is wanted) and value its objective.
        status INFEASIBLE: farkas is a row-multiplier vector y over the
        m + n equations with y.A_std <= 0 componentwise and y.b_std > 0.
        """
        if self._farkas is not None:
            return INFEASIBLE, None, None, self._farkas
        sign = _ONE if maximize else Fraction(-1)
        cost = [_ZERO] * (2 * self.n)
        if objective is not None:
            cost[:self.n] = [sign * Fraction(v) for v in objective]
        tab = [list(row) for row in self._tab]
        basis = list(self._basis)
        self._price(tab, basis, cost)
        self._simplex(tab, basis)
        x = [_ZERO] * self.n
        for row, bvar in zip(tab, basis):
            if bvar < self.n:
                x[bvar] = row[-1]
        return OPTIMAL, x, -sign * tab[-1][-1], None

    def verify_farkas(self, farkas) -> bool:
        """Independent exact check that the certificate proves emptiness."""
        comb = [_ZERO] * (2 * self.n)
        total = _ZERO
        for y, row, r in zip(farkas, self._rows, self._b):
            for j in range(2 * self.n):
                comb[j] += y * row[j]
            total += y * r
        return all(v <= 0 for v in comb) and total > 0
