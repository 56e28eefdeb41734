"""Exact rational linear algebra and a small tableau simplex.

Every matrix and tableau is held as rows of Python ints, each row with one
positive denominator: row i stands for rows[i][k] / dens[i].  Rationals (ints
or Fractions) are read in once, each row scaled by the lcm of its
denominators, and results go out as Fractions.  After each update a row and
its denominator are divided by their gcd, which keeps the ints small.
Scaling a row by a positive number keeps the sign of every entry, every zero
and the ratio of any two entries in the row, and these are all the pivot
rules read; so every pivot is the one a tableau of Fractions would choose,
and every result has the same value.  The simplex uses Bland's rule, so it
terminates without any perturbation; infeasibility comes with a Farkas
certificate that callers can re-verify independently.
"""

from __future__ import annotations

__all__ = ["OPTIMAL", "INFEASIBLE", "rref", "rank", "nullspace", "BoxLP"]

from fractions import Fraction
from math import gcd, lcm

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _ints(rows):
    """Rows of ints or Fractions as (int rows, dens), each row scaled by the
    lcm of its denominators, which leaves it in lowest terms."""
    dens = [lcm(*[v.denominator for v in row]) for row in rows]
    return [[v.numerator * (den // v.denominator) for v in row]
            for row, den in zip(rows, dens)], dens


def _lowest(row, den):
    """row / den with the ints and den divided by their gcd."""
    g = gcd(den, *row)
    return (row, den) if g == 1 else ([v // g for v in row], den // g)


def _pivot(rows, dens, r, c):
    """The one elimination step: scale row r to a one in column c, then clear
    column c from every other row.  In place on int rows with positive
    per-row denominators; rows are replaced, never mutated.

    Row r divided by its column-c entry is its ints over that entry (the
    old denominator cancels), with the sign moved into the ints; a row with
    entry f in column c becomes (row * pv - f * pivot_row) / (den * pv).
    """
    prow, pv = rows[r], rows[r][c]
    if pv < 0:
        prow, pv = [-v for v in prow], -pv
    prow, pv = _lowest(prow, pv)
    rows[r], dens[r] = prow, pv
    for i, row in enumerate(rows):
        f = row[c]
        if f and i != r:
            rows[i], dens[i] = _lowest([a * pv - f * b for a, b in zip(row, prow)],
                                       dens[i] * pv)


def rref(rows):
    """Reduced row echelon form; returns (new_rows, pivot_columns).

    rows are lists of ints or Fractions (any width); input is not mutated.
    The new rows are Fractions.
    """
    mat, dens = _ints(rows)
    pivots = []
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        if r == len(mat):
            break
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        dens[r], dens[pivot] = dens[pivot], dens[r]
        _pivot(mat, dens, r, c)
        pivots.append(c)
    return [[Fraction(v, den) if v else _ZERO for v in row]
            for row, den in zip(mat, dens)], pivots


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


class BoxLP:
    """Equalities A x = b with every variable constrained to [0, 1].

    Internally: standard form over x (n vars) and upper-bound slacks s
    (n vars) with rows [A 0; I I], then a two-phase tableau simplex with
    Bland's rule.  Each tableau row ends with its right-hand side, and the
    last row holds the reduced costs, so every step is one `_pivot`.  Phase 1
    runs once, in the constructor; its artificial columns end up holding
    B^-1, so the duals (a Farkas certificate) fall out.  Each solve runs
    phase 2 from a copy of the feasible basis phase 1 leaves.  A, b and the
    objectives are ints or Fractions; x, values and certificates are
    Fractions.
    """

    def __init__(self, A, b):
        n = self.n = len(A[0]) if A else 0
        self._rows = [list(row) + [0] * n for row in A]
        self._rows += [[int(k in (j, n + j)) for k in range(2 * n)] for j in range(n)]
        self._b = list(b) + [1] * n
        nrows, width = len(self._rows), 2 * n
        signs = [-1 if v < 0 else 1 for v in self._b]
        ints, dens = _ints([row + [r] for row, r in zip(self._rows, self._b)])
        tab = [[sg * v for v in row[:-1]] + [den if k == i else 0 for k in range(nrows)]
               + [sg * row[-1]] for i, (row, den, sg) in enumerate(zip(ints, dens, signs))]
        basis = list(range(width, width + nrows))
        self._price(tab, dens, basis, [0] * width + [-1] * nrows)
        self._simplex(tab, dens, basis)
        reduced, rden = tab.pop(), dens.pop()
        self._farkas = None
        if reduced[-1] > 0:
            # the infeasibility is left as the objective's right-hand side;
            # the duals y sit under the artificial columns as -1 - y, and the
            # signs undo the flips that made the right-hand sides nonnegative
            self._farkas = [Fraction((rden + d) * sg, rden)
                            for d, sg in zip(reduced[width:-1], signs)]
            return
        # drive leftover artificials out of the basis
        for r in range(nrows):
            if basis[r] >= width and tab[r][-1] == 0:
                c = next((j for j in range(width) if tab[r][j] != 0), None)
                if c is not None:
                    _pivot(tab, dens, r, c)
                    basis[r] = c
        live = [r for r in range(nrows) if basis[r] < width]
        self._tab = [tab[r][:width] + tab[r][-1:] for r in live]
        self._dens = [dens[r] for r in live]
        self._basis = [basis[r] for r in live]

    @staticmethod
    def _price(tab, dens, basis, cost):
        """Append the reduced costs c - c_B B^-1 A, with -c_B x_B as their
        right-hand side: the cost row, with each basic column cleared by a
        pivot on the row that holds its one."""
        (row,), (den,) = _ints([list(cost) + [0]])
        tab.append(row)
        dens.append(den)
        for r, bvar in enumerate(basis):
            if tab[-1][bvar]:
                _pivot(tab, dens, r, bvar)

    @staticmethod
    def _simplex(tab, dens, basis):
        """Maximize over a priced tableau; Bland's rule; in place.  Both
        phases are bounded, so an entering column always has a leaving row.
        A row's denominator cancels from its ratio rhs / a, and a > 0, so
        ratios compare by cross-multiplying the ints; ties go to the lowest
        basic variable."""
        while True:
            enter = next((j for j, d in enumerate(tab[-1][:-1]) if d > 0), None)
            if enter is None:
                return
            leave = None
            for i, row in enumerate(tab[:-1]):
                a = row[enter]
                if a > 0 and (leave is None
                              or (row[-1] * best_a, basis[i]) < (best_rhs * a, basis[leave])):
                    leave, best_rhs, best_a = i, row[-1], a
            _pivot(tab, dens, leave, enter)
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
        cost = [0] * (2 * self.n)
        if objective is not None:
            cost[:self.n] = objective if maximize else [-v for v in objective]
        tab, dens, basis = list(self._tab), list(self._dens), list(self._basis)
        self._price(tab, dens, basis, cost)
        self._simplex(tab, dens, basis)
        x = [_ZERO] * self.n
        for row, den, bvar in zip(tab, dens, basis):
            if bvar < self.n:
                x[bvar] = Fraction(row[-1], den)
        value = tab[-1][-1]
        return OPTIMAL, x, Fraction(-value if maximize else value, dens[-1]), None

    def verify_farkas(self, farkas) -> bool:
        """Independent exact check that the certificate proves emptiness."""
        comb = [_ZERO] * (2 * self.n)
        total = _ZERO
        for y, row, r in zip(farkas, self._rows, self._b):
            for j in range(2 * self.n):
                comb[j] += y * row[j]
            total += y * r
        return all(v <= 0 for v in comb) and total > 0
