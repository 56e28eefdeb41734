"""Exact states and degree-one cyclic cohomology on finite cyclic sets.

A state assigns [0,1]-values to edges with phi(tau_1 x) = 1 - phi(x) and
phi(d_1 s) = phi(d_2 s) + phi(d_0 s); the degree-one cocycles satisfy the
homogeneous versions with the Connes sign, f(tau_1 x) = -f(x).  All
arithmetic is exact rational.
"""

from __future__ import annotations

__all__ = ["state_system", "StateSearch", "find_state", "hc1"]

from dataclasses import dataclass

from . import ratlp
from .cyclic import CyclicSSet
from .util import StructureError


def state_system(c: CyclicSSet):
    """(A, b) over variables indexed by the 1-simplices: one row per edge
    (phi(tau x) + phi(x) = 1) and per 2-simplex (additivity); redundant
    rows are kept.  The coefficients are ints, which ratlp reads as they
    are."""
    x = c.base
    n = x.counts[1]
    A, b = [], []
    t1 = c.tau[1]
    for e in x.simplices(1):
        row = [0] * n
        row[t1[e]] += 1
        row[e] += 1
        A.append(row)
        b.append(1)
    for sig in x.simplices(2):
        row = [0] * n
        row[x.face[(2, 1)][sig]] += 1
        row[x.face[(2, 2)][sig]] -= 1
        row[x.face[(2, 0)][sig]] -= 1
        A.append(row)
        b.append(0)
    return A, b


def _solves(A, b, x) -> bool:
    return all(sum(a * v for a, v in zip(row, x)) == r for row, r in zip(A, b))


@dataclass
class StateSearch:
    """A state and its polytope's analysis, or the emptiness certificate.

    dim is the affine dimension of the state polytope; vertices are its
    2n probe vertices (max, then min, of each coordinate in turn).  A is
    the state system's matrix, which hc1 reuses.
    """

    feasible: bool
    state: list | None
    farkas: list | None
    A: list
    dim: int | None = None
    vertices: list | None = None


def find_state(c: CyclicSSet) -> StateSearch:
    """The state polytope over the [0,1] box, from one LP.

    Returns a state that re-substitutes to exact zero residuals, with the
    polytope's affine dimension and 2n probe vertices; or, when there is no
    state, an independently verified Farkas certificate.  The affine hull
    is the equality system plus every box bound that is tight on the whole
    polytope, found by exact min and max of each variable.
    """
    A, b = state_system(c)
    lp = ratlp.BoxLP(A, b)
    status, x, _, farkas = lp.solve()
    if status == ratlp.INFEASIBLE:
        if not lp.verify_farkas(farkas):
            raise StructureError("infeasibility certificate failed verification")
        return StateSearch(False, None, farkas, A)
    if not _solves(A, b, x) or any(v < 0 or v > 1 for v in x):
        raise StructureError("simplex returned a non-solution")
    n = lp.n
    forced, vertices = [], []
    for j in range(n):
        obj = [0] * n
        obj[j] = 1
        _, xmax, vmax, _ = lp.solve(obj, maximize=True)
        _, xmin, vmin, _ = lp.solve(obj, maximize=False)
        vertices.extend([xmax, xmin])
        if vmax == 0 or vmin == 1:
            forced.append(obj)
    return StateSearch(True, x, None, A, n - ratlp.rank(A + forced), vertices)


def hc1(c: CyclicSSet, A=None):
    """Dimension and rational basis of the degree-one cyclic cocycles.

    They are the kernel of the state system's A, whose rows are the
    homogeneous state equations.  So the difference of two states lies in
    HC^1 by construction, and the state polytope's dimension is at most
    HC^1's.  A is built here unless the caller already has it.
    """
    if A is None:
        A, _ = state_system(c)
    basis = ratlp.nullspace(A, c.base.counts[1])
    for vec in basis:
        if not _solves(A, [0] * len(A), vec):
            raise StructureError("kernel vector fails exact re-substitution")
    return len(basis), basis
