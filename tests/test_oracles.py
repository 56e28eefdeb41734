"""Dual-route checks: core machinery against independent formulations."""

import itertools
import random
from fractions import Fraction
from math import comb

from scipy.optimize import linprog

from simpeff import cyclic as cyc
from simpeff import nerve as nv
from simpeff import palg, ratlp, sset, states


def test_weak_two_segal_limit_matches_group_commutator_oracle():
    # on a commutative nerve, a spine admits a triangulation membrane iff
    # every triangle's two edge products commute; the weak-2-Segal limit is
    # the set of spines admitting every triangulation, and it must equal the
    # simplex set exactly
    g = nv.quaternion_group()
    x = nv.comm_nerve(g, None, 4)

    def prod(t, i, j):
        acc = 0
        for k in range(i, j):
            acc = g.mul[acc][t[k]]
        return acc

    for n in (3, 4):
        tris = sset.triangulations(n)

        def admits(t, tr):
            return all(g.commute(prod(t, i, j), prod(t, j, k))
                       for (i, j, k) in tr.triangles)

        families = {t for t in itertools.product(range(8), repeat=n)
                    if all(admits(t, tr) for tr in tris)}
        assert families == {tuple(lbl) for lbl in x.labels[n]}


def test_effect_circle_structure_maps_match_tuple_formulas():
    # faces add adjacent entries (dropping an end at the extremes) and
    # degeneracies insert zero, read off through the theta labels
    e = palg.interval_effect_algebra(3)
    ex = nv.effect_functor(e, nv.simplicial_circle(4))
    lab = ex.labels

    def thetas(t, n):
        return t[1: n + 1]

    for n in range(2, 5):
        for s, t in enumerate(lab[n]):
            a = thetas(t, n)
            for j in range(n + 1):
                img = thetas(lab[n - 1][ex.face[(n, j)][s]], n - 1)
                if j == 0:
                    want = a[1:]
                elif j == n:
                    want = a[:-1]
                else:
                    want = a[: j - 1] + (a[j - 1] + a[j],) + a[j + 1:]
                assert img == want
            if n < 4:
                for j in range(n + 1):
                    img = thetas(lab[n + 1][ex.deg[(n, j)][s]], n + 1)
                    assert img == a[:j] + (0,) + a[j:]


def _from_scratch_box_lp(A, b, objective=None, maximize=True):
    """The box LP solved with both phases on every call: the reference for
    BoxLP, which runs phase 1 once and carries its reduced-cost row.

    Same standard form, Bland's rule and exact arithmetic, but every reduced
    cost is recomputed as a full column sum at each pivot.
    """
    n, m = (len(A[0]) if A else 0), len(A)
    rows = [[Fraction(v) for v in A[i]] + [Fraction(0)] * n for i in range(m)]
    rhs = [Fraction(v) for v in b]
    for j in range(n):
        rows.append([Fraction(int(k in (j, n + j))) for k in range(2 * n)])
        rhs.append(Fraction(1))
    nrows, width = len(rows), 2 * n
    signs = [-1 if v < 0 else 1 for v in rhs]
    tab = [[sg * v for v in row] + [Fraction(int(k == i)) for k in range(nrows)]
           for i, (row, sg) in enumerate(zip(rows, signs))]
    rhs = [sg * v for v, sg in zip(rhs, signs)]
    basis = [width + i for i in range(nrows)]

    def pivot(r, c):
        pv = tab[r][c]
        tab[r] = [v / pv for v in tab[r]]
        rhs[r] /= pv
        for i in range(len(tab)):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[r])]
                rhs[i] -= f * rhs[r]
        basis[r] = c

    def simplex(cost, allowed):
        while True:
            enter = next((j for j in allowed if j not in basis and cost[j] - sum(
                cost[basis[i]] * tab[i][j] for i in range(len(tab))) > 0), None)
            if enter is None:
                return
            leave, best = None, None
            for i in range(len(tab)):
                if tab[i][enter] > 0:
                    ratio = rhs[i] / tab[i][enter]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best, leave = ratio, i
            pivot(leave, enter)

    cost1 = [Fraction(0)] * width + [Fraction(-1)] * nrows
    simplex(cost1, range(width + nrows))
    if sum(cost1[basis[i]] * rhs[i] for i in range(nrows)) < 0:
        y = [sum(cost1[basis[r]] * tab[r][width + i] for r in range(nrows)) for i in range(nrows)]
        return ratlp.INFEASIBLE, None, None, [-y[i] * signs[i] for i in range(nrows)]
    for r in range(nrows):
        if basis[r] >= width and rhs[r] == 0:
            c = next((j for j in range(width) if tab[r][j] != 0), None)
            if c is not None:
                pivot(r, c)
    live = [r for r in range(nrows) if basis[r] < width]
    tab[:] = [tab[r][:width] for r in live]
    rhs[:] = [rhs[r] for r in live]
    basis[:] = [basis[r] for r in live]
    sign = 1 if maximize else -1
    cost2 = [sign * Fraction(v) for v in objective or [0] * n] + [Fraction(0)] * n
    simplex(cost2, range(width))
    x = [Fraction(0)] * n
    for r, bvar in enumerate(basis):
        if bvar < n:
            x[bvar] = rhs[r]
    return ratlp.OPTIMAL, x, sum(Fraction(v) * xj for v, xj in zip(objective or [0] * n, x)), None


def _random_box_lps(count=40, seed=97):
    """(A, b, objectives) with small integer data; objectives come from a
    second stream, so the systems do not depend on how many are drawn."""
    rng, orng = random.Random(seed), random.Random(seed + 1)
    for _ in range(count):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 4)
        A = [[Fraction(rng.randrange(-3, 4)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randrange(-2, 5), rng.choice([1, 2])) for _ in range(m)]
        objectives = [[Fraction(orng.randrange(-2, 3)) for _ in range(n)] for _ in range(3)]
        yield A, b, objectives


def _random_rational_box_lps(count=40, seed=61):
    """(A, b, objectives) whose A entries have denominators 2 to 6, so that
    each tableau row starts with its own denominator; objectives come from a
    second stream, as in _random_box_lps."""
    rng, orng = random.Random(seed), random.Random(seed + 1)
    for _ in range(count):
        n = rng.randrange(1, 5)
        m = rng.randrange(1, 4)
        A = [[Fraction(rng.randrange(-6, 7), rng.randrange(2, 7)) for _ in range(n)]
             for _ in range(m)]
        b = [Fraction(rng.randrange(-2, 5), rng.randrange(1, 5)) for _ in range(m)]
        objectives = [[Fraction(orng.randrange(-2, 3), orng.randrange(1, 4)) for _ in range(n)]
                      for _ in range(3)]
        yield A, b, objectives


def test_box_lp_against_floating_point_solver():
    for A, b, objectives in itertools.chain(_random_box_lps(), _random_rational_box_lps()):
        n = len(A[0])
        lp = ratlp.BoxLP(A, b)
        status, _, _, farkas = lp.solve()
        ref = linprog(c=[0.0] * n, A_eq=[[float(v) for v in r] for r in A],
                      b_eq=[float(v) for v in b], bounds=[(0, 1)] * n,
                      method="highs")
        assert (status == ratlp.OPTIMAL) == (ref.status == 0)
        if status == ratlp.INFEASIBLE:
            assert lp.verify_farkas(farkas)
            continue
        for obj in objectives:
            for maximize in (True, False):
                _, _, value, _ = lp.solve(obj, maximize=maximize)
                sign = -1.0 if maximize else 1.0
                ref2 = linprog(c=[sign * float(v) for v in obj],
                               A_eq=[[float(v) for v in r] for r in A],
                               b_eq=[float(v) for v in b], bounds=[(0, 1)] * n,
                               method="highs")
                assert abs(float(value) - sign * ref2.fun) < 1e-7


def test_box_lp_matches_from_scratch_solver():
    # random systems with integer and with rational A, then the state
    # systems of the L2, L3 and bool2 effect nerves with every coordinate as
    # objective; a state system only reads levels 1 and 2
    cases = list(_random_box_lps()) + list(_random_rational_box_lps())
    for e in (palg.interval_effect_algebra(2), palg.interval_effect_algebra(3),
              palg.boolean_effect_algebra(2)):
        x = nv.nerve(e.magma, 2)
        A, b = states.state_system(cyc.effect_nerve_cyclic(e, x))
        n = len(A[0])
        cases.append((A, b, [[Fraction(int(k == j)) for k in range(n)] for j in range(n)]))
    infeasible = 0
    for A, b, objectives in cases:
        lp = ratlp.BoxLP(A, b)
        for obj in [None] + objectives:
            for maximize in (True, False):
                got = lp.solve(obj, maximize=maximize)
                assert got == _from_scratch_box_lp(A, b, obj, maximize)
        infeasible += got[0] == ratlp.INFEASIBLE
    assert 0 < infeasible < len(cases)


def test_surjection_enumeration_counts():
    """C(k, d) surjections, listed in the order of a brute-force filter."""
    for k in range(7):
        for d in range(k + 1):
            surj = sset._surjections(k, d)
            assert len(surj) == comb(k, d)
            assert surj == [t for t in itertools.product(range(d + 1), repeat=k + 1)
                            if list(t) == sorted(t) and len(set(t)) == d + 1]
