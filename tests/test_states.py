import random
from fractions import Fraction

import numpy as np
import pytest

from simpeff import cyclic as cyc
from simpeff import nerve as nv
from simpeff import palg, ratlp, states

import ratlp_oracles
from conftest import nerve_of
from sset_oracles import point


def effect_cyclic(e, K=4):
    return cyc.effect_nerve_cyclic(e, nerve_of(e.magma, K))


@pytest.fixture(scope="module")
def l2_cyclic():
    return effect_cyclic(palg.interval_effect_algebra(2))


@pytest.fixture(scope="module")
def bool2_cyclic():
    return effect_cyclic(palg.boolean_effect_algebra(2))


@pytest.fixture(scope="module")
def z2_z1_cyclic():
    z2 = nv.cyclic_group(2)
    x = nerve_of(nv.magma_of_group(z2), 4)
    return cyc.group_nerve_cyclic(z2, 1, x)


# ---------------------------------------------------------------------------
# exact LP kernel


def test_rref_and_nullspace():
    rows = [[Fraction(1), Fraction(1), Fraction(0)],
            [Fraction(0), Fraction(1), Fraction(1)]]
    basis = ratlp.nullspace(rows, 3)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v[1] + v[2] == 0


def _is_rref(mat, pivots):
    """Leading ones in strictly increasing columns, zeros elsewhere in each
    pivot column, and every row past the pivots zero."""
    if pivots != sorted(set(pivots)):
        return False
    for r, row in enumerate(mat):
        if r >= len(pivots):
            if any(row):
                return False
            continue
        p = pivots[r]
        if any(row[:p]) or row[p] != 1 or any(mat[i][p] for i in range(len(mat)) if i != r):
            return False
    return True


def test_rref_rank_nullspace_on_random_matrices():
    # tall, wide, square, zero-row and zero-column shapes; each matrix is
    # small-integer combinations of k random rows, so its rank is at most k
    rng = random.Random(19)
    shapes = [(0, 3), (3, 0), (0, 0), (1, 1), (6, 2), (7, 3), (2, 6), (3, 8), (4, 4), (5, 5)]
    for nrows, ncols in shapes * 6:
        k = rng.randrange(min(nrows, ncols) + 1)
        gens = [[rng.randint(-3, 3) for _ in range(ncols)] for _ in range(k)]
        rows = [[Fraction(sum(c * g[j] for c, g in zip(coeffs, gens))) for j in range(ncols)]
                for coeffs in ([rng.randint(-2, 2) for _ in range(k)] for _ in range(nrows))]
        mat, pivots = ratlp.rref(rows)
        assert _is_rref(mat, pivots), rows
        rank = ratlp.rank(rows)
        assert rank == len(pivots) == np.linalg.matrix_rank(
            np.array(rows, dtype=float).reshape(nrows, ncols)), rows
        basis = ratlp.nullspace(rows, ncols)
        assert len(basis) == ncols - rank
        assert all(sum(a * v for a, v in zip(row, vec)) == 0 for row in rows for vec in basis)
        if basis:
            assert np.linalg.matrix_rank(np.array(basis, dtype=float)) == len(basis)


def _random_rational_matrices(seed=23):
    """Rows of rationals with denominators 1 to 6 and either sign, some
    scaled copies of others, some matrices with a row or a column zeroed;
    then the empty shapes."""
    rng = random.Random(seed)

    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 6))

    for nrows, ncols in [(1, 1), (2, 3), (3, 2), (4, 4), (5, 3), (3, 6), (6, 6)] * 8:
        rows = []
        for _ in range(nrows):
            if rows and rng.random() < 0.3:
                rows.append([rng.choice([-2, -1, 1, 2]) * v for v in rng.choice(rows)])
            else:
                rows.append([entry() for _ in range(ncols)])
        if rng.random() < 0.3:
            rows[rng.randrange(nrows)] = [Fraction(0)] * ncols
        if rng.random() < 0.3:
            c = rng.randrange(ncols)
            for row in rows:
                row[c] = Fraction(0)
        yield rows, ncols
    yield from (([], 3), ([[], [], []], 0), ([], 0))


def test_rref_rank_nullspace_match_fraction_tableau():
    # exact equality with the Fraction elimination the integer rows replaced;
    # the tally makes sure some matrices have three or more denominators, a
    # negative first pivot, a zero row and a zero column
    seen = {"mixed denominators": 0, "negative pivot": 0, "zero row": 0, "zero column": 0}
    for rows, ncols in _random_rational_matrices():
        want_mat, want_pivots = ratlp_oracles.rref(rows)
        assert ratlp.rref(rows) == (want_mat, want_pivots), rows
        assert ratlp.rank(rows) == ratlp_oracles.rank(rows) == len(want_pivots)
        assert ratlp.nullspace(rows, ncols) == ratlp_oracles.nullspace(rows, ncols), rows
        if not rows or not ncols:
            continue
        column = [next((row[c] for row in rows if row[c]), 0) for c in range(ncols)]
        seen["mixed denominators"] += len({v.denominator for row in rows for v in row}) > 2
        seen["negative pivot"] += next((v < 0 for v in column if v), False)
        seen["zero row"] += any(not any(row) for row in rows)
        seen["zero column"] += not all(column)
    assert all(seen.values()), seen


def test_boxlp_feasible_vertex():
    # x0 + x1 = 1 inside the unit box
    lp = ratlp.BoxLP([[1, 1]], [1])
    status, x, _, _ = lp.solve()
    assert status == ratlp.OPTIMAL
    assert x[0] + x[1] == 1 and all(0 <= v <= 1 for v in x)
    _, _, vmax, _ = lp.solve([1, 0], maximize=True)
    _, _, vmin, _ = lp.solve([1, 0], maximize=False)
    assert vmax == 1 and vmin == 0


def test_boxlp_infeasible_certificate():
    # x0 = 2 cannot hold in the box
    lp = ratlp.BoxLP([[1]], [2])
    status, _, _, farkas = lp.solve()
    assert status == ratlp.INFEASIBLE
    assert lp.verify_farkas(farkas)


def test_boxlp_inconsistent_equalities():
    lp = ratlp.BoxLP([[1, 1], [1, 1]], [0, 1])
    status, _, _, farkas = lp.solve()
    assert status == ratlp.INFEASIBLE
    assert lp.verify_farkas(farkas)


# ---------------------------------------------------------------------------
# state systems


def test_state_system_shape(l2_cyclic):
    A, b = states.state_system(l2_cyclic)
    assert all(len(row) == 3 for row in A)
    assert len(A) == len(b) == 3 + 6  # tau rows + 2-simplex rows


def test_l2_unique_state(l2_cyclic):
    found = states.find_state(l2_cyclic)
    assert found.feasible
    lab = l2_cyclic.base.labels[1]
    values = {lab[i]: v for i, v in enumerate(found.state)}
    assert values == {0: Fraction(0), 1: Fraction(1, 2), 2: Fraction(1)}
    assert states.find_state(l2_cyclic).dim == 0


def test_l2_hc1_trivial(l2_cyclic):
    dim, basis = states.hc1(l2_cyclic)
    assert dim == 0 and basis == []


@pytest.mark.parametrize("K", [3, 4])
@pytest.mark.parametrize("n", range(1, 7))
def test_interval_effect_algebra_unique_state(n, K):
    # L_n has exactly one state, i -> i/n, and no degree-one cocycles
    c = effect_cyclic(palg.interval_effect_algebra(n), K)
    found = states.find_state(c)
    assert found.feasible and found.dim == 0
    assert dict(zip(c.base.labels[1], found.state)) == {i: Fraction(i, n) for i in range(n + 1)}
    assert states.hc1(c, found.A) == (0, [])


def test_point_state():
    # the unique edge is tau_1-fixed, so phi(e) = 1 - phi(e) clashes with the
    # degenerate-simplex additivity phi(e) = 2 phi(e): no states, like the
    # one-element effect algebra
    p = point(3)
    c = cyc.CyclicSSet(p, {n: [0] for n in range(1, 4)})
    found = states.find_state(c)
    assert not found.feasible
    assert states.hc1(c)[0] == 0


def test_z2_z1_empty(z2_z1_cyclic):
    found = states.find_state(z2_z1_cyclic)
    assert not found.feasible
    assert found.farkas is not None  # verified inside find_state
    assert states.find_state(z2_z1_cyclic).dim is None


def test_bool2_dims(bool2_cyclic):
    assert states.find_state(bool2_cyclic).dim == 1
    dim, basis = states.hc1(bool2_cyclic)
    assert dim == 1
    # the basis vector must be antisymmetric under the orthocomplement
    t1 = bool2_cyclic.tau[1]
    vec = basis[0]
    assert all(vec[t1[e]] == -vec[e] for e in range(len(vec)))


def test_exact_residuals(l2_cyclic, bool2_cyclic):
    for c in (l2_cyclic, bool2_cyclic):
        found = states.find_state(c)
        A, b = states.state_system(c)
        assert all(sum(a * v for a, v in zip(row, found.state)) == r for row, r in zip(A, b))


def test_shifted_states_in_hc1():
    for e in (palg.interval_effect_algebra(2), palg.interval_effect_algebra(3),
              palg.interval_effect_algebra(4), palg.boolean_effect_algebra(2)):
        assert states.shifted_states_in_hc1(effect_cyclic(e))


def test_polytope_dim_at_most_hc1():
    for e in (palg.interval_effect_algebra(2), palg.interval_effect_algebra(3),
              palg.boolean_effect_algebra(2), palg.boolean_effect_algebra(3)):
        c = effect_cyclic(e)
        dim = states.find_state(c).dim
        assert dim is not None
        assert dim <= states.hc1(c)[0]


def test_bool3_evaluation_states():
    # Boolean algebra on k atoms: states = convex hull of the k evaluation
    # states (point masses), so dimension k - 1, and the probe vertices are
    # exactly the point masses: the mass at atom i is 1 on the elements
    # (bitmasks) that contain i
    for k in (1, 2, 3):
        c = effect_cyclic(palg.boolean_effect_algebra(k))
        found = states.find_state(c)
        masses = {tuple(Fraction(a >> i & 1) for a in c.base.labels[1]) for i in range(k)}
        assert {tuple(v) for v in found.vertices} == masses
    assert found.dim == 2
    assert states.hc1(c)[0] == 2


def product_effect_algebra(e, f):
    """E x F with componentwise sum and orthocomplement; the pair (a, b) has
    id a * |F| + b, so (0, 0) is id 0."""
    n = f.size
    product = {(a * n + b, c * n + d): ac * n + bd
               for (a, c), ac in e.magma.product.items()
               for (b, d), bd in f.magma.product.items()}
    perp = tuple(e.orthocomplement[a] * n + f.orthocomplement[b]
                 for a in range(e.size) for b in range(n))
    return palg.FiniteEffectAlgebra(palg.PartialUnitalMagma(e.size * n, product), perp)


FACTORS = {"L1": palg.interval_effect_algebra(1), "L2": palg.interval_effect_algebra(2),
           "L3": palg.interval_effect_algebra(3), "bool2": palg.boolean_effect_algebra(2)}


@pytest.mark.parametrize("left, right, dim", [
    ("L1", "L1", 1), ("L2", "L1", 1), ("L2", "L2", 1), ("L2", "bool2", 2), ("L3", "L1", 1),
    ("bool2", "L1", 2)])
def test_product_effect_algebra_states(left, right, dim):
    # a state of E x F is a convex combination of states of the two factors,
    # so dim S(E x F) = dim S(E) + dim S(F) + 1; HC^1 has the same dimension
    e, f = FACTORS[left], FACTORS[right]
    ef = product_effect_algebra(e, f)
    assert all(ch.ok for ch in palg.validate_effect_algebra(ef))
    c = effect_cyclic(ef, K=3)
    assert all(ch.ok for ch in cyc.battery(c))
    found = states.find_state(c)
    factor_dims = [states.find_state(effect_cyclic(g, K=3)).dim for g in (e, f)]
    assert found.dim == sum(factor_dims) + 1 == dim
    assert states.hc1(c, found.A)[0] == dim
