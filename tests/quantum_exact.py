"""Exact certificate that the key example's witness membrane has no filler.

Every entry of simpeff.quantum.build_witness lies in Q(omega), with omega =
exp(2 pi i / 3): the blocks of Pi and Psi are 0/1 basis projectors and two
entangled projectors whose entries are +-1/2, and A, B, C are sums
omega^0 P_0 + omega^1 P_1 + omega^2 P_2 of such blocks.  So the witness can
be rebuilt, and its 2-Segal failure proved, with Fractions alone:

- an element a + b omega of Q(omega) is the pair (a, b) of Fractions, with
  omega^2 = -1 - omega, conj(a + b omega) = (a - b) - b omega and
  |a + b omega|^2 = a^2 - ab + b^2;
- a 9 x 9 matrix is the dict of its nonzero entries, keyed by (row, column);
- a 2-simplex is the dict from every outcome pair (a, b) of (Z/3)^2 to its
  block, and a 1-simplex the dict from the outcomes (c,) to theirs.

certify_no_filler asserts the proof without tolerance, then that the float
witness agrees with it within TOL_EQ.
"""

import itertools
import math
from fractions import Fraction

import numpy as np

from simpeff import quantum as q

ZERO = Fraction(0)
HALF = Fraction(1, 2)
ONE = (Fraction(1), ZERO)
MINUS_ONE = (Fraction(-1), ZERO)
OMEGA_POWERS = (ONE, (ZERO, Fraction(1)), (Fraction(-1), Fraction(-1)))  # omega^0, ^1, ^2
PAIRS = list(itertools.product(range(3), repeat=2))
FORBIDDEN = ((1, 1), (2, 1), (1, 2))
IDENTITY = {(k, k): ONE for k in range(q.DIM)}


def _mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0] - x[1] * y[1])


def _conj(x):
    return (x[0] - x[1], -x[1])


def _abs2(x):
    return x[0] * x[0] - x[0] * x[1] + x[1] * x[1]


def _add_into(out, key, x):
    """out[key] += x, dropping the entry when the sum is zero."""
    old = out.get(key, (ZERO, ZERO))
    total = (old[0] + x[0], old[1] + x[1])
    if total == (ZERO, ZERO):
        out.pop(key, None)
    else:
        out[key] = total


def _lin(*terms):
    """The sum of c * m over the (c, m) terms, c in Q(omega)."""
    out = {}
    for c, m in terms:
        for key, x in m.items():
            _add_into(out, key, _mul(c, x))
    return out


def _matmul(a, b):
    rows = {}
    for (k, j), x in b.items():
        rows.setdefault(k, []).append((j, x))
    out = {}
    for (i, k), x in a.items():
        for j, y in rows.get(k, ()):
            _add_into(out, (i, j), _mul(x, y))
    return out


def _dagger(a):
    return {(j, i): _conj(x) for (i, j), x in a.items()}


def _frob2(a):
    """The squared Frobenius norm, an exact Fraction."""
    return sum((_abs2(x) for x in a.values()), ZERO)


def _commutator(a, b):
    return _lin((ONE, _matmul(a, b)), (MINUS_ONE, _matmul(b, a)))


def _rank(p):
    """The rank of a projector, its trace; p is Hermitian, so its diagonal is
    rational."""
    return sum((x[0] for (i, j), x in p.items() if i == j), ZERO)


def _face(m, i):
    """Fibre-sum face of a 2-simplex: d_0 (a, b) = b, d_1 (a, b) = a + b,
    d_2 (a, b) = a, outcome labels adding in Z/3."""
    return {(c,): _lin(*((ONE, m[(a, b)]) for a, b in PAIRS if (b, (a + b) % 3, a)[i] == c))
            for c in range(3)}


def _unitary(m, axis):
    """u = sum_t omega^{t[axis]} m^t, the unitary of coordinate axis."""
    return _lin(*((OMEGA_POWERS[t[axis]], block) for t, block in m.items()))


def _projector(*indices):
    """The projector onto the span of the given basis vectors of C^9."""
    return {(k, k): ONE for k in indices}


def _exact_witness():
    """Pi and Psi of build_witness's recipe, basis vector e_{3a+b} for the
    label (a, b): Pi^01 is the rank-4 sum of e_1, e_4, e_7 and e_5, and Psi
    carries the projectors onto (e_2 +- e_6) / sqrt(2), whose entries are
    +-1/2."""
    pi = {t: {} for t in PAIRS}
    for a, b in ((0, 0), (0, 2), (1, 0), (2, 0), (2, 2)):
        pi[(a, b)] = _projector(3 * a + b)
    pi[(0, 1)] = _projector(1, 4, 7, 5)
    psi = {t: {} for t in PAIRS}
    psi[(2, 0)] = {(i, j): (HALF, ZERO) for i in (2, 6) for j in (2, 6)}
    psi[(1, 0)] = _projector(1, 4, 7, 5, 3, 8)
    psi[(0, 1)] = _projector(0)
    psi[(2, 2)] = {(i, j): (HALF if i == j else -HALF, ZERO) for i in (2, 6) for j in (2, 6)}
    return pi, psi


def _assert_projective_measurement(m):
    """Hermitian, idempotent, pairwise orthogonal blocks summing to 1."""
    for t, p in m.items():
        assert _dagger(p) == p, t
        assert _matmul(p, p) == p, t
    for s, t in itertools.combinations(m, 2):
        assert _matmul(m[s], m[t]) == {}, (s, t)
    assert _lin(*((ONE, p) for p in m.values())) == IDENTITY


def _as_complex(m):
    out = np.zeros((q.DIM, q.DIM), dtype=complex)
    for (i, j), (a, b) in m.items():
        out[i, j] = float(a) + float(b) * q.OMEGA
    return out


def certify_no_filler(witness):
    """Prove that the membrane of build_witness (Pi on 012, Psi on 023) has
    no 3-simplex filler in the key example, then check the float witness
    against the proof.

    A 3-simplex is a projective measurement indexed by (Z/3)^3, that is the
    joint spectral family of a commuting triple (u1, u2, u3) of 3-torsion
    unitaries, u_i = sum_t omega^{t_i} Pi^t, and the edge from vertex i to
    vertex j carries u_{i+1} ... u_j.  A filler must have d_3 = Pi, the face
    012, whose two coordinates give u1 = A and u2 = B; and d_1 = Psi, the
    face 023, whose second coordinate gives u3 = C, the unitary of
    d_0 Psi.  So a filler's commuting triple can only be (A, B, C); the two
    faces share the edge 02 because d_2 Psi = d_1 Pi, and [A, B] = 0, but
    |[B, C]|_F^2 = 9/2, so B and C do not commute and no filler exists.
    Every step below is an equality of Fractions.
    """
    pi, psi = _exact_witness()
    for m in (pi, psi):
        _assert_projective_measurement(m)
        assert all(m[t] == {} for t in FORBIDDEN)
    assert _face(psi, 2) == _face(pi, 1)
    a_mat, b_mat, c_mat = (_unitary(_face(m, i), 0) for m, i in ((pi, 2), (pi, 0), (psi, 0)))
    # the faces force the triple: Pi's coordinates are A and B, Psi's second is C
    assert (_unitary(pi, 0), _unitary(pi, 1), _unitary(psi, 1)) == (a_mat, b_mat, c_mat)
    assert _commutator(a_mat, b_mat) == {}
    assert _frob2(_commutator(b_mat, c_mat)) == _frob2(_commutator(a_mat, c_mat)) == Fraction(9, 2)

    for name, m in (("Pi", pi), ("Psi", psi)):
        for t in PAIRS:
            assert q.frob(witness[name][t] - _as_complex(m[t])) < q.TOL_EQ, (name, t)
    for name, exact in (("A", a_mat), ("B", b_mat), ("C", c_mat)):
        assert q.frob(witness[name] - _as_complex(exact)) < q.TOL_EQ, name
    checks = witness["checks"]
    assert checks["pi_in_key_example"] and checks["psi_in_key_example"]
    assert checks["pi01_rank"] == _rank(pi[(0, 1)]) == 4
    assert checks["d2psi_eq_d1pi_residual"] < q.TOL_EQ
    assert checks["AB_commutator"] < q.TOL_EQ
    for key in ("BC_commutator", "AC_commutator"):
        assert abs(checks[key] - math.sqrt(4.5)) < q.TOL_EQ, key
