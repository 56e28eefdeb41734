"""Numerical reconstruction of the C^9 key example.

Pointwise work on the simplicial set of three-outcome projective
measurements: spectral decomposition of 3-torsion unitaries, measurements
indexed by (Z/3)^n outcome tuples, membership in the full simplicial subset
with Pi^11 = Pi^21 = Pi^12 = 0, the explicit witness pair of 2-simplices
with no 3-simplex filler, and the Born-rule state formula checks.  Nothing
infinite is materialized; every claim is pointwise or sampled.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .nerve import insert_unit, tuple_face
from .util import InputError

TOL_EQ = 1e-9        # operator equality, Frobenius norm
TOL_PROJ = 1e-6      # "is a projector" / commutation acceptance
NONCOMM_MARGIN = 0.1  # asserted lower bound for genuine non-commutation

D = 3
DIM = 9
OMEGA = np.exp(2j * np.pi / 3)
# outcome labels add in Z/3, so face maps multiply through this table
_Z3_ADD = tuple(tuple((a + b) % D for b in range(D)) for a in range(D))


def frob(a) -> float:
    return float(np.linalg.norm(a))


def dagger(a):
    return a.conj().T


def is_unitary(u) -> bool:
    return frob(u @ dagger(u) - np.eye(u.shape[0])) < TOL_PROJ


def commutator_norm(a, b) -> float:
    return frob(a @ b - b @ a)


def eigenprojectors(u):
    """Spectral projectors of a D-torsion unitary via the finite Fourier sum
    P_a = (1/D) sum_k omega^{-ak} u^k; reconstruction sum_a omega^a P_a = u."""
    dim = u.shape[0]
    if not is_unitary(u):
        raise InputError("input is not unitary within tolerance")
    powers = [np.eye(dim, dtype=complex)]
    for _ in range(D):
        powers.append(powers[-1] @ u)
    if frob(powers[D] - np.eye(dim)) > TOL_PROJ:
        raise InputError(f"input is not {D}-torsion within tolerance")
    projs = []
    for a in range(D):
        p = sum(OMEGA ** (-a * k) * powers[k] for k in range(D)) / D
        projs.append(p)
    recon = sum(OMEGA ** a * p for a, p in enumerate(projs))
    if frob(recon - u) > TOL_EQ:
        raise InputError("spectral reconstruction failed")
    return projs


@dataclass
class ProjectiveMeasurement:
    """Finitely indexed projective measurement: outcome tuple -> projector."""

    arity: int
    ops: dict  # (a_1..a_n) in (Z/3)^arity -> ndarray

    def outcomes(self):
        return sorted(self.ops)

    @property
    def dim(self):
        return next(iter(self.ops.values())).shape[0]

    def validate(self):
        total = np.zeros((self.dim, self.dim), dtype=complex)
        outs = self.outcomes()
        if len(outs) != D ** self.arity or any(len(t) != self.arity for t in outs):
            raise InputError("measurement must be indexed by all outcome tuples")
        for t in outs:
            p = self.ops[t]
            if frob(p @ p - p) > TOL_PROJ or frob(dagger(p) - p) > TOL_PROJ:
                raise InputError(f"entry {t} is not a projector")
            total = total + p
        for t1, t2 in itertools.combinations(outs, 2):
            if frob(self.ops[t1] @ self.ops[t2]) > TOL_PROJ:
                raise InputError(f"entries {t1}, {t2} are not orthogonal")
        if frob(total - np.eye(self.dim)) > TOL_EQ:
            raise InputError("entries do not sum to the identity")

    def close_to(self, other) -> bool:
        return (self.arity == other.arity
                and max(frob(self.ops[t] - other.ops[t]) for t in self.ops) < TOL_EQ)


def _zero_ops(arity, dim):
    """Outcome tuple -> zero block, for every tuple in (Z/3)^arity in order."""
    return {t: np.zeros((dim, dim), dtype=complex)
            for t in itertools.product(range(D), repeat=arity)}


def _ordered_product(ms):
    """ms[0] @ ms[1] @ .., multiplied left to right onto the identity."""
    return functools.reduce(np.matmul, ms, np.eye(ms[0].shape[0], dtype=complex))


def face(m: ProjectiveMeasurement, i: int) -> ProjectiveMeasurement:
    """Fibre-sum face map: (d_i m)^c = sum of m^t over t with d_i(t) = c."""
    n = m.arity
    ops = _zero_ops(n - 1, m.dim)
    for t, p in m.ops.items():
        c = tuple_face(_Z3_ADD, n, i, t)
        ops[c] = ops[c] + p
    return ProjectiveMeasurement(n - 1, ops)


def degeneracy(m: ProjectiveMeasurement, i: int) -> ProjectiveMeasurement:
    """(s_i m)^t = m^{t minus position i} when t[i] = 0, else the zero block."""
    n = m.arity
    ops = _zero_ops(n + 1, m.dim)
    for c, p in m.ops.items():
        ops[insert_unit(n, i, c)] = p.copy()
    return ProjectiveMeasurement(n + 1, ops)


def measurement_from_unitaries(us) -> ProjectiveMeasurement:
    """Pi^{a_1..a_n} as the product of the unitaries' eigenprojectors.

    The unitaries must pairwise commute within tolerance; a violation is an
    input error carrying the commutator norm.
    """
    for i, j in itertools.combinations(range(len(us)), 2):
        nc = commutator_norm(us[i], us[j])
        if nc > TOL_PROJ:
            raise InputError(f"unitaries {i}, {j} do not commute: |[u_i,u_j]|_F = {nc:.6g}")
    projs = [eigenprojectors(u) for u in us]
    ops = {t: _ordered_product([projs[k][a] for k, a in enumerate(t)])
           for t in itertools.product(range(D), repeat=len(us))}
    m = ProjectiveMeasurement(len(us), ops)
    m.validate()
    return m


def unitaries_from_measurement(m: ProjectiveMeasurement):
    """Inverse of measurement_from_unitaries: u_i = sum_t omega^{t_i} Pi^t."""
    out = []
    for i in range(m.arity):
        u = np.zeros((m.dim, m.dim), dtype=complex)
        for t, p in m.ops.items():
            u = u + OMEGA ** t[i] * p
        out.append(u)
    return out


_FORBIDDEN = ((1, 1), (2, 1), (1, 2))
_ALLOWED = ((0, 0), (0, 1), (0, 2), (1, 0), (2, 0), (2, 2))


def in_key_example(m: ProjectiveMeasurement):
    """Membership of a 2-simplex in the full subset with the three zeros.

    Returns (bool, witness): the witness names the first forbidden label
    carrying a nonzero projector and its norm.
    """
    if m.dim != DIM:
        raise InputError(f"key example lives on C^{DIM}")
    if m.arity != 2:
        raise InputError("in_key_example takes 2-simplices; use in_key_example_tuple")
    for t in _FORBIDDEN:
        nrm = frob(m.ops[t])
        if nrm > TOL_EQ:
            return False, (t, nrm)
    return True, None


def in_key_example_tuple(us):
    """Arity-n membership: every 2-face of the simplex spanned by the
    commuting tuple must satisfy the three-zero condition."""
    n = len(us)
    if n == 2:
        return in_key_example(measurement_from_unitaries(us))
    for i, j, k in itertools.combinations(range(n + 1), 3):
        ab = [_ordered_product(us[i:j]), _ordered_product(us[j:k])]
        ok, wit = in_key_example(measurement_from_unitaries(ab))
        if not ok:
            return False, ((i, j, k), wit)
    return True, None


# ---------------------------------------------------------------------------
# the witness bundle


def _gamma(a, b):
    p = np.zeros((DIM, DIM), dtype=complex)
    p[3 * a + b, 3 * a + b] = 1.0
    return p


def build_witness():
    """The explicit pair of 2-simplices exhibiting the 2-Segal failure.

    Pi has the rank-4 block at outcome 01 and zeros at 11, 21, 12; Psi glues
    onto d_1(Pi) along d_2(Psi) and involves the entangled +/- projectors.
    A, B, C are the unitaries of d_2(Pi), d_0(Pi), d_0(Psi); (A, B) commute,
    (B, C) do not, so the glued pair of triangles has no filler.
    """
    basis = {(a, b): _gamma(a, b) for a in range(3) for b in range(3)}
    pi01 = basis[(0, 1)] + basis[(1, 1)] + basis[(2, 1)] + basis[(1, 2)]
    pi_ops = _zero_ops(2, DIM)
    pi_ops.update({t: basis[t].copy() for t in _ALLOWED})
    pi_ops[(0, 1)] = pi01
    pi = ProjectiveMeasurement(2, pi_ops)
    pi.validate()

    plus = np.zeros(DIM, dtype=complex)
    plus[3 * 0 + 2] = 1 / np.sqrt(2)
    plus[3 * 2 + 0] = 1 / np.sqrt(2)
    minus = np.zeros(DIM, dtype=complex)
    minus[3 * 0 + 2] = 1 / np.sqrt(2)
    minus[3 * 2 + 0] = -1 / np.sqrt(2)
    gp = np.outer(plus, plus.conj())
    gm = np.outer(minus, minus.conj())

    psi_ops = _zero_ops(2, DIM)
    psi_ops[(2, 0)] = gp
    psi_ops[(1, 0)] = pi01 + basis[(1, 0)] + basis[(2, 2)]
    psi_ops[(0, 1)] = basis[(0, 0)].copy()
    psi_ops[(2, 2)] = gm
    psi = ProjectiveMeasurement(2, psi_ops)
    psi.validate()

    [a_mat] = unitaries_from_measurement(face(pi, 2))
    [b_mat] = unitaries_from_measurement(face(pi, 0))
    [c_mat] = unitaries_from_measurement(face(psi, 0))
    checks = {
        "pi_in_key_example": in_key_example(pi)[0],
        "psi_in_key_example": in_key_example(psi)[0],
        "pi01_rank": int(round(np.trace(pi01).real)),
        "d2psi_eq_d1pi_residual": _glue_residual(pi, psi),
        "AB_commutator": commutator_norm(a_mat, b_mat),
        "BC_commutator": commutator_norm(b_mat, c_mat),
        "AC_commutator": commutator_norm(a_mat, c_mat),
    }
    return {"Pi": pi, "Psi": psi, "A": a_mat, "B": b_mat, "C": c_mat, "checks": checks}


def _glue_residual(pi: ProjectiveMeasurement, psi: ProjectiveMeasurement) -> float:
    """Largest Frobenius distance between d_2(psi) and d_1(pi), outcome by outcome."""
    d2, d1 = face(psi, 2), face(pi, 1)
    return max(frob(d2.ops[c] - d1.ops[c]) for c in d1.ops)


def membrane_filler_check(pi: ProjectiveMeasurement, psi: ProjectiveMeasurement):
    """Whether the triangulated-square membrane (pi on 012, psi on 023) has
    a 3-simplex filler in the key example.

    A filler is a commuting triple (u1, u2, u3) with d_3 = pi and d_1 = psi;
    the faces force u1, u2 from pi and u3 from psi, so the only obstruction
    data are the remaining commutators and the 2-face membership.
    """
    if _glue_residual(pi, psi) > TOL_EQ:
        raise InputError("pi and psi do not share the gluing edge")
    u1, u2 = unitaries_from_measurement(pi)
    u3 = unitaries_from_measurement(psi)[1]
    norms = {
        "12": commutator_norm(u1, u2),
        "13": commutator_norm(u1, u3),
        "23": commutator_norm(u2, u3),
    }
    if max(norms.values()) > TOL_PROJ:
        return False, norms
    ok, wit = in_key_example_tuple([u1, u2, u3])
    return ok, norms if ok else (norms, wit)


# ---------------------------------------------------------------------------
# sampling


def haar_unitary(rng, n):
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng):
    g = rng.standard_normal((DIM, DIM)) + 1j * rng.standard_normal((DIM, DIM))
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def validate_density(rho):
    """Positive semidefinite and trace one, within tolerance."""
    if frob(dagger(rho) - rho) > TOL_PROJ:
        raise InputError("density operator is not Hermitian")
    if abs(np.trace(rho).real - 1) > TOL_PROJ:
        raise InputError("density operator does not have unit trace")
    if np.linalg.eigvalsh(rho).min() < -TOL_PROJ:
        raise InputError("density operator is not positive semidefinite")
    return True


def _haar_blocks(rng, ranks):
    """u P u^dagger for consecutive diagonal blocks P of the given ranks,
    with one Haar-random u drawn from rng."""
    u = haar_unitary(rng, DIM)
    out = []
    start = 0
    for r in ranks:
        block = np.zeros((DIM, DIM), dtype=complex)
        for k in range(start, start + int(r)):
            block[k, k] = 1.0
        out.append(u @ block @ dagger(u))
        start += int(r)
    return out


def degenerate_two_simplex():
    ops = _zero_ops(2, DIM)
    ops[(0, 0)] = np.eye(DIM, dtype=complex)
    return ProjectiveMeasurement(2, ops)


def sample_z_two_simplex(rng, ranks=None) -> ProjectiveMeasurement:
    """Haar-conjugated block pattern on the six allowed labels.

    ranks: optional dict label -> nonnegative rank summing to 9; drawn
    uniformly from the compositions when omitted.
    """
    if ranks is None:
        ranks = dict(zip(_ALLOWED, rng.multinomial(DIM, [1 / len(_ALLOWED)] * len(_ALLOWED))))
    ops = _zero_ops(2, DIM)
    ops.update(zip(_ALLOWED, _haar_blocks(rng, [ranks.get(t, 0) for t in _ALLOWED])))
    m = ProjectiveMeasurement(2, ops)
    m.validate()
    return m


def inverseless_sample_check(trials: int, seed: int):
    """Sampled verification that the degenerate-edge square is a pullback.

    Each trial checks both directions: the unique d_1-degenerate 2-simplex
    (Haar-conjugated) collapses to the totally degenerate one through the
    three fibre-sum relations, and a generic sample with mass outside the
    00 label has a d_1 face quantifiably far from degenerate.
    """
    results = []
    ss = np.random.SeedSequence(seed)
    target = degenerate_two_simplex()
    deg_edge = face(target, 1).ops
    for child in ss.spawn(trials):
        rng = np.random.default_rng(child)
        sample = sample_z_two_simplex(rng, ranks={(0, 0): DIM})
        ok, _ = in_key_example(sample)
        d1 = face(sample, 1)
        rel = [frob(d1.ops[(0,)] - sample.ops[(0, 0)]),
               frob(sample.ops[(2, 2)] + sample.ops[(1, 0)] + sample.ops[(0, 1)] - d1.ops[(1,)]),
               frob(sample.ops[(2, 0)] + sample.ops[(0, 2)] - d1.ops[(2,)])]
        degenerate_input = max(frob(d1.ops[c] - deg_edge[c]) for c in deg_edge)
        collapse = max(frob(sample.ops[t] - target.ops[t]) for t in sample.ops)
        generic = sample_z_two_simplex(rng)
        off_mass = sum(np.trace(generic.ops[t]).real for t in _ALLOWED if t != (0, 0))
        gen_d1 = face(generic, 1)
        gen_gap = sum(np.trace(gen_d1.ops[c]).real for c in [(1,), (2,)])
        results.append({
            "in_key_example": bool(ok),
            "relation_residual": max(rel),
            "d1_degenerate_residual": degenerate_input,
            "collapse_residual": collapse,
            "collapsed": bool(ok and degenerate_input < TOL_EQ and collapse < TOL_EQ),
            "generic_gap_matches_off_mass": bool(abs(gen_gap - off_mass) < TOL_EQ),
        })
    passed = sum(1 for r in results if r["collapsed"] and r["generic_gap_matches_off_mass"])
    return {"trials": trials, "passed": passed, "results": results}


# ---------------------------------------------------------------------------
# states via the Born rule


def born_state(rho, m: ProjectiveMeasurement):
    """p(t) = Tr(rho Pi^t), in outcome-lexicographic order."""
    if rho.shape[0] != m.dim:
        raise InputError("dimension mismatch between state and measurement")
    validate_density(rho)
    p = [float(np.trace(rho @ m.ops[t]).real) for t in m.outcomes()]
    if any(v < -TOL_EQ for v in p) or abs(sum(p) - 1) > TOL_EQ:
        raise InputError("Born vector failed positivity or normalization")
    return p


def phi_state(rho, edge_ops):
    """The candidate state on a 1-simplex (P0, P1, P2):
    Tr(rho ((1 - P0) - P2 / 2))."""
    p0 = edge_ops[0]
    p2 = edge_ops[2]
    op = np.eye(p0.shape[0], dtype=complex) - p0 - 0.5 * p2
    return float(np.trace(rho @ op).real)


def _random_subprojector(rng, p):
    r = int(round(np.trace(p).real))
    if r == 0:
        return np.zeros_like(p)
    vals, vecs = np.linalg.eigh(p)
    cols = vecs[:, vals > 0.5]
    w = cols @ haar_unitary(rng, r)
    q = int(rng.integers(0, r + 1))
    sel = w[:, :q]
    return sel @ dagger(sel)


def key_example_state_check(rho, trials: int, seed: int):
    """Sampled verification of the trace-formula state on the key example.

    Per trial: draw a spectral family (P0, P1, P2) and a subprojector
    Q <= P0, build the 2-simplex with edges A = P0 + wP1 + w^2 P2 and
    B = (P1+Q) + w(P0-Q) + w^2 P2 (so AB has spectral family (Q, 1-Q, 0)),
    and check the partial-additivity equation, its swap-orthogonality, half,
    and third-zero specializations, plus general face additivity and the
    state range.  phi(w^2 1) = 1/2 is checked to 1e-12.
    """
    validate_density(rho)
    ss = np.random.SeedSequence(seed)
    eye = np.eye(DIM, dtype=complex)
    zero = np.zeros((DIM, DIM), dtype=complex)

    def phi(p0, p1, p2):
        return phi_state(rho, {0: p0, 1: p1, 2: p2})

    omega_sq_one = abs(phi(zero, zero, eye) - 0.5)
    results = []
    for child in ss.spawn(trials):
        rng = np.random.default_rng(child)
        p0, p1, p2 = _haar_blocks(rng, rng.multinomial(DIM, [1 / 3] * 3))
        q = _random_subprojector(rng, p0)
        qbar = eye - q
        partial_additive = abs(
            phi(p0, p1, p2) + phi(p1 + q, p0 - q, p2) - phi(q, qbar, zero))
        p0bar = eye - p0
        swap_orth = abs(phi(p0, p0bar, zero) + phi(p0bar, p0, zero) - 1)
        half = abs(2 * phi(p0, zero, p0bar) - phi(p0, p0bar, zero))
        p1q = p1 + q
        third_zero = abs(
            phi(p0, p0bar, zero) + phi(p1q, eye - p1q, zero)
            - phi(eye - p2, p2, zero) - phi(q, qbar, zero))
        a_mat = p0 + OMEGA * p1 + OMEGA ** 2 * p2
        b_mat = (p1 + q) + OMEGA * (p0 - q) + OMEGA ** 2 * p2
        m = measurement_from_unitaries([a_mat, b_mat])
        ok_z, _ = in_key_example(m)
        d2, d0, d1 = face(m, 2), face(m, 0), face(m, 1)

        def phi_edge(e):
            return phi(e.ops[(0,)], e.ops[(1,)], e.ops[(2,)])

        additivity = abs(phi_edge(d2) + phi_edge(d0) - phi_edge(d1))
        values = [phi_edge(d2), phi_edge(d0), phi_edge(d1)]
        in_range = all(-1e-12 <= v <= 1 + 1e-12 for v in values)
        results.append({
            "partial_additive": partial_additive,
            "swap_orth": swap_orth,
            "half": half,
            "third_zero": third_zero,
            "face_additivity": additivity,
            "sample_in_key_example": bool(ok_z),
            "phi_in_unit_interval": bool(in_range),
            "ok": bool(ok_z and in_range
                       and max(partial_additive, swap_orth, half, third_zero,
                               additivity) < TOL_EQ),
        })
    passed = sum(1 for r in results if r["ok"])
    return {
        "trials": trials,
        "passed": passed,
        "phi_omega_sq_one_residual": omega_sq_one,
        "results": results,
    }
