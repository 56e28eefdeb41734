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


def _block_norms(blocks):
    """Frobenius norm of each matrix in a stack."""
    return np.linalg.norm(blocks, axis=(-2, -1))


@functools.lru_cache(maxsize=None)
def _eye(n):
    """The complex n x n identity, built once and read-only."""
    e = np.eye(n, dtype=complex)
    e.flags.writeable = False
    return e


def dagger(a):
    return a.conj().T


def commutator_norm(a, b) -> float:
    return frob(a @ b - b @ a)


def eigenprojectors(u):
    """Spectral projectors of a D-torsion unitary, stacked in one array, via
    the finite Fourier sum P_a = (1/D) sum_k omega^{-ak} u^k; reconstruction
    sum_a omega^a P_a = u."""
    eye = _eye(u.shape[0])
    if frob(u @ dagger(u) - eye) > TOL_PROJ:
        raise InputError("input is not unitary within tolerance")
    powers = [eye]
    for _ in range(D):
        powers.append(powers[-1] @ u)
    if frob(powers[D] - eye) > TOL_PROJ:
        raise InputError(f"input is not {D}-torsion within tolerance")
    k = np.arange(D)
    projs = np.tensordot(OMEGA ** -np.outer(k, k), powers[:D], axes=1) / D
    if frob(np.tensordot(OMEGA ** k, projs, axes=1) - u) > TOL_EQ:
        raise InputError("spectral reconstruction failed")
    return projs


@functools.lru_cache(maxsize=None)
def _outcomes(arity):
    """The outcome tuples of (Z/3)^arity in lexicographic order, and tuple -> rank."""
    outs = tuple(itertools.product(range(D), repeat=arity))
    return outs, {t: k for k, t in enumerate(outs)}


@dataclass
class ProjectiveMeasurement:
    """Finitely indexed projective measurement: outcome tuple -> projector.

    blocks has shape (3^arity, dim, dim); block k is the projector of the
    k-th outcome tuple in lexicographic order, and m[t] reads outcome t.
    """

    arity: int
    blocks: np.ndarray

    @classmethod
    def zeros(cls, arity, dim):
        return cls(arity, np.zeros((D ** arity, dim, dim), dtype=complex))

    def __getitem__(self, t):
        return self.blocks[_outcomes(self.arity)[1][t]]

    def __setitem__(self, t, p):
        self.blocks[_outcomes(self.arity)[1][t]] = p

    def outcomes(self):
        return list(_outcomes(self.arity)[0])

    @property
    def dim(self):
        return self.blocks.shape[-1]

    def validate(self):
        p = self.blocks
        n = D ** self.arity
        if p.ndim != 3 or p.shape[0] != n or p.shape[1] != p.shape[2]:
            raise InputError("measurement must be indexed by all outcome tuples")
        d = p.shape[1]
        outs = _outcomes(self.arity)[0]
        # gram[s, :, t, :] = p[s] @ p[t]: the blocks stacked vertically times
        # the blocks stacked horizontally
        gram = (p.reshape(n * d, d) @ p.transpose(1, 0, 2).reshape(d, n * d)).reshape(n, d, n, d)
        diag = np.arange(n)
        bad = np.flatnonzero((_block_norms(gram[diag, :, diag, :] - p) > TOL_PROJ)
                             | (_block_norms(p.conj().transpose(0, 2, 1) - p) > TOL_PROJ))
        if bad.size:
            raise InputError(f"entry {outs[bad[0]]} is not a projector")
        # row-major order over s < t is itertools.combinations order
        s, t = np.nonzero(np.triu(np.linalg.norm(gram, axis=(1, 3)) > TOL_PROJ, 1))
        if s.size:
            raise InputError(f"entries {outs[s[0]]}, {outs[t[0]]} are not orthogonal")
        if frob(p.sum(0) - _eye(d)) > TOL_EQ:
            raise InputError("entries do not sum to the identity")

    def close_to(self, other) -> bool:
        return (self.arity == other.arity
                and _block_norms(self.blocks - other.blocks).max() < TOL_EQ)


@functools.lru_cache(maxsize=None)
def _face_fibres(n, i):
    """The arity-n outcome ranks sorted by the rank of their image under
    d_i, rank order kept within a fibre; every fibre has D elements."""
    ranks = _outcomes(n - 1)[1]
    order = np.argsort([ranks[tuple_face(_Z3_ADD, n, i, t)] for t in _outcomes(n)[0]],
                       kind="stable")
    order.flags.writeable = False
    return order


def face(m: ProjectiveMeasurement, i: int) -> ProjectiveMeasurement:
    """Fibre-sum face map: (d_i m)^c = sum of m^t over t with d_i(t) = c."""
    fibres = m.blocks[_face_fibres(m.arity, i)].reshape(-1, D, m.dim, m.dim)
    return ProjectiveMeasurement(m.arity - 1, fibres.sum(1))


def degeneracy(m: ProjectiveMeasurement, i: int) -> ProjectiveMeasurement:
    """(s_i m)^t = m^{t minus position i} when t[i] = 0, else the zero block."""
    n = m.arity
    out = ProjectiveMeasurement.zeros(n + 1, m.dim)
    ranks = _outcomes(n + 1)[1]
    out.blocks[[ranks[insert_unit(n, i, c)] for c in _outcomes(n)[0]]] = m.blocks
    return out


def measurement_from_unitaries(us) -> ProjectiveMeasurement:
    """Pi^{a_1..a_n} as the product of the unitaries' eigenprojectors.

    The unitaries must pairwise commute within tolerance; a violation is an
    input error carrying the commutator norm.
    """
    for i, j in itertools.combinations(range(len(us)), 2):
        nc = commutator_norm(us[i], us[j])
        if nc > TOL_PROJ:
            raise InputError(f"unitaries {i}, {j} do not commute: |[u_i,u_j]|_F = {nc:.6g}")
    dim = us[0].shape[0]
    blocks = _eye(dim)[None]
    for u in us:
        # appending outcome a to every tuple so far keeps lexicographic order
        blocks = (blocks[:, None] @ eigenprojectors(u)[None]).reshape(-1, dim, dim)
    m = ProjectiveMeasurement(len(us), blocks)
    m.validate()
    return m


def unitaries_from_measurement(m: ProjectiveMeasurement):
    """Inverse of measurement_from_unitaries: u_i = sum_t omega^{t_i} Pi^t."""
    phases = OMEGA ** np.array(_outcomes(m.arity)[0]).T
    return list(np.tensordot(phases, m.blocks, axes=1))


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
        nrm = frob(m[t])
        if nrm > TOL_EQ:
            return False, (t, nrm)
    return True, None


def in_key_example_tuple(us):
    """Arity-n membership: every 2-face of the simplex spanned by the
    commuting tuple must satisfy the three-zero condition."""
    n = len(us)
    if n == 2:
        return in_key_example(measurement_from_unitaries(us))
    eye = _eye(us[0].shape[0])
    for i, j, k in itertools.combinations(range(n + 1), 3):
        # the edges 01 and 12 of the 2-face ijk: products multiplied left to right
        ab = [functools.reduce(np.matmul, us[a:b], eye) for a, b in ((i, j), (j, k))]
        ok, wit = in_key_example(measurement_from_unitaries(ab))
        if not ok:
            return False, ((i, j, k), wit)
    return True, None


# ---------------------------------------------------------------------------
# the witness bundle


def build_witness():
    """The explicit pair of 2-simplices exhibiting the 2-Segal failure.

    Pi has the rank-4 block at outcome 01 and zeros at 11, 21, 12; Psi glues
    onto d_1(Pi) along d_2(Psi) and involves the entangled +/- projectors.
    A, B, C are the unitaries of d_2(Pi), d_0(Pi), d_0(Psi); (A, B) commute,
    (B, C) do not, so the glued pair of triangles has no filler.
    """
    e = _eye(DIM)
    basis = {(a, b): np.outer(e[3 * a + b], e[3 * a + b]) for a in range(D) for b in range(D)}
    pi01 = basis[(0, 1)] + basis[(1, 1)] + basis[(2, 1)] + basis[(1, 2)]
    pi = ProjectiveMeasurement.zeros(2, DIM)
    for t in _ALLOWED:
        pi[t] = basis[t]
    pi[(0, 1)] = pi01
    pi.validate()

    plus = np.zeros(DIM, dtype=complex)
    plus[[3 * 0 + 2, 3 * 2 + 0]] = 1 / np.sqrt(2)
    minus = plus.copy()
    minus[3 * 2 + 0] *= -1
    gp = np.outer(plus, plus.conj())
    gm = np.outer(minus, minus.conj())

    psi = ProjectiveMeasurement.zeros(2, DIM)
    psi[(2, 0)] = gp
    psi[(1, 0)] = pi01 + basis[(1, 0)] + basis[(2, 2)]
    psi[(0, 1)] = basis[(0, 0)]
    psi[(2, 2)] = gm
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
    return float(_block_norms(face(psi, 2).blocks - face(pi, 1).blocks).max())


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
    norms = {"12": commutator_norm(u1, u2), "13": commutator_norm(u1, u3),
             "23": commutator_norm(u2, u3)}
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
    edges = np.cumsum([0, *ranks])
    return [u[:, a:b] @ dagger(u[:, a:b]) for a, b in zip(edges, edges[1:])]


def degenerate_two_simplex():
    m = ProjectiveMeasurement.zeros(2, DIM)
    m[(0, 0)] = _eye(DIM)
    return m


def sample_z_two_simplex(rng, ranks=None) -> ProjectiveMeasurement:
    """Haar-conjugated block pattern on the six allowed labels.

    ranks: optional dict label -> nonnegative rank summing to 9; drawn
    uniformly from the compositions when omitted.
    """
    if ranks is None:
        ranks = dict(zip(_ALLOWED, rng.multinomial(DIM, [1 / len(_ALLOWED)] * len(_ALLOWED))))
    m = ProjectiveMeasurement.zeros(2, DIM)
    for t, p in zip(_ALLOWED, _haar_blocks(rng, [ranks.get(t, 0) for t in _ALLOWED])):
        m[t] = p
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
    deg_edge = face(target, 1).blocks
    for child in ss.spawn(trials):
        rng = np.random.default_rng(child)
        sample = sample_z_two_simplex(rng, ranks={(0, 0): DIM})
        ok, _ = in_key_example(sample)
        d1 = face(sample, 1)
        fibres = np.array([sample[(0, 0)],
                           sample[(2, 2)] + sample[(1, 0)] + sample[(0, 1)],
                           sample[(2, 0)] + sample[(0, 2)]])
        relation = float(_block_norms(fibres - d1.blocks).max())
        degenerate_input = float(_block_norms(d1.blocks - deg_edge).max())
        collapse = float(_block_norms(sample.blocks - target.blocks).max())
        generic = sample_z_two_simplex(rng)
        off_mass = sum(np.trace(generic[t]).real for t in _ALLOWED if t != (0, 0))
        gen_gap = sum(np.trace(face(generic, 1)[c]).real for c in [(1,), (2,)])
        results.append({
            "in_key_example": bool(ok),
            "relation_residual": relation,
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
    p = [float(np.trace(rho @ b).real) for b in m.blocks]
    if any(v < -TOL_EQ for v in p) or abs(sum(p) - 1) > TOL_EQ:
        raise InputError("Born vector failed positivity or normalization")
    return p


def phi_state(rho, edge_ops):
    """The candidate state on a 1-simplex (P0, P1, P2), given as anything
    that indexes them by 0, 1, 2: Tr(rho ((1 - P0) - P2 / 2))."""
    p0 = edge_ops[0]
    p2 = edge_ops[2]
    op = _eye(p0.shape[0]) - p0 - 0.5 * p2
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
    eye = _eye(DIM)
    zero = np.zeros((DIM, DIM), dtype=complex)

    def phi(p0, p1, p2):
        return phi_state(rho, (p0, p1, p2))

    omega_sq_one = abs(phi(zero, zero, eye) - 0.5)
    results = []
    for child in ss.spawn(trials):
        rng = np.random.default_rng(child)
        p0, p1, p2 = _haar_blocks(rng, rng.multinomial(DIM, [1 / 3] * 3))
        q = _random_subprojector(rng, p0)
        # phi of the edges (Q, 1-Q, 0) and (P0, 1-P0, 0), each used twice or more
        phi_q, phi_p0 = phi(q, eye - q, zero), phi(p0, eye - p0, zero)
        partial_additive = abs(phi(p0, p1, p2) + phi(p1 + q, p0 - q, p2) - phi_q)
        swap_orth = abs(phi_p0 + phi(eye - p0, p0, zero) - 1)
        half = abs(2 * phi(p0, zero, eye - p0) - phi_p0)
        p1q = p1 + q
        third_zero = abs(phi_p0 + phi(p1q, eye - p1q, zero) - phi(eye - p2, p2, zero) - phi_q)
        a_mat = p0 + OMEGA * p1 + OMEGA ** 2 * p2
        b_mat = (p1 + q) + OMEGA * (p0 - q) + OMEGA ** 2 * p2
        m = measurement_from_unitaries([a_mat, b_mat])
        ok_z, _ = in_key_example(m)
        d2, d0, d1 = (phi_state(rho, face(m, i).blocks) for i in (2, 0, 1))
        additivity = abs(d2 + d0 - d1)
        in_range = all(-1e-12 <= v <= 1 + 1e-12 for v in (d2, d0, d1))
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
    return {"trials": trials, "passed": passed, "phi_omega_sq_one_residual": omega_sq_one,
            "results": results}
