"""Numerical reconstruction of the C^9 key example.

Pointwise work on the simplicial set of three-outcome projective
measurements: spectral decomposition of 3-torsion unitaries, measurements
indexed by (Z/3)^n outcome tuples, membership in the full simplicial subset
with Pi^11 = Pi^21 = Pi^12 = 0, the explicit witness pair of 2-simplices
with no 3-simplex filler, and the Born-rule state formula checks.  Nothing
infinite is materialized; every claim is pointwise or sampled.

The maps on matrices and measurements take leading stack axes, so that the
sampled checks run on blocks of TRIAL_BLOCK trials at once; a single matrix
or measurement is the stack with no leading axis.
"""

from __future__ import annotations

__all__ = ["TOL_EQ", "TOL_PROJ", "NONCOMM_MARGIN", "TRIAL_BLOCK", "D", "DIM", "OMEGA", "frob",
           "dagger", "commutator_norm", "eigenprojectors", "ProjectiveMeasurement", "face",
           "degeneracy", "measurement_from_unitaries", "unitaries_from_measurement",
           "in_key_example", "in_key_example_tuple", "build_witness", "ginibre",
           "haar_from_ginibre", "random_density", "validate_density", "degenerate_two_simplex",
           "inverseless_sample_check", "phi_state", "key_example_state_check"]

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .nerve import comm_nerve, cyclic_group
from .util import InputError

TOL_EQ = 1e-9        # operator equality, Frobenius norm
TOL_PROJ = 1e-6      # "is a projector" / commutation acceptance
NONCOMM_MARGIN = 0.1  # asserted lower bound for genuine non-commutation
# trials checked together by the sampled checks; peak memory, which grows with
# it, bounds it rather than speed
TRIAL_BLOCK = 10

D = 3
DIM = 9
OMEGA = np.exp(2j * np.pi / 3)
# omega^a and omega^{-ak} for a, k in Z/3: eigenprojectors' phases and Fourier sum
_PHASES = OMEGA ** np.arange(D)
_FOURIER = OMEGA ** -np.outer(np.arange(D), np.arange(D))
_PHASES.flags.writeable = _FOURIER.flags.writeable = False


def frob(a):
    """Frobenius norm of a matrix, or of each matrix in a stack."""
    return np.linalg.norm(a, axis=(-2, -1))


@functools.lru_cache(maxsize=None)
def _eye(n):
    """The complex n x n identity, built once and read-only."""
    e = np.eye(n, dtype=complex)
    e.flags.writeable = False
    return e


def dagger(a):
    return np.swapaxes(a, -2, -1).conj()


def commutator_norm(a, b):
    return frob(a @ b - b @ a)


def _traces(a):
    """Real part of the trace of each matrix in a stack."""
    return np.trace(a, axis1=-2, axis2=-1).real


def eigenprojectors(u):
    """Spectral projectors of a D-torsion unitary u (..., d, d), stacked as
    (..., D, d, d), via the finite Fourier sum P_a = (1/D) sum_k omega^{-ak} u^k;
    reconstruction sum_a omega^a P_a = u."""
    eye = _eye(u.shape[-1])
    if not (frob(u @ dagger(u) - eye) <= TOL_PROJ).all():
        raise InputError("input is not unitary within tolerance")
    powers = [np.broadcast_to(eye, u.shape), u, u @ u]
    if not (frob(powers[-1] @ u - eye) <= TOL_PROJ).all():
        raise InputError(f"input is not {D}-torsion within tolerance")
    # the powers' entries as rows, so that each sum over k is one matmul
    flat = np.stack(powers, -3).reshape(*u.shape[:-2], D, -1)
    projs = (_FOURIER @ flat / D).reshape(*u.shape[:-2], D, *u.shape[-2:])
    rebuilt = (_PHASES @ projs.reshape(flat.shape)).reshape(u.shape)
    if not (frob(rebuilt - u) <= TOL_EQ).all():
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

    blocks has shape (..., 3^arity, dim, dim); block k is the projector of
    the k-th outcome tuple in lexicographic order, and m[t] reads outcome t.
    Leading axes, if any, stack measurements of one arity, which m[t],
    validate, face and in_key_example treat one by one.
    """

    arity: int
    blocks: np.ndarray

    @classmethod
    def zeros(cls, arity, dim):
        return cls(arity, np.zeros((D ** arity, dim, dim), dtype=complex))

    def __getitem__(self, t):
        return self.blocks[..., _outcomes(self.arity)[1][t], :, :]

    def __setitem__(self, t, p):
        self.blocks[..., _outcomes(self.arity)[1][t], :, :] = p

    def outcomes(self):
        return list(_outcomes(self.arity)[0])

    @property
    def dim(self):
        return self.blocks.shape[-1]

    def validate(self):
        """Raise the first failure of the first failing measurement in the
        stack: a non-projector, then a non-orthogonal pair in
        itertools.combinations order, then a sum other than the identity.
        Each test fails on NaN, so a block with a non-finite entry is not a
        projector.

        A pair s < t is not orthogonal when |p[s] p[t]|_F > TOL_PROJ.  A
        screen bounds that square from the Gram of the flattened blocks and
        the projector residuals the tests above compute.  For a block A with
        e_A = |A^2 - A|_F + |A^dag - A|_F |A|_F, the identity
        A^dag A - A = (A^2 - A) + (A^dag - A) A gives |A^dag A - A|_F <= e_A,
        and likewise |B B^dag - B|_F <= e_B.  So
        |AB|_F^2 = <A^dag A, B B^dag>_F <= Re<A, B>_F + slack, with
        slack = e_A |B|_F + |A|_F e_B + e_A e_B.  The screen clears a pair
        whose bound is at most TOL_PROJ^2 / 10 = 1e-13, and every other pair
        is decided by its own product.

        The screen changes no verdict and no message.  A measurement with a
        block that fails a projector test is bad whatever its pairs give, and
        that failure is named first.  On one whose blocks pass both tests, a
        block of size d <= 9 (every measurement here is on C^9 or smaller)
        has |p[s]|_F <= 3 (1 + 1e-5).  Re<A, B>_F sums 2 d^2 <= 162 real
        products, so its rounding error is below 162 * 2^-53 * 9.0002 <
        1.7e-13.  The rounding of A @ A moves e_A by less than 2e-14, and so
        the slack by less than 1.1e-13; the norms, read off the Gram's
        diagonal, are off by a relative 1e-14.  A cleared pair therefore has
        a true square below 3.8e-13 and a true norm below 6.2e-7, and its own
        product would have cleared it too.
        """
        p = self.blocks
        n = D ** self.arity
        if p.ndim < 3 or p.shape[-3] != n or p.shape[-2] != p.shape[-1]:
            raise InputError("measurement must be indexed by all outcome tuples")
        outs = _outcomes(self.arity)[0]
        herm, idem = frob(dagger(p) - p), frob(p @ p - p)
        not_proj = ~(herm <= TOL_PROJ) | ~(idem <= TOL_PROJ)
        flat = p.reshape(p.shape[:-2] + (-1,))
        gram = (flat.conj() @ np.swapaxes(flat, -2, -1)).real
        norm = np.sqrt(np.diagonal(gram, 0, -2, -1))
        err = idem + herm * norm
        bound = (gram + err[..., :, None] * norm[..., None, :]
                 + norm[..., :, None] * err[..., None, :] + err[..., :, None] * err[..., None, :])
        not_orth = np.triu(bound > TOL_PROJ ** 2 / 10, 1)
        open_pairs = np.nonzero(not_orth)
        if open_pairs[0].size:
            not_orth[open_pairs] = _products_not_orthogonal(p, open_pairs)
        not_unit = ~(frob(p.sum(-3) - _eye(p.shape[-1])) <= TOL_EQ)
        bad = not_proj.any(-1) | not_orth.any((-2, -1)) | not_unit
        if not bad.any():
            return
        first = np.unravel_index(np.argmax(bad), bad.shape)
        if not_proj[first].any():
            raise InputError(f"entry {outs[np.argmax(not_proj[first])]} is not a projector")
        if not_orth[first].any():
            # row-major order over s < t is itertools.combinations order
            s, t = np.unravel_index(np.argmax(not_orth[first]), (n, n))
            raise InputError(f"entries {outs[s]}, {outs[t]} are not orthogonal")
        raise InputError("entries do not sum to the identity")


def _products_not_orthogonal(p, pairs):
    """frob(p[s] @ p[t]) > TOL_PROJ for the pairs that validate's screen
    leaves open, given as index arrays (..., s, t) into p's stack and
    outcome axes."""
    return frob(p[pairs[:-1]] @ p[pairs[:-2] + pairs[-1:]]) > TOL_PROJ


@functools.lru_cache(maxsize=None)
def _outcome_nerve(n):
    """N(Z/3) to level max(2, n + 1), in which outcome labels add: its level
    k lists (Z/3)^k in _outcomes order."""
    return comm_nerve(cyclic_group(D), None, max(2, n + 1))


@functools.lru_cache(maxsize=None)
def _face_fibres(n, i):
    """The arity-n outcome ranks sorted by the rank of their image under
    d_i, rank order kept within a fibre; every fibre has D elements."""
    order = np.argsort(_outcome_nerve(n).face[(n, i)], kind="stable")
    order.flags.writeable = False
    return order


def face(m: ProjectiveMeasurement, i: int) -> ProjectiveMeasurement:
    """Fibre-sum face map: (d_i m)^c = sum of m^t over t with d_i(t) = c."""
    if m.arity == 0 or not 0 <= i <= m.arity:
        raise InputError(f"d_{i} is not defined on arity {m.arity}")
    fibres = m.blocks[..., _face_fibres(m.arity, i), :, :]
    return ProjectiveMeasurement(
        m.arity - 1, fibres.reshape(*fibres.shape[:-3], -1, D, m.dim, m.dim).sum(-3))


def degeneracy(m: ProjectiveMeasurement, i: int) -> ProjectiveMeasurement:
    """(s_i m)^t = m^{t minus position i} when t[i] = 0, else the zero block."""
    if not 0 <= i <= m.arity:
        raise InputError(f"s_{i} is not defined on arity {m.arity}")
    out = ProjectiveMeasurement.zeros(m.arity + 1, m.dim)
    out.blocks[_outcome_nerve(m.arity).deg[(m.arity, i)]] = m.blocks
    return out


def measurement_from_unitaries(us) -> ProjectiveMeasurement:
    """Pi^{a_1..a_n} as the product of the unitaries' eigenprojectors.

    The unitaries, each (..., d, d), must pairwise commute within tolerance;
    a violation is an input error carrying the first failing commutator norm.
    """
    for i, j in itertools.combinations(range(len(us)), 2):
        nc = np.ravel(commutator_norm(us[i], us[j]))
        if (nc > TOL_PROJ).any():
            raise InputError(f"unitaries {i}, {j} do not commute: "
                             f"|[u_i,u_j]|_F = {nc[nc > TOL_PROJ][0]:.6g}")
    dim = us[0].shape[-1]
    blocks = _eye(dim)[None]
    for u in us:
        # appending outcome a to every tuple so far keeps lexicographic order
        blocks = blocks[..., :, None, :, :] @ eigenprojectors(u)[..., None, :, :, :]
        blocks = blocks.reshape(*blocks.shape[:-4], -1, dim, dim)
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

    Returns (ok, witness): ok has the measurement's stack shape, and the
    witness names the first forbidden label carrying a nonzero projector in
    the first failing measurement, with its norm.  A NaN norm counts as
    nonzero, so a block with a NaN entry is not in the key example.
    """
    if m.dim != DIM:
        raise InputError(f"key example lives on C^{DIM}")
    if m.arity != 2:
        raise InputError("in_key_example takes 2-simplices; use in_key_example_tuple")
    index = _outcomes(2)[1]
    norms = frob(m.blocks[..., [index[t] for t in _FORBIDDEN], :, :])
    nonzero = ~(norms <= TOL_EQ)
    ok = ~nonzero.any(-1)
    if ok.all():
        return ok, None
    first = np.unravel_index(np.argmax(~ok), ok.shape)
    j = np.argmax(nonzero[first])
    return ok, (_FORBIDDEN[j], float(norms[first][j]))


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
    (B, C) do not, so the glued pair of triangles has no filler; the checks
    are floats, and tests/quantum_exact.py proves the same facts exactly.
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
        "pi_in_key_example": bool(in_key_example(pi)[0]),
        "psi_in_key_example": bool(in_key_example(psi)[0]),
        "pi01_rank": int(round(np.trace(pi01).real)),
        "d2psi_eq_d1pi_residual": float(frob(face(psi, 2).blocks - face(pi, 1).blocks).max()),
        "AB_commutator": commutator_norm(a_mat, b_mat),
        "BC_commutator": commutator_norm(b_mat, c_mat),
        "AC_commutator": commutator_norm(a_mat, c_mat),
    }
    return {"Pi": pi, "Psi": psi, "A": a_mat, "B": b_mat, "C": c_mat, "checks": checks}


# ---------------------------------------------------------------------------
# sampling


def ginibre(rng, n):
    """An n x n complex Gaussian matrix, real parts drawn before imaginary."""
    real, imag = rng.standard_normal((2, n, n))
    z = np.empty((n, n), complex)
    z.real = real
    z.imag = imag
    return z


def haar_from_ginibre(z):
    """A Haar-random unitary from each Gaussian matrix in a stack (..., n, n):
    Q of the QR decomposition, with the phases of R's diagonal moved into Q
    (Mezzadri, math-ph/0609050)."""
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (diag / np.abs(diag))[..., None, :]


def random_density(rng):
    g = ginibre(rng, DIM)
    rho = g @ dagger(g)
    return rho / np.trace(rho).real


def validate_density(rho):
    """A DIM x DIM operator, positive semidefinite and of trace one, within
    tolerance."""
    if np.shape(rho) != (DIM, DIM):
        raise InputError(f"density operator must be {DIM} x {DIM}")
    if not frob(dagger(rho) - rho) <= TOL_PROJ:
        raise InputError("density operator is not Hermitian")
    if not abs(np.trace(rho).real - 1) <= TOL_PROJ:
        raise InputError("density operator does not have unit trace")
    if np.linalg.eigvalsh(rho).min() < -TOL_PROJ:
        raise InputError("density operator is not positive semidefinite")
    return True


def _haar_blocks(u, ranks):
    """u P u^dagger for consecutive diagonal blocks P of the given ranks:
    u is (..., d, d) and ranks (..., k), and the result (..., k, d, d)."""
    ends = np.cumsum(ranks, -1)[..., None]
    cols = np.arange(u.shape[-1])
    # mask[..., b, j]: column j of u spans block b
    mask = (ends - np.asarray(ranks)[..., None] <= cols) & (cols < ends)
    return (u[..., None, :, :] * mask[..., None, :]) @ dagger(u)[..., None, :, :]


def degenerate_two_simplex():
    m = ProjectiveMeasurement.zeros(2, DIM)
    m[(0, 0)] = _eye(DIM)
    return m


def _allowed_ranks(rng):
    """Ranks of the six allowed labels, uniform over the compositions of 9."""
    return rng.multinomial(DIM, [1 / len(_ALLOWED)] * len(_ALLOWED))


def _allowed_two_simplices(u, ranks):
    """The validated 2-simplices, one per unitary in u (..., 9, 9), with the
    blocks u P u^dagger of the ranks (..., 6) on the allowed labels in order."""
    blocks = np.zeros(u.shape[:-2] + (D * D, DIM, DIM), dtype=complex)
    blocks[..., [_outcomes(2)[1][t] for t in _ALLOWED], :, :] = _haar_blocks(u, ranks)
    m = ProjectiveMeasurement(2, blocks)
    m.validate()
    return m


def _trial_blocks(seed: int, trials: int):
    """Each trial's generator, seeded by its own SeedSequence child, in
    blocks of TRIAL_BLOCK trials."""
    children = np.random.SeedSequence(seed).spawn(trials)
    for start in range(0, trials, TRIAL_BLOCK):
        yield [np.random.default_rng(c) for c in children[start:start + TRIAL_BLOCK]]


def _per_trial(columns):
    """Name -> per-trial array, as one dict of Python floats and bools per trial."""
    return [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]


def inverseless_sample_check(trials: int, seed: int):
    """Sampled verification that the degenerate-edge square is a pullback.

    Each trial checks both directions: the unique d_1-degenerate 2-simplex
    (Haar-conjugated) collapses to the totally degenerate one through the
    three fibre-sum relations, and a generic sample with mass outside the
    00 label has a d_1 face quantifiably far from degenerate.  Each trial
    draws its Gaussian matrix, then the generic sample's ranks and Gaussian
    matrix; the checks run on a block of trials at once, and both Gaussian
    stacks of a block take one Haar step.
    """
    results = []
    target = degenerate_two_simplex()
    deg_edge = face(target, 1).blocks
    for rngs in _trial_blocks(seed, trials):
        draws = [(ginibre(rng, DIM), _allowed_ranks(rng), ginibre(rng, DIM)) for rng in rngs]
        z, ranks, z_generic = (np.array(a) for a in zip(*draws))
        u, u_generic = haar_from_ginibre(np.array([z, z_generic]))
        sample = ProjectiveMeasurement(2, np.zeros(u.shape[:-2] + (D * D, DIM, DIM), dtype=complex))
        sample[(0, 0)] = u @ dagger(u)  # the d_1-degenerate sample: zero off outcome 00
        sample.validate()
        ok, _ = in_key_example(sample)
        d1 = face(sample, 1).blocks
        fibres = np.stack([sample[(0, 0)],
                           sample[(2, 2)] + sample[(1, 0)] + sample[(0, 1)],
                           sample[(2, 0)] + sample[(0, 2)]], -3)
        relation = frob(fibres - d1).max(-1)
        degenerate_input = frob(d1 - deg_edge).max(-1)
        collapse = frob(sample.blocks - target.blocks).max(-1)
        generic = _allowed_two_simplices(u_generic, ranks)
        off_mass = sum(_traces(generic[t]) for t in _ALLOWED if t != (0, 0))
        generic_d1 = face(generic, 1)
        gen_gap = sum(_traces(generic_d1[c]) for c in [(1,), (2,)])
        results += _per_trial({
            "in_key_example": ok,
            "relation_residual": relation,
            "d1_degenerate_residual": degenerate_input,
            "collapse_residual": collapse,
            "collapsed": ok & (degenerate_input < TOL_EQ) & (collapse < TOL_EQ),
            "generic_gap_matches_off_mass": abs(gen_gap - off_mass) < TOL_EQ,
        })
    passed = sum(1 for r in results if r["collapsed"] and r["generic_gap_matches_off_mass"])
    return {"trials": trials, "passed": passed, "results": results}


# ---------------------------------------------------------------------------
# states via the Born rule


def phi_state(rho, edge_ops):
    """The candidate state on a 1-simplex (P0, P1, P2), given as anything
    that indexes them by 0, 1, 2: Tr(rho ((1 - P0) - P2 / 2)).  Stacked
    operators (..., d, d) give the stack of values.  Tr(rho op) pairs op's
    entries with those of rho^T, so each value is one dot product."""
    p0 = edge_ops[0]
    op = _eye(p0.shape[-1]) - p0 - 0.5 * edge_ops[2]
    return (op.reshape(*op.shape[:-2], -1) @ rho.T.reshape(-1)).real


def _state_draws(rng):
    """One trial's random numbers, in the order they are drawn: the ranks of
    (P0, P1, P2), a 9 x 9 Gaussian matrix, and, when r = rank P0 > 0, an
    r x r Gaussian matrix and the rank of Q <= P0."""
    ranks = rng.multinomial(DIM, [1 / 3] * 3)
    z = ginibre(rng, DIM)
    r = int(ranks[0])
    if r == 0:
        return ranks, z, None, 0
    return ranks, z, ginibre(rng, r), int(rng.integers(0, r + 1))


def _random_subprojectors(p, draws):
    """For each projector P in a stack and its trial's draws, Q <= P: the
    first q columns of P's range, read off the eigh basis of P and turned by
    the Haar unitary of the r x r Gaussian matrix.  Each r x r matrix sits in
    the top-left corner of a DIM x DIM identity, whose QR leaves the rest of
    the identity alone, so the whole block takes one Haar step; the range's
    columns are moved to the front to meet it."""
    rank = np.array([d[0][0] for d in draws])
    kept = np.array([d[3] for d in draws])
    z = np.tile(_eye(DIM), (len(draws), 1, 1))
    for zk, (_, _, g, _) in zip(z, draws):
        if g is not None:
            zk[:len(g), :len(g)] = g
    vecs = np.linalg.eigh(p)[1]  # eigenvalues ascending: the last r columns span P
    front = (np.arange(DIM) - rank[:, None]) % DIM
    w = np.take_along_axis(vecs, front[:, None, :], -1) @ haar_from_ginibre(z)
    sel = w * (np.arange(DIM) < kept[:, None])[:, None, :]
    return sel @ dagger(sel)


def key_example_state_check(rho, trials: int, seed: int):
    """Sampled verification of the trace-formula state on the key example.

    Per trial: draw a spectral family (P0, P1, P2) and a subprojector
    Q <= P0, build the 2-simplex with edges A = P0 + wP1 + w^2 P2 and
    B = (P1+Q) + w(P0-Q) + w^2 P2 (so AB has spectral family (Q, 1-Q, 0)),
    and check the partial-additivity equation, its swap-orthogonality, half,
    and third-zero specializations, plus general face additivity and the
    state range.  phi(w^2 1) = 1/2 is checked to 1e-12.  Each trial draws
    its numbers in turn (_state_draws); the checks run on a block of trials
    at once.
    """
    validate_density(rho)
    eye = _eye(DIM)
    zero = np.zeros((DIM, DIM), dtype=complex)

    def phi(p0, p1, p2):
        return phi_state(rho, (p0, p1, p2))

    omega_sq_one = float(abs(phi(zero, zero, eye) - 0.5))
    results = []
    for rngs in _trial_blocks(seed, trials):
        draws = [_state_draws(rng) for rng in rngs]
        u = haar_from_ginibre(np.array([d[1] for d in draws]))
        p0, p1, p2 = np.moveaxis(_haar_blocks(u, np.array([d[0] for d in draws])), -3, 0)
        q = _random_subprojectors(p0, draws)
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
        # the faces' outcomes first, so that phi_state reads them by 0, 1, 2
        d2, d0, d1 = (phi_state(rho, np.moveaxis(face(m, i).blocks, -3, 0)) for i in (2, 0, 1))
        additivity = abs(d2 + d0 - d1)
        in_range = np.all([(-1e-12 <= v) & (v <= 1 + 1e-12) for v in (d2, d0, d1)], axis=0)
        worst = np.max([partial_additive, swap_orth, half, third_zero, additivity], axis=0)
        results += _per_trial({
            "partial_additive": partial_additive,
            "swap_orth": swap_orth,
            "half": half,
            "third_zero": third_zero,
            "face_additivity": additivity,
            "sample_in_key_example": ok_z,
            "phi_in_unit_interval": in_range,
            "ok": ok_z & in_range & (worst < TOL_EQ),
        })
    passed = sum(1 for r in results if r["ok"])
    return {"trials": trials, "passed": passed, "phi_omega_sq_one_residual": omega_sq_one,
            "results": results}
