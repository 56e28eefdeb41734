"""Per-outcome loop oracles for the array-backed projective measurements.

A measurement here is a dict from outcome tuple to block, the layout
simpeff.quantum used before it stored one (3^arity, d, d) array.  validate
checks outcome by outcome and pair by pair, and face, degeneracy and
unitaries_from_measurement loop over the outcomes; the tests compare the
array versions against them, messages included.

key_example_state_check and inverseless_sample_check are the per-trial loops
that simpeff.quantum ran before it checked stacks of trials: each trial draws
from its own generator and is checked on its own, one measurement at a time.
sample_z_two_simplex draws its ranks and then its Haar unitary, in the order
those checks draw theirs.  close_to compares two measurements, and
born_state is the Born-rule vector of outcome probabilities.
"""

import itertools

import numpy as np

from simpeff import quantum as q
from simpeff.quantum import D, DIM, OMEGA, TOL_EQ, TOL_PROJ, dagger, frob
from simpeff.util import InputError

from sset_oracles import insert_unit, tuple_face

Z3_ADD = tuple(tuple((a + b) % D for b in range(D)) for a in range(D))


def as_dict(m):
    """Outcome tuple -> block of an array-backed measurement."""
    return {t: m[t] for t in m.outcomes()}


def zero_ops(arity, dim):
    """Outcome tuple -> zero block, for every tuple in (Z/3)^arity in order."""
    return {t: np.zeros((dim, dim), dtype=complex)
            for t in itertools.product(range(D), repeat=arity)}


def validate(arity, ops):
    dim = next(iter(ops.values())).shape[0]
    total = np.zeros((dim, dim), dtype=complex)
    outs = sorted(ops)
    if len(outs) != D ** arity or any(len(t) != arity for t in outs):
        raise InputError("measurement must be indexed by all outcome tuples")
    for t in outs:
        p = ops[t]
        if frob(p @ p - p) > TOL_PROJ or frob(dagger(p) - p) > TOL_PROJ:
            raise InputError(f"entry {t} is not a projector")
        total = total + p
    for t1, t2 in itertools.combinations(outs, 2):
        if frob(ops[t1] @ ops[t2]) > TOL_PROJ:
            raise InputError(f"entries {t1}, {t2} are not orthogonal")
    if frob(total - np.eye(dim)) > TOL_EQ:
        raise InputError("entries do not sum to the identity")


def face(arity, ops, i):
    """Fibre-sum face map: (d_i m)^c = sum of m^t over t with d_i(t) = c."""
    dim = next(iter(ops.values())).shape[0]
    out = zero_ops(arity - 1, dim)
    for t, p in ops.items():
        c = tuple_face(Z3_ADD, arity, i, t)
        out[c] = out[c] + p
    return out


def degeneracy(arity, ops, i):
    """(s_i m)^t = m^{t minus position i} when t[i] = 0, else the zero block."""
    dim = next(iter(ops.values())).shape[0]
    out = zero_ops(arity + 1, dim)
    for c, p in ops.items():
        out[insert_unit(arity, i, c)] = p.copy()
    return out


def close_to(m, other) -> bool:
    """The same arity, and every block within TOL_EQ in Frobenius norm."""
    return m.arity == other.arity and frob(m.blocks - other.blocks).max() < TOL_EQ


def born_state(rho, m):
    """p(t) = Tr(rho Pi^t), in outcome-lexicographic order."""
    if rho.shape[0] != m.dim:
        raise InputError("dimension mismatch between state and measurement")
    q.validate_density(rho)
    p = [float(np.trace(rho @ b).real) for b in m.blocks]
    if any(v < -TOL_EQ for v in p) or abs(sum(p) - 1) > TOL_EQ:
        raise InputError("Born vector failed positivity or normalization")
    return p


def unitaries_from_measurement(arity, ops):
    """u_i = sum_t omega^{t_i} Pi^t, one outcome at a time."""
    dim = next(iter(ops.values())).shape[0]
    out = []
    for i in range(arity):
        u = np.zeros((dim, dim), dtype=complex)
        for t, p in ops.items():
            u = u + OMEGA ** t[i] * p
        out.append(u)
    return out


# ---------------------------------------------------------------------------
# the sampled checks, one trial at a time


def haar_unitary(rng, n):
    """A Haar-random n x n unitary from one Gaussian matrix drawn from rng."""
    return q.haar_from_ginibre(q.ginibre(rng, n))


def haar_blocks(rng, ranks):
    """u P u^dagger for consecutive diagonal blocks P of the given ranks,
    with one Haar-random u drawn from rng."""
    u = haar_unitary(rng, DIM)
    edges = np.cumsum([0, *ranks])
    return [u[:, a:b] @ dagger(u[:, a:b]) for a, b in zip(edges, edges[1:])]


def sample_z_two_simplex(rng, ranks=None):
    """Haar-conjugated block pattern on the six allowed labels."""
    allowed = q._ALLOWED
    if ranks is None:
        ranks = dict(zip(allowed, rng.multinomial(DIM, [1 / len(allowed)] * len(allowed))))
    m = q.ProjectiveMeasurement.zeros(2, DIM)
    for t, p in zip(allowed, haar_blocks(rng, [ranks.get(t, 0) for t in allowed])):
        m[t] = p
    m.validate()
    return m


def random_subprojector(rng, p):
    r = int(round(np.trace(p).real))
    if r == 0:
        return np.zeros_like(p)
    vals, vecs = np.linalg.eigh(p)
    cols = vecs[:, vals > 0.5]
    w = cols @ haar_unitary(rng, r)
    k = int(rng.integers(0, r + 1))
    sel = w[:, :k]
    return sel @ dagger(sel)


def inverseless_sample_check(trials, seed):
    results = []
    ss = np.random.SeedSequence(seed)
    target = q.degenerate_two_simplex()
    deg_edge = q.face(target, 1).blocks
    for child in ss.spawn(trials):
        rng = np.random.default_rng(child)
        sample = sample_z_two_simplex(rng, ranks={(0, 0): DIM})
        ok, _ = q.in_key_example(sample)
        d1 = q.face(sample, 1)
        fibres = np.array([sample[(0, 0)],
                           sample[(2, 2)] + sample[(1, 0)] + sample[(0, 1)],
                           sample[(2, 0)] + sample[(0, 2)]])
        relation = float(np.linalg.norm(fibres - d1.blocks, axis=(1, 2)).max())
        degenerate_input = float(np.linalg.norm(d1.blocks - deg_edge, axis=(1, 2)).max())
        collapse = float(np.linalg.norm(sample.blocks - target.blocks, axis=(1, 2)).max())
        generic = sample_z_two_simplex(rng)
        off_mass = sum(np.trace(generic[t]).real for t in q._ALLOWED if t != (0, 0))
        gen_gap = sum(np.trace(q.face(generic, 1)[c]).real for c in [(1,), (2,)])
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


def key_example_state_check(rho, trials, seed):
    q.validate_density(rho)
    ss = np.random.SeedSequence(seed)
    eye = np.eye(DIM, dtype=complex)
    zero = np.zeros((DIM, DIM), dtype=complex)

    def phi(p0, p1, p2):
        return q.phi_state(rho, (p0, p1, p2))

    omega_sq_one = abs(phi(zero, zero, eye) - 0.5)
    results = []
    for child in ss.spawn(trials):
        rng = np.random.default_rng(child)
        p0, p1, p2 = haar_blocks(rng, rng.multinomial(DIM, [1 / 3] * 3))
        sub = random_subprojector(rng, p0)
        phi_q, phi_p0 = phi(sub, eye - sub, zero), phi(p0, eye - p0, zero)
        partial_additive = abs(phi(p0, p1, p2) + phi(p1 + sub, p0 - sub, p2) - phi_q)
        swap_orth = abs(phi_p0 + phi(eye - p0, p0, zero) - 1)
        half = abs(2 * phi(p0, zero, eye - p0) - phi_p0)
        p1q = p1 + sub
        third_zero = abs(phi_p0 + phi(p1q, eye - p1q, zero) - phi(eye - p2, p2, zero) - phi_q)
        a_mat = p0 + OMEGA * p1 + OMEGA ** 2 * p2
        b_mat = (p1 + sub) + OMEGA * (p0 - sub) + OMEGA ** 2 * p2
        m = q.measurement_from_unitaries([a_mat, b_mat])
        ok_z, _ = q.in_key_example(m)
        d2, d0, d1 = (q.phi_state(rho, q.face(m, i).blocks) for i in (2, 0, 1))
        additivity = abs(d2 + d0 - d1)
        in_range = all(-1e-12 <= v <= 1 + 1e-12 for v in (d2, d0, d1))
        results.append({
            "partial_additive": float(partial_additive),
            "swap_orth": float(swap_orth),
            "half": float(half),
            "third_zero": float(third_zero),
            "face_additivity": float(additivity),
            "sample_in_key_example": bool(ok_z),
            "phi_in_unit_interval": bool(in_range),
            "ok": bool(ok_z and in_range
                       and max(partial_additive, swap_orth, half, third_zero,
                               additivity) < TOL_EQ),
        })
    passed = sum(1 for r in results if r["ok"])
    return {"trials": trials, "passed": passed, "phi_omega_sq_one_residual": float(omega_sq_one),
            "results": results}
