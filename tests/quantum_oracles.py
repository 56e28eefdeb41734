"""Per-outcome loop oracles for the array-backed projective measurements.

A measurement here is a dict from outcome tuple to block, the layout
simpeff.quantum used before it stored one (3^arity, d, d) array.  validate
checks outcome by outcome and pair by pair, and face, degeneracy and
unitaries_from_measurement loop over the outcomes; the tests compare the
array versions against them, messages included.
"""

import itertools

import numpy as np

from simpeff.nerve import insert_unit, tuple_face
from simpeff.quantum import D, OMEGA, TOL_EQ, TOL_PROJ, dagger, frob
from simpeff.util import InputError

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
