"""Cyclic structures on truncated simplicial sets.

A cyclic structure is a per-level permutation tau_n satisfying the dualized
cyclic-category relations; tau_1 plays the role of the orthocomplement.
Includes the group-nerve and effect-nerve constructions, the orthocomplement
laws, and the simplicial-effect / effect-algebroid condition batteries.
"""

from __future__ import annotations

import json

from .palg import FiniteEffectAlgebra, ea_sum
from .nerve import FiniteGroup
from .sset import (TruncatedSSet, is_inverseless_sset, is_spiny, is_two_segal,
                   is_weakly_two_segal, validate)
from .util import Check, InputError


class CyclicSSet:
    """A truncated simplicial set with cyclic automorphisms tau_n, 1 <= n <= K."""

    def __init__(self, base: TruncatedSSet, tau: dict):
        self.base = base
        self.tau = {n: list(t) for n, t in tau.items()}

    def t(self, n, s):
        return self.tau[n][s] if n >= 1 else s

    def check_shape(self):
        self.base.check_shape()
        for n in range(1, self.base.K + 1):
            t = self.tau.get(n)
            if t is None or len(t) != self.base.counts[n]:
                raise InputError(f"missing or missized tau at level {n}")
            if sorted(t) != list(range(self.base.counts[n])):
                raise InputError(f"tau at level {n} is not a permutation")

    def to_json_dict(self):
        d = self.base.to_json_dict()
        d["tau"] = {str(n): list(t) for n, t in sorted(self.tau.items())}
        return d

    @staticmethod
    def from_json_dict(d) -> "CyclicSSet":
        base = TruncatedSSet.from_json_dict(d)
        try:
            tau = {int(n): [int(v) for v in t] for n, t in d["tau"].items()}
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"bad cyclic json: {exc}") from exc
        c = CyclicSSet(base, tau)
        c.check_shape()
        return c


def cyclic_from_json(text: str) -> CyclicSSet:
    return CyclicSSet.from_json_dict(json.loads(text))


def validate_cyclic(c: CyclicSSet):
    """The dualized generator relations plus tau_n^{n+1} = id, with witnesses.

    Relations (tau_0 = id): d_0 tau_n = d_n, d_i tau_n = tau_{n-1} d_{i-1}
    for 1 <= i <= n, s_0 tau_n = tau_{n+1}^2 s_n, s_i tau_n = tau_{n+1} s_{i-1}
    for 1 <= i <= n.  These are locked against the printed Z/2 formulas by
    tests.
    """
    c.check_shape()
    x = c.base
    checks = []
    for n in range(1, x.K + 1):
        t = c.tau[n]
        ok, wit = True, None
        for s in x.simplices(n):
            cur = s
            for _ in range(n + 1):
                cur = t[cur]
            if cur != s:
                ok, wit = False, s
                break
        checks.append(Check(f"tau^{n + 1}=id@{n}", ok, wit))
        ok, wit = True, None
        for s in x.simplices(n):
            if x.face[(n, 0)][t[s]] != x.face[(n, n)][s]:
                ok, wit = False, s
                break
        checks.append(Check(f"d0.tau=dn@{n}", ok, wit))
        for i in range(1, n + 1):
            ok, wit = True, None
            for s in x.simplices(n):
                lhs = x.face[(n, i)][t[s]]
                prev = x.face[(n, i - 1)][s]
                rhs = c.t(n - 1, prev)
                if lhs != rhs:
                    ok, wit = False, s
                    break
            checks.append(Check(f"d{i}.tau=tau.d{i - 1}@{n}", ok, wit))
    for n in range(x.K):
        tn1 = c.tau[n + 1]
        ok, wit = True, None
        for s in x.simplices(n):
            lhs = x.deg[(n, 0)][c.t(n, s)]
            rhs = tn1[tn1[x.deg[(n, n)][s]]]
            if lhs != rhs:
                ok, wit = False, s
                break
        checks.append(Check(f"s0.tau=tau^2.sn@{n}", ok, wit))
        for i in range(1, n + 1):
            ok, wit = True, None
            for s in x.simplices(n):
                lhs = x.deg[(n, i)][c.t(n, s)]
                rhs = tn1[x.deg[(n, i - 1)][s]]
                if lhs != rhs:
                    ok, wit = False, s
                    break
            checks.append(Check(f"s{i}.tau=tau.s{i - 1}@{n}", ok, wit))
    return checks


def _level_tuples(x: TruncatedSSet, n: int):
    """Level labels as id tuples (nerve-style ssets carry these)."""
    lab = x.labels.get(n)
    if lab is None:
        raise InputError("cyclic constructions need tuple labels on the nerve")
    if n == 1:
        return [(v,) if not isinstance(v, tuple) else v for v in lab]
    return lab


def _cyclic_from_tuple_map(x: TruncatedSSet, tau_tuple) -> CyclicSSet:
    tau = {}
    for n in range(1, x.K + 1):
        tuples = _level_tuples(x, n)
        ids = {t: i for i, t in enumerate(tuples)}
        tab = []
        for t in tuples:
            img = tau_tuple(n, t)
            if img not in ids:
                raise InputError(f"cyclic image {img} of {t} leaves level {n}")
            tab.append(ids[img])
        tau[n] = tab
    return CyclicSSet(x, tau)


def group_nerve_cyclic(g: FiniteGroup, z: int, x: TruncatedSSet) -> CyclicSSet:
    """tau_n(g_1..g_n) = (z * (g_1...g_n)^-1, g_1, .., g_{n-1}) on a (sub)nerve
    of g whose labels are element tuples.  z must be central."""
    if z not in g.center():
        raise InputError(f"element {z} is not central")

    def tau_tuple(n, t):
        prod = 0
        for a in t:
            prod = g.mul[prod][a]
        return (g.mul[z][g.inv(prod)],) + t[:-1]

    return _cyclic_from_tuple_map(x, tau_tuple)


def effect_nerve_cyclic(e: FiniteEffectAlgebra, x: TruncatedSSet) -> CyclicSSet:
    """tau_n(a_1..a_n) = ((a_1+..+a_n)-perp, a_1, .., a_{n-1}) on the nerve
    of the effect algebra; tau_1 is the orthocomplement."""
    perp = e.orthocomplement

    def tau_tuple(n, t):
        s = ea_sum(e, t)
        if s is None:
            raise InputError(f"nerve level tuple {t} is not summable")
        return (perp[s],) + t[:-1]

    return _cyclic_from_tuple_map(x, tau_tuple)


def orthocomplement_laws(c: CyclicSSet):
    """The four orthocomplement clauses, exhaustive over the 2-simplices.

    (1) rotation: tau_2 of a witness to f.g = h witnesses g.(h-perp) = f-perp;
    (2) tau_1 is an involution; (3) (1_x)-perp = 0_x; (4) f.g = 1_x forces
    f = g-perp.
    """
    x = c.base
    ok1, wit1 = True, None
    t2 = c.tau[2]
    t1 = c.tau[1]
    for sig in x.simplices(2):
        rot = t2[sig]
        if (x.face[(2, 0)][rot] != x.face[(2, 2)][sig]
                or x.face[(2, 2)][rot] != t1[x.face[(2, 1)][sig]]
                or x.face[(2, 1)][rot] != t1[x.face[(2, 0)][sig]]):
            ok1, wit1 = False, sig
            break
    ok2 = all(t1[t1[e]] == e for e in x.simplices(1))
    wit2 = None if ok2 else next(e for e in x.simplices(1) if t1[t1[e]] != e)
    ok3, wit3 = True, None
    for v in x.simplices(0):
        zero = x.deg[(0, 0)][v]
        if t1[t1[zero]] != zero:
            ok3, wit3 = False, v
            break
    ones = {t1[x.deg[(0, 0)][v]] for v in x.simplices(0)}
    ok4, wit4 = True, None
    for sig in x.simplices(2):
        if x.face[(2, 1)][sig] in ones:
            if x.face[(2, 0)][sig] != t1[x.face[(2, 2)][sig]]:
                ok4, wit4 = False, sig
                break
    return [
        Check("ortho-1-rotation", ok1, wit1),
        Check("ortho-2-involution", ok2, wit2),
        Check("ortho-3-one-perp-is-zero", ok3, wit3),
        Check("ortho-4-composite-one-forces-perp", ok4, wit4),
    ]


def is_simplicial_effect(c: CyclicSSet):
    """Spiny, inverseless, weakly 2-Segal, valid cyclic relations."""
    x = c.base
    checks = []
    checks.append(Check("simplicial-identities", not validate(x)))
    rel = validate_cyclic(c)
    bad = [r for r in rel if not r.ok]
    checks.append(Check("cyclic-relations", not bad, bad[0].name if bad else None))
    ok, wit = is_spiny(x)
    checks.append(Check("spiny", ok, wit if not ok else None))
    ok, wit = is_inverseless_sset(x)
    checks.append(Check("inverseless", ok,
                        x.label(2, wit) if not ok else None))
    if x.K >= 3:
        ok, wit = is_weakly_two_segal(x)
        checks.append(Check("weakly-2-segal", ok, wit if not ok else None))
    else:
        checks.append(Check("weakly-2-segal", True, "truncation below 3", skipped=True))
    return all(ch.ok for ch in checks if not ch.skipped), checks


def effect_algebroid_conditions(c: CyclicSSet):
    """Roumen's characterization: 2-Segal, (U) sub-pullback, (Z) pullback.

    (U) is injectivity of (d_2, d_0) on 2-simplices into composable pairs of
    edges.  Membership additionally requires the cyclic relations.
    """
    x = c.base
    two, two_wit = is_two_segal(x)
    seen = {}
    u_ok, u_wit = True, None
    for sig in x.simplices(2):
        key = (x.face[(2, 2)][sig], x.face[(2, 0)][sig])
        if key in seen:
            u_ok, u_wit = False, (seen[key], sig)
            break
        seen[key] = sig
    z_ok, z_wit = is_inverseless_sset(x)
    rel_ok = not [r for r in validate_cyclic(c) if not r.ok]
    return {
        "two_segal": two,
        "two_segal_witness": two_wit,
        "U": u_ok,
        "U_witness": u_wit,
        "Z": z_ok,
        "Z_witness": z_wit,
        "cyclic_valid": rel_ok,
        "member": two and u_ok and z_ok and rel_ok,
    }
