"""Cyclic structures on truncated simplicial sets.

A cyclic structure is a per-level permutation tau_n satisfying the dualized
cyclic-category relations; tau_1 plays the role of the orthocomplement.
Includes the group-nerve and effect-nerve constructions, the orthocomplement
laws, and one battery for the simplicial-effect suite and the
effect-algebroid conditions.
"""

from __future__ import annotations

from .palg import FiniteEffectAlgebra, left_product
from .nerve import FiniteGroup
from .sset import TruncatedSSet, is_inverseless_sset, segal
from .util import Check, InputError, first_collision, first_failure


class CyclicSSet:
    """A truncated simplicial set with cyclic automorphisms tau_n, 1 <= n <= K."""

    def __init__(self, base: TruncatedSSet, tau: dict):
        self.base = base
        self.tau = {n: list(t) for n, t in tau.items()}

    def t(self, n, s):
        return self.tau[n][s] if n >= 1 else s

    def check_shape(self):
        self.base.check_shape()
        extra = sorted(set(self.tau) - set(range(1, self.base.K + 1)))
        if extra:
            raise InputError(f"tau at level {extra[0]} outside truncation {self.base.K}")
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
        power = list(x.simplices(n))
        for _ in range(n + 1):
            power = [t[s] for s in power]
        checks.append(first_failure(f"tau^{n + 1}=id@{n}", (
            s for s in x.simplices(n) if power[s] != s)))
        checks.append(first_failure(f"d0.tau=dn@{n}", (
            s for s in x.simplices(n) if x.face[(n, 0)][t[s]] != x.face[(n, n)][s])))
        for i in range(1, n + 1):
            checks.append(first_failure(f"d{i}.tau=tau.d{i - 1}@{n}", (
                s for s in x.simplices(n)
                if x.face[(n, i)][t[s]] != c.t(n - 1, x.face[(n, i - 1)][s]))))
    for n in range(x.K):
        tn1 = c.tau[n + 1]
        checks.append(first_failure(f"s0.tau=tau^2.sn@{n}", (
            s for s in x.simplices(n)
            if x.deg[(n, 0)][c.t(n, s)] != tn1[tn1[x.deg[(n, n)][s]]])))
        for i in range(1, n + 1):
            checks.append(first_failure(f"s{i}.tau=tau.s{i - 1}@{n}", (
                s for s in x.simplices(n)
                if x.deg[(n, i)][c.t(n, s)] != tn1[x.deg[(n, i - 1)][s]])))
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
        s = left_product(e.magma, t)
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
    t1, t2 = c.tau[1], c.tau[2]
    d0, d1, d2 = (x.face[(2, i)] for i in range(3))
    s0 = x.deg[(0, 0)]
    ones = {t1[s0[v]] for v in x.simplices(0)}
    return [
        first_failure("ortho-1-rotation", (
            sig for sig in x.simplices(2)
            if (d0[t2[sig]] != d2[sig] or d2[t2[sig]] != t1[d1[sig]]
                or d1[t2[sig]] != t1[d0[sig]]))),
        first_failure("ortho-2-involution", (e for e in x.simplices(1) if t1[t1[e]] != e)),
        first_failure("ortho-3-one-perp-is-zero", (
            v for v in x.simplices(0) if t1[t1[s0[v]]] != s0[v])),
        first_failure("ortho-4-composite-one-forces-perp", (
            sig for sig in x.simplices(2) if d1[sig] in ones and d0[sig] != t1[d2[sig]])),
    ]


def battery(c: CyclicSSet, effect=True, algebroid=True):
    """The cyclic relations, then the simplicial-effect suite and the
    effect-algebroid conditions, as report checks, each fact computed once.

    The simplicial-effect suite asks for the simplicial identities, spiny,
    inverseless and weakly 2-Segal sub-checks and valid cyclic relations.
    The effect-algebroid conditions are Roumen's characterization: 2-Segal,
    (U) injectivity of (d_2, d_0) on 2-simplices into composable pairs of
    edges, (Z) the inverseless pullback, and valid cyclic relations.  effect
    and algebroid pick the suites.  One Segal pass decides the simplicial
    identities, spiny, 2-Segal and weak 2-Segal for both.
    """
    x = c.base
    badrel = [r for r in validate_cyclic(c) if not r.ok]
    checks = [Check("cyclic-relations", not badrel,
                    f"{badrel[0].name} witness {badrel[0].witness}" if badrel else None)]
    inv_ok, inv_wit = is_inverseless_sset(x)
    bad, spiny, two, weak = segal(x)
    if effect:
        suite = [Check("simplicial-identities", not bad),
                 Check("cyclic-relations", not badrel),
                 Check("spiny", *spiny),
                 Check("inverseless", inv_ok, None if inv_ok else x.label(2, inv_wit)),
                 Check("weakly-2-segal", *weak) if x.K >= 3 else
                 Check("weakly-2-segal", True, "truncation below 3", skipped=True)]
        checks += [Check(f"simplicial-effect/{ch.name}", ch.ok, ch.witness, ch.skipped)
                   for ch in suite if ch.name != "cyclic-relations"]
        failed = [ch.name for ch in suite if not ch.ok]
        checks.append(Check("simplicial-effect", not failed,
                            f"failed: {failed}" if failed else None))
    if algebroid:
        u_wit = first_collision(zip(x.face[(2, 2)], x.face[(2, 0)]))
        conds = [Check("two_segal", *two), Check("U", u_wit is None, u_wit),
                 Check("Z", inv_ok, inv_wit), Check("cyclic_valid", not badrel)]
        checks += [Check(f"effect-algebroid/{ch.name}", ch.ok, ch.witness) for ch in conds[:3]]
        failed = [ch.name for ch in conds if not ch.ok]
        checks.append(Check("effect-algebroid", not failed,
                            f"failed: {failed}" if failed else None))
    return checks
