"""Cyclic structures on truncated simplicial sets.

A cyclic structure is a per-level permutation tau_n satisfying the dualized
cyclic-category relations; tau_1 plays the role of the orthocomplement.
Includes the group-nerve and effect-nerve constructions, the orthocomplement
laws, and one battery for the simplicial-effect suite and the
effect-algebroid conditions.
"""

from __future__ import annotations

__all__ = ["CyclicSSet", "validate_cyclic", "group_nerve_cyclic", "effect_nerve_cyclic",
           "orthocomplement_laws", "battery"]

from .palg import FiniteEffectAlgebra
from .nerve import FiniteGroup
from .sset import (TruncatedSSet, composite, differences, face_pair_index, is_inverseless_sset,
                   segal, subface)
from .util import Check, InputError, first_failure, json_ints


class CyclicSSet:
    """A truncated simplicial set with cyclic automorphisms tau_n, 1 <= n <= K.

    Like the base's tables, the tau lists are kept and handed out uncopied."""

    def __init__(self, base: TruncatedSSet, tau: dict):
        self.base = base
        self.tau = dict(tau)

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
        d["tau"] = {str(n): t for n, t in sorted(self.tau.items())}
        return d

    @staticmethod
    def from_json_dict(d) -> "CyclicSSet":
        base = TruncatedSSet.from_json_dict(d)
        try:
            tau = {int(n): json_ints(t) for n, t in d["tau"].items()}
            if set(d["tau"]) != set(map(str, tau)):
                raise InputError(f"tau keys {sorted(d['tau'])} are not each written as \"n\"")
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
    tests.  Each relation compares the composite tables of its two sides;
    the witness is the first simplex where they differ.
    """
    c.check_shape()
    x = c.base
    face, deg = x.face, x.deg
    tau = {0: list(x.simplices(0)), **c.tau}
    checks = []

    def check(name, lhs, rhs):
        checks.append(first_failure(name, differences(lhs, rhs)))

    for n in range(1, x.K + 1):
        power = list(x.simplices(n))
        for _ in range(n + 1):
            power = composite(tau[n], power)
        check(f"tau^{n + 1}=id@{n}", power, list(x.simplices(n)))
        check(f"d0.tau=dn@{n}", composite(face[(n, 0)], tau[n]), face[(n, n)])
        for i in range(1, n + 1):
            check(f"d{i}.tau=tau.d{i - 1}@{n}", composite(face[(n, i)], tau[n]),
                  composite(tau[n - 1], face[(n, i - 1)]))
    for n in range(x.K):
        up = tau[n + 1]
        check(f"s0.tau=tau^2.sn@{n}", composite(deg[(n, 0)], tau[n]),
              composite(up, composite(up, deg[(n, n)])))
        for i in range(1, n + 1):
            check(f"s{i}.tau=tau.s{i - 1}@{n}", composite(deg[(n, i)], tau[n]),
                  composite(up, deg[(n, i - 1)]))
    return checks


def _cyclic_from_edges(x: TruncatedSSet, perp) -> CyclicSSet:
    """The cyclic structure on a spiny set x whose tau_1 sends the edge of
    each element a, read from the level-1 labels, to the edge of perp[a].

    In a cyclic set d_0 tau_n = d_n and d_n tau_n = tau_{n-1} d_{n-1}, so
    tau_n s is the t with (d_n t, d_0 t) = (tau_{n-1} d_{n-1} s, d_n s), and
    by induction the spine of tau_n s is tau_1 of the long edge (0, n) of s,
    then the spine of d_n s.  On a set spiny below level n, face_pair_index
    tells n-simplices apart as the spine does.  So on a spiny set tau_1 fixes tau,
    and where no simplex has the image spine no cyclic tau extends tau_1.
    """
    lab = x.labels.get(1)
    if lab is None:
        raise InputError("cyclic constructions need tuple labels on the nerve")
    elem = [v[0] if isinstance(v, tuple) else v for v in lab]
    edge = {a: e for e, a in enumerate(elem)}

    def check_images(n):
        if None in tau[n]:
            s = tau[n].index(None)
            sp = tuple(elem[subface(x, n, s, (i, i + 1))] for i in range(n))
            img = (perp[elem[subface(x, n, s, (0, n))]],) + sp[:-1]
            raise InputError(f"cyclic image {img} of {sp} leaves level {n}")

    tau = {1: [edge.get(perp[a]) for a in elem]}
    check_images(1)
    for n in range(2, x.K + 1):
        ids, clash = face_pair_index(x, n)
        if clash is not None:
            raise InputError(f"{n}-simplices {clash} share a spine; "
                             "tau_1 fixes tau only on a spiny set")
        tau[n] = list(map(ids.get, zip(composite(tau[n - 1], x.face[(n, n - 1)]),
                                       x.face[(n, n)])))
        check_images(n)
    return CyclicSSet(x, tau)


def group_nerve_cyclic(g: FiniteGroup, z: int, x: TruncatedSSet) -> CyclicSSet:
    """tau_n(g_1..g_n) = (z * (g_1...g_n)^-1, g_1, .., g_{n-1}) on a (sub)nerve
    of g whose level-1 labels are its elements.  z must be central."""
    if z not in g.center():
        raise InputError(f"element {z} is not central")
    return _cyclic_from_edges(x, [g.mul[z][g.inv(a)] for a in range(g.order)])


def effect_nerve_cyclic(e: FiniteEffectAlgebra, x: TruncatedSSet) -> CyclicSSet:
    """tau_n(a_1..a_n) = ((a_1+..+a_n)-perp, a_1, .., a_{n-1}) on the nerve
    of the effect algebra; tau_1 is the orthocomplement."""
    return _cyclic_from_edges(x, e.orthocomplement)


def orthocomplement_laws(c: CyclicSSet):
    """The four orthocomplement clauses, exhaustive over the 2-simplices.

    (1) rotation: tau_2 of a witness to f.g = h witnesses g.(h-perp) = f-perp;
    (2) tau_1 is an involution; (3) (1_x)-perp = 0_x; (4) f.g = 1_x forces
    f = g-perp.  Clauses 1-3 compare composite tables, as validate_cyclic
    does; clause 4 holds only over composites equal to a 1_x, so it scans.
    """
    x = c.base
    t1, t2 = c.tau[1], c.tau[2]
    d0, d1, d2 = (x.face[(2, i)] for i in range(3))
    s0 = x.deg[(0, 0)]
    ones = set(composite(t1, s0))
    return [
        first_failure("ortho-1-rotation", differences(
            list(zip(composite(d0, t2), composite(d2, t2), composite(d1, t2))),
            list(zip(d2, composite(t1, d1), composite(t1, d0))))),
        first_failure("ortho-2-involution",
                      differences(composite(t1, t1), list(x.simplices(1)))),
        first_failure("ortho-3-one-perp-is-zero",
                      differences(composite(t1, composite(t1, s0)), s0)),
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
    bad, spiny, two, weak, _ = segal(x)
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
        u_wit = face_pair_index(x, 2)[1]
        conds = [Check("two_segal", *two), Check("U", u_wit is None, u_wit),
                 Check("Z", inv_ok, inv_wit), Check("cyclic_valid", not badrel)]
        checks += [Check(f"effect-algebroid/{ch.name}", ch.ok, ch.witness) for ch in conds[:3]]
        failed = [ch.name for ch in conds if not ch.ok]
        checks.append(Check("effect-algebroid", not failed,
                            f"failed: {failed}" if failed else None))
    return checks
