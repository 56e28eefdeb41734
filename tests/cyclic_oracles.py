"""Per-simplex oracles for the cyclic checkers and constructions.

validate_cyclic and orthocomplement_laws scan simplex by simplex, as
simpeff.cyclic did before it compared the composite tables of each relation
whole.  group_nerve_cyclic and effect_nerve_cyclic compute tau_n of every
simplex from its tuple label, the product or sum of the whole tuple, as
simpeff.cyclic did before it read tau_n off tau_1 and the spines.  The tests
assert that both sides give the same checks, witnesses included, and the
same tau tables or errors.
"""

from simpeff.cyclic import CyclicSSet
from simpeff.nerve import FiniteGroup
from simpeff.palg import FiniteEffectAlgebra, left_product
from simpeff.sset import TruncatedSSet
from simpeff.util import InputError, first_failure


def _t(c, n, s):
    """tau_n of s, with tau_0 the identity."""
    return c.tau[n][s] if n >= 1 else s


def validate_cyclic(c):
    """The dualized generator relations plus tau_n^{n+1} = id, with witnesses.

    Relations (tau_0 = id): d_0 tau_n = d_n, d_i tau_n = tau_{n-1} d_{i-1}
    for 1 <= i <= n, s_0 tau_n = tau_{n+1}^2 s_n, s_i tau_n = tau_{n+1} s_{i-1}
    for 1 <= i <= n.
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
                if x.face[(n, i)][t[s]] != _t(c, n - 1, x.face[(n, i - 1)][s]))))
    for n in range(x.K):
        tn1 = c.tau[n + 1]
        checks.append(first_failure(f"s0.tau=tau^2.sn@{n}", (
            s for s in x.simplices(n)
            if x.deg[(n, 0)][_t(c, n, s)] != tn1[tn1[x.deg[(n, n)][s]]])))
        for i in range(1, n + 1):
            checks.append(first_failure(f"s{i}.tau=tau.s{i - 1}@{n}", (
                s for s in x.simplices(n)
                if x.deg[(n, i)][_t(c, n, s)] != tn1[x.deg[(n, i - 1)][s]])))
    return checks


def orthocomplement_laws(c):
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
