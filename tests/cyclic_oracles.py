"""Per-simplex oracles for the cyclic checkers.

validate_cyclic and orthocomplement_laws scan simplex by simplex, as
simpeff.cyclic did before it compared the composite tables of each relation
whole.  The tests assert that both give the same checks, witnesses included.
"""

from simpeff.util import first_failure


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
