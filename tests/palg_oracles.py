"""Catalan-enumeration oracles for the palg interval DP and classification.

bracketed_product evaluates a tuple under one explicit bracketing tree.
_interval_tables is the set-valued interval DP that keeps every value any
defined bracketing of an interval reaches; is_multiplicable and
is_associable read its table for the whole tuple.  The tests compare that DP
against every tree of palg.bracketings, palg.fully_associable_mask against
fully_associable, which evaluates every tree of every contiguous subtuple,
and palg.classify against classify, which evaluates both trees of every
triple.  max_associativity_datum is the datum builder that checks every
candidate by the interval DP of is_fully_associable, which reads the sparse
product table; palg.max_associativity_datum, which decides each level in
one batch of fully_associable_mask, is compared against it.  inverse_conditions decides each
doubled tuple on its own by that interval DP, as the batched DP of
palg.inverse_conditions is compared against it.  leaf_count is the per-node walk
sset.triangulations no longer needs.
chain_magma is a noncommutative partial monoid the tests check, and
horizontal_sum the orthoalgebra MO_n that separates 2-Segal from weak
2-Segal on the effect functor of a simplex.
"""

import itertools

from simpeff import palg
from simpeff.util import InputError


def leaf_count(tree) -> int:
    if tree == palg.LEAF:
        return 1
    return leaf_count(tree[0]) + leaf_count(tree[1])


def bracketed_product(m: palg.PartialUnitalMagma, tup, tree):
    """Evaluate tup under the bracketing tree; None when undefined.

    The tree performs one binary product per internal vertex.  Arity
    mismatch between tuple and tree is an input error.
    """
    if leaf_count(tree) != len(tup):
        raise InputError(f"bracketing has {leaf_count(tree)} leaves for a {len(tup)}-tuple")

    def ev(t, lo, hi):
        if t == palg.LEAF:
            return tup[lo]
        k = leaf_count(t[0])
        a = ev(t[0], lo, lo + k)
        if a is None:
            return None
        b = ev(t[1], lo + k, hi)
        if b is None:
            return None
        return m.product.get((a, b))

    return ev(tree, 0, len(tup))


def _interval_tables(m: palg.PartialUnitalMagma, tup):
    """Interval DP over all bracketings.

    ok[(i,j)] is True iff every bracketing of tup[i..j] is defined;
    vals[(i,j)] is the set of values reachable by defined bracketings.
    Equivalent to enumerating Catalan-many trees (tested against that), but
    shares subinterval work.
    """
    n = len(tup)
    prod = m.product
    vals = {}
    ok = {}
    for i in range(n):
        vals[(i, i)] = {tup[i]}
        ok[(i, i)] = True
    for length in range(2, n + 1):
        for i in range(0, n - length + 1):
            j = i + length - 1
            defined = True
            out = set()
            for k in range(i, j):
                if not (ok[(i, k)] and ok[(k + 1, j)]):
                    defined = False
                for a in vals[(i, k)]:
                    for b in vals[(k + 1, j)]:
                        c = prod.get((a, b))
                        if c is None:
                            defined = False
                        else:
                            out.add(c)
            vals[(i, j)] = out
            ok[(i, j)] = defined
    return vals, ok


def is_multiplicable(m: palg.PartialUnitalMagma, tup) -> bool:
    """True iff every binary bracketing of the tuple is defined."""
    if len(tup) == 0:
        raise InputError("empty tuple")
    if len(tup) == 1:
        return True
    _, ok = _interval_tables(m, tup)
    return ok[(0, len(tup) - 1)]


def is_associable(m: palg.PartialUnitalMagma, tup) -> bool:
    """Multiplicable with all bracketings agreeing on a single value."""
    if len(tup) == 1:
        return True
    vals, ok = _interval_tables(m, tup)
    key = (0, len(tup) - 1)
    return ok[key] and len(vals[key]) == 1


def fully_associable(m: palg.PartialUnitalMagma, tup) -> bool:
    """Every contiguous subtuple has all its bracketings defined and equal."""
    for n in range(2, len(tup) + 1):
        for i in range(len(tup) - n + 1):
            vals = {bracketed_product(m, tup[i:i + n], t) for t in palg.bracketings(n)}
            if None in vals or len(vals) != 1:
                return False
    return True


def is_fully_associable(m: palg.PartialUnitalMagma, tup) -> bool:
    """Every contiguous subtuple is associable (paper-level notion behind
    associativity data and nerve levels).

    Interval DP from short to long: once every shorter interval has one
    value, an interval has one iff the products of its splits are all defined
    and agree, so one value per interval is kept and the first undefined or
    disagreeing split decides."""
    prod = m.product
    rows = [tup]  # rows[d][i] is the value of tup[i..i+d]
    for d in range(1, len(tup)):
        row = []
        for i in range(len(tup) - d):
            c = prod.get((tup[i], rows[d - 1][i + 1]))
            if c is None:
                return False
            for k in range(1, d):
                if prod.get((rows[k][i], rows[d - 1 - k][i + k + 1])) != c:
                    return False
            row.append(c)
        rows.append(row)
    return True


def max_associativity_datum(m: palg.PartialUnitalMagma, up_to: int) -> palg.AssociativityDatum:
    """The maximal datum A_n = F_n(m) for 2 <= n <= up_to, by enumeration.

    Level n candidates are grown from level n-1 (both outer faces of a fully
    associable tuple are fully associable), then checked by the interval DP.
    """
    if up_to < 2:
        raise InputError("up_to must be >= 2")
    levels = {}
    prev = [(x,) for x in m.elements()]
    for n in range(2, up_to + 1):
        prev_set = set(prev)
        cur = []
        for t in prev:
            for x in m.elements():
                if n > 2 and t[1:] + (x,) not in prev_set:
                    continue
                cand = t + (x,)
                if is_fully_associable(m, cand):
                    cur.append(cand)
        levels[n] = frozenset(cur)
        prev = cur
    return palg.AssociativityDatum(levels)


def inverse_conditions(m: palg.PartialUnitalMagma, up_to: int):
    """Two-sided inverses, then each doubled tuple t + inv(reversed t) of
    the maximal datum, arity by arity and in sorted order, decided one at a
    time; (bool, witness) as palg.inverse_conditions returns it."""
    inv = []
    for x in m.elements():
        two = palg.inverses(m, x)["two_sided"]
        if not two:
            return False, ("missing-inverse", x)
        inv.append(min(two))
    datum = max_associativity_datum(m, up_to)
    for n in range(1, up_to + 1):
        tuples = [(x,) for x in m.elements()] if n == 1 else sorted(datum.level(n))
        for t in tuples:
            if not is_fully_associable(m, t + tuple(inv[x] for x in reversed(t))):
                return False, ("doubled-tuple-fails", t)
    return True, None


def classify(m: palg.PartialUnitalMagma):
    """(class, lex-least witness) from both bracketings of every triple.

    A triple whose two defined bracketings differ rules out a weak partial
    monoid; one where the bracketings differ at all (one undefined, or both
    defined and different) rules out a partial monoid.
    """
    left_tree, right_tree = palg.bracketings(3)
    weak_wit = segal_wit = None
    for tup in itertools.product(range(m.size), repeat=3):
        left = bracketed_product(m, tup, left_tree)
        right = bracketed_product(m, tup, right_tree)
        if weak_wit is None and None not in (left, right) and left != right:
            weak_wit = tup
        if segal_wit is None and left != right:
            segal_wit = tup
    if weak_wit is not None:
        return palg.MAGMA, weak_wit
    if segal_wit is not None:
        return palg.WEAK_PARTIAL_MONOID, segal_wit
    return palg.PARTIAL_MONOID, None


def chain_magma(n: int) -> palg.PartialUnitalMagma:
    """The interval partial monoid: elements m_ij (i < j) plus the unit,
    m_ij * m_jk = m_ik.  A noncommutative partial monoid test case."""
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    idx = {p: k + 1 for k, p in enumerate(pairs)}
    size = len(pairs) + 1
    product = {(0, a): a for a in range(size)}
    product.update({(a, 0): a for a in range(size)})
    for (i, j) in pairs:
        for (j2, k) in pairs:
            if j2 == j:
                product[(idx[(i, j)], idx[(j2, k)])] = idx[(i, k)]
    return palg.PartialUnitalMagma(size, product)


def horizontal_sum(n: int) -> palg.FiniteEffectAlgebra:
    """MO_n: n copies of the four-element Boolean algebra bool2, glued at 0
    and 1.  Ids: 0 is 0, copy k has the atoms 2k + 1 and 2k + 2, each the
    other's orthocomplement, and 2n + 1 is 1.  For n >= 2 an orthoalgebra
    that is not Boolean."""
    top = 2 * n + 1
    product = {(0, a): a for a in range(top + 1)}
    product.update({(a, 0): a for a in range(top + 1)})
    perp = [top] + [a + 1 if a % 2 else a - 1 for a in range(1, top)] + [0]
    product.update({(a, perp[a]): top for a in range(1, top)})
    return palg.FiniteEffectAlgebra(palg.PartialUnitalMagma(top + 1, product), tuple(perp))
