"""Catalan-enumeration oracles for the palg interval DP.

bracketed_product evaluates a tuple under one explicit bracketing tree;
is_associable reads the interval DP's table for the whole tuple.  The tests
compare the DP against every tree of palg.bracketings.  leaf_count is the
per-node walk sset.triangulations no longer needs.
"""

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


def is_associable(m: palg.PartialUnitalMagma, tup) -> bool:
    """Multiplicable with all bracketings agreeing on a single value."""
    if len(tup) == 1:
        return True
    vals, ok = palg._interval_tables(m, tup)
    key = (0, len(tup) - 1)
    return ok[key] and len(vals[key]) == 1
