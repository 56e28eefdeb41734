"""Catalan-enumeration oracles for the palg interval DP and classification.

bracketed_product evaluates a tuple under one explicit bracketing tree;
is_associable reads the interval DP's table for the whole tuple.  The tests
compare the DP against every tree of palg.bracketings, and palg.classify
against classify, which evaluates both trees of every triple.  leaf_count is
the per-node walk sset.triangulations no longer needs.
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


def is_associable(m: palg.PartialUnitalMagma, tup) -> bool:
    """Multiplicable with all bracketings agreeing on a single value."""
    if len(tup) == 1:
        return True
    vals, ok = palg._interval_tables(m, tup)
    key = (0, len(tup) - 1)
    return ok[key] and len(vals[key]) == 1


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
