"""Finite partial algebraic structures.

Carriers are dense integer ids 0..k-1 with 0 reserved for the unit.  The
partial product is a sparse table {(a, b): c}; definedness is membership.
The scans read its dense form, the cached rows[a][b] with None where the
product is undefined; the interval DP reads the same table as an int array,
with the absorbing id size where the product is undefined.  On top of the
bare unital magma this module
implements bracketings, multiplicability and full associability,
associativity data and Chermak's partial-group conditions on them, inverses,
and finite effect algebras.
"""

from __future__ import annotations

__all__ = ["MAGMA", "WEAK_PARTIAL_MONOID", "PARTIAL_MONOID", "PartialUnitalMagma", "LEAF",
           "bracketings", "fully_associable_mask", "is_fully_associable", "left_product",
           "classify", "AssociativityDatum", "max_associativity_datum", "validate_datum",
           "validate_partial_group", "inverses",
           "is_inverseless", "is_weakly_associative_partial_group", "inverse_conditions",
           "FiniteEffectAlgebra", "multiset_multiplicable", "validate_effect_algebra",
           "interval_effect_algebra", "boolean_effect_algebra"]

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .util import Check, InputError, StructureError, first_failure, json_int, json_ints

MAGMA = "magma"
WEAK_PARTIAL_MONOID = "weak-partial-monoid"
PARTIAL_MONOID = "partial-monoid"


# ---------------------------------------------------------------------------
# partial unital magmas


@dataclass(frozen=True)
class PartialUnitalMagma:
    """A finite set 0..size-1 with a partial binary product and unit 0."""

    size: int
    product: dict  # (a, b) -> c, exactly the defined pairs

    def elements(self):
        return range(self.size)

    def defined(self, a: int, b: int) -> bool:
        return (a, b) in self.product

    def mul(self, a: int, b: int):
        """Product of a and b, or None when the pair is not multiplicable."""
        return self.product.get((a, b))

    def _check_entries(self):
        """An InputError on the first product entry, in product order, with
        an id outside 0..size-1."""
        size = self.size
        for (a, b), c in self.product.items():
            if not (0 <= a < size and 0 <= b < size and 0 <= c < size):
                raise InputError(f"product entry {(a, b, c)} out of range")

    @functools.cached_property
    def rows(self):
        """The dense table: rows[a][b] is the product of a and b, or None
        where it is undefined.  Built once from product, which must not
        change after; an entry outside 0..size-1 raises InputError."""
        self._check_entries()
        rows = [[None] * self.size for _ in range(self.size)]
        for (a, b), c in self.product.items():
            rows[a][b] = c
        return rows

    @functools.cached_property
    def table(self):
        """rows as a (size+1) x (size+1) int array, with the id size where
        the product is undefined; row and column size hold size too, so an
        undefined value absorbs every product it enters."""
        size = self.size
        table = np.full((size + 1, size + 1), size, dtype=np.intp)
        table[:size, :size] = [[size if c is None else c for c in row] for row in self.rows]
        return table

    def validate(self):
        """Check the entries' range, then the unit law, on the sparse
        product, so that a malformed magma fails before the dense table of
        size**2 entries is built; raise InputError."""
        self._check_entries()
        product = self.product
        for m in self.elements():
            if product.get((0, m)) != m or product.get((m, 0)) != m:
                raise InputError(f"unit law fails at element {m}")

    def to_json_dict(self):
        rows = sorted([a, b, c] for (a, b), c in self.product.items())
        return {"size": self.size, "unit": 0, "products": rows}

    @staticmethod
    def from_json_dict(d) -> "PartialUnitalMagma":
        try:
            size = json_int(d["size"])
            if json_int(d.get("unit", 0)) != 0:
                raise InputError("magma unit must be element 0")
            product = {}
            for row in d["products"]:
                a, b, c = json_ints(row)
                if product.setdefault((a, b), c) != c:
                    raise InputError(f"conflicting products for pair {(a, b)}")
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad magma json: {exc}") from exc
        if size < 1:
            raise InputError(f"magma size must be >= 1, got {size}")
        m = PartialUnitalMagma(size, product)
        m.validate()
        return m


# ---------------------------------------------------------------------------
# bracketings

LEAF = "*"


@functools.lru_cache(maxsize=None)
def bracketings(n: int):
    """All planar binary rooted trees with n leaves (Catalan(n-1) of them).

    A tree is LEAF or a pair (left, right).  Deterministic order: by split
    position, left subtree first.  Cached per n, so trees share their
    subtrees; the result is a tuple, as trees are immutable.
    """
    if n < 1:
        raise InputError("bracketings need n >= 1")
    if n == 1:
        return (LEAF,)
    return tuple((left, right) for k in range(1, n)
                 for left in bracketings(k) for right in bracketings(n - k))


def fully_associable_mask(m: PartialUnitalMagma, tuples) -> np.ndarray:
    """Full associability of each row of tuples, a (k, L) int array, as a
    bool array of length k: every contiguous subtuple of the row is
    associable (paper-level notion behind associativity data and nerve
    levels).  A tuple of length < 2 is fully associable.

    Interval DP from short to long, each step one gather over all k rows:
    once every shorter interval has one value, an interval has one iff the
    products of its splits are all defined and agree, so one value per
    interval is kept, that of its first split, and the other splits are
    compared with it.  The products are read from m.table, where the id size
    stands for an undefined value and absorbs every product it enters; an id
    off the carrier enters as size too, so no product with it is defined."""
    k, length = tuples.shape
    ok = np.ones(k, dtype=bool)
    if length < 2:
        return ok
    size = m.size
    flat, w = m.table.ravel(), size + 1  # flat[a * w + b] is the product of a and b
    # vals[d][:, i] is the value of the interval i..i+d
    vals = [np.where((tuples < 0) | (tuples >= size), size, tuples)]
    for d in range(1, length):
        c = flat[vals[0][:, :length - d] * w + vals[d - 1][:, 1:]]
        ok &= (c != size).all(axis=1)
        for j in range(1, d):
            ok &= (flat[vals[j][:, :length - d] * w + vals[d - 1 - j][:, j + 1:]] == c).all(axis=1)
        vals.append(c)
    return ok


def _id_array(m: PartialUnitalMagma, tuples, length: int) -> np.ndarray:
    """The tuples, each of the given length, as a (k, length) int array; an
    id too large for it is off the carrier, so it enters as -1."""
    try:
        return np.array(tuples, dtype=np.intp).reshape(len(tuples), length)
    except OverflowError:
        return np.array([[x if 0 <= x < m.size else -1 for x in t] for t in tuples],
                        dtype=np.intp).reshape(len(tuples), length)


def is_fully_associable(m: PartialUnitalMagma, tup) -> bool:
    """Full associability of one tuple: fully_associable_mask on the batch
    of one."""
    return bool(fully_associable_mask(m, _id_array(m, [tup], len(tup)))[0])


def _first_unassociable(m: PartialUnitalMagma, tuples):
    """The first of the tuples, a list, that is not fully associable, or
    None; one batch for the tuples of each length."""
    by_length = {}
    for i, t in enumerate(tuples):
        by_length.setdefault(len(t), []).append(i)
    first = len(tuples)
    for length, idx in by_length.items():
        ok = fully_associable_mask(m, _id_array(m, [tuples[i] for i in idx], length))
        if not ok.all():
            first = min(first, idx[ok.argmin()])
    return tuples[first] if first < len(tuples) else None


def left_product(m: PartialUnitalMagma, values):
    """The left fold ((v_1 v_2) ..) v_n, started from the unit, so () gives
    the unit; None when some partial product is undefined.  On a fully
    associable tuple it is the common value of every bracketing."""
    rows, acc = m.rows, 0
    for v in values:
        acc = rows[acc][v]
        if acc is None:
            return None
    return acc


def classify(m: PartialUnitalMagma):
    """(class, lex-least witness against the next stronger class) by an
    exhaustive triple scan; the witness is None for a partial monoid.

    A triple whose bracketings (ab)c and a(bc) are both defined and differ
    makes m a magma; one whose bracketings differ at all (one undefined)
    keeps it from being a partial monoid.  Triples are decisive: any two
    bracketings are linked by a(bc) <-> (ab)c moves.
    """
    rows = m.rows
    undefined = [None] * m.size
    segal_wit = None
    for a, row_a in enumerate(rows):
        for b, ab in enumerate(row_a):
            row_ab = undefined if ab is None else rows[ab]
            for c, bc in enumerate(rows[b]):
                left = row_ab[c]
                right = None if bc is None else row_a[bc]
                if left != right:
                    if left is not None and right is not None:
                        return MAGMA, (a, b, c)
                    if segal_wit is None:
                        segal_wit = (a, b, c)
    if segal_wit is not None:
        return WEAK_PARTIAL_MONOID, segal_wit
    return PARTIAL_MONOID, None


# ---------------------------------------------------------------------------
# associativity data


@dataclass(frozen=True)
class AssociativityDatum:
    """Chermak-style structure: levels[n] is the chosen set of n-tuples, n >= 2."""

    levels: dict  # n -> frozenset of tuples

    @property
    def max_arity(self) -> int:
        return max(self.levels) if self.levels else 1

    def level(self, n: int):
        if n == 1:
            raise InputError("datum levels start at 2")
        return self.levels.get(n, frozenset())


def _fully_associable_levels(m: PartialUnitalMagma, up_to: int):
    """Yield (parent, level) for F_1(m), ..., F_up_to(m): level is a (k, n)
    int array of the fully associable n-tuples in lexicographic order, and
    parent[i] is the row of its prefix level[i, :-1] one level down (0, the
    empty tuple, for n = 1).

    Level n is level n-1 extended by every x whose product with the tuple's
    last entry is defined, kept by one fully_associable_mask batch: the
    prefix of a fully associable tuple is fully associable, so no member of
    F_n is missed.  Lazy, so a caller that stops early grows no further.
    """
    parent, level = np.zeros(m.size, dtype=np.intp), np.arange(m.size, dtype=np.intp)[:, None]
    yield parent, level
    for _ in range(2, up_to + 1):
        rows, xs = np.nonzero(m.table[level[:, -1]] != m.size)
        cand = np.concatenate([level[rows], xs[:, None]], axis=1)
        keep = fully_associable_mask(m, cand)
        parent, level = rows[keep], cand[keep]
        yield parent, level


def max_associativity_datum(m: PartialUnitalMagma, up_to: int) -> AssociativityDatum:
    """The maximal datum A_n = F_n(m) for 2 <= n <= up_to, by enumeration."""
    if up_to < 2:
        raise InputError("up_to must be >= 2")
    return AssociativityDatum({n: frozenset(map(tuple, level.tolist()))
                               for n, (_, level) in enumerate(_fully_associable_levels(m, up_to), 1)
                               if n > 1})


def validate_datum(m: PartialUnitalMagma, a: AssociativityDatum):
    """Datum conditions against m; list of Check rows.

    Conditions: A_2 equals the product domain, closure under outer splits,
    closure under unit insertion (within the stored arity bound), and full
    associability of every stored tuple.  Face closure (contraction of an
    adjacent pair to its product) is what Chermak's condition (4) and the nerve
    need; it is extra to the printed conditions and has its own row.  A
    stored tuple whose length is not its level fails the last row, with its
    level as (n, tuple); the rows that read a tuple as one of its level (the
    domain, closures and face closure) skip it, and full associability, a
    property of the tuple alone, reads every stored tuple.
    """
    dom = frozenset(m.product)
    top = a.max_arity
    stored = [(n, t) for n in sorted(a.levels) for t in sorted(a.levels[n])]
    placed = [(n, t) for n, t in stored if len(t) == n]
    unassociable = _first_unassociable(m, [t for _, t in stored])
    return [
        first_failure("datum-cond1-a2-is-domain",
                      sorted(dom ^ {t for t in a.level(2) if len(t) == 2})),
        first_failure("datum-cond2-split-closure", (
            (t, part) for n, t in placed for i in range(1, n) for part in (t[:i], t[i:])
            if len(part) >= 2 and part not in a.level(len(part)))),
        first_failure(f"datum-cond3-unit-insertion(arity<={top})", (
            (t, ins) for n, t in placed if n < top for i in range(n + 1)
            if (ins := t[:i] + (0,) + t[i:]) not in a.level(n + 1))),
        Check("datum-fully-associable", unassociable is None, unassociable),
        # an undefined product contracts to a word with None, stored nowhere;
        # mul, not rows, as a stored tuple may hold ids off the carrier
        first_failure("datum-face-closure", (
            (t, contr) for n, t in placed if n >= 3 for i in range(n - 1)
            if (contr := t[:i] + (m.mul(t[i], t[i + 1]),) + t[i + 2:]) not in a.level(n - 1))),
        first_failure("datum-level-lengths", ((n, t) for n, t in stored if len(t) != n)),
    ]


def validate_partial_group(m: PartialUnitalMagma, a: AssociativityDatum, inv):
    """Chermak's partial-group conditions (1)-(5) on (m, a); list of Check rows.

    The words are the empty word, the one-letter words and the stored
    tuples, with the carrier of m, so (1) and (3) hold by construction.  (2)
    is the datum's split closure, and (4), contracting a subword to its
    product, is its face closure with full associability; contracting the
    empty subword inserts the unit, the unit-insertion row.  So the rows are
    validate_datum's, then inversion: inv, of length m.size, must be an
    involution on the carrier, and (5) asks that each word w, one-letter and
    stored words in sorted order, double to a stored word w + inv(reversed w)
    with product the unit.  Doubling doubles the length, so (5) is checked
    for words of at most half the top arity, the bound in the row's name;
    its witness is the first failing word.
    """
    if len(inv) != m.size:
        raise InputError(f"inversion has {len(inv)} entries for {m.size} elements")
    top = a.max_arity
    # an id off the carrier, or with its inverse off it, doubles to a word
    # holding None, stored nowhere, so left_product reads only carrier ids
    inv_of = {x: y for x, y in enumerate(inv) if 0 <= y < m.size}
    words = sorted(w for n in range(1, top // 2 + 1)
                   for w in ([(x,) for x in m.elements()] if n == 1 else a.level(n)))
    return validate_datum(m, a) + [
        first_failure("inversion-is-involution", (
            x for x in m.elements() if not (0 <= inv[x] < m.size and inv[inv[x]] == x))),
        first_failure(f"partial-group-cond5-inversion(len<={top // 2})", (
            w for w in words if (d := w + tuple(inv_of.get(x) for x in reversed(w)))
            not in a.level(len(d)) or left_product(m, d) != 0)),
    ]


# ---------------------------------------------------------------------------
# inverses


def inverses(m: PartialUnitalMagma, x: int):
    """Left/right/two-sided inverse sets of x, by table scan."""
    if not 0 <= x < m.size:
        raise InputError(f"element {x} out of range")
    left = {n for n, row in enumerate(m.rows) if row[x] == 0}
    right = {n for n, c in enumerate(m.rows[x]) if c == 0}
    return {"left": left, "right": right, "two_sided": left & right}


def is_inverseless(m: PartialUnitalMagma) -> bool:
    """True iff only the unit has any one-sided inverse: no product but the
    unit's with itself is the unit."""
    return all(c != 0 or pair == (0, 0) for pair, c in m.product.items())


def is_weakly_associative_partial_group(m: PartialUnitalMagma, up_to: int):
    """Weak partial monoid, all inverses, and doubled tuples fully associable.

    Fully associable tuples are enumerated to arity up_to; their doublings
    (g_1..g_n, g_n^-1..g_1^-1) are checked up to arity 2*up_to.  Returns
    (bool, witness).
    """
    if up_to < 2:
        raise InputError("up_to must be >= 2")
    cls, wit = classify(m)
    if cls == MAGMA:
        return False, ("not-weakly-associative", wit)
    return inverse_conditions(m, up_to)


def inverse_conditions(m: PartialUnitalMagma, up_to: int):
    """The rest of is_weakly_associative_partial_group, for a magma already
    classified as a weak partial monoid or stronger: every element has a
    two-sided inverse, and every doubled tuple is fully associable.  Returns
    (bool, witness).  The fully associable tuples are grown one arity at a
    time, up to the first arity whose doubled tuples fail; those of each
    arity n are one batch of fully_associable_mask, and the witness is the
    least tuple of the first arity n whose doubling fails.
    """
    if up_to < 2:
        raise InputError("up_to must be >= 2")
    inv = []
    for x in m.elements():
        two = inverses(m, x)["two_sided"]
        if not two:
            return False, ("missing-inverse", x)
        inv.append(min(two))
    inv = np.array(inv, dtype=np.intp)
    for _, tuples in _fully_associable_levels(m, up_to):
        ok = fully_associable_mask(m, np.concatenate([tuples, inv[tuples[:, ::-1]]], axis=1))
        if not ok.all():
            return False, ("doubled-tuple-fails", tuple(tuples[ok.argmin()].tolist()))
    return True, None


# ---------------------------------------------------------------------------
# effect algebras


@dataclass(frozen=True)
class FiniteEffectAlgebra:
    """Additively written magma (unit 0) with a total orthocomplement table."""

    magma: PartialUnitalMagma
    orthocomplement: tuple  # orthocomplement[a] = a-perp

    @property
    def size(self) -> int:
        return self.magma.size

    @property
    def top(self) -> int:
        return self.orthocomplement[0]

    def to_json_dict(self):
        d = self.magma.to_json_dict()
        d["orthocomplement"] = list(self.orthocomplement)
        return d

    @staticmethod
    def from_json_dict(d) -> "FiniteEffectAlgebra":
        magma = PartialUnitalMagma.from_json_dict(d)
        try:
            perp = tuple(json_ints(d["orthocomplement"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad effect algebra json: {exc}") from exc
        return FiniteEffectAlgebra(magma, perp)


_ORDER_CHECK_LIMIT = 4


def multiset_multiplicable(e: FiniteEffectAlgebra, values) -> bool:
    """Multiplicability of an unordered collection of values.

    Uses the recursive criterion, a defined left fold, on the sorted
    ordering.  The order-free claim is asserted rather than assumed: for
    collections of size <= 4 all orderings are tried and any disagreement
    raises StructureError (it means the input is not actually an effect
    algebra).
    """
    vals = tuple(sorted(values))
    ok = left_product(e.magma, vals) is not None
    if len(vals) <= _ORDER_CHECK_LIMIT:
        for perm in itertools.permutations(vals):
            if (left_product(e.magma, perm) is not None) != ok:
                raise StructureError(
                    f"ordering-dependent multiplicability on {vals}: not an effect algebra")
    return ok


def validate_effect_algebra(e: FiniteEffectAlgebra):
    """Axiom battery; each failure carries a witness.  A magma or an
    orthocomplement that is not a table on the carrier raises InputError."""
    m = e.magma
    m.validate()
    rows = m.rows
    perp = e.orthocomplement
    if len(perp) != m.size:
        raise InputError("orthocomplement table has wrong length")
    if any(not 0 <= p < m.size for p in perp):
        raise InputError(f"orthocomplement values must lie in 0..{m.size - 1}")
    one = e.top
    cls, cls_wit = classify(m)
    return [
        first_failure("orthocomplement-involution", (
            a for a in m.elements() if perp[perp[a]] != a)),
        first_failure("commutativity", (
            (a, b) for (a, b), c in sorted(m.product.items()) if rows[b][a] != c)),
        first_failure("orthocomplement-existence-uniqueness", (
            (a, partners) for a, row in enumerate(rows)
            if (partners := [b for b, c in enumerate(row) if c == one]) != [perp[a]])),
        first_failure("zero-in-one", (a for a in m.elements() if (a, one) in m.product and a != 0)),
        Check("associativity-partial-monoid", cls == PARTIAL_MONOID, cls_wit),
    ]


def interval_effect_algebra(n: int) -> FiniteEffectAlgebra:
    """L_n = {0..n} with a+b defined iff a+b <= n and perp(a) = n-a."""
    if n < 1:
        raise InputError("need n >= 1")
    product = {(a, b): a + b for a in range(n + 1) for b in range(n + 1) if a + b <= n}
    return FiniteEffectAlgebra(PartialUnitalMagma(n + 1, product), tuple(n - a for a in range(n + 1)))


def boolean_effect_algebra(atoms: int) -> FiniteEffectAlgebra:
    """Subsets of an atom set as bitmasks; sum of disjoint elements; complement."""
    if atoms < 1:
        raise InputError("need atoms >= 1")
    size = 1 << atoms
    full = size - 1
    product = {(a, b): a | b for a in range(size) for b in range(size) if a & b == 0}
    return FiniteEffectAlgebra(PartialUnitalMagma(size, product), tuple(full ^ a for a in range(size)))
