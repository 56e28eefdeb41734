"""Finite partial algebraic structures.

Carriers are dense integer ids 0..k-1 with 0 reserved for the unit.  The
partial product is a sparse table {(a, b): c}; definedness is membership,
never a sentinel value.  On top of the bare unital magma this module
implements bracketings, multiplicability and full associability,
associativity data, the word-domain (PAS) presentation and its partial-group
variant, inverses, and finite effect algebras.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .util import Check, InputError, StructureError, first_failure

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

    @property
    def unit(self) -> int:
        return 0

    def elements(self):
        return range(self.size)

    def defined(self, a: int, b: int) -> bool:
        return (a, b) in self.product

    def mul(self, a: int, b: int):
        """Product of a and b, or None when the pair is not multiplicable."""
        return self.product.get((a, b))

    def validate(self):
        """Check the unit law and table well-formedness; raise InputError."""
        for (a, b), c in self.product.items():
            if not (0 <= a < self.size and 0 <= b < self.size and 0 <= c < self.size):
                raise InputError(f"product entry {(a, b, c)} out of range")
        for m in self.elements():
            if self.product.get((0, m)) != m or self.product.get((m, 0)) != m:
                raise InputError(f"unit law fails at element {m}")

    def to_json_dict(self):
        rows = sorted([a, b, c] for (a, b), c in self.product.items())
        return {"size": self.size, "unit": 0, "products": rows}

    @staticmethod
    def from_json_dict(d) -> "PartialUnitalMagma":
        try:
            size = int(d["size"])
            if int(d.get("unit", 0)) != 0:
                raise InputError("magma unit must be element 0")
            product = {}
            for a, b, c in d["products"]:
                a, b, c = int(a), int(b), int(c)
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


def _interval_tables(m: PartialUnitalMagma, tup):
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


def is_multiplicable(m: PartialUnitalMagma, tup) -> bool:
    """True iff every binary bracketing of the tuple is defined."""
    if len(tup) == 0:
        raise InputError("empty tuple")
    if len(tup) == 1:
        return True
    _, ok = _interval_tables(m, tup)
    return ok[(0, len(tup) - 1)]


def is_fully_associable(m: PartialUnitalMagma, tup) -> bool:
    """Every contiguous subtuple is associable (paper-level notion behind
    associativity data and nerve levels)."""
    if len(tup) == 1:
        return True
    vals, ok = _interval_tables(m, tup)
    for i in range(len(tup)):
        for j in range(i + 1, len(tup)):
            if not ok[(i, j)] or len(vals[(i, j)]) != 1:
                return False
    return True


def left_product(m: PartialUnitalMagma, values):
    """The left fold ((v_1 v_2) ..) v_n, started from the unit, so () gives
    the unit; None when some partial product is undefined.  On a fully
    associable tuple it is the common value of every bracketing."""
    acc = 0
    for v in values:
        acc = m.product.get((acc, v))
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
    prod = m.product
    segal_wit = None
    rng = range(m.size)
    for a in rng:
        for b in rng:
            ab = prod.get((a, b))
            for c in rng:
                bc = prod.get((b, c))
                left = None if ab is None else prod.get((ab, c))
                right = None if bc is None else prod.get((a, bc))
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

    def to_json_dict(self):
        return {
            "levels": {
                str(n): sorted(list(t) for t in tuples)
                for n, tuples in sorted(self.levels.items())
            }
        }

    @staticmethod
    def from_json_dict(d) -> "AssociativityDatum":
        try:
            levels = {
                int(n): frozenset(tuple(int(x) for x in t) for t in tuples)
                for n, tuples in d["levels"].items()
            }
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad datum json: {exc}") from exc
        return AssociativityDatum(levels)


def max_associativity_datum(m: PartialUnitalMagma, up_to: int) -> AssociativityDatum:
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
    return AssociativityDatum(levels)


def validate_datum(m: PartialUnitalMagma, a: AssociativityDatum):
    """Datum conditions against m; list of Check rows.

    Conditions: A_2 equals the product domain, closure under outer splits,
    closure under unit insertion (within the stored arity bound), and full
    associability of every stored tuple.  Face closure (contraction of an
    adjacent pair to its product) is what PAS condition (4) and the nerve
    need; it is extra to the printed conditions and has its own row.
    """
    dom = frozenset(m.product)
    top = a.max_arity
    stored = [(n, t) for n in sorted(a.levels) for t in sorted(a.levels[n])]
    return [
        first_failure("datum-cond1-a2-is-domain", sorted(dom ^ a.level(2))),
        first_failure("datum-cond2-split-closure", (
            (t, part) for n, t in stored for i in range(1, n) for part in (t[:i], t[i:])
            if len(part) >= 2 and part not in a.level(len(part)))),
        first_failure(f"datum-cond3-unit-insertion(arity<={top})", (
            (t, ins) for n, t in stored if n < top for i in range(n + 1)
            if (ins := t[:i] + (0,) + t[i:]) not in a.level(n + 1))),
        first_failure("datum-fully-associable", (
            t for _, t in stored if not is_fully_associable(m, t))),
        # an undefined product contracts to a word with None, stored nowhere
        first_failure("datum-face-closure", (
            (t, contr) for n, t in stored if n >= 3 for i in range(n - 1)
            if (contr := t[:i] + (m.mul(t[i], t[i + 1]),) + t[i + 2:]) not in a.level(n - 1))),
    ]


# ---------------------------------------------------------------------------
# PAS / word domains


@dataclass(frozen=True)
class PasStructure:
    """Word-domain presentation: D is a finite set of words, pi: D -> carrier."""

    size: int
    domain: frozenset  # of tuples, includes () and all length-1 words
    pi: dict  # word -> element

    @property
    def max_word_length(self) -> int:
        return max((len(w) for w in self.domain), default=0)


def to_pas(m: PartialUnitalMagma, a: AssociativityDatum) -> PasStructure:
    """D = datum words plus the carrier plus the empty word; pi by any bracketing."""
    bad = [c for c in validate_datum(m, a) if not c.ok]
    if bad:
        raise InputError(f"invalid associativity datum: {bad[0].name} witness {bad[0].witness}")
    words = {(): m.unit}
    for x in m.elements():
        words[(x,)] = x
    for n in sorted(a.levels):
        for t in sorted(a.levels[n]):
            words[t] = left_product(m, t)
            if words[t] is None:
                raise StructureError(f"tuple {t} is not left-multiplicable")
    return PasStructure(m.size, frozenset(words), words)


def from_pas(p: PasStructure):
    """Recover (magma, datum) from a word domain; inverse of to_pas on the nose."""
    product = {}
    for w in p.domain:
        if len(w) == 2:
            product[w] = p.pi[w]
    magma = PartialUnitalMagma(p.size, product)
    magma.validate()
    levels = {}
    for w in p.domain:
        if len(w) >= 2:
            levels.setdefault(len(w), set()).add(w)
    datum = AssociativityDatum({n: frozenset(s) for n, s in levels.items()})
    return magma, datum


def validate_pas(p: PasStructure):
    """The four word-domain conditions, checked on the stored finite set."""
    checks = []
    c1 = all((x,) in p.domain for x in range(p.size)) and () in p.domain
    checks.append(Check("pas-cond1-carrier-in-domain", c1))
    c2, w2 = True, None
    for w in p.domain:
        for i in range(1, len(w)):
            if w[:i] not in p.domain or w[i:] not in p.domain:
                c2, w2 = False, w
                break
    checks.append(Check("pas-cond2-split-closure", c2, w2))
    c3 = all(p.pi[(x,)] == x for x in range(p.size) if (x,) in p.domain)
    checks.append(Check("pas-cond3-pi-identity-on-carrier", c3))
    c4, w4 = True, None
    for w in sorted(p.domain):
        if len(w) < 2:
            continue
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                mid = w[i:j]
                if mid not in p.domain:
                    c4, w4 = False, (w, mid)
                    continue
                contr = w[:i] + (p.pi[mid],) + w[j:]
                if contr not in p.domain or p.pi[contr] != p.pi[w]:
                    c4, w4 = False, (w, contr)
        if not c4:
            break
    checks.append(Check("pas-cond4-contraction", c4, w4))
    return checks


def validate_partial_group(p: PasStructure, inv):
    """Chermak conditions (1)-(5): the PAS conditions plus inversion.

    inv is a total involution on the carrier.  Condition (5) doubles word
    lengths, so it is checked for words with 2*len at most the longest
    stored word, and the bound is recorded in the check name.
    """
    checks = list(validate_pas(p))
    maxlen = p.max_word_length
    inv_ok = all(0 <= inv[x] < p.size and inv[inv[x]] == x for x in range(p.size))
    checks.append(Check("inversion-is-involution", inv_ok))
    c5, w5 = True, None
    for w in sorted(p.domain):
        if 2 * len(w) > maxlen or len(w) == 0:
            continue
        doubled = w + tuple(inv[x] for x in reversed(w))
        if doubled not in p.domain or p.pi[doubled] != 0:
            c5, w5 = False, w
            break
    checks.append(Check(f"partial-group-cond5-inversion(len<={maxlen // 2})", c5, w5))
    return checks


# ---------------------------------------------------------------------------
# inverses


def inverses(m: PartialUnitalMagma, x: int):
    """Left/right/two-sided inverse sets of x, by table scan."""
    if not 0 <= x < m.size:
        raise InputError(f"element {x} out of range")
    left = {n for n in m.elements() if m.product.get((n, x)) == 0}
    right = {n for n in m.elements() if m.product.get((x, n)) == 0}
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
    inv = []
    for x in m.elements():
        two = inverses(m, x)["two_sided"]
        if not two:
            return False, ("missing-inverse", x)
        inv.append(min(two))
    datum = max_associativity_datum(m, up_to)
    singles = [(x,) for x in m.elements()]
    for n in range(1, up_to + 1):
        tuples = singles if n == 1 else sorted(datum.level(n))
        for t in tuples:
            doubled = t + tuple(inv[x] for x in reversed(t))
            if not is_fully_associable(m, doubled):
                return False, ("doubled-tuple-fails", t)
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
            perp = tuple(int(x) for x in d["orthocomplement"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad effect algebra json: {exc}") from exc
        if len(perp) != magma.size:
            raise InputError("orthocomplement table has wrong length")
        if any(not 0 <= p < magma.size for p in perp):
            raise InputError(f"orthocomplement values must lie in 0..{magma.size - 1}")
        return FiniteEffectAlgebra(magma, perp)


def multiplicable_recursive(e: FiniteEffectAlgebra, tup) -> bool:
    """Recursive n-multiplicability: prefix multiplicable and (prefix-sum, last) defined."""
    return left_product(e.magma, tup) is not None


_ORDER_CHECK_LIMIT = 4


def multiset_multiplicable(e: FiniteEffectAlgebra, values) -> bool:
    """Multiplicability of an unordered collection of values.

    Uses the recursive criterion on the sorted ordering.  The order-free
    claim is asserted rather than assumed: for collections of size <= 4 all
    orderings are tried and any disagreement raises StructureError (it means
    the input is not actually an effect algebra).
    """
    vals = tuple(sorted(values))
    ok = multiplicable_recursive(e, vals)
    if len(vals) <= _ORDER_CHECK_LIMIT:
        for perm in itertools.permutations(vals):
            if multiplicable_recursive(e, perm) != ok:
                raise StructureError(
                    f"ordering-dependent multiplicability on {vals}: not an effect algebra")
    return ok


def validate_effect_algebra(e: FiniteEffectAlgebra):
    """Axiom battery; each failure carries a witness."""
    m = e.magma
    m.validate()
    perp = e.orthocomplement
    one = e.top
    cls, cls_wit = classify(m)
    return [
        first_failure("orthocomplement-involution", (
            a for a in m.elements() if perp[perp[a]] != a)),
        first_failure("commutativity", (
            (a, b) for (a, b), c in sorted(m.product.items()) if m.product.get((b, a)) != c)),
        first_failure("orthocomplement-existence-uniqueness", (
            (a, partners) for a in m.elements()
            if (partners := [b for b in m.elements() if m.product.get((a, b)) == one])
            != [perp[a]])),
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
