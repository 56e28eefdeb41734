"""Constructions between algebra and geometry.

Nerve of a magma with associativity data, reconstruction of the magma from a
spiny reduced simplicial set, commutative (d-torsion) nerves of groups,
action partial groups, the effect-algebra functor applied to a simplicial
set, and the simplicial circle.

Nerve levels are labelled by the underlying tuples: level 1 ids equal the
carrier ids and level n >= 2 is sorted lexicographically, which makes nerves
spine-canonical on the nose.  Every nerve, of a magma, a commutative nerve or
an action partial group, is given as id columns and built from them by one
builder, _column_nerve; each level of its labels is built from the columns
on first read.  The nerve of a magma at its maximal datum reads its columns
off the interval DP that grows the fully associable tuples, and one at a
datum handed in reads them off the sorted datum levels once the datum is
validated; the others are grown one element at a time.
"""

from __future__ import annotations

__all__ = ["FiniteGroup", "group_from_table", "cyclic_group", "quaternion_group",
           "dihedral_group", "symmetric_group", "magma_of_group", "torsion_carrier",
           "commuting_magma", "nerve",
           "magma_from_sset", "comm_nerve", "translation_action", "action_partial_group",
           "effect_functor", "simplicial_circle", "effect_circle_iso"]

import itertools
from collections.abc import Mapping
from dataclasses import dataclass
from operator import add, not_, sub

from . import palg
from .palg import (AssociativityDatum, FiniteEffectAlgebra, PartialUnitalMagma, left_product,
                   multiset_multiplicable)
from .sset import (TruncatedSSet, face_pair_extend, face_pair_index, from_levels, is_reduced,
                   spiny_face_pairs)
from .util import InputError, StructureError, json_int, json_ints


# ---------------------------------------------------------------------------
# finite groups


@dataclass(frozen=True)
class FiniteGroup:
    """Total multiplication table on 0..order-1 with unit 0."""

    order: int
    mul: tuple  # mul[a][b]

    def validate(self):
        """Shape, unit and permutation rows, then associativity by
        palg.classify, whose witness on a total table is the lex-least bad triple."""
        n = self.order
        if n < 1:
            raise InputError(f"group order must be at least 1, got {n}")
        if len(self.mul) != n or any(len(r) != n for r in self.mul):
            raise InputError("multiplication table must be order x order")
        for a in range(n):
            if self.mul[0][a] != a or self.mul[a][0] != a:
                raise InputError("element 0 must be the unit")
            if sorted(self.mul[a]) != list(range(n)):
                raise InputError(f"row {a} is not a permutation")
        cls, wit = palg.classify(magma_of_group(self))
        if cls != palg.PARTIAL_MONOID:
            raise InputError(f"associativity fails at {wit}")

    def inv(self, a: int) -> int:
        return self.mul[a].index(0)

    def commute(self, a: int, b: int) -> bool:
        return self.mul[a][b] == self.mul[b][a]

    def power(self, a: int, k: int) -> int:
        acc = 0
        for _ in range(k):
            acc = self.mul[acc][a]
        return acc

    def center(self):
        return [z for z in range(self.order)
                if all(self.commute(z, g) for g in range(self.order))]

    def to_json_dict(self):
        return {"order": self.order, "mul": [list(r) for r in self.mul]}

    @staticmethod
    def from_json_dict(d) -> "FiniteGroup":
        try:
            g = FiniteGroup(json_int(d["order"]),
                            tuple(tuple(json_ints(r)) for r in d["mul"]))
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad group json: {exc}") from exc
        g.validate()
        return g


def group_from_table(elements, mul):
    """Build a FiniteGroup from abstract elements and a multiplication map,
    relabeling so the identity is 0."""
    elems = list(elements)
    unit = next(e for e in elems if all(mul(e, x) == x == mul(x, e) for x in elems))
    elems.remove(unit)
    elems.insert(0, unit)
    idx = {e: i for i, e in enumerate(elems)}
    table = tuple(tuple(idx[mul(a, b)] for b in elems) for a in elems)
    g = FiniteGroup(len(elems), table)
    g.validate()
    return g, elems


def cyclic_group(n: int) -> FiniteGroup:
    return FiniteGroup(n, tuple(tuple((a + b) % n for b in range(n)) for a in range(n)))


def quaternion_group() -> FiniteGroup:
    """Q8 with element order 1, -1, i, -i, j, -j, k, -k, as integer unit
    quaternions (a, b, c, d) = a + bi + cj + dk under the Hamilton product."""
    elems = [tuple(sign * (axis == v) for v in range(4)) for axis in range(4) for sign in (1, -1)]

    def mul(x, y):
        a1, b1, c1, d1 = x
        a2, b2, c2, d2 = y
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2, a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2, a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    g, _ = group_from_table(elems, mul)
    return g


def dihedral_group(n: int) -> FiniteGroup:
    """D_n of order 2n: (rotation r, flip f) with f*r*f = r^-1."""
    elems = [(r, f) for f in (0, 1) for r in range(n)]

    def mul(x, y):
        r1, f1 = x
        r2, f2 = y
        return ((r1 + (r2 if f1 == 0 else -r2)) % n, f1 ^ f2)

    g, _ = group_from_table(elems, mul)
    return g


def symmetric_group(n: int) -> FiniteGroup:
    def mul(p, q):  # (p*q)(x) = p(q(x))
        return tuple(p[q[x]] for x in range(n))

    # ids are lexicographic ranks: the order permutations emits, identity first
    g, _ = group_from_table(itertools.permutations(range(n)), mul)
    return g


def magma_of_group(g: FiniteGroup) -> PartialUnitalMagma:
    product = {(a, b): g.mul[a][b] for a in range(g.order) for b in range(g.order)}
    return PartialUnitalMagma(g.order, product)


def torsion_carrier(g: FiniteGroup, torsion):
    """The elements with g^torsion = 1 in id order; all of g when torsion is None."""
    if torsion is None:
        return list(range(g.order))
    if torsion < 2:
        raise InputError("torsion must be >= 2")
    return [a for a in range(g.order) if g.power(a, torsion) == 0]


def commuting_magma(g: FiniteGroup, torsion=None) -> PartialUnitalMagma:
    """Carrier = (d-torsion) elements, product defined exactly on commuting pairs.

    The carrier keeps the group's ids when no torsion filter is applied;
    otherwise it is relabeled densely with 0 first.
    """
    carrier = torsion_carrier(g, torsion)
    idx = {a: i for i, a in enumerate(carrier)}
    product = {}
    for a in carrier:
        for b in carrier:
            if g.commute(a, b):
                c = g.mul[a][b]
                if c in idx:
                    product[(idx[a], idx[b])] = idx[c]
                else:
                    raise StructureError("torsion carrier not closed under commuting products")
    return PartialUnitalMagma(len(carrier), product)


# ---------------------------------------------------------------------------
# nerve and reconstruction


def _column_nerve(columns, mul) -> TruncatedSSet:
    """The sub-simplicial set of a nerve given by its levels as id columns.

    columns[n - 1] = (parent, last) for n = 1..K: the level-n simplex i is
    the tuple of simplex parent[i] at level n - 1 followed by the element
    last[i], and level 0 is the empty tuple; a parent of -1 is one not
    listed.  Each level must be sorted lexicographically, as every caller's
    is: parent ids nondecreasing, and each parent's block of children
    strictly increasing in last.  Levels must be closed under the faces and
    degeneracies, or StructureError is raised.  The labels are _GrownLabels,
    each level built when first read.

    Writing t = p + (b,) with parent p, d_n t is p, d_{n-1} t is
    parent(p) + (p[-1] * b,), and d_i t (i < n-1) is d_i p + (b,), the id
    child[n - 1][p * order + b] (-1 if not listed); level K has no child
    table.  Degeneracies are read off block starts: s_n t = t + (0,) is t's
    first child, 0 being least, and s_i t = s_i p + (b,) (i < n) is
    s_n s_i p + (t - s_{n-1} p), as on closed levels the blocks of p and
    s_i p list the same last elements (d_i (s_i p + (b,)) is p + (b,)).
    Each target's (parent, last) is checked, so a level not closed under
    s_i raises StructureError, never a wrong table.
    """
    K, order = len(columns), len(mul)
    parent = [None] + [p for p, _ in columns]
    last = [None] + [b for _, b in columns]
    counts = [1] + [len(p) for p in parent[1:]]
    child = [None]
    for n in range(1, K + 1):
        if -1 in parent[n]:
            raise StructureError(f"levels are not closed under d_{n} at level {n}")
        if n < K:
            table = [-1] * (counts[n - 1] * order)
            for i, (p, b) in enumerate(zip(parent[n], last[n])):
                table[p * order + b] = i
            child.append(table)

    def lift(n, i, heads, tails, up):
        """d_i of the level-n simplices, as the ids of head + (tail,)."""
        try:
            tab = [up[h * order + b] for h, b in zip(heads, tails)]
        except TypeError:  # a tail is an undefined product
            tab = [-1]
        if -1 in tab:
            raise StructureError(f"levels are not closed under d_{i} at level {n}")
        return tab

    def checked(n, i, tab, heads, tails):
        """s_i of the level-n simplices read as tab, checked to be the ids
        of head + (tail,)."""
        above, ends = parent[n + 1], last[n + 1]
        try:
            ok = [above[j] for j in tab] == heads and [ends[j] for j in tab] == tails
        except IndexError:  # a read past the last block
            ok = False
        if not ok:
            raise StructureError(f"levels are not closed under s_{i} at level {n}")
        return tab

    def of_parent(index, n):
        return map(index.__getitem__, parent[n])

    face, deg = {(1, 0): [0] * counts[1], (1, 1): parent[1]}, {}
    for n in range(2, K + 1):
        for i in range(n - 1):
            face[(n, i)] = lift(n, i, of_parent(face[(n - 1, i)], n), last[n], child[n - 1])
        products = [mul[a][b] for a, b in zip(of_parent(last[n - 1], n), last[n])]
        face[(n, n - 1)] = lift(n, n - 1, of_parent(parent[n - 1], n), products, child[n - 1])
        face[(n, n)] = parent[n]
    for n in range(K):
        # the simplices ending in 0, one first child per level-n simplex if closed
        first = list(itertools.compress(range(counts[n + 1]), map(not_, last[n + 1])))
        checked(n, n, first, list(range(counts[n])), [0] * counts[n])
        for i in range(n):
            shift = list(map(sub, map(first.__getitem__, deg[(n - 1, i)]), deg[(n - 1, n - 1)]))
            deg[(n, i)] = checked(n, i, list(map(add, range(counts[n]), of_parent(shift, n))),
                                  list(of_parent(deg[(n - 1, i)], n)), last[n])
        deg[(n, n)] = first

    return TruncatedSSet(K, counts, face, deg, _GrownLabels(parent, last))


class _GrownLabels(Mapping):
    """The labels of a grown nerve, as nerve labels its levels: "*", the bare
    elements, then tuples; reading level n builds levels 2..n, once."""

    def __init__(self, parent, last):
        self.parent, self.last, self.built = parent, last, [["*"], list(last[1])]

    def __getitem__(self, n):
        if n not in range(len(self.parent)):
            raise KeyError(n)
        for k in range(len(self.built), n + 1):
            below = self.built[k - 1] if k > 2 else [(b,) for b in self.last[1]]
            self.built.append([below[p] + (b,) for p, b in zip(self.parent[k], self.last[k])])
        return self.built[n]

    def __iter__(self):
        return iter(range(len(self.parent)))

    def __len__(self):
        return len(self.parent)


def nerve(m: PartialUnitalMagma, K: int, a: AssociativityDatum | None = None) -> TruncatedSSet:
    """Nerve of a magma with associativity data: X_n = A_n for n >= 2.

    Inner faces multiply an adjacent pair, outer faces drop an end,
    degeneracies insert the unit.  Level n is A_n in lexicographic order,
    and the parent of a tuple is its prefix, in level n - 1 by split closure.
    Without a datum, A is the maximal datum, and its levels and parent ids
    are those palg's interval DP grows; it is not validated, as it is closed
    under splits, faces and unit insertion by construction, and
    _column_nerve raises StructureError on any level that is not closed
    under the faces and degeneracies.  A datum a handed in, such as one
    magma_from_sset reads back, must be stored to arity K and pass
    validate_datum, or InputError is raised.
    """
    if K < 2:
        raise InputError("nerve needs K >= 2")
    if a is None:
        return _column_nerve([(parent.tolist(), level[:, -1].tolist())
                              for parent, level in palg._fully_associable_levels(m, K)], m.rows)
    if a.max_arity < K:
        raise InputError(f"datum only reaches arity {a.max_arity} < K = {K}")
    bad = [c for c in palg.validate_datum(m, a) if not c.ok]
    if bad:
        raise InputError(f"invalid datum: {bad[0].name} witness {bad[0].witness}")

    columns, ids = [], {(): 0}
    for n in range(1, K + 1):
        level = [(x,) for x in m.elements()] if n == 1 else sorted(a.level(n))
        columns.append(([ids.get(t[:-1], -1) for t in level], [t[-1] for t in level]))
        ids = {t: i for i, t in enumerate(level)}
    return _column_nerve(columns, m.rows)


def magma_from_sset(x: TruncatedSSet):
    """Recover (magma, datum) from a spiny reduced simplicial set.

    Carrier = X_1 relabeled so the degenerate edge is 0; the product of
    (a, b) is d_1 of the 2-simplex with faces (d_2, d_0) = (a, b); the datum
    level n is the image of the 1-Segal embedding: the spine of s is that of
    d_n s and the last edge of d_0 s where spiny_face_pairs holds.
    """
    indexes = spiny_face_pairs(x)
    if not is_reduced(x):
        raise InputError("input is not reduced")
    unit_edge = x.deg[(0, 0)][0]
    relabel = list(range(x.counts[1]))  # a transposition, so its own inverse
    relabel[0], relabel[unit_edge] = unit_edge, 0
    d1 = x.face[(2, 1)]
    magma = PartialUnitalMagma(x.counts[1], {(relabel[a], relabel[b]): relabel[d1[s]]
                                             for (a, b), s in indexes[2].items()})
    magma.validate()
    tuples, levels = [(a,) for a in relabel], {}
    for n in range(2, x.K + 1):
        tuples = [tuples[a] + tuples[b][-1:] for a, b in indexes[n]]
        levels[n] = frozenset(tuples)
    return magma, AssociativityDatum(levels)


# ---------------------------------------------------------------------------
# commutative nerves and action partial groups


def _grow_levels(K, elements, start, step):
    """The (parent ids, last elements) columns of levels 1..K of tuples
    grown one element at a time, as _column_nerve reads them.

    Every tuple carries a state: the empty tuple has start, and t + (b,) has
    step(state of t, b), or is dropped when that is None.  Elements listed
    in increasing order give lexicographically sorted levels.
    """
    if K < 2:
        raise InputError("nerve needs K >= 2")
    columns, states, rows = [], [start], {}
    for n in range(K, 0, -1):
        parent, last, nxt = [], [], []
        for p, state in enumerate(states):
            row = rows.get(state)
            if row is None:  # a state seen before reuses its row
                grown = [(b, new) for b in elements if (new := step(state, b)) is not None]
                row = rows[state] = ([b for b, _ in grown], [new for _, new in grown])
            parent.extend(itertools.repeat(p, len(row[0])))
            last += row[0]
            if n > 1:  # the top level's states are never read
                nxt += row[1]
        columns.append((parent, last))
        states = nxt
    return columns


def comm_nerve(g: FiniteGroup, torsion=None, K: int = 4) -> TruncatedSSet:
    """Commutative nerve: level n is the pairwise commuting n-tuples (with
    g_i^d = 1 when a torsion d is given), inside the group nerve.

    Labels keep the original group element ids, so cyclic structures can be
    put on the result directly.
    """
    carrier = torsion_carrier(g, torsion)
    # a tuple's state is the bitmask of carrier elements commuting with all of it
    commuting = [sum(1 << b for b in carrier if g.commute(a, b)) for a in range(g.order)]

    def step(mask, b):
        return mask & commuting[b] if mask >> b & 1 else None

    return _column_nerve(_grow_levels(K, carrier, commuting[0], step), g.mul)


def _validate_action(g: FiniteGroup, z_size: int, action):
    """action[a][y] composing left-to-right: y.(ab) = (y.a).b."""
    if len(action) != g.order or any(len(r) != z_size for r in action):
        raise InputError("action table must be order x z_size")
    if any(not 0 <= v < z_size for row in action for v in row):
        raise InputError(f"action table values must lie in 0..{z_size - 1}")
    for y in range(z_size):
        if action[0][y] != y:
            raise InputError("unit must act trivially")
    for a in range(g.order):
        for b in range(g.order):
            ab = g.mul[a][b]
            for y in range(z_size):
                if action[b][action[a][y]] != action[ab][y]:
                    raise InputError(f"action law fails at {(a, b, y)}")


def translation_action(g: FiniteGroup):
    """g acting on itself by right translation."""
    return [[g.mul[y][a] for y in range(g.order)] for a in range(g.order)]


def action_partial_group(g: FiniteGroup, z_size: int, action, y_subset, K: int = 4) -> TruncatedSSet:
    """Tuples admitting a chain y_0 -> ... -> y_n inside the chosen subset.

    Level n is {(g_1..g_n) | exists y_i in Y, y_i = y_{i-1}.g_i}; faces and
    degeneracies are those of the group nerve.
    """
    _validate_action(g, z_size, action)
    yset = sorted(set(y_subset))
    if not yset:
        raise InputError("Y must not be empty")
    if any(not 0 <= y < z_size for y in yset):
        raise InputError("Y must be a subset of the acted-on set")
    # a tuple's state is the bitmask of the chain ends y_n it admits
    ymask = sum(1 << y for y in yset)

    def step(live, a):
        ends = 0
        for y in yset:
            if live >> y & 1:
                ends |= 1 << action[a][y]
        return ends & ymask or None

    return _column_nerve(_grow_levels(K, range(g.order), ymask, step), g.mul)


# ---------------------------------------------------------------------------
# the effect functor and the simplicial circle


def effect_functor(e: FiniteEffectAlgebra, x: TruncatedSSet) -> TruncatedSSet:
    """E(X): level n is the E-valued functions on X_n with multiplicable
    values summing to the top element; structure maps sum over fibres."""
    rows, levels = e.magma.rows, []
    for n in range(x.K + 1):
        # (values so far, their sum), grown one simplex at a time in
        # lexicographic order; prefixes without a sum are dropped
        grown = [((), 0)]
        for _ in range(x.counts[n]):
            grown = [(vals + (v,), acc) for vals, total in grown
                     for v, acc in enumerate(rows[total]) if acc is not None]
        level = [vals for vals, total in grown if total == e.top]
        if not all(multiset_multiplicable(e, vals) for vals in level):
            raise StructureError("prefix-summable but not multiplicable")
        levels.append(level)

    def push(mapping, size, t):
        out = [[] for _ in range(size)]
        for src, v in enumerate(t):
            out[mapping[src]].append(v)
        summed = tuple(left_product(e.magma, vs) for vs in out)
        if any(v is None for v in summed):
            raise StructureError("fibre sum undefined; input is not an effect algebra")
        return summed

    return from_levels(levels,
                       lambda n, i, t: push(x.face[(n, i)], x.counts[n - 1], t),
                       lambda n, i, t: push(x.deg[(n, i)], x.counts[n + 1], t))


def simplicial_circle(K: int) -> TruncatedSSet:
    """S^1 with level n = {star, theta^1..theta^n}; id 0 is the basepoint."""
    if K < 2:
        raise InputError("simplicial circle needs K >= 2")

    def d(n, j, i):
        # face d_j of theta^i at level n, where theta^0 is the basepoint
        if j < i and 1 < i:
            return i - 1
        if i <= j and i < n:
            return i
        return 0

    def s(n, j, i):
        return i + 1 if j < i else i

    return from_levels([list(range(n + 1)) for n in range(K + 1)], d, s,
                       {n: ["*"] + [f"theta^{i}" for i in range(1, n + 1)] for n in range(K + 1)})


def effect_circle_iso(e: FiniteEffectAlgebra, K: int):
    """The explicit levelwise bijection E(S^1) -> N(e) sending a function to
    its (theta^1..theta^n) readout, which fixes levels n >= 2 by
    face_pair_extend.  Returns (E(S^1), N(e), maps)."""
    ex = effect_functor(e, simplicial_circle(K))
    ne = nerve(e.magma, K)
    maps = {0: [0], 1: [t[1] for t in ex.labels[1]]}  # t[1] is the value on theta^1
    for n in range(2, K + 1):
        maps[n], _ = face_pair_extend(ex, n, maps[n - 1], face_pair_index(ne, n)[0])
    return ex, ne, maps
