"""Finite truncated simplicial sets and the geometric condition checkers.

Simplices at each level 0..K are dense integer ids; face and degeneracy
tables are plain lists.  Degenerate simplices are stored explicitly, so all
checkers reduce to table lookups.  Universally quantified conditions are
checked up to the truncation bound and reports state that bound.
"""

from __future__ import annotations

__all__ = ["TruncatedSSet", "from_levels", "composite", "differences", "validate", "subface",
           "spine", "face_pair_index", "face_pair_extend", "spiny_face_pairs", "is_reduced",
           "is_spiny", "is_inverseless_sset", "Triangulation", "triangulations", "subface_tables",
           "membrane_counts", "segal", "boundary_membranes", "is_coskeletal_2", "cosk2_extend",
           "truncate", "canonicalize_spiny", "standard_simplex", "from_nondegenerate"]

import itertools
import operator
from collections import Counter
from dataclasses import dataclass

from .palg import LEAF, bracketings
from .util import InputError, StructureError, first_collision, first_failure, json_int, json_ints

class TruncatedSSet:
    """Level-by-level simplicial set, truncated at level K >= 2.

    face[(n, i)] : X_n -> X_{n-1} for 1 <= n <= K, 0 <= i <= n
    deg[(n, i)]  : X_n -> X_{n+1} for 0 <= n < K, 0 <= i <= n
    and no other keys (check_shape rejects any outside the truncation).
    labels is optional per-level metadata for readable witnesses, a mapping
    from level to list; it is ignored by equality and serialization.  The
    tables are kept as given, not copied, and to_json_dict hands them out
    the same way.
    """

    def __init__(self, K, counts, face, deg, labels=None):
        self.K = K
        self.counts = list(counts)
        self.face = dict(face)
        self.deg = dict(deg)
        self.labels = labels or {}

    def simplices(self, n):
        return range(self.counts[n])

    def label(self, n, s):
        lab = self.labels.get(n)
        return lab[s] if lab is not None else s

    # -- structural shape ---------------------------------------------------

    def check_shape(self):
        if self.K < 2 or len(self.counts) != self.K + 1:
            raise InputError("counts must list levels 0..K with K >= 2")
        # faces map level n down, degeneracies up; exactly these keys may occur
        for kind, tables, levels, step in (("face", self.face, range(1, self.K + 1), -1),
                                           ("degeneracy", self.deg, range(self.K), 1)):
            keys = [(n, i) for n in levels for i in range(n + 1)]
            extra = sorted(set(tables) - set(keys))
            if extra:
                raise InputError(f"{kind} table {extra[0]} outside truncation {self.K}")
            for n, i in keys:
                tab = tables.get((n, i))
                if tab is None or len(tab) != self.counts[n]:
                    raise InputError(f"missing or missized {kind} table {(n, i)}")
                if tab and not (0 <= min(tab) and max(tab) < self.counts[n + step]):
                    raise InputError(f"{kind} table {(n, i)} value out of range")

    def to_json_dict(self):
        return {
            "truncation": self.K,
            "counts": list(self.counts),
            "faces": {f"{n},{i}": v for (n, i), v in sorted(self.face.items())},
            "degeneracies": {f"{n},{i}": v for (n, i), v in sorted(self.deg.items())},
        }

    @staticmethod
    def from_json_dict(d) -> "TruncatedSSet":
        try:
            K, counts = json_int(d["truncation"]), json_ints(d["counts"])
            face, deg = {}, {}
            for field, tables in (("faces", face), ("degeneracies", deg)):
                for key, tab in d[field].items():
                    n, i = (int(t) for t in key.split(","))
                    if key != f"{n},{i}":
                        raise InputError(f"{field} key {key!r} is not written as \"n,i\"")
                    tables[(n, i)] = json_ints(tab)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"bad sset json: {exc}") from exc
        x = TruncatedSSet(K, counts, face, deg)
        x.check_shape()
        return x


def from_levels(levels, face_key, deg_key, labels=None) -> TruncatedSSet:
    """The simplicial set whose level-n simplices are the keys levels[n], n = 0..K.

    Ids follow list order.  face_key(n, i, key) and deg_key(n, i, key) give
    the key of d_i and s_i of a level-n simplex; every key they return must
    be listed one level down or up.  Labels default to the levels.
    """
    K = len(levels) - 1
    ids = [{key: i for i, key in enumerate(lev)} for lev in levels]
    face = {(n, i): [ids[n - 1][face_key(n, i, key)] for key in levels[n]]
            for n in range(1, K + 1) for i in range(n + 1)}
    deg = {(n, i): [ids[n + 1][deg_key(n, i, key)] for key in levels[n]]
           for n in range(K) for i in range(n + 1)}
    if labels is None:
        labels = dict(enumerate(levels))
    return TruncatedSSet(K, [len(lev) for lev in levels], face, deg, labels)


def composite(outer, inner):
    """The table of outer after inner: outer[inner[s]] for each s."""
    return list(map(outer.__getitem__, inner))


def differences(lhs, rhs):
    """The positions where the tables lhs and rhs differ, in order; equal
    tables are found equal whole, without a scan."""
    if lhs != rhs:
        yield from (s for s, (a, b) in enumerate(zip(lhs, rhs)) if a != b)


def validate(x: TruncatedSSet):
    """All simplicial identity instances within the truncation.

    Violations are (identity, level, indices, simplex) tuples; empty list
    means the structure is a genuine K-truncated simplicial set.  Each
    instance builds the composite tables of its two sides whole and compares
    them, and scans simplex by simplex only where they differ, so the
    violations come in instance order, then simplex order.
    """
    x.check_shape()
    face, deg = x.face, x.deg
    bad = []

    def compare(name, n, ij, lhs, rhs):
        bad.extend((name, n, ij, s) for s in differences(lhs, rhs))

    for n, ij, lhs, rhs in _face_identities(x, 2):
        compare("d_i d_j = d_{j-1} d_i", n, ij, lhs, rhs)
    for n in range(x.K):
        ids = list(x.simplices(n))
        for j in range(n + 1):
            for i in range(n + 2):
                lhs = composite(face[(n + 1, i)], deg[(n, j)])
                if i == j or i == j + 1:
                    compare("d_i s_j = id", n, (i, j), lhs, ids)
                elif i < j:
                    compare("d_i s_j = s_{j-1} d_i", n, (i, j), lhs,
                            composite(deg[(n - 1, j - 1)], face[(n, i)]))
                else:
                    compare("d_i s_j = s_j d_{i-1}", n, (i, j), lhs,
                            composite(deg[(n - 1, j)], face[(n, i - 1)]))
    for n in range(x.K - 1):
        for i in range(n + 1):
            for j in range(i, n + 1):
                compare("s_i s_j = s_{j+1} s_i", n, (i, j),
                        composite(deg[(n + 1, j + 1)], deg[(n, i)]),
                        composite(deg[(n + 1, i)], deg[(n, j)]))
    return bad


def _face_identities(x: TruncatedSSet, low: int):
    """(n, (i, j), lhs, rhs) for each instance of d_i d_j = d_{j-1} d_i at
    levels n = low..K, i < j: the composite tables of its two sides."""
    face = x.face
    for n in range(low, x.K + 1):
        for j in range(n + 1):
            for i in range(j):
                yield (n, (i, j), composite(face[(n - 1, j - 1)], face[(n, i)]),
                       composite(face[(n - 1, i)], face[(n, j)]))


# ---------------------------------------------------------------------------
# simplex surgery


def subface(x: TruncatedSSet, n: int, s: int, vertices):
    """The face of s spanned by the given vertex subset of [n].

    Removing vertices in descending order leaves the lower indices intact.
    """
    keep = set(vertices)
    cur, level = s, n
    for v in range(n, -1, -1):
        if v not in keep:
            cur = x.face[(level, v)][cur]
            level -= 1
    return cur


def spine(x: TruncatedSSet, n: int, s: int):
    """The edge readout (s restricted to (i, i+1) for each i)."""
    return tuple(subface(x, n, s, (i, i + 1)) for i in range(n))


def face_pair_index(x: TruncatedSSet, n: int):
    """({(d_n s, d_0 s): s} over level n, clash), clash the first pair (s1, s2)
    with one face pair or None; without a clash the keys come in id order.

    The one index of what a spiny set fixes by its edges.  Where the
    simplicial identities hold, spine(s) is spine(d_n s) followed by the last
    edge of d_0 s, and spine(d_0 s) is spine(s) less its first edge.  So on a
    set spiny below level n, clash is is_spiny's witness at level n.
    """
    pairs = list(zip(x.face[(n, n)], x.face[(n, 0)]))
    index = dict(zip(pairs, x.simplices(n)))
    return index, first_collision(pairs) if len(index) < len(pairs) else None


def face_pair_extend(x: TruncatedSSet, n: int, below, index):
    """Level n of the map that below, a map of level n-1 into a spiny target,
    fixes through index, the target's face_pair_index at level n: s goes to
    index[(below[d_n s], below[d_0 s])].  Returns (table, the first s with
    no image, where table holds None, or None)."""
    table = list(map(index.get, zip(composite(below, x.face[(n, n)]),
                                    composite(below, x.face[(n, 0)]))))
    return table, table.index(None) if None in table else None


def spiny_face_pairs(x: TruncatedSSet):
    """{n: face_pair_index(x, n)[0]} for n = 2..K; InputError names the first
    failed simplicial identity, or else is_spiny's collision (n, s1, s2)."""
    bad = validate(x)
    if bad:
        raise InputError("simplicial identity {} fails at level {} {}, simplex {}".format(*bad[0]))
    indexes = {}
    for n in range(2, x.K + 1):
        indexes[n], clash = face_pair_index(x, n)
        if clash is not None:
            raise InputError(f"input is not spiny: collision {(n,) + clash}")
    return indexes


def is_reduced(x: TruncatedSSet) -> bool:
    return x.counts[0] == 1


def is_spiny(x: TruncatedSSet):
    """Injectivity of every 1-Segal map; witness is a colliding pair."""
    for n in range(2, x.K + 1):
        pair = first_collision(spine(x, n, s) for s in x.simplices(n))
        if pair is not None:
            return False, (n,) + pair
    return True, None


def is_inverseless_sset(x: TruncatedSSet):
    """The degenerate-long-edge square is a pullback; witness otherwise."""
    # a degenerate edge s_0 v -> the only 2-simplex allowed over it, s_0 s_0 v
    filler = {e: x.deg[(1, 0)][e] for e in x.deg[(0, 0)]}
    check = first_failure("inverseless", (
        sig for sig in x.simplices(2) if filler.get(x.face[(2, 1)][sig], sig) != sig))
    return check.ok, check.witness


# ---------------------------------------------------------------------------
# polygon triangulations


@dataclass(frozen=True)
class Triangulation:
    """A triangulation of the (n+1)-gon on vertices 0..n, as vertex triples."""

    n: int
    triangles: tuple

    def __post_init__(self):
        if self.n >= 3 and len(self.triangles) != self.n - 1:
            raise InputError("a triangulation of P_{n+1} has n-1 triangles")


def triangulations(n: int):
    """All Catalan(n-1) triangulations of the polygon on vertices 0..n.

    The image of palg.bracketings(n): a node whose leaves are the edges
    (i, i+1) .. (j-1, j), split after leaf k-1, is the triangle (i, k, j).
    n = 2 gives the single full triangle.  Sorted by triangle tuple.
    """
    if n < 2:
        raise InputError("triangulations need n >= 2")

    def walk(node, i):
        # (j, triangles) for the subtree whose leaves start at vertex i
        if node == LEAF:
            return i + 1, []
        k, left = walk(node[0], i)
        j, right = walk(node[1], k)
        return j, left + right + [(i, k, j)]

    return sorted((Triangulation(n, tuple(sorted(walk(tree, 0)[1]))) for tree in bracketings(n)),
                  key=lambda t: t.triangles)


# ---------------------------------------------------------------------------
# membranes


def subface_tables(x: TruncatedSSet, n: int):
    """Vertex subset c of [n] (a sorted tuple of at least two vertices) ->
    the list of subface(x, n, s, c) over every n-simplex s.

    Each table composes one face table onto the table of its parent c + {m},
    m the smallest vertex missing from c.  subface removes missing vertices
    in descending order, so m is the one it removes last.
    """
    full = tuple(range(n + 1))
    tables = {full: list(x.simplices(n))}
    for r in range(n, 1, -1):
        for c in itertools.combinations(full, r):
            m = next(v for v in full if v not in c)
            face = x.face[(r, m)]
            tables[c] = [face[t] for t in tables[tuple(sorted(c + (m,)))]]
    return tables


def _membrane_join(x: TruncatedSSet, n: int, tri: Triangulation, edge, mid):
    """Interval DP over the dual tree of tri, the one membrane algorithm.

    The map of the sub-polygon (i, j) sends (long edge on (i, j), label) to a
    count of membranes of tri restricted to (i, j).  Edges (i, i+1) map
    through edge; the triangle (i, k, j) joins the maps of (i, k) and (k, j)
    through every 2-simplex sig whose d_2 and d_0 are their long edges, keyed
    by d_1 sig and the label left + mid[sig] + right, and multiplies the
    counts.  Membranes are glued along edges only, so the simplicial
    identities must hold.
    """
    apex = {}
    for t in tri.triangles:
        a, b, c = sorted(t)
        apex[(a, c)] = b
    d0, d1 = x.face[(2, 0)], x.face[(2, 1)]
    by_d2 = {}
    for sig, a in enumerate(x.face[(2, 2)]):
        by_d2.setdefault(a, []).append(sig)

    def join(i, j):
        if j == i + 1:
            return edge
        k = apex[(i, j)]
        right = {}
        for (b, lab), c in join(k, j).items():
            right.setdefault(b, []).append((lab, c))
        out = {}
        for (a, lab_a), c_a in join(i, k).items():
            for sig in by_d2.get(a, ()):
                long, head = d1[sig], lab_a + mid[sig]
                for lab_b, c_b in right.get(d0[sig], ()):
                    key = (long, head + lab_b)
                    out[key] = out.get(key, 0) + c_a * c_b
        return out

    return join(0, n)


def membrane_counts(x: TruncatedSSet, n: int, tri: Triangulation):
    """spine -> number of membranes of the triangulation tri with that spine.

    _membrane_join labelled by spine edges: an edge (i, i+1) counts 1 for
    every 1-simplex, and a join concatenates the spines of its two sides.
    Summing over the long edge of (0, n) gives the count per spine; a
    non-spiny set can have several long edges over one spine.  The sum of
    all counts is |MS(tri)|.
    """
    per_spine = {}
    for (_, sp), c in _membrane_join(x, n, tri, {(e, (e,)): 1 for e in x.simplices(1)},
                                     [()] * x.counts[2]).items():
        per_spine[sp] = per_spine.get(sp, 0) + c
    return per_spine


def _least_unfilled(x: TruncatedSSet, n: int, tri: Triangulation, sub):
    """Spine edges of the least membrane of tri that no n-simplex restricts
    to, given the subface tables sub of level n.

    _membrane_join labelled by the 2-simplices on the triangles lists every
    membrane once, its triangles in the dual tree's in-order, which is apex
    order.  Membranes compare by their values on all cells of tri (every
    nonempty vertex subset of a triangle) in sorted-cell order.
    """
    tris = sorted(tri.triangles, key=lambda t: t[1])
    hit = set(zip(*(sub[t] for t in tris)))
    cells = {}
    for ti, t in enumerate(tris):
        for r in range(1, 4):
            for pos in itertools.combinations(range(3), r):
                cells.setdefault(tuple(t[p] for p in pos), (ti, pos))
    order = sorted(cells)
    mems = _membrane_join(x, n, tri, {(e, ()): 1 for e in x.simplices(1)},
                          [(sig,) for sig in x.simplices(2)])
    least = min(tuple(subface(x, 2, m[cells[c][0]], cells[c][1]) for c in order)
                for _, m in mems if m not in hit)
    return tuple(least[order.index((i, i + 1))] for i in range(n))


def _spine_order(x: TruncatedSSet, sp):
    """Sort key of a spine: its vertices and edges interleaved,
    (v_0, e_0, v_1, e_1, .., e_{n-1}, v_n)."""
    key = [x.face[(1, 1)][sp[0]]]
    for e in sp:
        key += (e, x.face[(1, 0)][e])
    return tuple(key)


def segal(x: TruncatedSSet):
    """The one pass over restrictions of simplices to vertex subsets:
    (bad, spiny, two, weak, cosk), with bad = validate(x) and the rest
    (ok, witness).  cosk is is_coskeletal_2(x), run once when K >= 3 and the
    simplicial identities hold, on the pass's subface tables of levels 2
    and 3; otherwise it reads as the Segal verdicts do.

    Each level n = 2..K builds its subface tables once.  Spiny: the spines,
    read off the tables of the edges (i, i+1), do not collide; the witness
    is (n, s1, s2) as in is_spiny.

    2-Segal, from level 3: every triangulation membrane map X_n -> MS(T, x)
    is bijective.  A simplex restricts to T as the tuple of its 2-faces on
    T's triangles.  Injectivity hashes these tuples in simplex order;
    surjectivity compares |MS(T)| from membrane_counts with |X_n|.  Only when
    |MS(T)| is larger does _least_unfilled enumerate the membranes of T,
    through the same join that counts them, to find the least that no
    simplex hits.  Triangulations go in triangulations(n) order, and
    collisions are looked for before unfilled membranes.

    Weak 2-Segal, from level 3: X_n bijects onto spine-compatible families
    of triangulation membranes, one membrane per triangulation, all agreeing
    on the spine.  Every vertex triple of the polygon lies in some
    triangulation, so a simplex's image is the tuple of all its 2-faces;
    injectivity hashes these in simplex order.  A spine sp carries
    prod_T membrane_counts(T)[sp] families, and the map is onto iff these
    sum to |X_n|.  Otherwise the witness is the least spine, in
    _spine_order, that has more families than simplices.

    Membranes are glued along edges, so where the simplicial identities fail
    both Segal verdicts fail with "simplicial identities fail"; spiny is
    decided all the same.  Each triangulation's membrane counts serve both
    Segal verdicts, and the pass stops once all three verdicts have failed.

    Witnesses: 2-Segal ("collision", n, T, s1, s2) or ("unfilled", n, T,
    spine-of-membrane); weak ("collision", n, s1, s2) or ("unfilled", n,
    spine edges).

    The pass stops after level 3 when the set is spiny so far and
    2-coskeletal: the level-3 verdicts, with their level-3 witnesses, then
    hold at every level up to K, and so does spiny.  Proof, for 3 < n <= K:
    - Spiny at level 2 makes the partial composite e.f of edges the d_1 of
      the one 2-simplex whose (d_2, d_0) is (e, f), defined when there is
      one.  Unique fillers at levels 3..K make an n-simplex the same as its
      2-faces: a family of edges e_ab (a < b) with e_ab.e_bc defined and
      equal to e_ac for all a < b < c.  As e_ab = e_a,b-1 . e_b-1,b, the
      spine determines the family, so spiny holds at level n.
    - In the same way a membrane of a triangulation T is determined by its
      spine, and a spine carries one exactly when the bracketing of the
      spine that T reads is defined.  Both membrane maps are therefore
      injective at level n, and onto exactly when every spine whose
      T-bracketing is defined for one T (2-Segal), or for every T (weak),
      spans an n-simplex.
    - 2-Segal at level 3 says (ab)c is defined iff a(bc) is, and the two
      are equal; weak 2-Segal at level 3 says they are equal when both are
      defined.  Any two bracketings are joined by rotations
      (XY)Z <-> X(YZ) of sub-bracketings.  Under 2-Segal, one defined
      bracketing of a spine makes all of them defined, with one value;
      under weak 2-Segal the values agree when all are defined.
    - Every interval [a, b] of the spine is a subtree of some bracketing,
      so let e_ab be its one value; e_ab.e_bc is a bracketing of [a, c], so
      it equals e_ac.  The unique fillers at levels 3..n extend this family
      to the one n-simplex with that spine.
    Spininess is needed: the 2-coskeletal extension of one vertex with a
    second 2-simplex on the degenerate edge is weakly 2-Segal at level 3
    and not at level 4.
    """
    bad = validate(x)
    spiny = (True, None)
    two = weak = cosk = (False, "simplicial identities fail") if bad else (True, None)
    tables = {}
    for n in range(2, x.K + 1):
        if not (spiny[0] or two[0] or weak[0]) or (n == 4 and spiny[0] and cosk[0]):
            break
        sub = tables[n] = subface_tables(x, n)
        if n == 3 and not bad:
            cosk = _coskeletal_2(x, tables)
        spines = list(zip(*(sub[(i, i + 1)] for i in range(n))))
        if spiny[0]:
            pair = first_collision(spines)
            if pair is not None:
                spiny = False, (n,) + pair
        if n < 3 or not (two[0] or weak[0]):
            continue
        if weak[0]:
            pair = first_collision(zip(*(sub[t] for t in itertools.combinations(range(n + 1), 3))))
            if pair is not None:
                weak = False, ("collision", n) + pair
        families = None
        for tri in triangulations(n):
            if two[0]:
                pair = first_collision(zip(*(sub[t] for t in tri.triangles)))
                if pair is not None:
                    two = False, ("collision", n, tri) + pair
            if not (two[0] or weak[0]):
                break
            counts = membrane_counts(x, n, tri)
            if two[0] and sum(counts.values()) > x.counts[n]:
                two = False, ("unfilled", n, tri, _least_unfilled(x, n, tri, sub))
            if weak[0]:
                families = counts if families is None else {
                    sp: f * counts[sp] for sp, f in families.items() if sp in counts}
        if weak[0] and sum(families.values()) > x.counts[n]:
            hits = Counter(spines)
            sp = min((sp for sp, f in families.items() if f > hits[sp]),
                     key=lambda sp: _spine_order(x, sp))
            weak = False, ("unfilled", n, sp)
    return bad, spiny, two, weak, cosk


def boundary_membranes(x: TruncatedSSet, n: int):
    """Compatible (n+1)-tuples (y_0..y_n) of (n-1)-simplices, d_i y_j = d_{j-1} y_i,
    in lexicographic order.

    Tuples grow one column at a time: y_j is any simplex whose first j faces
    are (d_{j-1} y_0, .., d_{j-1} y_{j-1}), looked up in an index of the
    (n-1)-simplices by their first j faces.  Each index lists simplices in
    id order, so the tuples come out sorted.
    """
    if n - 1 > x.K or n < 2:
        raise InputError(f"boundary level {n} out of range for truncation {x.K}")
    m = n - 1
    out = [(y,) for y in x.simplices(m)]
    for j in range(1, n + 1):
        index = {}
        for y, prefix in enumerate(zip(*(x.face[(m, i)] for i in range(j)))):
            index.setdefault(prefix, []).append(y)
        dj = x.face[(m, j - 1)]
        out = [ys + (y,) for ys in out for y in index.get(tuple(dj[v] for v in ys), ())]
    return out


def is_coskeletal_2(x: TruncatedSSet):
    """Unique boundary fillers at every level 3..K; witness the least bad boundary.

    Raises StructureError when the faces of a simplex are not a compatible
    boundary, naming the least such simplex at the lowest level n >= 3,
    unless a level below n fails first.

    Where X is spiny at level 2, that is (d_2, d_0) is injective on X_2,
    comp(e, f), the d_1 of the 2-simplex over (e, f), is a partial map, and
    levels n = 3..K are decided in order from pairs.  Level n has unique
    fillers iff no two n-simplices share (d_n, d_0) and the qualifying pairs
    number |X_n|.  A pair (u, v) of (n-1)-simplices qualifies when
    d_0 u = d_{n-1} v, e_0n = comp(e_01(u), e_1n(v)) is defined and
    comp(e_0b(u), e_bn(v)) = e_0n for every 2 <= b <= n-1; here e_ab is the
    edge on the vertices a < b of an n-simplex y with d_n y = u and
    d_0 y = v.  Proof, for a level n whose levels 3..n-1 have passed:
    - A compatible boundary of Delta^n is the same as its restriction to the
      2-skeleton sk_2 Delta^n.  At n = 3 the two complexes are equal.  At
      n >= 4 each face of dimension 3..n-1 is the one simplex over its
      boundary, so, by induction on dimension, over its 2-skeleton.
    - Spiny at level 2 makes a map sk_2 Delta^n -> X the same as a family of
      edges e_ab with comp(e_ab, e_bc) = e_ac for all a < b < c.  Its
      restrictions to the vertices 0..n-1 and 1..n are a pair (u, v) with
      d_0 u = d_{n-1} v that fixes every edge but e_0n, and the triangles
      (0, b, n) force e_0n.  So the qualifying pairs are in bijection with
      the compatible boundaries, through their faces d_n and d_0.
    - The faces of an n-simplex form a compatible boundary, so the boundary
      map of X_n is bijective iff it is injective, which its faces d_n and
      d_0 decide, and both sets have the same size.
    A level that fails, and every level of a set not spiny at level 2, is
    decided by listing its compatible boundaries with boundary_membranes and
    counting each boundary's fillers, so the witness is the least boundary,
    in lexicographic order, with no filler ("unfilled") or more than one
    ("multiple").
    """
    if x.K < 3:
        raise InputError("coskeletality check needs K >= 3")
    x.check_shape()
    bad = min(((n, s) for n, _, lhs, rhs in _face_identities(x, 3) for s in differences(lhs, rhs)),
              default=None)
    if bad is None:
        return _coskeletal_2(x, {})
    n, s = bad
    below = _coskeletal_2(truncate(x, n - 1), {}) if n > 3 else (True, None)
    if not below[0]:
        return below
    raise StructureError(f"faces {tuple(x.face[(n, i)][s] for i in range(n + 1))} of "
                         f"{n}-simplex {s} are not a compatible boundary; the simplicial "
                         "identities fail")


def _coskeletal_2(x: TruncatedSSet, tables):
    """is_coskeletal_2 on a set whose simplicial identities hold, so that the
    faces of every simplex form a compatible boundary, reading edges from
    tables (level -> subface_tables of that level), which it builds where
    absent."""
    index, clash = face_pair_index(x, 2)
    comp = dict(zip(index, composite(x.face[(2, 1)], index.values())))
    for n in range(3, x.K + 1):
        faces = [x.face[(n, i)] for i in range(n + 1)]
        if clash is None and _pairs_fill(
                x, n, comp, tables.get(n - 1) or subface_tables(x, n - 1)):
            continue
        fillers = dict.fromkeys(boundary_membranes(x, n), 0)
        for b in zip(*faces):
            fillers[b] += 1
        for b, count in fillers.items():
            if count != 1:
                return False, ("unfilled" if not count else "multiple", n, b)
    return True, None


def _pairs_fill(x: TruncatedSSet, n: int, comp, sub):
    """Whether level n has unique fillers, decided from pairs of
    (n-1)-simplices as is_coskeletal_2 says; sub is subface_tables(x, n-1)."""
    m = n - 1
    if face_pair_index(x, n)[1] is not None:
        return False
    by_last = {}
    for v, h in enumerate(x.face[(m, m)]):
        by_last.setdefault(h, []).append(v)
    us, vs = [], []  # the pairs with d_0 u = d_m v, as two columns
    for u, t in enumerate(x.face[(m, 0)]):
        joined = by_last.get(t, ())
        us += [u] * len(joined)
        vs += joined

    def composites(b):
        # comp(e_0b(u), e_bn(v)) over the pairs; e_bn(v) is v's edge (b-1, m)
        heads, tails = sub[(0, b)], sub[(b - 1, m)]
        return list(map(comp.get, zip(map(heads.__getitem__, us), map(tails.__getitem__, vs))))

    long = composites(1)
    for b in range(2, n):
        keep = list(map(operator.eq, composites(b), long))
        us, vs, long = (list(itertools.compress(col, keep)) for col in (us, vs, long))
    return len(long) - long.count(None) == x.counts[n]


def cosk2_extend(x2: TruncatedSSet, target: int) -> TruncatedSSet:
    """Coskeletal extension of a 2-truncation: level n > 2 is the set of
    boundary-compatible tuples, faces are projections, degeneracies follow
    the simplicial identities."""
    if x2.K != 2:
        raise InputError("cosk2_extend expects a 2-truncation")
    if target < 3:
        raise InputError("target must exceed 2")
    cur = x2
    for n in range(3, target + 1):
        # levels below n keep their ids; level n is keyed by boundary tuples
        levels = [list(cur.simplices(k)) for k in range(n)] + [boundary_membranes(cur, n)]

        def face_key(k, i, s):
            return s[i] if k == n else cur.face[(k, i)][s]

        def deg_key(k, i, y):
            if k < n - 1:
                return cur.deg[(k, i)][y]
            zs = []
            for j in range(n + 1):
                if j == i or j == i + 1:
                    zs.append(y)
                elif j < i:
                    zs.append(cur.deg[(n - 2, i - 1)][cur.face[(n - 1, j)][y]])
                else:
                    zs.append(cur.deg[(n - 2, i)][cur.face[(n - 1, j - 1)][y]])
            return tuple(zs)

        cur = from_levels(levels, face_key, deg_key)
    return cur


def truncate(x: TruncatedSSet, K: int) -> TruncatedSSet:
    if K > x.K or K < 2:
        raise InputError("bad truncation level")
    face = {(n, i): v for (n, i), v in x.face.items() if n <= K}
    deg = {(n, i): v for (n, i), v in x.deg.items() if n < K}
    labels = {n: x.labels[n] for n in x.labels if n <= K}
    return TruncatedSSet(K, x.counts[: K + 1], face, deg, labels)


# ---------------------------------------------------------------------------
# canonical form


def canonicalize_spiny(x: TruncatedSSet) -> TruncatedSSet:
    """Relabel levels >= 2 by lexicographic spine order (levels 0, 1 fixed).

    Two spiny sets with the same 1-truncation are isomorphic over it iff
    their canonical forms are equal tables.  Level n is sorted by the ranks
    of (d_n s, d_0 s) in the new order of level n-1, which is spine order
    where spiny_face_pairs holds: spine(s) is spine(d_n s) and one edge, and
    where d_n agrees, the spines of d_0 differ in that edge alone.
    """
    indexes = spiny_face_pairs(x)
    levels = [list(x.simplices(0)), list(x.simplices(1))]
    for n in range(2, x.K + 1):
        rank = {s: r for r, s in enumerate(levels[-1])}
        pairs = sorted(indexes[n], key=lambda pair: (rank[pair[0]], rank[pair[1]]))
        levels.append(list(map(indexes[n].get, pairs)))
    return from_levels(levels, lambda n, i, s: x.face[(n, i)][s], lambda n, i, s: x.deg[(n, i)][s],
                       {n: [lab[s] for s in levels[n]] for n, lab in x.labels.items()})


# ---------------------------------------------------------------------------
# construction helpers


def standard_simplex(n: int, K: int) -> TruncatedSSet:
    """The standard n-simplex truncated at K: level k is the monotone maps
    [k] -> [n] in lexicographic order."""
    levels = [list(itertools.combinations_with_replacement(range(n + 1), k + 1))
              for k in range(K + 1)]
    return from_levels(levels, lambda k, i, t: t[:i] + t[i + 1:],
                       lambda k, i, t: t[: i + 1] + t[i:])


def _surjections(k, d):
    """Nondecreasing surjective value tuples [k] ->> [d], in lexicographic order."""
    return [alpha for alpha in itertools.combinations_with_replacement(range(d + 1), k + 1)
            if len(set(alpha)) == d + 1]


def from_nondegenerate(K: int, generators) -> TruncatedSSet:
    """Free degenerate completion of a finite set of nondegenerate cells.

    generators: ordered list of (name, dim, faces) where faces lists, for
    each 0 <= i <= dim, the i-th face as (other_name, alpha) with alpha a
    monotone surjection value tuple (identity tuple for a nondegenerate
    face); anything else raises InputError.  Level-k simplices are the pairs
    (name, alpha: [k] ->> [dim]), generators in list order and each one's
    alphas in lexicographic order; faces are computed by epi-mono
    factorization through the generator's face table.
    """
    dims = {}
    gen_faces = {}
    for gen in generators:
        try:
            name, dim, faces = gen
            hash(name)
            faces = list(faces)
        except (TypeError, ValueError) as exc:
            raise InputError(f"generator {gen!r} is no (name, dim, faces) triple") from exc
        if name in dims:
            raise InputError(f"duplicate generator {name}")
        if isinstance(dim, bool) or not isinstance(dim, int) or not 0 <= dim <= K:
            raise InputError(f"generator {name} dimension {dim!r} is no int from 0 to {K}")
        n_faces = dim + 1 if dim > 0 else 0
        if len(faces) != n_faces:
            raise InputError(f"generator {name} needs {n_faces} faces")
        dims[name] = dim
        gen_faces[name] = faces
    for name, faces in gen_faces.items():
        for i, face in enumerate(faces):
            try:
                g2, alpha = face
                ok = g2 in dims and alpha in _surjections(dims[name] - 1, dims[g2])
            except (TypeError, ValueError):  # no pair, or an unhashable name
                ok = False
            if not ok:
                raise InputError(f"generator {name} face {i}: {face!r} is no (name, alpha) with "
                                 f"alpha a monotone surjection from [{dims[name] - 1}] onto a "
                                 f"listed generator")

    levels = [[(name, alpha) for name, dim in dims.items() for alpha in _surjections(k, dim)]
              for k in range(K + 1)]

    def compose(gamma, beta):
        return tuple(gamma[b] for b in beta)

    def face_of(k, i, simplex):
        name, alpha = simplex
        beta = alpha[:i] + alpha[i + 1:]
        d = dims[name]
        if len(set(beta)) == d + 1:
            return (name, beta)
        j = alpha[i]
        beta1 = tuple(v if v < j else v - 1 for v in beta)
        g2, gamma = gen_faces[name][j]
        return (g2, compose(gamma, beta1))

    def degeneracy_of(k, i, simplex):
        name, alpha = simplex
        return (name, alpha[: i + 1] + alpha[i:])

    return from_levels(levels, face_of, degeneracy_of)
