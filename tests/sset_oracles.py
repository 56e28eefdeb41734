"""Exact enumeration oracles for the sset checkers.

membrane_set is a generic backtracker over the simplicial maps from a
subcomplex of the n-simplex (the spine, the boundary or a triangulation) into
a truncated simplicial set; the Segal checks count and enumerate membranes
with an interval DP instead, and the tests compare the two.  coskeletal_2
lists every boundary of every level, which sset.is_coskeletal_2 does only
where its pair count fails.  sset_isomorphic searches for a levelwise
isomorphism, and sset_equal compares two truncated simplicial sets table by
table.  triangulations is the per-node leaf count walk over palg.bracketings
that sset.triangulations replaced.  canonicalize_spiny, magma_from_sset and
circle_readout are the spine walks and the label readout that the face-pair
index replaced in sset.canonicalize_spiny, nerve.magma_from_sset and
nerve.effect_circle_iso.  standard_simplex and from_nondegenerate sort each
level into the order that sset's builders now list it in without a sort.
spine and is_spiny are the per-simplex spine walk, the reference that the
Segal pass and the face-pair index are tested against.
tuple_face and insert_unit are the face and degeneracy rules of a nerve on
its tuples, which nerve.nerve and quantum's face maps applied before every
nerve was grown as id columns.  point, two_triangles_shared_spine, delta_w3,
hollow_simplices and hollow_simplex are small sets the tests check.
"""

import itertools

from palg_oracles import leaf_count
from simpeff import sset
from simpeff.palg import LEAF, AssociativityDatum, PartialUnitalMagma, bracketings
from simpeff.util import InputError, StructureError, first_collision

SPINE = "spine"
BOUNDARY = "boundary"


def sset_equal(x: sset.TruncatedSSet, y: sset.TruncatedSSet) -> bool:
    """The same truncation, counts and face and degeneracy tables."""
    return (x.K == y.K and x.counts == y.counts
            and x.face == y.face and x.deg == y.deg)


def tuple_face(mul, n, i, t):
    """d_i of the nerve n-tuple t: drop an end, or multiply the adjacent pair
    at positions i-1, i through the square table mul[a][b]."""
    if i == 0:
        return t[1:]
    if i == n:
        return t[:-1]
    return t[:i - 1] + (mul[t[i - 1]][t[i]],) + t[i + 1:]


def insert_unit(n, i, t):
    """s_i of the nerve n-tuple t: the unit 0 inserted at position i."""
    return t[:i] + (0,) + t[i:]


def triangulations(n: int):
    """Triangulations of the polygon on 0..n, a node's split read off the
    leaf count of its left subtree; sorted by triangle tuple."""
    out = []
    for tree in bracketings(n):
        tri, stack = [], [(tree, 0, n)]
        while stack:
            node, i, j = stack.pop()
            if node != LEAF:
                k = i + leaf_count(node[0])
                tri.append((i, k, j))
                stack += [(node[0], i, k), (node[1], k, j)]
        out.append(sset.Triangulation(n, tuple(sorted(tri))))
    out.sort(key=lambda t: t.triangles)
    return out


def _top_cells(n, subset):
    if subset == SPINE:
        return [tuple(range(n + 1))] if n == 0 else [(i, i + 1) for i in range(n)]
    if subset == BOUNDARY:
        return [tuple(v for v in range(n + 1) if v != i) for i in range(n + 1)]
    if isinstance(subset, sset.Triangulation):
        if subset.n != n:
            raise InputError("triangulation size does not match level")
        return sorted(subset.triangles, key=lambda t: (t[0], t))
    raise InputError(f"unknown subset {subset!r}")


def membrane_set(x, n: int, subset):
    """All simplicial maps from the given subcomplex of the n-simplex into x,
    each a dict cell (vertex tuple) -> simplex id over every cell.

    Backtracking over the maximal cells ordered by smallest vertex; a cell's
    candidates are filtered through a face-table index on its first already
    forced codimension-one subcell, then every forced subcell is checked.
    """
    if n > x.K + (1 if subset == BOUNDARY else 0) or n < 1:
        raise InputError(f"membrane level {n} exceeds truncation {x.K}")
    tops = _top_cells(n, subset)
    if any(len(c) - 1 > x.K for c in tops):
        raise InputError("subset has cells above the truncation")
    tops = sorted(tops, key=lambda c: (c[0], c))
    out = []
    # (d, i) -> value -> the d-simplices whose d_i is that value, for the
    # dimensions d of the maximal cells
    by_face = {}
    for d in {len(c) - 1 for c in tops} - {0}:
        for i in range(d + 1):
            index = by_face[(d, i)] = {}
            for s, v in enumerate(x.face[(d, i)]):
                index.setdefault(v, []).append(s)

    def forced_cells(cell, value, assign):
        """Values on all subcells of cell, from its assigned value."""
        d = len(cell) - 1
        new = {}
        for r in range(1, len(cell)):
            for sub in itertools.combinations(range(len(cell)), r):
                subcell = tuple(cell[i] for i in sub)
                v = sset.subface(x, d, value, sub)
                old = assign.get(subcell, new.get(subcell))
                if old is not None and old != v:
                    return None
                new[subcell] = v
        return new

    # backtracking mutates one shared dict; forced_cells reports conflicts
    def rec_safe(k, assign):
        if k == len(tops):
            out.append(dict(assign))
            return
        cell = tops[k]
        d = len(cell) - 1
        cand = None
        for i in range(len(cell)):
            subcell = cell[:i] + cell[i + 1:]
            if d >= 1 and subcell in assign:
                cand = by_face[(d, i)].get(assign[subcell], [])
                break
        if cand is None:
            cand = x.simplices(d)
        for value in cand:
            new = forced_cells(cell, value, assign)
            if new is None:
                continue
            added = [c for c in new if c not in assign]
            assign.update({c: new[c] for c in added})
            assign[cell] = value
            rec_safe(k + 1, assign)
            del assign[cell]
            for c in added:
                del assign[c]

    rec_safe(0, {})
    out.sort(key=lambda m: tuple(sorted(m.items())))
    return out


def validate(x):
    """The simplicial identity violations, one simplex at a time, in the
    order sset.validate lists them."""
    x.check_shape()
    bad = []
    for n in range(2, x.K + 1):
        for j in range(n + 1):
            for i in range(j):
                fi, fj = x.face[(n, i)], x.face[(n, j)]
                gi, gj1 = x.face[(n - 1, i)], x.face[(n - 1, j - 1)]
                for s in x.simplices(n):
                    if gj1[fi[s]] != gi[fj[s]]:
                        bad.append(("d_i d_j = d_{j-1} d_i", n, (i, j), s))
    for n in range(x.K):
        for j in range(n + 1):
            sj = x.deg[(n, j)]
            for i in range(n + 2):
                di = x.face[(n + 1, i)]
                if i == j or i == j + 1:
                    for s in x.simplices(n):
                        if di[sj[s]] != s:
                            bad.append(("d_i s_j = id", n, (i, j), s))
                elif i < j:
                    for s in x.simplices(n):
                        if di[sj[s]] != x.deg[(n - 1, j - 1)][x.face[(n, i)][s]]:
                            bad.append(("d_i s_j = s_{j-1} d_i", n, (i, j), s))
                else:
                    for s in x.simplices(n):
                        if di[sj[s]] != x.deg[(n - 1, j)][x.face[(n, i - 1)][s]]:
                            bad.append(("d_i s_j = s_j d_{i-1}", n, (i, j), s))
    for n in range(x.K - 1):
        for i in range(n + 1):
            for j in range(i, n + 1):
                si, sj = x.deg[(n, i)], x.deg[(n, j)]
                for s in x.simplices(n):
                    if x.deg[(n + 1, j + 1)][si[s]] != x.deg[(n + 1, i)][sj[s]]:
                        bad.append(("s_i s_j = s_{j+1} s_i", n, (i, j), s))
    return bad


def coskeletal_2(x):
    """Unique boundary fillers at every level 3..K, decided by listing every
    compatible boundary of every level with sset.boundary_membranes and
    counting its fillers; witness the least bad boundary.  Raises
    StructureError when the faces of a simplex are not a compatible boundary.
    sset.is_coskeletal_2 decides spiny levels from pairs instead."""
    if x.K < 3:
        raise InputError("coskeletality check needs K >= 3")
    for n in range(3, x.K + 1):
        fillers = dict.fromkeys(sset.boundary_membranes(x, n), 0)
        for s, b in enumerate(zip(*(x.face[(n, i)] for i in range(n + 1)))):
            if b not in fillers:
                raise StructureError(f"faces {b} of {n}-simplex {s} are not a compatible "
                                     "boundary; the simplicial identities fail")
            fillers[b] += 1
        for b, count in fillers.items():
            if count != 1:
                return False, ("unfilled" if not count else "multiple", n, b)
    return True, None


def spine(x, n: int, s: int):
    """The edge readout (s restricted to (i, i+1) for each i)."""
    return tuple(sset.subface(x, n, s, (i, i + 1)) for i in range(n))


def is_spiny(x):
    """Injectivity of every 1-Segal map, one spine walk per simplex; the
    witness is (n, s1, s2), s2 the least n-simplex whose spine an earlier
    s1 has."""
    for n in range(2, x.K + 1):
        pair = first_collision(spine(x, n, s) for s in x.simplices(n))
        if pair is not None:
            return False, (n,) + pair
    return True, None


def sset_isomorphic(x, y):
    """Search for a levelwise isomorphism; returns the level maps or None.

    Seeded at level 1 by backtracking; levels >= 2 are forced through spines,
    so y must be spiny (all uses here are).
    """
    if x.counts != y.counts or x.K != y.K:
        return None
    ok, _ = is_spiny(y)
    if not ok:
        raise InputError("isomorphism search requires a spiny target")
    yspine = {}
    for n in range(2, y.K + 1):
        yspine[n] = {spine(y, n, s): s for s in y.simplices(n)}

    def complete(phi0, phi1):
        phi = {0: phi0, 1: phi1}
        for n in range(2, x.K + 1):
            tab = []
            for s in x.simplices(n):
                sp = tuple(phi1[e] for e in spine(x, n, s))
                t = yspine[n].get(sp)
                if t is None:
                    return None
                tab.append(t)
            if len(set(tab)) != len(tab):
                return None
            phi[n] = tab
        for (n, i), ftab in x.face.items():
            for s in x.simplices(n):
                if y.face[(n, i)][phi[n][s]] != phi[n - 1][ftab[s]]:
                    return None
        for (n, i), stab in x.deg.items():
            for s in x.simplices(n):
                if y.deg[(n, i)][phi[n][s]] != phi[n + 1][stab[s]]:
                    return None
        return phi

    for phi0 in itertools.permutations(range(x.counts[0])):
        xdeg = {x.deg[(0, 0)][v]: v for v in x.simplices(0)}
        ydeg = {y.deg[(0, 0)][v]: v for v in y.simplices(0)}

        def ends(z, e):
            return (z.face[(1, 1)][e], z.face[(1, 0)][e])

        slots = list(x.simplices(1))

        def bt(k, phi1, used):
            if k == len(slots):
                return complete(list(phi0), phi1)
            e = slots[k]
            tgt_ends = tuple(phi0[v] for v in ends(x, e))
            for f in y.simplices(1):
                if f in used or ends(y, f) != tgt_ends:
                    continue
                if (e in xdeg) != (f in ydeg):
                    continue
                if e in xdeg and phi0[xdeg[e]] != ydeg[f]:
                    continue
                phi1[e] = f
                used.add(f)
                res = bt(k + 1, phi1, used)
                if res is not None:
                    return res
                used.remove(f)
            return None

        res = bt(0, [None] * x.counts[1], set())
        if res is not None:
            return res
    return None


def canonicalize_spiny(x):
    """is_spiny, then levels >= 2 sorted by spine, one simplex at a time."""
    ok, wit = is_spiny(x)
    if not ok:
        raise InputError(f"canonicalize_spiny needs a spiny set, collision {wit}")
    # spines order level n >= 2 and leave levels 0 and 1 as they are
    levels = [sorted(x.simplices(n), key=lambda s: spine(x, n, s)) for n in range(x.K + 1)]
    return sset.from_levels(levels, lambda n, i, s: x.face[(n, i)][s],
                            lambda n, i, s: x.deg[(n, i)][s],
                            {n: [lab[s] for s in levels[n]] for n, lab in x.labels.items()})


def magma_from_sset(x):
    """is_spiny, then the magma of the 2-simplices and the datum of the
    spines, one simplex at a time."""
    ok, wit = is_spiny(x)
    if not ok:
        raise InputError(f"input is not spiny: collision {wit}")
    if not sset.is_reduced(x):
        raise InputError("input is not reduced")
    unit_edge = x.deg[(0, 0)][0]
    relabel = list(range(x.counts[1]))
    if unit_edge != 0:
        relabel[0], relabel[unit_edge] = unit_edge, 0
    edge2id = {e: relabel.index(e) for e in x.simplices(1)}
    product = {}
    for sig in x.simplices(2):
        a = edge2id[x.face[(2, 2)][sig]]
        b = edge2id[x.face[(2, 0)][sig]]
        product[(a, b)] = edge2id[x.face[(2, 1)][sig]]
    magma = PartialUnitalMagma(x.counts[1], product)
    magma.validate()
    levels = {}
    for n in range(2, x.K + 1):
        levels[n] = frozenset(tuple(edge2id[e] for e in spine(x, n, s))
                              for s in x.simplices(n))
    return magma, AssociativityDatum(levels)


def circle_readout(ex, ne):
    """The maps of effect_circle_iso, each function on the circle sent to the
    nerve simplex whose tuple label is its values on theta^1..theta^n."""
    maps = {0: [0]}
    for n in range(1, ex.K + 1):
        tab = []
        for t in ex.labels[n]:
            tup = t[1: n + 1]  # values on theta^1..theta^n; t[0] is the star
            tab.append(ne.labels[n].index(tup) if n >= 2 else tup[0])
        maps[n] = tab
    return maps


# ---------------------------------------------------------------------------
# the construction helpers that sorted each level into the order the
# generators already emit


def standard_simplex(n: int, K: int) -> sset.TruncatedSSet:
    """The standard n-simplex truncated at K: level k is the monotone maps
    [k] -> [n] in lexicographic order."""
    levels = []
    for k in range(K + 1):
        levels.append(sorted(itertools.combinations_with_replacement(range(n + 1), k + 1)))
    return sset.from_levels(levels, lambda k, i, t: t[:i] + t[i + 1:],
                            lambda k, i, t: t[: i + 1] + t[i:])


def from_nondegenerate(K: int, generators) -> sset.TruncatedSSet:
    """Free degenerate completion of a finite set of nondegenerate cells.

    generators: ordered list of (name, dim, faces) where faces lists, for
    each 0 <= i <= dim, the i-th face as (other_name, alpha) with alpha a
    monotone surjection value tuple (identity tuple for a nondegenerate
    face).  Level-k simplices are the pairs (name, alpha: [k] ->> [dim]);
    faces are computed by epi-mono factorization through the generator's
    face table.
    """
    dims = {}
    gen_faces = {}
    order = []
    for name, dim, faces in generators:
        if name in dims:
            raise InputError(f"duplicate generator {name}")
        if dim > K:
            raise InputError(f"generator {name} above truncation")
        if len(faces) != (dim + 1 if dim > 0 else 0):
            raise InputError(f"generator {name} needs {dim + 1} faces")
        dims[name] = dim
        gen_faces[name] = list(faces)
        order.append(name)
    rank = {name: i for i, name in enumerate(order)}

    levels = []
    for k in range(K + 1):
        lev = []
        for name in order:
            for alpha in sset._surjections(k, dims[name]):
                lev.append((name, alpha))
        lev.sort(key=lambda p: (rank[p[0]], p[1]))
        levels.append(lev)

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

    return sset.from_levels(levels, face_of, degeneracy_of)


# ---------------------------------------------------------------------------
# fixtures: small sets the tests check, built by sset.from_nondegenerate


def point(K: int) -> sset.TruncatedSSet:
    return sset.from_nondegenerate(K, [("*", 0, [])])


_ID1 = (0, 1)


def two_triangles_shared_spine(K: int = 2) -> sset.TruncatedSSet:
    """Two 2-simplices glued along spine edges 01 and 12 but with distinct
    long edges: the standard non-spiny example."""
    gens = [
        ("v0", 0, []), ("v1", 0, []), ("v2", 0, []),
        ("e01", 1, [("v1", (0,)), ("v0", (0,))]),
        ("e12", 1, [("v2", (0,)), ("v1", (0,))]),
        ("e02a", 1, [("v2", (0,)), ("v0", (0,))]),
        ("e02b", 1, [("v2", (0,)), ("v0", (0,))]),
        ("ta", 2, [("e12", _ID1), ("e02a", _ID1), ("e01", _ID1)]),
        ("tb", 2, [("e12", _ID1), ("e02b", _ID1), ("e01", _ID1)]),
    ]
    return sset.from_nondegenerate(K, gens)


def delta_w3(K: int = 3) -> sset.TruncatedSSet:
    """Pushout of the two triangulations of the square over the spine: both
    triangulation membranes exist on the spine (e01, e12, e23) but carry
    distinct copies of the long edge, and no 3-simplex fills them."""
    gens = [
        ("v0", 0, []), ("v1", 0, []), ("v2", 0, []), ("v3", 0, []),
        ("e01", 1, [("v1", (0,)), ("v0", (0,))]),
        ("e12", 1, [("v2", (0,)), ("v1", (0,))]),
        ("e23", 1, [("v3", (0,)), ("v2", (0,))]),
        ("e02", 1, [("v2", (0,)), ("v0", (0,))]),
        ("e13", 1, [("v3", (0,)), ("v1", (0,))]),
        ("e03a", 1, [("v3", (0,)), ("v0", (0,))]),
        ("e03b", 1, [("v3", (0,)), ("v0", (0,))]),
        ("t012", 2, [("e12", _ID1), ("e02", _ID1), ("e01", _ID1)]),
        ("t023", 2, [("e23", _ID1), ("e03a", _ID1), ("e02", _ID1)]),
        ("t013", 2, [("e13", _ID1), ("e03b", _ID1), ("e01", _ID1)]),
        ("t123", 2, [("e23", _ID1), ("e13", _ID1), ("e12", _ID1)]),
    ]
    return sset.from_nondegenerate(K, gens)


def hollow_simplices(tops, K: int, fillers) -> sset.TruncatedSSet:
    """Every proper face of the d-simplices tops (vertex tuples of length
    d + 1), and fillers[i] d-cells on the boundary of tops[i]."""
    def bd(c):
        return [(c[:i] + c[i + 1:], tuple(range(len(c) - 1))) for i in range(len(c))]

    cells = sorted({c for top in tops for r in range(1, len(top))
                    for c in itertools.combinations(top, r)}, key=lambda c: (len(c), c))
    return sset.from_nondegenerate(K, [(c, len(c) - 1, bd(c) if len(c) > 1 else [])
                                       for c in cells]
                                   + [((top, k), len(top) - 1, bd(top))
                                      for top, f in zip(tops, fillers) for k in range(f)])


def hollow_simplex(d: int, K: int, fillers: int = 0) -> sset.TruncatedSSet:
    """The boundary of the standard d-simplex with fillers d-cells on it:
    spiny, and not 2-coskeletal when 3 <= d <= K and fillers != 1 (an
    "unfilled" boundary with none, a "multiple" one with two or more)."""
    return hollow_simplices([tuple(range(d + 1))], K, [fillers])
