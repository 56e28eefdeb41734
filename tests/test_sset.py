import itertools
import math
import random
import re
from collections import Counter

import pytest

import cyclic_oracles
import sset_oracles
from simpeff import nerve as nv
from simpeff import palg, sset
from simpeff.util import InputError, StructureError

from conftest import TWISTS, is_wapg, nerve_of, random_magma, three_element_magmas
from palg_oracles import horizontal_sum
from sset_oracles import (BOUNDARY, SPINE, coskeletal_2, delta_w3, hollow_simplex,
                          hollow_simplices, membrane_set, point, sset_equal, sset_isomorphic,
                          triangulations, two_triangles_shared_spine)
from sset_oracles import validate as validate_oracle

I, J = 2, 4  # Q8 ids for i and j


@pytest.fixture(scope="module")
def q8_nerve():
    return nv.comm_nerve(nv.quaternion_group(), None, 4)


@pytest.fixture(scope="module")
def z2_nerve():
    return nerve_of(nv.magma_of_group(nv.cyclic_group(2)), 4)


# ---------------------------------------------------------------------------
# validation


def test_validate_standard_simplex():
    assert sset.validate(sset.standard_simplex(2, 3)) == []


def test_validate_detects_corruption():
    x = sset.standard_simplex(2, 3)
    top = x.labels[2].index((0, 1, 2))
    x.face[(2, 0)][top], x.face[(2, 1)][top] = x.face[(2, 1)][top], x.face[(2, 0)][top]
    bad = sset.validate(x)
    assert bad and bad[0][1] in (2, 3)


def test_validate_comm_nerve_torsion():
    assert sset.validate(nv.comm_nerve(nv.quaternion_group(), 2, 4)) == []


def corrupted(x, rng, entries):
    """A copy of x with the given number of face or degeneracy table entries
    set to random in-range values, so that check_shape still passes."""
    face = {k: list(t) for k, t in x.face.items()}
    deg = {k: list(t) for k, t in x.deg.items()}
    keys = [(face, k, -1) for k in sorted(face)] + [(deg, k, 1) for k in sorted(deg)]
    for _ in range(entries):
        tables, (n, i), step = rng.choice(keys)
        tab = tables[(n, i)]
        tab[rng.randrange(len(tab))] = rng.randrange(x.counts[n + step])
    return sset.TruncatedSSet(x.K, x.counts, face, deg)


def test_validate_tables_match_the_per_simplex_oracle():
    """The same violations in the same order as the simplex-by-simplex loop,
    on seeded corruptions of commutative nerves and the L2 effect nerve;
    most of them break some identity."""
    bases = [nv.comm_nerve(nv.quaternion_group(), None, 4),
             nv.comm_nerve(nv.dihedral_group(5), None, 3),
             nv.comm_nerve(nv.cyclic_group(6), None, 3),
             nerve_of(palg.interval_effect_algebra(2).magma, 4)]
    rng = random.Random(23)
    broken = 0
    for x in bases:
        assert sset.validate(x) == validate_oracle(x) == []
        for _ in range(25):
            y = corrupted(x, rng, rng.choice((1, 2, 3, 5, 13, 40)))
            bad = sset.validate(y)
            assert bad == validate_oracle(y)
            broken += bool(bad)
    assert broken >= 90


DELTA2_CELLS = [
    ("v0", 0, []), ("v1", 0, []), ("v2", 0, []),
    ("e01", 1, [("v1", (0,)), ("v0", (0,))]),
    ("e12", 1, [("v2", (0,)), ("v1", (0,))]),
    ("e02", 1, [("v2", (0,)), ("v0", (0,))]),
    ("t", 2, [("e12", (0, 1)), ("e02", (0, 1)), ("e01", (0, 1))]),
]
CIRCLE_CELLS = [("*", 0, []), ("loop", 1, [("*", (0,)), ("*", (0,))])]
# one vertex and a 2-cell on its degenerate edge, beside s_0 s_0 v
DEGENERATE_TRIANGLE_CELLS = [("v", 0, []), ("a", 2, [("v", (0, 0))] * 3)]


def test_from_nondegenerate_matches_standard_simplex():
    built = sset.from_nondegenerate(3, DELTA2_CELLS)
    assert sset.validate(built) == []
    assert built.counts == sset.standard_simplex(2, 3).counts
    assert sset_isomorphic(built, sset.standard_simplex(2, 3)) is not None


def test_from_nondegenerate_circle_matches_formulas():
    built = sset.from_nondegenerate(4, CIRCLE_CELLS)
    circle = nv.simplicial_circle(4)
    assert sset.validate(built) == []
    assert built.counts == circle.counts
    assert sset_isomorphic(built, circle) is not None


@pytest.mark.parametrize("cells, match", [
    # a face on a generator that is not listed
    ([("v", 0, []), ("e", 1, [("v", (0,)), ("w", (0,))])], "generator e face 1: "),
    # a face on a generator of the same dimension
    ([("v", 0, []), ("f", 1, [("v", (0,)), ("v", (0,))]), ("e", 1, [("f", (0, 1)), ("v", (0,))])],
     "generator e face 0: "),
    # a value outside [dim] of the face's generator
    ([("v", 0, []), ("e", 1, [("v", (1,)), ("v", (0,))])], "generator e face 0: "),
    # a tuple too long for a face of an edge
    ([("v", 0, []), ("e", 1, [("v", (0,)), ("v", (0, 0))])], "generator e face 1: "),
    # a vertex takes no faces
    ([("v", 0, [("v", (0,))])], "generator v needs 0 faces"),
], ids=["unlisted", "same-dimension", "out-of-range", "too-long", "vertex-with-a-face"])
def test_from_nondegenerate_rejects_a_bad_face(cells, match):
    with pytest.raises(InputError, match=f"^{re.escape(match)}"):
        sset.from_nondegenerate(3, cells)


@pytest.mark.parametrize("cells, match", [
    ([("v", 0, []), ("e", 1, ["v", "v"])], "generator e face 0: 'v' is no (name, alpha) "),
    ([("v", 0)], "generator ('v', 0) is no (name, dim, faces) triple"),
    ([("v", 0, []), ("e", 1, [(["v"], (0,)), ("v", (0,))])], "generator e face 0: (['v'], (0,))"),
    ([(["v"], 0, [])], "generator (['v'], 0, []) is no (name, dim, faces) triple"),
    ([("v", 0, 5)], "generator ('v', 0, 5) is no (name, dim, faces) triple"),
    ([("e", "1", [])], "generator e dimension '1' is no int from 0 to 3"),
    ([("v", -1, [])], "generator v dimension -1 is no int from 0 to 3"),
    ([("v", True, [])], "generator v dimension True is no int from 0 to 3"),
    ([("t", 4, [])], "generator t dimension 4 is no int from 0 to 3"),
], ids=["face-not-a-pair", "two-tuple", "unhashable-face-name", "unhashable-name",
        "faces-not-a-list", "string-dim", "negative-dim", "bool-dim", "above-truncation"])
def test_from_nondegenerate_rejects_a_malformed_generator(cells, match):
    with pytest.raises(InputError, match=f"^{re.escape(match)}"):
        sset.from_nondegenerate(3, cells)


@pytest.mark.parametrize("n", range(4))
def test_standard_simplex_keeps_the_sorted_order(n):
    for K in range(2, 6):
        built, ordered = sset.standard_simplex(n, K), sset_oracles.standard_simplex(n, K)
        assert built.to_json_dict() == ordered.to_json_dict()
        assert built.labels == ordered.labels


PRESENTATIONS = {
    "point": lambda: point(4),
    "two-triangles": two_triangles_shared_spine,
    "delta-w3": delta_w3,
    "delta2": lambda: sset.from_nondegenerate(3, DELTA2_CELLS),
    "circle": lambda: sset.from_nondegenerate(4, CIRCLE_CELLS),
    "degenerate-triangle": lambda: sset.from_nondegenerate(2, DEGENERATE_TRIANGLE_CELLS),
    "twin": lambda: two_tetrahedra(False),
    "split": lambda: two_tetrahedra(True),
    "two-tops": lambda: hollow_simplices([(0, 1, 2, 3), (0, 1, 2, 4)], 3, [2, 0]),
    **{f"hollow{d}-{f}": (lambda d=d, f=f: hollow_simplex(d, d, f))
       for d in (3, 4) for f in (0, 1, 2)},
}


@pytest.mark.parametrize("name", PRESENTATIONS)
def test_from_nondegenerate_keeps_the_sorted_order(name, monkeypatch):
    """Every presentation the tests build gives the tables and labels of the
    builder that sorted each level by (generator rank, surjection)."""
    built = PRESENTATIONS[name]()
    calls = []

    def sorting(K, cells):
        calls.append(K)
        return sset_oracles.from_nondegenerate(K, cells)

    monkeypatch.setattr(sset, "from_nondegenerate", sorting)
    ordered = PRESENTATIONS[name]()
    assert calls
    assert built.to_json_dict() == ordered.to_json_dict()
    assert built.labels == ordered.labels


# ---------------------------------------------------------------------------
# spiny / reduced / inverseless


def test_spiny(q8_nerve, z2_nerve):
    assert sset_oracles.is_spiny(q8_nerve)[0]
    assert sset_oracles.is_spiny(z2_nerve)[0]
    ok, wit = sset_oracles.is_spiny(two_triangles_shared_spine())
    assert not ok and wit[0] == 2


def test_reduced():
    assert sset.is_reduced(point(3))
    assert not sset.is_reduced(sset.standard_simplex(1, 2))
    assert sset.is_reduced(nv.comm_nerve(nv.symmetric_group(3), None, 3))


def test_inverseless_sset(z2_nerve):
    l2 = palg.interval_effect_algebra(2)
    assert sset.is_inverseless_sset(nerve_of(l2.magma))[0]
    ok, wit = sset.is_inverseless_sset(z2_nerve)
    assert not ok and z2_nerve.labels[2][wit] == (1, 1)
    assert sset.is_inverseless_sset(point(3))[0]


def test_inverseless_transport():
    # is_inverseless_sset(N(m)) agrees with is_inverseless(m)
    rng = random.Random(3)
    for _ in range(25):
        m = random_magma(rng, rng.randrange(1, 6))
        x = nerve_of(m, 3)
        assert sset.is_inverseless_sset(x)[0] == palg.is_inverseless(m)


# ---------------------------------------------------------------------------
# triangulations and membranes


def test_triangulations_counts():
    assert len(sset.triangulations(2)) == 1
    t3 = sset.triangulations(3)
    assert {t.triangles for t in t3} == {((0, 1, 2), (0, 2, 3)), ((0, 1, 3), (1, 2, 3))}
    assert len(sset.triangulations(4)) == 5
    assert len(sset.triangulations(5)) == 14
    with pytest.raises(InputError):
        sset.triangulations(1)


def test_triangulations_match_leaf_count_oracle():
    for n in range(2, 10):
        tris = sset.triangulations(n)
        assert len({t.triangles for t in tris}) == math.comb(2 * n - 2, n - 1) // n
        assert tris == triangulations(n)


def test_membrane_spine_count(z2_nerve):
    mems = membrane_set(z2_nerve, 2, SPINE)
    assert len(mems) == 4  # |X_1|^2 with a single vertex


def test_membrane_spine_cardinality_reduced():
    x = nv.comm_nerve(nv.symmetric_group(3), None, 3)
    for n in (2, 3):
        assert len(membrane_set(x, n, SPINE)) == x.counts[1] ** n


def test_membrane_triangulation_q8(q8_nerve):
    tri = sset.Triangulation(3, ((0, 1, 3), (1, 2, 3)))
    mems = membrane_set(q8_nerve, 3, tri)
    spines = {tuple(m[(i, i + 1)] for i in range(3)) for m in mems}
    assert (J, I, I) in spines


def test_membrane_boundary_delta3():
    x = sset.standard_simplex(3, 3)
    mems = membrane_set(x, 3, BOUNDARY)
    assert len(mems) == x.counts[3]
    top = [m for m in mems if all(
        m[tuple(v for v in range(4) if v != i)] == x.face[(3, i)][x.counts[3] - 1]
        for i in range(4))]
    assert len(top) == 1


def test_membrane_boundary_matches_tuple_enumeration(q8_nerve):
    """boundary_membranes lists the boundary membranes of the oracle, as
    face tuples in lexicographic order, at every level it accepts."""
    z4 = nv.cyclic_group(4)
    for x in (q8_nerve, nv.action_partial_group(z4, 4, nv.translation_action(z4), [0, 1, 2], 4),
              hollow_simplex(3, 3, 2), delta_w3(4),
              sset.cosk2_extend(two_triangles_shared_spine(2), 4)):
        for n in range(2, x.K + 2):
            keys = sorted(tuple(m[tuple(v for v in range(n + 1) if v != i)] for i in range(n + 1))
                          for m in membrane_set(x, n, BOUNDARY))
            assert sset.boundary_membranes(x, n) == keys, (x.counts, n)


# ---------------------------------------------------------------------------
# 2-Segal and weak 2-Segal


def test_two_segal_abelian_nerve():
    x = nerve_of(nv.magma_of_group(nv.cyclic_group(4)), 4)
    assert sset.segal(x)[2][0]


def test_two_segal_fails_q8_with_jii_witness():
    x = nv.comm_nerve(nv.quaternion_group(), None, 3)
    ok, wit = sset.segal(x)[2]
    assert not ok and wit[0] == "unfilled"
    # independent brute-force oracle: the (j, i, i) membrane exists under the
    # 1-3 diagonal (both triangles commute elementwise) but j and i do not
    # commute, so no 3-simplex has that spine
    g = nv.quaternion_group()
    assert g.commute(J, g.mul[I][I]) and g.commute(I, I)
    assert not g.commute(J, I)
    tri = sset.Triangulation(3, ((0, 1, 3), (1, 2, 3)))
    spines3 = {tuple(lbl) for lbl in x.labels[3]}
    mem_spines = {tuple(m[(i, i + 1)] for i in range(3))
                  for m in membrane_set(x, 3, tri)}
    assert (J, I, I) in mem_spines and (J, I, I) not in spines3


def test_two_segal_l2_nerve():
    l2 = palg.interval_effect_algebra(2)
    assert sset.segal(nerve_of(l2.magma, 4))[2][0]


def test_weakly_two_segal(q8_nerve):
    assert sset.segal(q8_nerve)[3][0]


def test_weakly_two_segal_ly_fails():
    z4 = nv.cyclic_group(4)
    ly = nv.action_partial_group(z4, 4, nv.translation_action(z4), [0, 1, 2], 3)
    ok, wit = sset.segal(ly)[3]
    assert not ok
    assert wit[0] == "unfilled" and wit[1] == 3 and tuple(wit[2]) == (1, 1, 1)


def test_weakly_two_segal_delta_w3_fails():
    w3 = delta_w3()
    assert sset.validate(w3) == []
    ok, wit = sset.segal(w3)[3]
    assert not ok and wit[0] == "unfilled"


def test_two_segal_implies_weakly(q8_nerve):
    l2 = palg.interval_effect_algebra(2)
    instances = [nerve_of(nv.magma_of_group(nv.cyclic_group(3)), 4),
                 nerve_of(l2.magma, 4)]
    for x in instances:
        _, _, two, weak, _ = sset.segal(x)
        assert two[0]
        assert weak[0]
    # converse separation: Q8 nerve is weakly 2-Segal but not 2-Segal
    _, _, two, weak, _ = sset.segal(q8_nerve)
    assert weak[0]
    assert not two[0]


# ---------------------------------------------------------------------------
# counting against enumeration
#
# The oracle is the enumeration the counting replaced: every membrane of every
# triangulation from membrane_set, every simplex restricted cell by cell.


def _restrict(x, n, s, tops):
    cells = {sub for c in tops for r in range(1, len(c) + 1)
             for sub in itertools.combinations(c, r)}
    return {c: sset.subface(x, n, s, c) for c in cells}


def _key(mem):
    return tuple(sorted(mem.items()))


def _spine_key(mem, n):
    return tuple(sorted((c, v) for c, v in mem.items()
                        if len(c) == 1 or (len(c) == 2 and c[1] == c[0] + 1)))


def _spine_cells(n):
    return [(i, i + 1) for i in range(n)]


def oracle_two_segal(x):
    for n in range(3, x.K + 1):
        for tri in sset.triangulations(n):
            mems = {_key(m): None for m in membrane_set(x, n, tri)}
            for s in x.simplices(n):
                key = _key(_restrict(x, n, s, tri.triangles))
                assert key in mems
                if mems[key] is not None:
                    return False, ("collision", n, tri, mems[key], s)
                mems[key] = s
            for key, s in mems.items():
                if s is None:
                    sp = tuple(v for c, v in key if len(c) == 2 and c[1] == c[0] + 1)
                    return False, ("unfilled", n, tri, sp)
    return True, None


def oracle_weakly_two_segal(x):
    for n in range(3, x.K + 1):
        tris = sset.triangulations(n)
        groups = []
        for tri in tris:
            g = {}
            for m in membrane_set(x, n, tri):
                g.setdefault(_spine_key(m, n), []).append(_key(m))
            groups.append(g)
        common = set.intersection(*(set(g) for g in groups))
        families = {(sp, combo): None for sp in common
                    for combo in itertools.product(*(g[sp] for g in groups))}
        for s in x.simplices(n):
            sp = _spine_key(_restrict(x, n, s, _spine_cells(n)), n)
            key = (sp, tuple(_key(_restrict(x, n, s, tri.triangles)) for tri in tris))
            assert key in families
            if families[key] is not None:
                return False, ("collision", n, families[key], s)
            families[key] = s
        for (sp, _combo), s in sorted(families.items()):
            if s is None:
                return False, ("unfilled", n, tuple(v for c, v in sp if len(c) == 2))
    return True, None


_I1, _I2 = (0, 1), (0, 1, 2)


def two_tetrahedra(split):
    """Two 3-simplices A, B on one square's vertices.  Both share 012 and 023;
    with split, B has its own copies of 013 and 123, else B is a twin of A."""
    gens = [(f"v{i}", 0, []) for i in range(4)]
    gens += [(f"e{a}{b}", 1, [(f"v{b}", (0,)), (f"v{a}", (0,))])
             for a, b in itertools.combinations(range(4), 2)]
    for name, (a, b, c) in (("t012", (0, 1, 2)), ("t013", (0, 1, 3)), ("t023", (0, 2, 3)),
                            ("t123", (1, 2, 3)), ("t013b", (0, 1, 3)), ("t123b", (1, 2, 3))):
        gens.append((name, 2, [(f"e{b}{c}", _I1), (f"e{a}{c}", _I1), (f"e{a}{b}", _I1)]))
    b = "b" if split else ""
    gens.append(("A", 3, [("t123", _I2), ("t023", _I2), ("t013", _I2), ("t012", _I2)]))
    gens.append(("B", 3, [(f"t123{b}", _I2), ("t023", _I2), (f"t013{b}", _I2), ("t012", _I2)]))
    return sset.from_nondegenerate(3, gens)


def _oracle_instances():
    rng = random.Random(11)
    for k in range(16):
        m = random_magma(rng, rng.randrange(1, 5), density=rng.uniform(0.2, 0.9))
        yield f"magma{k}", nerve_of(m, 3 + k % 2)
    for g, K in ((nv.cyclic_group(4), 4), (nv.symmetric_group(3), 3),
                 (nv.quaternion_group(), 3)):
        for _ in range(3):
            y = sorted(rng.sample(range(g.order), rng.randrange(1, g.order + 1)))
            yield f"ly{g.order}-{y}", nv.action_partial_group(
                g, g.order, nv.translation_action(g), y, K)
    for K in (3, 4):
        # neither spiny nor reduced
        yield f"cosk-ttss{K}", sset.cosk2_extend(two_triangles_shared_spine(2), K)
        yield f"simplex{K}", sset.standard_simplex(3, K)
    yield "delta_w3", delta_w3()
    yield "twin", two_tetrahedra(False)
    yield "split", two_tetrahedra(True)


def test_segal_counting_matches_enumeration():
    verdicts = set()
    for name, x in _oracle_instances():
        assert sset.validate(x) == [], name
        bad, spiny, two, weak, cosk = sset.segal(x)
        assert bad == [] and spiny == sset_oracles.is_spiny(x), name
        assert cosk == sset.is_coskeletal_2(x), name
        assert two == oracle_two_segal(x), name
        assert weak == oracle_weakly_two_segal(x), name
        verdicts.update({("2", two[0] or two[1][0]), ("w", weak[0] or weak[1][0])})
        for n in range(2, x.K + 1):
            for tri in sset.triangulations(n):
                mems = membrane_set(x, n, tri)
                counts = sset.membrane_counts(x, n, tri)
                assert sum(counts.values()) == len(mems), (name, tri)
                spines = {}
                for m in mems:
                    sp = tuple(m[c] for c in _spine_cells(n))
                    spines[sp] = spines.get(sp, 0) + 1
                assert counts == spines, (name, tri)
    # the instances reach every verdict of both checks
    assert verdicts == {(c, v) for c in "2w" for v in (True, "collision", "unfilled")}


def test_hierarchy_census_three_elements():
    """The algebraic hierarchy against its geometric counterparts on every
    partial unital magma of size 3: magmas are not weakly 2-Segal, weak
    partial monoids are weakly 2-Segal but not 2-Segal, partial monoids are
    2-Segal, and every nerve is 2-coskeletal.  The 2-Segal verdicts and
    witnesses also match the enumeration oracle, and the spiny verdict of
    the Segal pass matches is_spiny.

    The two extremes of the hierarchy, tallied per class: a simplicial
    effect is a nerve that is spiny, inverseless and weakly 2-Segal at K=4,
    and a WAPG is a weakly associative partial group checked to arity 3.
    No magma is both, and no magma in the narrow sense is either."""
    tally, extremes = Counter(), Counter()
    for m in three_element_magmas():
        x = nerve_of(m, 4)
        _, spiny, two, (weak, _), (cosk, _) = sset.segal(x)
        assert spiny == sset_oracles.is_spiny(x), m.product
        tally[(palg.classify(m)[0], weak, two[0], cosk)] += 1
        inverseless = sset.is_inverseless_sset(x)[0]
        assert inverseless == palg.is_inverseless(m), m.product
        assert two == oracle_two_segal(x), m.product
        effect = spiny[0] and inverseless and weak
        extremes[(palg.classify(m)[0], effect,
                  is_wapg(m, 3)[0])] += 1
    assert tally == {(palg.MAGMA, False, False, True): 160,
                     (palg.WEAK_PARTIAL_MONOID, True, False, True): 71,
                     (palg.PARTIAL_MONOID, True, True, True): 25}
    assert extremes == {(palg.PARTIAL_MONOID, True, False): 20,
                        (palg.PARTIAL_MONOID, False, True): 1,
                        (palg.PARTIAL_MONOID, False, False): 4,
                        (palg.WEAK_PARTIAL_MONOID, True, False): 45,
                        (palg.WEAK_PARTIAL_MONOID, False, True): 2,
                        (palg.WEAK_PARTIAL_MONOID, False, False): 24,
                        (palg.MAGMA, False, False): 160}


def test_segal_stops_at_level_3_only_where_oracles_agree_above_it():
    """On spiny 2-coskeletal sets the Segal pass answers every level from
    its level-3 verdicts; above level 3 these agree with the enumeration
    oracles, and spiny and 2-coskeletal with is_spiny and is_coskeletal_2.
    Two nerves of each class of the 3-element census and the commutative
    nerve of S3, at K=5, and that of Z4 at K=4, all stop at level 3.  The
    L_Y space and the hollow 4-simplex are spiny but not 2-coskeletal, so
    the per-level loop still decides them above level 3; the hollow simplex
    first fails both Segal conditions at level 4.  The whole census and Z4
    at K=5 agree too, but their oracles take about 40 s."""
    rng = random.Random(15)
    by_class = {}
    for m in three_element_magmas():
        by_class.setdefault(palg.classify(m)[0], []).append(m)
    gated = [nerve_of(m, 5) for ms in by_class.values() for m in rng.sample(ms, 2)]
    gated += [nv.comm_nerve(nv.symmetric_group(3), None, 5),
              nv.comm_nerve(nv.cyclic_group(4), None, 4)]
    z4 = nv.cyclic_group(4)
    fallback = [nv.action_partial_group(z4, 4, nv.translation_action(z4), [0, 1, 2], 5),
                hollow_simplex(4, 5)]
    for x, stops in [(x, True) for x in gated] + [(x, False) for x in fallback]:
        _, spiny, two, weak, cosk = sset.segal(x)
        assert spiny == sset_oracles.is_spiny(x) and spiny[0], x.counts
        assert cosk == sset.is_coskeletal_2(x) and cosk[0] == stops, x.counts
        assert two == oracle_two_segal(x), x.counts
        assert weak == oracle_weakly_two_segal(x), x.counts
    _, _, two, weak, _ = sset.segal(fallback[1])
    assert not two[0] and not weak[0] and two[1][1] == weak[1][1] == 4


def test_weak_two_segal_beyond_level_3_needs_spiny():
    """The 2-coskeletal extension of one vertex with a second 2-simplex on
    the degenerate edge is 2-coskeletal and weakly 2-Segal at level 3, but
    not spiny, and not weakly 2-Segal at level 4: the Segal pass may stop at
    level 3 only on spiny sets."""
    x = sset.cosk2_extend(sset.from_nondegenerate(2, DEGENERATE_TRIANGLE_CELLS), 4)
    assert x.counts == [1, 1, 2, 16, 1024]
    assert sset.segal(sset.truncate(x, 3))[3] == (True, None)
    _, spiny, _, weak, cosk = sset.segal(x)
    assert cosk == (True, None) and not spiny[0]
    assert weak == (False, ("unfilled", 4, (0, 0, 0, 0))) == oracle_weakly_two_segal(x)


@pytest.mark.parametrize("n, counts, spine", [
    (2, [15, 66, 190, 435], (49, 30, 11)), (3, [21, 96, 280, 645], (69, 42, 13))])
def test_effect_functor_of_mo_n_on_simplex_is_weakly_but_not_two_segal(n, counts, spine):
    """E_MOn(Delta^2), for the horizontal sum MOn of n copies of bool2, is
    spiny, inverseless, weakly 2-Segal and 2-coskeletal, but not 2-Segal: it
    passes the simplicial-effect checks that need no cyclic structure and
    fails the 2-Segal condition of effect algebroids."""
    e = horizontal_sum(n)
    assert all(ch.ok for ch in palg.validate_effect_algebra(e))
    x = nv.effect_functor(e, sset.standard_simplex(2, 3))
    assert x.counts == counts
    assert sset.validate(x) == []
    bad, spiny, two, weak, cosk = sset.segal(x)
    assert bad == [] and spiny == weak == cosk == (True, None)
    assert sset.is_inverseless_sset(x) == (True, None)
    tri = sset.Triangulation(3, ((0, 1, 2), (0, 2, 3)))
    assert two == (False, ("unfilled", 3, tri, spine)) == oracle_two_segal(x)
    assert weak == oracle_weakly_two_segal(x)


def test_subface_tables_match_subface():
    for x in (sset.cosk2_extend(two_triangles_shared_spine(2), 4), delta_w3()):
        for n in range(2, x.K + 1):
            tables = sset.subface_tables(x, n)
            assert len(tables) == 2 ** (n + 1) - n - 2
            for c, tab in tables.items():
                assert tab == [sset.subface(x, n, s, c) for s in x.simplices(n)]


def test_checks_leave_the_structure_as_built():
    """No checker caches anything on the structure: after the Segal pass,
    the coskeletal check and a membrane count its attributes are as built,
    and none is added."""
    x = nv.comm_nerve(nv.quaternion_group(), None, 4)
    built = {k: repr(v) for k, v in vars(x).items()}
    sset.segal(x)
    sset.is_coskeletal_2(x)
    sset.membrane_counts(x, 4, sset.triangulations(4)[0])
    assert {k: repr(v) for k, v in vars(x).items()} == built
    assert not hasattr(x, "face_index")


def test_segal_checks_need_simplicial_identities():
    """Where the simplicial identities fail, the Segal pass still decides
    spiny and fails both Segal verdicts; the coskeletal check raises."""
    x = nv.comm_nerve(nv.quaternion_group(), None, 3)
    x.face[(2, 1)][x.counts[2] - 1] = x.face[(2, 1)][0]
    assert sset.validate(x)
    bad, spiny, two, weak, cosk = sset.segal(x)
    assert bad == sset.validate(x)
    assert spiny == sset_oracles.is_spiny(x)
    assert two == weak == cosk == (False, "simplicial identities fail")
    with pytest.raises(StructureError):
        sset.is_coskeletal_2(x)


# ---------------------------------------------------------------------------
# coskeletality


def test_coskeletal_comm_nerve(q8_nerve):
    assert sset.is_coskeletal_2(q8_nerve)[0]


def test_coskeletal_fails_on_hollow_simplex():
    hollow = hollow_simplex(3, 3)
    assert sset.validate(hollow) == []
    ok, wit = sset.is_coskeletal_2(hollow)
    assert not ok and wit[0] == "unfilled"


def _coskeletal_census():
    """The 829 sets the pair count of is_coskeletal_2 is checked on: every
    3-element magma nerve at K = 3, 4 and 5, 40 seeded random size-4 magma
    nerves, 12 L_Y spaces of Z4, Q8 and S3 for random Y, two sets that are
    not spiny at level 2, delta_w3, and hollow and doubled simplices that
    fail at level 3 or 4."""
    for m in three_element_magmas():
        for K in (3, 4, 5):
            yield nerve_of(m, K)
    rng = random.Random(19)
    for k in range(40):
        yield nerve_of(random_magma(rng, 4, density=rng.uniform(0.2, 0.9)), 3 + k % 3)
    for g, K in ((nv.cyclic_group(4), 5), (nv.quaternion_group(), 4),
                 (nv.symmetric_group(3), 4)):
        for _ in range(4):
            y = sorted(rng.sample(range(g.order), rng.randrange(1, g.order + 1)))
            yield nv.action_partial_group(g, g.order, nv.translation_action(g), y, K)
    yield sset.cosk2_extend(two_triangles_shared_spine(2), 4)
    yield sset.cosk2_extend(sset.from_nondegenerate(2, DEGENERATE_TRIANGLE_CELLS), 4)
    yield delta_w3(4)
    for d, K, fillers in ((3, 4, 0), (3, 3, 2), (4, 5, 0), (4, 4, 2), (4, 5, 3)):
        yield hollow_simplex(d, K, fillers)
    # the tetrahedra 0123, with two 3-cells, and 0124, with none, on a common
    # triangle: the pairs number |X_3|, but two 3-simplices share a boundary
    yield hollow_simplices([(0, 1, 2, 3), (0, 1, 2, 4)], 3, [2, 0])


def test_coskeletal_pairs_match_the_listing(monkeypatch):
    """is_coskeletal_2 gives the verdict and witness of the boundary listing
    on the whole census.  It lists boundaries only at the level where its
    pair count fails, or at every level it reaches on a set that is not
    spiny at level 2."""
    listed = []
    listing = sset.boundary_membranes

    def counting(x, n):
        listed.append(n)
        return listing(x, n)

    seen = Counter()
    for x in _coskeletal_census():
        want = coskeletal_2(x)
        listed.clear()
        with monkeypatch.context() as mp:
            mp.setattr(sset, "boundary_membranes", counting)
            assert sset.is_coskeletal_2(x) == want, x.counts
        spiny2 = len(set(zip(x.face[(2, 2)], x.face[(2, 0)]))) == x.counts[2]
        last = x.K if want[0] else want[1][1]
        assert listed == (list(range(3, last + 1)) if not spiny2 else [] if want[0] else [last])
        seen[(spiny2, want[0] or want[1][:2])] += 1
    assert seen == {(True, True): 817, (True, ("unfilled", 3)): 5, (True, ("unfilled", 4)): 1,
                    (True, ("multiple", 3)): 2, (True, ("multiple", 4)): 2,
                    (False, True): 2}, seen


def test_coskeletal_raises_like_the_listing():
    """Where the faces of a simplex are not a compatible boundary,
    is_coskeletal_2 raises the listing's StructureError, naming the same
    simplex, whether the bad face lies at level 2, 3 or 4."""
    for n, i in ((2, 1), (3, 2), (4, 0), (4, 3)):
        x = nv.comm_nerve(nv.quaternion_group(), None, 4)
        x.face[(n, i)][-1] = x.face[(n, i)][0]
        errors = []
        for check in (sset.is_coskeletal_2, coskeletal_2):
            with pytest.raises(StructureError) as exc:
                check(x)
            errors.append(str(exc.value))
        assert errors[0] == errors[1], (n, i)


def test_coskeletal_decides_lower_levels_before_raising():
    """A set that fails at level 3 and breaks a face identity at level 4
    gets the listing's level-3 verdict, not the level-4 error."""
    x = hollow_simplex(3, 4, 0)
    x.face[(4, 0)][-1] = (x.face[(4, 0)][-1] + 1) % x.counts[3]
    assert sset.validate(x)
    want = (False, ("unfilled", 3, (19, 18, 17, 16)))
    assert sset.is_coskeletal_2(x) == coskeletal_2(x) == want


def test_spiny_weakly_two_segal_implies_coskeletal(q8_nerve):
    for x in (q8_nerve,
              nerve_of(palg.interval_effect_algebra(2).magma, 4),
              nv.comm_nerve(nv.dihedral_group(4), None, 4)):
        assert sset_oracles.is_spiny(x)[0]
        assert sset.segal(x)[3][0]
        assert sset.is_coskeletal_2(x)[0]


def test_cosk2_extend_z2(z2_nerve):
    ext = sset.cosk2_extend(sset.truncate(z2_nerve, 2), 4)
    assert sset.validate(ext) == []
    assert sset.is_coskeletal_2(ext)[0]
    assert sset_equal(sset.canonicalize_spiny(ext), sset.canonicalize_spiny(z2_nerve))


def test_cosk2_extend_q8(q8_nerve):
    ext = sset.cosk2_extend(sset.truncate(q8_nerve, 2), 4)
    assert sset_equal(sset.canonicalize_spiny(ext), sset.canonicalize_spiny(q8_nerve))


def test_cosk2_extend_point():
    p2 = sset.truncate(point(2), 2)
    ext = sset.cosk2_extend(p2, 4)
    assert ext.counts == [1, 1, 1, 1, 1]
    assert sset.validate(ext) == []


def test_cosk2_fixpoint_iff_coskeletal():
    # the L_Y space is spiny and reduced but not 2-coskeletal, so the
    # coskeletal extension of its 2-truncation differs from it
    z4 = nv.cyclic_group(4)
    ly = nv.action_partial_group(z4, 4, nv.translation_action(z4), [0, 1, 2], 4)
    assert not sset.is_coskeletal_2(ly)[0]
    ext = sset.cosk2_extend(sset.truncate(ly, 2), 4)
    assert ext.counts != ly.counts


# ---------------------------------------------------------------------------
# canonical form, isomorphism, json


def test_canonicalize_idempotent(q8_nerve):
    c1 = sset.canonicalize_spiny(q8_nerve)
    assert sset_equal(sset.canonicalize_spiny(c1), c1)


def test_isomorphic_rejects_different():
    a = nerve_of(nv.magma_of_group(nv.cyclic_group(2)), 3)
    l2 = palg.interval_effect_algebra(2)
    b = nerve_of(l2.magma, 3)
    assert sset_isomorphic(a, b) is None


def test_sset_json_roundtrip(q8_nerve):
    again = sset.TruncatedSSet.from_json_dict(q8_nerve.to_json_dict())
    assert sset_equal(again, q8_nerve)


def test_membrane_boundary_above_truncation(q8_nerve):
    # boundary membranes are available one level above the truncation
    x = sset.truncate(q8_nerve, 3)
    mems = membrane_set(x, 4, BOUNDARY)
    assert len(mems) == q8_nerve.counts[4]
    with pytest.raises(InputError):
        membrane_set(x, 4, SPINE)


# ---------------------------------------------------------------------------
# the face-pair index against the spine walks it replaced


def _relabelled(x, seed):
    """x with the ids of each level >= 2 moved by a seeded permutation, its
    labels moved with them."""
    rng = random.Random(seed)
    new_id = [list(x.simplices(n)) for n in range(x.K + 1)]
    for n in range(2, x.K + 1):
        rng.shuffle(new_id[n])

    def moved(n, tab, step):
        out = [None] * len(tab)
        for s, v in enumerate(tab):
            out[new_id[n][s]] = v if step is None else new_id[n + step][v]
        return out

    return sset.TruncatedSSet(x.K, x.counts,
                              {(n, i): moved(n, t, -1) for (n, i), t in x.face.items()},
                              {(n, i): moved(n, t, 1) for (n, i), t in x.deg.items()},
                              {n: moved(n, lab, None) for n, lab in x.labels.items()})


def _same_as_spine_walks(x):
    """The canonical form of x, after checking it, labels included, and the
    magma and datum read off x against the spine walks."""
    canon = sset.canonicalize_spiny(x)
    want = sset_oracles.canonicalize_spiny(x)
    assert sset_equal(canon, want) and canon.labels == want.labels, x.counts
    m, d = nv.magma_from_sset(x)
    m0, d0 = sset_oracles.magma_from_sset(x)
    assert m == m0 and d.levels == d0.levels, x.counts
    return canon


def _same_tau(name, *args):
    """The cyclic construction name gives the tuple-map oracle's tau or message."""
    def run(construct):
        try:
            return construct(*args).tau
        except InputError as exc:
            return str(exc)
    assert run(TWISTS[name]) == run(getattr(cyclic_oracles, name)), (name, args[-1].counts)


def test_face_pair_constructions_match_the_spine_walks():
    """canonicalize_spiny, magma_from_sset, the cyclic constructions and
    effect_circle_iso, which read face pairs, agree with the spine walks, the
    tuple-map tau and the label readout: on the K=4 nerves of all 256 magmas
    on three elements, whose magma and datum also round trip, and on seeded
    relabellings of their levels >= 2, which keep the canonical form; on the
    Q8 and S4 commutative nerves and L_Y(S3) at K=5; and on the K=5 effect
    nerves of L1-L4, bool2 and bool3."""
    for seed, m in enumerate(three_element_magmas()):
        x = nerve_of(m, 4)
        canon = _same_as_spine_walks(x)
        assert nv.magma_from_sset(x) == (m, palg.max_associativity_datum(m, 4))
        moved = _same_as_spine_walks(_relabelled(x, seed))
        assert sset_equal(moved, canon) and moved.labels == canon.labels
    s3 = nv.symmetric_group(3)
    groups = [(g, nv.comm_nerve(g, None, 5)) for g in (nv.quaternion_group(), nv.symmetric_group(4))]
    groups.append((s3, nv.action_partial_group(s3, 6, nv.translation_action(s3), [0, 1, 2], 5)))
    for g, x in groups:
        _same_as_spine_walks(x)
        for z in range(g.order):
            _same_tau("group_nerve_cyclic", g, z, x)
    effects = [palg.interval_effect_algebra(n) for n in (1, 2, 3, 4)] + [
        palg.boolean_effect_algebra(n) for n in (2, 3)]
    for e in effects:
        x = nerve_of(e.magma, 5)
        _same_as_spine_walks(x)
        _same_tau("effect_nerve_cyclic", e, x)
        _same_tau("effect_nerve_cyclic", e, _relabelled(x, e.size))
        ex, ne, maps = nv.effect_circle_iso(e, 5)
        assert maps == sset_oracles.circle_readout(ex, ne)


def test_face_pair_extend_names_the_first_simplex_without_image():
    """On the L2 nerve the identity of the edges extends to the identity,
    and swapping the edges 1 and 2 sends (1, 1), simplex 4, to (2, 2),
    which is not a 2-simplex."""
    x = nerve_of(palg.interval_effect_algebra(2).magma, 3)
    below = [0, 1, 2]
    for n in (2, 3):
        below, miss = sset.face_pair_extend(x, n, below, sset.face_pair_index(x, n)[0])
        assert below == list(x.simplices(n)) and miss is None
    table, miss = sset.face_pair_extend(x, 2, [0, 2, 1], sset.face_pair_index(x, 2)[0])
    assert x.labels[2][miss] == (1, 1) and miss == 4
    assert [x.labels[2][t] if t is not None else None for t in table] == [
        (0, 0), (0, 2), (0, 1), (2, 0), None, (1, 0)]


def _broken_identities(x, seed, count):
    """count copies of x, each with one face entry at a seeded place moved to
    another simplex, that break the simplicial identities."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randrange(2, x.K + 1)
        i, s = rng.randrange(n + 1), rng.randrange(x.counts[n])
        face = dict(x.face)
        face[(n, i)] = list(face[(n, i)])
        face[(n, i)][s] = (face[(n, i)][s] + rng.randrange(1, x.counts[n - 1])) % x.counts[n - 1]
        y = sset.TruncatedSSet(x.K, x.counts, face, x.deg, x.labels)
        if sset.validate(y):
            out.append(y)
    return out


def test_face_pair_constructions_need_the_simplicial_identities():
    """Face pairs tell simplices apart as spines do only where the simplicial
    identities hold, so canonicalize_spiny and magma_from_sset name the first
    failed identity; on a non-spiny set they keep is_spiny's witness."""
    for y in _broken_identities(nerve_of(palg.interval_effect_algebra(2).magma, 4), 5, 60):
        want = "simplicial identity {} fails at level {} {}, simplex {}".format(
            *sset.validate(y)[0])
        for build in (sset.canonicalize_spiny, nv.magma_from_sset):
            with pytest.raises(InputError) as err:
                build(y)
            assert str(err.value) == want
    for x in (two_triangles_shared_spine(), sset.cosk2_extend(two_triangles_shared_spine(2), 3)):
        assert sset_oracles.is_spiny(x) == (False, (2, 11, 12))
        for build in (sset.canonicalize_spiny, nv.magma_from_sset):
            with pytest.raises(InputError, match=re.escape("collision (2, 11, 12)")):
                build(x)
