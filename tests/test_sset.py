import itertools
import math
import random
from collections import Counter

import pytest

from simpeff import nerve as nv
from simpeff import palg, sset
from simpeff.util import InputError, StructureError

from conftest import random_magma, three_element_magmas
from sset_oracles import (BOUNDARY, SPINE, membrane_set, sset_equal, sset_isomorphic,
                          triangulations)
from test_golden import _twin_tetra

I, J = 2, 4  # Q8 ids for i and j


def nerve_of(magma, K=4):
    return nv.nerve(magma, palg.max_associativity_datum(magma, K), K)


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


def test_from_nondegenerate_matches_standard_simplex():
    gens = [
        ("v0", 0, []), ("v1", 0, []), ("v2", 0, []),
        ("e01", 1, [("v1", (0,)), ("v0", (0,))]),
        ("e12", 1, [("v2", (0,)), ("v1", (0,))]),
        ("e02", 1, [("v2", (0,)), ("v0", (0,))]),
        ("t", 2, [("e12", (0, 1)), ("e02", (0, 1)), ("e01", (0, 1))]),
    ]
    built = sset.from_nondegenerate(3, gens)
    assert sset.validate(built) == []
    assert built.counts == sset.standard_simplex(2, 3).counts
    assert sset_isomorphic(built, sset.standard_simplex(2, 3)) is not None


def test_from_nondegenerate_circle_matches_formulas():
    built = sset.from_nondegenerate(4, [("*", 0, []),
                                        ("loop", 1, [("*", (0,)), ("*", (0,))])])
    circle = nv.simplicial_circle(4)
    assert sset.validate(built) == []
    assert built.counts == circle.counts
    assert sset_isomorphic(built, circle) is not None


# ---------------------------------------------------------------------------
# spiny / reduced / inverseless


def test_spiny(q8_nerve, z2_nerve):
    assert sset.is_spiny(q8_nerve)[0]
    assert sset.is_spiny(z2_nerve)[0]
    ok, wit = sset.is_spiny(sset.two_triangles_shared_spine())
    assert not ok and wit[0] == 2


def test_reduced():
    assert sset.is_reduced(sset.point(3))
    assert not sset.is_reduced(sset.standard_simplex(1, 2))
    assert sset.is_reduced(nv.comm_nerve(nv.symmetric_group(3), None, 3))


def test_inverseless_sset(z2_nerve):
    l2 = palg.interval_effect_algebra(2)
    assert sset.is_inverseless_sset(nerve_of(l2.magma))[0]
    ok, wit = sset.is_inverseless_sset(z2_nerve)
    assert not ok and z2_nerve.labels[2][wit] == (1, 1)
    assert sset.is_inverseless_sset(sset.point(3))[0]


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
              _twin_tetra(), sset.delta_w3(4),
              sset.cosk2_extend(sset.two_triangles_shared_spine(2), 4)):
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
    _, _, (ok, wit), _ = sset.segal(x)
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
    *_, (ok, wit) = sset.segal(ly)
    assert not ok
    assert wit[0] == "unfilled" and wit[1] == 3 and tuple(wit[2]) == (1, 1, 1)


def test_weakly_two_segal_delta_w3_fails():
    w3 = sset.delta_w3()
    assert sset.validate(w3) == []
    *_, (ok, wit) = sset.segal(w3)
    assert not ok and wit[0] == "unfilled"


def test_two_segal_implies_weakly(q8_nerve):
    l2 = palg.interval_effect_algebra(2)
    instances = [nerve_of(nv.magma_of_group(nv.cyclic_group(3)), 4),
                 nerve_of(l2.magma, 4)]
    for x in instances:
        _, _, two, weak = sset.segal(x)
        assert two[0]
        assert weak[0]
    # converse separation: Q8 nerve is weakly 2-Segal but not 2-Segal
    _, _, two, weak = sset.segal(q8_nerve)
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
        yield f"cosk-ttss{K}", sset.cosk2_extend(sset.two_triangles_shared_spine(2), K)
        yield f"simplex{K}", sset.standard_simplex(3, K)
    yield "delta_w3", sset.delta_w3()
    yield "twin", two_tetrahedra(False)
    yield "split", two_tetrahedra(True)


def test_segal_counting_matches_enumeration():
    verdicts = set()
    for name, x in _oracle_instances():
        assert sset.validate(x) == [], name
        bad, spiny, two, weak = sset.segal(x)
        assert bad == [] and spiny == sset.is_spiny(x), name
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
        _, spiny, two, (weak, _) = sset.segal(x)
        assert spiny == sset.is_spiny(x), m.product
        tally[(palg.classify(m)[0], weak, two[0], sset.is_coskeletal_2(x)[0])] += 1
        inverseless = sset.is_inverseless_sset(x)[0]
        assert inverseless == palg.is_inverseless(m), m.product
        assert two == oracle_two_segal(x), m.product
        effect = spiny[0] and inverseless and weak
        extremes[(palg.classify(m)[0], effect,
                  palg.is_weakly_associative_partial_group(m, 3)[0])] += 1
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


def test_subface_tables_match_subface():
    for x in (sset.cosk2_extend(sset.two_triangles_shared_spine(2), 4), sset.delta_w3()):
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
    bad, spiny, two, weak = sset.segal(x)
    assert bad == sset.validate(x)
    assert spiny == sset.is_spiny(x)
    assert two == weak == (False, "simplicial identities fail")
    with pytest.raises(StructureError):
        sset.is_coskeletal_2(x)


# ---------------------------------------------------------------------------
# coskeletality


def test_coskeletal_comm_nerve(q8_nerve):
    assert sset.is_coskeletal_2(q8_nerve)[0]


def test_coskeletal_fails_on_hollow_simplex():
    gens = [
        ("v0", 0, []), ("v1", 0, []), ("v2", 0, []), ("v3", 0, []),
        ("e01", 1, [("v1", (0,)), ("v0", (0,))]),
        ("e12", 1, [("v2", (0,)), ("v1", (0,))]),
        ("e23", 1, [("v3", (0,)), ("v2", (0,))]),
        ("e02", 1, [("v2", (0,)), ("v0", (0,))]),
        ("e13", 1, [("v3", (0,)), ("v1", (0,))]),
        ("e03", 1, [("v3", (0,)), ("v0", (0,))]),
        ("t012", 2, [("e12", (0, 1)), ("e02", (0, 1)), ("e01", (0, 1))]),
        ("t023", 2, [("e23", (0, 1)), ("e03", (0, 1)), ("e02", (0, 1))]),
        ("t013", 2, [("e13", (0, 1)), ("e03", (0, 1)), ("e01", (0, 1))]),
        ("t123", 2, [("e23", (0, 1)), ("e13", (0, 1)), ("e12", (0, 1))]),
    ]
    hollow = sset.from_nondegenerate(3, gens)
    assert sset.validate(hollow) == []
    ok, wit = sset.is_coskeletal_2(hollow)
    assert not ok and wit[0] == "unfilled"


def test_spiny_weakly_two_segal_implies_coskeletal(q8_nerve):
    for x in (q8_nerve,
              nerve_of(palg.interval_effect_algebra(2).magma, 4),
              nv.comm_nerve(nv.dihedral_group(4), None, 4)):
        assert sset.is_spiny(x)[0]
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
    p2 = sset.truncate(sset.point(2), 2)
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
