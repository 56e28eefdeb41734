import functools
import itertools
import random

import pytest

from simpeff import nerve as nv
from simpeff import palg, sset
from simpeff.util import InputError, StructureError

from conftest import random_magma
from sset_oracles import sset_equal


def nerve_of(magma, K=4):
    return nv.nerve(magma, palg.max_associativity_datum(magma, K), K)


# ---------------------------------------------------------------------------
# groups


def test_group_builders_validate():
    for g in (nv.cyclic_group(1), nv.cyclic_group(4), nv.quaternion_group(),
              nv.dihedral_group(4), nv.symmetric_group(3)):
        g.validate()


def test_q8_structure():
    q8 = nv.quaternion_group()
    assert q8.order == 8
    assert q8.center() == [0, 1]
    assert sorted(len(q8.centralizer(a)) for a in range(8)) == [4] * 6 + [8, 8]
    assert q8.inv(2) == 3  # i^-1 = -i


def test_group_json_roundtrip():
    g = nv.dihedral_group(4)
    assert nv.FiniteGroup.from_json_dict(g.to_json_dict()) == g


# ---------------------------------------------------------------------------
# nerve and reconstruction


def test_nerve_point_like():
    m = palg.PartialUnitalMagma(1, {(0, 0): 0})
    x = nerve_of(m, 4)
    assert x.counts == [1, 1, 1, 1, 1]
    assert sset.validate(x) == []


def test_nerve_l2_level2():
    l2 = palg.interval_effect_algebra(2)
    x = nerve_of(l2.magma, 3)
    assert x.counts[2] == 6
    assert set(x.labels[2]) == {(a, b) for a in range(3) for b in range(3) if a + b <= 2}


def test_nerve_z2():
    x = nerve_of(nv.magma_of_group(nv.cyclic_group(2)), 3)
    assert x.counts == [1, 2, 4, 8]
    assert sset.validate(x) == []


def test_nerve_spiny_reduced():
    rng = random.Random(1)
    for _ in range(10):
        m = random_magma(rng, rng.randrange(1, 6))
        x = nerve_of(m, 3)
        assert sset.validate(x) == []
        assert sset.is_spiny(x)[0] and sset.is_reduced(x)


def test_chain_magma_is_segal_partial_monoid():
    # the interval magma D^n is a genuinely noncommutative partial monoid;
    # its nerve must pass the full 2-Segal battery
    for n in (2, 3):
        m = nv.chain_magma(n)
        assert palg.classify(m)[0] == palg.PARTIAL_MONOID
        x = nerve_of(m, 3)
        assert sset.validate(x) == []
        assert sset.segal(x)[2][0]
        assert sset.is_coskeletal_2(x)[0]


def test_magma_from_sset_roundtrip_l2():
    l2 = palg.interval_effect_algebra(2)
    datum = palg.max_associativity_datum(l2.magma, 4)
    x = nv.nerve(l2.magma, datum, 4)
    m2, d2 = nv.magma_from_sset(x)
    assert m2 == l2.magma and d2.levels == datum.levels


def test_magma_from_sset_q8():
    q8 = nv.quaternion_group()
    m, _ = nv.magma_from_sset(nv.comm_nerve(q8, None, 4))
    assert m == nv.commuting_magma(q8)


def test_magma_from_sset_point():
    m, _ = nv.magma_from_sset(sset.point(3))
    assert m.size == 1


def test_magma_from_sset_rejects_nonspiny():
    with pytest.raises(InputError):
        nv.magma_from_sset(sset.two_triangles_shared_spine())


def test_nerve_roundtrip_random():
    rng = random.Random(9)
    for _ in range(15):
        m = random_magma(rng, rng.randrange(1, 7))
        datum = palg.max_associativity_datum(m, 4)
        x = nv.nerve(m, datum, 4)
        m2, d2 = nv.magma_from_sset(x)
        assert m2 == m and d2.levels == datum.levels
        assert sset_equal(nv.nerve(m2, d2, 4), x)


# ---------------------------------------------------------------------------
# commutative nerves


def test_comm_nerve_q8_counts():
    q8 = nv.quaternion_group()
    x = nv.comm_nerve(q8, None, 3)
    # oracle: sum of centralizer orders
    assert x.counts[2] == sum(len(q8.centralizer(a)) for a in range(8)) == 40
    assert x.counts[1] == 8


def test_comm_nerve_q8_torsion2():
    x = nv.comm_nerve(nv.quaternion_group(), 2, 2)
    assert x.counts[1] == 2 and x.counts[2] == 4


def test_comm_nerve_abelian_is_full_nerve():
    z6 = nv.cyclic_group(6)
    x = nv.comm_nerve(z6, None, 3)
    full = nerve_of(nv.magma_of_group(z6), 3)
    assert sset_equal(sset.canonicalize_spiny(x), sset.canonicalize_spiny(full))


def test_comm_nerve_battery():
    for g in (nv.symmetric_group(3), nv.dihedral_group(4)):
        x = nv.comm_nerve(g, None, 4)
        assert sset.validate(x) == []
        assert sset.is_spiny(x)[0]
        assert sset.is_reduced(x)
        assert sset.is_coskeletal_2(x)[0]
        assert sset.segal(x)[3][0]


GROUPS = {"q8": nv.quaternion_group(), "d4": nv.dihedral_group(4),
          "s3": nv.symmetric_group(3), "s4": nv.symmetric_group(4)}


def _level(x, n):
    """Level n of a tuple nerve as tuples (level 1 is labelled by elements)."""
    return [(v,) for v in x.labels[1]] if n == 1 else list(x.labels[n])


@pytest.mark.parametrize("name, torsion", [("q8", None), ("q8", 2), ("d4", None), ("d4", 2)])
def test_comm_nerve_levels_match_brute_force(name, torsion):
    """Oracle: every tuple over the torsion carrier, kept when pairwise commuting."""
    g = GROUPS[name]
    carrier = [a for a in range(g.order) if torsion is None or g.power(a, torsion) == 0]
    x = nv.comm_nerve(g, torsion, 4)
    for n in range(1, 5):
        want = [t for t in itertools.product(carrier, repeat=n)
                if all(g.commute(a, b) for a, b in itertools.combinations(t, 2))]
        assert _level(x, n) == want


# ---------------------------------------------------------------------------
# action partial groups


def _has_chain(action, yset, t):
    """Reference predicate: some chain y_0 -> .. -> y_n with y_i = y_{i-1}.g_i stays in Y."""
    live = set(yset)
    for a in t:
        live = {action[a][y] for y in live} & set(yset)
        if not live:
            return False
    return True


@pytest.mark.parametrize("name, K, seed", [("s3", 4, 0), ("s3", 4, 1), ("s3", 4, 2),
                                           ("s4", 3, 0), ("s4", 3, 1)])
def test_action_partial_group_levels_match_brute_force(name, K, seed):
    """Oracle: every tuple of group elements, kept when it admits a chain in Y."""
    g = GROUPS[name]
    rng = random.Random(seed)
    y = rng.sample(range(g.order), rng.randrange(1, g.order + 1))
    action = nv.translation_action(g)
    x = nv.action_partial_group(g, g.order, action, y, K)
    for n in range(1, K + 1):
        want = [t for t in itertools.product(range(g.order), repeat=n)
                if _has_chain(action, y, t)]
        assert _level(x, n) == want


def test_action_partial_group_ly():
    z4 = nv.cyclic_group(4)
    ly = nv.action_partial_group(z4, 4, nv.translation_action(z4), [0, 1, 2], 3)
    pairs = set(ly.labels[2])
    assert {(1, 1), (2, 1), (1, 2)} <= pairs
    assert (1, 1, 1) not in set(ly.labels[3])
    assert sset.is_spiny(ly)[0] and sset.is_reduced(ly)
    assert sset.validate(ly) == []


def test_action_full_subset_is_group_nerve():
    z4 = nv.cyclic_group(4)
    ly = nv.action_partial_group(z4, 4, nv.translation_action(z4), [0, 1, 2, 3], 3)
    full = nerve_of(nv.magma_of_group(z4), 3)
    assert ly.counts == full.counts
    assert sset_equal(sset.canonicalize_spiny(ly), sset.canonicalize_spiny(full))


def test_action_singleton_orbit_point():
    z4 = nv.cyclic_group(4)
    ly = nv.action_partial_group(z4, 4, nv.translation_action(z4), [0], 3)
    assert ly.counts == [1, 1, 1, 1]
    assert all(lab == (0,) * n for n in range(2, 4) for lab in ly.labels[n])


def test_action_invalid_table():
    z4 = nv.cyclic_group(4)
    bad = nv.translation_action(z4)
    bad[1][0] = 2  # breaks the action law
    with pytest.raises(InputError):
        nv.action_partial_group(z4, 4, bad, [0, 1], 3)


# ---------------------------------------------------------------------------
# tuple_nerve tables against the key-based builder


def _key_based_nerve(levels, mul):
    """Oracle: the builder tuple_nerve replaced, which hashes the tuple of
    every face and degeneracy."""
    x = sset.from_levels(levels, functools.partial(nv.tuple_face, mul), nv.insert_unit)
    x.labels[0] = ["*"]
    x.labels[1] = [t[0] for t in levels[1]]
    return x


def _magma_table(m):
    return [[m.mul(a, b) for b in m.elements()] for a in m.elements()]


def _seeded_y(size, seed):
    rng = random.Random(seed)
    return rng.sample(range(size), rng.randrange(1, size + 1))


def _translation_pg(g, seed, K):
    return nv.action_partial_group(g, g.order, nv.translation_action(g),
                                   _seeded_y(g.order, seed), K)


S3_ON_3 = [[0, 1, 2], [0, 2, 1], [1, 0, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]]
Q8, D4, S3, S4 = (GROUPS[name] for name in ("q8", "d4", "s3", "s4"))
# name -> () -> (tuple nerve, its multiplication table)
TUPLE_NERVES = {
    "comm q8 t4": lambda: (nv.comm_nerve(Q8, 4, 4), Q8.mul),
    "comm d4 t2": lambda: (nv.comm_nerve(D4, 2, 4), D4.mul),
    "comm s4 K5": lambda: (nv.comm_nerve(S4, None, 5), S4.mul),
    "action s4 seed 0": lambda: (_translation_pg(S4, 0, 3), S4.mul),
    **{f"action s3 seed {seed}": lambda seed=seed: (_translation_pg(S3, seed, 4), S3.mul)
       for seed in range(3)},
    **{f"action s3 on 3 seed {seed}": lambda seed=seed: (
        nv.action_partial_group(S3, 3, S3_ON_3, _seeded_y(3, seed), 4), S3.mul)
       for seed in range(3)},
    **{name: lambda m=m: (nerve_of(m, 4), _magma_table(m))
       for name, m in (("bool3", palg.boolean_effect_algebra(3).magma),
                       ("l4", palg.interval_effect_algebra(4).magma),
                       ("chain 3", nv.chain_magma(3)))},
}


@pytest.mark.parametrize("name", sorted(TUPLE_NERVES))
def test_tuple_nerve_matches_key_based_builder(name):
    x, mul = TUPLE_NERVES[name]()
    want = _key_based_nerve([[()]] + [_level(x, n) for n in range(1, x.K + 1)], mul)
    assert x.counts == want.counts
    assert x.face == want.face
    assert x.deg == want.deg
    assert x.labels == want.labels


@pytest.mark.parametrize("missing, op", [("parent", "d_3"), ("inner face", "d_0"),
                                         ("degeneracy", "s_2")])
def test_tuple_nerve_rejects_levels_not_closed(missing, op):
    """Z/3 nerve levels to K=3 with (1, 2) or (1, 2, 0) left out."""
    levels = [list(itertools.product(range(3), repeat=n)) for n in range(4)]
    if missing == "degeneracy":
        levels[3].remove((1, 2, 0))  # s_2 (1, 2)
    else:
        levels[2].remove((1, 2))  # d_3 (1, 2, c), and d_0 (a, 1, 2)
        if missing == "inner face":
            levels[3] = [t for t in levels[3] if t[:2] != (1, 2)]
    with pytest.raises(StructureError, match=f"not closed under {op} "):
        nv.tuple_nerve(levels, nv.cyclic_group(3).mul)


def test_tuple_nerve_rejects_undefined_product():
    l2 = palg.interval_effect_algebra(2).magma
    levels = [[()], [(0,), (1,), (2,)], [(a, b) for a in range(3) for b in range(3)]]
    with pytest.raises(StructureError):
        nv.tuple_nerve(levels, _magma_table(l2))


# ---------------------------------------------------------------------------
# effect functor and circle


def test_simplicial_circle_structure():
    c = nv.simplicial_circle(3)
    assert c.counts == [1, 2, 3, 4]
    assert sset.validate(c) == []
    # d_0(theta^1) = star at level 1; s_0(theta^1) = theta^2
    assert c.face[(1, 0)][1] == 0
    assert c.deg[(1, 0)][1] == 2 and c.labels[2][2] == "theta^2"


def test_effect_functor_circle_counts():
    l2 = palg.interval_effect_algebra(2)
    ex = nv.effect_functor(l2, nv.simplicial_circle(4))
    assert ex.counts[1] == 3
    assert ex.counts[2] == 6
    assert sset.validate(ex) == []


def test_effect_functor_point():
    l3 = palg.interval_effect_algebra(3)
    ex = nv.effect_functor(l3, sset.point(3))
    assert ex.counts == [1, 1, 1, 1]


def test_effect_circle_iso_is_simplicial_isomorphism():
    for e in (palg.interval_effect_algebra(2), palg.interval_effect_algebra(3),
              palg.boolean_effect_algebra(2)):
        ex, ne, maps = nv.effect_circle_iso(e, 4)
        for n in range(5):
            assert sorted(maps[n]) == list(range(ne.counts[n]))
            assert ex.counts[n] == ne.counts[n]
        for (n, i), tab in ex.face.items():
            for s in range(ex.counts[n]):
                assert ne.face[(n, i)][maps[n][s]] == maps[n - 1][tab[s]]
        for (n, i), tab in ex.deg.items():
            for s in range(ex.counts[n]):
                assert ne.deg[(n, i)][maps[n][s]] == maps[n + 1][tab[s]]


def test_nerve_rejects_short_datum():
    l2 = palg.interval_effect_algebra(2)
    short = palg.max_associativity_datum(l2.magma, 3)
    with pytest.raises(InputError):
        nv.nerve(l2.magma, short, 4)
