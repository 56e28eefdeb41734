import itertools
import random

import pytest

from simpeff import nerve as nv
from simpeff import palg
from simpeff.util import InputError

from conftest import random_magma, three_element_magmas
from palg_oracles import bracketed_product, classify, is_associable

# Q8 element ids (see nerve.quaternion_group): 1,-1,i,-i,j,-j,k,-k
I, NEG_I, J = 2, 3, 4


# ---------------------------------------------------------------------------
# bracketings and products


def test_bracketing_counts_are_catalan():
    assert [len(palg.bracketings(n)) for n in range(1, 7)] == [1, 1, 2, 5, 14, 42]


def test_bracketed_product_l2(l2):
    tree = palg.bracketings(2)[0]
    assert bracketed_product(l2.magma, (1, 1), tree) == 2
    assert bracketed_product(l2.magma, (2, 1), tree) is None


def test_bracketed_product_unit_law(l2, q8_magma):
    for m in (l2.magma, q8_magma):
        for tree in palg.bracketings(2):
            for x in m.elements():
                assert bracketed_product(m, (0, x), tree) == x
                assert bracketed_product(m, (x, 0), tree) == x


def test_bracketed_product_ly_triple():
    # (1,1,1) evaluates to 3 under both bracketings of the L_Y(Z/4) magma,
    # even though the triple itself is not a simplex of the action space.
    z4 = nv.cyclic_group(4)
    ly = nv.action_partial_group(z4, 4, nv.translation_action(z4), [0, 1, 2], 4)
    m, _ = nv.magma_from_sset(ly)
    left, right = palg.bracketings(3)
    assert bracketed_product(m, (1, 1, 1), left) == 3
    assert bracketed_product(m, (1, 1, 1), right) == 3


def test_bracketed_product_arity_mismatch(l2):
    with pytest.raises(InputError):
        bracketed_product(l2.magma, (1, 1, 1), palg.bracketings(2)[0])


def test_is_multiplicable_l2(l2):
    assert palg.is_multiplicable(l2.magma, (1, 1))
    assert not palg.is_multiplicable(l2.magma, (1, 1, 1))
    assert palg.is_multiplicable(l2.magma, (1,))


def test_multiplicable_dp_matches_tree_enumeration():
    # oracle: explicit Catalan enumeration of all bracketings
    rng = random.Random(11)
    for _ in range(25):
        m = random_magma(rng, rng.randrange(2, 6))
        for _ in range(20):
            n = rng.randrange(2, 6)
            tup = tuple(rng.randrange(m.size) for _ in range(n))
            trees = palg.bracketings(n)
            vals = [bracketed_product(m, tup, t) for t in trees]
            assert palg.is_multiplicable(m, tup) == all(v is not None for v in vals)
            assert is_associable(m, tup) == (
                all(v is not None for v in vals) and len(set(vals)) == 1)


def test_fully_associable(l2, q8_magma):
    assert palg.is_fully_associable(l2.magma, (1, 1))
    assert not palg.is_fully_associable(q8_magma, (I, NEG_I, J))
    total = nv.magma_of_group(nv.symmetric_group(3))
    for tup in itertools.product(range(6), repeat=3):
        assert palg.is_fully_associable(total, tup)


# ---------------------------------------------------------------------------
# classification


def test_classify(l2, q8_magma, one_element_magma):
    assert palg.classify(l2.magma) == (palg.PARTIAL_MONOID, None)
    assert palg.classify(one_element_magma) == (palg.PARTIAL_MONOID, None)
    assert palg.classify(q8_magma)[0] == palg.WEAK_PARTIAL_MONOID


def test_classify_q8_witness(q8_magma):
    # (j, i, i): j*(i*i) is defined (i*i = -1 is central) but (j*i)*i is not
    m = q8_magma
    ii = m.mul(I, I)
    assert m.defined(J, ii)
    assert not m.defined(J, I)
    cls, wit = palg.classify(m)
    assert cls == palg.WEAK_PARTIAL_MONOID
    a, b, c = wit
    ldef = m.mul(a, b) is not None and m.defined(m.mul(a, b), c)
    rdef = m.mul(b, c) is not None and m.defined(a, m.mul(b, c))
    assert ldef != rdef


def test_classify_matches_bracketing_oracle():
    # class and lex-least witness against both bracketings of every triple,
    # on the size-3 census and on seeded size-4 magmas
    rng = random.Random(41)
    magmas = list(three_element_magmas()) + [random_magma(rng, 4) for _ in range(300)]
    for m in magmas:
        assert palg.classify(m) == classify(m), m.product


def test_weak_bracketing_agreement_property():
    # in anything classifying as weak partial monoid, all defined
    # bracketings of a multiplicable tuple agree (bracketing-moves lemma)
    rng = random.Random(23)
    found = 0
    for _ in range(300):
        m = random_magma(rng, rng.randrange(2, 5), density=0.35)
        if palg.classify(m)[0] == palg.MAGMA:
            continue
        found += 1
        for _ in range(30):
            n = rng.randrange(2, 6)
            tup = tuple(rng.randrange(m.size) for _ in range(n))
            if palg.is_multiplicable(m, tup):
                vals = {bracketed_product(m, tup, t) for t in palg.bracketings(n)}
                assert len(vals) == 1
    assert found >= 10


def test_partial_monoid_definedness_property():
    rng = random.Random(5)
    for _ in range(200):
        m = random_magma(rng, rng.randrange(2, 5), density=0.3)
        if palg.classify(m)[0] != palg.PARTIAL_MONOID:
            continue
        for a, b, c in itertools.product(range(m.size), repeat=3):
            ab, bc = m.mul(a, b), m.mul(b, c)
            assert ((ab is not None and m.defined(ab, c))
                    == (bc is not None and m.defined(a, bc)))


# ---------------------------------------------------------------------------
# associativity data


def test_max_datum_l2_against_arithmetic_oracle(l2):
    # independent oracle: in L_2 a triple is fully associable iff its
    # entry sum stays within the carrier bound
    datum = palg.max_associativity_datum(l2.magma, 3)
    oracle = frozenset(t for t in itertools.product(range(3), repeat=3) if sum(t) <= 2)
    assert datum.level(3) == oracle
    assert len(datum.level(3)) == 10
    assert datum.level(2) == frozenset(l2.magma.product)


def test_max_datum_one_element(one_element_magma):
    datum = palg.max_associativity_datum(one_element_magma, 4)
    for n in range(2, 5):
        assert datum.level(n) == frozenset({(0,) * n})


def test_max_datum_s3_pairwise_commuting():
    s3 = nv.symmetric_group(3)
    m = nv.commuting_magma(s3)
    datum = palg.max_associativity_datum(m, 3)
    oracle = frozenset(
        t for t in itertools.product(range(6), repeat=3)
        if all(s3.commute(a, b) for a, b in itertools.combinations(t, 2)))
    assert datum.level(3) == oracle


def test_validate_datum_conditions(l2):
    datum = palg.max_associativity_datum(l2.magma, 3)
    assert all(c.ok for c in palg.validate_datum(l2.magma, datum))
    broken = palg.AssociativityDatum(
        {2: datum.level(2) - {(1, 1)}, 3: datum.level(3)})
    rep = palg.validate_datum(l2.magma, broken)
    assert not next(c for c in rep if c.name.startswith("datum-cond1")).ok


def _datum_minus(m, up_to, drop=(), add=()):
    """The maximal datum of m to arity up_to, with tuples dropped and added."""
    levels = dict(palg.max_associativity_datum(m, up_to).levels)
    for t in drop:
        levels[len(t)] -= {t}
    for t in add:
        levels[len(t)] |= {t}
    return palg.AssociativityDatum(levels)


def test_validate_datum_witnesses(l2, l3, q8_magma):
    # the full report, witnesses included, on data broken one way each
    cases = [
        (l2.magma, _datum_minus(l2.magma, 3, drop=[(1, 1)]),
         [(1, 1), ((0, 1, 1), (1, 1)), None, None, ((0, 1, 1), (1, 1))]),
        (l2.magma, _datum_minus(l2.magma, 3, drop=[(0, 1, 1)]),
         [None, None, ((1, 1), (0, 1, 1)), None, None]),
        (l2.magma, _datum_minus(l2.magma, 3, add=[(2, 1, 0)]),
         [None, ((2, 1, 0), (2, 1)), None, (2, 1, 0), ((2, 1, 0), (None, 0))]),
        (q8_magma, _datum_minus(q8_magma, 3, add=[(I, 0, J)]),
         [None, None, None, (I, 0, J), ((I, 0, J), (I, J))]),
        (l3.magma, _datum_minus(l3.magma, 4, drop=[(2, 1, 0)]),
         [None, ((0, 2, 1, 0), (2, 1, 0)), ((2, 1), (2, 1, 0)), None,
          ((0, 2, 1, 0), (2, 1, 0))]),
        (l3.magma, _datum_minus(l3.magma, 4, add=[(1, 1, 1, 1)]),
         [None, None, None, (1, 1, 1, 1), ((1, 1, 1, 1), (2, 1, 1))]),
    ]
    for m, datum, witnesses in cases:
        rep = palg.validate_datum(m, datum)
        assert [c.name for c in rep] == [
            "datum-cond1-a2-is-domain", "datum-cond2-split-closure",
            f"datum-cond3-unit-insertion(arity<={datum.max_arity})",
            "datum-fully-associable", "datum-face-closure"]
        assert [c.witness for c in rep] == witnesses
        assert [c.ok for c in rep] == [w is None for w in witnesses]


# ---------------------------------------------------------------------------
# PAS


def test_to_pas_one_element(one_element_magma):
    datum = palg.max_associativity_datum(one_element_magma, 3)
    p = palg.to_pas(one_element_magma, datum)
    assert p.domain == frozenset({(), (0,), (0, 0), (0, 0, 0)})
    assert all(v == 0 for v in p.pi.values())


def test_pas_roundtrip(l2, q8_magma):
    for m in (l2.magma, q8_magma):
        datum = palg.max_associativity_datum(m, 3)
        p = palg.to_pas(m, datum)
        assert all(c.ok for c in palg.validate_pas(p))
        m2, d2 = palg.from_pas(p)
        assert m2 == m
        assert d2.levels == datum.levels


def test_pas_roundtrip_random():
    rng = random.Random(37)
    for _ in range(20):
        m = random_magma(rng, rng.randrange(1, 6))
        datum = palg.max_associativity_datum(m, 3)
        m2, d2 = palg.from_pas(palg.to_pas(m, datum))
        assert m2 == m and d2.levels == datum.levels


def test_to_pas_rejects_broken_datum(l2):
    datum = palg.max_associativity_datum(l2.magma, 3)
    broken = palg.AssociativityDatum({2: datum.level(2) - {(1, 1)}, 3: datum.level(3)})
    with pytest.raises(InputError):
        palg.to_pas(l2.magma, broken)


def test_validate_partial_group_ly():
    z4 = nv.cyclic_group(4)
    ly = nv.action_partial_group(z4, 4, nv.translation_action(z4), [0, 1, 2], 6)
    words = {(): 0}
    for n in range(1, 7):
        for lab in ly.labels[n]:
            t = lab if isinstance(lab, tuple) else (lab,)
            acc = 0
            for a in t:
                acc = z4.mul[acc][a]
            words[t] = acc
    p = palg.PasStructure(4, frozenset(words), words)
    inv = [z4.inv(a) for a in range(4)]
    assert all(c.ok for c in palg.validate_partial_group(p, inv))


# ---------------------------------------------------------------------------
# inverses


def test_inverses_unit(l2):
    inv = palg.inverses(l2.magma, 0)
    assert 0 in inv["left"] and 0 in inv["right"] and 0 in inv["two_sided"]


def test_inverses_l2(l2):
    inv = palg.inverses(l2.magma, 1)
    assert inv["left"] == set() and inv["right"] == set()


def test_inverses_q8(q8_magma):
    assert palg.inverses(q8_magma, I)["two_sided"] == {NEG_I}


def test_is_inverseless(l2, q8_magma, one_element_magma):
    assert palg.is_inverseless(l2.magma)
    assert not palg.is_inverseless(q8_magma)
    assert palg.is_inverseless(one_element_magma)


def test_one_sided_inverse_is_the_inverse():
    # in a weak partial monoid with inverses, any one-sided inverse equals
    # the two-sided one, which is unique
    for g in (nv.quaternion_group(), nv.symmetric_group(3), nv.dihedral_group(4)):
        m = nv.commuting_magma(g)
        for x in m.elements():
            found = palg.inverses(m, x)
            assert len(found["two_sided"]) == 1
            assert found["left"] <= found["two_sided"] and found["right"] <= found["two_sided"]


def test_wapg(q8_magma, l2):
    ok, _ = palg.is_weakly_associative_partial_group(q8_magma, 3)
    assert ok
    ok, wit = palg.is_weakly_associative_partial_group(l2.magma, 2)
    assert not ok and wit[0] == "missing-inverse"
    trivial = nv.magma_of_group(nv.cyclic_group(1))
    assert palg.is_weakly_associative_partial_group(trivial, 3)[0]


# ---------------------------------------------------------------------------
# effect algebras


def test_validate_effect_algebra_passes(l2, l3, bool2):
    for e in (l2, l3, bool2):
        assert all(c.ok for c in palg.validate_effect_algebra(e))


def test_validate_effect_algebra_bad_perp(l2):
    # identity orthocomplement: a = 1 has no partner summing to the new top
    broken = palg.FiniteEffectAlgebra(l2.magma, (0, 1, 2))
    rep = {c.name: c for c in palg.validate_effect_algebra(broken)}
    bad = rep["orthocomplement-existence-uniqueness"]
    assert not bad.ok and bad.witness[0] == 1


def test_effect_algebra_implies_inverseless():
    for e in (palg.interval_effect_algebra(2), palg.interval_effect_algebra(4),
              palg.boolean_effect_algebra(2), palg.boolean_effect_algebra(3)):
        assert all(c.ok for c in palg.validate_effect_algebra(e))
        assert palg.is_inverseless(e.magma)


def test_recursive_vs_bracketing_multiplicability(l2, l3, bool2):
    # the two multiplicability notions agree on effect algebras; this is
    # checked, not assumed
    for e in (l2, l3, bool2):
        for n in range(2, 5):
            for tup in itertools.product(range(e.size), repeat=n):
                assert palg.multiplicable_recursive(e, tup) == \
                    palg.is_multiplicable(e.magma, tup)


def test_multiset_multiplicable_order_free(bool2):
    assert palg.multiset_multiplicable(bool2, (1, 2))
    assert not palg.multiset_multiplicable(bool2, (1, 1))


def test_magma_json_roundtrip(l2):
    blob = l2.magma.to_json_dict()
    again = palg.PartialUnitalMagma.from_json_dict(blob)
    assert again == l2.magma
    datum = palg.max_associativity_datum(l2.magma, 3)
    assert palg.AssociativityDatum.from_json_dict(datum.to_json_dict()).levels == datum.levels


def test_wpm_bracketing_agreement_to_arity_5(q8_magma):
    # carrier 8 weak partial monoid: exhaustive to arity 3, seeded sample at
    # arities 4 and 5; every multiplicable tuple has a single product value
    for tup in itertools.product(range(8), repeat=3):
        if palg.is_multiplicable(q8_magma, tup):
            vals = {bracketed_product(q8_magma, tup, t) for t in palg.bracketings(3)}
            assert len(vals) == 1
    rng = random.Random(77)
    for n in (4, 5):
        trees = palg.bracketings(n)
        for _ in range(400):
            tup = tuple(rng.randrange(8) for _ in range(n))
            if palg.is_multiplicable(q8_magma, tup):
                vals = {bracketed_product(q8_magma, tup, t) for t in trees}
                assert len(vals) == 1
