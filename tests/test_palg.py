import itertools
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from simpeff import nerve as nv
from simpeff import palg
from simpeff.util import InputError

from conftest import involutive_magma, random_magma, three_element_magmas
from palg_oracles import (bracketed_product, classify, fully_associable, inverse_conditions,
                          is_associable, is_fully_associable, is_multiplicable,
                          max_associativity_datum)

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
    assert is_multiplicable(l2.magma, (1, 1))
    assert not is_multiplicable(l2.magma, (1, 1, 1))
    assert is_multiplicable(l2.magma, (1,))


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
            assert is_multiplicable(m, tup) == all(v is not None for v in vals)
            assert is_associable(m, tup) == (
                all(v is not None for v in vals) and len(set(vals)) == 1)


def test_fully_associable(l2, q8_magma):
    assert palg.is_fully_associable(l2.magma, (1, 1))
    assert not palg.is_fully_associable(q8_magma, (I, NEG_I, J))
    total = nv.magma_of_group(nv.symmetric_group(3))
    for tup in itertools.product(range(6), repeat=3):
        assert palg.is_fully_associable(total, tup)


def test_fully_associable_matches_bracketing_oracle():
    # one value per interval against every bracketing of every contiguous
    # subtuple, on seeded magmas of size 2-5 and tuples of arity 1-7; half
    # the entries are the unit, so that long tuples pass often enough
    rng = random.Random(13)
    verdicts = Counter()
    for _ in range(60):
        m = random_magma(rng, rng.randrange(2, 6), density=rng.choice((0.5, 0.9)))
        for _ in range(25):
            tup = tuple(rng.randrange(m.size) if rng.random() < 0.5 else 0
                        for _ in range(rng.randrange(1, 8)))
            got = palg.is_fully_associable(m, tup)
            assert got == fully_associable(m, tup), (m.product, tup)
            verdicts[got, len(tup) >= 5] += 1
    assert min(verdicts.values()) >= 50, verdicts
    # the left product of the whole tuple is defined, but not 1*2 inside it
    unit = {(a, 0): a for a in range(3)} | {(0, a): a for a in range(3)}
    m = palg.PartialUnitalMagma(3, unit | {(1, 1): 2, (2, 2): 0})
    for tup in ((1, 1, 2), (1, 1, 2, 2), (2, 2, 1, 1, 2)):
        assert palg.left_product(m, tup) is not None
        assert not palg.is_fully_associable(m, tup) and not fully_associable(m, tup)


def test_batched_dp_matches_the_oracles():
    """fully_associable_mask on batches of equal-length tuples, arity 1-7, on
    seeded magmas of size 2-5, against the one-tuple interval DP of the
    oracles and against every bracketing of every contiguous subtuple; ids
    off the carrier, -1, size and above, fail at any length >= 2."""
    rng = random.Random(32)
    verdicts = Counter()
    for _ in range(40):
        m = random_magma(rng, rng.randrange(2, 6), density=rng.choice((0.5, 0.9)))
        for length in range(1, 8):
            batch = [tuple(rng.randrange(m.size) if rng.random() < 0.5 else 0
                           for _ in range(length)) for _ in range(rng.randrange(1, 12))]
            if length >= 2 and rng.random() < 0.3:
                i, j = rng.randrange(len(batch)), rng.randrange(length)
                batch[i] = batch[i][:j] + (rng.choice((-1, m.size, m.size + 3)),) + batch[i][j + 1:]
            got = palg.fully_associable_mask(m, np.array(batch, dtype=np.intp))
            assert got.dtype == bool and got.shape == (len(batch),)
            want = [is_fully_associable(m, t) for t in batch]
            assert got.tolist() == want, (m.product, batch)
            assert want == [fully_associable(m, t) for t in batch]
            assert want == [palg.is_fully_associable(m, t) for t in batch]
            verdicts.update(want)
    assert min(verdicts.values()) >= 200, verdicts
    m = palg.interval_effect_algebra(2).magma
    for length in (0, 1, 2, 5):
        assert palg.fully_associable_mask(m, np.empty((0, length), dtype=np.intp)).shape == (0,)
    assert palg.fully_associable_mask(m, np.array([[-1], [3], [1]])).tolist() == [True] * 3
    for bad in (-1, 3, 5, 2 ** 70):
        assert not palg.is_fully_associable(m, (0, bad))
        assert not palg.is_fully_associable(m, (bad, 0, 0))
    assert palg.is_fully_associable(m, (2 ** 70,)) and palg.is_fully_associable(m, ())


def test_inverse_conditions_matches_the_per_tuple_oracle():
    """Verdicts and witnesses of the batched inverse_conditions equal those
    of the oracle, which decides each doubled tuple on its own in sorted
    order, at up_to 2, 3 and 4: on all 256 size-3 tables, and on 300 seeded
    size-4 and size-5 magmas whose inversions are drawn first, so that they
    pass or fail at a doubled pair, and 30 uniform ones, which mostly lack
    an inverse."""
    rng = random.Random(18)
    seeded = [involutive_magma(rng, rng.choice((4, 5)), density=rng.choice((0.05, 0.1, 0.2, 0.5)))
              for _ in range(300)]
    seeded += [random_magma(rng, rng.choice((4, 5))) for _ in range(30)]
    kinds = Counter()
    for m in list(three_element_magmas()) + seeded:
        for up_to in (2, 3, 4):
            got = palg.inverse_conditions(m, up_to)
            assert got == inverse_conditions(m, up_to), m.product
            kinds[m.size > 3, got[1][0] if got[1] else "pass"] += 1
    assert kinds[True, "pass"] >= 150 and kinds[True, "doubled-tuple-fails"] >= 150, kinds
    assert kinds[True, "missing-inverse"] >= 60, kinds


def test_validate_datum_rows_on_irregular_data(l2, q8_magma):
    """The full-associability row of validate_datum names the first stored
    tuple, in sorted order, that the oracle's interval DP rejects, on data
    built directly: an empty level, levels holding tuples of other lengths
    (empty and one-letter ones at level 2, longer ones at any level, as face
    closure indexes a tuple of level n >= 3 up to n), and ids off the
    carrier, -1, size and 2**70."""
    def want(m, levels):
        stored = [t for n in sorted(levels) for t in sorted(levels[n])]
        return next((t for t in stored if not is_fully_associable(m, t)), None)

    cases = [
        (l2.magma, {2: frozenset(), 3: frozenset({(1, 1, 0)})}),
        (l2.magma, {2: frozenset({(1, 1), (1, 1, 1), (1,), ()}), 3: frozenset({(2, 1, 0)})}),
        (l2.magma, {2: frozenset({(1, 1), (1, 3), (-1, 1)}), 4: frozenset({(0, 0, 0, 0)})}),
        (l2.magma, {2: frozenset({(1, 1)}), 4: frozenset({(0, 0, 0, 0), (2 ** 70, 0, 0, 0)})}),
        (l2.magma, {2: frozenset({(1,), (0, 1)}), 3: frozenset({(0, 1, 1, 0), (0, 0, 1)})}),
        (q8_magma, {2: frozenset({(I, J), (I, 0)}), 3: frozenset({(I, NEG_I, J), (0, 0, 0, I)}),
                    5: frozenset()}),
        (q8_magma, {}),
    ]
    seen = set()
    for m, levels in cases:
        rows = palg.validate_datum(m, palg.AssociativityDatum(levels))
        row = rows[3]
        assert row.name == "datum-fully-associable"
        assert (row.ok, row.witness) == ((w := want(m, levels)) is None, w), levels
        seen.add(row.witness)
    assert seen == {None, (1, 1, 1), (-1, 1), (2 ** 70, 0, 0, 0), (I, J)}


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
            if is_multiplicable(m, tup):
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


def test_max_datum_matches_interval_dp_oracle(q8_magma):
    # the batched growth against the builder that runs the one-tuple interval
    # DP on every candidate: the size-3 census at K=5, seeded magmas of size 4
    # and 5 at K=4, the S4 and Q8 commuting magmas at K=5, and L4 and bool3 at
    # K=6
    rng = random.Random(31)
    cases = [(m, 5) for m in three_element_magmas()]
    cases += [(random_magma(rng, size, density=rng.choice((0.5, 0.9))), 4)
              for size in (4, 5) for _ in range(100)]
    cases += [(nv.commuting_magma(nv.symmetric_group(4)), 5), (q8_magma, 5),
              (palg.interval_effect_algebra(4).magma, 6),
              (palg.boolean_effect_algebra(3).magma, 6)]
    for m, up_to in cases:
        assert palg.max_associativity_datum(m, up_to).levels == \
            max_associativity_datum(m, up_to).levels, m.product
    assert len(palg.max_associativity_datum(cases[-1][0], 6).level(6)) == 7 ** 3


def test_fully_associable_levels_match_the_oracle_in_lexicographic_order(q8_magma):
    """The levels grown one fully_associable_mask batch at a time are the
    oracle's maximal datum, level by level in lexicographic order, on the
    size-3 census at K=5 and the S4 and Q8 commuting magmas at K=5, and each
    parent id is the row of the tuple's prefix one level down."""
    cases = [(m, 5) for m in three_element_magmas()]
    cases += [(nv.commuting_magma(nv.symmetric_group(4)), 5), (q8_magma, 5)]
    for m, up_to in cases:
        want = max_associativity_datum(m, up_to)
        grown = list(palg._fully_associable_levels(m, up_to))
        parents, levels = [p.tolist() for p, _ in grown], [lv.tolist() for _, lv in grown]
        assert levels[0] == [[x] for x in m.elements()] and parents[0] == [0] * m.size
        assert [lv.shape[1] for _, lv in grown] == list(range(1, up_to + 1))
        for n, level in enumerate(levels[1:], 2):
            assert list(map(tuple, level)) == sorted(want.level(n)), m.product
            assert [levels[n - 2][p] for p in parents[n - 1]] == [t[:-1] for t in level]


def test_inverse_conditions_stops_at_the_first_failing_arity(monkeypatch):
    """On the golden input wpm3.json the doubled pair (1, 1, 2, 2) fails, so
    inverse_conditions grows no triple: its batches of fully_associable_mask
    are the doubled elements, the pairs grown and the doubled pairs, of
    widths 2, 2 and 4, and it builds no datum."""
    m = palg.PartialUnitalMagma(3, {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (1, 1): 2,
                                    (1, 2): 0, (2, 0): 2, (2, 1): 0})
    widths, mask = [], palg.fully_associable_mask

    def recording_mask(m, tuples):
        widths.append(tuples.shape[1])
        return mask(m, tuples)

    def no_datum(m, up_to):
        raise AssertionError("inverse_conditions built a datum")

    monkeypatch.setattr(palg, "fully_associable_mask", recording_mask)
    monkeypatch.setattr(palg, "max_associativity_datum", no_datum)
    assert palg.inverse_conditions(m, 3) == (False, ("doubled-tuple-fails", (1, 1)))
    assert widths == [2, 2, 4]


def test_scans_reject_a_product_off_the_carrier():
    # unvalidated magmas: the dense table is built by the first scan, which
    # raises validate's error rather than classifying or indexing past a row
    unit = {(0, 0): 0, (0, 1): 1, (1, 0): 1}
    for entry in ({(1, 1): 2}, {(1, 1): -1}, {(2, 1): 1}, {(1, -1): 0}):
        m = palg.PartialUnitalMagma(2, unit | entry)
        with pytest.raises(InputError, match="out of range"):
            palg.classify(m)
        with pytest.raises(InputError, match="out of range"):
            palg.is_fully_associable(m, (1, 1))
        with pytest.raises(InputError, match="out of range"):
            m.validate()


def test_validate_checks_the_sparse_product_before_the_dense_table():
    """validate reads the entries' range, in product order, and then the
    unit law off the sparse product, so a magma of 100000 elements with no
    products fails at once, without the 10**10-entry table."""
    tracemalloc.start()
    try:
        for product, message in (
                ({}, "unit law fails at element 0"),
                ({(1, 1): 100000, (0, 0): -1}, r"product entry \(1, 1, 100000\) out of range"),
                ({(0, 0): 0, (0, 1): 1}, "unit law fails at element 1")):
            m = palg.PartialUnitalMagma(100000, product)
            with pytest.raises(InputError, match=message):
                m.validate()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak
    assert "rows" not in vars(m)


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
            "datum-fully-associable", "datum-face-closure", "datum-level-lengths"]
        assert [c.witness for c in rep] == witnesses + [None]
        assert [c.ok for c in rep] == [w is None for w in witnesses + [None]]


def test_validate_datum_names_a_tuple_off_its_level(l2):
    """A stored tuple whose length is not its level fails the level-lengths
    row, with its level; the domain, closure and face-closure rows skip it
    and raise nothing, and full associability still reads it.  nerve names
    the row in its InputError."""
    full = palg.max_associativity_datum(l2.magma, 3)
    cases = [
        ({2: frozenset({(1,)}), 3: frozenset({(0, 1)})},
         [(0, 0), None, None, None, None, (2, (1,))]),
        ({**full.levels, 3: full.level(3) | {(0, 1), (1, 1, 1, 1)}},
         [None, None, None, (1, 1, 1, 1), None, (3, (0, 1))]),
        ({2: full.level(2) | {(2,)}, 3: full.level(3) | {(0, 0, 1, 0)}},
         [None, None, None, None, None, (2, (2,))]),
    ]
    for levels, witnesses in cases:
        rep = palg.validate_datum(l2.magma, palg.AssociativityDatum(levels))
        assert rep[-1].name == "datum-level-lengths"
        assert [c.witness for c in rep] == witnesses, levels
        assert [c.ok for c in rep] == [w is None for w in witnesses]
    datum = palg.AssociativityDatum({**full.levels, 3: full.level(3) | {(0, 1)}})
    with pytest.raises(InputError, match="datum-level-lengths witness"):
        nv.nerve(l2.magma, 3, datum)


# ---------------------------------------------------------------------------
# partial groups


def test_partial_group_rows_name_their_first_failure(l2):
    """Each failing row of validate_partial_group names its first failure on
    L2's arity-3 maximal datum with one change: (1, 1) left out of level 2,
    (0, 0, 1) left out of level 3, or (1, 1, 1) stored.  The inversion
    [0, 2, 2] is not an involution at 1 and doubles (1,) to (1, 2), which is
    not stored; the identity doubles (1,) to (1, 1), stored with product 2."""
    full = palg.max_associativity_datum(l2.magma, 3)

    def failures(levels, inv):
        datum = palg.AssociativityDatum({**full.levels, **levels})
        return [(c.name, c.witness)
                for c in palg.validate_partial_group(l2.magma, datum, inv) if not c.ok]

    cond5 = "partial-group-cond5-inversion(len<=1)"
    assert failures({2: full.level(2) - {(1, 1)}}, [0, 2, 2]) == [
        ("datum-cond1-a2-is-domain", (1, 1)),
        ("datum-cond2-split-closure", ((0, 1, 1), (1, 1))),
        ("datum-face-closure", ((0, 1, 1), (1, 1))),
        ("inversion-is-involution", 1), (cond5, (1,))]
    assert failures({3: full.level(3) - {(0, 0, 1)}}, [0, 1, 2]) == [
        ("datum-cond3-unit-insertion(arity<=3)", ((0, 1), (0, 0, 1))), (cond5, (1,))]
    assert failures({3: full.level(3) | {(1, 1, 1)}}, [0, 1, 2]) == [
        ("datum-fully-associable", (1, 1, 1)),
        ("datum-face-closure", ((1, 1, 1), (2, 1))), (cond5, (1,))]


def test_validate_partial_group_reads_no_id_off_the_carrier():
    """On Z/3, where every row passes, a stored id off the carrier or an
    inverse off it fails a row and raises nothing; an inversion of the wrong
    length raises InputError."""
    z3 = nv.cyclic_group(3)
    m = nv.commuting_magma(z3)
    full = palg.max_associativity_datum(m, 4)
    cond5 = "partial-group-cond5-inversion(len<=2)"
    for bad in ((1, 7), (-1, 1)):
        datum = palg.AssociativityDatum({**full.levels, 2: full.level(2) | {bad}})
        rep = palg.validate_partial_group(m, datum, [z3.inv(a) for a in range(3)])
        assert [(c.name, c.witness) for c in rep if not c.ok] == [
            ("datum-cond1-a2-is-domain", bad),
            ("datum-cond3-unit-insertion(arity<=4)", (bad, (0,) + bad)),
            ("datum-fully-associable", bad), (cond5, bad)]
    for inv in ([0, 7, 1], [0, -1, 1]):
        rep = palg.validate_partial_group(m, full, inv)
        assert [(c.name, c.witness) for c in rep if not c.ok] == [
            ("inversion-is-involution", 1), (cond5, (0, 1))]
    for inv in ([0, 2], [0, 2, 1, 3]):
        with pytest.raises(InputError):
            palg.validate_partial_group(m, full, inv)


def test_validate_partial_group_ly():
    """L_Y(Z/4) at K=6, read back through magma_from_sset, is a partial group:
    its magma is Z/4's product on the pairs Y allows, and every row passes."""
    z4 = nv.cyclic_group(4)
    ly = nv.action_partial_group(z4, 4, nv.translation_action(z4), [0, 1, 2], 6)
    m, datum = nv.magma_from_sset(ly)
    assert all(c == z4.mul[a][b] for (a, b), c in m.product.items())
    rows = palg.validate_partial_group(m, datum, [z4.inv(a) for a in range(4)])
    assert rows[-1].name == "partial-group-cond5-inversion(len<=3)"
    assert all(c.ok for c in rows)


def test_inversion_row_agrees_with_inverse_conditions(q8_magma):
    """Row (5) on the maximal datum to arity 2k gives the verdict of
    inverse_conditions(m, k), for k = 2 and 3: on every size-3 weak partial
    monoid in which each element has a two-sided inverse, three passing and
    two failing, and on the commuting magmas of Q8, S3 and D4, which pass."""
    def has_inverses(m):
        return all(palg.inverses(m, x)["two_sided"] for x in m.elements())

    small = [m for m in three_element_magmas()
             if palg.classify(m)[0] != palg.MAGMA and has_inverses(m)]
    assert len(small) == 5
    groups = [q8_magma] + [nv.commuting_magma(g) for g in (nv.symmetric_group(3),
                                                           nv.dihedral_group(4))]
    verdicts = []
    for m in small + groups:
        inv = [min(palg.inverses(m, x)["two_sided"]) for x in m.elements()]
        for k in (2, 3):
            row = palg.validate_partial_group(m, palg.max_associativity_datum(m, 2 * k), inv)[-1]
            assert row.ok == palg.inverse_conditions(m, k)[0]
            verdicts.append(row.ok)
    assert verdicts == [True, True, False, False, True, True, False, False, True, True] + [True] * 6


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


def test_validate_effect_algebra_rejects_a_perp_off_the_carrier(l2):
    for perp in ((7, 1, 0), (2, 1)):
        with pytest.raises(InputError, match="orthocomplement"):
            palg.validate_effect_algebra(palg.FiniteEffectAlgebra(l2.magma, perp))


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
                assert (palg.left_product(e.magma, tup) is not None) == \
                    is_multiplicable(e.magma, tup)


def test_multiset_multiplicable_order_free(bool2):
    assert palg.multiset_multiplicable(bool2, (1, 2))
    assert not palg.multiset_multiplicable(bool2, (1, 1))


def test_magma_json_roundtrip(l2):
    blob = l2.magma.to_json_dict()
    again = palg.PartialUnitalMagma.from_json_dict(blob)
    assert again == l2.magma


def test_wpm_bracketing_agreement_to_arity_5(q8_magma):
    # carrier 8 weak partial monoid: exhaustive to arity 3, seeded sample at
    # arities 4 and 5; every multiplicable tuple has a single product value
    for tup in itertools.product(range(8), repeat=3):
        if is_multiplicable(q8_magma, tup):
            vals = {bracketed_product(q8_magma, tup, t) for t in palg.bracketings(3)}
            assert len(vals) == 1
    rng = random.Random(77)
    for n in (4, 5):
        trees = palg.bracketings(n)
        for _ in range(400):
            tup = tuple(rng.randrange(8) for _ in range(n))
            if is_multiplicable(q8_magma, tup):
                vals = {bracketed_product(q8_magma, tup, t) for t in trees}
                assert len(vals) == 1
