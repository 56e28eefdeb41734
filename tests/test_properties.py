"""Hypothesis property tests for the algebraic laws and roundtrips."""

import hypothesis.strategies as st
from hypothesis import given, settings

from simpeff import nerve as nv
from simpeff import palg, sset

from palg_oracles import bracketed_product, is_associable, is_multiplicable
from sset_oracles import sset_equal


@st.composite
def magmas(draw, max_size=5):
    size = draw(st.integers(min_value=1, max_value=max_size))
    product = {(0, m): m for m in range(size)}
    product.update({(m, 0): m for m in range(size)})
    for a in range(1, size):
        for b in range(1, size):
            val = draw(st.one_of(st.none(), st.integers(0, size - 1)))
            if val is not None:
                product[(a, b)] = val
    return palg.PartialUnitalMagma(size, product)


@st.composite
def magmas_with_tuples(draw):
    m = draw(magmas())
    n = draw(st.integers(min_value=2, max_value=5))
    tup = tuple(draw(st.integers(0, m.size - 1)) for _ in range(n))
    return m, tup


@settings(max_examples=60, deadline=None)
@given(magmas_with_tuples())
def test_dp_agrees_with_tree_enumeration(case):
    m, tup = case
    trees = palg.bracketings(len(tup))
    vals = [bracketed_product(m, tup, t) for t in trees]
    assert is_multiplicable(m, tup) == all(v is not None for v in vals)
    assert is_associable(m, tup) == (
        all(v is not None for v in vals) and len(set(vals)) == 1)


@settings(max_examples=60, deadline=None)
@given(magmas_with_tuples())
def test_weak_partial_monoids_have_unambiguous_products(case):
    m, tup = case
    if palg.classify(m)[0] == palg.MAGMA or not is_multiplicable(m, tup):
        return
    vals = {bracketed_product(m, tup, t) for t in palg.bracketings(len(tup))}
    assert len(vals) == 1


@settings(max_examples=25, deadline=None)
@given(magmas(max_size=4))
def test_nerve_reconstruction_and_transport(m):
    datum = palg.max_associativity_datum(m, 3)
    x = nv.nerve(m, 3)
    assert sset.validate(x) == []
    assert sset.is_spiny(x)[0] and sset.is_reduced(x)
    m2, d2 = nv.magma_from_sset(x)
    assert m2 == m and d2.levels == datum.levels
    assert sset.is_inverseless_sset(x)[0] == palg.is_inverseless(m)


@settings(max_examples=25, deadline=None)
@given(magmas(max_size=4))
def test_cosk2_of_nerve_is_nerve(m):
    x = nv.nerve(m, 3)
    ext = sset.cosk2_extend(sset.truncate(x, 2), 3)
    assert sset_equal(sset.canonicalize_spiny(ext), x)
