"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance and bound is pinned here, nothing is deferred.
"""

import itertools
import random
import time
from fractions import Fraction

import numpy as np

from simpeff import cyclic as cyc
from simpeff import nerve as nv
from simpeff import palg, quantum, sset, states

from conftest import nerve_of, random_magma
from quantum_exact import certify_no_filler
from sset_oracles import membrane_set, sset_equal


def report(number, message):
    print(f"ACCEPTANCE {number}: PASS ({message})")


def test_criterion_1_action_partial_group():
    start = time.monotonic()
    z4 = nv.cyclic_group(4)
    ly = nv.action_partial_group(z4, 4, nv.translation_action(z4), [0, 1, 2], 4)
    assert sset.validate(ly) == []
    pairs = set(ly.labels[2])
    assert {(1, 1), (2, 1), (1, 2)} <= pairs
    assert (1, 1, 1) not in set(ly.labels[3])
    ok, wit = sset.segal(ly)[3]
    assert not ok and wit[0] == "unfilled" and wit[1] == 3
    assert tuple(wit[2]) == (1, 1, 1)
    # Chermak's partial-group conditions on the magma and datum read back
    ly6 = nv.action_partial_group(z4, 4, nv.translation_action(z4), [0, 1, 2], 6)
    m, datum = nv.magma_from_sset(ly6)
    checks = palg.validate_partial_group(m, datum, [z4.inv(a) for a in range(4)])
    assert all(c.ok for c in checks)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(1, f"L_Y(Z/4) witness spine (1,1,1), partial-group conditions 1-5, {elapsed:.2f}s")


def test_criterion_2_commutative_nerves():
    start = time.monotonic()
    groups = {"Q8": nv.quaternion_group(), "D4": nv.dihedral_group(4),
              "S3": nv.symmetric_group(3)}
    for name, g in groups.items():
        x = nv.comm_nerve(g, None, 4)
        assert sset.validate(x) == []
        assert sset.is_spiny(x)[0], name
        assert sset.is_reduced(x), name
        assert sset.is_coskeletal_2(x)[0], name
        _, _, (two, wit), weak, _ = sset.segal(x)
        assert weak[0], name
        ok, _ = palg.is_weakly_associative_partial_group(nv.commuting_magma(g), 3)
        assert ok, name
        assert not two and wit[0] == "unfilled", name
    # the Q8 witness family contains the spine (j, i, i); oracle is plain
    # brute force over commuting tuples in the group
    g = groups["Q8"]
    j, i = 4, 2
    assert g.commute(i, i) and g.commute(j, g.mul[i][i]) and not g.commute(j, i)
    assert not all(g.commute(a, b) for a, b in itertools.combinations((j, i, i), 2))
    x = nv.comm_nerve(g, None, 4)
    tri = sset.Triangulation(3, ((0, 1, 3), (1, 2, 3)))
    spines = {tuple(m[(k, k + 1)] for k in range(3))
              for m in membrane_set(x, 3, tri)}
    assert (j, i, i) in spines
    assert (j, i, i) not in {tuple(lab) for lab in x.labels[3]}
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(2, f"Q8/D4/S3 batteries with (j,i,i) 2-Segal failure, {elapsed:.1f}s")


def test_criterion_3_nerve_roundtrips():
    rng = random.Random(2024)
    done = 0
    while done < 50:
        m = random_magma(rng, rng.randrange(1, 9), density=rng.uniform(0.2, 0.8))
        datum = palg.max_associativity_datum(m, 4)
        x = nv.nerve(m, 4)
        m2, d2 = nv.magma_from_sset(x)
        assert m2 == m and d2.levels == datum.levels
        assert sset_equal(nv.nerve(m2, 4, d2), x)
        ext = sset.cosk2_extend(sset.truncate(x, 2), 4)
        assert sset_equal(sset.canonicalize_spiny(ext), x)
        done += 1
    report(3, f"{done} random magmas: nerve/magma roundtrip and cosk2 fixpoint exact")


def test_criterion_4_effect_circle_isomorphism():
    cases = {"L2": palg.interval_effect_algebra(2),
             "L3": palg.interval_effect_algebra(3),
             "bool2": palg.boolean_effect_algebra(2)}
    for name, e in cases.items():
        ex, ne, maps = nv.effect_circle_iso(e, 4)
        for n in range(5):
            assert ex.counts[n] == ne.counts[n], name
            assert sorted(maps[n]) == list(range(ne.counts[n])), name
        for (n, i), tab in ex.face.items():
            for s in range(ex.counts[n]):
                assert ne.face[(n, i)][maps[n][s]] == maps[n - 1][tab[s]], name
        for (n, i), tab in ex.deg.items():
            for s in range(ex.counts[n]):
                assert ne.deg[(n, i)][maps[n][s]] == maps[n + 1][tab[s]], name
    # independent count oracle for the L2 level-2 claim
    oracle = sum(1 for a in range(3) for b in range(3) if a + b <= 2)
    ex, _, _ = nv.effect_circle_iso(cases["L2"], 4)
    assert ex.counts[2] == oracle == 6
    report(4, "E(S^1) = N(E) levelwise for L2, L3, bool2; |E(S^1)_2| = 6 for L2")


def test_criterion_5_simplicial_effect_suite():
    generated = []
    for n in (2, 3, 4):
        e = palg.interval_effect_algebra(n)
        c = cyc.effect_nerve_cyclic(e, nerve_of(e.magma, 4))
        generated.append(c)
        checks = {ch.name: ch for ch in cyc.battery(c)}
        assert checks["simplicial-effect"].ok, f"L{n}"
        assert checks["effect-algebroid"].ok, f"L{n}"
    z2 = nv.cyclic_group(2)
    cz = cyc.group_nerve_cyclic(z2, 1, nerve_of(nv.magma_of_group(z2), 4))
    generated.append(cz)
    checks = {ch.name: ch for ch in cyc.battery(cz, algebroid=False)}
    assert not checks["simplicial-effect"].ok
    inv = checks["simplicial-effect/inverseless"]
    assert not inv.ok and inv.witness == (1, 1)
    for c in generated:
        assert all(ch.ok for ch in cyc.orthocomplement_laws(c))
    report(5, "L2/L3/L4 simplicial effects, Z/2 inverseless witness (1,1), "
              "orthocomplement laws exhaustive")


def test_criterion_6_states_and_hc1():
    l2 = palg.interval_effect_algebra(2)
    cl2 = cyc.effect_nerve_cyclic(l2, nerve_of(l2.magma, 4))
    found = states.find_state(cl2)
    lab = cl2.base.labels[1]
    assert found.feasible
    assert {lab[i]: v for i, v in enumerate(found.state)} == {
        0: Fraction(0), 1: Fraction(1, 2), 2: Fraction(1)}
    assert states.find_state(cl2).dim == 0
    assert states.hc1(cl2)[0] == 0

    z2 = nv.cyclic_group(2)
    cz = cyc.group_nerve_cyclic(z2, 1, nerve_of(nv.magma_of_group(z2), 4))
    empty = states.find_state(cz)
    assert not empty.feasible and empty.farkas is not None

    b2 = palg.boolean_effect_algebra(2)
    cb = cyc.effect_nerve_cyclic(b2, nerve_of(b2.magma, 4))
    assert states.find_state(cb).dim == 1
    assert states.hc1(cb)[0] == 1

    instances = [cl2, cb,
                 cyc.effect_nerve_cyclic(palg.interval_effect_algebra(3),
                                         nerve_of(palg.interval_effect_algebra(3).magma, 4))]
    for c in instances:
        assert states.shifted_states_in_hc1(c)
        got = states.find_state(c)
        A, b = states.state_system(c)
        assert all(sum(a * v for a, v in zip(row, got.state)) == r for row, r in zip(A, b))
    report(6, "St(N L2) = {k/2} dim 0, HC1 = 0; Z/2 z=1 exactly empty; "
              "bool2 dims 1/1; shifts land in HC1")


def test_criterion_7_key_example_witness():
    start = time.monotonic()
    w = quantum.build_witness()
    pi, psi = w["Pi"], w["Psi"]
    # reproduce the printed projectors independently
    gam = {(a, b): np.zeros((9, 9), dtype=complex) for a in range(3) for b in range(3)}
    for (a, b), mat in gam.items():
        mat[3 * a + b, 3 * a + b] = 1
    pi01 = gam[(0, 1)] + gam[(1, 1)] + gam[(2, 1)] + gam[(1, 2)]
    for t in itertools.product(range(3), repeat=2):
        if t in ((1, 1), (2, 1), (1, 2)):
            expected = np.zeros((9, 9))
        elif t == (0, 1):
            expected = pi01
        else:
            expected = gam[t]
        assert quantum.frob(pi[t] - expected) < 1e-12
    plus = np.zeros(9, dtype=complex)
    plus[2], plus[6] = 1 / np.sqrt(2), 1 / np.sqrt(2)
    minus = np.zeros(9, dtype=complex)
    minus[2], minus[6] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    assert quantum.frob(psi[(2, 0)] - np.outer(plus, plus.conj())) < 1e-12
    assert quantum.frob(psi[(2, 2)] - np.outer(minus, minus.conj())) < 1e-12
    assert quantum.frob(psi[(0, 1)] - gam[(0, 0)]) < 1e-12
    assert quantum.frob(psi[(1, 0)] - (pi01 + gam[(1, 0)] + gam[(2, 2)])) < 1e-12

    checks = w["checks"]
    assert checks["d2psi_eq_d1pi_residual"] < 1e-9
    assert checks["AB_commutator"] < 1e-9
    assert checks["BC_commutator"] > 0.1
    certify_no_filler(w)
    inv = quantum.inverseless_sample_check(trials=100, seed=20240)
    assert inv["passed"] == 100
    assert all(r["collapse_residual"] < 1e-9 for r in inv["results"])
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(7, f"witness bundle + exact no-filler certificate + 100/100 collapses, {elapsed:.2f}s")


def test_criterion_8_state_formula_on_z():
    rng = np.random.default_rng(90210)
    densities = [quantum.random_density(rng) for _ in range(5)]
    for k, rho in enumerate(densities):
        rep = quantum.key_example_state_check(rho, trials=50, seed=1000 + k)
        assert rep["passed"] == 50
        assert rep["phi_omega_sq_one_residual"] < 1e-12
        for r in rep["results"]:
            assert max(r["partial_additive"], r["swap_orth"], r["half"],
                       r["third_zero"]) < 1e-9
            assert r["phi_in_unit_interval"]
    report(8, "5 densities x 50 simplices: partial-additive family within 1e-9, "
              "phi(w^2 1) = 1/2 to 1e-12")
