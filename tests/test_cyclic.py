import random

import pytest

import cyclic_oracles as oracle
from simpeff import cyclic as cyc
from simpeff import nerve as nv
from simpeff import palg, ratlp, sset, states
from simpeff.util import InputError

from conftest import TWISTS, group_twist, nerve_of
from sset_oracles import point, sset_equal
from test_states import product_effect_algebra


@pytest.fixture(scope="module")
def z2_cyclic_z1():
    z2 = nv.cyclic_group(2)
    x = nerve_of(nv.magma_of_group(z2), 4)
    return z2, x, group_twist(z2, 1, x)


@pytest.fixture(scope="module")
def l2_cyclic():
    e = palg.interval_effect_algebra(2)
    x = nerve_of(e.magma, 4)
    return e, x, cyc.cyclic_from_edges(x, e.orthocomplement)


def all_ok(checks):
    return all(c.ok for c in checks)


# ---------------------------------------------------------------------------
# relations, locked against the printed Z/2 formulas


def test_z2_formulas_lock_the_relations(z2_cyclic_z1):
    z2, x, c = z2_cyclic_z1
    assert all_ok(cyc.validate_cyclic(c))
    lab1 = {v: i for i, v in enumerate(x.labels[1])}
    lab2 = {v: i for i, v in enumerate(x.labels[2])}
    for k in range(2):
        assert c.tau[1][lab1[k]] == lab1[(1 - k) % 2]
    for k1 in range(2):
        for k2 in range(2):
            assert c.tau[2][lab2[(k1, k2)]] == lab2[((1 - k2 - k1) % 2, k1)]
    # and the z = 0 structure
    c0 = group_twist(z2, 0, x)
    assert all_ok(cyc.validate_cyclic(c0))
    for k in range(2):
        assert c0.tau[1][lab1[k]] == lab1[(-k) % 2]
    for k1 in range(2):
        for k2 in range(2):
            assert c0.tau[2][lab2[(k1, k2)]] == lab2[((-k2 - k1) % 2, k1)]


def test_identity_tau2_breaks_relations(z2_cyclic_z1):
    _, x, c = z2_cyclic_z1
    broken = cyc.CyclicSSet(x, dict(c.tau))
    broken.tau[2] = list(range(x.counts[2]))
    rep = {r.name: r for r in cyc.validate_cyclic(broken)}
    assert not rep["d0.tau=dn@2"].ok and rep["d0.tau=dn@2"].witness is not None


def test_point_with_identity_tau():
    p = point(3)
    c = cyc.CyclicSSet(p, {n: [0] for n in range(1, 4)})
    assert all_ok(cyc.validate_cyclic(c))


def test_group_nerve_cyclic_q8():
    q8 = nv.quaternion_group()
    x = nv.comm_nerve(q8, None, 4)
    c = group_twist(q8, 1, x)  # z = -1 is central
    assert all_ok(cyc.validate_cyclic(c))


def test_group_nerve_cyclic_rejects_noncentral():
    s3 = nv.symmetric_group(3)
    x = nv.comm_nerve(s3, None, 3)
    noncentral = next(z for z in range(6) if z not in s3.center())
    with pytest.raises(InputError):
        group_twist(s3, noncentral, x)


def test_effect_nerve_cyclic_l2(l2_cyclic):
    e, x, c = l2_cyclic
    assert all_ok(cyc.validate_cyclic(c))
    lab1 = {v: i for i, v in enumerate(x.labels[1])}
    assert c.tau[1][lab1[1]] == lab1[1]  # 2 - 1 = 1
    lab2 = {v: i for i, v in enumerate(x.labels[2])}
    assert c.tau[2][lab2[(1, 1)]] == lab2[(0, 1)]


def test_tau1_involution_consequence(l2_cyclic, z2_cyclic_z1):
    for c in (l2_cyclic[2], z2_cyclic_z1[2]):
        t1 = c.tau[1]
        assert all(t1[t1[e]] == e for e in range(len(t1)))


# ---------------------------------------------------------------------------
# orthocomplement laws


def test_ortho_laws_effect_nerve(l2_cyclic):
    assert all_ok(cyc.orthocomplement_laws(l2_cyclic[2]))


def test_ortho_laws_z3():
    z3 = nv.cyclic_group(3)
    x = nerve_of(nv.magma_of_group(z3), 4)
    c = group_twist(z3, 0, x)
    assert all_ok(cyc.orthocomplement_laws(c))


def test_ortho_laws_corrupted_tau2(l2_cyclic):
    _, x, c = l2_cyclic
    broken = cyc.CyclicSSet(x, dict(c.tau))
    broken.tau[2] = list(range(x.counts[2]))
    rep = {r.name: r for r in cyc.orthocomplement_laws(broken)}
    assert not rep["ortho-1-rotation"].ok


def test_ortho_laws_pass_on_all_generated_instances(z2_cyclic_z1):
    q8 = nv.quaternion_group()
    instances = [
        z2_cyclic_z1[2],
        group_twist(q8, 1, nv.comm_nerve(q8, None, 3)),
    ] + [cyc.cyclic_from_edges(nerve_of(e.magma, 3), e.orthocomplement)
         for e in (palg.interval_effect_algebra(3), palg.boolean_effect_algebra(2))]
    for c in instances:
        assert all_ok(cyc.orthocomplement_laws(c))


# ---------------------------------------------------------------------------
# the table comparisons against the per-simplex oracles


def _ly_z4():
    z4 = nv.cyclic_group(4)
    return z4, nv.action_partial_group(z4, 4, nv.translation_action(z4), [0, 1, 2], 4)


def _constructions():
    """The group-nerve and effect-nerve constructions of the tests above and
    of the golden corpus, as (name, arguments)."""
    z2, z3, q8 = nv.cyclic_group(2), nv.cyclic_group(3), nv.quaternion_group()
    z4, ly = _ly_z4()
    effects = ((palg.interval_effect_algebra(2), 4), (palg.interval_effect_algebra(3), 3),
               (palg.interval_effect_algebra(4), 3), (palg.boolean_effect_algebra(2), 3))
    return [("group_nerve_cyclic", (z2, 1, nerve_of(nv.magma_of_group(z2), 4))),
            ("group_nerve_cyclic", (z2, 1, nv.comm_nerve(z2, None, 4))),
            ("group_nerve_cyclic", (z3, 0, nerve_of(nv.magma_of_group(z3), 4))),
            ("group_nerve_cyclic", (q8, 1, nv.comm_nerve(q8, None, 3))),
            ("group_nerve_cyclic", (z4, 0, ly))] + [
        ("effect_nerve_cyclic", (e, nerve_of(e.magma, K))) for e, K in effects]


def _cyclic_sets():
    """The cyclic sets built by the tests above and by the golden corpus."""
    built = [TWISTS[name](*args) for name, args in _constructions()]
    return built[:5] + [cyc.CyclicSSet(point(3), {n: [0] for n in (1, 2, 3)})] + built[5:]


def _corrupted(c, kind, key, rng):
    """A copy of c with one or two changes to one table: a swap of two
    entries of tau_key, or an entry of the face or degeneracy table key
    sent to a random simplex."""
    x = c.base
    tau = {n: list(t) for n, t in c.tau.items()}
    face = {k: list(t) for k, t in x.face.items()}
    deg = {k: list(t) for k, t in x.deg.items()}
    for _ in range(rng.randint(1, 2)):
        if kind == "tau":
            t = tau[key]
            a, b = rng.randrange(len(t)), rng.randrange(len(t))
            t[a], t[b] = t[b], t[a]
        elif kind == "face":
            face[key][rng.randrange(x.counts[key[0]])] = rng.randrange(x.counts[key[0] - 1])
        else:
            deg[key][rng.randrange(x.counts[key[0]])] = rng.randrange(x.counts[key[0] + 1])
    return cyc.CyclicSSet(sset.TruncatedSSet(x.K, x.counts, face, deg), tau)


def _family(name):
    """The relation family of a validate_cyclic check: tau^{n+1}, d0, d_i
    (i >= 1), s0 or s_i (i >= 1)."""
    return next(f for f in ("tau^", "d0.", "s0.", "d", "s") if name.startswith(f))


def test_table_checks_match_the_per_simplex_oracles():
    """validate_cyclic and orthocomplement_laws give the per-simplex
    oracles' checks, names, verdicts and witnesses alike, on each cyclic set
    and on three seeded corruptions of each of its tau, face and degeneracy
    tables.  531 of the 700 cases fail some check, and together they break
    every relation family and every law."""
    rng = random.Random(24)
    broken, cases, failing = set(), 0, 0
    for c in _cyclic_sets():
        tables = ([("tau", n) for n in c.tau] + [("face", k) for k in c.base.face]
                  + [("deg", k) for k in c.base.deg])
        for kind, key in [(None, None)] + tables * 3:
            bad = c if kind is None else _corrupted(c, kind, key, rng)
            rels, laws = cyc.validate_cyclic(bad), cyc.orthocomplement_laws(bad)
            assert rels == oracle.validate_cyclic(bad), (kind, key)
            assert laws == oracle.orthocomplement_laws(bad), (kind, key)
            broken |= {_family(r.name) for r in rels if not r.ok}
            broken |= {law.name for law in laws if not law.ok}
            cases += 1
            failing += not all(ch.ok for ch in rels + laws)
    assert (cases, failing) == (700, 531)
    assert broken == {"tau^", "d0.", "d", "s0.", "s", "ortho-1-rotation", "ortho-2-involution",
                      "ortho-3-one-perp-is-zero", "ortho-4-composite-one-forces-perp"}, broken


def _tau_or_error(construct, *args):
    """The tau tables of a construction, or the message of its InputError."""
    try:
        return construct(*args).tau
    except InputError as exc:
        return str(exc)


def _same_as_tuple_map(name, *args):
    """The construction of simpeff.cyclic and its tuple-map oracle agree on
    args; returns their common tau tables or error message."""
    got = _tau_or_error(TWISTS[name], *args)
    assert got == _tau_or_error(getattr(oracle, name), *args), (name, args)
    return got


def test_edge_construction_matches_the_tuple_map_oracle():
    """tau read off tau_1 and the spines is the tau of the old construction,
    which maps every tuple label whole: on every construction above, on the
    K = 4, 5 effect nerves of L2-L4, bool2, bool3 and L2 x L2, and on the
    K = 3..5 commutative nerves of Q8 and D4 at torsion 2 and 4 with every
    central z.  None of these fails."""
    for name, args in _constructions():
        assert isinstance(_same_as_tuple_map(name, *args), dict)
    l2 = palg.interval_effect_algebra(2)
    effects = [palg.interval_effect_algebra(n) for n in (2, 3, 4)] + [
        palg.boolean_effect_algebra(n) for n in (2, 3)] + [product_effect_algebra(l2, l2)]
    for e in effects:
        for K in (4, 5):
            assert isinstance(_same_as_tuple_map("effect_nerve_cyclic", e, nerve_of(e.magma, K)),
                              dict)
    for g in (nv.quaternion_group(), nv.dihedral_group(4)):
        for torsion in (2, 4):
            for K in (3, 4, 5):
                x = nv.comm_nerve(g, torsion, K)
                for z in sorted(g.center()):
                    assert isinstance(_same_as_tuple_map("group_nerve_cyclic", g, z, x), dict)


def test_edge_construction_errors_match_the_tuple_map_oracle():
    """On L_Y(Z4) only z = 0 keeps tau inside; z = 1, 2, 3 fail with the
    same message on both sides."""
    z4, ly = _ly_z4()
    got = {z: _same_as_tuple_map("group_nerve_cyclic", z4, z, ly) for z in range(4)}
    assert isinstance(got[0], dict)
    assert got[1] == "cyclic image (1, 1, 1) of (1, 1, 2) leaves level 3"
    assert all(isinstance(got[z], str) and "leaves level" in got[z] for z in (2, 3)), got


def test_edge_construction_reads_labels_of_level_1_only():
    """Labels above level 1 play no part, and level-1 labels may be bare
    elements or 1-tuples; with no level-1 labels there is no tau_1."""
    e = palg.interval_effect_algebra(3)
    x = nerve_of(e.magma, 4)
    labels = {n: [("junk", s) for s in x.simplices(n)] for n in range(x.K + 1)}
    labels[1] = [(v,) for v in x.labels[1]]
    relabelled = sset.TruncatedSSet(x.K, x.counts, x.face, x.deg, labels)
    assert (cyc.cyclic_from_edges(relabelled, e.orthocomplement).tau
            == cyc.cyclic_from_edges(x, e.orthocomplement).tau)
    del labels[1]
    with pytest.raises(InputError, match="need tuple labels"):
        cyc.cyclic_from_edges(relabelled, e.orthocomplement)


def test_edge_construction_rejects_a_tau1_of_the_wrong_length():
    """tau_1 lists one element per edge: on the L2 nerve, with three edges,
    a list one short or one long is rejected, naming both lengths."""
    x = nv.nerve(palg.interval_effect_algebra(2).magma, 3)
    for tau1 in ([2, 1], [2, 1, 0, 5]):
        with pytest.raises(InputError, match=f"^tau_1 has {len(tau1)} entries for 3 edges$"):
            cyc.cyclic_from_edges(x, tau1)


def test_edge_construction_builds_no_label_above_level_1():
    """On a grown nerve, whose labels are built level by level when read,
    tau reads the level-1 elements and builds no tuple label."""
    s4 = nv.symmetric_group(4)
    for x in (nv.comm_nerve(s4, None, 5),
              nv.action_partial_group(s4, 24, nv.translation_action(s4), [0, 5, 7], 4)):
        c = group_twist(s4, 0, x)
        assert len(x.labels.built) == 2
        assert all_ok(cyc.validate_cyclic(c))


def test_edge_construction_rejects_a_non_spiny_set():
    """A second 2-simplex on the degenerate edge shares its spine with
    s_0 s_0 v, so tau_2 is not fixed by tau_1."""
    x = sset.from_nondegenerate(2, [("v", 0, []), ("a", 2, [("v", (0, 0))] * 3)])
    x = sset.TruncatedSSet(x.K, x.counts, x.face, x.deg, {1: [0]})
    with pytest.raises(InputError, match="^2-simplices .* share a spine"):
        group_twist(nv.cyclic_group(1), 0, x)


# ---------------------------------------------------------------------------
# simplicial effects and effect algebroids


def battery(c, **suites):
    """The checks of the cyclic battery by name."""
    return {ch.name: ch for ch in cyc.battery(c, **suites)}


def test_simplicial_effect_l2(l2_cyclic):
    assert battery(l2_cyclic[2], algebroid=False)["simplicial-effect"].ok


def test_simplicial_effect_fails_z2(z2_cyclic_z1):
    _, x, c = z2_cyclic_z1
    checks = battery(c, algebroid=False)
    assert not checks["simplicial-effect"].ok
    inv = checks["simplicial-effect/inverseless"]
    assert not inv.ok and inv.witness == (1, 1)


def test_simplicial_effect_fails_q8_torsion():
    q8 = nv.quaternion_group()
    x = nv.comm_nerve(q8, 2, 4)
    c = group_twist(q8, 1, x)
    checks = battery(c, algebroid=False)
    assert not checks["simplicial-effect"].ok
    assert not checks["simplicial-effect/inverseless"].ok


def test_effect_algebroid_conditions_l2(l2_cyclic):
    conds = battery(l2_cyclic[2], effect=False)
    assert all(conds[f"effect-algebroid/{k}"].ok for k in ("two_segal", "U", "Z"))
    assert conds["effect-algebroid"].ok


def test_effect_algebroid_conditions_z2(z2_cyclic_z1):
    z2, x, _ = z2_cyclic_z1
    c0 = group_twist(z2, 0, x)
    conds = battery(c0, effect=False)
    assert not conds["effect-algebroid/Z"].ok and not conds["effect-algebroid"].ok


def test_effect_algebroid_conditions_ly():
    z4 = nv.cyclic_group(4)
    ly = nv.action_partial_group(z4, 4, nv.translation_action(z4), [0, 1, 2], 4)
    c = group_twist(z4, 0, ly)  # the one z that stays inside
    assert all_ok(cyc.validate_cyclic(c))
    conds = battery(c, effect=False)
    assert not conds["effect-algebroid/two_segal"].ok and not conds["effect-algebroid"].ok


def test_algebroid_implies_simplicial_effect():
    effects = [palg.interval_effect_algebra(n) for n in (2, 3)] + [palg.boolean_effect_algebra(2)]
    instances = [cyc.cyclic_from_edges(nerve_of(e.magma, 4), e.orthocomplement) for e in effects]
    for c in instances:
        checks = battery(c)
        if checks["effect-algebroid"].ok:
            assert checks["simplicial-effect"].ok


def test_w4_separates_simplicial_effects_from_effect_algebroids():
    """W4, the paper's separating example: the size-4 weak partial monoid
    with 1.1 = 2, 2.2 = 1 and 1.2 = 2.1 = 3, with tau_1 = [3, 2, 1, 0].  Its
    cyclic nerve passes the orthocomplement laws and the simplicial-effect
    suite but is not 2-Segal, at every K from 3 to 5; it has no state, by a
    verified Farkas certificate, and HC^1 = 0."""
    unit = {(0, x): x for x in range(4)} | {(x, 0): x for x in range(4)}
    m = palg.PartialUnitalMagma(4, unit | {(1, 1): 2, (2, 2): 1, (1, 2): 3, (2, 1): 3})
    m.validate()
    assert palg.classify(m) == (palg.WEAK_PARTIAL_MONOID, (1, 1, 2))
    assert palg.inverse_conditions(m, 3) == (False, ("missing-inverse", 1))
    assert nv.nerve(m, 5).counts == [1, 4, 11, 24, 45, 76]
    unfilled = ("unfilled", 3, sset.Triangulation(3, ((0, 1, 2), (0, 2, 3))), (1, 1, 2))
    for K in (3, 4, 5):
        c = cyc.cyclic_from_edges(nv.nerve(m, K), [3, 2, 1, 0])
        assert all_ok(cyc.orthocomplement_laws(c))
        failed = {ch.name: ch.witness for ch in cyc.battery(c) if not ch.ok}
        assert failed == {"effect-algebroid/two_segal": unfilled,
                          "effect-algebroid": "failed: ['two_segal']"}, K
    search = states.find_state(c)
    assert not search.feasible
    assert ratlp.BoxLP(*states.state_system(c)).verify_farkas(search.farkas)
    assert states.hc1(c)[0] == 0


def test_z3_tau2_orbits():
    # central element 0: every tau_2 orbit has length 3 unless fixed
    z3 = nv.cyclic_group(3)
    x = nerve_of(nv.magma_of_group(z3), 4)
    c = group_twist(z3, 0, x)
    t2 = c.tau[2]
    fixed = []
    for s in range(x.counts[2]):
        orbit = 1
        j = t2[s]
        while j != s:
            orbit += 1
            j = t2[j]
        assert orbit in (1, 3)
        if orbit == 1:
            fixed.append(x.labels[2][s])
    assert sorted(fixed) == [(0, 0), (1, 1), (2, 2)]


def test_cyclic_json_roundtrip(l2_cyclic):
    c = l2_cyclic[2]
    again = cyc.CyclicSSet.from_json_dict(c.to_json_dict())
    assert again.tau == c.tau
    assert sset_equal(again.base, c.base)
