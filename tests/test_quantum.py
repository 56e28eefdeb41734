import itertools

import numpy as np
import pytest

from simpeff import quantum as q
from simpeff.util import InputError


@pytest.fixture(scope="module")
def witness():
    return q.build_witness()


def diag_torsion_unitary(rng):
    """Haar-conjugated diagonal of cube roots of unity."""
    u = q.haar_unitary(rng, q.DIM)
    phases = np.diag([q.OMEGA ** int(k) for k in rng.integers(0, 3, q.DIM)])
    return u @ phases @ q.dagger(u)


# ---------------------------------------------------------------------------
# eigenprojectors


def test_eigenprojectors_identity():
    projs = q.eigenprojectors(np.eye(q.DIM, dtype=complex))
    assert q.frob(projs[0] - np.eye(q.DIM)) < q.TOL_EQ
    assert q.frob(projs[1]) < q.TOL_EQ and q.frob(projs[2]) < q.TOL_EQ


def test_eigenprojectors_diagonal():
    u = np.diag([1, q.OMEGA, q.OMEGA ** 2]).astype(complex)
    projs = q.eigenprojectors(u)
    for a in range(3):
        want = np.zeros((3, 3), dtype=complex)
        want[a, a] = 1
        assert q.frob(projs[a] - want) < q.TOL_EQ


def test_eigenprojectors_completeness_orthogonality():
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = diag_torsion_unitary(rng)
        projs = q.eigenprojectors(u)
        total = sum(projs)
        assert q.frob(total - np.eye(q.DIM)) < q.TOL_EQ
        for a, b in itertools.combinations(range(3), 2):
            assert q.frob(projs[a] @ projs[b]) < q.TOL_EQ
        recon = sum(q.OMEGA ** a * p for a, p in enumerate(projs))
        assert q.frob(recon - u) < q.TOL_EQ


def test_eigenprojectors_reject_bad_input():
    with pytest.raises(InputError):
        q.eigenprojectors(np.diag([2.0, 1.0, 1.0]).astype(complex))
    with pytest.raises(InputError):
        q.eigenprojectors(np.diag([1, -1, 1]).astype(complex))  # 2-torsion, not 3


def test_witness_b_eigenprojector_is_pi01(witness):
    # the omega-eigenprojector of B is the rank-4 block at outcome 01
    projs = q.eigenprojectors(witness["B"])
    assert q.frob(projs[1] - witness["Pi"].ops[(0, 1)]) < q.TOL_EQ


# ---------------------------------------------------------------------------
# measurements


def test_measurement_from_single_identity():
    m = q.measurement_from_unitaries([np.eye(q.DIM, dtype=complex)])
    assert q.frob(m.ops[(0,)] - np.eye(q.DIM)) < q.TOL_EQ
    assert q.frob(m.ops[(1,)]) < q.TOL_EQ and q.frob(m.ops[(2,)]) < q.TOL_EQ


def test_measurement_from_witness_pair(witness):
    m = q.measurement_from_unitaries([witness["A"], witness["B"]])
    assert m.close_to(witness["Pi"])
    for t in ((1, 1), (2, 1), (1, 2)):
        assert q.frob(m.ops[t]) < q.TOL_EQ


def test_measurement_rejects_noncommuting(witness):
    with pytest.raises(InputError) as err:
        q.measurement_from_unitaries([witness["B"], witness["C"]])
    assert "do not commute" in str(err.value)
    assert q.commutator_norm(witness["B"], witness["C"]) > q.NONCOMM_MARGIN


def test_unitaries_measurement_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = q.haar_unitary(rng, q.DIM)
        pats = [np.diag([q.OMEGA ** int(k) for k in rng.integers(0, 3, q.DIM)])
                for _ in range(3)]
        us = [u @ p @ q.dagger(u) for p in pats]
        m = q.measurement_from_unitaries(us)
        back = q.unitaries_from_measurement(m)
        for orig, rec in zip(us, back):
            assert q.frob(orig - rec) < q.TOL_EQ
        again = q.measurement_from_unitaries(back)
        assert again.close_to(m)


def test_measurement_faces_are_fiber_sums(witness):
    pi = witness["Pi"]
    d1 = q.face(pi, 1)
    manual = pi.ops[(0, 1)] + pi.ops[(1, 0)] + pi.ops[(2, 2)]
    assert q.frob(d1.ops[(1,)] - manual) < q.TOL_EQ
    d0 = q.face(pi, 0)
    assert q.frob(d0.ops[(1,)] - sum(pi.ops[(a, 1)] for a in range(3))) < q.TOL_EQ


def test_degeneracies_are_sections_of_faces(witness):
    # d_i s_i = d_{i+1} s_i = id on the witness 2-simplex
    pi = witness["Pi"]
    for i in range(3):
        s = q.degeneracy(pi, i)
        s.validate()
        assert q.face(s, i).close_to(pi) and q.face(s, i + 1).close_to(pi)


# ---------------------------------------------------------------------------
# key-example membership


def test_in_key_example_witnesses(witness):
    assert q.in_key_example(witness["Pi"])[0]
    assert q.in_key_example(witness["Psi"])[0]


def test_in_key_example_generic_pair_fails():
    rng = np.random.default_rng(23)
    hits = 0
    for _ in range(10):
        u = q.haar_unitary(rng, q.DIM)
        ranks = rng.multinomial(q.DIM, [1 / 9] * 9)
        labels = list(itertools.product(range(3), repeat=2))
        blocks = {}
        start = 0
        for lab, r in zip(labels, ranks):
            sel = np.zeros((q.DIM, q.DIM), dtype=complex)
            for k in range(start, start + int(r)):
                sel[k, k] = 1
            blocks[lab] = u @ sel @ q.dagger(u)
            start += int(r)
        m = q.ProjectiveMeasurement(2, blocks)
        ok, wit = q.in_key_example(m)
        if not ok:
            hits += 1
            label, norm = wit
            assert label in ((1, 1), (2, 1), (1, 2)) and norm > q.TOL_EQ
    assert hits >= 8  # only rank patterns avoiding all three labels pass


def test_in_key_example_dimension_guard():
    bad = q.ProjectiveMeasurement(2, {t: np.zeros((3, 3), dtype=complex)
                            for t in itertools.product(range(3), repeat=2)})
    with pytest.raises(InputError):
        q.in_key_example(bad)


def test_in_key_example_tuple(witness):
    ok, _ = q.in_key_example_tuple([witness["A"], witness["B"]])
    assert ok


def test_tau2_label_action_preserves_condition_set():
    # degree-2 cyclic action for the canonical central element: the label
    # permutation (a, b) -> (1 - a - b, a); the defining set is an orbit
    perm = lambda a, b: ((1 - a - b) % 3, a)
    forbidden = {(1, 1), (2, 1), (1, 2)}
    assert {perm(*t) for t in forbidden} == forbidden
    orbit = [(0, 0)]
    for _ in range(2):
        orbit.append(perm(*orbit[-1]))
    assert orbit == [(0, 0), (1, 0), (0, 1)]
    orbit = [(2, 2)]
    for _ in range(2):
        orbit.append(perm(*orbit[-1]))
    assert orbit == [(2, 2), (0, 2), (2, 0)]


# ---------------------------------------------------------------------------
# witness bundle


def test_build_witness_checks(witness):
    checks = witness["checks"]
    assert checks["pi_in_key_example"] and checks["psi_in_key_example"]
    assert checks["pi01_rank"] == 4
    assert checks["d2psi_eq_d1pi_residual"] < 1e-9
    assert checks["AB_commutator"] < 1e-9
    assert checks["BC_commutator"] > q.NONCOMM_MARGIN


def test_membrane_has_no_filler(witness):
    ok, norms = q.membrane_filler_check(witness["Pi"], witness["Psi"])
    assert not ok
    assert norms["23"] > q.NONCOMM_MARGIN


def test_sample_z_two_simplex_valid():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = q.sample_z_two_simplex(rng)
        assert q.in_key_example(m)[0]
        a, b = q.unitaries_from_measurement(m)
        assert q.commutator_norm(a, b) < q.TOL_EQ


def test_inverseless_samples_collapse():
    rep = q.inverseless_sample_check(trials=25, seed=42)
    assert rep["passed"] == rep["trials"] == 25
    assert all(r["relation_residual"] < q.TOL_EQ for r in rep["results"])


def test_constraint_violating_simplex_rejected():
    bad = q.degenerate_two_simplex()
    shift = np.zeros((q.DIM, q.DIM), dtype=complex)
    shift[0, 0] = 1
    bad.ops[(1, 1)] = shift
    bad.ops[(0, 0)] = bad.ops[(0, 0)] - shift
    ok, wit = q.in_key_example(bad)
    assert not ok and wit[0] == (1, 1)


# ---------------------------------------------------------------------------
# Born states


def test_born_state_uniform():
    coords = q.measurement_from_unitaries(
        [np.diag([q.OMEGA ** (k % 3) for k in range(q.DIM)]),
         np.diag([q.OMEGA ** (k // 3) for k in range(q.DIM)])])
    rho = np.eye(q.DIM, dtype=complex) / q.DIM
    p = q.born_state(rho, coords)
    assert all(abs(v - 1 / 9) < q.TOL_EQ for v in p)


def test_born_state_pure(witness):
    rho = np.zeros((q.DIM, q.DIM), dtype=complex)
    rho[0, 0] = 1  # |00><00|
    p = dict(zip(witness["Pi"].outcomes(), q.born_state(rho, witness["Pi"])))
    assert abs(p[(0, 0)] - 1) < q.TOL_EQ
    assert all(abs(p[t]) < q.TOL_EQ for t in p if t != (0, 0))


def test_born_state_normalized_random():
    rng = np.random.default_rng(8)
    rho = q.random_density(rng)
    m = q.sample_z_two_simplex(rng)
    p = q.born_state(rho, m)
    assert abs(sum(p) - 1) < q.TOL_EQ


def test_state_formula_checks():
    rng = np.random.default_rng(17)
    for rho in (np.eye(q.DIM, dtype=complex) / q.DIM, q.random_density(rng)):
        rep = q.key_example_state_check(rho, trials=20, seed=13)
        assert rep["passed"] == rep["trials"]
        assert rep["phi_omega_sq_one_residual"] < 1e-12


def test_state_formula_distinguishes_densities():
    # sampled injectivity: distinct density operators disagree on some
    # sampled simplex edge
    rng = np.random.default_rng(29)
    rho1, rho2 = q.random_density(rng), q.random_density(rng)
    found = False
    for _ in range(20):
        m = q.sample_z_two_simplex(rng)
        for i in (0, 1, 2):
            e = q.face(m, i)
            ops = {k: e.ops[(k,)] for k in range(3)}
            if abs(q.phi_state(rho1, ops) - q.phi_state(rho2, ops)) > 1e-6:
                found = True
    assert found


def test_validate_density():
    assert q.validate_density(np.eye(q.DIM, dtype=complex) / q.DIM)
    with pytest.raises(InputError):
        q.validate_density(np.eye(q.DIM, dtype=complex))  # trace 9
    bad = np.zeros((q.DIM, q.DIM), dtype=complex)
    bad[0, 0], bad[1, 1] = 2, -1
    with pytest.raises(InputError):
        q.validate_density(bad)
