import contextlib
import io
import itertools
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import quantum_oracles as oracle
from quantum_exact import certify_no_filler
from simpeff import cli
from simpeff import quantum as q
from simpeff.util import InputError


@pytest.fixture(scope="module")
def witness():
    return q.build_witness()


def diag_torsion_unitary(rng):
    """Haar-conjugated diagonal of cube roots of unity."""
    u = oracle.haar_unitary(rng, q.DIM)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_validators_reject_non_finite_input(bad):
    """A NaN or infinite entry fails every tolerance test it meets, so each
    validator raises InputError, wholly or at one entry.  numpy's warnings
    about the arithmetic on such entries are not what is tested here."""
    basis = np.stack([np.diag(row) for row in np.eye(3, dtype=complex)])
    one_entry = basis.copy()
    one_entry[1, 0, 0] = bad
    diag = np.diag([1, q.OMEGA, bad])
    state = np.eye(q.DIM, dtype=complex) / q.DIM
    state[4, 4] = bad
    cases = [
        (lambda: q.ProjectiveMeasurement(1, np.full((3, 3, 3), bad, dtype=complex)).validate(),
         r"entry \(0,\) is not a projector"),
        (lambda: q.ProjectiveMeasurement(1, one_entry).validate(),
         r"entry \(1,\) is not a projector"),
        (lambda: q.eigenprojectors(np.full((3, 3), bad, dtype=complex)), "not unitary"),
        (lambda: q.eigenprojectors(diag), "not unitary"),
        (lambda: q.validate_density(np.full((q.DIM, q.DIM), bad, dtype=complex)),
         "not Hermitian"),
        (lambda: q.validate_density(state), "not Hermitian"),
    ]
    q.ProjectiveMeasurement(1, basis).validate()
    for call, message in cases:
        with np.errstate(all="ignore"), pytest.raises(InputError, match=message):
            call()


def test_witness_b_eigenprojector_is_pi01(witness):
    # the omega-eigenprojector of B is the rank-4 block at outcome 01
    projs = q.eigenprojectors(witness["B"])
    assert q.frob(projs[1] - witness["Pi"][(0, 1)]) < q.TOL_EQ


# ---------------------------------------------------------------------------
# measurements


def test_measurement_from_single_identity():
    m = q.measurement_from_unitaries([np.eye(q.DIM, dtype=complex)])
    assert q.frob(m[(0,)] - np.eye(q.DIM)) < q.TOL_EQ
    assert q.frob(m[(1,)]) < q.TOL_EQ and q.frob(m[(2,)]) < q.TOL_EQ


def test_measurement_from_witness_pair(witness):
    m = q.measurement_from_unitaries([witness["A"], witness["B"]])
    assert oracle.close_to(m, witness["Pi"])
    for t in ((1, 1), (2, 1), (1, 2)):
        assert q.frob(m[t]) < q.TOL_EQ


def test_measurement_rejects_noncommuting(witness):
    with pytest.raises(InputError) as err:
        q.measurement_from_unitaries([witness["B"], witness["C"]])
    assert "do not commute" in str(err.value)
    assert q.commutator_norm(witness["B"], witness["C"]) > q.NONCOMM_MARGIN


def test_unitaries_measurement_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(5):
        u = oracle.haar_unitary(rng, q.DIM)
        pats = [np.diag([q.OMEGA ** int(k) for k in rng.integers(0, 3, q.DIM)])
                for _ in range(3)]
        us = [u @ p @ q.dagger(u) for p in pats]
        m = q.measurement_from_unitaries(us)
        back = q.unitaries_from_measurement(m)
        for orig, rec in zip(us, back):
            assert q.frob(orig - rec) < q.TOL_EQ
        again = q.measurement_from_unitaries(back)
        assert oracle.close_to(again, m)


def test_measurement_faces_are_fiber_sums(witness):
    pi = witness["Pi"]
    d1 = q.face(pi, 1)
    manual = pi[(0, 1)] + pi[(1, 0)] + pi[(2, 2)]
    assert q.frob(d1[(1,)] - manual) < q.TOL_EQ
    d0 = q.face(pi, 0)
    assert q.frob(d0[(1,)] - sum(pi[(a, 1)] for a in range(3))) < q.TOL_EQ


def test_degeneracies_are_sections_of_faces(witness):
    # d_i s_i = d_{i+1} s_i = id on the witness 2-simplex
    pi = witness["Pi"]
    for i in range(3):
        s = q.degeneracy(pi, i)
        s.validate()
        assert oracle.close_to(q.face(s, i), pi) and oracle.close_to(q.face(s, i + 1), pi)


@pytest.mark.parametrize("op, arity, i", [("d", 2, 3), ("d", 2, -1), ("d", 0, 0),
                                         ("s", 2, 3), ("s", 2, 5), ("s", 2, -1)])
def test_maps_reject_an_index_outside_the_arity(op, arity, i):
    """d_i needs 0 <= i <= arity and arity >= 1, s_i needs 0 <= i <= arity."""
    m = q.ProjectiveMeasurement.zeros(arity, q.DIM)
    with pytest.raises(InputError, match=f"^{op}_{i} is not defined on arity {arity}$"):
        {"d": q.face, "s": q.degeneracy}[op](m, i)


# ---------------------------------------------------------------------------
# key-example membership


def test_in_key_example_witnesses(witness):
    assert q.in_key_example(witness["Pi"])[0]
    assert q.in_key_example(witness["Psi"])[0]


def test_in_key_example_generic_pair_fails():
    rng = np.random.default_rng(23)
    hits = 0
    for _ in range(10):
        u = oracle.haar_unitary(rng, q.DIM)
        ranks = rng.multinomial(q.DIM, [1 / 9] * 9)
        labels = list(itertools.product(range(3), repeat=2))
        m = q.ProjectiveMeasurement.zeros(2, q.DIM)
        start = 0
        for lab, r in zip(labels, ranks):
            sel = np.zeros((q.DIM, q.DIM), dtype=complex)
            for k in range(start, start + int(r)):
                sel[k, k] = 1
            m[lab] = u @ sel @ q.dagger(u)
            start += int(r)
        ok, wit = q.in_key_example(m)
        if not ok:
            hits += 1
            label, norm = wit
            assert label in ((1, 1), (2, 1), (1, 2)) and norm > q.TOL_EQ
    assert hits >= 8  # only rank patterns avoiding all three labels pass


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_in_key_example_rejects_non_finite_input(bad):
    """A block with NaN or infinite entries has no norm at most TOL_EQ, so an
    all-NaN or all-inf 2-simplex fails at the first forbidden label."""
    m = q.ProjectiveMeasurement(2, np.full((9, q.DIM, q.DIM), bad, dtype=complex))
    with np.errstate(all="ignore"):
        ok, (label, norm) = q.in_key_example(m)
    assert not ok and label == (1, 1) and not np.isfinite(norm)


def test_in_key_example_dimension_guard():
    bad = q.ProjectiveMeasurement.zeros(2, 3)
    with pytest.raises(InputError):
        q.in_key_example(bad)


def test_in_key_example_tuple(witness):
    ok, _ = q.in_key_example_tuple([witness["A"], witness["B"]])
    assert ok


def test_in_key_example_tuple_arity_three():
    """Every 2-face (i, j, k) of the 3-simplex is checked: its edges are the
    products of us[i:j] and us[j:k], and the first forbidden face is named."""
    eye = np.eye(q.DIM, dtype=complex)
    assert q.in_key_example_tuple([eye, eye, eye]) == (True, None)
    ok, (face, (label, norm)) = q.in_key_example_tuple([q.OMEGA * eye, q.OMEGA * eye, eye])
    assert not ok and (face, label) == ((0, 1, 2), (1, 1))
    assert norm == pytest.approx(3.0, abs=1e-12)
    ok, (face, _) = q.in_key_example_tuple([eye, q.OMEGA * eye, q.OMEGA * eye])
    assert not ok and face == (0, 2, 3)


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
    """The exact certificate: no tolerance in the proof, and the float
    witness within TOL_EQ of it."""
    certify_no_filler(witness)


def test_sample_z_two_simplex_valid():
    rng = np.random.default_rng(3)
    for _ in range(5):
        m = oracle.sample_z_two_simplex(rng)
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
    bad[(1, 1)] = shift
    bad[(0, 0)] = bad[(0, 0)] - shift
    ok, wit = q.in_key_example(bad)
    assert not ok and wit[0] == (1, 1)


# ---------------------------------------------------------------------------
# Born states


def test_born_state_uniform():
    coords = q.measurement_from_unitaries(
        [np.diag([q.OMEGA ** (k % 3) for k in range(q.DIM)]),
         np.diag([q.OMEGA ** (k // 3) for k in range(q.DIM)])])
    rho = np.eye(q.DIM, dtype=complex) / q.DIM
    p = oracle.born_state(rho, coords)
    assert all(abs(v - 1 / 9) < q.TOL_EQ for v in p)


def test_born_state_pure(witness):
    rho = np.zeros((q.DIM, q.DIM), dtype=complex)
    rho[0, 0] = 1  # |00><00|
    p = dict(zip(witness["Pi"].outcomes(), oracle.born_state(rho, witness["Pi"])))
    assert abs(p[(0, 0)] - 1) < q.TOL_EQ
    assert all(abs(p[t]) < q.TOL_EQ for t in p if t != (0, 0))


def test_born_state_normalized_random():
    rng = np.random.default_rng(8)
    rho = q.random_density(rng)
    m = oracle.sample_z_two_simplex(rng)
    p = oracle.born_state(rho, m)
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
        m = oracle.sample_z_two_simplex(rng)
        for i in (0, 1, 2):
            e = q.face(m, i)
            ops = {k: e[(k,)] for k in range(3)}
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


@pytest.mark.parametrize("shape", [(3, 3), (q.DIM, q.DIM - 1)])
def test_density_of_another_shape_is_an_input_error(shape):
    rho = np.eye(*shape, dtype=complex) / min(shape)
    for call in (lambda: q.validate_density(rho),
                 lambda: q.key_example_state_check(rho, trials=1, seed=0)):
        with pytest.raises(InputError, match=f"density operator must be {q.DIM} x {q.DIM}"):
            call()


# ---------------------------------------------------------------------------
# the block array against the per-outcome oracles


def sampled_measurement(rng, arity):
    """A validated measurement from arity commuting Haar-conjugated unitaries."""
    u = oracle.haar_unitary(rng, q.DIM)
    return q.measurement_from_unitaries(
        [u @ np.diag(q.OMEGA ** rng.integers(0, 3, q.DIM)) @ q.dagger(u) for _ in range(arity)])


def rank_one_measurement(rng):
    """An arity-2 measurement whose nine blocks are all rank one."""
    u = oracle.haar_unitary(rng, q.DIM)
    return q.measurement_from_unitaries(
        [u @ np.diag([q.OMEGA ** f(k) for k in range(q.DIM)]) @ q.dagger(u)
         for f in (lambda k: k // 3, lambda k: k % 3)])


def assert_blocks_close(m, ops):
    assert sorted(ops) == m.outcomes()
    for t, p in ops.items():
        assert q.frob(m[t] - p) < q.TOL_EQ


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_array_maps_match_oracles(arity):
    rng = np.random.default_rng(40 + arity)
    for _ in range(3):
        m = sampled_measurement(rng, arity)
        ops = oracle.as_dict(m)
        oracle.validate(arity, ops)
        for i in range(arity + 1):
            assert_blocks_close(q.face(m, i), oracle.face(arity, ops, i))
            s = q.degeneracy(m, i)
            s.validate()
            assert_blocks_close(s, oracle.degeneracy(arity, ops, i))
        for fast, slow in zip(q.unitaries_from_measurement(m),
                              oracle.unitaries_from_measurement(arity, ops), strict=True):
            assert q.frob(fast - slow) < q.TOL_EQ


def assert_same_rejection(arity, blocks):
    ops = dict(zip(itertools.product(range(3), repeat=arity), blocks))
    with pytest.raises(InputError) as fast:
        q.ProjectiveMeasurement(arity, blocks).validate()
    with pytest.raises(InputError) as slow:
        oracle.validate(arity, ops)
    assert str(fast.value) == str(slow.value)
    return str(fast.value)


def test_validate_rejections_match_oracle():
    rng = np.random.default_rng(61)
    m = rank_one_measurement(rng)
    scaled = m.blocks.copy()
    scaled[m.outcomes().index((1, 2))] *= 2
    assert assert_same_rejection(2, scaled) == "entry (1, 2) is not a projector"
    skew = q.face(m, 0).blocks.copy()  # three rank-3 blocks
    skew[2] = skew[2] @ (np.eye(q.DIM) + np.triu(np.ones((q.DIM, q.DIM)), 1))
    assert assert_same_rejection(1, skew) == "entry (2,) is not a projector"
    clash = q.ProjectiveMeasurement(2, m.blocks.copy())
    clash[(2, 1)] = m[(1, 0)]
    clash[(2, 2)] = m[(0, 2)]
    # (1, 0), (2, 1) also clash, but (0, 2), (2, 2) comes first
    assert assert_same_rejection(2, clash.blocks) == "entries (0, 2), (2, 2) are not orthogonal"
    short = m.blocks.copy()
    short[0] = 0
    assert assert_same_rejection(2, short) == "entries do not sum to the identity"
    assert (assert_same_rejection(2, m.blocks[:8])
            == "measurement must be indexed by all outcome tuples")
    assert (assert_same_rejection(3, sampled_measurement(rng, 2).blocks)
            == "measurement must be indexed by all outcome tuples")


def test_accessor_rejects_outcomes_of_another_arity(witness):
    pi = witness["Pi"]
    assert q.frob(pi[(0, 1)] - pi.blocks[1]) == 0
    for bad in [(0,), (0, 1, 2), (0, 3)]:
        with pytest.raises(KeyError):
            pi[bad]


def bad_blocks(rng):
    """Arity-2 blocks that validate rejects: a non-projector, a non-orthogonal
    pair and a sum short of the identity, in that order."""
    m = rank_one_measurement(rng)
    scaled, clash, short = (m.blocks.copy() for _ in range(3))
    scaled[5] *= 2
    clash[8] = m[(0, 2)]
    short[0] = 0
    return [scaled, clash, short]


@pytest.mark.parametrize("k", [0, 3, 6])
def test_stacked_validate_names_the_first_bad_measurement(k):
    rng = np.random.default_rng(71)
    stack = np.array([sampled_measurement(rng, 2).blocks for _ in range(7)])
    q.ProjectiveMeasurement(2, stack).validate()
    bad = bad_blocks(rng)
    for j, blocks in enumerate(bad):
        ops = dict(zip(itertools.product(range(3), repeat=2), blocks))
        with pytest.raises(InputError) as slow:
            oracle.validate(2, ops)
        mixed = stack.copy()
        mixed[k] = blocks
        if k + 1 < len(stack):  # a later measurement that fails differently
            mixed[k + 1] = bad[(j + 1) % len(bad)]
        with pytest.raises(InputError) as fast:
            q.ProjectiveMeasurement(2, mixed).validate()
        assert str(fast.value) == str(slow.value)


def validate_message(arity, blocks):
    """validate's message on a stack of blocks, or None when it passes."""
    try:
        q.ProjectiveMeasurement(arity, blocks).validate()
    except InputError as exc:
        return str(exc)
    return None


def oracle_message(arity, blocks):
    """The per-outcome oracle's message on the first failing measurement of a
    stack, or None when every measurement passes."""
    for m in blocks.reshape(-1, *blocks.shape[-3:]):
        try:
            oracle.validate(arity, dict(zip(itertools.product(range(3), repeat=arity), m)))
        except InputError as exc:
            return str(exc)
    return None


def perturbed(rng, stack, hermitian):
    """The stack with one block of one measurement moved by a random
    direction, Hermitian or not, of Frobenius norm between 1e-9 and 1e-3:
    past TOL_PROJ the block is no projector, and below it the sum is off the
    identity."""
    z = q.ginibre(rng, stack.shape[-1])
    if hermitian:
        z = z + q.dagger(z)
    out = stack.copy()
    k, o = rng.integers(len(stack)), rng.integers(stack.shape[1])
    out[k, o] += 10 ** rng.uniform(-9, -3) * z / q.frob(z)
    return out


def turned_rank_one(rng, arity, k):
    """A stack of k measurements on C^(3^arity) whose blocks are the basis
    projectors in a random order, with one block of one measurement turned
    toward another block by an angle between 10^-7.5 and 10^-5.  The pair
    then has |P_s P_t|_F = sin cos of the angle, which straddles TOL_PROJ and
    the screen's threshold sqrt(1e-13); below TOL_PROJ the sum is still off
    the identity by more than TOL_EQ."""
    dim = 3 ** arity
    eye = np.eye(dim, dtype=complex)
    stack = np.array([[np.outer(eye[b], eye[b]) for b in rng.permutation(dim)]
                      for _ in range(k)])
    j = rng.integers(k)
    s, t = rng.choice(dim, 2, replace=False)
    theta = 10 ** rng.uniform(-7.5, -5)
    v = np.cos(theta) * stack[j, s].diagonal() + np.sin(theta) * stack[j, t].diagonal()
    stack[j, s] = np.outer(v, v)
    return stack


def test_validate_screen_matches_oracle_near_tolerance(monkeypatch):
    """validate, with its Gram screen and exact fallback, gives the oracle's
    message on valid stacks of one to five measurements, on perturbed ones,
    and on turned rank-one projectors.  The screen alone clears every pair of
    the valid stacks; the turned pairs above its threshold reach the fallback
    product, which both clears and rejects some of them."""
    rng = np.random.default_rng(89)
    decide = q._products_not_orthogonal
    fallback = Counter()

    def recording(p, pairs):
        verdicts = decide(p, pairs)
        fallback.update(kind + (" rejects" if v else " clears") for v in verdicts.tolist())
        return verdicts

    monkeypatch.setattr(q, "_products_not_orthogonal", recording)
    messages = Counter()
    for case in range(600):
        arity, k = 1 + case % 2, int(rng.integers(1, 6))
        kind = ("valid", "hermitian", "general", "turned")[case // 2 % 4]
        if kind == "turned":
            stack = turned_rank_one(rng, arity, k)
        else:
            stack = np.array([sampled_measurement(rng, arity).blocks for _ in range(k)])
            if kind != "valid":
                stack = perturbed(rng, stack, kind == "hermitian")
        if k == 1 and rng.random() < 0.5:
            stack = stack[0]  # a single measurement, with no stack axis
        got = validate_message(arity, stack)
        assert got == oracle_message(arity, stack), (case, kind)
        messages[kind, got and got.split()[-1]] += 1
    assert messages["valid", None] == 150
    assert fallback["valid clears"] == fallback["valid rejects"] == 0
    assert fallback["turned clears"] >= 10 and fallback["turned rejects"] >= 10
    for kind, last_word in (("hermitian", "projector"), ("hermitian", "identity"),
                            ("general", "projector"), ("general", "identity"),
                            ("turned", "orthogonal"), ("turned", "identity")):
        assert messages[kind, last_word] >= 40, (kind, last_word, messages)


def test_screen_alone_decides_sampled_data(monkeypatch):
    """No pair of a sampled measurement, or of the witness, reaches the exact
    fallback: the Gram screen clears them all."""
    calls = []
    decide = q._products_not_orthogonal

    def recording(p, pairs):
        calls.append(pairs[0].size)
        return decide(p, pairs)

    monkeypatch.setattr(q, "_products_not_orthogonal", recording)
    argvs = [["quantum-demo", "--json", "--trials", "200", "--seed", seed] for seed in "01"]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in argvs + [["build", "key-example-witness"]]:
            assert cli.main(argv) == 0, argv
    assert calls == []


def turned_toward(rng, stack, residual):
    """The stack with, in each measurement, one nonzero block P_s moved by
    eps (P_t X P_s + P_s X^dag P_t) toward another nonzero block P_t: the
    first-order turn of P_s's range toward P_t's.  It is Hermitian, its Gram
    entry with P_t stays 0, and its idempotency residual is
    eps^2 |N^2|_F = residual[k], while |P_t P_s|_F grows as eps."""
    out = stack.copy()
    for k, blocks in enumerate(out):
        s, t = rng.choice(np.flatnonzero(q._traces(blocks) > 0.5), 2, replace=False)
        x = q.ginibre(rng, blocks.shape[-1])
        half = blocks[t] @ x @ blocks[s]
        n = half + q.dagger(half)
        blocks[s] += np.sqrt(residual[k] / q.frob(n @ n)) * n
    return out


def test_screen_clears_only_orthogonal_pairs(monkeypatch):
    """On valid stacks whose blocks are turned so that their projector
    residuals lie in 1e-12..1e-8, every pair the screen clears has an exact
    |P_s P_t|_F <= TOL_PROJ.  The turned pairs keep a Gram entry of 0 while
    their products reach 1e-4, so only the residual slack keeps the screen
    from clearing them; the fallback rejects many of them."""
    rng = np.random.default_rng(97)
    opened = []
    decide = q._products_not_orthogonal

    def recording(p, pairs):
        opened.extend(zip(*(a.tolist() for a in pairs)))
        return decide(p, pairs)

    monkeypatch.setattr(q, "_products_not_orthogonal", recording)
    rejects = cleared = 0
    for case in range(60):
        arity, k = 1 + case % 2, int(rng.integers(1, 5))
        valid = np.array([sampled_measurement(rng, arity).blocks for _ in range(k)])
        stack = turned_toward(rng, valid, 10 ** rng.uniform(-12, -8, k))
        residuals = q.frob(stack @ stack - stack).max(-1)
        assert ((5e-13 < residuals) & (residuals < 2e-8)).all()
        opened.clear()
        got = validate_message(arity, stack)
        assert got == oracle_message(arity, stack), case
        n = stack.shape[1]
        exact = q.frob(stack[:, :, None] @ stack[:, None])
        for j, s, t in itertools.product(range(k), range(n), range(n)):
            if s < t and (j, s, t) not in opened:
                assert exact[j, s, t] <= q.TOL_PROJ, (case, j, s, t)
                cleared += 1
        rejects += got is not None and got.endswith("not orthogonal")
    assert rejects >= 40 and cleared >= 1000, (rejects, cleared)


def draws_for(r, seed):
    """A trial's draws for _random_subprojectors with rank P0 = r, the r x r
    Gaussian matrix and the kept count drawn from seed as the oracle draws
    them."""
    rng = np.random.default_rng(seed)
    ranks = np.array([r, q.DIM - r, 0])
    if r == 0:
        return ranks, None, None, 0
    return ranks, None, q.ginibre(rng, r), int(rng.integers(0, r + 1))


def test_random_subprojectors_match_per_trial_oracle():
    """The one Haar step of a block gives each trial the subprojector that
    the per-trial oracle draws, for every rank 0..9 of P and every kept count
    0..r, the trials shuffled into blocks of TRIAL_BLOCK."""
    rng = np.random.default_rng(101)
    cases = []
    for r in range(q.DIM + 1):
        for kept in range(r + 1):
            seed = next(s for s in itertools.count(1000 * r + 100 * kept)
                        if draws_for(r, s)[3] == kept)
            cases.append((r, oracle.haar_blocks(rng, [r, q.DIM - r])[0], seed))
    rng.shuffle(cases)
    for start in range(0, len(cases), q.TRIAL_BLOCK):
        block = cases[start:start + q.TRIAL_BLOCK]
        got = q._random_subprojectors(np.array([p for _, p, _ in block]),
                                      [draws_for(r, s) for r, _, s in block])
        for sub, (r, p, s) in zip(got, block, strict=True):
            want = oracle.random_subprojector(np.random.default_rng(s), p)
            assert q.frob(sub - want) <= 1e-12, (r, s)


def assert_reports_close(fast, slow):
    """Equal trial counts, passed counts and booleans; floats within 1e-12."""
    assert fast.keys() == slow.keys()
    for key in fast.keys() - {"results"}:
        assert fast[key] == pytest.approx(slow[key], abs=1e-12, rel=0)
    for got, want in zip(fast["results"], slow["results"], strict=True):
        assert got.keys() == want.keys()
        for key, value in got.items():
            if isinstance(value, bool):
                assert value is want[key], key
            else:
                assert abs(value - want[key]) <= 1e-12, key


def checked_two_simplices(monkeypatch, kinds, check, *args):
    """A sampled check's report, and the 2-simplices it validated, as one
    array for each of the kinds of sample whose validate calls alternate."""
    calls = []
    validate = q.ProjectiveMeasurement.validate

    def recording(m):
        if m.arity == 2:
            calls.append(m.blocks.reshape(-1, 9, q.DIM, q.DIM))
        validate(m)

    with monkeypatch.context() as patch:
        patch.setattr(q.ProjectiveMeasurement, "validate", recording)
        report = check(*args)
    return report, [np.concatenate(calls[start::kinds]) for start in range(kinds)]


@pytest.mark.parametrize("trials", [1, 7, 10, 11, 40])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_blocked_sampled_checks_match_per_trial_oracles(monkeypatch, trials, seed):
    """Same reports and same samples, trial by trial.  TRIAL_BLOCK is 10, so
    the trial counts end in part-filled and in whole blocks.  The inverseless
    check validates a sample, then a generic sample (per trial or per block),
    so its validate calls alternate between two kinds."""
    assert q.TRIAL_BLOCK == 10
    cases = [(2, q.inverseless_sample_check, oracle.inverseless_sample_check, (trials, seed))]
    for rho in (np.eye(q.DIM, dtype=complex) / q.DIM,
                q.random_density(np.random.default_rng(seed))):
        cases.append((1, q.key_example_state_check, oracle.key_example_state_check,
                      (rho, trials, seed)))
    for kinds, fast_check, slow_check, args in cases:
        fast, fast_samples = checked_two_simplices(monkeypatch, kinds, fast_check, *args)
        slow, slow_samples = checked_two_simplices(monkeypatch, kinds, slow_check, *args)
        assert_reports_close(fast, slow)
        for got, want in zip(fast_samples, slow_samples, strict=True):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12


def test_quantum_demo_traced_memory_stays_small():
    """The sampled checks hold one block of trials at a time, never a whole
    block's Gram array: the traced peak of a 200-trial demo stays within
    1536 KB (about 0.7 MB before blocks, and 1.1 MB with blocks of 10)."""
    argv = ["quantum-demo", "--json", "--trials", "200"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0  # imports and caches are not counted
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peak <= 1536 * 1024
