"""Correctness oracle for the benchmark's CLI invocations (never timed).

Each check takes the bytes an invocation produced and returns a list of
problems; an empty list means the output is correct.  A check may also
raise on output too malformed to inspect (ValueError for bad JSON,
KeyError or TypeError for a missing or mistyped field); the caller counts
that as a problem too.

The expected verdicts, level counts and dimensions are invariant under the
seeded relabelling, so they are constants here.  States and HC^1 bases are
re-substituted exactly, with Fraction, into the face and tau tables of the
cyclic JSON the invocation read.
"""

from __future__ import annotations

import json
from fractions import Fraction

PASS, FAIL = "pass", "fail"

SSET_BATTERY = ("simplicial-identities", "spiny", "reduced", "2-coskeletal", "2-segal",
                "weakly-2-segal", "inverseless")


def sset_verdicts(two_segal):
    """Commutative nerves: 2-Segal only for abelian groups, never inverseless."""
    return [(name, FAIL if name == "inverseless" or (name == "2-segal" and not two_segal)
             else PASS) for name in SSET_BATTERY]


CYCLIC_BATTERY = (
    "cyclic-relations",
    "simplicial-effect/simplicial-identities", "simplicial-effect/spiny",
    "simplicial-effect/inverseless", "simplicial-effect/weakly-2-segal", "simplicial-effect",
    "effect-algebroid/two_segal", "effect-algebroid/U", "effect-algebroid/Z", "effect-algebroid",
    "ortho-1-rotation", "ortho-2-involution", "ortho-3-one-perp-is-zero",
    "ortho-4-composite-one-forces-perp", "states", "hc1",
)

MAGMA_VERDICTS = [("classification", PASS), ("inverseless", FAIL),
                  ("weakly-associative-partial-group(arity<=3)", PASS)]


def _verdicts(report):
    return [(c["name"], c["verdict"]) for c in report["checks"]]


def check_sset_report(stdout, two_segal, levels=4):
    """`check sset --json` on a commutative nerve."""
    rep = json.loads(stdout)
    probs = []
    want = sset_verdicts(two_segal)
    if _verdicts(rep) != want:
        probs.append(f"verdicts {_verdicts(rep)} != {want}")
    if rep.get("exit_code") != 1:
        probs.append(f"report exit_code {rep.get('exit_code')} != 1")
    if rep.get("levels_bound") != levels:
        probs.append(f"levels_bound {rep.get('levels_bound')} != {levels}")
    return probs


def check_cyclic_report(stdout, state_dim, hc1_dim):
    """`check cyclic --json --states --hc1` on an effect nerve: all pass."""
    rep = json.loads(stdout)
    probs = []
    want = [(name, PASS) for name in CYCLIC_BATTERY]
    if _verdicts(rep) != want:
        probs.append(f"verdicts {_verdicts(rep)} != {want}")
    wit = {c["name"]: c.get("witness") for c in rep["checks"]}
    if wit.get("states") != f"polytope dim {state_dim}":
        probs.append(f"states witness {wit.get('states')!r}, want polytope dim {state_dim}")
    if wit.get("hc1") != f"dimension {hc1_dim}":
        probs.append(f"hc1 witness {wit.get('hc1')!r}, want dimension {hc1_dim}")
    if rep.get("exit_code") != 0:
        probs.append(f"report exit_code {rep.get('exit_code')} != 0")
    return probs


def _rank(rows):
    """Rank of a list of Fraction rows by exact Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    width = len(rows[0]) if rows else 0
    for col in range(width):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / p[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], p)]
        rank += 1
    return rank


def _edge_tables(cyclic_body):
    """(edge count, tau_1, [(d0, d1, d2) per 2-simplex]) from cyclic JSON."""
    faces = cyclic_body["faces"]
    n = cyclic_body["counts"][1]
    tau1 = [int(v) for v in cyclic_body["tau"]["1"]]
    tri = list(zip(faces["2,0"], faces["2,1"], faces["2,2"]))
    return n, tau1, tri


def cocycle_residuals(cyclic_body, f, rhs_tau):
    """Nonzero residuals of f(tau e) + f(e) = rhs_tau and f(d1) = f(d2) + f(d0)."""
    n, tau1, tri = _edge_tables(cyclic_body)
    out = []
    for e in range(n):
        if f[tau1[e]] + f[e] != rhs_tau:
            out.append(("tau", e))
    for s, (d0, d1, d2) in enumerate(tri):
        if f[d1] != f[d2] + f[d0]:
            out.append(("additivity", s))
    return out


def hc1_dimension(cyclic_body):
    """Dimension of the degree-one cyclic cocycles, by the oracle's own rref."""
    n, tau1, tri = _edge_tables(cyclic_body)
    rows = []
    for e in range(n):
        r = [Fraction(0)] * n
        r[tau1[e]] += 1
        r[e] += 1
        rows.append(r)
    for d0, d1, d2 in tri:
        r = [Fraction(0)] * n
        r[d1] += 1
        r[d2] -= 1
        r[d0] -= 1
        rows.append(r)
    return n - _rank(rows)


def check_states(stdout, cyclic_body, state_dim, hc1_dim):
    """`states --json --hc1`: dimensions, and exact re-substitution of the
    sample state and of every HC^1 basis vector."""
    body = json.loads(stdout)
    probs = []
    n = cyclic_body["counts"][1]
    st = body["states"]
    if st["dim"] != state_dim:
        probs.append(f"state polytope dim {st['dim']} != {state_dim}")
    phi = [Fraction(v) for v in st["sample"]]
    if len(phi) != n:
        probs.append(f"sample state has {len(phi)} values for {n} edges")
    else:
        if any(v < 0 or v > 1 for v in phi):
            probs.append("sample state leaves [0, 1]")
        bad = cocycle_residuals(cyclic_body, phi, 1)
        if bad:
            probs.append(f"sample state fails re-substitution at {bad[:3]}")
    h = body["hc1"]
    basis = [[Fraction(v) for v in vec] for vec in h["basis"]]
    if h["dim"] != hc1_dim or len(basis) != hc1_dim:
        probs.append(f"hc1 dim {h['dim']} with {len(basis)} vectors, want {hc1_dim}")
    for k, vec in enumerate(basis):
        if len(vec) != n:
            probs.append(f"hc1 basis vector {k} has length {len(vec)}")
            continue
        bad = cocycle_residuals(cyclic_body, vec, 0)
        if bad:
            probs.append(f"hc1 basis vector {k} fails re-substitution at {bad[:3]}")
    if not probs:
        if _rank(basis) != len(basis):
            probs.append("hc1 basis vectors are linearly dependent")
        if hc1_dimension(cyclic_body) != len(basis):
            probs.append("hc1 basis does not span the cocycle space")
    return probs


def check_built_sset(data, counts, cyclic=False):
    """A `build ... --out` file: level counts and the shape of every table."""
    body = json.loads(data)
    probs = []
    K = len(counts) - 1
    if body["truncation"] != K or body["counts"] != list(counts):
        return [f"truncation {body['truncation']} counts {body['counts']}, "
                f"want {K} {list(counts)}"]
    for n in range(1, K + 1):
        for i in range(n + 1):
            tab = body["faces"][f"{n},{i}"]
            if len(tab) != counts[n] or any(not 0 <= v < counts[n - 1] for v in tab):
                probs.append(f"face table {n},{i} malformed")
    for n in range(K):
        for i in range(n + 1):
            tab = body["degeneracies"][f"{n},{i}"]
            if len(tab) != counts[n] or any(not 0 <= v < counts[n + 1] for v in tab):
                probs.append(f"degeneracy table {n},{i} malformed")
    if cyclic:
        for n in range(1, K + 1):
            if sorted(body["tau"][str(n)]) != list(range(counts[n])):
                probs.append(f"tau at level {n} is not a permutation")
    return probs


def check_magma_report(stdout):
    """`check magma --json` on the commuting magma of S4."""
    rep = json.loads(stdout)
    probs = []
    if _verdicts(rep) != MAGMA_VERDICTS:
        probs.append(f"verdicts {_verdicts(rep)} != {MAGMA_VERDICTS}")
    elif not rep["checks"][0]["witness"].startswith("weak-partial-monoid"):
        probs.append(f"classification {rep['checks'][0]['witness']!r}")
    if rep.get("exit_code") != 1:
        probs.append(f"report exit_code {rep.get('exit_code')} != 1")
    return probs


def check_quantum_demo(stdout, trials):
    """`quantum-demo --json`: every sampled check passed, trials as asked."""
    body = json.loads(stdout)
    probs = []
    for key in ("inverseless_samples", "state_checks_maximally_mixed",
                "state_checks_random_density"):
        blk = body[key]
        if not blk["trials"] == blk["passed"] == trials:
            probs.append(f"{key}: passed {blk['passed']} of {blk['trials']}, want {trials}")
    w = body["witness_checks"]
    if not (w["pi_in_key_example"] and w["psi_in_key_example"]):
        probs.append("witness measurements left the key example")
    return probs


def check_witness(stdout):
    """`build key-example-witness`: a 9-dimensional witness in the key example."""
    body = json.loads(stdout)
    c = body["checks"]
    probs = []
    if body["dim"] != 9:
        probs.append(f"dim {body['dim']} != 9")
    if not (c["pi_in_key_example"] and c["psi_in_key_example"]):
        probs.append("witness measurements left the key example")
    if not c["BC_commutator"] > 0.1 or not c["AB_commutator"] < 1e-9:
        probs.append(f"commutators {c['AB_commutator']} {c['BC_commutator']}")
    for key in ("A", "B", "C"):
        if len(body[key]) != 9 or any(len(row) != 9 for row in body[key]):
            probs.append(f"matrix {key} is not 9 x 9")
    return probs
