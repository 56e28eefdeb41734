"""Tests of the benchmark itself: generator, oracle and tracer.

Run from the repository root with `python3 -m pytest bench`.  They use the
cheap instances of each workload, so they take a few seconds.
"""

import json
import os
import statistics

import pytest

import inputs
import oracle
import run
import tracer
from workloads import WORKLOADS

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

ALL_INPUTS = ("q8", "d4", "d5", "s4", "z6", "l4", "bool2", "bool3", "s4-magma", "y")
# the instances cheap enough for a unit test; build-roundtrip and
# quantum-sampling run whole
CHEAP = {"segal-groups": ("q8", "d4"), "effect-states": ("l4", "bool2")}


def _keep(workload, label):
    names = CHEAP.get(workload)
    return names is None or label.split()[-1] in names


def run_cheap(workload, seed, work):
    """Set up and run one pass of the cheap instances; (runner, results)."""
    wl = WORKLOADS[workload]
    paths = inputs.write_inputs(seed, wl.inputs, str(work))
    with run.Runner(SRC, str(work)) as runner:
        for inv in wl.setup(paths, str(work)):
            if _keep(workload, inv.label):
                runner.verify(inv, runner.run(inv))
        invs = [inv for inv in wl.invocations(paths, str(work), seed)
                if _keep(workload, inv.label)]
        results = run.run_pass(runner, invs).results
    return runner, invs, results


def test_generator_is_deterministic(tmp_path):
    assert inputs.input_files(7, ALL_INPUTS) == inputs.input_files(7, ALL_INPUTS)
    a = inputs.write_inputs(7, ALL_INPUTS, str(tmp_path))
    for name, path in a.items():
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == inputs.input_files(7, ALL_INPUTS)[name]
    other = inputs.input_files(8, ALL_INPUTS)
    assert other["s4.json"] != inputs.input_files(7, ALL_INPUTS)["s4.json"]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_relabelled_inputs_keep_their_structure(seed):
    for name in inputs.GROUPS:
        table = inputs.seeded_group(seed, name)
        n = len(table)
        assert all(table[0][a] == a == table[a][0] for a in range(n))
        assert all(sorted(row) == list(range(n)) for row in table)
        assert all(table[table[a][b]][c] == table[a][table[b][c]]
                   for a in range(n) for b in range(n) for c in range(n))
    for name in inputs.EFFECT_ALGEBRAS:
        size, products, perp = inputs.seeded_effect_algebra(seed, name)
        assert all(products[(0, a)] == a for a in range(size))
        assert all(products.get((a, perp[a])) == perp[0] for a in range(size))
    y = inputs.seeded_y(seed)
    assert len(y) == len(set(y)) == inputs.Y_SIZE


def test_verdicts_agree_across_seeds(tmp_path):
    verdicts = {}
    for seed in (1, 2):
        for name in WORKLOADS:
            work = tmp_path / f"{name}-{seed}"
            work.mkdir()
            runner, invs, results = run_cheap(name, seed, work)
            assert runner.failed == 0, runner.problems
            for inv, res in zip(invs, results):
                checks = json.loads(res.stdout).get("checks") if res.stdout else None
                if isinstance(checks, list):
                    checks = [(c["name"], c["verdict"]) for c in checks]
                verdicts.setdefault(inv.label, []).append((res.code, checks))
    for label, per_seed in verdicts.items():
        assert per_seed[0] == per_seed[1], label


def _corrupt_first(data, old, new):
    assert old in data
    return data.replace(old, new, 1)


def test_oracle_flags_corrupted_outputs(tmp_path):
    runner, invs, results = run_cheap("effect-states", 3, tmp_path)
    assert runner.failed == 0, runner.problems
    by_label = {inv.label: (inv, res) for inv, res in zip(invs, results)}
    inv, res = by_label["states bool2"]
    body = json.loads(res.stdout)
    ones = ["1"] * len(body["states"]["sample"])
    bad_state = dict(body, states=dict(body["states"], sample=ones))
    bad_basis = dict(body, hc1=dict(body["hc1"], basis=[["1"] * len(body["hc1"]["basis"][0])]))
    for corrupt in (bad_state, bad_basis):
        assert inv.check(json.dumps(corrupt).encode(), None)
    inv, res = by_label["check cyclic l4"]
    assert inv.check(_corrupt_first(res.stdout, b'"pass"', b'"fail"'), None)
    assert inv.check(_corrupt_first(res.stdout, b"polytope dim 0", b"polytope dim 1"), None)

    changed = _corrupt_first(res.stdout, b"dimension 0", b"dimension 0 ")
    with run.Runner(SRC, str(tmp_path)) as fresh:
        for code, stdout in ((0, res.stdout[:-5]), (1, res.stdout), (0, res.stdout),
                             (0, changed)):
            fresh.verify(inv, run.Result(code, stdout, b"", None, 0.1, 1, None))
    assert (fresh.attempted, fresh.failed) == (4, 3)
    assert "differs from the first pass" in fresh.problems[-1][1][0]


def test_oracle_flags_corrupted_builds_and_reports(tmp_path):
    runner, invs, results = run_cheap("segal-groups", 4, tmp_path)
    assert runner.failed == 0, runner.problems
    inv, res = invs[0], results[0]
    assert inv.check(_corrupt_first(res.stdout, b'"fail"', b'"pass"'), None)
    nerve = os.path.join(str(tmp_path), "q8-nerve.json")
    with open(nerve, "rb") as fh:
        data = fh.read()
    assert not oracle.check_built_sset(data, (1, 8, 40, 176, 736))
    body = json.loads(data)
    body["faces"]["2,1"][0] = 99
    assert oracle.check_built_sset(json.dumps(body).encode(), (1, 8, 40, 176, 736))
    assert oracle.check_built_sset(data, (1, 8, 40, 176, 737))


def test_traced_run_matches_untraced_and_records_spans(tmp_path):
    wl = WORKLOADS["effect-states"]
    paths = inputs.write_inputs(5, wl.inputs, str(tmp_path))
    with run.Runner(SRC, str(tmp_path)) as runner:
        for inv in wl.setup(paths, str(tmp_path)):
            runner.verify(inv, runner.run(inv))
        inv = next(i for i in wl.invocations(paths, str(tmp_path), 5)
                   if i.label == "check cyclic bool2")
        plain = runner.run(inv)
        traced = runner.run(inv, traced=True)
    assert runner.verify(inv, plain) and runner.verify(inv, traced)
    assert plain.digest() == traced.digest()
    spans = traced.spans
    names = [s[0] for s in spans]
    # cyclic binds its own is_two_segal: the wrapper must reach it there too
    two_segal = names.index("sset.is_two_segal")
    parents = []
    p = spans[two_segal][3]
    while p >= 0:
        parents.append(spans[p][0])
        p = spans[p][3]
    assert "cyclic.effect_algebroid_conditions" in parents and parents[-1] == "cli.main"
    assert "sset.subface" not in names and "sset.spine" not in names
    m = tracer.summarize([spans])
    assert m["cyclic.validate_cyclic.repeat_share"] == pytest.approx(2 / 3)
    assert m["states.find_state.repeat_share"] == pytest.approx(1 / 2)
    assert m["ratlp.solve.calls"] > 0 and m["sset.membranes"] > 0
    assert set(m) == set(tracer.metric_names())
    layer_self = sum(m[f"{layer}.self_s"] for layer in tracer.LAYERS)
    root = next(s for s in spans if s[0] == "cli.main")
    assert layer_self <= root[2] - root[1] + 1e-9


def test_tail_percentile():
    assert run.tail([float(i) for i in range(1, 9)]) == (90, 8.0, 0)
    pct, value, beyond = run.tail([float(i) for i in range(1, 201)])
    assert (pct, value, beyond) == (95, 190.0, 10)


def test_reported_times_are_scaled_by_the_calibration():
    results = [run.Result(0, b"", b"", None, lat, 2048, None) for lat in (1.0, 3.0)]
    plain, _ = run.end_to_end([run.Pass(results, 4.0, 1.0)] * 2, 0.5)
    scaled, _ = run.end_to_end([run.Pass(results, 4.0, 2.0)] * 2, 0.5)
    for name, (value, unit) in plain.items():
        assert scaled[name][0] == (2 * value if unit == "s" and name != "setup_s" else value)
    assert plain["wall_s"][0] == 4.0 and plain["peak_rss_mb"][0] == 2.0


def test_calibrated_runner_times_the_reference(tmp_path):
    with run.Runner(SRC, str(tmp_path)) as runner:
        runner.reference()
        runner.reference()
    assert len(runner.reference_s) == 2 and min(runner.reference_s) > 0
    assert runner.scale(0) == run.calibrate.NOMINAL_S / statistics.median(runner.reference_s)
