import contextlib
import copy
import functools
import io
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

from simpeff import cli, palg, sset
from simpeff import cyclic as cyc
from simpeff import nerve as nv
from simpeff.report import EXIT_INTERNAL

from conftest import LOOP5, group_twist
from test_golden import _inputs


@pytest.fixture()
def q8_file(tmp_path):
    path = tmp_path / "q8.json"
    path.write_text(json.dumps(nv.quaternion_group().to_json_dict()))
    return str(path)


@pytest.fixture()
def z4_file(tmp_path):
    path = tmp_path / "z4.json"
    path.write_text(json.dumps(nv.cyclic_group(4).to_json_dict()))
    return str(path)


def run(*argv):
    return cli.main(list(argv))


def test_build_comm_nerve_counts(q8_file, tmp_path):
    out = tmp_path / "nerve.json"
    assert run("build", "comm-nerve", "--group", q8_file, "--levels", "4",
               "--out", str(out)) == 0
    body = json.loads(out.read_text())
    assert body["counts"] == [1, 8, 40, 176, 736]


def test_build_s1_level_sizes(tmp_path):
    out = tmp_path / "s1.json"
    assert run("build", "s1", "--levels", "3", "--out", str(out)) == 0
    assert json.loads(out.read_text())["counts"] == [1, 2, 3, 4]


def test_check_sset_ly_weak_segal_witness(z4_file, tmp_path, capsys):
    ly = tmp_path / "ly.json"
    assert run("build", "action-pg", "--group", z4_file, "--y", "0,1,2",
               "--levels", "4", "--out", str(ly)) == 0
    code = run("check", "sset", "--in", str(ly))
    captured = capsys.readouterr().out
    assert code == 1
    assert "weakly-2-segal: FAIL" in captured
    assert "(1, 1, 1)" in captured


def test_check_cyclic_simplicial_effect(tmp_path, capsys):
    out = tmp_path / "l2.json"
    assert run("build", "effect-nerve", "--family", "l2", "--levels", "4",
               "--out", str(out)) == 0
    assert run("check", "cyclic", "--in", str(out), "--simplicial-effect") == 0
    capsys.readouterr()
    assert run("check", "cyclic", "--in", str(out), "--effect-algebroid") == 0


def test_check_cyclic_broken_identities_exits_1(tmp_path, capsys):
    """A cyclic set that breaks the simplicial identities gets a report: the
    Segal checks cannot run, so their verdicts fail."""
    path = tmp_path / "corrupt-l2.json"
    path.write_text(json.dumps(_inputs()["corrupt-l2.json"]))
    assert run("check", "cyclic", "--in", str(path)) == 1
    out = capsys.readouterr().out
    assert "simplicial-effect/simplicial-identities: FAIL" in out
    assert "effect-algebroid/two_segal: FAIL  [simplicial identities fail]" in out


def test_check_magma_corrupt_exits_2(tmp_path, capsys):
    bad = tmp_path / "corrupt.json"
    bad.write_text("{not json")
    assert run("check", "magma", "--in", str(bad)) == 2
    bad.write_text(json.dumps({"size": 2, "unit": 0, "products": [[0, 0, 0]]}))
    assert run("check", "magma", "--in", str(bad)) == 2  # unit law broken
    capsys.readouterr()


def test_check_magma_compares_products_as_ints(tmp_path, capsys):
    """Entries that agree once read as integers are one product, not a conflict."""
    reports = []
    for products in ([[1, 1, 0]], [[1, 1, 0], [1, 1, "0"]], [[1, 1, 0], ["1", "1", 0]]):
        path = tmp_path / "magma.json"
        path.write_text(json.dumps({"size": 2, "unit": 0, "products": UNIT_ROWS + products}))
        code = run("check", "magma", "--in", str(path))
        reports.append((code, capsys.readouterr()))
    assert reports[0][0] in (0, 1) and not reports[0][1].err
    assert reports[1] == reports[2] == reports[0]


def test_check_magma_reads_unit_as_int(tmp_path, capsys):
    """"unit": "0" is read like 0, as "size" and the products are."""
    reports = []
    for unit in (0, "0"):
        path = tmp_path / "magma.json"
        path.write_text(json.dumps({"size": 2, "unit": unit, "products": UNIT_ROWS}))
        code = run("check", "magma", "--in", str(path))
        reports.append((code, capsys.readouterr()))
    assert reports[0][0] in (0, 1) and not reports[0][1].err
    assert reports[1] == reports[0]


def test_states_cli_l2(tmp_path, capsys):
    out = tmp_path / "l2.json"
    run("build", "effect-nerve", "--family", "l2", "--levels", "4", "--out", str(out))
    assert run("states", "--cyclic", str(out), "--hc1") == 0
    captured = capsys.readouterr().out
    assert "dimension: 0" in captured
    assert "0 1/2 1" in captured
    assert "hc1 dimension: 0" in captured


def test_states_cli_empty(tmp_path, capsys):
    z2 = nv.cyclic_group(2)
    m = nv.magma_of_group(z2)
    x = nv.nerve(m, 4)
    c = group_twist(z2, 1, x)
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(c.to_json_dict()))
    assert run("states", "--cyclic", str(path)) == 0
    assert "EMPTY" in capsys.readouterr().out


def test_reports_are_deterministic(q8_file, tmp_path):
    nerve_path = tmp_path / "nerve.json"
    builds = []
    outs = []
    for name in ("a.json", "b.json"):
        run("build", "comm-nerve", "--group", q8_file, "--levels", "3",
            "--out", str(nerve_path))
        builds.append(nerve_path.read_bytes())
        rep = tmp_path / name
        run("check", "sset", "--in", str(nerve_path), "--json", "--out", str(rep))
        outs.append(rep.read_bytes())
    assert builds[0] == builds[1]
    assert outs[0] == outs[1]


def test_quantum_demo_json(tmp_path):
    out = tmp_path / "demo.json"
    assert run("quantum-demo", "--trials", "3", "--seed", "5", "--json",
               "--out", str(out)) == 0
    body = json.loads(out.read_text())
    assert body["witness_checks"]["BC_commutator"] > 0.1
    assert body["inverseless_samples"]["passed"] == 3


def test_build_key_example_witness(tmp_path):
    out = tmp_path / "witness.json"
    assert run("build", "key-example-witness", "--out", str(out)) == 0
    body = json.loads(out.read_text())
    assert body["checks"]["BC_commutator"] > 0.1
    assert len(body["A"]) == 9 and len(body["A"][0]) == 9
    assert body["checks"]["d2psi_eq_d1pi_residual"] < 1e-9


def test_check_levels_cap(q8_file, tmp_path, capsys):
    nerve_path = tmp_path / "nerve.json"
    run("build", "comm-nerve", "--group", q8_file, "--levels", "4",
        "--out", str(nerve_path))
    assert run("check", "sset", "--in", str(nerve_path), "--levels", "2") == 1
    captured = capsys.readouterr().out
    assert "levels bound: 2" in captured
    assert "2-segal: skipped" in captured


UNIT_ROWS = [[0, 0, 0], [0, 1, 1], [1, 0, 1]]
L2_BAD_PERP = dict(palg.interval_effect_algebra(2).to_json_dict(), orthocomplement=[7, 1, 0])
# argv -> the flag that argparse's one error line names: a flag the command
# does not take, a value outside the flag's range or choices, or a required
# flag left out
REJECTED_FLAGS = {
    ("check", "effect-algebra", "--in", "l2-ea.json", "--levels", "1"): "--levels",
    ("check", "sset", "--in", "s1.json", "--levels", "1"): "--levels",
    ("check", "magma", "--in", "z2-magma.json", "--states"): "--states",
    ("check", "sset", "--in", "s1.json", "--hc1"): "--hc1",
    ("check", "effect-algebra", "--in", "l2-ea.json", "--simplicial-effect"):
        "--simplicial-effect",
    ("check", "sset", "--in", "s1.json", "--effect-algebroid"): "--effect-algebroid",
    ("check", "effect-algebra", "--in", "l2-ea.json", "--levels", "3"): "--levels",
    ("build", "s1", "--group", "z2.json"): "--group",
    ("build", "key-example-witness", "--levels", "3"): "--levels",
    ("build", "comm-nerve", "--group", "z2.json", "--y", "0"): "--y",
    ("build", "effect-nerve", "--family", "l2", "--effect-algebra", "missing.json"):
        "--effect-algebra",
    ("build", "effect-nerve", "--family", "l5"): "--family",
    ("build", "comm-nerve"): "--group",
    ("build", "action-pg", "--group", "z2.json"): "--y",
}


# group files that are not groups, each with the message that rejects it
BAD_GROUPS = {
    # a Latin square with unit 0, not associative
    ("build", "comm-nerve", "--group", "loop5.json"): "associativity fails at (1, 1, 2)",
    ("build", "comm-nerve", "--group", "row-1-repeats.json"): "row 1 is not a permutation",
    ("build", "comm-nerve", "--group", "unit-not-0.json"): "element 0 must be the unit",
}


@pytest.mark.parametrize("argv", [
    ("quantum-demo", "--trials", "0"),
    ("quantum-demo", "--trials", "-1"),
    ("quantum-demo", "--seed", "-1"),
    ("check", "magma", "--in", "negative-size.json"),
    ("check", "effect-algebra", "--in", "bad-perp.json"),
    ("build", "effect-nerve", "--effect-algebra", "bad-perp.json"),
    ("check", "sset", "--in", "s1.json", "--seed", "1"),
    ("build", "s1", "--seed", "1"),
    ("states", "--cyclic", "l2.json", "--seed", "1"),
    ("build", "comm-nerve", "--group", "z2.json", "--levels", "0"),
    ("build", "action-pg", "--group", "z2.json", "--y", "0", "--levels", "-1"),
    ("build", "comm-nerve", "--group", "order-0.json"),
    ("build", "comm-nerve", "--group", "z2.json", "--levels", "1"),
    ("build", "action-pg", "--group", "z2.json", "--y", "0", "--levels", "1"),
    ("build", "s1", "--levels", "1"),
    ("check", "cyclic", "--in", "tau-list.json"),
    ("states", "--cyclic", "tau-int.json"),
    ("check", "cyclic", "--in", "tau-null.json"),
    ("build", "action-pg", "--group", "z3.json", "--action", "bad-action.json", "--y", "0"),
    ("states", "--cyclic", "l2.json", "--levels", "3"),
    ("quantum-demo", "--levels", "3"),
    ("build", "s1", "--json"),
    ("build", "action-pg", "--group", "z2.json", "--y", ""),
    ("check", "sset", "--in", "face-2-7.json"),
    ("check", "cyclic", "--in", "deg-9-0.json"),
    ("states", "--cyclic", "tau-7.json"),
    ("build", "action-pg", "--group", "z2.json", "--y", "a,b"),
    ("check", "magma", "--in", "clash-str-a.json"),
    ("check", "magma", "--in", "clash-str-b.json"),
    ("check", "magma", "--in", "unit-1.json"),
    ("check", "magma", "--in", "unit-x.json"),
    ("check", "magma", "--in", "z2-magma.json", "--levels", "1"),
    *REJECTED_FLAGS,
    # JSON integers are read strictly: no float, no boolean
    ("check", "magma", "--in", "size-2.5.json"),
    ("check", "magma", "--in", "unit-false.json"),
    ("check", "effect-algebra", "--in", "perp-1.0.json"),
    ("check", "sset", "--in", "face-0.7.json"),
    ("check", "sset", "--in", "truncation-3.5.json"),
    ("check", "cyclic", "--in", "tau-0.0.json"),
    ("build", "comm-nerve", "--group", "mul-true.json"),
    ("build", "action-pg", "--group", "z3.json", "--action", "z-size-3.0.json", "--y", "0"),
    # a JSON array is read from an array only, not from a string or an object
    ("check", "sset", "--in", "counts-str.json"),
    ("check", "sset", "--in", "counts-obj.json"),
    ("check", "sset", "--in", "face-str.json"),
    ("check", "effect-algebra", "--in", "perp-str.json"),
    ("check", "effect-algebra", "--in", "product-str.json"),
    ("build", "comm-nerve", "--group", "mul-row-str.json"),
    # a table key not written exactly as "n,i" or "n", beside the one it names
    ("check", "sset", "--in", "face-2-01.json"),
    ("check", "sset", "--in", "face-spaced.json"),
    ("check", "cyclic", "--in", "tau-01.json"),
    *BAD_GROUPS,
])
def test_malformed_input_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "negative-size.json").write_text(
        json.dumps({"size": -1, "unit": 0, "products": []}))
    (tmp_path / "bad-perp.json").write_text(json.dumps(L2_BAD_PERP))
    # two products for the pair (1, 1), the second keyed by a string
    for name, products in (("a", [[1, 1, 0], ["1", 1, 1]]), ("b", [[1, 1, 0], [1, "1", 1]])):
        (tmp_path / f"clash-str-{name}.json").write_text(
            json.dumps({"size": 2, "unit": 0, "products": UNIT_ROWS + products}))
    for name, unit in (("1", "1"), ("x", "x")):
        (tmp_path / f"unit-{name}.json").write_text(
            json.dumps({"size": 2, "unit": unit, "products": UNIT_ROWS}))
    (tmp_path / "z2.json").write_text(json.dumps(nv.cyclic_group(2).to_json_dict()))
    (tmp_path / "z2-magma.json").write_text(
        json.dumps(nv.commuting_magma(nv.cyclic_group(2)).to_json_dict()))
    (tmp_path / "l2-ea.json").write_text(
        json.dumps(palg.interval_effect_algebra(2).to_json_dict()))
    (tmp_path / "order-0.json").write_text(json.dumps({"order": 0, "mul": []}))
    for name, mul in (("loop5", [list(row) for row in LOOP5]),
                      ("row-1-repeats", [[0, 1, 2], [1, 1, 0], [2, 0, 1]]),
                      ("unit-not-0", [[1, 2, 0], [2, 0, 1], [0, 1, 2]])):
        (tmp_path / f"{name}.json").write_text(json.dumps({"order": len(mul), "mul": mul}))
    assert run("build", "s1", "--levels", "3", "--out", "s1.json") == 0
    assert run("build", "effect-nerve", "--family", "l2", "--out", "l2.json") == 0
    l2 = json.loads((tmp_path / "l2.json").read_text())
    for name, tau in (("list", [[0]]), ("int", 3), ("null", None)):
        (tmp_path / f"tau-{name}.json").write_text(json.dumps(dict(l2, tau=tau)))
    # one table more, keyed outside the truncation K = 4
    for name, field, key, copied in (("face-2-7", "faces", "2,7", "2,0"),
                                     ("deg-9-0", "degeneracies", "9,0", "0,0"),
                                     ("tau-7", "tau", "7", "1")):
        extra = copy.deepcopy(l2)
        extra[field][key] = extra[field][copied]
        (tmp_path / f"{name}.json").write_text(json.dumps(extra))
    (tmp_path / "z3.json").write_text(json.dumps(nv.cyclic_group(3).to_json_dict()))
    (tmp_path / "bad-action.json").write_text(
        json.dumps({"z_size": 3, "table": [[0, 1, 2], [1, 7, 0], [2, 0, 1]]}))
    s1 = json.loads((tmp_path / "s1.json").read_text())
    z2_group = nv.cyclic_group(2).to_json_dict()
    l1_ea = palg.interval_effect_algebra(1).to_json_dict()
    for name, body in (
            ("size-2.5", {"size": 2.5, "unit": 0, "products": UNIT_ROWS}),
            ("unit-false", {"size": 2, "unit": False, "products": UNIT_ROWS}),
            ("perp-1.0", dict(palg.interval_effect_algebra(2).to_json_dict(),
                              orthocomplement=[2, 1.0, 0])),
            ("face-0.7", dict(s1, faces=dict(s1["faces"], **{"1,0": [0.7, 0]}))),
            ("truncation-3.5", dict(s1, truncation=3.5)),
            ("tau-0.0", dict(l2, tau=dict(l2["tau"], **{"1": [0.0, 1, 2]}))),
            ("mul-true", dict(z2_group, mul=[[0, 1], [True, 0]])),
            ("z-size-3.0", {"z_size": 3.0, "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]}),
            ("counts-str", dict(s1, counts="1234")),
            ("counts-obj", dict(s1, counts={"1": 0, "2": 0, "3": 0, "4": 0})),
            ("face-str", dict(s1, faces=dict(s1["faces"], **{"2,1": "011"}))),
            ("perp-str", dict(l1_ea, orthocomplement="10")),
            ("product-str", dict(l1_ea, products=[[0, 0, 0], "011", [1, 0, 1]])),
            ("mul-row-str", dict(z2_group, mul=["01", [1, 0]])),
            ("face-2-01", dict(s1, faces=dict(s1["faces"], **{"2,01": [0, 0, 0]}))),
            ("face-spaced", dict(s1, faces=dict(s1["faces"], **{" 2 , 1 ": [0, 0, 0]}))),
            ("tau-01", dict(l2, tau=dict(l2["tau"], **{"01": list(range(l2["counts"][1]))})))):
        (tmp_path / f"{name}.json").write_text(json.dumps(body))
    try:
        code = run(*argv)
    except SystemExit as exc:  # argparse rejects the arguments
        code = exc.code
    err = capsys.readouterr().err
    assert code == 2
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if "error:" in line]
    assert len(errors) == 1
    if argv[-2:] == ("--levels", "1") and argv[1] != "effect-algebra":
        assert "argument --levels:" in err
    if argv in BAD_GROUPS:
        assert errors == [f"error: {BAD_GROUPS[argv]}"]
    if argv in REJECTED_FLAGS:
        assert REJECTED_FLAGS[argv] in errors[0]
        # the usage line is the command's own, listing the flags it takes
        assert err.startswith(f"usage: simpeff {argv[0]} {argv[1]} ")


def test_battery_computes_each_fact_once(z4_file, tmp_path, monkeypatch, capsys):
    """check sset and check cyclic --states --hc1 validate the structure, the
    cyclic relations and inverselessness once, build each level's subface
    tables at most once, count each triangulation's membranes at most once
    and never restrict one simplex at a time by subface, as a spine walk
    does (the Segal pass decides spiny).  Both sets are spiny and
    2-coskeletal, so the pass stops after level 3, and 2-coskeletality is
    decided from pairs on its subface tables without listing any boundary
    tuple."""
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            key = args[1:] if name in ("subface_tables", "membrane_counts",
                                       "boundary_membranes") else ()
            calls[(name,) + key] += 1
            return fn(*args)
        return wrapper

    counted = (sset.validate, cyc.validate_cyclic, sset.is_inverseless_sset, sset.subface,
               sset.subface_tables, sset.membrane_counts, sset.boundary_membranes)
    for module in [m for name, m in sys.modules.items() if name.startswith("simpeff")]:
        for attr, value in list(vars(module).items()):
            if any(value is fn for fn in counted):
                monkeypatch.setattr(module, attr, counting(value.__name__, value))
    cz4, l2 = tmp_path / "cn-z4.json", tmp_path / "en-l2.json"
    assert run("build", "comm-nerve", "--group", z4_file, "--out", str(cz4)) == 0
    assert run("build", "effect-nerve", "--family", "l2", "--out", str(l2)) == 0
    per_level = {("subface_tables", n) for n in (2, 3)}
    per_triangulation = {("membrane_counts", 3, tri) for tri in sset.triangulations(3)}
    # both sets are 2-Segal, so every triangulation at level 3 is visited
    for argv, two_segal in (
            (("check", "sset", "--in", str(cz4)), "  2-segal: pass"),
            (("check", "cyclic", "--in", str(l2), "--states", "--hc1"),
             "effect-algebroid/two_segal: pass")):
        calls.clear()
        run(*argv)
        assert two_segal in capsys.readouterr().out, argv
        assert {k: c for k, c in calls.items() if len(k) > 1} == dict.fromkeys(
            per_level | per_triangulation, 1), argv
        assert calls[("validate",)] == 1, argv
        assert calls[("subface",)] == 0, argv
    assert calls[("validate_cyclic",)] == calls[("is_inverseless_sset",)] == 1


def test_main_calls_do_not_share_state(tmp_path, monkeypatch, capsys):
    """main parses with one parser built at import: interleaved calls print
    what each call prints alone, in a fresh interpreter."""
    monkeypatch.chdir(tmp_path)
    assert run("build", "s1", "--levels", "3", "--out", "s1.json") == 0
    calls = (("check", "sset", "--in", "s1.json", "--json"), ("check", "sset", "--in", "s1.json"),
             ("check", "sset", "--in", "s1.json", "--levels", "x"), ("quantum-demo",))
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    alone = [subprocess.run([sys.executable, "-m", "simpeff.cli", *argv], env=env,
                            capture_output=True, text=True) for argv in calls]
    capsys.readouterr()
    for k in (0, 1, 2, 3, 2, 1, 0, 3):
        try:
            code = run(*calls[k])
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (alone[k].returncode, alone[k].stdout, alone[k].stderr), \
            calls[k]


def test_build_action_pg_traced_memory_stays_small(tmp_path):
    """build action-pg grows its levels as id columns and never builds the
    tuples, which it does not write, nor a child table for level 4, and its
    writer holds decimal strings for the ids below level 4 and one slice of a
    table at a time: the traced peak of L_Y(S4) at K=4 with |Y| = 12 (59616
    level-4 simplices) stays within 5632 KB (about 13.0 MB with the tuples
    built, 8.8 MB with a decimal string for every level-4 id too, 6.5 MB
    with a level-4 child table, and 4.7 MB without)."""
    group = tmp_path / "s4.json"
    group.write_text(json.dumps(nv.symmetric_group(4).to_json_dict()))
    argv = ["build", "action-pg", "--group", str(group), "--y", ",".join(map(str, range(12))),
            "--levels", "4", "--out", str(tmp_path / "ly.json")]
    assert cli.main(argv) == 0  # imports and caches are not counted
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 5632 * 1024


def test_closed_stdout_exits_2(z4_file):
    """A reader that closes stdout after one line is an unwritable output,
    not a bug, and interpreter shutdown prints nothing more."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    # about 480 kB, several times a pipe buffer
    with subprocess.Popen([sys.executable, "-m", "simpeff.cli", "build", "comm-nerve",
                           "--group", z4_file, "--levels", "6"],
                          env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == b"{\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
    assert proc.returncode == 2
    assert err == "error: cannot write stdout: [Errno 32] Broken pipe\n"


def test_internal_error_exits_3(monkeypatch, capsys):
    def crash(args):
        raise KeyError((0,))

    monkeypatch.setattr(cli, "cmd_build", crash)
    assert run("build", "s1") == EXIT_INTERNAL == 3
    assert capsys.readouterr().err == "internal error: KeyError((0,))\n"


@pytest.mark.parametrize("argv", [
    ("comm-nerve", "--group", "q8.json", "--torsion", "4", "--levels", "3"),
    ("comm-nerve", "--group", "s3.json", "--levels", "5"),
    ("action-pg", "--group", "s3.json", "--y", "0,2,5", "--levels", "4"),
    ("action-pg", "--group", "s3.json", "--action", "s3-on-3.json", "--y", "0,1"),
    ("effect-nerve", "--family", "l2", "--levels", "4"),
    ("effect-nerve", "--effect-algebra", "bool2.json", "--levels", "3"),
    ("s1", "--levels", "2"),
    # 16384-entry tables span several slices; the top degeneracies run past
    # the decimal table
    ("comm-nerve", "--group", "z4.json", "--levels", "7"),
])
def test_build_writer_matches_json_dumps(argv, tmp_path, monkeypatch):
    """The direct writer prints what json.dumps(sort_keys, indent=2) prints."""
    monkeypatch.chdir(tmp_path)
    for name, body in (("q8.json", nv.quaternion_group().to_json_dict()),
                       ("s3.json", nv.symmetric_group(3).to_json_dict()),
                       ("z4.json", nv.cyclic_group(4).to_json_dict()),
                       ("bool2.json", palg.boolean_effect_algebra(2).to_json_dict()),
                       ("s3-on-3.json", {"z_size": 3, "table": [
                           [0, 1, 2], [0, 2, 1], [1, 0, 2], [2, 0, 1], [1, 2, 0], [2, 1, 0]]})):
        (tmp_path / name).write_text(json.dumps(body))
    assert run("build", *argv, "--out", "out.json") == 0
    text = (tmp_path / "out.json").read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


def _int_json(value, size):
    buf = io.StringIO()
    cli._write_int_json(value, buf, size)
    return buf.getvalue()


def test_write_int_json_edge_cases():
    # the table holds 0, 1 and 2: 3 and 6 lie past its end, and -1 and -6
    # would index it from the end
    for value in (7, [], {}, [3], {"b": [], "a": {"10,0": [1, 2], "2,0": {}}, "c": 0},
                  [2, -1, 0], [0, -6], [6, 1], {"x": [0, 3], "y": -4}):
        assert _int_json(value, 3) == json.dumps(value, sort_keys=True, indent=2) + "\n"


def test_write_int_json_falls_back_slice_by_slice():
    # the first slice lies inside the table, the second past its end, and the
    # short last one inside it again
    n = cli._SLICE
    body = {"counts": [1, n], "d": list(range(n)) + [n + 9] * n + [1, 0]}
    assert _int_json(body, n) == json.dumps(body, sort_keys=True, indent=2) + "\n"


@st.composite
def int_bodies(draw):
    """A str-keyed body shaped like a build's: counts, plus tables and
    nested tables of ids from 0 up to the largest count."""
    counts = draw(st.lists(st.integers(0, 30), min_size=1, max_size=4))
    ids = st.lists(st.integers(0, max(counts)), max_size=8)
    keys = st.text(max_size=3)
    body = draw(st.dictionaries(keys, ids | st.integers(0, 40) | st.dictionaries(keys, ids),
                                max_size=4))
    body["counts"] = counts
    return body


@settings(max_examples=100, deadline=None)
@given(int_bodies(), st.integers(0, 32))
def test_write_int_json_matches_json_dumps(body, size):
    """size is drawn apart from the ids, so entries past the table's end go
    through str, and it is written with slices of 3 entries as well."""
    expected = json.dumps(body, sort_keys=True, indent=2) + "\n"
    assert _int_json(body, size) == expected
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_SLICE", 3)
        assert _int_json(body, size) == expected


@pytest.mark.parametrize("argv", [
    ("build", "s1"),
    ("build", "key-example-witness"),
    ("check", "magma", "--in", "l2-magma.json"),
    ("check", "sset", "--in", "s1.json", "--json"),
])
def test_unwritable_out_exits_2(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "l2-magma.json").write_text(
        json.dumps(palg.interval_effect_algebra(2).magma.to_json_dict()))
    assert run("build", "s1", "--out", "s1.json") == 0
    assert run(*argv, "--out", "missing/x.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write missing/x.json: ") and err.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_failed_build_leaves_no_out_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "z2.json").write_text(json.dumps(nv.cyclic_group(2).to_json_dict()))
    assert run("build", "action-pg", "--group", "z2.json", "--y", "", "--out", "x.json") == 2
    assert run("build", "comm-nerve", "--group", "missing.json", "--out", "x.json") == 2
    assert not (tmp_path / "x.json").exists()


# ---------------------------------------------------------------------------
# fuzzing the structure readers
#
# Small golden inputs, each mutated in one place, go through the three
# commands that read sset and cyclic JSON.  Whatever the mutation, the CLI
# must answer with a report or a one-line usage error, never a crash.

FUZZ_INPUTS = ("z2-cyclic.json", "pt-cyclic.json", "split-spine.json")
FUZZ_COMMANDS = (("check", "sset", "--in"), ("check", "cyclic", "--in"),
                 ("states", "--hc1", "--cyclic"))
JUNK = st.one_of(st.none(), st.integers(-3, 40), st.text(max_size=3),
                 st.lists(st.integers(-1, 3), max_size=2), st.dictionaries(
                     st.sampled_from(["1", "0,0", "x"]), st.integers(0, 2), max_size=1))


@functools.cache
def _fuzz_inputs():
    return {name: body for name, body in _inputs().items() if name in FUZZ_INPUTS}


@st.composite
def mutated_bodies(draw):
    body = copy.deepcopy(_fuzz_inputs()[draw(st.sampled_from(FUZZ_INPUTS))])
    field = draw(st.sampled_from(["truncation", "faces", "tau", "counts", "keys"]))
    if field == "truncation":
        body["truncation"] = draw(st.one_of(st.integers(-1, body["truncation"] + 2), JUNK))
    elif field == "counts":
        counts = body["counts"]
        n = draw(st.integers(0, len(counts) - 1))
        action = draw(st.sampled_from(["shift", "drop", "junk"]))
        if action == "shift":
            counts[n] += draw(st.integers(-2, 2))
        elif action == "drop":
            del counts[n]
        else:
            counts[n] = draw(JUNK)
    elif field in ("faces", "tau"):
        tables = body.get(field) or body["degeneracies"]
        key = draw(st.sampled_from(sorted(tables)))
        tab = tables[key]
        action = draw(st.sampled_from(["entry", "shorten", "delete", "junk"]))
        if action == "entry" and tab:
            tab[draw(st.integers(0, len(tab) - 1))] = draw(st.integers(-2, max(tab) + 2))
        elif action == "shorten":
            del tab[draw(st.integers(0, len(tab))):]
        elif action == "delete":
            del tables[key]
        else:
            tables[key] = draw(JUNK)
    else:
        key = draw(st.sampled_from(sorted(body)))
        action = draw(st.sampled_from(["delete", "junk", "rename-table"]))
        if action == "delete":
            del body[key]
        elif action == "junk":
            body[key] = draw(JUNK)
        else:
            tables = body["faces"]
            old = draw(st.sampled_from(sorted(tables)))
            tables[draw(st.sampled_from(["9,9", "1", "a,b", "1,0,0", "-1,0"]))] = tables.pop(old)
    return body


@settings(max_examples=120, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(mutated_bodies(), st.sampled_from(FUZZ_COMMANDS))
def test_mutated_structures_get_a_report_or_a_usage_error(body, command):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "in.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(body, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(*command, path)
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue() and "internal error:" not in err.getvalue()
    if code == 1:
        assert out.getvalue().rstrip("\n").endswith("result: fail")
