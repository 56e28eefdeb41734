"""The benchmark's workloads: seeded inputs, set-up builds and the CLI
invocations of one pass, each paired with its oracle check.

Each workload keeps its reason for being chosen next to its definition;
BENCHMARK.json repeats it.  Paths are relative to the work directory the
runner creates; every argument list is exactly what a user would pass to
the `simpeff` command.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Callable

import oracle

QUANTUM_TRIALS = 200

# level counts of the structures the workloads build (seed-invariant)
COMM_NERVE_COUNTS = {
    "q8": (1, 8, 40, 176, 736),
    "d4": (1, 8, 40, 176, 736),
    "d5": (1, 10, 40, 160, 700),
    "z6": (1, 6, 36, 216, 1296),
}
S4_K5_COUNTS = (1, 24, 120, 504, 2016, 7944)
ACTION_PG_COUNTS = (1, 24, 360, 4752, 59616)
EFFECT_NERVE_COUNTS = {
    "l4": (1, 5, 15, 35, 70),
    "bool2": (1, 4, 9, 16, 25),
    "bool3": (1, 8, 27, 64, 125),
}
# (state polytope dimension, HC^1 dimension) of the K=4 effect nerves
EFFECT_DIMS = {"l4": (0, 0), "bool2": (1, 1)}


@dataclass(frozen=True)
class Invocation:
    """One `simpeff` run: its argv, the exit code it must return, and a
    check of (stdout bytes, bytes of the --out file or None)."""

    label: str
    argv: tuple
    exit_code: int
    check: Callable
    out: str | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    inputs: tuple
    setup: Callable      # (input paths, work dir) -> [Invocation]
    invocations: Callable  # (input paths, work dir, seed) -> [Invocation]


def _built(label, argv, path, counts, cyclic=False):
    return Invocation(label, tuple(argv) + ("--out", path), 0,
                      lambda _stdout, out: oracle.check_built_sset(out, counts, cyclic), path)


def _read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _nerve_path(work, name):
    return os.path.join(work, f"{name}-nerve.json")


# --- segal-groups -----------------------------------------------------------

# S4 and Z8 are left out: their checks run 4 to 5 s each, too long for the
# machine-speed reference to track (see README.md), so D5 and Z6 stand in.
SEGAL_GROUPS = ("q8", "d4", "d5", "z6")


def _segal_setup(paths, work):
    return [_built(f"build comm-nerve {g}",
                   ("build", "comm-nerve", "--group", paths[f"{g}.json"], "--levels", "4"),
                   _nerve_path(work, g), COMM_NERVE_COUNTS[g])
            for g in SEGAL_GROUPS]


def _segal_pass(paths, work, seed):
    return [Invocation(f"check sset {g}",
                       ("check", "sset", "--in", _nerve_path(work, g), "--json"), 1,
                       lambda stdout, _out, g=g: oracle.check_sset_report(stdout, g == "z6"))
            for g in SEGAL_GROUPS]


# --- effect-states ----------------------------------------------------------

# bool3 is left out: its 4 s LP invocations swung by up to 40% with the host's
# minute-long speed regimes, beyond the 0.25 bound, and were too long for the
# machine-speed reference to track.  L4 and bool2 run the same LP code.
EFFECT_ALGEBRAS = ("l4", "bool2")


def _effect_setup(paths, work):
    return [_built(f"build effect-nerve {e}",
                   ("build", "effect-nerve", "--effect-algebra", paths[f"{e}.json"],
                    "--levels", "4"),
                   _nerve_path(work, e), EFFECT_NERVE_COUNTS[e], cyclic=True)
            for e in EFFECT_ALGEBRAS]


def _effect_pass(paths, work, seed):
    out = []
    for e in EFFECT_ALGEBRAS:
        path = _nerve_path(work, e)
        sdim, hdim = EFFECT_DIMS[e]
        out.append(Invocation(
            f"check cyclic {e}", ("check", "cyclic", "--in", path, "--json", "--states", "--hc1"),
            0, lambda stdout, _out, s=sdim, h=hdim: oracle.check_cyclic_report(stdout, s, h)))
        out.append(Invocation(
            f"states {e}", ("states", "--cyclic", path, "--json", "--hc1"), 0,
            lambda stdout, _out, p=path, s=sdim, h=hdim:
                oracle.check_states(stdout, _read_json(p), s, h)))
    return out


# --- build-roundtrip --------------------------------------------------------

def _build_pass(paths, work, seed):
    with open(paths["y.txt"], encoding="utf-8") as fh:
        y = fh.read().strip()
    s4 = paths["s4.json"]
    return [
        _built("build comm-nerve s4 K=5",
               ("build", "comm-nerve", "--group", s4, "--levels", "5"),
               os.path.join(work, "s4-k5.json"), S4_K5_COUNTS),
        _built("build action-pg s4",
               ("build", "action-pg", "--group", s4, "--y", y, "--levels", "4"),
               os.path.join(work, "action-pg.json"), ACTION_PG_COUNTS),
        _built("build effect-nerve bool3",
               ("build", "effect-nerve", "--effect-algebra", paths["bool3.json"], "--levels", "4"),
               os.path.join(work, "bool3-built.json"), EFFECT_NERVE_COUNTS["bool3"], cyclic=True),
        _built("build effect-nerve l4",
               ("build", "effect-nerve", "--effect-algebra", paths["l4.json"], "--levels", "4"),
               os.path.join(work, "l4-built.json"), EFFECT_NERVE_COUNTS["l4"], cyclic=True),
        Invocation("check magma s4", ("check", "magma", "--in", paths["s4-magma.json"], "--json"),
                   1, lambda stdout, _out: oracle.check_magma_report(stdout)),
    ]


# --- quantum-sampling -------------------------------------------------------

def _quantum_pass(paths, work, seed):
    return [
        Invocation("quantum-demo",
                   ("quantum-demo", "--json", "--trials", str(QUANTUM_TRIALS), "--seed", str(seed)),
                   0, lambda stdout, _out: oracle.check_quantum_demo(stdout, QUANTUM_TRIALS)),
        Invocation("build key-example-witness", ("build", "key-example-witness"), 0,
                   lambda stdout, _out: oracle.check_witness(stdout)),
    ]


def _no_setup(paths, work):
    return []


WORKLOADS = {w.name: w for w in (
    Workload(
        "segal-groups",
        "check sset at K=4 on the commutative nerves of Q8, D4, D5 and Z6: the weak "
        "2-Segal check carries the work; 2-Segal fails fast on the non-abelian groups "
        "and enumerates every triangulation's membranes on Z6",
        SEGAL_GROUPS, _segal_setup, _segal_pass),
    Workload(
        "effect-states",
        "check cyclic --states --hc1 then states --hc1 on the K=4 effect nerves of L4 "
        "and bool2: the exact LP carries the work and find_state repeats on one file",
        EFFECT_ALGEBRAS, _effect_setup, _effect_pass),
    Workload(
        "build-roundtrip",
        "build comm-nerve (S4, K=5), action-pg (S4, seeded Y, K=4) and effect-nerve "
        "(bool3, L4) to files, plus check magma: nerve construction and JSON output "
        "carry the work; sset and the LP are idle",
        ("s4", "y", "bool3", "l4", "s4-magma"), _no_setup, _build_pass),
    Workload(
        "quantum-sampling",
        "quantum-demo with seeded trials plus build key-example-witness: numpy only, "
        "every exact layer idle; the control for sset and LP changes",
        (), _no_setup, _quantum_pass),
)}
