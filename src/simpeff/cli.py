"""Batch front-end: load structures, run checker suites, emit reports.

Subcommands: check, build, states, quantum-demo.  check takes one
subparser per kind and build one per recipe, and each declares only the
flags its runner reads.  Any other flag is rejected by that subparser, whose
usage line lists the flags it takes.  Exit codes: 0
all requested checks pass, 1 some check failed, 2 input or usage error, 3
internal error (a bug: one "internal error:" line on stderr).
Reports are byte-identical across runs for fixed inputs and seeds.
"""

from __future__ import annotations

__all__ = ["main"]

import argparse
import contextlib
import json
import os
import sys
from fractions import Fraction

import numpy as np

from . import cyclic as cyc
from . import nerve as nv
from . import palg, quantum, sset, states
from .report import EXIT_FAILED, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, CheckReport
from .util import Check, InputError, StructureError, json_int, json_ints


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _load_json(path):
    try:
        return json.loads(_read(path))
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid json at line {exc.lineno}") from exc


@contextlib.contextmanager
def _output(out):
    """The --out file, opened for writing, or stdout when out is unset.

    A path that cannot be opened or written, or a stdout whose reader has
    closed it, is an InputError.  Callers open it only once the output is
    ready, so a failed run leaves no file.
    """
    if not out:
        try:
            yield sys.stdout
            sys.stdout.flush()
        except BrokenPipeError as exc:
            # the reader is gone: send what is still buffered, and the flush
            # at exit, to devnull
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            raise InputError(f"cannot write stdout: {exc}") from exc
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            yield fh
    except OSError as exc:
        raise InputError(f"cannot write {out}: {exc}") from exc


def _emit(text, out):
    with _output(out) as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


# ---------------------------------------------------------------------------
# check


def _check_magma(path, args):
    m = palg.PartialUnitalMagma.from_json_dict(_load_json(path))
    bound = min(args.levels, 3)
    rep = CheckReport(subject=f"magma {path}", bound=bound)
    cls, wit = palg.classify(m)
    rep.add(Check("classification", True, cls if wit is None else f"{cls} (witness {wit})"))
    rep.add(Check("inverseless", palg.is_inverseless(m)))
    wapg, wit = palg.inverse_conditions(m, bound) \
        if cls != palg.MAGMA else (False, ("not-weakly-associative",))
    rep.add(Check(f"weakly-associative-partial-group(arity<={bound})", wapg,
                  None if wapg else wit))
    return rep


def _segal_witness(wit):
    if wit[0] == "unfilled":
        return f"unfilled spine {wit[-1]} at level {wit[1]}"
    return wit


def _check_sset(path, args):
    x = sset.TruncatedSSet.from_json_dict(_load_json(path))
    if args.levels < x.K:
        x = sset.truncate(x, args.levels)
    rep = CheckReport(subject=f"sset {path}", bound=x.K)
    bad, (ok, wit), two, weak, cosk = sset.segal(x)
    rep.add(Check("simplicial-identities", not bad, bad[0] if bad else None))
    if bad:
        return rep
    rep.add(Check("spiny", ok, None if ok else wit))
    reduced = sset.is_reduced(x)
    rep.add(Check("reduced", reduced, None if reduced else f"{x.counts[0]} vertices"))
    if x.K >= 3:
        rep.add(Check("2-coskeletal", *cosk))
        for name, (ok, wit) in (("2-segal", two), ("weakly-2-segal", weak)):
            rep.add(Check(name, ok, None if ok else _segal_witness(wit)))
    else:
        for name in ("2-coskeletal", "2-segal", "weakly-2-segal"):
            rep.add(Check(name, True, "truncation below 3", skipped=True))
    ok, wit = sset.is_inverseless_sset(x)
    rep.add(Check("inverseless", ok, None if ok else wit))
    return rep


def _check_cyclic(path, args):
    c = cyc.CyclicSSet.from_json_dict(_load_json(path))
    if args.levels < c.base.K:
        c = cyc.CyclicSSet(sset.truncate(c.base, args.levels),
                           {n: t for n, t in c.tau.items() if n <= args.levels})
    rep = CheckReport(subject=f"cyclic {path}", bound=c.base.K)
    narrowed = args.simplicial_effect or args.effect_algebroid
    rep.extend(cyc.battery(c, effect=args.simplicial_effect or not narrowed,
                           algebroid=args.effect_algebroid or not narrowed))
    if not narrowed:
        rep.extend(cyc.orthocomplement_laws(c))
    found = states.find_state(c) if args.states else None
    if found is not None:
        rep.add(Check("states", True,
                      "EMPTY" if not found.feasible else f"polytope dim {found.dim}"))
    if args.hc1:
        dim, _ = states.hc1(c, found.A if found else None)
        rep.add(Check("hc1", True, f"dimension {dim}"))
    return rep


def _check_effect_algebra(path, args):
    e = palg.FiniteEffectAlgebra.from_json_dict(_load_json(path))
    rep = CheckReport(subject=f"effect-algebra {path}")
    rep.extend(palg.validate_effect_algebra(e))
    return rep


_KINDS = {
    "magma": _check_magma,
    "sset": _check_sset,
    "cyclic": _check_cyclic,
    "effect-algebra": _check_effect_algebra,
}


def cmd_check(args):
    rep = _KINDS[args.kind](args.infile, args)
    _emit(rep.to_json() if args.json else rep.to_text(), args.out)
    return rep.exit_code()


# ---------------------------------------------------------------------------
# build


def _write_structure(x, out):
    body = x.to_json_dict()
    with _output(out) as fh:
        # ids below level K are below max(counts[:-1]); only the top
        # degeneracies and tau_K hold level-K ids, and those go through str
        _write_int_json(body, fh, max(body["counts"][:-1], default=0) + 1)


# list entries joined and written at a time
_SLICE = 4096


def _write_int_json(value, fh, size):
    """Write json.dumps(value, sort_keys=True, indent=2) + "\n" to fh, one
    slice of a list at a time, without the pure-Python encoder that indent
    forces.

    value is an int, a list of ints or a str-keyed dict of such values.  List
    entries in range(size) are looked up in one table of decimal strings; a
    slice of _SLICE entries with any other entry goes through str.
    """
    digits = list(map(str, range(size)))

    def write(value, pad):
        inner = pad + "  "
        if isinstance(value, dict) and value:
            for n, (k, v) in enumerate(sorted(value.items())):
                fh.write(f"{',' if n else '{'}{inner}{json.dumps(k)}: ")
                write(v, inner)
            fh.write(pad + "}")
        elif isinstance(value, list) and value:
            sep = "," + inner
            # a negative entry would index digits from its end
            lookup = digits.__getitem__ if min(value) >= 0 else str
            fh.write("[" + inner)
            for start in range(0, len(value), _SLICE):
                part = value[start:start + _SLICE]
                try:
                    text = sep.join(map(lookup, part))
                except IndexError:  # an entry of size or more
                    text = sep.join(map(str, part))
                if start:
                    fh.write(sep)
                fh.write(text)
            fh.write(pad + "]")
        else:  # an int, [] or {}
            fh.write(json.dumps(value))

    write(value, "\n")
    fh.write("\n")


def _build_comm_nerve(args):
    g = nv.FiniteGroup.from_json_dict(_load_json(args.group))
    _write_structure(nv.comm_nerve(g, args.torsion, args.levels), args.out)


def _build_action_pg(args):
    g = nv.FiniteGroup.from_json_dict(_load_json(args.group))
    if args.action:
        raw = _load_json(args.action)
        try:
            z_size = json_int(raw["z_size"])
            action = [json_ints(row) for row in raw["table"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise InputError(f"bad action json: {exc}") from exc
    else:
        z_size, action = g.order, nv.translation_action(g)
    try:
        y = [int(v) for v in args.y.split(",") if v != ""]
    except ValueError as exc:
        raise InputError(f"--y must list integers: {exc}") from exc
    _write_structure(nv.action_partial_group(g, z_size, action, y, args.levels), args.out)


_FAMILIES = {
    "l2": lambda: palg.interval_effect_algebra(2),
    "l3": lambda: palg.interval_effect_algebra(3),
    "l4": lambda: palg.interval_effect_algebra(4),
    "bool2": lambda: palg.boolean_effect_algebra(2),
}


def _build_effect_nerve(args):
    if args.family:
        e = _FAMILIES[args.family]()
    else:
        e = palg.FiniteEffectAlgebra.from_json_dict(_load_json(args.effect_algebra))
    bad = [c for c in palg.validate_effect_algebra(e) if not c.ok]
    if bad:
        raise InputError(f"input is not an effect algebra: {bad[0].name}")
    x = nv.nerve(e.magma, args.levels)
    _write_structure(cyc.effect_nerve_cyclic(e, x), args.out)


def _build_s1(args):
    _write_structure(nv.simplicial_circle(args.levels), args.out)


def _mat_json(m):
    return [[[v.real, v.imag] for v in row] for row in np.asarray(m).tolist()]


def _build_key_example_witness(args):
    w = quantum.build_witness()
    body = {
        "dim": quantum.DIM,
        "Pi": {".".join(map(str, t)): _mat_json(w["Pi"][t]) for t in w["Pi"].outcomes()},
        "Psi": {".".join(map(str, t)): _mat_json(w["Psi"][t]) for t in w["Psi"].outcomes()},
        "A": _mat_json(w["A"]),
        "B": _mat_json(w["B"]),
        "C": _mat_json(w["C"]),
        "checks": {k: (v if isinstance(v, (bool, int)) else float(v))
                   for k, v in sorted(w["checks"].items())},
    }
    _emit(json.dumps(body, sort_keys=True, indent=2), args.out)


_RECIPES = {
    "comm-nerve": _build_comm_nerve,
    "action-pg": _build_action_pg,
    "effect-nerve": _build_effect_nerve,
    "s1": _build_s1,
    "key-example-witness": _build_key_example_witness,
}


def cmd_build(args):
    _RECIPES[args.recipe](args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# states


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}" if x.denominator != 1 else str(x.numerator)


def cmd_states(args):
    c = cyc.CyclicSSet.from_json_dict(_load_json(args.cyclic))
    found = states.find_state(c)
    lines = []
    body = {}
    if not found.feasible:
        lines.append("states: EMPTY (exact rational infeasibility certificate verified)")
        body["states"] = "EMPTY"
    else:
        lines.append(f"state polytope dimension: {found.dim}")
        lines.append("sample state: " + " ".join(_frac(v) for v in found.state))
        body["states"] = {"dim": found.dim, "sample": [_frac(v) for v in found.state]}
    if args.hc1:
        dim, basis = states.hc1(c, found.A)
        lines.append(f"hc1 dimension: {dim}")
        for vec in basis:
            lines.append("hc1 basis: " + " ".join(_frac(v) for v in vec))
        body["hc1"] = {"dim": dim, "basis": [[_frac(v) for v in vec] for vec in basis]}
    _emit(json.dumps(body, sort_keys=True, indent=2) if args.json else "\n".join(lines),
          args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# quantum demo


def cmd_quantum_demo(args):
    w = quantum.build_witness()
    checks = w["checks"]
    inv = quantum.inverseless_sample_check(args.trials, args.seed)
    rng = np.random.default_rng(args.seed)
    rho = np.eye(quantum.DIM, dtype=complex) / quantum.DIM
    st = quantum.key_example_state_check(rho, args.trials, args.seed)
    rho2 = quantum.random_density(rng)
    st2 = quantum.key_example_state_check(rho2, args.trials, args.seed + 1)
    def residuals(rep):
        keys = ("partial_additive", "swap_orth", "half", "third_zero", "face_additivity")
        return {f"max_{k}": max(r[k] for r in rep["results"]) for k in keys}

    body = {
        "scope": "pointwise and seeded-sample checks; the ambient simplicial "
                 "set of projective measurements is infinite and never materialized",
        "witness_checks": {k: (v if isinstance(v, (bool, int)) else float(v))
                           for k, v in sorted(checks.items())},
        "inverseless_samples": {
            "trials": inv["trials"], "passed": inv["passed"],
            "max_relation_residual": max(r["relation_residual"] for r in inv["results"]),
            "max_collapse_residual": max(r["collapse_residual"] for r in inv["results"]),
        },
        "state_checks_maximally_mixed": {
            "trials": st["trials"], "passed": st["passed"],
            "phi_omega_sq_one_residual": st["phi_omega_sq_one_residual"],
            **residuals(st),
        },
        "state_checks_random_density": {
            "trials": st2["trials"], "passed": st2["passed"],
            "phi_omega_sq_one_residual": st2["phi_omega_sq_one_residual"],
            **residuals(st2),
        },
    }
    ok = (checks["pi_in_key_example"] and checks["psi_in_key_example"]
          and checks["d2psi_eq_d1pi_residual"] < quantum.TOL_EQ
          and checks["AB_commutator"] < quantum.TOL_EQ
          and checks["BC_commutator"] > quantum.NONCOMM_MARGIN
          and inv["passed"] == inv["trials"]
          and st["passed"] == st["trials"] and st2["passed"] == st2["trials"])
    if args.json:
        _emit(json.dumps(body, sort_keys=True, indent=2), args.out)
    else:
        lines = [
            "scope: pointwise and seeded-sample checks (the ambient simplicial "
            "set is infinite and never materialized)",
            f"witness: d2(Psi)=d1(Pi) residual {checks['d2psi_eq_d1pi_residual']:.3e}",
            f"witness: |[A,B]| = {checks['AB_commutator']:.3e}",
            f"witness: |[B,C]| = {checks['BC_commutator']:.6f} (> {quantum.NONCOMM_MARGIN})",
            f"witness: |[A,C]| = {checks['AC_commutator']:.6f}",
            f"witness: Pi^01 rank = {checks['pi01_rank']}",
            f"inverseless samples: {inv['passed']}/{inv['trials']} collapsed",
            f"state identities (maximally mixed): {st['passed']}/{st['trials']}",
            f"state identities (random density): {st2['passed']}/{st2['trials']}",
            f"phi(omega^2 1) residual: {st['phi_omega_sq_one_residual']:.3e}",
            f"result: {'pass' if ok else 'fail'}",
        ]
        _emit("\n".join(lines), args.out)
    return EXIT_OK if ok else EXIT_FAILED


# ---------------------------------------------------------------------------


def at_least(low):
    """argparse type for integers of at least low: 1 for --trials, 0 for
    --seed (SeedSequence takes seeds from 0 up) and 2 for --levels."""
    def integer(text):
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {value}")
        return value
    return integer


def _parser():
    p = argparse.ArgumentParser(prog="simpeff",
                                description="checkers and builders for finite "
                                            "simplicial effects")
    sub = p.add_subparsers(dest="command", required=True)

    kinds = sub.add_parser("check", help="run a checker battery on a structure file") \
        .add_subparsers(dest="kind", required=True)
    magma, simplicial, cyclic, ea = (kinds.add_parser(kind) for kind in _KINDS)
    for k in (magma, simplicial, cyclic, ea):
        k.add_argument("--in", dest="infile", required=True)
    cyclic.add_argument("--simplicial-effect", action="store_true",
                        help="restrict the cyclic battery to the simplicial-effect suite")
    cyclic.add_argument("--effect-algebroid", action="store_true",
                        help="restrict the cyclic battery to the effect-algebroid suite")
    cyclic.add_argument("--states", action="store_true")
    cyclic.add_argument("--hc1", action="store_true")

    recipes = sub.add_parser("build", help="construct a structure and write its json") \
        .add_subparsers(dest="recipe", required=True)
    comm, action, effect, s1, witness = (recipes.add_parser(recipe) for recipe in _RECIPES)
    for r in (comm, action):
        r.add_argument("--group", required=True)
    comm.add_argument("--torsion", type=int, default=None)
    action.add_argument("--action", default=None)
    action.add_argument("--y", required=True)
    family = effect.add_mutually_exclusive_group(required=True)
    family.add_argument("--family", choices=_FAMILIES)
    family.add_argument("--effect-algebra")

    s = sub.add_parser("states", help="exact states and HC^1 of a cyclic set")
    s.add_argument("--cyclic", required=True)
    s.add_argument("--hc1", action="store_true")

    q = sub.add_parser("quantum-demo", help="key-example witness and sampled checks")
    q.add_argument("--trials", type=at_least(1), default=20)
    q.add_argument("--seed", type=at_least(0), default=0)
    for sp in (magma, simplicial, cyclic, comm, action, effect, s1):
        sp.add_argument("--levels", type=at_least(2), default=4,
                        help="truncation bound of the checks or level of the build (default 4)")
    for sp in (magma, simplicial, cyclic, ea, s, q):
        sp.add_argument("--json", action="store_true")
    for sp in (magma, simplicial, cyclic, ea, comm, action, effect, s1, witness, s, q):
        sp.add_argument("--out", default=None)
        sp.set_defaults(leaf=sp)
    return p


_PARSER = _parser()


def main(argv=None) -> int:
    args, extra = _PARSER.parse_known_args(argv)
    if extra:  # the command's own parser names them, with its own usage line
        args.leaf.error(f"unrecognized arguments: {' '.join(extra)}")
    command = {"check": cmd_check, "build": cmd_build, "states": cmd_states,
               "quantum-demo": cmd_quantum_demo}[args.command]
    try:
        return command(args)
    except (InputError, StructureError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # any other exception is a bug
        sys.stderr.write(f"internal error: {exc!r}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
