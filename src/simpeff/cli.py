"""Batch front-end: load structures, run checker suites, emit reports.

Subcommands: check, build, states, quantum-demo.  Exit codes: 0 all
requested checks pass, 1 some check failed, 2 input or usage error, 3
internal error (a bug: one "internal error:" line on stderr).
Reports are byte-identical across runs for fixed inputs and seeds.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

from . import cyclic as cyc
from . import nerve as nv
from . import palg, quantum, sset, states
from .report import EXIT_FAILED, EXIT_INTERNAL, EXIT_OK, EXIT_USAGE, CheckReport
from .util import Check, InputError, StructureError


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


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------------
# check


def _check_magma(path, args):
    m = palg.PartialUnitalMagma.from_json_dict(_load_json(path))
    bound = min(args.levels, 3)
    rep = CheckReport(subject=f"magma {path}", bound=bound)
    cls, wit = palg.classify(m)
    rep.add(Check("classification", True, cls if wit is None else f"{cls} (witness {wit})"))
    rep.add(Check("inverseless", palg.is_inverseless(m)))
    wapg, wit = palg.is_weakly_associative_partial_group(m, bound) \
        if cls != palg.MAGMA else (False, ("not-weakly-associative",))
    rep.add(Check(f"weakly-associative-partial-group(arity<={bound})", wapg,
                  None if wapg else wit))
    return rep


def _sset_battery(x, rep):
    bad, (ok, wit), two, weak = sset.segal(x)
    rep.add(Check("simplicial-identities", not bad, bad[0] if bad else None))
    if bad:
        return
    rep.add(Check("spiny", ok, None if ok else wit))
    reduced = sset.is_reduced(x)
    rep.add(Check("reduced", reduced, None if reduced else f"{x.counts[0]} vertices"))
    if x.K >= 3:
        ok, wit = sset.is_coskeletal_2(x)
        rep.add(Check("2-coskeletal", ok, None if ok else wit))
        for name, (ok, wit) in (("2-segal", two), ("weakly-2-segal", weak)):
            rep.add(Check(name, ok, None if ok else _segal_witness(wit)))
    else:
        for name in ("2-coskeletal", "2-segal", "weakly-2-segal"):
            rep.add(Check(name, True, "truncation below 3", skipped=True))
    ok, wit = sset.is_inverseless_sset(x)
    rep.add(Check("inverseless", ok, None if ok else wit))


def _segal_witness(wit):
    if wit[0] == "unfilled":
        return f"unfilled spine {wit[-1]} at level {wit[1]}"
    return wit


def _check_sset(path, args):
    x = sset.TruncatedSSet.from_json_dict(_load_json(path))
    if args.levels < x.K:
        x = sset.truncate(x, args.levels)
    rep = CheckReport(subject=f"sset {path}", bound=x.K)
    _sset_battery(x, rep)
    return rep


def _truncate_cyclic(c, K):
    base = sset.truncate(c.base, K)
    return cyc.CyclicSSet(base, {n: t for n, t in c.tau.items() if n <= K})


def _check_cyclic(path, args):
    c = cyc.CyclicSSet.from_json_dict(_load_json(path))
    if args.levels < c.base.K:
        c = _truncate_cyclic(c, args.levels)
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


def cmd_check(args):
    runner = {
        "magma": _check_magma,
        "sset": _check_sset,
        "cyclic": _check_cyclic,
        "effect-algebra": _check_effect_algebra,
    }[args.kind]
    rep = runner(args.infile, args)
    _emit(rep.to_json() if args.json else rep.to_text(), args.out)
    return rep.exit_code()


# ---------------------------------------------------------------------------
# build


_FAMILIES = {
    "l2": lambda: palg.interval_effect_algebra(2),
    "l3": lambda: palg.interval_effect_algebra(3),
    "l4": lambda: palg.interval_effect_algebra(4),
    "bool2": lambda: palg.boolean_effect_algebra(2),
}


def _need(cond, msg):
    if not cond:
        raise InputError(msg)


def cmd_build(args):
    recipe = args.recipe
    K = args.levels
    if recipe == "comm-nerve":
        _need(args.group, "comm-nerve needs --group")
        g = nv.FiniteGroup.from_json_dict(_load_json(args.group))
        x = nv.comm_nerve(g, args.torsion, K)
        body = x.to_json_dict()
    elif recipe == "action-pg":
        _need(args.group, "action-pg needs --group")
        _need(args.y is not None, "action-pg needs --y")
        g = nv.FiniteGroup.from_json_dict(_load_json(args.group))
        if args.action:
            raw = _load_json(args.action)
            try:
                z_size = int(raw["z_size"])
                action = [[int(v) for v in row] for row in raw["table"]]
            except (KeyError, TypeError, ValueError) as exc:
                raise InputError(f"bad action json: {exc}") from exc
        else:
            z_size, action = g.order, nv.translation_action(g)
        try:
            y = [int(v) for v in args.y.split(",") if v != ""]
        except ValueError as exc:
            raise InputError(f"--y must list integers: {exc}") from exc
        x = nv.action_partial_group(g, z_size, action, y, K)
        body = x.to_json_dict()
    elif recipe == "effect-nerve":
        if args.family:
            _need(args.family in _FAMILIES, f"unknown family {args.family}")
            e = _FAMILIES[args.family]()
        else:
            _need(args.effect_algebra, "effect-nerve needs --family or --effect-algebra")
            e = palg.FiniteEffectAlgebra.from_json_dict(_load_json(args.effect_algebra))
        bad = [c for c in palg.validate_effect_algebra(e) if not c.ok]
        if bad:
            raise InputError(f"input is not an effect algebra: {bad[0].name}")
        x = nv.nerve(e.magma, palg.max_associativity_datum(e.magma, K), K)
        body = cyc.effect_nerve_cyclic(e, x).to_json_dict()
    elif recipe == "s1":
        body = nv.simplicial_circle(K).to_json_dict()
    elif recipe == "key-example-witness":
        _emit(json.dumps(_witness_bundle_json(), sort_keys=True, indent=2), args.out)
        return EXIT_OK
    else:
        raise InputError(f"unknown recipe {recipe}")
    _emit(_int_json(body), args.out)
    return EXIT_OK


def _int_json(value, pad="\n"):
    """json.dumps(value, sort_keys=True, indent=2) for an int, a list of ints
    or a str-keyed dict of such values, without the pure-Python encoder that
    indent forces."""
    inner = pad + "  "
    if isinstance(value, dict):
        items, brackets = [f"{json.dumps(k)}: {_int_json(v, inner)}"
                           for k, v in sorted(value.items())], "{}"
    elif isinstance(value, list):
        items, brackets = list(map(str, value)), "[]"
    else:
        return str(value)
    if not items:
        return brackets
    return brackets[0] + inner + ("," + inner).join(items) + pad + brackets[1]


def _mat_json(m):
    return [[[float(v.real), float(v.imag)] for v in row] for row in np.asarray(m)]


def _witness_bundle_json():
    w = quantum.build_witness()
    return {
        "dim": quantum.DIM,
        "Pi": {".".join(map(str, t)): _mat_json(w["Pi"][t]) for t in w["Pi"].outcomes()},
        "Psi": {".".join(map(str, t)): _mat_json(w["Psi"][t]) for t in w["Psi"].outcomes()},
        "A": _mat_json(w["A"]),
        "B": _mat_json(w["B"]),
        "C": _mat_json(w["C"]),
        "checks": {k: (v if isinstance(v, (bool, int)) else float(v))
                   for k, v in sorted(w["checks"].items())},
    }


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


def positive_int(text):
    """argparse type for counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def nonnegative_int(text):
    """argparse type for seeds, which SeedSequence takes from 0 up."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, got {value}")
    return value


def _parser():
    p = argparse.ArgumentParser(prog="simpeff",
                                description="checkers and builders for finite "
                                            "simplicial effects")
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("check", help="run a checker battery on a structure file")
    c.add_argument("kind", choices=["magma", "sset", "cyclic", "effect-algebra"])
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--simplicial-effect", action="store_true",
                   help="restrict the cyclic battery to the simplicial-effect suite")
    c.add_argument("--effect-algebroid", action="store_true",
                   help="restrict the cyclic battery to the effect-algebroid suite")
    c.add_argument("--states", action="store_true")
    c.add_argument("--hc1", action="store_true")
    c.set_defaults(func=cmd_check)

    b = sub.add_parser("build", help="construct a structure and write its json")
    b.add_argument("recipe", choices=["comm-nerve", "action-pg", "effect-nerve",
                                      "s1", "key-example-witness"])
    b.add_argument("--group", default=None)
    b.add_argument("--torsion", type=int, default=None)
    b.add_argument("--action", default=None)
    b.add_argument("--y", default=None)
    b.add_argument("--effect-algebra", default=None)
    b.add_argument("--family", default=None)
    b.set_defaults(func=cmd_build)

    s = sub.add_parser("states", help="exact states and HC^1 of a cyclic set")
    s.add_argument("--cyclic", required=True)
    s.add_argument("--hc1", action="store_true")
    s.set_defaults(func=cmd_states)

    q = sub.add_parser("quantum-demo", help="key-example witness and sampled checks")
    q.add_argument("--trials", type=positive_int, default=20)
    q.add_argument("--seed", type=nonnegative_int, default=0)
    q.set_defaults(func=cmd_quantum_demo)
    for sp in (c, b):
        sp.add_argument("--levels", type=positive_int, default=4,
                        help="truncation bound for quantified checks (default 4)")
    for sp in (c, s, q):
        sp.add_argument("--json", action="store_true")
    for sp in (c, b, s, q):
        sp.add_argument("--out", default=None)
    return p


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (InputError, StructureError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:  # any other exception is a bug
        sys.stderr.write(f"internal error: {exc!r}\n")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
