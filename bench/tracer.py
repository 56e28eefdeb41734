"""Span recorder for the traced benchmark run.

Inside a forked invocation, `install` wraps the public, coarse-grained
functions of each simpeff layer so that every call records a span (name,
start, end, parent) plus, for a few functions, a work count or a repeat
key.  The wrapper replaces the function wherever simpeff binds it, so names
re-imported into another module (cyclic binds its own is_two_segal, for
instance) are traced too.  Per-simplex helpers (subface, spine, restrict,
membrane_key, palg's tuple predicates, quantum's matrix helpers) are left
alone: wrapping them would cost more than the work they do.

Spans stay in memory and are written out once, when the invocation ends;
`summarize` turns the spans of one pass into per-layer metrics.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import sys
import time

LAYERS = ("cli", "palg", "nerve", "sset", "cyclic", "states", "ratlp", "quantum")

# layer -> functions to trace; "Class.method" names a method.  Names the
# current code lacks are skipped, so the table may outlive a refactor.
TRACED = {
    "cli": ("main", "cmd_check", "cmd_build", "cmd_states", "cmd_quantum_demo"),
    "palg": ("PartialUnitalMagma.from_json_dict", "FiniteEffectAlgebra.from_json_dict",
             "classify", "classify_with_witness", "is_inverseless",
             "is_weakly_associative_partial_group", "validate_effect_algebra",
             "max_associativity_datum", "validate_datum", "to_pas", "validate_pas",
             "interval_effect_algebra", "boolean_effect_algebra"),
    "nerve": ("FiniteGroup.from_json_dict", "comm_nerve", "action_partial_group", "nerve",
              "translation_action", "commuting_magma", "effect_functor", "simplicial_circle"),
    "sset": ("TruncatedSSet.from_json_dict", "TruncatedSSet.to_json_dict", "validate",
             "truncate", "is_spiny", "is_inverseless_sset", "is_coskeletal_2",
             "is_two_segal", "is_weakly_two_segal", "triangulations", "membrane_set",
             "boundary_membranes"),
    "cyclic": ("CyclicSSet.from_json_dict", "CyclicSSet.to_json_dict", "validate_cyclic",
               "effect_nerve_cyclic", "orthocomplement_laws", "is_simplicial_effect",
               "effect_algebroid_conditions"),
    "states": ("find_state", "state_polytope_dim", "hc1", "state_system", "hc1_system",
               "shifted_states_in_hc1"),
    "ratlp": ("BoxLP.solve", "BoxLP.verify_farkas", "rref", "rank", "nullspace", "in_span"),
    "quantum": ("build_witness", "inverseless_sample_check", "key_example_state_check",
                "membrane_filler_check"),
}

NERVE_BUILDERS = ("nerve.comm_nerve", "nerve.action_partial_group", "nerve.nerve",
                  "nerve.effect_functor", "nerve.simplicial_circle")

# time spent hashing structures for repeat keys is booked to this pseudo-layer,
# so that it is not charged to the layer that happened to be running
OVERHEAD = "trace"


def _sset_digest(x):
    h = hashlib.sha1(repr((x.K, list(x.counts))).encode())
    for key in sorted(x.face):
        h.update(repr((key, list(x.face[key]))).encode())
    return h.hexdigest()


def _cyclic_digest(c):
    h = hashlib.sha1(_sset_digest(c.base).encode())
    for n in sorted(c.tau):
        h.update(repr((n, list(c.tau[n]))).encode())
    return h.hexdigest()


class Recorder:
    """Spans of one invocation: [name, start, end, parent index, key, count]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self._digests = {}  # id(structure) -> (structure, digest); holds a reference

    def _digest(self, obj, fn):
        hit = self._digests.get(id(obj))
        if hit is None:
            t0 = time.perf_counter()
            hit = (obj, fn(obj))
            self._digests[id(obj)] = hit
            self._closed_span(OVERHEAD + ".digest", t0, time.perf_counter())
        return hit[1]

    def _closed_span(self, name, start, end):
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start, end, parent, None, None])

    def _key(self, name, args):
        if name == "sset.membrane_set":
            x, n, subset = args[:3]
            return f"{self._digest(x, _sset_digest)}|{n}|{subset!r}"
        if name in ("states.find_state", "cyclic.validate_cyclic"):
            return self._digest(args[0], _cyclic_digest)
        return None

    @staticmethod
    def _count(name, args, out):
        if name == "sset.membrane_set":
            return len(out)
        if name == "ratlp.rref":
            return len(args[0])
        if name in NERVE_BUILDERS:
            return sum(out.counts)
        return None

    def wrap(self, name, fn):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            key = rec._key(name, args)
            span = [name, 0.0, 0.0, rec.stack[-1] if rec.stack else -1, key, None]
            rec.stack.append(len(rec.spans))
            rec.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                rec.stack.pop()
            span[5] = rec._count(name, args, out)
            return out

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)


def install(recorder):
    """Wrap every TRACED function of the imported simpeff modules."""
    modules = [m for name, m in sys.modules.items()
               if m is not None and (name == "simpeff" or name.startswith("simpeff."))]
    for layer, names in TRACED.items():
        mod = importlib.import_module(f"simpeff.{layer}")
        for qual in names:
            owner_name, _, attr = qual.rpartition(".")
            owner = getattr(mod, owner_name) if owner_name else mod
            raw = owner.__dict__.get(attr) if owner_name else getattr(mod, attr, None)
            if raw is None:
                continue
            span_name = f"{layer}.{attr}"
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(recorder.wrap(span_name, raw.__func__)))
                continue
            wrapped = recorder.wrap(span_name, raw)
            if owner_name:
                setattr(owner, attr, wrapped)
                continue
            for m in modules:
                for bound, value in list(vars(m).items()):
                    if value is raw:
                        setattr(m, bound, wrapped)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


INCLUSIVE = ("sset.is_weakly_two_segal", "sset.is_two_segal", "sset.membrane_set",
             "ratlp.solve", "states.state_polytope_dim", "nerve.action_partial_group",
             "palg.max_associativity_datum", "quantum.key_example_state_check",
             "quantum.inverseless_sample_check")
REPEATED = ("sset.membrane_set", "states.find_state", "cyclic.validate_cyclic")


def metric_names():
    """Every per-layer metric `summarize` reports, in a fixed order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.calls"]
    names += [f"{n}.s" for n in INCLUSIVE]
    names += [f"{n}.repeat_share" for n in REPEATED]
    names += ["sset.membranes", "ratlp.solve.calls", "ratlp.rref.rows",
              "nerve.simplices_built"]
    return names


def summarize(invocations):
    """Per-layer metrics of one pass from its invocations' span lists.

    A span's self time is its duration minus that of its direct children;
    a layer's self time sums its spans'.  `<fn>.s` is inclusive time of the
    outermost calls of fn.  `<fn>.repeat_share` is the share of calls whose
    key (structure digest, plus level and subcomplex for membrane_set) was
    already seen earlier in the pass, in any invocation.
    """
    m = {name: 0.0 for name in metric_names()}
    seen = {name: set() for name in REPEATED}
    calls = {name: 0 for name in REPEATED}
    repeats = {name: 0 for name in REPEATED}
    for spans in invocations:
        child = [0.0] * len(spans)
        for name, start, end, parent, _key, _count in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, key, count) in enumerate(spans):
            layer = name.split(".", 1)[0]
            dur = end - start
            if layer in LAYERS:
                m[f"{layer}.self_s"] += dur - child[i]
                m[f"{layer}.calls"] += 1
            if name in INCLUSIVE and not _has_ancestor(spans, i, name):
                m[f"{name}.s"] += dur
            if name in REPEATED:
                calls[name] += 1
                repeats[name] += key in seen[name]
                seen[name].add(key)
            if name == "sset.membrane_set":
                m["sset.membranes"] += count
            elif name == "ratlp.solve":
                m["ratlp.solve.calls"] += 1
            elif name == "ratlp.rref":
                m["ratlp.rref.rows"] += count
            elif name in NERVE_BUILDERS:
                m["nerve.simplices_built"] += count
    for name in REPEATED:
        m[f"{name}.repeat_share"] = repeats[name] / calls[name] if calls[name] else 0.0
    return m


def _has_ancestor(spans, i, name):
    p = spans[i][3]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][3]
    return False
