"""Seeded input generator for the benchmark.

Every group, effect algebra, magma and action-pg subset Y the benchmark
feeds to simpeff is written here as JSON, using the standard library only,
so the program under test receives nothing but these files.  The seed
relabels each structure by a permutation that fixes 0 (the unit, or the
zero of an effect algebra).  Every verdict, level count and dimension is
invariant under such a relabelling; the order in which the checkers visit
simplices is not, so compared runs should use one seed.

The same seed always gives byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import os
import random

# ---------------------------------------------------------------------------
# structures in a fixed base labelling


def _table(elements, mul):
    """Multiplication table over `elements`, whose first entry is the unit."""
    idx = {e: i for i, e in enumerate(elements)}
    return [[idx[mul(a, b)] for b in elements] for a in elements]


def cyclic_group(n):
    return _table(list(range(n)), lambda a, b: (a + b) % n)


def dihedral_group(n):
    """D_n of order 2n as (rotation, flip) pairs."""
    elems = [(r, f) for f in (0, 1) for r in range(n)]

    def mul(x, y):
        return ((x[0] + (y[0] if x[1] == 0 else -y[0])) % n, x[1] ^ y[1])

    return _table(elems, mul)


def quaternion_group():
    """Q8 as the unit quaternions +-1, +-i, +-j, +-k in integer coordinates."""
    units = []
    for axis in range(4):
        for sign in (1, -1):
            q = [0, 0, 0, 0]
            q[axis] = sign
            units.append(tuple(q))

    def mul(p, q):
        a1, b1, c1, d1 = p
        a2, b2, c2, d2 = q
        return (a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
                a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
                a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
                a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2)

    return _table(units, mul)


def symmetric_group(n):
    """S_n with (p*q)(x) = p(q(x)); the identity sorts first."""
    elems = sorted(itertools.permutations(range(n)))
    return _table(elems, lambda p, q: tuple(p[q[x]] for x in range(n)))


def interval_effect_algebra(n):
    """L_n = {0..n}: a + b defined iff a + b <= n, perp(a) = n - a."""
    products = {(a, b): a + b for a in range(n + 1) for b in range(n + 1) if a + b <= n}
    return n + 1, products, [n - a for a in range(n + 1)]


def boolean_effect_algebra(atoms):
    """Subsets of an atom set as bitmasks; disjoint union; complement."""
    size = 1 << atoms
    products = {(a, b): a | b for a in range(size) for b in range(size) if a & b == 0}
    return size, products, [(size - 1) ^ a for a in range(size)]


GROUPS = {
    "q8": quaternion_group,
    "d4": lambda: dihedral_group(4),
    "d5": lambda: dihedral_group(5),
    "s4": lambda: symmetric_group(4),
    "z6": lambda: cyclic_group(6),
}

EFFECT_ALGEBRAS = {
    "l4": lambda: interval_effect_algebra(4),
    "bool2": lambda: boolean_effect_algebra(2),
    "bool3": lambda: boolean_effect_algebra(3),
}

# Y for `build action-pg` on S4 is a seeded left translate h.B of this base
# set (the permutations p with p(0) in {0, 1}).  Under the right translation
# action, y -> h.y maps chains in B onto chains in h.B with the same group
# labels, so every seed builds the same L_Y(S4) up to relabelling, and the
# seed moves the instance without changing its size.
Y_BASE_S4 = tuple(range(12))
Y_SIZE = len(Y_BASE_S4)

# ---------------------------------------------------------------------------
# seeded relabelling


def relabelling(seed, name, size):
    """A permutation of range(size) fixing 0, chosen by (seed, name)."""
    rest = list(range(1, size))
    random.Random(f"simpeff-bench:{seed}:{name}").shuffle(rest)
    return [0] + rest


def relabel_group(table, perm):
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[perm[a]][perm[b]] = perm[table[a][b]]
    return out


def relabel_effect_algebra(ea, perm):
    size, products, perp = ea
    prods = {(perm[a], perm[b]): perm[c] for (a, b), c in products.items()}
    new_perp = [0] * size
    for a in range(size):
        new_perp[perm[a]] = perm[perp[a]]
    return size, prods, new_perp


def seeded_group(seed, name):
    table = GROUPS[name]()
    return relabel_group(table, relabelling(seed, name, len(table)))


def seeded_effect_algebra(seed, name):
    ea = EFFECT_ALGEBRAS[name]()
    return relabel_effect_algebra(ea, relabelling(seed, name, ea[0]))


def seeded_y(seed):
    """The action-pg subset Y of the seeded S4, as sorted element ids."""
    base = symmetric_group(4)
    perm = relabelling(seed, "s4", len(base))
    h = random.Random(f"simpeff-bench:{seed}:y").randrange(len(base))
    return sorted(perm[base[h][b]] for b in Y_BASE_S4)


def commuting_magma(table):
    """Partial magma on the group carrier, defined exactly on commuting pairs."""
    n = len(table)
    return n, {(a, b): table[a][b] for a in range(n) for b in range(n)
               if table[a][b] == table[b][a]}

# ---------------------------------------------------------------------------
# JSON files


def group_json(table):
    return {"order": len(table), "mul": table}


def magma_json(size, products):
    return {"size": size, "unit": 0,
            "products": sorted([a, b, c] for (a, b), c in products.items())}


def effect_algebra_json(ea):
    size, products, perp = ea
    body = magma_json(size, products)
    body["orthocomplement"] = perp
    return body


def _dump(body):
    return json.dumps(body, sort_keys=True, separators=(",", ":")) + "\n"


def input_files(seed, names):
    """{file name: text} for the requested inputs.

    Names: a group ("q8", "d4", "d5", "s4", "z6"), an effect algebra ("l4",
    "bool2", "bool3"), "s4-magma" (the commuting magma of the seeded S4) or
    "y" (the action-pg subset of the seeded S4, one comma-separated line).
    """
    out = {}
    for name in names:
        if name in GROUPS:
            out[f"{name}.json"] = _dump(group_json(seeded_group(seed, name)))
        elif name in EFFECT_ALGEBRAS:
            out[f"{name}.json"] = _dump(effect_algebra_json(seeded_effect_algebra(seed, name)))
        elif name == "s4-magma":
            out["s4-magma.json"] = _dump(magma_json(*commuting_magma(seeded_group(seed, "s4"))))
        elif name == "y":
            out["y.txt"] = ",".join(map(str, seeded_y(seed))) + "\n"
        else:
            raise ValueError(f"unknown input {name!r}")
    return out


def write_inputs(seed, names, directory):
    """Write the requested inputs into directory; returns {file name: path}."""
    paths = {}
    for fname, text in input_files(seed, names).items():
        path = os.path.join(directory, fname)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        paths[fname] = path
    return paths
