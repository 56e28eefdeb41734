"""Machine-speed reference for the benchmark.

On a shared host the speed of one core drifts by tens of percent over
minutes, so raw seconds from runs a few minutes apart are not comparable.
The runner therefore times this fixed pure-Python computation in a forked
child after every invocation, and scales the reported times by
NOMINAL_S / (median reference time taken alongside them).  Reported times
are thus seconds at the speed the host had when NOMINAL_S was taken.

The reference mixes the operations simpeff spends its time on: tuple and
dict building (nerves, membranes) and exact Fraction elimination (the LP).
It never imports simpeff, so a change to the program cannot move it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

# S4 as permutations of 0..3, identity first
_PERMS = sorted(itertools.permutations(range(4)))
_S4 = [[_PERMS.index(tuple(p[q[x]] for x in range(4))) for q in _PERMS] for p in _PERMS]


def tuples():
    """Pairwise-commuting 4-tuples of S4, level by level, with an id index."""
    n = len(_S4)
    cur = [(a,) for a in range(n)]
    index = {}
    for _ in range(3):
        cur = [t + (b,) for t in cur for b in range(n)
               if all(_S4[a][b] == _S4[b][a] for a in t)]
        index.update((t, i) for i, t in enumerate(cur))
    return len(index)


def fractions(size=20):
    """Exact rank of a fixed size x size Fraction matrix."""
    rows = [[Fraction((i * 7 + j * 3) % 5 - 2, 1 + (i + j) % 3) for j in range(size)]
            for i in range(size)]
    rank = 0
    for col in range(size):
        piv = next((i for i in range(rank, size) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        p = rows[rank]
        for i in range(size):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col] / p[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], p)]
        rank += 1
    return rank


def reference():
    """The fixed computation the runner times; returns a checksum."""
    return tuples() + fractions()


# median forked-child time of reference() on a 2-vCPU Intel Xeon VM at
# 2.1 GHz under Python 3.11
NOMINAL_S = 0.037
