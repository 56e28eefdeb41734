import itertools
import random

import pytest

from simpeff import cyclic as cyc
from simpeff import nerve as nv
from simpeff import palg
from simpeff.util import InputError


@pytest.fixture(scope="session")
def l2():
    return palg.interval_effect_algebra(2)


@pytest.fixture(scope="session")
def l3():
    return palg.interval_effect_algebra(3)


@pytest.fixture(scope="session")
def bool2():
    return palg.boolean_effect_algebra(2)


@pytest.fixture(scope="session")
def q8():
    return nv.quaternion_group()


@pytest.fixture(scope="session")
def q8_magma(q8):
    return nv.commuting_magma(q8)


@pytest.fixture(scope="session")
def one_element_magma():
    return palg.PartialUnitalMagma(1, {(0, 0): 0})


def nerve_of(magma, K=4):
    """The nerve of a magma at its maximal associativity datum, truncated at K."""
    return nv.nerve(magma, K)


def random_magma(rng: random.Random, size: int, density: float = 0.5) -> palg.PartialUnitalMagma:
    """A random partial unital magma: unit row/column forced, the rest coin-flipped."""
    product = {(0, m): m for m in range(size)}
    product.update({(m, 0): m for m in range(size)})
    for a in range(1, size):
        for b in range(1, size):
            if rng.random() < density:
                product[(a, b)] = rng.randrange(size)
    m = palg.PartialUnitalMagma(size, product)
    m.validate()
    return m


def involutive_magma(rng: random.Random, size: int,
                     density: float = 0.5) -> palg.PartialUnitalMagma:
    """A random partial unital magma in which every element has a two-sided
    inverse: an involution of 1..size-1 is drawn first and x * inv(x) and
    inv(x) * x are set to the unit, then the other products are
    coin-flipped as in random_magma.  Uniform draws almost never have every
    inverse."""
    rest = list(range(1, size))
    rng.shuffle(rest)
    inv = list(range(size))
    while len(rest) >= 2 and rng.random() < 0.7:
        a, b = rest.pop(), rest.pop()
        inv[a], inv[b] = b, a
    product = {(0, m): m for m in range(size)}
    product.update({(m, 0): m for m in range(size)})
    product.update({(x, inv[x]): 0 for x in range(size)})
    for a in range(1, size):
        for b in range(1, size):
            if (a, b) not in product and rng.random() < density:
                product[(a, b)] = rng.randrange(size)
    m = palg.PartialUnitalMagma(size, product)
    m.validate()
    return m


def three_element_magmas():
    """All 256 partial unital magmas on {0, 1, 2}: each of the four products
    of non-units is undefined or one of the three elements."""
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    unit = {p: p[0] + p[1] for p in itertools.product(range(3), repeat=2) if 0 in p}
    for values in itertools.product((None, 0, 1, 2), repeat=len(pairs)):
        product = dict(unit)
        product.update({p: v for p, v in zip(pairs, values) if v is not None})
        yield palg.PartialUnitalMagma(3, product)


# an order-5 loop: a Latin square with unit 0 that is not associative
LOOP5 = ((0, 1, 2, 3, 4), (1, 0, 3, 4, 2), (2, 4, 0, 1, 3), (3, 2, 4, 0, 1), (4, 3, 1, 2, 0))


def group_twist(g, z, x):
    """cyclic_from_edges on a (sub)nerve x of the group g whose level-1 labels
    are elements, with tau_1 a = z * a^-1; z must be central."""
    if z not in g.center():
        raise InputError(f"element {z} is not central")
    return cyc.cyclic_from_edges(x, [g.mul[z][g.inv(a)] for a in x.labels[1]])


# the constructions the tests build, by the name of their tuple-map oracle
# in cyclic_oracles
TWISTS = {"group_nerve_cyclic": group_twist,
          "effect_nerve_cyclic": lambda e, x: cyc.cyclic_from_edges(x, e.orthocomplement)}


def is_wapg(m, up_to):
    """Weakly associative partial group to arity up_to, (bool, witness):
    classify, then inverse_conditions unless m is a plain magma, as `check
    magma` composes them."""
    if palg.classify(m)[0] == palg.MAGMA:
        return False, ("not-weakly-associative",)
    return palg.inverse_conditions(m, up_to)
