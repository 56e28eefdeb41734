import itertools
import random

import pytest

from simpeff import nerve as nv
from simpeff import palg


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


def three_element_magmas():
    """All 256 partial unital magmas on {0, 1, 2}: each of the four products
    of non-units is undefined or one of the three elements."""
    pairs = [(1, 1), (1, 2), (2, 1), (2, 2)]
    unit = {p: p[0] + p[1] for p in itertools.product(range(3), repeat=2) if 0 in p}
    for values in itertools.product((None, 0, 1, 2), repeat=len(pairs)):
        product = dict(unit)
        product.update({p: v for p, v in zip(pairs, values) if v is not None})
        yield palg.PartialUnitalMagma(3, product)
