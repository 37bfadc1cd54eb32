"""Metamorphic checks at n = 10^4, where the oracles are too slow.

A relabelling that keeps a text in the same equivalence class leaves every
array unchanged, and identity matching implies the other two relations, so
no identity border is longer than the param or op border at that position.
"""

import random

import pytest

from quasicover.border import border_array
from quasicover.covers import longest_cover_array, shortest_cover_array
from quasicover.scer import ScerKind

N = 10_000


def fibonacci(n):
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def shifted_copies(n, rng):
    """Copies of one tied block, each under its own increasing map."""
    block = [rng.randrange(6) for _ in range(9)]
    s = []
    while len(s) < n:
        scale, shift = rng.randint(1, 4), rng.randrange(100)
        s += [scale * v + shift for v in block]
    return s[:n]


def texts():
    rng = random.Random(10_000)
    return {
        "random4": [rng.randrange(4) for _ in range(N)],
        "random1000": [rng.randrange(1000) for _ in range(N)],
        "fibonacci": fibonacci(N),
        "shifted": shifted_copies(N, rng),
    }


TEXTS = texts()


def arrays(text, kind):
    b = border_array(text, kind)
    return b, shortest_cover_array(b).scover, longest_cover_array(b).lcover


@pytest.mark.parametrize("name", TEXTS)
def test_order_iso_invariant_under_increasing_map(name):
    text = TEXTS[name]
    rng = random.Random(1)
    image, v = {}, 0
    for symbol in sorted(set(text)):
        v += rng.randint(1, 1000)
        image[symbol] = v
    mapped = [image[t] for t in text]
    assert arrays(mapped, ScerKind.ORDER_ISO) == arrays(text, ScerKind.ORDER_ISO)


@pytest.mark.parametrize("kind", [ScerKind.IDENTITY, ScerKind.PARAMETERIZED])
@pytest.mark.parametrize("name", TEXTS)
def test_invariant_under_bijection(name, kind):
    text = TEXTS[name]
    symbols = sorted(set(text))
    targets = random.Random(2).sample(range(10 * len(symbols) + 10), len(symbols))
    image = dict(zip(symbols, targets))
    mapped = [image[t] for t in text]
    assert arrays(mapped, kind) == arrays(text, kind)


@pytest.mark.parametrize("name", TEXTS)
def test_identity_borders_are_shortest(name):
    text = TEXTS[name]
    b_id = border_array(text, ScerKind.IDENTITY)
    for kind in (ScerKind.PARAMETERIZED, ScerKind.ORDER_ISO):
        b = border_array(text, kind)
        assert all(x <= y for x, y in zip(b_id, b)), kind
