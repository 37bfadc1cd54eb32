"""Metamorphic checks at n = 10^4, where the oracles are too slow.

A relabelling that keeps a text in the same equivalence class leaves every
array unchanged, and identity matching implies the other two relations, so
no identity border is longer than the param or op border at that position.
Two implementations of one array agree: the CLI's stream with the batch
functions, whatever the input's chunk sizes, and Li and Smyth's descending
longest-cover loop with the ascending one. Every cover is a border or the
whole text.
"""

import random
import sys
import types

import pytest

from helpers import SplitStream
from quasicover.border import border_array
from quasicover.cli import main
from quasicover.covers import (
    all_cover_lengths,
    longest_cover_array,
    longest_cover_array_li_smyth,
    shortest_cover_array,
)
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


def random_pieces(data, rng):
    """`data` cut into pieces of seeded random sizes from 1 byte to 4 KiB."""
    pieces, k = [], 0
    while k < len(data):
        size = rng.randint(1, 1 << rng.randrange(13))
        pieces.append(data[k:k + size])
        k += size
    return pieces


@pytest.mark.parametrize("kind", ScerKind)
@pytest.mark.parametrize("name", TEXTS)
def test_stream_rows_equal_batch_arrays(name, kind, capsys, monkeypatch):
    text = TEXTS[name]
    rng = random.Random(3)
    inputs = {"tokens": b"".join(b"%d%s" % (t, rng.choice([b" ", b"\n", b"\t "]))
                                 for t in text)}
    if max(text) < 256:
        inputs["bytes"] = bytes(text)
    for mode, data in inputs.items():
        # the byte-mode rule: a final newline is not a token
        tokens = text[:-1] if mode == "bytes" and text[-1] == ord("\n") else text
        stdin = types.SimpleNamespace(buffer=SplitStream(random_pieces(data, rng)))
        monkeypatch.setattr(sys, "stdin", stdin)
        assert main(["--stream", "--scer", kind.value, "--input-mode", mode]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "i\tborder\tscover\tlcover"
        rows = [list(map(int, line.split("\t"))) for line in lines[1:]]
        expected = arrays(tokens, kind)
        assert rows == [[i, *row] for i, row in enumerate(zip(*expected), start=1)], mode
        assert stdin.buffer.reads > 1


@pytest.mark.parametrize("kind", ScerKind)
@pytest.mark.parametrize("name", TEXTS)
def test_li_smyth_equals_longest_cover_array(name, kind):
    b = border_array(TEXTS[name], kind)
    # whole-object equality: arrays, dead and counters
    assert longest_cover_array(b) == longest_cover_array_li_smyth(b)


@pytest.mark.parametrize("kind", ScerKind)
@pytest.mark.parametrize("name", TEXTS)
def test_covers_are_in_border_chain(name, kind):
    b = border_array(TEXTS[name], kind)
    lca = longest_cover_array(b)
    rng = random.Random(4)
    for i in [N] + rng.sample(range(1, N), 50):
        chain, j = set(), i
        while j > 0:
            chain.add(j)
            j = b[j - 1]
        assert set(all_cover_lengths(lca, i)) <= chain, i
