"""Metamorphic checks at n = 10^4, where the oracles are too slow.

A relabelling that keeps every equivalence between windows of a text (for
op, any strictly monotone map) leaves every array unchanged, and identity
matching implies the other two relations, so no identity border is longer
than the param or op border at that position.
Two implementations of one array agree: the CLI's stream with the batch
functions, whatever the input's chunk sizes, and Li and Smyth's descending
longest-cover loop with the ascending one, a chunked longest-cover build
with the one-shot build, both left-seed paths with a walk over the cover
tree, and the shortest-cover array with the root end of each longest-cover
chain. Before each chunk of a chunked longest-cover build, the node of the
next border value v at position i has retired (dead[v] != 0) exactly when
it has no left-seed children and 0 < 2v < i, which lets extend's
retirement test read dead alone. Every cover is a border or the whole
text. For identity and param, the border array, and at sampled positions
the cover set, equal those read off the Z-array, an algorithm that shares
nothing with the failure function. For param and op on random text, and
for op on a text of distinct tokens, the border array equals the quadratic
generic builder's, which shares nothing with the failure function either.
"""

import random
import sys
import tracemalloc
import types
from collections import Counter

import pytest

from conftest import cov_set, strings
from helpers import (
    SplitStream,
    borders_from_z,
    covers_from_z,
    fibonacci,
    left_seeds_by_walk,
    param_z_array,
    z_array,
)
from quasicover.border import border_array, border_array_generic
from quasicover.cli import main
from quasicover.covers import (
    LongestCoverArray,
    all_cover_lengths,
    left_seed_lengths,
    longest_cover_array,
    longest_cover_array_li_smyth,
    shortest_cover_array,
)
from quasicover.oracle import brute_border_array
from quasicover.scer import ScerKind

N = 10_000


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


@pytest.mark.parametrize("direction", ["increasing", "decreasing"])
@pytest.mark.parametrize("name", TEXTS)
def test_order_iso_invariant_under_monotone_map(name, direction):
    """A strictly decreasing map reverses every comparison, which swaps the
    roles of the lo and hi neighbours, and keeps every equivalence."""
    text = TEXTS[name]
    if direction == "decreasing":
        top = max(text)
        mapped = [top - t for t in text]
    else:
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


def test_z_reference_matches_oracle():
    for s in (*strings(8, 2), *strings(5, 3)):
        z = z_array(s)
        assert borders_from_z(z) == brute_border_array(s, ScerKind.IDENTITY), s
        for i in range(1, len(s) + 1):
            assert covers_from_z(z, i) == sorted(cov_set(s[:i], ScerKind.IDENTITY)), (s, i)


def test_param_z_reference_matches_oracle():
    for s in (*strings(8, 2), *strings(6, 3)):
        z = param_z_array(s)
        assert borders_from_z(z) == brute_border_array(s, ScerKind.PARAMETERIZED), s
        for i in range(1, len(s) + 1):
            assert covers_from_z(z, i) == sorted(cov_set(s[:i], ScerKind.PARAMETERIZED)), (s, i)


Z_TEXTS = {
    "periodic": (random.Random(7).choices(range(3), k=7) * N)[:N],
    "fibonacci": TEXTS["fibonacci"],
    "random4": TEXTS["random4"],
    "random200": random.Random(200).choices(range(200), k=N),
}


def check_arrays_equal_z_reference(name, kind, z):
    text = Z_TEXTS[name]
    border = border_array(text, kind)
    assert border == borders_from_z(z)
    scover = shortest_cover_array(border).scover
    lca = longest_cover_array(border)
    for i in [N] + random.Random(8).sample(range(1, N), 20):
        covers = covers_from_z(z, i)
        assert all_cover_lengths(lca, i) == covers, (name, i)
        assert scover[i - 1] == covers[0], (name, i)
        assert lca.lcover[i - 1] == (covers[-2] if len(covers) > 1 else 0), (name, i)


@pytest.mark.parametrize("name", Z_TEXTS)
def test_identity_arrays_equal_z_reference(name):
    check_arrays_equal_z_reference(name, ScerKind.IDENTITY, z_array(Z_TEXTS[name]))


@pytest.mark.parametrize("name", Z_TEXTS)
def test_param_arrays_equal_z_reference(name):
    check_arrays_equal_z_reference(name, ScerKind.PARAMETERIZED, param_z_array(Z_TEXTS[name]))


# every token distinct, in a seeded order
DISTINCT = random.Random(N).sample(range(N), N)


@pytest.mark.parametrize("kind", [ScerKind.PARAMETERIZED, ScerKind.ORDER_ISO])
@pytest.mark.parametrize("name", ["random4", "random200", "distinct"])
def test_border_array_equals_generic(name, kind):
    text = DISTINCT if name == "distinct" else Z_TEXTS[name]
    border = border_array(text, kind)
    if name == "distinct" and kind is ScerKind.PARAMETERIZED:
        # every window of distinct tokens is param-equivalent to the prefix, so
        # each border is as long as it can be and the generic builder, which
        # checks the longest candidate first in O(n), takes seconds
        assert border == list(range(N))
    else:
        # these borders stay short, so the quadratic builder is cheap here
        assert border == border_array_generic(text, kind)


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
def test_scover_is_root_end_of_lcover_chain(name, kind):
    """T[:c] covers T[:i] exactly when c is on the cover-tree chain of i, so
    the shortest cover of T[:i] is that of its longest proper cover, if any."""
    b = border_array(TEXTS[name], kind)
    scover = shortest_cover_array(b).scover
    for i, lc in enumerate(longest_cover_array(b).lcover, start=1):
        assert scover[i - 1] == (scover[lc - 1] if lc else i), i


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


def overlapping_copies(n, rng):
    """Copies of a word u = v w v whose only border is v, in the order of
    the Fibonacci word: 0 appends u, 1 appends u overlapping the last copy
    by v. Long borders, deep cover chains, few lcover retirements."""
    while True:
        v = [rng.randrange(4) for _ in range(2)]
        u = v + [rng.randrange(4) for _ in range(3)] + v
        if max(b for b in range(len(u)) if u[:b] == u[len(u) - b:]) == 2:
            break
    s = []
    for letter in fibonacci(n):
        s += u[2:] if letter else u
        if len(s) >= n:
            return s[:n]


LSEED_TEXTS = {
    "fibonacci": TEXTS["fibonacci"],
    "overlapping": overlapping_copies(N, random.Random(5)),
    "random4": TEXTS["random4"],
}


def assert_lists_sized(lca):
    n = len(lca.lcover) + 1
    assert len(lca.ls_children) == len(lca.longest_ls_anc) == len(lca.dead) == n


@pytest.mark.parametrize("kind", ScerKind)
@pytest.mark.parametrize("name", LSEED_TEXTS)
def test_chunked_lcover_equals_one_shot(name, kind):
    """extend over chunks of 1..64 values, one of them stopped by a bad
    value, equals the one-shot build and li_smyth."""
    border = border_array(LSEED_TEXTS[name], kind)
    rng = random.Random(8)
    bad_at = rng.randint(1, N // 2)
    lca = LongestCoverArray()
    while len(lca.lcover) < N:
        k = len(lca.lcover)
        # the true next value, also ahead of the chunk that corrupts it
        v = border[k]
        assert bool(lca.dead[v]) == (lca.ls_children[v] == 0 and 0 < 2 * v < k + 1)
        chunk = border[k:k + rng.randint(1, 64)]
        e = k + len(chunk)
        if k < bad_at <= e:
            chunk[bad_at - k - 1] = -1
            with pytest.raises(ValueError):
                lca.extend(chunk)
            assert lca == longest_cover_array(border[:bad_at - 1])
            bad_at = 0
        else:
            # a chunk that is no list or tuple is read into a list first
            lca.extend(rng.choice((list, tuple, iter))(chunk))
        assert_lists_sized(lca)
    assert bad_at == 0
    # whole objects: arrays, dead, ls_children, longest_ls_anc and counters
    one_shot = longest_cover_array(border)
    assert lca == one_shot == longest_cover_array_li_smyth(border)
    assert lca._prev_border == one_shot._prev_border


def left_seed_queries(text, kind, rng):
    """(border, lca, i) at seeded positions of a whole-text build, then at
    the end of each chunk of a chunked build and at one earlier position."""
    border = border_array(text, kind)
    lca = longest_cover_array(border)
    for i in rng.sample(range(1, N + 1), 150):
        yield border, lca, i
    lca = LongestCoverArray()
    while len(lca.lcover) < N:
        k = len(lca.lcover)
        lca.extend(border[k:k + rng.randint(1, 1 << rng.randrange(11))])
        k = len(lca.lcover)
        for i in (k, rng.randint(1, k)):
            yield border, lca, i


@pytest.mark.parametrize("kind", ScerKind)
def test_left_seeds_equal_walk(kind):
    rng = random.Random(5)
    paths = Counter()
    for name, text in LSEED_TEXTS.items():
        for border, lca, i in left_seed_queries(text, kind, rng):
            # the path rule of left_seed_lengths: True is the cut path
            paths[2 * lca.while_successes <= i] += 1
            assert left_seed_lengths(border, lca, i) == left_seeds_by_walk(
                border, lca.lcover, i), (name, i)
    assert paths[True] >= 200 and paths[False] >= 200, paths


def test_left_seed_answers_share_ints():
    border = border_array(LSEED_TEXTS["overlapping"], ScerKind.IDENTITY)
    lca = longest_cover_array(border)
    positions = random.Random(6).sample(range(N // 2, N + 1), 32)
    assert 2 * lca.while_successes <= min(positions)
    left_seed_lengths(border, lca, N)  # grows the shared ints before the count
    tracemalloc.start()
    try:
        answers = [left_seed_lengths(border, lca, i) for i in positions]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    items = sum(map(len, answers))
    # a list slot is 8 bytes, plus up to an eighth of over-allocation; an int
    # object of its own would add 32 bytes per item
    assert held < 10 * items, (held, items)
