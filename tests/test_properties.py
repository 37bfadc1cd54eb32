"""Differential property tests against the oracles beyond 3-letter alphabets.

The exhaustive universes elsewhere stop at binary length 10 and ternary
length 8; here hypothesis draws texts of length up to 30 over alphabets of
up to n arbitrary non-negative symbols, for every relation, and builds the
shortest and longest cover arrays over a drawn chunking of the border array.
The CLI's tokens reader is checked against drawn token texts and reads,
and its --stream rows against a drawn chunking of the input.
"""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KINDS
from helpers import SplitStream
from quasicover.border import BorderBuilder, border_array
from quasicover.cli import ARRAY_NAMES, _run, read_chunks
from quasicover.covers import (
    LongestCoverArray,
    ShortestCoverArray,
    all_cover_lengths,
    left_seed_lengths,
    longest_cover_array,
    longest_cover_array_li_smyth,
    shortest_cover_array,
)
from quasicover.oracle import (
    brute_border_array,
    brute_cover_set,
    brute_lcover,
    brute_left_seeds,
    brute_scover,
)

MAX_LEN = 30


@st.composite
def texts(draw):
    n = draw(st.integers(1, MAX_LEN))
    sigma = draw(st.integers(1, n))
    symbols = draw(st.lists(st.integers(0, 2**31), min_size=sigma, max_size=sigma, unique=True))
    picks = draw(st.lists(st.integers(0, sigma - 1), min_size=n, max_size=n))
    return tuple(symbols[k] for k in picks)


@pytest.mark.parametrize("kind", KINDS)
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(s=texts(), data=st.data())
def test_fast_paths_match_oracles(kind, s, data):
    n = len(s)
    b = border_array(s, kind)
    assert b == brute_border_array(s, kind)
    sca = shortest_cover_array(b)
    assert sca.scover == brute_scover(s, kind)
    lcover = brute_lcover(s, kind)
    lca, ls = longest_cover_array(b), longest_cover_array_li_smyth(b)
    assert lca.lcover == lcover
    assert ls == lca  # arrays, dead and counters
    chunked, chunked_sca = LongestCoverArray(), ShortestCoverArray()
    k = 0
    for size in data.draw(st.lists(st.integers(1, n), max_size=n)):
        chunked.extend(b[k:k + size])
        chunked_sca.extend(b[k:k + size])
        k = len(chunked.lcover)
    chunked.extend(b[k:])
    chunked_sca.extend(b[k:])
    assert chunked == lca
    assert chunked_sca == sca
    assert all_cover_lengths(lca, n) == sorted(brute_cover_set(s, kind))
    assert left_seed_lengths(b, lca, n) == brute_left_seeds(s, kind, n)


WHITESPACE = b" \t\n\r\x0b\x0c"  # what bytes.split() splits on
VALUES = st.lists(st.integers(0, 10**30), max_size=20)
BAD_TOKENS = st.one_of(
    st.sampled_from([b"+1", b"-0", b"-7", b"1_0", b"0x10", b"1.5", b"1e3", "\u0663".encode()]),
    st.binary(min_size=1, max_size=4)
    .map(lambda tok: bytes(c for c in tok if c not in WHITESPACE))
    .filter(lambda tok: tok and not tok.isdigit()),
)


def token_reads(data, words):
    """The words between drawn whitespace, cut into drawn non-empty reads."""
    def space(min_size):
        return bytes(data.draw(st.lists(st.sampled_from(WHITESPACE), min_size=min_size,
                                        max_size=3)))

    text = space(0) + b"".join(w + space(1 if k < len(words) - 1 else 0)
                               for k, w in enumerate(words))
    cuts = sorted(data.draw(st.sets(st.integers(1, len(text) - 1), max_size=5))
                  if len(text) > 1 else ())
    bounds = [0, *cuts, len(text)]
    return [text[a:b] for a, b in zip(bounds, bounds[1:])]


def digits(data, v):
    return b"0" * data.draw(st.integers(0, 2)) + str(v).encode()


def read_tokens(pieces, got):
    for chunk in read_chunks(SplitStream(pieces), "tokens"):
        got += chunk


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(values=VALUES, data=st.data())
def test_reader_yields_drawn_tokens(values, data):
    got = []
    read_tokens(token_reads(data, [digits(data, v) for v in values]), got)
    assert got == values


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(values=VALUES, data=st.data())
def test_reader_stops_at_first_bad_token(values, data):
    k = data.draw(st.integers(0, len(values)))
    words = [digits(data, v) for v in values]
    words.insert(k, data.draw(BAD_TOKENS))
    got = []
    with pytest.raises(ValueError, match="^bad token input: "):
        read_tokens(token_reads(data, words), got)
    assert got == values[:k]


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(data=st.data())
def test_stream_rows_do_not_depend_on_chunking(data):
    # a chunk's rows are one template pass; rows on either side of a chunk
    # boundary must come out as they do inside one chunk
    sigma = data.draw(st.integers(1, 4))
    text = bytes(data.draw(st.lists(st.integers(97, 96 + sigma), min_size=1, max_size=120)))
    chunks, k = [], 0
    while k < len(text):
        size = data.draw(st.integers(1, 70))
        chunks.append(text[k:k + size])
        k += size
    kind = data.draw(st.sampled_from(KINDS))
    fmt = data.draw(st.sampled_from(["tsv", "json"]))
    arrays = data.draw(st.lists(st.sampled_from(ARRAY_NAMES), min_size=1, max_size=6))

    def rows(pieces):
        out = io.StringIO()
        assert _run(iter(pieces), BorderBuilder(kind), arrays, fmt, True, out) is None
        return out.getvalue()

    assert rows(chunks) == rows([text])
