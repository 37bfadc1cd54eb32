"""Differential property tests against the oracles beyond 3-letter alphabets.

The exhaustive universes elsewhere stop at binary length 10 and ternary
length 8; here hypothesis draws texts of length up to 30 over alphabets of
up to n arbitrary non-negative symbols, for every relation, and builds the
shortest and longest cover arrays over a drawn chunking of the border array.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KINDS
from quasicover.border import border_array
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
