"""Quasiperiodicity structure of strings under substring consistent
equivalence relations: border arrays, shortest and longest cover arrays,
cover-tree queries, and left seeds, with brute-force reference oracles."""

from .border import BorderBuilder, border_array, border_array_generic
from .covers import (
    LongestCoverArray,
    ShortestCoverArray,
    all_cover_lengths,
    is_primitive,
    left_seed_lengths,
    longest_cover_array,
    longest_cover_array_li_smyth,
    shortest_cover_array,
    validate_border_array,
)
from .scer import ScerKind, TokenSeq, equiv, prev_encode, rank_signature

__all__ = [
    "BorderBuilder",
    "LongestCoverArray",
    "ScerKind",
    "ShortestCoverArray",
    "TokenSeq",
    "all_cover_lengths",
    "border_array",
    "border_array_generic",
    "equiv",
    "is_primitive",
    "left_seed_lengths",
    "longest_cover_array",
    "longest_cover_array_li_smyth",
    "prev_encode",
    "rank_signature",
    "shortest_cover_array",
    "validate_border_array",
]
