"""Substring consistent equivalence relations on integer token sequences.

Three relations are supported: plain identity, parameterized matching
(a bijective renaming of token values), and order-isomorphism (same
relative order, including ties). Each relation comes with a canonical
per-window encoding so that two sequences are equivalent iff their
encodings are equal.
"""

from __future__ import annotations

import enum
from typing import Iterable, Iterator, Sequence


class ScerKind(enum.Enum):
    """Which equivalence relation to use."""

    IDENTITY = "identity"
    PARAMETERIZED = "param"
    ORDER_ISO = "op"

    @classmethod
    def parse(cls, name: str) -> "ScerKind":
        """ScerKind(name), with a message that names the relation."""
        try:
            return cls(name)
        except ValueError:
            raise ValueError(f"unknown equivalence relation {name!r}") from None


def _checked(tokens: Iterable[int]) -> Iterator[int]:
    """Yield each token; raise ValueError at the first that is not a
    non-negative int. TokenSeq and BorderBuilder.extend both read their
    tokens through it, so the token rule is written only here.
    """
    for t in tokens:
        # ~t is negative exactly when t is a non-negative int; a TypeError
        # (not an int) is rejected like a negative token
        try:
            c = ~t
        except TypeError:
            c = 0
        if c >= 0:
            raise ValueError(f"tokens must be non-negative integers, got {t!r}")
        yield t


class TokenSeq(tuple):
    """Immutable sequence of non-negative integer tokens.

    It is just a tuple whose tokens were checked once, by _checked, when it
    was built, so ordinary 0-based indexing and slicing work.
    """

    __slots__ = ()

    def __new__(cls, tokens: Iterable[int] = ()) -> "TokenSeq":
        return super().__new__(cls, _checked(tokens))

    @classmethod
    def from_bytes(cls, data: bytes) -> "TokenSeq":
        # every element of bytes or bytearray is an int in 0..255
        if isinstance(data, (bytes, bytearray)):
            return tuple.__new__(cls, data)
        return cls(data)

    @classmethod
    def from_text(cls, text: str) -> "TokenSeq":
        return cls(ord(ch) for ch in text)


def prev_encode(tokens: Sequence[int]) -> tuple[int, ...]:
    """Distance to the previous occurrence of the same token, 0 if none.

    Two equal-length sequences are parameterized-equivalent iff their
    encodings are equal.
    """
    last: dict[int, int] = {}
    out = []
    for i, t in enumerate(tokens):
        out.append(i - last.get(t, i))
        last[t] = i
    return tuple(out)


def rank_signature(tokens: Sequence[int]) -> tuple[int, ...]:
    """Dense rank of each token among the distinct values of the sequence.

    Two equal-length sequences are order-isomorphic iff their signatures
    are equal; ties map to equal ranks, so equality patterns are captured.
    """
    ranks = {v: r for r, v in enumerate(sorted(set(tokens)))}
    return tuple(ranks[t] for t in tokens)


def _param_equiv(x: Sequence[int], y: Sequence[int]) -> bool:
    fwd: dict[int, int] = {}
    bwd: dict[int, int] = {}
    for a, b in zip(x, y):
        if fwd.setdefault(a, b) != b or bwd.setdefault(b, a) != a:
            return False
    return True


def equiv(x: Sequence[int], y: Sequence[int], kind: ScerKind | str) -> bool:
    """True iff x and y are equivalent under `kind`, a ScerKind or its value
    string (anything else raises ValueError). Length mismatch is False."""
    if kind is ScerKind.IDENTITY:
        return len(x) == len(y) and tuple(x) == tuple(y)
    if kind is ScerKind.PARAMETERIZED:
        return len(x) == len(y) and _param_equiv(x, y)
    if kind is ScerKind.ORDER_ISO:
        return len(x) == len(y) and rank_signature(x) == rank_signature(y)
    return equiv(x, y, ScerKind(kind))
