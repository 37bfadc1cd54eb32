"""Border arrays under the supported equivalence relations.

A border array maps each prefix length i to the length of the longest
proper border of T[:i] under the chosen relation. Identity and
parameterized matching get online failure-function builders; any relation
can use the quadratic generic builder, which only needs the equivalence
predicate.
"""

from __future__ import annotations

from typing import Sequence

from .scer import ScerKind, TokenSeq, equiv


def validate_border_array(values: Sequence[int]) -> None:
    """Raise ValueError unless `values` can be a border array.

    Checks 0 <= values[i] < i for every 1-based i and the step property
    values[i-1] + 1 >= values[i]. Both cover-array algorithms index with
    these values, so malformed input must be rejected up front.
    """
    prev = 0
    for k, v in enumerate(values):
        i = k + 1
        if not (0 <= v < i):
            raise ValueError(f"border value {v} out of range at position {i}")
        if v > prev + 1:
            raise ValueError(f"border array violates step property at position {i}: {prev} -> {v}")
        prev = v


class BorderBuilder:
    """Online border-array builder for identity and parameterized matching.

    Feed non-negative integer tokens one at a time with push(); `values`
    holds the border array of the tokens seen so far. `link_follows`
    counts failure-link descents (amortized, at most 2n over the whole run).
    """

    def __init__(self, kind: ScerKind):
        if kind not in (ScerKind.IDENTITY, ScerKind.PARAMETERIZED):
            raise ValueError(f"no online border builder for {kind.value}")
        self.kind = kind
        self.values: list[int] = []
        self.link_follows = 0
        # One code per position: param stores the prev distance, which window
        # offset b clips to 0 when it exceeds b; identity stores ~token, which
        # is negative for every accepted token and so never clipped.
        self._codes: list[int] = []
        self._last: dict[int, int] = {}

    def push(self, token: int) -> int:
        codes, values = self._codes, self.values
        i = len(codes)
        if token < 0:
            raise ValueError(f"tokens must be non-negative integers, got {token!r}")
        if self.kind is ScerKind.IDENTITY:
            c = ~token
        else:
            j = self._last.get(token)
            c = 0 if j is None else i - j
            self._last[token] = i
        codes.append(c)
        if i == 0:
            values.append(0)
            return 0
        # codes[b] needs no clipping: every prev distance is <= its index
        b = values[i - 1]
        follows = 0
        while b > 0 and (c if c <= b else 0) != codes[b]:
            b = values[b - 1]
            follows += 1
        b = b + 1 if (c if c <= b else 0) == codes[b] else 0
        values.append(b)
        self.link_follows += follows
        return b

    def extend(self, tokens: Sequence[int]) -> list[int]:
        for t in tokens:
            self.push(t)
        return self.values


def border_array_generic(text: Sequence[int], kind: ScerKind) -> list[int]:
    """Quadratic border-array builder valid for any of the relations.

    Candidates at position i descend one by one from values[i-1] + 1; the
    first b with T[:b] equivalent to T[i-b+1:i] wins. Decrementing by 1
    (rather than chasing failure links) is unconditionally correct for
    every relation, at O(n^2) cost per equivalence check.
    """
    t = tuple(TokenSeq(text))  # validated once; slices below are plain tuples
    values: list[int] = []
    for i in range(1, len(t) + 1):
        b = values[-1] + 1 if values else 0
        if b >= i:
            b = i - 1
        while b > 0 and not equiv(t[:b], t[i - b:i], kind):
            b -= 1
        values.append(b)
    return values


def border_array(text: Sequence[int], kind: ScerKind) -> list[int]:
    """Border array of `text` under `kind`.

    Identity and parameterized use the online failure-function builder;
    order-isomorphism falls back to the generic quadratic builder.
    """
    if kind is ScerKind.ORDER_ISO:
        return border_array_generic(text, kind)
    return BorderBuilder(kind).extend(text)


def read_border_file(path: str) -> list[int]:
    """Parse a border array file: one integer per line, line i = Border[i]."""
    values: list[int] = []
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                values.append(int(line))
            except ValueError:
                raise ValueError(f"{path}:{lineno}: not an integer: {line!r}") from None
    validate_border_array(values)
    return values
