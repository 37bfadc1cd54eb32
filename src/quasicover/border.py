"""Border arrays under the supported equivalence relations.

A border array maps each prefix length i to the length of the longest
proper border of T[:i] under the chosen relation. All three relations get
one online failure-function builder, `BorderBuilder`, in amortized linear
time (order-isomorphism pays an extra O(sigma) list insert for each new
distinct value); its one `extend` runs one of three loops, one per
relation. The quadratic generic builder, which only needs the equivalence
predicate, is kept as an independent cross-check.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Sequence

from .covers import _naturals
from .scer import ScerKind, TokenSeq, _checked, equiv


class BorderBuilder:
    """Online border-array builder for all three relations.

    extend(tokens) is the algorithm: it takes a chunk of non-negative
    integer tokens, raises ValueError on anything else, and returns
    `values`, the border array of the tokens seen so far. Any chunk but
    bytes, bytearray and TokenSeq is read through scer._checked, the token
    check TokenSeq uses, so a bad token raises with the tokens before it
    stored. Each stored value is taken from the process-wide pool of prefix
    lengths in covers (_NATURALS), so `values` holds no int objects of its
    own. push(token) is a one-token extend that returns the new border
    value. `link_follows` counts failure-link descents (amortized, at most
    2n over the whole run); it is published once per extend.
    Descending the failure links is valid for every relation, because a
    border of a border is a border under any substring consistent
    equivalence relation.

    The relation is fixed when the builder is made, and it chooses the loop
    that extend runs. Identity and param compare one code per position, with
    one match test per failure-link step; a mismatch at b = 0 gives 0.
    Identity stores the tokens themselves, the whole chunk before its loop
    runs, and gallops over runs of matches (Bentley and Yao, "An almost
    optimal algorithm for unbounded searching", IPL 5, 1976, as in
    CPython's listsort.txt): after 8 positions in a row that each extend
    the border by one, it compares T[b:b+L] with the next L tokens as list
    slices, appends L values on a hit and doubles L, from 16, halves L on a
    miss, and goes back to one position at a time at L = 0. A hit stands
    for exactly L positions whose first match test succeeds, so `values`
    and `link_follows` are those of the one-position loop: a gallop never
    skips a failure-link step. Param and op read a chunk that is not a list
    or tuple into a list first, so that its length can size the pool.
    Order-isomorphism compares nearest-neighbour codes (Kim et al.,
    "Order-preserving matching", TCS 525, 2014), with an equality case for
    ties, which that paper excludes: position j stores in lo[j] and hi[j]
    the last indices in T[:j] of the largest value <= T[j] and of the
    smallest value >= T[j], or -1 where there is none. Each new distinct
    value costs one insert into a sorted list, O(sigma).
    """

    def __init__(self, kind: ScerKind | str):
        self.kind = ScerKind(kind)
        # read once here: a ScerKind member lookup costs about ten attribute
        # reads, and push pays extend's fixed cost on every token
        self._identity = self.kind is ScerKind.IDENTITY
        self._param = self.kind is ScerKind.PARAMETERIZED
        self.values: list[int] = []
        self.link_follows = 0
        # One code per position: identity and op store the token itself;
        # param stores the prev distance, which window offset b clips to 0
        # when it exceeds b.
        self._codes: list[int] = []
        self._last: dict[int, int] = {}
        self._lo: list[int] = []
        self._hi: list[int] = []
        self._distinct: list[int] = []  # sorted distinct tokens seen (op)

    def push(self, token: int) -> int:
        return self.extend((token,))[-1]

    def extend(self, tokens: Iterable[int]) -> list[int]:
        codes, values, last = self._codes, self.values, self._last
        # every element of bytes or bytearray is an int in 0..255, and
        # TokenSeq checked its tokens when it was built; any other chunk is
        # read through _checked
        check = not isinstance(tokens, (bytes, bytearray, TokenSeq))
        follows = 0
        if self._identity:
            try:
                codes += _checked(tokens) if check else tokens
            finally:
                # a bad token stops the append after the tokens before it,
                # which are matched here, before its ValueError propagates
                n = len(codes)
                pool = _naturals(n)
                if n and not values:
                    values.append(0)  # T[:1] has no proper border
                i = len(values)
                b = values[-1] if values else 0
                miss = i - 1  # the last position that did not match at once
                while i < n:
                    for i in range(i, n):
                        c = codes[i]
                        while c != codes[b]:
                            miss = i
                            if not b:
                                values.append(0)  # no border extends
                                break
                            b = values[b - 1]
                            follows += 1
                        else:
                            b = pool[b + 1]
                            values.append(b)
                            if i - miss == 8:  # the gate: 8 matches in a row
                                break
                    else:
                        break  # the chunk ended before the gate
                    # gallop from i + 1: T[b:b+L] == T[i:i+L] is L matches at once
                    i += 1
                    L = 16
                    while L:
                        if codes[b:b + L] == codes[i:i + L]:
                            values += pool[b + 1:b + L + 1]
                            b += L
                            i += L
                            L *= 2
                        else:
                            L //= 2
                self.link_follows += follows
            return values
        if check and not isinstance(tokens, (list, tuple)):
            tokens = list(tokens)
        # a border is proper, so every value is below len(codes) + len(tokens);
        # each comes from the pool
        pool = _naturals(len(codes) + len(tokens))
        if check:
            tokens = _checked(tokens)
        # -1 before the first position: codes[-1] is then the code just
        # appended, which matches itself, and op's lo[-1] == hi[-1] == -1, so
        # the first value comes out 0
        b = values[-1] if values else -1
        try:
            if self._param:
                for i, token in enumerate(tokens, len(codes)):
                    c = i - last.get(token, i)
                    last[token] = i
                    codes.append(c)
                    # codes[b] needs no clipping: every prev distance is <= its index
                    while (c if c <= b else 0) != codes[b]:
                        if not b:
                            values.append(0)  # no border extends
                            break
                        b = values[b - 1]
                        follows += 1
                    else:
                        b = pool[b + 1]
                        values.append(b)
            else:
                lo, hi, distinct = self._lo, self._hi, self._distinct
                for i, token in enumerate(tokens, len(codes)):
                    j = last.get(token)
                    if j is None:
                        k = bisect_left(distinct, token)
                        lo.append(last[distinct[k - 1]] if k else -1)
                        hi.append(last[distinct[k]] if k < len(distinct) else -1)
                        distinct.insert(k, token)
                    else:
                        lo.append(j)
                        hi.append(j)
                    last[token] = i
                    codes.append(token)
                    # T[:b] matches the window T[i-b:i]; it extends by T[i] when
                    # T[i] relates to the window images of b's neighbours as T[b]
                    # does to the neighbours. b = 0 always extends (lo[0] == hi[0]
                    # == -1), so the loop needs no b > 0 test.
                    while True:
                        w = i - b
                        lo_b = lo[b]
                        hi_b = hi[b]
                        if lo_b == hi_b:
                            if lo_b < 0 or codes[w + lo_b] == token:
                                break
                        elif (lo_b < 0 or codes[w + lo_b] < token) and (
                                hi_b < 0 or token < codes[w + hi_b]):
                            break
                        b = values[b - 1]
                        follows += 1
                    b = pool[b + 1]
                    values.append(b)
        finally:
            self.link_follows += follows
        return values


def border_array_generic(text: Sequence[int], kind: ScerKind | str) -> list[int]:
    """Quadratic border-array builder valid for any of the relations.

    Candidates at position i descend one by one from values[i-1] + 1; the
    first b with T[:b] equivalent to T[i-b+1:i] wins. Decrementing by 1
    (rather than chasing failure links) is unconditionally correct for
    every relation, at O(n^2) cost per equivalence check. It shares no
    code with BorderBuilder, which makes it an independent cross-check.
    """
    kind = ScerKind(kind)
    t = tuple(TokenSeq(text))  # validated once; slices below are plain tuples
    values: list[int] = []
    for i in range(1, len(t) + 1):
        b = values[-1] + 1 if values else 0
        while b > 0 and not equiv(t[:b], t[i - b:i], kind):
            b -= 1
        values.append(b)
    return values


def border_array(text: Sequence[int], kind: ScerKind | str) -> list[int]:
    """Border array of `text` under `kind`, from the online builder."""
    return BorderBuilder(kind).extend(text)

