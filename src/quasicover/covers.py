"""Shortest and longest cover arrays, cover-tree queries, and left seeds.

Everything here consumes only a border array; the equivalence relation is
fully encoded in it. Each array algorithm is one online class whose
extend() is the algorithm: it takes the border values of the next
prefixes, extends the arrays in place, and publishes the counters once at
its end. push() is a one-value extend. The batch functions call extend
once on the whole border array, and the CLI's streaming mode calls it once
per input chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence


@dataclass
class ShortestCoverArray:
    """Online shortest cover array; extend() takes the border values of the
    next prefixes, push() one of them.

    scover[i-1] is the length of the shortest cover of T[:i] (equal to i
    exactly when T[:i] is primitive). reach[j-1] is the longest prefix
    length that the primitive prefix T[:j] covers so far, 0 for
    non-primitive j.
    """

    scover: list[int] = field(default_factory=list)
    reach: list[int] = field(default_factory=list)
    op_count: int = 0
    # the border value at the last position, -1 before the first
    _prev_border: int = field(default=-1, compare=False, repr=False)

    def push(self, b: int) -> int:
        return self.extend((b,))[-1]

    def extend(self, border: Iterable[int]) -> list[int]:
        scover, reach = self.scover, self.reach
        i = n0 = len(scover)
        prev = self._prev_border
        try:
            for b in border:
                i += 1
                # prev < i - 1 here, so b <= prev + 1 implies b < i
                if not 0 <= b <= prev + 1:
                    raise ValueError(f"invalid border value {b} at position {i}")
                prev = b
                reach.append(0)
                if b > 0:
                    c = scover[b - 1]
                    if reach[c - 1] >= i - c:
                        scover.append(c)
                        reach[c - 1] = i
                        continue
                scover.append(i)
                reach[i - 1] = i
        finally:
            self.op_count += 2 * (len(scover) - n0)
            self._prev_border = prev
        return scover


@dataclass
class LongestCoverArray:
    """Online longest proper cover array and cover tree; extend() takes the
    border values of the next prefixes, push() one of them, and each grows
    the tree by one node per value.

    lcover[i-1] is the longest proper cover length of T[:i], 0 if none.
    The cover tree has nodes 0..n with parent(i) = lcover[i-1] and root 0.
    ls_children[j] counts children of j that are left seeds of the current
    prefix; longest_ls_anc[j] is the lowest left-seed ancestor of j;
    dead[j] marks node j retired, that is, no longer a left seed. All three
    are indexed 0..n, and while_successes == sum(dead).
    extend's inner loop walks prefix lengths ascending, which keeps every
    node's children count from being decremented after it reaches zero.
    """

    lcover: list[int] = field(default_factory=list)
    ls_children: list[int] = field(default_factory=lambda: [0])
    longest_ls_anc: list[int] = field(default_factory=lambda: [0])
    dead: list[bool] = field(default_factory=lambda: [False])
    while_successes: int = 0
    op_count: int = 0
    # called as (i, self) right after the children-count increment; it sees
    # the lists mid-extend, and the counters as of the last extend
    after_increment: Callable[[int, LongestCoverArray], None] | None = field(
        default=None, compare=False)
    # the border value at the last position, -1 before the first
    _prev_border: int = field(default=-1, compare=False, repr=False)

    def push(self, b: int) -> int:
        return self.extend((b,))[-1]

    def extend(self, border: Iterable[int]) -> list[int]:
        lcover, children, anc = self.lcover, self.ls_children, self.longest_ls_anc
        # a fourth name on the line above would build a tuple: about 4% slower
        dead = self.dead
        hook = self.after_increment
        i = n0 = len(lcover)
        prev = prev0 = self._prev_border
        retired = 0
        try:
            for b in border:
                i += 1
                # prev < i - 1 here, so b <= prev + 1 implies b < i
                if not 0 <= b <= prev + 1:
                    raise ValueError(f"invalid border value {b} at position {i}")
                children.append(0)
                anc.append(i)
                dead.append(False)
                if children[b] == 0 and 0 < 2 * b < i:
                    anc[b] = anc[lcover[b - 1]]
                lc = anc[b]
                lcover.append(lc)
                children[lc] += 1
                if hook is not None:
                    hook(i, self)
                # the vacated prefix lengths; none when b == prev + 1
                if b <= prev:
                    for j in range(i - 1 - prev, i - b):
                        while children[j] == 0:
                            dead[j] = True
                            j = lcover[j - 1]
                            children[j] -= 1
                            retired += 1
                prev = b
        finally:
            # Each position costs one step plus the length prev + 1 - b of its
            # range; over k positions the ranges telescope to k + prev0 - prev.
            k = len(lcover) - n0
            self.while_successes += retired
            self.op_count += 2 * k + prev0 - prev + retired
            self._prev_border = prev
        return lcover


def shortest_cover_array(border: Iterable[int]) -> ShortestCoverArray:
    """Shortest cover array from a border array."""
    sca = ShortestCoverArray()
    sca.extend(border)
    return sca


def longest_cover_array(border: Iterable[int]) -> LongestCoverArray:
    """Longest proper cover array from a border array (ascending inner loop)."""
    lca = LongestCoverArray()
    lca.extend(border)
    return lca


def longest_cover_array_li_smyth(
    border: Sequence[int],
    after_increment: Callable[[int, LongestCoverArray], None] | None = None,
) -> LongestCoverArray:
    """Longest cover array via Li and Smyth's descending inner loop.

    An independent reference loop for longest_cover_array on the same
    state: it grows a LongestCoverArray by one node per prefix, and the hook
    gets that object, as extend's does. The vacated prefix-length range is
    processed top-down, so a retired node can be reached again; dead[j]
    keeps it from being decremented twice. The result equals
    longest_cover_array's, dead and counters included, and its extend()
    continues the text with the ascending loop.
    """
    from .border import validate_border_array

    validate_border_array(border)
    lca = LongestCoverArray()
    lcover, children, anc, dead = lca.lcover, lca.ls_children, lca.longest_ls_anc, lca.dead
    steps = 0
    retired = 0
    prev = -1
    for i, b in enumerate(border, start=1):
        children.append(0)
        anc.append(i)
        dead.append(False)
        if dead[b]:
            anc[b] = anc[lcover[b - 1]]
        lc = anc[b]
        lcover.append(lc)
        children[lc] += 1
        if after_increment is not None:
            after_increment(i, lca)
        steps += 1
        if i > 1:
            steps += (i - b) - (i - 1 - prev)
            for j in range(i - b - 1, i - 2 - prev, -1):
                while children[j] == 0 and not dead[j]:
                    dead[j] = True
                    j = lcover[j - 1]
                    children[j] -= 1
                    retired += 1
        prev = b
    lca.while_successes = retired
    lca.op_count = steps + retired
    lca._prev_border = prev
    return lca


def all_cover_lengths(lca: LongestCoverArray, i: int) -> list[int]:
    """All lengths j such that T[:j] covers T[:i], ascending, including i.

    These are exactly the ancestors of node i in the cover tree, read off
    by following lcover until the root.
    """
    if not (1 <= i <= len(lca.lcover)):
        raise IndexError(f"position {i} out of range for length {len(lca.lcover)}")
    chain = []
    j = i
    while j > 0:
        chain.append(j)
        j = lca.lcover[j - 1]
    chain.reverse()
    return chain


def is_primitive(sca: ShortestCoverArray, i: int) -> bool:
    """True iff T[:i] has no proper cover."""
    if not (1 <= i <= len(sca.scover)):
        raise IndexError(f"position {i} out of range for length {len(sca.scover)}")
    return sca.scover[i - 1] == i


def left_seed_lengths(border: Sequence[int], lca: LongestCoverArray, i: int) -> list[int]:
    """All prefix lengths that are left seeds of T[:i], ascending.

    Every length in [i - Border[i], i] is a left seed, and the remaining
    ones are exactly the cover-tree ancestors of those; the union of the
    ancestor chains gives the full set. lcover values are online (entry k
    depends only on border[1..k]), so the full-text cover tree serves any
    prefix query directly.
    """
    if not (1 <= i <= len(lca.lcover)) or i > len(border):
        raise IndexError(f"position {i} out of range for length {len(lca.lcover)}")
    seeds: set[int] = set()
    for k in range(i - border[i - 1], i + 1):
        j = k
        while j > 0 and j not in seeds:
            seeds.add(j)
            j = lca.lcover[j - 1]
    return sorted(seeds)
