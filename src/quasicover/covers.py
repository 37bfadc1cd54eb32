"""Shortest and longest cover arrays, cover-tree queries, and left seeds.

Everything here consumes only a border array; the equivalence relation is
fully encoded in it. Each array algorithm is one online class whose push()
takes one border value per prefix and extends its arrays in place. The
batch functions are plain push loops that return that object, and the
CLI's streaming mode drives the same classes one value at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence


@dataclass
class ShortestCoverArray:
    """Online shortest cover array; push() takes one border value per prefix.

    scover[i-1] is the length of the shortest cover of T[:i] (equal to i
    exactly when T[:i] is primitive). reach[j-1] is the longest prefix
    length that the primitive prefix T[:j] covers so far, 0 for
    non-primitive j.
    """

    scover: list[int] = field(default_factory=list)
    reach: list[int] = field(default_factory=list)
    op_count: int = 0
    _prev_border: int = field(default=0, compare=False, repr=False)

    def push(self, b: int) -> int:
        i = len(self.scover) + 1
        if not (0 <= b < i) or b > self._prev_border + 1:
            raise ValueError(f"invalid border value {b} at position {i}")
        self._prev_border = b
        self.reach.append(0)
        if b > 0:
            c = self.scover[b - 1]
            if self.reach[c - 1] >= i - c:
                self.scover.append(c)
                self.reach[c - 1] = i
                self.op_count += 2
                return c
        self.scover.append(i)
        self.reach[i - 1] = i
        self.op_count += 2
        return i


@dataclass
class LongestCoverArray:
    """Online longest proper cover array and cover tree; push() takes one
    border value per prefix and grows the tree by one node.

    lcover[i-1] is the longest proper cover length of T[:i], 0 if none.
    The cover tree has nodes 0..n with parent(i) = lcover[i-1] and root 0.
    ls_children[j] counts children of j that are left seeds of the current
    prefix; longest_ls_anc[j] is the lowest left-seed ancestor of j; both
    are indexed 0..n. dead[j] (0..n) marks retired nodes; it is None unless
    the array came from longest_cover_array_li_smyth, and push() keeps it
    current when it is set.
    push's inner loop walks prefix lengths ascending, which keeps every
    node's children count from being decremented after it reaches zero.
    """

    lcover: list[int] = field(default_factory=list)
    ls_children: list[int] = field(default_factory=lambda: [0])
    longest_ls_anc: list[int] = field(default_factory=lambda: [0])
    dead: list[bool] | None = None
    while_successes: int = 0
    op_count: int = 0
    # set to [] to record retired nodes
    trace: list[int] | None = field(default=None, compare=False)
    # called as (i, self) right after the children-count increment
    after_increment: Callable[[int, LongestCoverArray], None] | None = field(
        default=None, compare=False)
    _prev_border: int = field(default=0, compare=False, repr=False)

    def push(self, b: int) -> int:
        lcover, children, anc = self.lcover, self.ls_children, self.longest_ls_anc
        i = len(lcover) + 1
        prev = self._prev_border
        if not (0 <= b < i) or b > prev + 1:
            raise ValueError(f"invalid border value {b} at position {i}")
        children.append(0)
        anc.append(i)
        dead = self.dead
        if dead is not None:
            dead.append(False)

        if children[b] == 0 and 0 < 2 * b < i:
            anc[b] = anc[lcover[b - 1]]
        lc = anc[b]
        lcover.append(lc)
        children[lc] += 1
        if self.after_increment is not None:
            self.after_increment(i, self)
        steps = 1
        retired = 0
        if i > 1:
            # With dead kept, retired nodes are logged and marked after the
            # loop, so the loop tests one list whether or not dead is kept.
            log = self.trace if dead is None else []
            for j in range(i - 1 - prev, i - b):
                steps += 1
                while children[j] == 0:
                    if log is not None:
                        log.append(j)
                    j = lcover[j - 1]
                    children[j] -= 1
                    retired += 1
            if dead is not None:
                for j in log:
                    dead[j] = True
                if self.trace is not None:
                    self.trace.extend(log)
        self.while_successes += retired
        self.op_count += steps + retired
        self._prev_border = b
        return lc


def shortest_cover_array(border: Sequence[int]) -> ShortestCoverArray:
    """Shortest cover array from a border array."""
    sca = ShortestCoverArray()
    for b in border:
        sca.push(b)
    return sca


def longest_cover_array(border: Sequence[int]) -> LongestCoverArray:
    """Longest proper cover array from a border array (ascending inner loop)."""
    lca = LongestCoverArray()
    for b in border:
        lca.push(b)
    return lca


@dataclass
class _LiSmythState:
    lcover: list[int]
    ls_children: list[int]
    longest_ls_anc: list[int]
    dead: list[bool]


def longest_cover_array_li_smyth(
    border: Sequence[int],
    after_increment: Callable[[int, "_LiSmythState"], None] | None = None,
) -> LongestCoverArray:
    """Longest cover array via the descending inner loop with a dead array.

    Behaves identically to longest_cover_array on the output side but
    processes the vacated prefix-length range top-down, which requires
    marking already-retired nodes as dead so they are not decremented
    twice. The internal parent of the root is -1 and never exported.
    while_successes counts the nodes marked dead and op_count counts outer
    steps, inner-loop steps and retirements, as in longest_cover_array.
    The result's push() continues the text with the ascending loop.
    """
    from .border import validate_border_array

    validate_border_array(border)
    n = len(border)
    st = _LiSmythState(
        lcover=[-1] + [0] * n,
        ls_children=[0] * (n + 1),
        longest_ls_anc=list(range(n + 1)),
        dead=[False] * (n + 1),
    )

    def set_dead(j: int) -> None:
        while j >= 0 and st.ls_children[j] == 0 and not st.dead[j]:
            st.dead[j] = True
            st.ls_children[st.lcover[j]] -= 1
            j = st.lcover[j]

    steps = 0
    for i in range(1, n + 1):
        b = border[i - 1]
        if st.dead[b]:
            st.longest_ls_anc[b] = st.longest_ls_anc[st.lcover[b]]
        st.lcover[i] = st.longest_ls_anc[b]
        st.ls_children[st.lcover[i]] += 1
        if after_increment is not None:
            after_increment(i, st)
        steps += 1
        if i > 1:
            c1 = i - b
            c2 = (i - 1) - border[i - 2]
            steps += c1 - c2
            for j in range(c1 - 1, c2 - 1, -1):
                set_dead(j)
    retired = sum(st.dead)
    return LongestCoverArray(
        lcover=st.lcover[1:],
        ls_children=st.ls_children,
        longest_ls_anc=st.longest_ls_anc,
        dead=st.dead,
        while_successes=retired,
        op_count=steps + retired,
        _prev_border=border[-1] if n else 0,
    )


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
