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

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress
from typing import Callable, Iterable, Sequence


# _NATURALS[k] == k, one process-wide pool of prefix lengths. The border
# values that BorderBuilder.extend stores, the positions that the cover-array
# extends store (and so every entry of scover, reach, lcover, longest_ls_anc
# and dead) and the cut-path answers of left_seed_lengths are all taken from
# it, so they share one int object per value instead of each holding its own
# 32-byte int for every value above 256. Each extend sizes it once per chunk.
# Growing it builds a new list and never changes a published one, so a
# caller's list stays valid whatever another thread grows; it is never shrunk.
_NATURALS: list[int] = []


def _naturals(n: int) -> list[int]:
    """The shared list of the ints 0..m - 1, for some m >= n."""
    global _NATURALS
    naturals = _NATURALS
    if len(naturals) < n:
        # an eighth extra, so that a growing text copies it O(1) times per entry
        naturals = _NATURALS = [*naturals, *range(len(naturals), n + (n >> 3))]
    return naturals


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
        if not isinstance(border, (list, tuple)):
            border = list(border)
        i = n0 = len(scover)
        k = len(border)
        # positions n0 + 1 .. n0 + k come from the shared pool
        pool = _naturals(n0 + k + 1)
        prev = self._prev_border
        try:
            for b in border:
                i = pool[i + 1]
                # prev < i - 1 here, so b <= prev + 1 implies b < i
                if not 0 <= b <= prev + 1:
                    raise ValueError(f"invalid border value {b} at position {i}")
                # both reads come before the appends, so a b that is no index
                # raises with the arrays still those of the valid prefix
                if b > 0:
                    c = scover[b - 1]
                    if reach[c - 1] >= i - c:
                        prev = b
                        scover.append(c)
                        reach[c - 1] = i
                        reach.append(0)
                        continue
                else:
                    # b == 0 never indexes above; this does, so 0.0 raises too
                    b = (0,)[b]
                prev = b
                scover.append(i)
                reach.append(i)
        except TypeError:
            # every TypeError comes from a read of b, before this position's appends
            raise ValueError(f"invalid border value {b!r} at position {i}") from None
        finally:
            self.op_count += 2 * (len(scover) - n0)
            self._prev_border = prev
        return scover


def validate_border_array(values: Iterable[int]) -> None:
    """Raise ValueError unless `values` can be a border array: the check of
    both cover-array extends, run on a throwaway ShortestCoverArray."""
    ShortestCoverArray().extend(values)


@dataclass
class LongestCoverArray:
    """Online longest proper cover array and cover tree; extend() takes the
    border values of the next prefixes, push() one of them, and each grows
    the tree by one node per value.

    lcover[i-1] is the longest proper cover length of T[:i], 0 if none.
    The cover tree has nodes 0..n with parent(i) = lcover[i-1] and root 0.
    ls_children[j] counts children of j that are left seeds of the current
    prefix; longest_ls_anc[j] is the lowest left-seed ancestor of j;
    dead[j] is the position i that retired node j, the first prefix T[:i]
    of which j is no left seed, and 0 while j is still a left seed. All
    three are indexed 0..n, and while_successes counts the nonzero dead
    entries. left_seed_lengths answers a query without a walk from
    _retired, the nodes j with dead[j] > 0 in ascending order. Nodes only
    ever retire, so the index is current while its length equals
    while_successes; a query rebuilds it as a new list when it is not, and
    extend never touches it. A border value b whose node has retired
    (dead[b] != 0) takes its parent's lowest left-seed ancestor into
    longest_ls_anc[b] before the new node reads it; both longest-cover
    loops decide this from dead. extend's inner loop walks prefix lengths
    ascending, which keeps every node's children count from being
    decremented after it reaches zero. Position i vacates the prefix
    lengths [lo, i - b), each range starting where the last one ended, so
    one pointer lo walks them all; between positions it is len(lcover) -
    (last border value). The step rule 0 <= b <= prev + 1 reads lo <= i -
    b <= i, and i - b is the first use of b, so a value it rejects, of any
    type, raises ValueError with the state of the valid prefix. op_count
    counts one step per position, one per prefix length lo walks and one
    per retirement. extend sizes ls_children and dead to the end of the
    chunk first and cuts them back when it stops.
    """

    lcover: list[int] = field(default_factory=list)
    ls_children: list[int] = field(default_factory=lambda: [0])
    longest_ls_anc: list[int] = field(default_factory=lambda: [0])
    dead: list[int] = field(default_factory=lambda: [0])
    while_successes: int = 0
    op_count: int = 0
    # the border value at the last position, -1 before the first
    _prev_border: int = field(default=-1, compare=False, repr=False)
    # the retired nodes, ascending; built by left_seed_lengths, never by extend
    _retired: list[int] = field(default_factory=list, init=False, compare=False, repr=False)

    def push(self, b: int) -> int:
        return self.extend((b,))[-1]

    def extend(self, border: Iterable[int]) -> list[int]:
        lcover, children, anc = self.lcover, self.ls_children, self.longest_ls_anc
        # a fourth name on the line above would build a tuple: push 2-4% slower
        dead = self.dead
        if not isinstance(border, (list, tuple)):
            border = list(border)
        i = n0 = len(lcover)
        k = len(border)
        # positions n0 + 1 .. n0 + k come from the shared pool
        pool = _naturals(n0 + k + 1)
        lo = lo0 = n0 - self._prev_border
        retired = 0
        # nodes n0 + 1 .. n0 + k start at 0; the finally cuts what is unused. A
        # tuple, not repeat(0, k), saves a push 0.2-0.4 us, and is freed at once.
        children += (0,) * k
        dead += (0,) * k
        try:
            for b in border:
                i = pool[i + 1]
                # the step rule 0 <= b <= prev + 1 (so b < i) is lo <= hi <= i,
                # in two compares, which cost less than one chained compare
                hi = i - b
                if hi < lo or hi > i:
                    raise ValueError(f"invalid border value {b} at position {i}")
                # read before the appends: a b that is no index leaves the valid prefix
                if dead[b]:
                    anc[b] = anc[lcover[b - 1]]
                anc.append(i)
                lc = anc[b]
                lcover.append(lc)
                children[lc] += 1
                # the vacated prefix lengths; none when b == prev + 1
                while lo < hi:
                    j = lo
                    lo += 1
                    while children[j] == 0:
                        dead[j] = i
                        j = lcover[j - 1]
                        children[j] -= 1
                        retired += 1
        except TypeError:
            # every TypeError comes from a use of b, before this position's appends
            raise ValueError(f"invalid border value {b!r} at position {i}") from None
        finally:
            del children[len(lcover) + 1:], dead[len(lcover) + 1:]
            # after each position lo == i - b, so len(lcover) - lo is its b
            self.while_successes += retired
            self.op_count += len(lcover) - n0 + lo - lo0 + retired
            self._prev_border = len(lcover) - lo
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
    border: Iterable[int],
    after_increment: Callable[[int, LongestCoverArray], None] | None = None,
) -> LongestCoverArray:
    """Longest cover array via Li and Smyth's descending inner loop.

    An independent reference loop for longest_cover_array on the same
    state: it grows a LongestCoverArray by one node per prefix and calls
    the hook as (i, that object) right after the children-count increment
    of position i, before its retirements. The vacated prefix-length range is
    processed top-down, so a retired node can be reached again; a nonzero
    dead[j] keeps it from being decremented twice. It shares extend's
    retirement test on the border value but keeps its own top-down range
    walk with that dead guard, its own per-position appends, its own step
    count and its own validation pass. The result equals
    longest_cover_array's, dead and counters included, and its extend()
    continues the text with the ascending loop.
    """
    # the check below reads the values once; the loop reads them again
    if not isinstance(border, (list, tuple)):
        border = list(border)
    validate_border_array(border)
    lca = LongestCoverArray()
    lcover, children, anc, dead = lca.lcover, lca.ls_children, lca.longest_ls_anc, lca.dead
    steps = 0
    prev = -1
    for i, b in enumerate(border, start=1):
        children.append(0)
        anc.append(i)
        dead.append(0)
        if dead[b]:
            anc[b] = anc[lcover[b - 1]]
        lc = anc[b]
        lcover.append(lc)
        children[lc] += 1
        if after_increment is not None:
            after_increment(i, lca)
        # at i = 1, b == 0 and prev == -1: the range is empty
        steps += 1 + (prev + 1 - b)
        for j in range(i - b - 1, i - 2 - prev, -1):
            while children[j] == 0 and not dead[j]:
                dead[j] = i
                j = lcover[j - 1]
                children[j] -= 1
                lca.while_successes += 1
        prev = b
    lca.op_count = steps + lca.while_successes
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
    ones are exactly the cover-tree ancestors of those. A node stops being
    a left seed at the position that retires it and never becomes one
    again, so the left seeds of T[:i] are also the nodes 1..i with
    dead[j] == 0 or dead[j] > i. Both readings hold for any i, because
    lcover values are online (entry k depends only on border[1..k]).

    When at most i / 2 nodes of lca have retired (2 * while_successes <=
    i), the answer is at least half of 1..i, so i is at most twice its size:
    the cut path takes 1..i from the shared list of ints as one descending
    slice and deletes from it the runs of retired nodes j < i with dead[j]
    <= i. A node retires after its own position, so the nodes retired by i
    are all below i. It reads the retired nodes from lca._retired,
    which it rebuilds in one C-level scan of dead when the length of the
    index is not while_successes. A query costs one O(i) slice and reverse,
    plus, per deleted run, a move of the pointers of the kept nodes below
    it; every cut node lies below i - Border[i], so the nodes of [i -
    Border[i], i] never move. del keeps the slice's capacity, so an answer
    may hold up to while_successes spare slots.
    Otherwise the walk path takes the union of the ancestor chains of
    [i - Border[i], i]. longest_cover_array_li_smyth counts its retirements
    into while_successes as it goes, so a query from its after_increment hook
    sees every retirement before position i. The walk path then answers right;
    the cut path still counts the nodes that retire at i as left seeds.
    """
    if not (1 <= i <= len(lca.lcover)) or i > len(border):
        n = min(len(border), len(lca.lcover))
        raise IndexError(f"position {i} out of range for length {n}")
    if 2 * lca.while_successes <= i:
        dead = lca.dead
        naturals = _naturals(len(dead))
        retired = lca._retired
        if len(retired) != lca.while_successes:
            # a new list, never the old one changed: a reader's list stays valid
            retired = lca._retired = list(compress(naturals, dead))
        # Node j sits at index i - j. Each maximal run lo + 1..hi of cut nodes
        # is one del, lowest run first: the nodes above a run keep their
        # indices, and only the kept nodes below it move. lo = hi = 0 is the
        # empty run before the first.
        out = naturals[i:0:-1]
        lo = hi = 0
        for j in retired[:bisect_left(retired, i)]:
            if dead[j] <= i:
                if j != hi + 1:
                    del out[i - hi:i - lo]
                    lo = j - 1
                hi = j
        del out[i - hi:i - lo]
        out.reverse()
        return out
    lcover = lca.lcover
    seeds: set[int] = set()
    for k in range(i - border[i - 1], i + 1):
        j = k
        while j > 0 and j not in seeds:
            seeds.add(j)
            j = lcover[j - 1]
    return sorted(seeds)
