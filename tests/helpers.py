"""The acceptance suite's per-string checks, and texts, a left-seed walk, a
Z-array reference for identity and param and a fake input stream shared by
the other tests.

Each check returns silently or raises AssertionError with the offending
string; callers decide the universe to sweep.
"""

from bisect import bisect_left
from collections import Counter, defaultdict

from conftest import bord_set, cov_set, lseed_set
from quasicover.scer import equiv, prev_encode


def check_cover_border_lemmas(s, kind):
    """Cover/border structure of one string: containment, transitivity,
    nesting, overlap, and the proper-cover reach characterization."""
    n = len(s)
    covers = sorted(cov_set(s, kind))
    borders = sorted(bord_set(s, kind))

    # a cover of T no longer than a border B of T also covers B
    for c in covers:
        for b in borders:
            if c <= b and b >= 1:
                assert c in cov_set(s[:b], kind), (s, kind, "cover-of-border", c, b)

    # covers of covers are covers; shorter covers cover longer ones
    for c in covers:
        for c2 in cov_set(s[:c], kind):
            assert c2 in cov_set(s, kind), (s, kind, "cover-of-cover", c, c2)
        for c2 in covers:
            if c <= c2:
                assert c in cov_set(s[:c2], kind), (s, kind, "nesting", c, c2)

    # overlap: a common cover of a prefix and an overlapping suffix covers T
    for i in range(1, n + 1):
        suffix = s[i - 1 :]
        for j in range(i - 1, n + 1):
            for c in cov_set(s[:j], kind):
                if c in cov_set(suffix, kind) and equiv(s[:c], s[i - 1 : i - 1 + c], kind):
                    assert c in cov_set(s, kind), (s, kind, "overlap", i, j, c)

    # a proper cover is a border that covers some slightly shorter prefix
    for c in range(1, n):
        lhs = c in cov_set(s, kind)
        rhs = c in bord_set(s, kind) and any(
            c <= n - i and c in cov_set(s[: n - i], kind) for i in range(1, c + 1)
        )
        assert lhs == rhs, (s, kind, "reach-characterization", c)


def check_left_seed_lemmas(s, kind):
    """Left-seed structure of one string: primary range and the
    cover/left-seed composition across a prefix-suffix split."""
    from quasicover.oracle import brute_border_array

    n = len(s)
    border = brute_border_array(s, kind)
    seeds = lseed_set(s, kind)

    # every length in [n - Border[n], n] is a left seed
    if n >= 1:
        for j in range(n - border[n - 1], n + 1):
            assert j in seeds, (s, kind, "primary-left-seed", j)

    # covering T[:n-k] while left-seeding the length-l suffix (k <= l)
    # makes a left seed of T
    for l in range(0, n + 1):
        suffix = s[n - l :]
        for k in range(0, l + 1):
            for m in cov_set(s[: n - k], kind):
                if m <= l and m in lseed_set(suffix, kind) and equiv(
                    s[:m], s[n - l : n - l + m], kind
                ):
                    assert m in seeds, (s, kind, "cov-lseed-composition", k, l, m)


def check_arrays_match_oracle(s, kind):
    """Fast border/cover arrays equal the brute-force ones for one string."""
    from quasicover.border import border_array, border_array_generic
    from quasicover.covers import (
        longest_cover_array,
        longest_cover_array_li_smyth,
        shortest_cover_array,
    )
    from quasicover.oracle import brute_border_array, brute_lcover, brute_scover

    b = brute_border_array(s, kind)
    assert border_array(s, kind) == b, (s, kind, "border")
    assert border_array_generic(s, kind) == b, (s, kind, "border-generic")
    assert list(shortest_cover_array(b).scover) == brute_scover(s, kind), (s, kind, "scover")
    lca = longest_cover_array(b)
    assert list(lca.lcover) == brute_lcover(s, kind), (s, kind, "lcover")
    # whole objects: dead and the counters too
    assert longest_cover_array_li_smyth(b) == lca, (s, kind, "li-smyth")


def check_left_seeds_match_oracle(s, kind):
    from quasicover.border import border_array
    from quasicover.covers import left_seed_lengths, longest_cover_array
    from quasicover.oracle import brute_left_seeds

    b = border_array(s, kind)
    lca = longest_cover_array(b)
    n = len(s)
    assert left_seed_lengths(b, lca, n) == brute_left_seeds(s, kind, n), (s, kind, "lseeds")


def fibonacci(n):
    """The first n letters of the Fibonacci word over {0, 1}."""
    a, b = [0], [0, 1]
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def periodic_text(rng, n):
    """Quasi-periodic text of n tokens: overlapping copies of one bordered word.

    The word is u = v w v over four of the tokens 0..7, with |v| = 2, |w| = 3,
    v its only border and at least three distinct tokens. Copies follow the
    Fibonacci word: 0 appends a whole copy of u, 1 a copy that overlaps the
    last one by v. So u covers every prefix that ends at a copy, and borders
    are long and cover chains deep at every scale.
    """
    letters = rng.sample(range(8), 4)
    while True:
        v = rng.choices(letters, k=2)
        u = v + rng.choices(letters, k=3) + v
        borders = [b for b in range(1, len(u)) if u[:b] == u[len(u) - b:]]
        if borders == [len(v)] and len(set(u)) >= 3:
            break
    out = []
    for letter in fibonacci(n):
        if len(out) >= n:
            break
        out += u[len(v):] if letter else u
    return out[:n]


def left_seeds_by_walk(border, lcover, i):
    """The left seeds of T[:i] as the union of the cover-tree ancestor chains
    of [i - Border[i], i], ascending; reads neither dead nor any counter."""
    seeds = set()
    for k in range(i - border[i - 1], i + 1):
        while k > 0 and k not in seeds:
            seeds.add(k)
            k = lcover[k - 1]
    return sorted(seeds)


def z_array(text, clip=False):
    """Z[k] is the length of the longest common prefix of text and text[k:],
    and Z[0] = len(text) (Gusfield, Algorithms on Strings, Trees and
    Sequences, 1997). It shares no code with the failure function. With
    clip, text holds prev codes, and the code at k + m counts as 0 when it
    exceeds m: in the window from k it points before the window."""
    n = len(text)
    z = [0] * n
    if n:
        z[0] = n
    left = right = 0
    for k in range(1, n):
        if k < right:
            z[k] = min(right - k, z[k - left])
        m = z[k]
        while k + m < n and text[m] == (0 if clip and text[k + m] > m else text[k + m]):
            m += 1
        z[k] = m
        if k + m > right:
            left, right = k, k + m
    return z


def param_z_array(text):
    """Z[k] is the longest m with text[k:k+m] param-equivalent to text[:m].

    It is z_array over prev_encode(text), the code at k + m clipped to its
    window from k. The Z-box step stays valid, as it is for any substring
    consistent relation: inside a box, text[k:right] is equivalent to
    text[k-left:right-left]. borders_from_z and covers_from_z read it as
    they read the identity Z-array."""
    return z_array(prev_encode(text), clip=True)


def borders_from_z(z):
    """The identity border array: Border[i] = i - min{k >= 1 : k + Z[k] >= i},
    which is 0 when no k < i reaches i. Scanning k upwards, the first k that
    reaches i is that minimum."""
    border = [0] * len(z)
    done = 0
    for k in range(1, len(z)):
        for i in range(max(done, k) + 1, k + z[k] + 1):
            border[i - 1] = i - k
        done = max(done, k + z[k])
    return border


def covers_from_z(z, i):
    """All c with T[:c] covering T[:i], ascending, from the definition.

    T[:c] occurs inside T[:i] at each k <= i - c with Z[k] >= c, so start k
    joins once c <= min(Z[k], i - k). c is a cover when no two consecutive
    starts, with 0 first and i last, lie more than c apart. c runs down from
    i, the starts only join, and the widest gap only shrinks.
    """
    joins = defaultdict(list)
    for k in range(1, i):
        joins[min(z[k], i - k)].append(k)
    starts = [0, i]
    gaps = Counter({i: 1})
    widest = i
    covers = []
    for c in range(i, 0, -1):
        for k in joins[c]:
            j = bisect_left(starts, k)
            a, b = starts[j - 1], starts[j]
            gaps[b - a] -= 1
            gaps[k - a] += 1
            gaps[b - k] += 1
            starts.insert(j, k)
        while not gaps[widest]:
            widest -= 1
        if widest <= c:
            covers.append(c)
    covers.reverse()
    return covers


class SplitStream:
    """A binary input stream whose read1 returns the given pieces in turn.

    `reads` counts the read1 calls, so a test can tell how far a reader
    got before it yielded.
    """

    def __init__(self, pieces):
        self._pieces = iter(pieces)
        self.reads = 0

    def read1(self, size=-1):
        self.reads += 1
        piece = next(self._pieces, b"")
        assert size < 0 or len(piece) <= size
        return piece
