"""Brute-force reference implementations, straight from the definitions.

These are deliberately naive and serve as ground truth for the array
algorithms; the only concession to speed is that the per-prefix array
oracles compute each cover prefix's occurrence list once instead of
rescanning per prefix.
"""

from __future__ import annotations

from typing import Sequence

from .scer import ScerKind, equiv


def occurrences(pattern: Sequence[int], text: Sequence[int], kind: ScerKind) -> list[int]:
    """All 1-based start positions where `pattern` matches a window of `text`."""
    m, n = len(pattern), len(text)
    if m == 0:
        raise ValueError("empty pattern")
    return [p for p in range(1, n - m + 2) if equiv(pattern, text[p - 1 : p - 1 + m], kind)]


def _gap_covers(positions: Sequence[int], c: int, n: int) -> bool:
    # positions: ascending occurrence starts of a length-c prefix within T[:n]
    if not positions or positions[0] != 1 or positions[-1] != n - c + 1:
        return False
    return all(b - a <= c for a, b in zip(positions, positions[1:]))


def is_cover(c: int, text: Sequence[int], kind: ScerKind) -> bool:
    """True iff the length-c prefix covers `text`: occurrences start at 1,
    end at n-c+1, and no gap between consecutive starts exceeds c."""
    n = len(text)
    if not (1 <= c <= n):
        raise IndexError(f"cover length {c} out of range for length {n}")
    return _gap_covers(occurrences(text[:c], text, kind), c, n)


def _occurrence_table(t: Sequence[int], kind: ScerKind) -> list[list[int]]:
    # occ[c] = occurrence positions of T[:c] in T, for 1 <= c <= n (occ[0] unused)
    n = len(t)
    return [[]] + [occurrences(t[:c], t, kind) for c in range(1, n + 1)]


def _covers_prefix(occ: list[list[int]], c: int, i: int) -> bool:
    limit = i - c + 1
    inside = [p for p in occ[c] if p <= limit]
    return _gap_covers(inside, c, i)


def brute_border_array(text: Sequence[int], kind: ScerKind) -> list[int]:
    """Border array by maximizing over all candidate lengths per prefix."""
    t = tuple(text)
    out = []
    for i in range(1, len(t) + 1):
        b = max((c for c in range(1, i) if equiv(t[:c], t[i - c : i], kind)), default=0)
        out.append(b)
    return out


def brute_scover(text: Sequence[int], kind: ScerKind) -> list[int]:
    """Shortest cover length of each prefix, by scanning candidates upward."""
    t = tuple(text)
    occ = _occurrence_table(t, kind)
    out = []
    for i in range(1, len(t) + 1):
        out.append(next(c for c in range(1, i + 1) if _covers_prefix(occ, c, i)))
    return out


def brute_lcover(text: Sequence[int], kind: ScerKind) -> list[int]:
    """Longest proper cover length of each prefix (0 if primitive)."""
    t = tuple(text)
    occ = _occurrence_table(t, kind)
    out = []
    for i in range(1, len(t) + 1):
        out.append(next((c for c in range(i - 1, 0, -1) if _covers_prefix(occ, c, i)), 0))
    return out


def brute_left_seeds(text: Sequence[int], kind: ScerKind, i: int) -> list[int]:
    """All m such that T[:m] is a left seed of T[:i].

    T[:m] qualifies if for some 0 <= k <= l < m it covers T[:i-k] while
    T[:l] matches the length-l suffix of T[:i].
    """
    t = tuple(text)
    if not (1 <= i <= len(t)):
        raise IndexError(f"position {i} out of range for length {len(t)}")
    prefix = t[:i]
    occ = _occurrence_table(prefix, kind)
    border_ok = [True] + [equiv(t[:l], t[i - l : i], kind) for l in range(1, i + 1)]
    seeds = []
    for m in range(1, i + 1):
        for k in range(0, min(m, i - m + 1)):
            if _covers_prefix(occ, m, i - k) and any(border_ok[l] for l in range(k, m)):
                seeds.append(m)
                break
    return seeds


def brute_cover_set(text: Sequence[int], kind: ScerKind) -> set[int]:
    """All lengths c whose prefix covers the whole of `text`."""
    t = tuple(text)
    occ = _occurrence_table(t, kind)
    n = len(t)
    return {c for c in range(1, n + 1) if _covers_prefix(occ, c, n)}


def brute_border_set(text: Sequence[int], kind: ScerKind) -> set[int]:
    """All lengths b (including 0 and n) whose prefix is a border of `text`."""
    t = tuple(text)
    n = len(t)
    return {0, n} | {b for b in range(1, n) if equiv(t[:b], t[n - b :], kind)}


__all__ = [
    "occurrences",
    "is_cover",
    "brute_border_array",
    "brute_scover",
    "brute_lcover",
    "brute_left_seeds",
    "brute_cover_set",
    "brute_border_set",
]
