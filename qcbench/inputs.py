"""Seeded benchmark texts.

Every generator takes its own `random.Random` so that a workload name and a
seed fix the text exactly, whatever else the process has drawn.
"""

from __future__ import annotations

import random


def random_text(rng: random.Random, n: int) -> bytes:
    """Uniform text over four symbols: short borders, flat cover trees."""
    return bytes(rng.choices(b"acgt", k=n))


def fibonacci_word(n: int) -> str:
    """The first n letters of the Fibonacci word abaababaab..."""
    a, b = "a", "ab"
    while len(b) < n:
        a, b = b, b + a
    return b[:n]


def longest_border(word: bytes) -> int:
    return max(b for b in range(len(word)) if word[:b] == word[len(word) - b:])


def periodic_text(rng: random.Random, n: int) -> bytes:
    """Quasi-periodic text: overlapping copies of one seeded bordered word.

    The word is u = v w v with |v| = 2 and |w| = 3, drawn until v is its only
    border, so that texts of different seeds share one structure and cost the
    same to process. Copies are placed in the order of the Fibonacci word: `a`
    appends a whole copy, `b` appends a copy that overlaps the previous one by
    v. So u covers every prefix that ends at a copy, and the Fibonacci order
    gives long borders and deep cover chains at every scale.
    """
    letters = rng.sample(b"abcdefgh", 4)
    while True:
        v = bytes(rng.choices(letters, k=2))
        u = v + bytes(rng.choices(letters, k=3)) + v
        if longest_border(u) == len(v) and len(set(u)) >= 3:
            break
    whole, overlapping = u, u[len(v):]
    out = bytearray()
    for letter in fibonacci_word(n):
        out += whole if letter == "a" else overlapping
        if len(out) >= n:
            break
    return bytes(out[:n])
