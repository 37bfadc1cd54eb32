"""Output checks. Every check counts one attempted operation in a `Tally`."""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Sequence


@dataclass
class Tally:
    """Checked operations: wrong program output or a failed CLI run."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class RelationOutput:
    """What the library returns for one relation; compared and digested as a whole."""

    border: list[int]
    sca: object  # ShortestCoverArray
    lca: object  # LongestCoverArray
    covers: list[list[int]]  # all_cover_lengths at each query position
    lseeds: list[list[int]]  # left_seed_lengths at each query position

    def as_json(self) -> list:
        return [self.border, list(self.sca.scover), list(self.lca.lcover), self.covers, self.lseeds]


def digest(outputs: dict[str, RelationOutput]) -> str:
    blob = json.dumps({name: out.as_json() for name, out in sorted(outputs.items())},
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def border_chain(border: Sequence[int], i: int) -> set[int]:
    """i, Border[i], Border[Border[i]], ..., 0."""
    chain = {i}
    while i > 0:
        i = border[i - 1]
        chain.add(i)
    return chain


def check_oracles(tally: Tally, qc, oracle, kind, text: Sequence[int], positions: Sequence[int]) -> None:
    """Fast paths against the brute-force oracles on a short text."""
    name = kind.value
    border = qc.border_array(text, kind)
    tally.check(border == oracle.brute_border_array(text, kind), f"oracle border {name}")
    tally.check(qc.border_array_generic(text, kind) == border, f"oracle border_generic {name}")
    tally.check(list(qc.shortest_cover_array(border).scover) == oracle.brute_scover(text, kind),
                f"oracle scover {name}")
    lca = qc.longest_cover_array(border)
    tally.check(list(lca.lcover) == oracle.brute_lcover(text, kind), f"oracle lcover {name}")
    for i in positions:
        tally.check(qc.all_cover_lengths(lca, i) == sorted(oracle.brute_cover_set(text[:i], kind)),
                    f"oracle all_cover_lengths {name} i={i}")
        tally.check(qc.left_seed_lengths(border, lca, i) == oracle.brute_left_seeds(text, kind, i),
                    f"oracle left_seed_lengths {name} i={i}")


def check_invariants(tally: Tally, qc, kind, out: RelationOutput, positions: Sequence[int]) -> None:
    """Properties that must hold at sizes where the oracles are too slow."""
    name = kind.value
    try:
        qc.validate_border_array(out.border)
        valid = True
    except ValueError:
        valid = False
    tally.check(valid, f"validate_border_array {name}")
    li_smyth = qc.longest_cover_array_li_smyth(out.border)
    tally.check(li_smyth.lcover == out.lca.lcover, f"lcover == li_smyth {name}")
    n = len(out.border)
    tally.check(set(qc.all_cover_lengths(out.lca, n)) <= border_chain(out.border, n),
                f"covers(n) within border chain {name}")
    bad = [i for i, covers in zip(positions, out.covers)
           if not set(covers) <= border_chain(out.border, i)]
    tally.check(not bad, f"covers(i) within border chain {name} at i={bad[:3]}")


def check_relation_order(tally: Tally, outputs: dict[str, RelationOutput]) -> None:
    """B_identity <= B_param everywhere and B_identity <= B_op on the op prefix."""
    ident = outputs["identity"].border
    for other in ("param", "op"):
        b = outputs[other].border
        tally.check(len(b) <= len(ident) and all(x <= y for x, y in zip(ident, b)),
                    f"B_identity <= B_{other}")


def check_digest(tally: Tally, expected: str | None, outputs: dict[str, RelationOutput]) -> str:
    got = digest(outputs)
    tally.check(got == expected, f"digest {got} != committed {expected}")
    return got


def expected_batch_rows(qc, out: RelationOutput, n: int) -> list[bytes]:
    """The CLI's batch TSV for --arrays border,scover,lcover,covers,lseeds on T[:n].

    All three arrays are online, so the full-text arrays cut at n serve T[:n].
    """
    rows = [
        ["i"] + list(range(1, n + 1)),
        ["border"] + out.border[:n],
        ["scover"] + list(out.sca.scover[:n]),
        ["lcover"] + list(out.lca.lcover[:n]),
        ["covers"] + qc.all_cover_lengths(out.lca, n),
        ["lseeds"] + qc.left_seed_lengths(out.border, out.lca, n),
    ]
    return ["\t".join(map(str, row)).encode() for row in rows]


def check_batch(tally: Tally, run, expected_rows: list[bytes]) -> None:
    tally.check(run.returncode == 0, f"cli batch exit {run.returncode}: {run.stderr[-200:]!r}")
    got = run.stdout.split(b"\n")
    if got and got[-1] == b"":
        got.pop()
    tally.check(len(got) == len(expected_rows),
                f"cli batch has {len(got)} rows, want {len(expected_rows)}")
    for row_got, row_want in zip(got, expected_rows):
        tally.check(row_got == row_want, f"cli batch row {row_want[:12]!r} differs")


def expected_stream_rows(qc, out: RelationOutput, n: int) -> list[bytes]:
    """Rows of --stream --arrays border,scover,lcover,covers for i = 1..n."""
    border, scover, lcover = out.border, out.sca.scover, out.lca.lcover
    rows = [b"i\tborder\tscover\tlcover\tcovers"]
    for i in range(1, n + 1):
        covers = ",".join(map(str, qc.all_cover_lengths(out.lca, i)))
        rows.append(f"{i}\t{border[i - 1]}\t{scover[i - 1]}\t{lcover[i - 1]}\t{covers}".encode())
    return rows


def check_stream(tally: Tally, run, expected_rows: list[bytes]) -> None:
    tally.check(run.returncode == 0, f"cli stream exit {run.returncode}: {run.stderr[-200:]!r}")
    got = run.stdout.split(b"\n")
    if got and got[-1] == b"":
        got.pop()
    mismatched = sum(1 for g, w in zip(got, expected_rows) if g != w)
    tally.check(mismatched == 0 and len(got) == len(expected_rows),
                f"cli stream: {mismatched} rows differ, {len(got)} of {len(expected_rows)} rows")
