"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import json
import random
import sys
import time

import pytest

from conftest import (
    EXAMPLE_TEXT,
    KINDS,
    TABLE1_BORDER,
    TABLE1_LCOVER,
    TABLE1_SCOVER,
    TABLE2_BORDER,
    TABLE2_LCOVER,
    acceptance_universe,
    maximal_acceptance_strings,
)
from helpers import (
    check_arrays_match_oracle,
    check_cover_border_lemmas,
    check_left_seed_lemmas,
    check_left_seeds_match_oracle,
)
from quasicover.border import BorderBuilder, border_array
from quasicover.cli import main as cli_main
from quasicover.covers import (
    LongestCoverArray,
    ShortestCoverArray,
    left_seed_lengths,
    longest_cover_array,
    longest_cover_array_li_smyth,
    shortest_cover_array,
)
from quasicover.scer import ScerKind


def report(criterion, detail=""):
    print(f"PASS criterion {criterion}" + (f": {detail}" if detail else ""), file=sys.stderr)


def test_criterion_1_golden_identity_table():
    start = time.perf_counter()
    b = border_array(EXAMPLE_TEXT, ScerKind.IDENTITY)
    sc = shortest_cover_array(b)
    lc = longest_cover_array(b)
    elapsed = time.perf_counter() - start
    assert b == TABLE1_BORDER
    assert list(sc.scover) == TABLE1_SCOVER
    assert list(lc.lcover) == TABLE1_LCOVER
    assert elapsed < 0.010
    report(1, f"identity tables exact, {elapsed * 1000:.2f} ms")


def test_criterion_2_golden_parameterized_table():
    start = time.perf_counter()
    b = border_array(EXAMPLE_TEXT, ScerKind.PARAMETERIZED)
    sc = shortest_cover_array(b)
    lc = longest_cover_array(b)
    elapsed = time.perf_counter() - start
    assert b == TABLE2_BORDER
    assert list(sc.scover) == [1] * 16
    assert list(lc.lcover) == TABLE2_LCOVER
    assert elapsed < 0.010
    report(2, f"parameterized tables exact, {elapsed * 1000:.2f} ms")


def test_criterion_3_aab_trace():
    border = [0, 1, 0]
    snapshots = {}

    def grab(i, builder):
        snapshots[i] = list(builder.ls_children)

    lca = LongestCoverArray()
    for b in border:
        lca.push(b)
    assert list(lca.lcover) == [0, 1, 0]
    ls = longest_cover_array_li_smyth(border, after_increment=grab)
    assert snapshots[3] == [2, 1, 0, 0]
    assert list(ls.lcover) == [0, 1, 0]
    assert list(ls.dead) == [0, 3, 3, 0]
    report(3, "aab trace and dead array exact")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    checked = 0
    # the arrays are online, so the maximal strings cover every prefix
    for s in maximal_acceptance_strings():
        for kind in KINDS:
            check_arrays_match_oracle(s, kind)
            checked += 1
    for s in acceptance_universe():
        if not s:
            continue
        for kind in KINDS:
            check_left_seeds_match_oracle(s, kind)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    report(4, f"{checked} array triples + all left-seed sets, {elapsed:.1f} s")


def test_criterion_5_lemma_suite():
    start = time.perf_counter()
    for s in acceptance_universe():
        if not s:
            continue
        for kind in KINDS:
            check_cover_border_lemmas(s, kind)
            check_left_seed_lemmas(s, kind)
    report(5, f"lemmas hold with zero counterexamples, {time.perf_counter() - start:.1f} s")


def test_criterion_6_linearity_instrumentation():
    rng = random.Random(2024)
    ratios = {ScerKind.IDENTITY: [], ScerKind.PARAMETERIZED: []}
    for n in (10**3, 10**4, 10**5, 10**6):
        text = [rng.randrange(2) for _ in range(n)]
        for kind in (ScerKind.IDENTITY, ScerKind.PARAMETERIZED):
            bb = BorderBuilder(kind)
            sc = ShortestCoverArray()
            lc = LongestCoverArray()
            for t in text:
                b = bb.push(t)
                sc.push(b)
                lc.push(b)
            assert bb.link_follows <= 2 * n
            assert lc.while_successes <= n
            assert sc.op_count <= 2 * n
            assert lc.op_count <= 3 * n
            ratios[kind].append((sc.op_count + lc.op_count) / n)
    for kind, rs in ratios.items():
        assert max(rs) <= 1.2 * min(rs), (kind, rs)
    report(6, f"counts linear within 1.2x: {[round(r, 3) for r in ratios[ScerKind.IDENTITY]]}")


def test_criterion_7_order_iso_left_seed():
    t = (0, 3, 2, 1, 2)  # adcbc with a < b < c < d
    b = border_array(t, ScerKind.ORDER_ISO)
    lca = longest_cover_array(b)
    assert 3 in left_seed_lengths(b, lca, 5)
    report(7, "acb is a left seed of adcbc under order-isomorphism")


def test_criterion_8_online_consistency(capsys, tmp_path):
    rng = random.Random(77)
    for run in range(100):
        n = rng.randrange(1, 201)
        text = "".join(rng.choice("ab") for _ in range(n))
        path = tmp_path / f"t{run}.txt"
        path.write_text(text)
        scer = "identity" if run % 2 == 0 else "param"
        argv = ["--scer", scer, "--arrays", "border,scover,lcover", str(path), "--format", "json"]
        assert cli_main(argv) == 0
        batch = json.loads(capsys.readouterr().out)
        assert cli_main(argv + ["--stream"]) == 0
        rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(rows) == n
        for row in rows:
            i = row["i"]
            for name in ("border", "scover", "lcover"):
                assert row[name] == batch[name][i - 1]
    report(8, "100 random texts, streaming rows equal batch rows")
