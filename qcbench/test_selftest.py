"""Self-test of the benchmark: its checks must be able to fail.

    python3 -m pytest -q qcbench

Each fault is injected into the real run path on a tiny workload, and the run
must count at least one failed operation (failed_frac > 0).
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess

import pytest

import run
from checks import digest
from inputs import periodic_text

TINY = run.Workload(periodic_text, n=3_000, n_op=200, queries=4, n_batch=3_000, n_stream=1_100)


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    """A Run on a tiny quasi-periodic workload whose digest is the current output."""
    monkeypatch.setitem(run.WORKLOADS, "tiny", TINY)
    inp = run.setup("tiny", 0, tmp_path)
    expected = digest(run.reference_outputs(inp, "tiny", inp.data, inp.positions))
    monkeypatch.setattr(run, "committed_digest", lambda name, seed: expected)
    return run.Run("tiny", 0, False, tmp_path)


def test_clean_run_has_no_failures(tiny):
    tiny.prepare()
    rec = tiny.round(False, 0)
    assert tiny.tally.failures == []
    assert tiny.tally.attempted > 0
    assert "p99_ms" in rec


def test_corrupted_lcover_fails(tiny, monkeypatch):
    real_setup = run.setup

    def setup(*args):
        inp = real_setup(*args)
        real = inp.qc.longest_cover_array

        def corrupted(border, *a, **kw):
            lca = real(border, *a, **kw)
            lcover = list(lca.lcover)
            lcover[len(lcover) // 2] += 1
            return dataclasses.replace(lca, lcover=tuple(lcover))

        monkeypatch.setattr(inp.qc, "longest_cover_array", corrupted)
        return inp

    monkeypatch.setattr(run, "setup", setup)
    tiny.prepare()
    tiny.round(False, 0)
    assert tiny.tally.failed_frac > 0
    assert any("li_smyth" in f for f in tiny.tally.failures)
    assert any(f.startswith("cli batch row") for f in tiny.tally.failures)


def test_dropped_stream_row_fails(tiny, monkeypatch):
    real_run_child = run.run_child

    def run_child(cmd, *args, **kwargs):
        result = real_run_child(cmd, *args, **kwargs)
        if "--stream" in cmd:
            lines = result.stdout.split(b"\n")
            del lines[len(lines) // 2]
            result = dataclasses.replace(result, stdout=b"\n".join(lines))
        return result

    monkeypatch.setattr(run, "run_child", run_child)
    tiny.prepare()
    tiny.round(False, 0)
    assert tiny.tally.failed_frac > 0
    assert [f for f in tiny.tally.failures if f.startswith("cli stream")]


def test_wrong_digest_fails(tiny, monkeypatch):
    monkeypatch.setattr(run, "committed_digest", lambda name, seed: "0" * 64)
    tiny.prepare()
    assert tiny.tally.failed_frac > 0
    assert tiny.tally.failures[0].startswith("digest")


def test_cli_nonzero_exit_fails(tiny, monkeypatch):
    monkeypatch.setattr(run, "BATCH_ARRAYS", "border,nonsense")
    tiny.prepare()
    tiny.round(False, 0)
    assert tiny.tally.failed_frac > 0
    assert any(f.startswith("cli batch exit 2") for f in tiny.tally.failures)


def test_committed_digest_matches_seed_zero(tmp_path):
    inp = run.setup("random", 0, tmp_path)
    got = digest(run.reference_outputs(inp, "random", inp.data, inp.positions))
    assert got == run.committed_digest("random", 0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = json.loads((tmp_path / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", "random", "--seed", "1",
                                             "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert not (tmp_path / "src").exists()
