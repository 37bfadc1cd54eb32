"""Command-line behavior: formats, flags, exit codes, streaming."""

import json
import os
import random
import selectors
import subprocess
import sys
import time
import tracemalloc
import types
from pathlib import Path

import pytest

import quasicover
from conftest import TABLE1_BORDER, TABLE1_LCOVER, TABLE1_SCOVER
from helpers import SplitStream, fibonacci
from quasicover.border import BorderBuilder, border_array
from quasicover.cli import ARRAY_NAMES, READ_SIZE, _run, main, read_chunks
from quasicover.covers import (
    all_cover_lengths,
    left_seed_lengths,
    longest_cover_array,
    shortest_cover_array,
)
from quasicover.scer import ScerKind, TokenSeq

EXAMPLE = "abaababaabaababa"
# int() refuses a digit string longer than this; 0 where it has no limit (before 3.11)
INT_MAX_STR_DIGITS = getattr(sys, "get_int_max_str_digits", lambda: 0)()
TOO_LONG = b"9" * (INT_MAX_STR_DIGITS + 1)
needs_digit_limit = pytest.mark.skipif(not INT_MAX_STR_DIGITS, reason="int() has no digit limit")


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "text.txt"
    path.write_text(EXAMPLE)
    return str(path)


def cli_env():
    """Environment for a CLI child, with stdout block-buffered as in normal use."""
    src = str(Path(quasicover.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONUNBUFFERED", None)
    return env


def read_lines(pipe, count, timeout):
    """The next `count` lines of `pipe`; fails if they take over `timeout` s."""
    deadline = time.monotonic() + timeout
    buf = b""
    with selectors.DefaultSelector() as sel:
        sel.register(pipe, selectors.EVENT_READ)
        while buf.count(b"\n") < count:
            left = deadline - time.monotonic()
            assert left > 0 and sel.select(left), f"timed out after {buf!r}"
            data = os.read(pipe.fileno(), 4096)
            assert data, f"end of output after {buf!r}"
            buf += data
    return buf.decode().splitlines()


def run_module(argv, stdin=b""):
    """`python -m quasicover.cli ARGV` in a child, run to its end."""
    return subprocess.run([sys.executable, "-m", "quasicover.cli", *argv], input=stdin,
                          capture_output=True, env=cli_env(), timeout=60)


def parse_tsv(out):
    rows = {}
    for line in out.splitlines():
        cells = line.split("\t")
        rows[cells[0]] = cells[1:]
    return rows


class TestBatchTsv:
    def test_paper_tables(self, capsys, example_file):
        code, out, _ = run_cli(
            capsys, ["--scer", "identity", "--arrays", "border,scover,lcover", example_file]
        )
        assert code == 0
        rows = parse_tsv(out)
        assert rows["i"] == [str(i) for i in range(1, 17)]
        assert [int(v) for v in rows["border"]] == TABLE1_BORDER
        assert [int(v) for v in rows["scover"]] == TABLE1_SCOVER
        assert [int(v) for v in rows["lcover"]] == TABLE1_LCOVER

    def test_parameterized_scover_all_ones(self, capsys, example_file):
        code, out, _ = run_cli(capsys, ["--scer", "param", "--arrays", "scover", example_file])
        assert code == 0
        assert [int(v) for v in parse_tsv(out)["scover"]] == [1] * 16

    def test_covers_and_lseeds_rows(self, capsys, example_file):
        code, out, _ = run_cli(capsys, ["--arrays", "covers,lseeds", example_file])
        assert code == 0
        rows = parse_tsv(out)
        assert [int(v) for v in rows["covers"]] == [3, 8, 16]
        assert 3 in [int(v) for v in rows["lseeds"]]

    @pytest.mark.parametrize("n", [0, 1, 377])
    @pytest.mark.parametrize("periodic", [False, True])
    def test_bytes_equal_per_value_str(self, capsysbinary, tmp_path, n, periodic):
        # each cell is looked up in a table of str(k); the bytes are str's
        rng = random.Random(n)
        text = (EXAMPLE * 30)[:n] if periodic else "".join(rng.choice("ab") for _ in range(n))
        path = tmp_path / "text.txt"
        path.write_text(text)
        assert main(["--arrays", ",".join(ARRAY_NAMES), str(path)]) == 0
        border = border_array(text.encode(), ScerKind.IDENTITY)
        lca = longest_cover_array(border)
        result = {"border": border, "scover": shortest_cover_array(border).scover,
                  "lcover": lca.lcover, "covers": all_cover_lengths(lca, n) if n else [],
                  "lseeds": left_seed_lengths(border, lca, n) if n else []}
        lines = ["\t".join(["i"] + [str(i) for i in range(1, n + 1)])]
        lines += ["\t".join([name] + [str(v) for v in result[name]]) for name in ARRAY_NAMES]
        assert capsysbinary.readouterr().out == ("\n".join(lines) + "\n").encode()


class TestJson:
    def test_json_matches_tsv(self, capsys, example_file):
        argv = ["--arrays", "border,scover,lcover,covers,lseeds", example_file]
        code, tsv_out, _ = run_cli(capsys, argv)
        assert code == 0
        code, json_out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == 0
        payload = json.loads(json_out)
        rows = parse_tsv(tsv_out)
        for name in ("border", "scover", "lcover", "covers", "lseeds"):
            assert payload[name] == [int(v) for v in rows[name]]
        assert payload["n"] == 16
        assert payload["scer"] == "identity"


class TestOracleFlag:
    @pytest.mark.parametrize("scer", ["identity", "param", "op"])
    def test_oracle_agrees_with_default(self, capsys, example_file, scer):
        argv = ["--scer", scer, "--arrays", "border,scover,lcover,covers,lseeds", example_file]
        code, fast, _ = run_cli(capsys, argv)
        assert code == 0
        code, brute, _ = run_cli(capsys, argv + ["--oracle"])
        assert code == 0
        assert fast == brute


class TestStartup:
    def test_import_leaves_out_oracle_and_json(self, example_file):
        # --oracle imports the oracle when it is asked for; the CLI never imports json
        check = "print(sorted({'json', 'quasicover.oracle'} & set(sys.modules)), file=sys.stderr)"
        code = (f"import sys, quasicover.cli\n{check}\n"
                "for extra in ([], ['--stream']):\n"
                f"    quasicover.cli.main([{example_file!r}, '--format', 'json', *extra])\n"
                f"{check}\n")
        proc = subprocess.run([sys.executable, "-c", code], env=cli_env(),
                              capture_output=True, text=True, check=True)
        assert proc.stderr == "[]\n[]\n"
        assert len(proc.stdout.splitlines()) == 1 + len(EXAMPLE)


class TestInputModes:
    def test_token_mode(self, capsys, tmp_path):
        path = tmp_path / "tokens.txt"
        path.write_text("0 3 2 1 2\n")
        code, out, _ = run_cli(
            capsys, ["--scer", "op", "--input-mode", "tokens", "--arrays", "lseeds", str(path)]
        )
        assert code == 0
        assert 3 in [int(v) for v in parse_tsv(out)["lseeds"]]

    def test_bad_tokens_exit_2(self, capsys, tmp_path):
        path = tmp_path / "tokens.txt"
        path.write_text("1 2 x\n")
        code, _, err = run_cli(capsys, ["--input-mode", "tokens", str(path)])
        assert code == 2
        assert err

    @pytest.mark.parametrize("oracle", [[], ["--oracle"]])
    @pytest.mark.parametrize("scer", ["identity", "param", "op"])
    def test_negative_token_exit_2(self, capsys, tmp_path, scer, oracle):
        path = tmp_path / "tokens.txt"
        path.write_text("1 -2 3\n")
        argv = ["--scer", scer, "--input-mode", "tokens", str(path)] + oracle
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert out == ""
        assert err == "error: bad token input: b'-2' is not ASCII digits\n"

    @pytest.mark.parametrize("stream", [[], ["--stream"]])
    @pytest.mark.parametrize("scer", ["identity", "param", "op"])
    def test_tokens_are_checked_once(self, capsys, tmp_path, monkeypatch, scer, stream):
        # read_chunks checks every token, so the border stage must not check again
        path = tmp_path / "tokens.txt"
        path.write_text(" ".join(str(1000 + t) for t in fibonacci(3000)))
        argv = ["--scer", scer, "--input-mode", "tokens", str(path), *stream]
        code, unpatched, _ = run_cli(capsys, argv)
        assert code == 0

        def second_check(tokens):
            raise AssertionError("a token chunk was checked again")

        monkeypatch.setattr("quasicover.border._checked", second_check)
        assert run_cli(capsys, argv) == (0, unpatched, "")

    def test_trailing_newline_stripped_in_byte_mode(self, capsys, tmp_path):
        path = tmp_path / "text.txt"
        path.write_bytes(EXAMPLE.encode() + b"\n")
        code, out, _ = run_cli(capsys, ["--arrays", "border", str(path)])
        assert code == 0
        assert [int(v) for v in parse_tsv(out)["border"]] == TABLE1_BORDER

    def test_empty_input(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        argv = ["--arrays", "border,scover,lcover,covers,lseeds", str(path)]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        rows = parse_tsv(out)
        assert rows["border"] == []
        assert rows["covers"] == []
        code, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == 0
        assert out == json.dumps({"n": 0, "scer": "identity", "border": [], "scover": [],
                                  "lcover": [], "covers": [], "lseeds": []}) + "\n"

    def test_missing_file_exit_1(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, [str(tmp_path / "nope.txt")])
        assert code == 1
        assert err


class TestBorderFile:
    def test_arrays_from_border_file(self, capsys, tmp_path):
        path = tmp_path / "border.txt"
        path.write_text("".join(f"{v}\n" for v in TABLE1_BORDER))
        code, out, _ = run_cli(
            capsys, ["--border-file", str(path), "--arrays", "scover,lcover"]
        )
        assert code == 0
        rows = parse_tsv(out)
        assert [int(v) for v in rows["scover"]] == TABLE1_SCOVER
        assert [int(v) for v in rows["lcover"]] == TABLE1_LCOVER

    @pytest.mark.parametrize("arrays", ["border", "scover", "lcover", "covers,lseeds"])
    # int() would read 0_1 and +1 as 1, and [0, 1] is a valid border array
    @pytest.mark.parametrize("content", ["0\n2\n", "0\n-1\n", "0\nx\n", "0\n0_1\n", "0\n+1\n"],
                             ids=["step", "negative", "not-int", "underscore", "plus"])
    def test_malformed_border_file_exit_2(self, capsys, tmp_path, content, arrays):
        # the scover stage checks a border file's values whatever is asked,
        # so --arrays border rejects what the cover arrays would
        path = tmp_path / "border.txt"
        path.write_text(content)
        code, out, err = run_cli(capsys, ["--border-file", str(path), "--arrays", arrays])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "border.txt"
        lines = list(map(str, TABLE1_BORDER))
        path.write_text("\n".join(["", *lines[:8], "", "  ", *lines[8:], "", ""]))
        proc = run_module(["--border-file", str(path), "--arrays", "scover,lcover"])
        assert proc.returncode == 0
        rows = parse_tsv(proc.stdout.decode())
        assert [int(v) for v in rows["scover"]] == TABLE1_SCOVER
        assert [int(v) for v in rows["lcover"]] == TABLE1_LCOVER

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    @pytest.mark.parametrize("scer", ["identity", "param", "op"])
    def test_output_equals_text_input(self, capsys, tmp_path, example_file, scer, fmt):
        path = tmp_path / "border.txt"
        path.write_text("".join(f"{v}\n" for v in border_array(EXAMPLE.encode(), scer)))
        argv = ["--scer", scer, "--format", fmt, "--arrays", ",".join(ARRAY_NAMES)]
        from_text = run_cli(capsys, argv + [example_file])
        assert from_text[0] == 0
        assert run_cli(capsys, argv + ["--border-file", str(path)]) == from_text

    def test_file_of_many_reads_equals_text_input(self, capsys, tmp_path):
        text = tmp_path / "text.txt"
        text.write_bytes(bytes(fibonacci(40_000)))
        path = tmp_path / "border.txt"
        path.write_text("".join(f"{v}\n" for v in border_array(text.read_bytes(), "identity")))
        # values are read 64 KiB at a time, and one split across two reads is carried
        assert path.stat().st_size > 3 * READ_SIZE
        argv = ["--arrays", ",".join(ARRAY_NAMES)]
        from_text = run_cli(capsys, argv + [str(text)])
        assert from_text[0] == 0
        assert run_cli(capsys, argv + ["--border-file", str(path)]) == from_text

    def test_missing_border_file_exit_1(self, tmp_path):
        proc = run_module(["--border-file", str(tmp_path / "nope.txt")])
        assert proc.returncode == 1
        assert proc.stdout == b""
        assert proc.stderr.startswith(b"error: [Errno 2] ")


class TestBadRequests:
    def test_unknown_array_exit_2(self, capsys, example_file):
        code, _, _ = run_cli(capsys, ["--arrays", "border,bogus", example_file])
        assert code == 2

    def test_empty_arrays_exit_2(self, capsys, example_file):
        code, _, _ = run_cli(capsys, ["--arrays", "", example_file])
        assert code == 2

    def test_input_with_border_file_exit_2(self, capsys, tmp_path):
        border = tmp_path / "b.txt"
        border.write_text("0\n1\n")
        code, out, err = run_cli(capsys, [str(tmp_path / "no-such-file"),
                                          "--border-file", str(border)])
        assert code == 2
        assert out == ""
        assert "--border-file" in err

    @pytest.mark.parametrize("flags", [["--stream", "--oracle"],
                                       ["--oracle", "--border-file", "B"],
                                       ["--stream", "--border-file", "B"]])
    def test_source_flags_exclude_each_other(self, tmp_path, flags):
        # B names a valid border file, so only the pairing is at fault
        border = tmp_path / "b.txt"
        border.write_text("0\n1\n")
        proc = run_module([str(border) if f == "B" else f for f in flags])
        assert proc.returncode == 2
        assert proc.stdout == b""


class TestStreaming:
    def stream_rows(self, capsys, argv):
        code, out, _ = run_cli(capsys, argv + ["--stream", "--format", "json"])
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        # each line is in json.dumps' default layout
        assert out.splitlines() == list(map(json.dumps, rows))
        return rows

    @pytest.mark.parametrize("scer", ["identity", "param", "op"])
    def test_stream_matches_batch_example(self, capsys, example_file, scer):
        argv = ["--scer", scer, "--arrays", "border,scover,lcover", example_file]
        code, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == 0
        batch = json.loads(out)
        b = border_array(EXAMPLE.encode(), scer)
        assert out == json.dumps({"n": 16, "scer": scer, "border": b,
                                  "scover": shortest_cover_array(b).scover,
                                  "lcover": longest_cover_array(b).lcover}) + "\n"
        rows = self.stream_rows(capsys, argv)
        for row in rows:
            i = row["i"]
            for name in ("border", "scover", "lcover"):
                assert row[name] == batch[name][i - 1]

    def test_stream_covers_and_lseeds_prefix_consistent(self, capsys, tmp_path):
        rng = random.Random(4)
        for scer in ("identity", "param", "op"):
            for alphabet in ("ab", "abc"):
                text = "".join(rng.choice(alphabet) for _ in range(60))
                path = tmp_path / "t.txt"
                path.write_text(text)
                argv = ["--scer", scer, "--arrays", "covers,lseeds"]
                rows = self.stream_rows(capsys, argv + [str(path)])
                assert len(rows) == len(text)
                # each streamed row equals a batch run over that prefix
                for i in range(1, len(text) + 1):
                    path.write_text(text[:i])
                    code, out, _ = run_cli(capsys, argv + [str(path), "--format", "json"])
                    assert code == 0
                    batch = json.loads(out)
                    assert rows[i - 1]["covers"] == batch["covers"], (scer, alphabet, i)
                    assert rows[i - 1]["lseeds"] == batch["lseeds"], (scer, alphabet, i)

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    @pytest.mark.parametrize("scer", ["identity", "param", "op"])
    @pytest.mark.parametrize("name", ARRAY_NAMES)
    def test_single_array_rows_equal_batch_per_prefix(self, capsys, tmp_path, name, scer, fmt):
        # a stage that no requested array needs is skipped in both modes
        def values(line):
            cells = line.split("\t")[1:]
            return [int(v) for c in cells for v in c.split(",")]

        text = EXAMPLE[:7] + "abcab" + EXAMPLE[7:]
        path = tmp_path / "t.txt"
        path.write_text(text)
        argv = ["--scer", scer, "--format", fmt, "--arrays", name]
        code, out, err = run_cli(capsys, argv + ["--stream", str(path)])
        assert (code, err) == (0, "")
        lines = out.splitlines()
        if fmt == "json":
            rows = [json.loads(line) for line in lines]
            assert all(list(row) == ["i", name] for row in rows)
            assert lines == list(map(json.dumps, rows))
            rows = [row[name] if isinstance(row[name], list) else [row[name]] for row in rows]
        else:
            assert lines[0] == f"i\t{name}"
            rows = [values(line) for line in lines[1:]]
        assert len(rows) == len(text)
        for i, row in enumerate(rows, start=1):
            path.write_text(text[:i])
            code, out, _ = run_cli(capsys, argv + [str(path)])
            assert code == 0
            batch = json.loads(out)[name] if fmt == "json" else values(out.splitlines()[1])
            if fmt == "json":
                assert out == json.dumps({"n": i, "scer": scer, name: batch}) + "\n"
            # a per-prefix array's row i is the last entry of the batch over T[:i]
            assert row == (batch if name in ("covers", "lseeds") else batch[-1:]), i

    def test_stream_order_iso_exit_0(self, capsys, example_file):
        code, out, err = run_cli(capsys, ["--scer", "op", example_file])
        assert code == 0
        batch = parse_tsv(out)
        code, out, err = run_cli(capsys, ["--scer", "op", "--stream", example_file])
        assert code == 0
        assert err == ""
        lines = out.splitlines()
        assert lines[0] == "i\tborder\tscover\tlcover"
        assert len(lines) == len(EXAMPLE) + 1
        for i, line in enumerate(lines[1:], start=1):
            assert line.split("\t") == [str(i)] + [batch[name][i - 1]
                                                   for name in ("border", "scover", "lcover")]

    def test_stream_tsv_row_shape(self, capsys, example_file):
        code, out, _ = run_cli(capsys, ["--arrays", "border,covers", example_file, "--stream"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "i\tborder\tcovers"
        assert lines[1] == "1\t0\t1"
        assert lines[-1].startswith("16\t8\t")

    def test_stream_json_keys_in_batch_order(self, capsys, example_file):
        argv = ["--arrays", "lcover,border", example_file]
        code, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == 0
        assert list(json.loads(out)) == ["n", "scer", "lcover", "border"]
        for row in self.stream_rows(capsys, argv):
            assert list(row) == ["i", "lcover", "border"]

    @pytest.mark.parametrize("fmt, stream", [("tsv", True), ("json", True),
                                             ("tsv", False), ("json", False)],
                             ids=["tsv", "json", "batch-tsv", "batch-json"])
    def test_stream_repeated_arrays(self, capsys, example_file, fmt, stream):
        argv = ["--stream"] * stream + ["--format", fmt, example_file, "--arrays"]
        code, once, _ = run_cli(capsys, argv + ["covers,border"])
        assert code == 0
        code, twice, _ = run_cli(capsys, argv + ["covers,border,covers"])
        assert code == 0
        if fmt == "json":
            assert twice == once  # a JSON row or object names each array once
        elif stream:
            rows = [line.split("\t") for line in once.splitlines()]
            assert [line.split("\t") for line in twice.splitlines()] == [r + r[1:2] for r in rows]
        else:
            rows = once.splitlines()
            assert twice.splitlines() == rows + rows[1:2]  # the covers row again

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    def test_list_cells_made_one_row_at_a_time(self, fmt):
        # lseeds rows grow with i, so a chunk's rows must not be held at once
        class Sink:
            def write(self, s):
                pass

            def writelines(self, lines):
                for _ in lines:
                    pass

            def flush(self):
                pass

        a, b = [0], [0, 1]
        while len(b) < 500:
            a, b = b, b + a
        tracemalloc.start()
        try:
            builder = BorderBuilder(ScerKind.IDENTITY)
            _run(iter([bytes(b[:500])]), builder, ["covers", "lseeds"], fmt, True, Sink())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 0.2 MiB one row at a time, 2 MiB with every row of the chunk held
        assert peak < 1 << 20

    def test_closed_stdout_exits_1_quietly(self, tmp_path):
        path = tmp_path / "big.txt"
        path.write_bytes(bytes(random.Random(5).choice(b"ab") for _ in range(100_000)))
        with path.open("rb") as stdin, (tmp_path / "err.txt").open("wb") as err:
            proc = subprocess.Popen([sys.executable, "-m", "quasicover.cli", "--stream", "-"],
                                    stdin=stdin, stdout=subprocess.PIPE, stderr=err,
                                    env=cli_env())
            assert proc.stdout.readline() == b"i\tborder\tscover\tlcover\n"
            assert proc.stdout.readline() == b"1\t0\t1\t0\n"
            proc.stdout.close()
            code = proc.wait(timeout=60)
        assert code == 1
        assert (tmp_path / "err.txt").read_bytes() == b""


class TestOnlineStream:
    def test_rows_written_while_stdin_is_open(self):
        proc = subprocess.Popen([sys.executable, "-m", "quasicover.cli", "--stream"],
                                stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, env=cli_env())
        try:
            proc.stdin.write(b"abab")
            proc.stdin.flush()
            assert read_lines(proc.stdout, 5, timeout=5) == [
                "i\tborder\tscover\tlcover",
                "1\t0\t1\t0",
                "2\t0\t2\t0",
                "3\t1\t3\t0",
                "4\t2\t2\t2",
            ]
            out, err = proc.communicate(b"ab", timeout=5)
        finally:
            proc.kill()
            proc.wait()
        assert out.decode().splitlines() == ["5\t3\t3\t3", "6\t4\t2\t4"]
        assert err == b""
        assert proc.returncode == 0

    def test_bad_token_ends_stream_after_earlier_rows(self, capsys, tmp_path):
        path = tmp_path / "tokens.txt"
        path.write_text("1 2 x 3\n")
        code, out, err = run_cli(capsys, ["--stream", "--input-mode", "tokens", str(path)])
        assert code == 2
        assert out.splitlines() == ["i\tborder\tscover\tlcover", "1\t0\t1\t0", "2\t0\t2\t0"]
        assert err.startswith("error: bad token input")

    def test_underscore_token_ends_stream_after_earlier_rows(self, capsys, tmp_path):
        # int() would read 1_0 as the token 10
        path = tmp_path / "tokens.txt"
        path.write_text("1 2 1_0")
        code, out, err = run_cli(capsys, ["--stream", "--input-mode", "tokens", str(path)])
        assert code == 2
        assert out.splitlines() == ["i\tborder\tscover\tlcover", "1\t0\t1\t0", "2\t0\t2\t0"]
        assert err == "error: bad token input: b'1_0' is not ASCII digits\n"

    @pytest.mark.parametrize("fmt", ["tsv", "json"])
    @pytest.mark.parametrize("scer", ["identity", "param", "op"])
    def test_negative_token_mid_chunk_after_earlier_rows(self, capsys, tmp_path, scer, fmt):
        # -3 comes in the same read as 1 2 and 4
        path = tmp_path / "tokens.txt"
        path.write_text("1 2 -3 4\n")
        argv = ["--scer", scer, "--input-mode", "tokens", "--format", fmt, str(path)]
        code, out, err = run_cli(capsys, argv + ["--stream"])
        assert code == 2
        assert err == "error: bad token input: b'-3' is not ASCII digits\n"
        path.write_text("1 2\n")
        assert run_cli(capsys, argv + ["--stream"]) == (0, out, "")
        assert len(out.splitlines()) == (3 if fmt == "tsv" else 2)

    @needs_digit_limit
    def test_over_long_token_ends_stream_after_earlier_rows(self, capsys, tmp_path):
        path = tmp_path / "tokens.txt"
        path.write_bytes(b"1 2 " + TOO_LONG + b" 3\n")
        code, out, err = run_cli(capsys, ["--stream", "--input-mode", "tokens", str(path)])
        assert code == 2
        assert out.splitlines() == ["i\tborder\tscover\tlcover", "1\t0\t1\t0", "2\t0\t2\t0"]
        assert err.startswith("error: bad token input: ")

    def test_read_error_exits_1(self, capsys, monkeypatch):
        class FailingStream:
            def read1(self, size):
                raise OSError(5, "Input/output error")

        monkeypatch.setattr(sys, "stdin", types.SimpleNamespace(buffer=FailingStream()))
        for argv in (["--stream"], []):
            code, _, err = run_cli(capsys, argv)
            assert code == 1
            assert err == "error: [Errno 5] Input/output error\n"


class TestReadChunks:
    def chunks(self, pieces, mode):
        return [list(chunk) for chunk in read_chunks(SplitStream(pieces), mode)]

    def test_token_split_across_chunks(self):
        assert self.chunks([b"1", b"2 3"], "tokens") == [[12], [3]]

    def test_token_chunk_boundaries(self):
        assert self.chunks([b"1 ", b"2\n", b" 3\t4"], "tokens") == [[1], [2], [3], [4]]
        assert self.chunks([b"", b"  "], "tokens") == []
        assert self.chunks([b"7"], "tokens") == [[7]]

    @pytest.mark.parametrize("pieces", [[b"1 2 x 3"], [b"1 2 x", b" 3"], [b"1 2 ", b"x"],
                                        # int() reads 1_0 as 10
                                        [b"1 2 1_0 3"], [b"1 2 1_", b"0 3"], [b"1 2 1_0 x"],
                                        [b"1 2 _"],
                                        # int() reads +2 as 2 and -0 as 0; U+0663 is an
                                        # Arabic-Indic digit, in UTF-8
                                        [b"1 2 +2"], [b"1 2 -0"], [b"1 2 0x10"],
                                        [b"1 2 " + "\u0663".encode()], [b"1 2 -", b"0 3"],
                                        pytest.param([b"1 2 " + TOO_LONG + b" 3"],
                                                     marks=needs_digit_limit)])
    def test_bad_token_after_good_ones(self, pieces):
        got = []
        with pytest.raises(ValueError, match="bad token input"):
            for chunk in read_chunks(SplitStream(pieces), "tokens"):
                got += chunk
        assert got == [1, 2]

    def test_token_chunks_are_token_seqs(self):
        chunks = list(read_chunks(SplitStream([b"1 2 ", b"3 4"]), "tokens"))
        assert chunks == [(1, 2), (3,), (4,)]
        assert all(type(chunk) is TokenSeq for chunk in chunks)

    def test_leading_zeros_and_mixed_whitespace(self):
        # the final 2 could go on in the next read, so it comes at EOF
        assert self.chunks([b"007\t1\r\n2"], "tokens") == [[7, 1], [2]]

    def test_chunk_final_newline_before_more_bytes_is_a_token(self):
        assert self.chunks([b"ab\n", b"c"], "bytes") == [list(b"ab"), list(b"\nc")]
        assert self.chunks([b"\n", b"\n"], "bytes") == [[10]]

    def test_chunk_final_newline_at_eof_is_dropped(self):
        assert self.chunks([b"ab", b"a\n"], "bytes") == [list(b"ab"), list(b"a")]
        assert self.chunks([b"\n"], "bytes") == []

    @pytest.mark.parametrize("mode, pieces", [("bytes", [b"ab", b"cd"]),
                                              ("tokens", [b"1 2 ", b"3"])])
    def test_each_chunk_is_yielded_before_the_next_read(self, mode, pieces):
        stream = SplitStream(pieces)
        chunks = read_chunks(stream, mode)
        next(chunks)
        assert stream.reads == 1
