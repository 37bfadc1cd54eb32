"""The README's library and CLI examples, run as written."""

import ast
import re
import shlex
from pathlib import Path

from quasicover import TokenSeq, all_cover_lengths
from test_cli import run_module

README = Path(__file__).resolve().parents[1] / "README.md"


def fenced(lang):
    """The bodies of the README's ```lang blocks, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), re.M | re.S)


def test_library_example():
    (block,) = fenced("python")
    ns = {}
    exec(block, ns)
    assert type(ns["t"]) is TokenSeq and ns["t"] == tuple(map(ord, "abaababaabaababa"))
    assert all_cover_lengths(ns["lca"], 16) == [3, 8, 16]
    # each "# [...]" comment shows the value of its line, or a prefix of it with ", ...]"
    shown = 0
    for line in block.splitlines():
        code, _, comment = line.partition("#")
        if not comment.strip().startswith("["):
            continue
        target, eq, expr = code.partition(" = ")
        value = ns[target.strip()] if eq else eval(code, ns)
        listed = comment.strip()
        if listed.endswith(", ...]"):
            prefix = ast.literal_eval(listed[:-len(", ...]")] + "]")
            assert value[:len(prefix)] == prefix, line
        else:
            assert value == ast.literal_eval(listed), line
        shown += 1
    assert shown == 3


def test_cli_example_bytes():
    block = next(b for b in fenced("sh") if b.startswith("$ printf"))
    command, *table = block.splitlines(keepends=True)
    words = shlex.split(command[2:])
    bar = words.index("|")
    assert words[0] == "printf" and words[bar + 1] == "quasicover"
    proc = run_module(words[bar + 2:], stdin=words[1].encode())
    assert proc.returncode == 0
    assert proc.stdout == "".join(table).encode()
