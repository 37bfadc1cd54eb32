"""Command-line front end.

Reads a byte text, or a token text or border array (--border-file) of
non-negative integers written as ASCII digits, picks an equivalence
relation, and emits any subset of {border, scover, lcover, covers, lseeds}
as TSV or JSON. Every mode but --oracle runs one stage loop: each decoded
chunk goes through one extend() of the border stage and of each cover
array the requested arrays need. Batch writes the arrays after the last
chunk. With --stream, one row per prefix is emitted for any of the three
relations, as the input arrives: a chunk's rows are one template pass,
written and flushed before the next read waits. A JSON line is in
json.dumps' default layout; a TSV list cell is comma-joined. A bad token
ends the stream with exit code 2, after the rows for the tokens before it.

Exit codes: 0 success, 1 I/O error, 2 malformed input or bad request.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from typing import BinaryIO, Iterable, Iterator, Sequence

from . import border as border_mod
from . import covers as covers_mod
from .scer import ScerKind, TokenSeq

ARRAY_NAMES = ("border", "scover", "lcover", "covers", "lseeds")
READ_SIZE = 1 << 16


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="quasicover",
        description="Quasiperiodicity arrays (border, shortest/longest cover, covers, left seeds) "
        "of a text under identity, parameterized, or order-isomorphic equivalence.",
    )
    p.add_argument("input", nargs="?", default="-", help="input file, or - for stdin (default)")
    p.add_argument("--scer", choices=[k.value for k in ScerKind], default="identity",
                   help="equivalence relation (default: identity)")
    p.add_argument("--arrays", default="border,scover,lcover",
                   help="comma-separated subset of " + ",".join(ARRAY_NAMES) + "; covers and "
                   "lseeds are of the whole text, or of each row's prefix with --stream, where "
                   "row i's covers is i plus the covers of row lcover[i-1]")
    p.add_argument("--format", choices=["tsv", "json"], default="tsv")
    p.add_argument("--input-mode", choices=["bytes", "tokens"], default="bytes",
                   help="bytes: each byte is a token; tokens: whitespace-separated "
                   "non-negative integers written as ASCII digits")
    # each picks its own way to get the arrays in main, so at most one is given
    g = p.add_mutually_exclusive_group()
    g.add_argument("--border-file", default=None,
                   help="a border array to use instead of the text, in --input-mode tokens format")
    g.add_argument("--oracle", action="store_true",
                   help="compute everything with the brute-force reference implementations")
    g.add_argument("--stream", action="store_true",
                   help="emit one row per prefix, as the input arrives")
    return p


def read_chunks(stream: BinaryIO, mode: str) -> Iterator[Sequence[int]]:
    """Yield the input as chunks of tokens, each as soon as its bytes are read.

    read1 returns whatever bytes are already there and blocks only when
    there are none, so a chunk never waits for later input. In bytes mode a
    chunk is the bytes object itself; only a chunk-final newline is held
    back, because at EOF it is the dropped trailing newline. In tokens mode a
    token is a non-negative integer written as ASCII digits, a chunk is a
    TokenSeq, and a trailing partial token is carried into the next chunk.
    BorderBuilder.extend checks neither kind of chunk again. Any other
    token, or one too long for int(), is bad: the tokens before it are
    yielded first, then ValueError is raised.
    """
    if mode == "bytes":
        held = b""
        while data := stream.read1(READ_SIZE):
            data = held + data
            if data.endswith(b"\n"):
                held, data = b"\n", data[:-1]
            else:
                held = b""
            if data:
                yield data
        return
    carry = b""
    while True:
        data = stream.read1(READ_SIZE)
        parts = (carry + data).split()
        carry = parts.pop() if data and not data[-1:].isspace() else b""
        error = None
        if not all(map(bytes.isdigit, parts)):
            k = next(k for k, tok in enumerate(parts) if not tok.isdigit())
            parts, error = parts[:k], f"{parts[k]!r} is not ASCII digits"
        tokens: list[int] = []
        try:
            tokens += map(int, parts)
        except ValueError as e:  # more digits than int() takes; the tokens before stay
            error = e
        if tokens:
            # isdigit checked every token, so the TokenSeq is built as
            # TokenSeq.from_bytes builds one, without a second check
            yield tuple.__new__(TokenSeq, tokens)
        if error is not None:
            raise ValueError(f"bad token input: {error}")
        if not data:
            return


def _compute_oracle(chunks: Iterator[Sequence[int]], kind: ScerKind,
                    arrays: list[str]) -> tuple[int, dict[str, list[int]]]:
    """n and each requested array once, in request order, from the brute-force oracles."""
    from . import oracle as oracle_mod

    text = tuple(t for chunk in chunks for t in chunk)
    n = len(text)
    brute = {"border": lambda: oracle_mod.brute_border_array(text, kind),
             "scover": lambda: oracle_mod.brute_scover(text, kind),
             "lcover": lambda: oracle_mod.brute_lcover(text, kind),
             "covers": lambda: sorted(oracle_mod.brute_cover_set(text, kind)) if n else [],
             "lseeds": lambda: oracle_mod.brute_left_seeds(text, kind, n) if n else []}
    return n, {name: brute[name]() for name in dict.fromkeys(arrays)}


def _json_row(head: str, names: Iterable[str]) -> str:
    # str() of an int or of a list of ints is its json.dumps, so %s keeps that layout
    return "{" + ", ".join([head, *(f'"{name}": %s' for name in names)]) + "}\n"


def _emit_batch(n: int, result: dict[str, list[int]], arrays: list[str], fmt: str,
                scer: str, out) -> None:
    if fmt == "json":
        out.write(_json_row(f'"n": %s, "scer": "{scer}"', result) % (n, *result.values()))
        return
    # every value is in 0..n, so each cell is looked up, not formatted again
    table = list(map(str, range(n + 1)))
    out.write("\t".join(["i", *table[1:]]) + "\n")
    for name in arrays:
        out.write("\t".join([name, *map(table.__getitem__, result[name])]) + "\n")


def _run(chunks: Iterable[Sequence[int]], builder: border_mod.BorderBuilder | None,
         arrays: list[str], fmt: str, stream: bool, out) -> tuple[int, dict[str, list[int]]] | None:
    """The stages of every mode but --oracle.

    Per chunk: one extend of the border stage (builder.extend, or list.extend
    when builder is None and the chunks are border values), then one extend
    of each cover array that `arrays` needs; with no builder, scover always
    runs, as its extend checks the values. Every token is checked once, by
    read_chunks: a chunk is bytes or a TokenSeq, which builder.extend takes
    as it is, so the border stage never stops mid-chunk.
    --stream then writes and flushes the chunk's rows, one pass of a row
    template over (i, *cells): a JSON line is in json.dumps' default layout,
    a TSV list cell is comma-joined. Batch gets n and the requested arrays
    back, each once in request order, to write once the stages are freed.
    """
    border: list[int] = [] if builder is None else builder.values
    extend_border = border.extend if builder is None else builder.extend
    sc, lc = covers_mod.ShortestCoverArray(), covers_mod.LongestCoverArray()
    # a stage that no requested array needs is skipped
    checked = {"scover"} if builder is not None else set(ARRAY_NAMES)
    stages = [stage.extend for stage, needs in ((sc, checked),
                                                (lc, {"lcover", "covers", "lseeds"}))
              if needs.intersection(arrays)]
    # the per-prefix arrays, and the queries answered for one prefix length i
    columns = {"border": border, "scover": sc.scover, "lcover": lc.lcover}
    queries = {"covers": lambda i: covers_mod.all_cover_lengths(lc, i),
               "lseeds": lambda i: covers_mod.left_seed_lengths(border, lc, i)}
    names = list(dict.fromkeys(arrays))
    if fmt == "json":  # a row names each array once
        cols, row, list_cell = names, _json_row('"i": %s', names), str
    else:  # a row repeats a repeated array
        cols, row = arrays, "%s" + "\t%s" * len(arrays) + "\n"
        list_cell = lambda v: ",".join(map(str, v))  # noqa: E731
        if stream:
            out.write(row % ("i", *arrays))
    for chunk in chunks:
        i0 = len(border)
        extend_border(chunk)
        new = border[i0:]
        for extend in stages:
            extend(new)
        if stream:
            rows = range(i0 + 1, len(border) + 1)
            cells = [columns[name][i0:] if name in columns else
                     map(list_cell, map(queries[name], rows)) for name in cols]
            # lazy, so that a list cell is made only as its row is written
            out.writelines(map(row.__mod__, zip(rows, *cells)))
            # Every row for the bytes read so far is out before the next read waits.
            out.flush()
    n = len(border)
    return None if stream else (n, {name: columns[name] if name in columns else
                                    queries[name](n) if n else [] for name in names})


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    arrays = [a.strip() for a in args.arrays.split(",") if a.strip()]
    if not arrays or any(a not in ARRAY_NAMES for a in arrays):
        print(f"error: --arrays must be a non-empty subset of {','.join(ARRAY_NAMES)}",
              file=sys.stderr)
        return 2
    kind = ScerKind(args.scer)  # argparse choices admit only the values

    border_file = args.border_file is not None
    if border_file and args.input != "-":
        print("error: --border-file replaces INPUT; drop one of them", file=sys.stderr)
        return 2

    try:
        # INPUT "-" is stdin, which leaving the block leaves open; a border file is never stdin
        path = args.border_file if border_file else args.input
        with (contextlib.nullcontext(sys.stdin.buffer) if path == "-" and not border_file
              else open(path, "rb")) as stream:
            chunks = read_chunks(stream, "tokens" if border_file else args.input_mode)
            if args.oracle:
                batch = _compute_oracle(chunks, kind, arrays)
            else:
                # read_chunks checked every token; scover checks a border file's values
                builder = None if border_file else border_mod.BorderBuilder(kind)
                batch = _run(chunks, builder, arrays, args.format, args.stream, sys.stdout)
        if batch is not None:
            _emit_batch(*batch, arrays, args.format, kind.value, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout; point it at devnull so that the
        # interpreter's final flush of the buffered rest stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
