"""quasicover benchmark: library arrays and queries per relation, and the CLI.

Run from the root of a checkout:

    python3 qcbench/run.py --workload random --seed 1 --seconds 40 --trace 0

One run sets up its inputs several times (import, seeded text, temp files),
computes the reference outputs once and checks them (oracles on a short
prefix, invariants at full size, the committed digest), then repeats rounds
for `--seconds` seconds. A round runs the library pipeline for each relation
(bytes -> TokenSeq -> border_array -> shortest_cover_array ->
longest_cover_array), the cover and left-seed queries, and two CLI children:
one batch run and one open-loop stream run. Every round's output is checked
against the reference.

With --trace 0 the last line of stdout holds the end-to-end metrics, taken
over the rounds. With --trace 1 every second round is traced: spans around
each call into the library and each CLI child (plus one CLI run on empty input,
for start-up time) are kept in memory, written to .qcbench/ when the run ends,
and the per-layer metrics are derived from them.
Load is this one thread plus at most one CLI child.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from checks import (  # noqa: E402
    RelationOutput, Tally, check_batch, check_digest, check_invariants, check_oracles,
    check_relation_order, check_stream, expected_batch_rows, expected_stream_rows,
)
from child import STREAM_RATE, cli_command, run_child  # noqa: E402
from inputs import periodic_text, random_text  # noqa: E402

clock = time.perf_counter

RELATIONS = ("identity", "param", "op")


@dataclass(frozen=True)
class Workload:
    text: Callable[[random.Random, int], bytes]
    n: int  # library text length for identity and param
    n_op: int  # op runs on this prefix: its border array is quadratic today
    queries: int  # query positions per relation
    n_batch: int  # CLI batch input is this prefix
    n_stream: int  # CLI stream input is this prefix


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "random": Workload(random_text, n=20_000, n_op=5_000, queries=500,
                       n_batch=20_000, n_stream=4_000),
    "periodic": Workload(periodic_text, n=20_000, n_op=1_000, queries=32,
                         n_batch=20_000, n_stream=4_000),
    "cli": Workload(periodic_text, n=50_000, n_op=1_000, queries=32,
                    n_batch=50_000, n_stream=4_000),
}
FEEDER_LATE_LIMIT_MS = 50.0  # a stream whose feeder ran later than this is not valid
SETUP_BATCH = 5  # set-ups timed together as one sample of setup_s
ORACLE_N = 40  # prefix length checked against the brute-force oracles
ORACLE_QUERIES = 6
DIGEST_SEEDS = 32  # digests.json holds seeds 0..DIGEST_SEEDS-1
STREAM_ARRAYS = "border,scover,lcover,covers"  # lseeds rows are quadratic in size
BATCH_ARRAYS = "border,scover,lcover,covers,lseeds"


class Tracer:
    """Spans kept in memory: name, start, end, parent, run id and counters."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run_id = ""

    def add(self, name: str, start: float, end: float, parent: int | None = None,
            **counters) -> int:
        self.spans.append({"id": len(self.spans), "name": name, "start": start, "end": end,
                           "parent": parent, "run": self.run_id, "counters": counters})
        return len(self.spans) - 1

    def open(self, name: str, parent: int | None = None) -> int:
        return self.add(name, clock(), math.nan, parent)

    def close(self, span: int) -> None:
        self.spans[span]["end"] = clock()


@dataclass
class Inputs:
    qc: object
    oracle: object
    kinds: dict[str, object]
    data: bytes
    positions: dict[str, list[int]]
    batch_path: Path


def workload_inputs(name: str, seed: int) -> tuple[bytes, dict[str, list[int]]]:
    wl = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    data = wl.text(rng, wl.n)
    positions = {r: stratified(rng, wl.n_op if r == "op" else wl.n, wl.queries)
                 for r in RELATIONS}
    return data, positions


def stratified(rng: random.Random, n: int, k: int) -> list[int]:
    """One seeded position in each of k equal slices of 1..n: query cost grows with
    the position, so this keeps the total steady from seed to seed."""
    return [min(n, int((j + rng.random()) * n / k) + 1) for j in range(k)]


def setup(name: str, seed: int, tmp: Path) -> Inputs:
    """Import the package afresh, generate the inputs and write the CLI input file."""
    for mod in [m for m in sys.modules if m == "quasicover" or m.startswith("quasicover.")]:
        del sys.modules[mod]
    qc = importlib.import_module("quasicover")
    oracle = importlib.import_module("quasicover.oracle")
    data, positions = workload_inputs(name, seed)
    batch_path = tmp / "batch.txt"
    batch_path.write_bytes(data[:WORKLOADS[name].n_batch])
    kinds = {r: qc.ScerKind.parse(r) for r in RELATIONS}
    return Inputs(qc, oracle, kinds, data, positions, batch_path)


def run_relation(qc, kind, raw: bytes, positions: list[int],
                 tr: Tracer | None = None, parent: int | None = None):
    """One library pass; returns (output, pipeline seconds, query seconds)."""
    r = kind.value
    t0 = clock()
    text = qc.TokenSeq.from_bytes(raw)
    t1 = clock()
    if tr is not None and r != "op":
        builder = qc.BorderBuilder(kind)
        border = builder.extend(text)
        link_follows = builder.link_follows
    else:
        border = qc.border_array(text, kind)
        link_follows = None  # the op border array exposes no counter
    t2 = clock()
    sca = qc.shortest_cover_array(border)
    t3 = clock()
    lca = qc.longest_cover_array(border)
    t4 = clock()
    acl, lsl = qc.all_cover_lengths, qc.left_seed_lengths
    if tr is None:
        covers = [acl(lca, i) for i in positions]
        lseeds = [lsl(border, lca, i) for i in positions]
        return RelationOutput(border, sca, lca, covers, lseeds), t4 - t0, clock() - t4
    n = len(border)
    tr.add("scer.from_bytes", t0, t1, parent)
    tr.add(f"border.{r}", t1, t2, parent, link_follows=link_follows, mean=sum(border) / n)
    tr.add(f"covers.scover.{r}", t2, t3, parent, op_count=sca.op_count)
    tr.add(f"covers.lcover.{r}", t3, t4, parent, while_successes=lca.while_successes,
           op_count=lca.op_count, nonzero_frac=sum(1 for v in lca.lcover if v) / n)
    covers, lseeds = [], []
    query_s = 0.0
    for i in positions:
        s = clock()
        covers.append(acl(lca, i))
        e = clock()
        lseeds.append(lsl(border, lca, i))
        f = clock()
        tr.add(f"covers.all_cover_lengths.{r}", s, e, parent, items=len(covers[-1]))
        tr.add(f"covers.left_seed_lengths.{r}", e, f, parent, items=len(lseeds[-1]))
        query_s += f - s
    return RelationOutput(border, sca, lca, covers, lseeds), t4 - t0, query_s


def reference_outputs(inp: Inputs, name: str, data: bytes,
                      positions: dict[str, list[int]]) -> dict[str, RelationOutput]:
    wl = WORKLOADS[name]
    return {r: run_relation(inp.qc, inp.kinds[r], data[:wl.n_op] if r == "op" else data,
                            positions[r])[0]
            for r in RELATIONS}


def committed_digest(name: str, seed: int) -> str | None:
    return json.loads((BENCH / "digests.json").read_text()).get(name, {}).get(str(seed))


def sustained(seconds: list[float]) -> float:
    """Upper quartile of repeated timings of the same work.

    The host runs in bursts of higher speed whose share changes from minute to
    minute; the slower, sustained speed is what repeats from run to run, so a
    timing is read at its upper quartile rather than its median.
    """
    return statistics.quantiles(seconds, n=4)[2] if len(seconds) > 1 else seconds[0]


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


class Run:
    def __init__(self, name: str, seed: int, trace: bool, tmp: Path):
        self.name = name
        self.seed = seed
        self.wl = WORKLOADS[name]
        self.trace = trace
        self.tmp = tmp
        self.tally = Tally()
        self.tracer = Tracer()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.child_rss = 0
        self.setup_times: list[float] = []
        self.properties: dict = {"workload": name, "seed": seed, "feeder_late_rounds": 0}

    # -- set-up and the checks made once per run --------------------------------------

    def timed_setup(self) -> Inputs:
        """SETUP_BATCH set-ups in a row; one sample of their mean time."""
        t = clock()
        for _ in range(SETUP_BATCH):
            inp = setup(self.name, self.seed, self.tmp)
        self.setup_times.append((clock() - t) / SETUP_BATCH)
        return inp

    def prepare(self) -> None:
        self.inp = inp = self.timed_setup()
        digest_seed = self.seed % DIGEST_SEEDS
        if digest_seed != self.seed:
            # Made and dropped before this seed's outputs, so that the peak RSS
            # is the same whether or not the seed is in the digest table.
            data, positions = workload_inputs(self.name, digest_seed)
            self.check_digest(digest_seed, reference_outputs(inp, self.name, data, positions))
        self.ref = reference_outputs(inp, self.name, inp.data, inp.positions)
        if digest_seed == self.seed:
            self.check_digest(digest_seed, self.ref)
        self.run_checks()
        self.batch_rows = expected_batch_rows(inp.qc, self.ref["identity"], self.wl.n_batch)
        self.stream_rows = expected_stream_rows(inp.qc, self.ref["identity"], self.wl.n_stream)
        for r, out in self.ref.items():
            n = len(out.border)
            self.properties[f"border_mean.{r}"] = sum(out.border) / n
            self.properties[f"proper_cover_frac.{r}"] = sum(1 for v in out.lca.lcover if v) / n
            self.properties[f"query_items.{r}"] = sum(map(len, out.covers)) + sum(map(len, out.lseeds))

    def check_digest(self, digest_seed: int, outputs: dict[str, RelationOutput]) -> None:
        """Compare the outputs of a seed in the table (this one, or this one mod
        DIGEST_SEEDS) with the committed digest."""
        got = check_digest(self.tally, committed_digest(self.name, digest_seed), outputs)
        self.properties["digest_seed"] = digest_seed
        self.properties["digest"] = got

    def run_checks(self) -> None:
        inp, tally = self.inp, self.tally
        rng = random.Random(f"{self.name}:{self.seed}:oracle")
        short = inp.qc.TokenSeq.from_bytes(inp.data[:ORACLE_N])
        oracle_positions = sorted(rng.sample(range(1, ORACLE_N), ORACLE_QUERIES - 1)) + [ORACLE_N]
        for r in RELATIONS:
            check_oracles(tally, inp.qc, inp.oracle, inp.kinds[r], short, oracle_positions)
            check_invariants(tally, inp.qc, inp.kinds[r], self.ref[r], inp.positions[r])
        check_relation_order(tally, self.ref)

    # -- one round ----------------------------------------------------------------------

    def round(self, traced: bool, index: int) -> dict:
        inp, tally = self.inp, self.tally
        tr = self.tracer if traced else None
        rec: dict = {"lib_s": {}, "query_s": 0.0}
        root = None
        if tr is not None:
            tr.run_id = f"{self.name}/{self.seed}/{index}"
            root = tr.open("round")
        calls = 0
        for r in RELATIONS:
            raw = inp.data[:self.wl.n_op] if r == "op" else inp.data
            out, lib_s, query_s = run_relation(inp.qc, inp.kinds[r], raw, inp.positions[r],
                                               tr, root)
            rec["lib_s"][r] = (len(raw), lib_s)
            rec["query_s"] += query_s
            calls += 2 * len(inp.positions[r])
            tally.check(out == self.ref[r], f"round {index}: {r} output differs from reference")
        rec["queries"] = calls
        if tr is not None:
            for r in RELATIONS:
                s = clock()
                inp.qc.longest_cover_array_li_smyth(self.ref[r].border)
                tr.add(f"covers.lcover_li_smyth.{r}", s, clock(), root,
                       while_successes=None, op_count=None)  # it exposes no counters
        self.cli(rec, tr, root)
        if tr is not None:
            tr.close(root)
        return rec

    def cli(self, rec: dict, tr: Tracer | None, root: int | None) -> None:
        tally = self.tally
        cwd = str(ROOT)

        def cmd(*args: str) -> list[str]:
            return cli_command(sys.executable, *args)

        batch = run_child(cmd("--arrays", BATCH_ARRAYS, str(self.inp.batch_path)),
                          self.env, cwd)
        check_batch(tally, batch, self.batch_rows)
        rec["cli_batch_s"] = batch.wall_s

        stream = run_child(cmd("--stream", "--arrays", STREAM_ARRAYS), self.env, cwd,
                           feed=self.inp.data[:self.wl.n_stream])
        check_stream(tally, stream, self.stream_rows)
        arrivals = stream.line_arrivals()[1:]  # the first line is the header
        lat = sorted(a - (stream.t0 + k / STREAM_RATE) for k, a in enumerate(arrivals))
        if stream.late_ms_max > FEEDER_LATE_LIMIT_MS:
            # The feed ran late, not the program: the round is flagged and its
            # latencies are left out, but no checked operation failed.
            self.properties["feeder_late_rounds"] += 1
            print(f"warning: stream feeder {stream.late_ms_max:.1f} ms behind schedule; "
                  "latencies of this round left out", file=sys.stderr)
        elif len(lat) >= 1000:  # p99 needs at least ten rows beyond it
            rec["p50_ms"] = percentile(lat, 0.50) * 1e3
            rec["p99_ms"] = percentile(lat, 0.99) * 1e3
        rec["late_ms"] = stream.late_ms_max
        self.child_rss = max(self.child_rss, batch.peak_rss_kib, stream.peak_rss_kib)
        self.properties["cli_batch_bytes"] = len(batch.stdout)
        self.properties["cli_stream_bytes"] = len(stream.stdout)
        if tr is not None:
            # Interpreter start-up and import alone: a CLI run on empty input.
            start = run_child(cmd("--arrays", "border"), self.env, cwd)
            tally.check(start.returncode == 0 and start.stdout == b"i\nborder\n",
                        f"cli empty run: exit {start.returncode}")
            for label, ch in (("cli.startup", start), ("cli.batch", batch)):
                tr.add(label, ch.t0, ch.t0 + ch.wall_s, root,
                       output_bytes=len(ch.stdout), peak_rss_kib=ch.peak_rss_kib)
            first_row = arrivals[0] - stream.t0 if arrivals else math.nan
            tr.add("cli.stream", stream.t0, stream.t0 + stream.wall_s, root,
                   output_bytes=len(stream.stdout), peak_rss_kib=stream.peak_rss_kib,
                   first_row_s=first_row, late_ms_max=stream.late_ms_max)

    # -- rounds and metrics ---------------------------------------------------------------

    def measure(self, seconds: float) -> list[tuple[bool, dict]]:
        """Rounds for `seconds`; with tracing, untraced and traced rounds alternate.

        Each round starts with one more batch of set-ups, timed and then
        dropped: spread over the run, the set-up times see the same host as the
        rounds do.
        """
        rounds: list[tuple[bool, dict]] = []
        deadline = clock() + seconds
        min_rounds = 4 if self.trace else 3
        while clock() < deadline or len(rounds) < min_rounds:
            traced = self.trace and len(rounds) % 2 == 1
            self.timed_setup()
            gc.collect()
            rounds.append((traced, self.round(traced, len(rounds))))
        return rounds

    def end_to_end(self, rounds: list[dict]) -> dict[str, float]:
        m = {"setup_s": sustained(self.setup_times)}
        for r in RELATIONS:
            n = rounds[0]["lib_s"][r][0]
            m[f"lib_{r}_tok_per_s"] = n / sustained([rec["lib_s"][r][1] for rec in rounds])
        m["lib_query_per_s"] = rounds[0]["queries"] / sustained([rec["query_s"] for rec in rounds])
        m["cli_batch_s"] = sustained([rec["cli_batch_s"] for rec in rounds])
        valid = [rec for rec in rounds if "p50_ms" in rec]
        if valid:
            m["cli_stream_latency_p50_ms"] = statistics.median(rec["p50_ms"] for rec in valid)
            m["cli_stream_latency_p99_ms"] = statistics.median(rec["p99_ms"] for rec in valid)
        own_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        m["peak_rss_kib"] = max(own_rss, self.child_rss)
        self.properties["peak_rss_kib.benchmark"] = own_rss
        self.properties["peak_rss_kib.cli"] = self.child_rss
        return m

    def per_layer(self, rounds: list[tuple[bool, dict]]) -> dict[str, float]:
        """Per-layer metrics from the traced rounds: per-round sums of span durations
        (read with `sustained`) and of span counters (median over rounds)."""
        per_round: dict[str, dict[str, float]] = {}
        for span in self.tracer.spans:
            sums = per_round.setdefault(span["run"], {})
            sums[span["name"] + ".s"] = sums.get(span["name"] + ".s", 0.0) \
                + span["end"] - span["start"]
            for key, value in span["counters"].items():
                if value is not None:
                    sums[f"{span['name']}.{key}"] = sums.get(f"{span['name']}.{key}", 0) + value
        names = {k for sums in per_round.values() for k in sums}
        m = {}
        for k in names:
            values = [sums[k] for sums in per_round.values() if k in sums]
            m[k] = sustained(values) if k.endswith(".s") else statistics.median(values)
        m["cli.startup_s"] = m["cli.startup.s"]
        m["loadgen.late_ms.max"] = max(rec["late_ms"] for _, rec in rounds)

        def in_process(traced: bool) -> float:
            return sustained([sum(s for _, s in rec["lib_s"].values()) + rec["query_s"]
                              for t, rec in rounds if t == traced])
        m["trace.overhead_frac"] = in_process(True) / in_process(False) - 1.0
        m["check.failed_frac"] = self.tally.failed_frac
        return m


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "quasicover" / "__init__.py").is_file():
        print(f"error: no quasicover sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = ROOT / ".qcbench"
    out_dir.mkdir(exist_ok=True)
    tmp = out_dir / f"tmp-{os.getpid()}"
    tmp.mkdir()
    try:
        run = Run(args.workload, args.seed, bool(args.trace), tmp)
        run.prepare()
        rounds = run.measure(args.seconds)
        if args.trace:
            metrics = run.per_layer(rounds)
        else:
            metrics = run.end_to_end([rec for _, rec in rounds])
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    run.properties["rounds"] = len(rounds)
    run.properties["failed_frac"] = run.tally.failed_frac
    if args.trace:
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        trace_path.write_text(json.dumps({"properties": run.properties,
                                          "spans": run.tracer.spans}))
    for failure in run.tally.failures[:20]:
        print(f"FAILED: {failure}", file=sys.stderr)
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        print(f"error: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print("properties " + json.dumps(run.properties, sort_keys=True))
    for m in declared:
        print(f"{m['name']:40s} {metrics[m['name']]:>16.6g} {m['unit']}")
    print(json.dumps({
        "correct": run.tally.failed == 0,
        "attempted": run.tally.attempted,
        "failed": run.tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
