"""Runs the quasicover CLI as a child process from a single thread.

Standard input is either empty or written open loop: token k (0-based) is due
`k / STREAM_RATE` seconds after the child was spawned, whatever the child does.
All pipes are non-blocking and served by one selector, so the benchmark needs
no extra threads. Each output chunk is stamped with its arrival time.

The child's peak RSS is its own VmHWM, which `cli_command` prints to stderr at
exit. `getrusage` cannot give it: on Linux the child's ru_maxrss also keeps
the RSS of the benchmark process it was forked from, which is larger.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import time
from dataclasses import dataclass, field

clock = time.perf_counter

# Tokens per second written to a fed child. About a quarter of what the CLI
# sustains today: `--stream --arrays border,scover,lcover,covers` given 4,000
# tokens at once processed 13,300-16,400 rows/s after start-up (README.md). At
# a quarter, the feed stays well below capacity even when the host runs 60%
# slower, so latency shows the program, not a saturated queue.
STREAM_RATE = 4_000.0
TIMEOUT_S = 10.0  # a child still running after this is killed and counts as failed

_HWM_TAG = b"qcbench-vmhwm-kib "
# Runs `python -m quasicover.cli ARGS`, then reports the child's own peak RSS.
_CLI_WRAPPER = f"""
import atexit, runpy, sys
def hwm():
    with open("/proc/self/status") as f:
        kib = next(int(l.split()[1]) for l in f if l.startswith("VmHWM:"))
    sys.stderr.write("{_HWM_TAG.decode()}%d\\n" % kib)
atexit.register(hwm)
runpy.run_module("quasicover.cli", run_name="__main__", alter_sys=True)
"""


def cli_command(python: str, *args: str) -> list[str]:
    """`python -m quasicover.cli ARGS`, with the peak-RSS report added."""
    return [python, "-c", _CLI_WRAPPER, *args]


@dataclass
class ChildRun:
    returncode: int
    t0: float  # clock() right after spawn; the feeding schedule starts here
    wall_s: float  # spawn to exit
    stdout: bytes
    stderr: bytes
    peak_rss_kib: int
    chunks: list[tuple[float, int]] = field(default_factory=list)  # (arrival, end offset)
    late_ms_max: float = 0.0  # how far the feeder fell behind its schedule

    def line_arrivals(self) -> list[float]:
        """Arrival time of every complete output line, in order."""
        arrivals = []
        start = 0
        for arrived, end in self.chunks:
            arrivals.extend([arrived] * self.stdout.count(b"\n", start, end))
            start = end
        return arrivals


def run_child(cmd: list[str], env: dict[str, str], cwd: str,
              feed: bytes | None = None) -> ChildRun:
    """Run `cmd` to completion; with `feed`, write it open loop at STREAM_RATE.

    A child still running after TIMEOUT_S is killed, so a hung CLI shows up
    as a failed run instead of stalling the benchmark.
    """
    proc = subprocess.Popen(cmd, cwd=cwd, env=env,
                            stdin=subprocess.PIPE if feed is not None else subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    t0 = clock()
    out = bytearray()
    err = bytearray()
    chunks: list[tuple[float, int]] = []
    late = 0.0
    sent = 0
    stdin = proc.stdin
    readers = {proc.stdout, proc.stderr}
    killed = False
    sel = selectors.DefaultSelector()
    try:
        for pipe in readers:
            os.set_blocking(pipe.fileno(), False)
            sel.register(pipe, selectors.EVENT_READ)
        if stdin is not None:
            os.set_blocking(stdin.fileno(), False)
        while readers or stdin is not None:
            timeout = None
            if stdin is not None:
                now = clock()
                due = min(len(feed), int((now - t0) * STREAM_RATE) + 1)
                if sent < due:
                    try:
                        written = os.write(stdin.fileno(), feed[sent:due])
                    except BlockingIOError:
                        written = 0
                    except BrokenPipeError:  # the child exited without reading it all
                        written = -1
                    if written > 0:
                        late = max(late, now - (t0 + sent / STREAM_RATE))
                        sent += written
                    if written < 0 or sent == len(feed):
                        if stdin in sel.get_map():
                            sel.unregister(stdin)
                        stdin.close()
                        stdin = None
                if stdin is not None:
                    pipe_full = sent < due
                    if pipe_full != (stdin in sel.get_map()):
                        if pipe_full:
                            sel.register(stdin, selectors.EVENT_WRITE)
                        else:
                            sel.unregister(stdin)
                    timeout = None if pipe_full else max(0.0, t0 + sent / STREAM_RATE - clock())
            left = t0 + TIMEOUT_S - clock()
            if left <= 0 and not killed:
                proc.kill()
                killed = True
            if not killed:
                timeout = left if timeout is None else min(timeout, left)
            for key, _ in sel.select(timeout):
                if key.fileobj is stdin:
                    continue
                data = os.read(key.fd, 1 << 16)
                if not data:
                    sel.unregister(key.fileobj)
                    readers.discard(key.fileobj)
                elif key.fileobj is proc.stdout:
                    out += data
                    chunks.append((clock(), len(out)))
                else:
                    err += data
    except BaseException:
        proc.kill()
        raise
    finally:
        sel.close()
        if proc.stdin is not None and not proc.stdin.closed:
            proc.stdin.close()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = clock() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        proc.stderr.close()
    peak = usage.ru_maxrss
    tag = err.rfind(_HWM_TAG)
    if tag >= 0:
        line_end = err.find(b"\n", tag)
        peak = int(err[tag + len(_HWM_TAG):line_end])
        del err[tag:line_end + 1]
    return ChildRun(returncode=proc.returncode, t0=t0, wall_s=wall, stdout=bytes(out),
                    stderr=bytes(err), peak_rss_kib=peak, chunks=chunks,
                    late_ms_max=late * 1e3)
