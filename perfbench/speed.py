"""Host speed monitor: times reported at a fixed nominal host speed.

The benchmark runs on shared virtual machines whose vCPUs change speed
from outside by up to 2x, each on its own (two vCPUs probed together did
not correlate), in phases of a fraction of a second to a minute. It is not
steal time: CPU time slows exactly as wall time does. A run that falls in
a slow phase reads slow whatever statistic is taken over it, and a probe
before and after a measurement misses phase changes within it.

So a monitor process shares the harness's CPU for the whole run: every
PERIOD_S it wakes, times one short probe loop and records when it ran and
how long it took. A measured interval of ``t`` seconds is reported as
``t * mean(NOMINAL_S / d)`` over the probe times ``d`` recorded inside
it: the interval's work counted at the speed at which one probe loop
takes NOMINAL_S, about the fast phase of a 2-vCPU Intel Xeon VM with
Python 3.11.7. The monitor takes 2-3% of the CPU, the same on every run.

On that VM, over 90 s of alternating resp-product CLI runs and
in-process ``c_explanations`` calls, the coefficient of variation of the
single measurements was 0.17 raw and 0.025-0.04 scaled. Over ten 25-s
runs with different seeds, the spread (IQR over median) of the runs'
``wall_s`` was 0.013-0.038 on the four workloads, where the mean of the
fastest quarter of raw times had spread 0.13-0.26.

Usage (started by :class:`Monitor`): python3 perfbench/speed.py OUT
"""

from __future__ import annotations

import bisect
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

PERIOD_S = 0.025
PROBE_N = 2000
NOMINAL_S = 0.0004
STOP_TIMEOUT_S = 10.0


def _loop(n: int) -> int:
    # dict, integer, string and call work, as the interpreter does for cfx
    d: dict[int, int] = {}
    s = 0
    for i in range(n):
        k = i & 1023
        d[k] = d.get(k, 0) + i
        s += len(str(k))
    return s


class Monitor:
    """Runs the probe process for the life of the ``with`` block; after
    it, :meth:`scaled` turns measured intervals into nominal seconds."""

    def __init__(self, out: Path):
        self.out = out
        self.starts: list[float] = []
        self.times: list[float] = []

    def __enter__(self) -> Monitor:
        self.out.unlink(missing_ok=True)
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.out)],
                                     stdin=subprocess.DEVNULL)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(STOP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        if exc[0] is None:
            records = json.loads(self.out.read_text())
            self.starts = [start for start, _ in records]
            self.times = [took for _, took in records]

    def scaled(self, seconds: float, start: float, end: float) -> float:
        """``seconds`` measured within ``[start, end]`` (perf_counter
        times), at the nominal speed. An interval with no probe inside
        takes the probes just before and just after it."""
        lo = bisect.bisect_left(self.starts, start)
        hi = bisect.bisect_right(self.starts, end)
        if lo == hi:
            lo, hi = max(lo - 1, 0), min(hi + 1, len(self.times))
        inside = self.times[lo:hi]
        if not inside:
            raise RuntimeError("the speed monitor recorded no probe")
        return seconds * sum(NOMINAL_S / d for d in inside) / len(inside)


def _serve(out: str) -> None:
    records: list[tuple[float, float]] = []
    stop = False
    parent = os.getppid()

    def on_term(*_):
        nonlocal stop
        stop = True

    signal.signal(signal.SIGTERM, on_term)
    # the parent is gone if it was killed before it could stop the monitor
    while not stop and os.getppid() == parent:
        time.sleep(PERIOD_S)
        start = time.perf_counter()
        _loop(PROBE_N)
        records.append((start, time.perf_counter() - start))
    Path(out).write_text(json.dumps(records))


if __name__ == "__main__":
    _serve(sys.argv[1])
