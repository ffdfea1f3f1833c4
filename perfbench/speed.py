"""Host speed probe: a fixed piece of interpreter work, timed in a process of its own.

The shared 2-core machine that defined this benchmark slows down and speeds
up by 30% and more for minutes at a time (other tenants), and every time
metric follows, CPU time included: in one ten-run ``primary_sweep`` set the
last three runs read 2.5-2.7 ops/s against 3.5-3.9 before them.  So the
worker asks for probe times before every op (every 100 requests in
``service_mixed``), outside the op's timed interval, and ``run.py`` reports
window times at the nominal host speed: measured time × ``NOMINAL_S`` /
median probe time of the run.  The unscaled values and the factor are printed
with every run.

The probe runs in a child process that imports no specmatcher code, so
nothing the program does to its own interpreter (its heap, its garbage
collections, its threads) can slow the probe and be divided out of a
measurement.  Its work is the kind the program spends its time on: creating
small dicts, tuples, lists and strings.  Over ten ``primary_sweep`` runs the
log of its time and the log of the workload's throughput moved together with
slope -0.91; a tight loop of dict lookups over a 30k-entry table moved twice
as much as the workload (slope -0.49) and over-corrected.

Run as a script, this file serves probe times: each line it reads on standard
input starts ``PASSES`` timed passes, whose seconds it writes back as one line.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from typing import List

#: Median probe pass time on the machine that defined the benchmark.
NOMINAL_S = 0.0125
#: Timed passes per measurement: the speed swings within seconds, so one
#: pass is a noisy sample.
PASSES = 3


def _timed_pass() -> float:
    """Seconds one fixed pass of small-object allocation takes right now."""
    start = time.perf_counter()
    keep = []
    for i in range(15_000):
        keep.append(({"a": i, "b": (i, i + 1), "c": [i]}, str(i)))
        if len(keep) > 2_000:
            keep = []
    return time.perf_counter() - start


class SpeedProbe:
    """A child process that times ``PASSES`` passes on request."""

    def __init__(self) -> None:
        self._child = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        )
        #: Seconds of every timed pass so far.
        self.times: List[float] = []
        self._request()  # the first passes run on cold caches

    def _request(self) -> List[float]:
        self._child.stdin.write(b"\n")
        self._child.stdin.flush()
        line = self._child.stdout.readline()
        if not line:
            raise RuntimeError("the speed probe process ended")
        return [float(value) for value in line.split()]

    def measure(self) -> None:
        """Time ``PASSES`` passes now and record them."""
        self.times.extend(self._request())

    def close(self) -> None:
        if self._child.poll() is None:
            self._child.stdin.close()
            self._child.wait(timeout=10)
        self._child.stdout.close()


def main() -> int:
    for _ in iter(sys.stdin.buffer.readline, b""):
        sys.stdout.write(" ".join(repr(_timed_pass()) for _ in range(PASSES)) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
