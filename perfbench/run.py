"""specmatcher benchmark: one run of one workload, printed as metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload primary_sweep --seed 1 --seconds 25 --trace 0

Workloads (``perfbench/RATIONALE.md`` says why each exists):

* ``primary_sweep`` — one-shot primary coverage checks (Theorem 1) over the
  catalog and seeded random designs, explicit / bmc / symbolic engines;
* ``gap_analysis`` — Algorithm 1 (``analyze_problem``) with reduced options;
* ``service_mixed`` — ``POST /v1/check`` requests to a fresh daemon, one in
  ten for a key it has not answered yet.

A run sets up in five fresh processes (the measuring process, with two
that only set up before it and two after) and reports their median as
``setup_s``.  The measuring process replays the seed's op list with every op
under a wall budget, then checks every verdict with the oracle
(``perfbench/oracle.py``).  Window times are scaled to a nominal host speed
(``perfbench/speed.py``); ``setup_s`` is not.  With ``--trace 1`` a further
process replays the op list with layer tracing, and the run
reports the per-layer metrics and the tracing overhead instead of the
end-to-end metrics.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Any error exits
non-zero without that line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from speed import NOMINAL_S  # noqa: E402
from stats import latency_tail, quantile  # noqa: E402
from tracing import LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-up-only processes before and after the measuring process; ``setup_s``
#: is the median of all their set-ups and the measuring process's own.  Set-up
#: is about a second of CPU-bound work, so its time follows the host's speed
#: swings; set-ups spread over the run sample more of them.
SETUPS_BEFORE = 2
SETUPS_AFTER = 2
#: The whole run, set-ups included, must end within this many seconds.
RUN_DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def run_worker(args, extra, deadline: float) -> tuple:
    """Start one worker process; returns ``(setup_seconds, result)``."""
    command = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
    ] + extra
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    started = time.monotonic()
    # Its own process group, so that a worker killed at the deadline takes
    # the service daemon it started down with it.
    worker = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, start_new_session=True)
    try:
        stdout, _ = worker.communicate(timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired as exc:
        os.killpg(worker.pid, signal.SIGKILL)
        worker.communicate()
        raise BenchError(f"worker exceeded the run deadline: {' '.join(command)}") from exc
    if worker.returncode != 0:
        raise BenchError(f"worker exited with {worker.returncode}: {' '.join(command)}")
    lines = [line for line in stdout.decode().splitlines() if line.strip()]
    if not lines:
        raise BenchError("worker printed no result")
    result = json.loads(lines[-1])
    return result["setup_end"] - started, result


def speed_scale(window: dict) -> float:
    """Nominal over measured host speed probe time: multiply window times by it."""
    return NOMINAL_S / statistics.median(window["speed_probes"])


def throughput(window: dict) -> float:
    """Successful ops per second of timed wall (the sum of the timed ops), unscaled."""
    return len(window["latencies"]) / window["timed_wall"]


def end_to_end(window: dict, setup_s: float) -> tuple:
    """The seven end-to-end metrics of one timed window, plus notes on how they were taken.

    Window times are scaled to the nominal host speed; ``setup_s`` is not.
    """
    latencies = window["latencies"]
    attempted = window["attempted"]
    if not latencies:
        raise BenchError("no op succeeded: " + "; ".join(window["failures"][:3]))
    scale = speed_scale(window)
    tail, pct = latency_tail(latencies)
    raw = {
        "throughput_per_s": throughput(window),
        "latency_p50_s": quantile(latencies, 0.5),
        "latency_tail_s": tail,
        "cpu_per_op_s": window["cpu_s"] / attempted,
    }
    metrics = {
        "setup_s": (setup_s, "s"),
        "throughput_per_s": (raw["throughput_per_s"] / scale, "1/s"),
        "latency_p50_s": (raw["latency_p50_s"] * scale, "s"),
        "latency_tail_s": (raw["latency_tail_s"] * scale, "s"),
        "cpu_per_op_s": (raw["cpu_per_op_s"] * scale, "s"),
        "peak_rss_mb": (window["peak_rss_mb"], "MB"),
        "success_ratio": (len(latencies) / attempted, "ratio"),
    }
    label = "the maximum (fewer than 20 samples)" if pct is None else f"p{pct:g}"
    probes = window["speed_probes"]
    notes = [
        f"latency_tail_s is {label} of {len(latencies)} successful ops; "
        "latency_p50_s and latency_tail_s are Harrell-Davis estimates",
        f"host speed probe: median {statistics.median(probes) * 1000:.3f} ms over {len(probes)} "
        f"passes (nominal {NOMINAL_S * 1000:.1f} ms); window times are scaled by {scale:.4f}",
        "unscaled: " + ", ".join(f"{name}={value:.6g}" for name, value in raw.items()),
    ]
    return metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="specmatcher benchmark (one run of one workload)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        print("perfbench: run from the root of a specmatcher checkout (src/repro not found)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        setups = [run_worker(args, ["--setup-only"], deadline)[0] for _ in range(SETUPS_BEFORE)]
        setup, result = run_worker(args, [], deadline)
        setups.append(setup)
        setups += [run_worker(args, ["--setup-only"], deadline)[0] for _ in range(SETUPS_AFTER)]
        window = result["window"]
        metrics, notes = end_to_end(window, statistics.median(setups))
        windows = [window]
        print(f"workload {args.workload}, seed {args.seed}: {window['attempted']} ops")
        print(f"setup_s is the median of {len(setups)} fresh-process set-ups: "
              + ", ".join(f"{value:.3f}" for value in setups))
        for note in notes:
            print(note)
        if args.trace:
            traced = run_worker(args, ["--trace", "1"], deadline)[1]["window"]
            windows.append(traced)
            traced_throughput = throughput(traced) / speed_scale(traced)
            untraced_throughput = metrics["throughput_per_s"][0]
            metrics = {name: (value, LAYER_UNITS[name]) for name, value in sorted(traced["layers"].items())}
            metrics["trace.overhead_ratio"] = (
                untraced_throughput / traced_throughput, LAYER_UNITS["trace.overhead_ratio"]
            )
            print(f"throughput untraced {untraced_throughput:.4f}/s, traced {traced_throughput:.4f}/s")
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for window in windows:
        for failure in window["failures"]:
            print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6f} {unit}")
    attempted = sum(window["attempted"] for window in windows)
    failed = sum(window["failed"] for window in windows)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
