"""One fresh process of a benchmark run: set up, replay the op list, check every verdict.

``run.py`` starts this script; it is not meant to be run by hand, though it
can be::

    python3 perfbench/worker.py --workload primary_sweep --seed 1 --seconds 20 --trace 0

It prints one JSON line: the monotonic time its set-up ended (the start of
the first timed op) and, unless ``--setup-only``, the raw outcome of the
timed window.  With ``--trace 1`` the window runs with layer tracing
installed; ``run.py`` starts a second, untraced process for the comparison,
so both windows start from the same fresh-process state.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402
from oracle import Verdicts, check_outcome, check_report, fail_contradictions, report_outcome  # noqa: E402
from speed import SpeedProbe  # noqa: E402

#: Address-space cap of every process that runs specmatcher code.
MEMORY_CAP_BYTES = 3 * 1024**3
#: Per-op wall budgets, far above the slowest op of each workload (2.5 s,
#: 12 s and 1.5 s when the benchmark was defined).
PRIMARY_BUDGET_S = 30.0
GAP_BUDGET_S = 60.0
SERVICE_BUDGET_S = 30.0
#: Stop starting ops once a window has run this long (the longest window,
#: ``gap_analysis``, takes ~40 s) and count the rest as failed.
WINDOW_CAP_S = 75.0
#: ``service_mixed`` asks for host speed probe times once per this many requests.
SERVICE_PROBE_EVERY = 100
#: Catalog design ``gap_analysis`` warms up on (0.6 s for both engines).
GAP_WARM_UP_DESIGN = "mal_fig2"


def cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))


def run_budgeted(fn, budget: float):
    """``fn()`` under a cancel token a timer fires after ``budget`` seconds.

    The same mechanism ``repro.service.jobs.execute_job`` uses: every engine's
    search loop polls the token and raises ``Cancelled`` once it fires.
    """
    from repro.engines.cancel import CancelToken, using_cancel_token

    token = CancelToken()
    timer = threading.Timer(budget, token.cancel)
    timer.daemon = True
    timer.start()
    try:
        with using_cancel_token(token):
            return fn()
    finally:
        timer.cancel()


def _process_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class InProcessWorkload:
    """A workload whose ops call the library in this process (``budget``: per-op seconds).

    ``prepare(op)`` returns the call one op times; ``keep(outcome)`` reduces
    what it returned, after the op's timed interval, to what the oracle checks.
    """

    def __init__(self, seed: int, seconds: int, traced: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.traced = traced

    def window(self) -> dict:
        from repro.obs import metrics

        tracer = tracing.Tracer() if self.traced else None
        uninstall = tracing.install(tracer) if tracer is not None else None
        probe = SpeedProbe()
        records = []
        cpu = 0.0
        before = metrics().snapshot()
        start = time.monotonic()
        try:
            for op in self.ops:
                record = {"op": op, "failure": None, "latency": None}
                records.append(record)
                if time.monotonic() - start > WINDOW_CAP_S:
                    record["failure"] = "not started: window cap reached"
                    continue
                call = self.prepare(op)
                probe.measure()
                if tracer is not None:
                    tracer.op_id = len(records)
                outcome = None
                cpu_began = _process_cpu()
                began = time.perf_counter()
                try:
                    outcome = run_budgeted(call, self.budget)
                except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                    record["failure"] = f"{type(exc).__name__}: {exc}"
                record["latency"] = time.perf_counter() - began
                cpu += _process_cpu() - cpu_began
                if outcome is not None:
                    record.update(self.keep(outcome))
        finally:
            probe.close()
            if uninstall is not None:
                uninstall()
        peak = _peak_rss_mb()
        after = metrics().snapshot()
        self.check(records)
        result = summarize(records, cpu, peak, probe.times)
        if tracer is not None:
            result["layers"] = tracing.layer_metrics(
                tracer.spans, tracer.attrs, before, after, len(records)
            )
        return result

    def close(self) -> None:
        pass


class PrimarySweep(InProcessWorkload):
    budget = PRIMARY_BUDGET_S

    def setup(self) -> None:
        from repro.designs import CATALOG
        from repro.designs.random import random_problem

        self.ops = workloads.primary_ops(self.seed, self.seconds)
        self.problems = {name: CATALOG[name].builder() for name in sorted(CATALOG)}
        for spec in workloads.random_specs(self.seed, workloads.PRIMARY_RANDOM_DESIGNS):
            self.problems[spec.name] = random_problem(spec)
        for engine in ("explicit", "bmc", "symbolic"):
            warm = {"design": "telemetry_bank", "conjunct": 2, "engine": engine}
            run_budgeted(self.prepare(warm), self.budget)

    def prepare(self, op: dict):
        """A fresh problem and cold compile caches, so every op compiles like a one-shot check."""
        from dataclasses import replace

        from repro.engines import get_engine
        from repro.problem import clear_compile_caches

        clear_compile_caches()
        problem = replace(self.problems[op["design"]], _composed=None)
        target = problem.architectural[op["conjunct"]]
        engine = get_engine(op["engine"], max_bound=workloads.BMC_BOUND)
        return lambda: engine.check_primary(problem, architectural=target)

    @staticmethod
    def keep(verdict) -> dict:
        return {"covered": verdict.covered, "complete": verdict.complete, "witness": verdict.witness}

    def check(self, records) -> None:
        verdicts = Verdicts()
        for record in records:
            if record["failure"] is None:
                problem = self.problems[record["op"]["design"]]
                record["failure"] = check_outcome(record, problem, verdicts)
        fail_contradictions(verdicts)


class GapAnalysis(InProcessWorkload):
    budget = GAP_BUDGET_S

    def setup(self) -> None:
        from repro.designs import CATALOG
        from repro.designs.random import random_problem

        self.ops = workloads.gap_ops(self.seed, self.seconds)
        self.problems = {design: CATALOG[design].builder() for design, _engine in workloads.GAP_CELLS}
        for spec in workloads.random_specs(self.seed, workloads.GAP_RANDOM_DESIGNS):
            self.problems[spec.name] = random_problem(spec)
        # The warm-up analyses one fixed catalog design that no timed op
        # uses, so its cost (part of ``setup_s``) does not depend on the seed.
        self.problems[GAP_WARM_UP_DESIGN] = CATALOG[GAP_WARM_UP_DESIGN].builder()
        for engine in ("explicit", "bmc"):
            run_budgeted(self.prepare({"design": GAP_WARM_UP_DESIGN, "engine": engine}), self.budget)

    def prepare(self, op: dict):
        from repro.core import CoverageOptions, analyze_problem

        problem = self.problems[op["design"]]
        options = CoverageOptions(engine=op["engine"], **workloads.GAP_OPTIONS)
        return lambda: analyze_problem(problem, options)

    @staticmethod
    def keep(report) -> dict:
        return report_outcome(report)

    def check(self, records) -> None:
        verdicts = Verdicts()
        for record in records:
            if record["failure"] is None:
                record["failure"] = check_report(record, self.problems[record["op"]["design"]], verdicts)
        fail_contradictions(verdicts)


class ServiceMixed:
    """Requests to a fresh ``specmatcher serve`` daemon, one connection at a time."""

    def __init__(self, seed: int, seconds: int, traced: bool) -> None:
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.daemon = None
        self.run_dir = None

    def setup(self) -> None:
        import tempfile

        from repro.service.client import ServiceClient

        self.warm_up, self.ops = workloads.service_ops(self.seed, self.seconds)
        os.makedirs(".perfbench_tmp", exist_ok=True)
        self.run_dir = tempfile.mkdtemp(prefix="run-", dir=".perfbench_tmp")
        ready = os.path.join(self.run_dir, "ready.json")
        self.spans_path = os.path.join(self.run_dir, "spans.json") if self.traced else None
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
        env["PERFBENCH_SEED"] = str(self.seed)
        env["PERFBENCH_RANDOM_COUNT"] = str(workloads.service_random_count(self.seconds))
        env["PERFBENCH_MEMORY_CAP"] = str(MEMORY_CAP_BYTES)
        env.pop("PERFBENCH_SPANS", None)
        if self.spans_path:
            env["PERFBENCH_SPANS"] = self.spans_path
        command = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--ready-file", ready, "--quota-rate", "0",
            "--preload", os.path.join(HERE, "service_preload.py"),
        ]
        log_path = os.path.join(self.run_dir, "daemon.log")
        with open(log_path, "wb") as log:
            self.daemon = subprocess.Popen(command, env=env, stdout=log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 60.0
        while not os.path.exists(ready):
            if self.daemon.poll() is not None or time.monotonic() > deadline:
                with open(log_path, encoding="utf-8", errors="replace") as log:
                    raise RuntimeError("service daemon did not come up: " + log.read()[-2000:])
            time.sleep(0.01)
        with open(ready, encoding="utf-8") as handle:
            port = json.load(handle)["port"]
        self.client = ServiceClient("127.0.0.1", port, timeout=SERVICE_BUDGET_S * 2)
        self.request(self.warm_up)

    def request(self, key: dict) -> dict:
        return self.client.check(
            key["design"], index=key["index"], engine=key["engine"], bound=key["bound"],
            timeout=SERVICE_BUDGET_S,
        )

    def _daemon_cpu(self) -> float:
        with open(f"/proc/{self.daemon.pid}/stat", encoding="ascii") as handle:
            fields = handle.read().rsplit(")", 1)[1].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def _daemon_peak_rss_mb(self) -> float:
        with open(f"/proc/{self.daemon.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def window(self) -> dict:
        before = self.client.metrics_snapshot()
        probe = SpeedProbe()
        records = []
        cpu0 = self._daemon_cpu()
        start = time.monotonic()
        for number, key in enumerate(self.ops):
            if number % SERVICE_PROBE_EVERY == 0:
                probe.measure()
            record = {"op": key, "failure": None, "latency": None}
            records.append(record)
            if time.monotonic() - start > WINDOW_CAP_S:
                record["failure"] = "not started: window cap reached"
                continue
            began = time.perf_counter()
            try:
                record["payload"] = self.request(key)
            except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
                record["failure"] = f"{type(exc).__name__}: {exc}"
            record["latency"] = time.perf_counter() - began
        end = time.monotonic()
        cpu = self._daemon_cpu() - cpu0
        peak = self._daemon_peak_rss_mb()
        probe.close()
        after = self.client.metrics_snapshot()
        self.stop_daemon()
        self.check(records)
        result = summarize(records, cpu, peak, probe.times)
        if self.traced:
            with open(self.spans_path, encoding="utf-8") as handle:
                dump = json.load(handle)
            spans = [tuple(span) for span in dump["spans"] if start <= span[2] and span[3] <= end]
            attrs = {int(key): value for key, value in dump["attrs"].items()}
            ok = [r for r in records if r["failure"] is None]
            overhead = tracing.service_overhead(
                [r["latency"] for r in ok], [r["payload"]["elapsed_seconds"] for r in ok]
            )
            result["layers"] = tracing.layer_metrics(
                spans, attrs, before, after, len(records), service_overhead_s=overhead
            )
        return result

    def check(self, records) -> None:
        from repro.designs import CATALOG
        from repro.designs.random import RandomDesignSpec, random_problem
        from repro.runner.cache import decode_trace

        problems = {}
        verdicts = Verdicts()
        outcomes = []
        for record in records:
            if record["failure"] is not None:
                continue
            key = record["op"]
            design = key["design"]
            if design not in problems:
                if design in CATALOG:
                    problems[design] = CATALOG[design].builder()
                else:
                    index = int(design.rsplit("_", 1)[1])
                    problems[design] = random_problem(RandomDesignSpec(seed=self.seed, index=index))
            problem = problems[design]
            verdict = record["payload"]["verdict"]
            outcome = {
                "op": {"design": design, "conjunct": key["index"],
                       "engine": f"{key['engine']}@{key['bound']}"},
                "covered": verdict["covered"],
                "complete": verdict["complete"],
                "witness": decode_trace(verdict["witness"]),
            }
            outcome["failure"] = check_outcome(outcome, problem, verdicts)
            outcomes.append((outcome, record))
        fail_contradictions(verdicts)
        for outcome, record in outcomes:
            record["failure"] = outcome["failure"]

    def stop_daemon(self) -> None:
        """SIGTERM the daemon (it drains and writes its spans) and wait for it."""
        if self.daemon is None:
            return
        if self.daemon.poll() is None:
            self.daemon.send_signal(signal.SIGTERM)
            try:
                self.daemon.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.daemon.kill()
                self.daemon.wait()
        self.daemon = None

    def close(self) -> None:
        import shutil

        self.stop_daemon()
        if self.run_dir is not None:
            shutil.rmtree(self.run_dir, ignore_errors=True)
            self.run_dir = None


def summarize(records, cpu: float, peak_rss_mb: float, speeds) -> dict:
    ok = [record["latency"] for record in records if record["failure"] is None]
    failures = [f"{record['op']}: {record['failure']}" for record in records
                if record["failure"] is not None]
    return {
        "attempted": len(records),
        "failed": len(failures),
        "failures": failures[:20],
        "latencies": ok,
        "timed_wall": sum(record["latency"] or 0.0 for record in records),
        "cpu_s": cpu,
        "peak_rss_mb": peak_rss_mb,
        "speed_probes": speeds,
    }


WORKLOADS = {
    "primary_sweep": PrimarySweep,
    "gap_analysis": GapAnalysis,
    "service_mixed": ServiceMixed,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    cap_memory()
    sys.path.insert(0, os.path.abspath("src"))
    workload = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace))
    try:
        workload.setup()
        result = {"setup_end": time.monotonic()}
        if not args.setup_only:
            result["window"] = workload.window()
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
