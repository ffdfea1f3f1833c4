"""Command-line interface: ``specmatcher``.

Sub-commands
------------
``specmatcher list``
    List the built-in designs.
``specmatcher check <design>``
    Answer the primary coverage question for a built-in design.
``specmatcher analyze <design>``
    Run the full gap-finding pipeline and print the report.
``specmatcher table1``
    Regenerate the paper's Table 1 over the built-in suite.
``specmatcher timing``
    Print the Figure 3 timing diagrams from simulation.
``specmatcher suite``
    Run the sharded coverage suite over the catalog (and random designs) on a
    worker pool with a persistent result cache; report as text or JSON.
``specmatcher cache``
    Inspect (``stats``: entries and bytes on disk) or wipe (``clear``) the
    persistent result cache.
``specmatcher serve``
    Run the long-lived coverage service: an HTTP/JSON daemon that keeps the
    compiled-problem and result caches warm across requests, with per-client
    quotas and a graceful SIGTERM drain.
``specmatcher submit``
    Send one ``check`` / ``analyze`` job to a running daemon; exit codes
    mirror the one-shot subcommands.

``specmatcher --version`` prints the package version (from the installed
package metadata when available).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core import CoverageOptions, analyze_problem, format_table1
from .engines import engine_names
from .designs import (
    build_full_mal_fig2,
    get_design,
    design_names,
    hit_scenario_stimulus,
    miss_scenario_stimulus,
    table1_designs,
)
from .rtl import Stimulus, render_waveform, simulate

__all__ = ["main", "build_parser"]


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _package_version() -> str:
    """The installed package version, falling back to the source tree's."""
    try:
        from importlib.metadata import version

        return version("specmatcher")
    except Exception:
        # Not installed (e.g. running from a source checkout via PYTHONPATH).
        from . import __version__

        return __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="specmatcher",
        description="Design intent coverage with concrete RTL blocks (DATE 2006 reproduction)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {_package_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared by every subcommand: stream spans + a final metrics snapshot of
    # the whole invocation (suite workers append to the same file) as JSONL.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="write a JSONL trace (spans + metrics) of this invocation to FILE",
    )

    def add_backend_flags(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--engine",
            choices=engine_names(),
            default="explicit",
            help=(
                "primary-coverage engine: explicit-state nested DFS, bounded SAT, "
                "symbolic BDD fixpoint, portfolio (all three concurrently, first "
                "decisive verdict wins), or auto (explicit when the query's "
                "automata have more than 28 states, else bmc with a complete "
                "fallback)"
            ),
        )
        sub_parser.add_argument(
            "--bound",
            type=_non_negative_int,
            default=12,
            help="unrolling bound for the bmc engine (ignored by explicit/symbolic)",
        )

    sub.add_parser("list", parents=[common], help="list the built-in designs")

    check_parser = sub.add_parser("check", parents=[common], help="primary coverage question for a design")
    check_parser.add_argument("design", choices=design_names())
    check_parser.add_argument(
        "--json",
        action="store_true",
        help=(
            "emit the canonical JSON verdict payload (the same shape the "
            "coverage service returns — `specmatcher submit check` output "
            "byte-matches this modulo timing fields)"
        ),
    )
    check_parser.add_argument(
        "--index",
        type=_non_negative_int,
        default=None,
        metavar="N",
        help="check only architectural conjunct N",
    )
    add_backend_flags(check_parser)

    analyze_parser = sub.add_parser("analyze", parents=[common], help="full coverage-gap analysis for a design")
    analyze_parser.add_argument("design", choices=design_names())
    analyze_parser.add_argument("--max-witnesses", type=_non_negative_int, default=3)
    analyze_parser.add_argument("--depth", type=_positive_int, default=5)
    analyze_parser.add_argument("--no-witnesses", action="store_true", help="omit witness waveforms")
    add_backend_flags(analyze_parser)

    table_parser = sub.add_parser("table1", parents=[common], help="regenerate the paper's Table 1")
    table_parser.add_argument("--max-witnesses", type=_non_negative_int, default=2)
    add_backend_flags(table_parser)

    sub.add_parser("timing", parents=[common], help="print the Figure 3 timing diagrams (MAL simulation)")

    suite_parser = sub.add_parser(
        "suite",
        parents=[common],
        help="run the sharded coverage suite (parallel workers + persistent result cache)",
    )
    suite_parser.add_argument(
        "--designs",
        nargs="+",
        metavar="NAME",
        choices=design_names(),
        help="restrict to these catalog designs (default: the whole catalog)",
    )
    suite_parser.add_argument(
        "--jobs", type=int, default=1, help="worker processes (1 = serial fallback)"
    )
    suite_parser.add_argument(
        "--cache-dir",
        default=".specmatcher_cache",
        help="persistent result-cache directory (default: %(default)s)",
    )
    suite_parser.add_argument(
        "--no-cache", action="store_true", help="disable the result cache entirely"
    )
    suite_parser.add_argument(
        "--random",
        type=_non_negative_int,
        default=0,
        metavar="N",
        help="also shard N seeded random designs",
    )
    suite_parser.add_argument(
        "--seed", type=int, default=0, help="seed for the random designs (default: 0)"
    )
    suite_parser.add_argument(
        "--no-signals",
        action="store_true",
        help="skip the per-interface-signal observability shards",
    )
    suite_parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-shard timeout (default: none)",
    )
    suite_parser.add_argument(
        "--report",
        choices=("text", "json"),
        default="text",
        help="report format (default: %(default)s)",
    )
    suite_parser.add_argument(
        "--profile",
        action="store_true",
        help=(
            "append a per-design, per-phase wall-time breakdown (from the "
            "shard timing records) to the report"
        ),
    )
    suite_parser.add_argument(
        "--output", metavar="FILE", help="write the report to FILE instead of stdout"
    )
    add_backend_flags(suite_parser)

    cache_parser = sub.add_parser(
        "cache", parents=[common], help="inspect or clear the persistent result cache"
    )
    cache_parser.add_argument(
        "action", choices=("stats", "clear"), help="what to do with the cache"
    )
    cache_parser.add_argument(
        "--cache-dir",
        default=".specmatcher_cache",
        help="result-cache directory (default: %(default)s, the suite's default)",
    )

    serve_parser = sub.add_parser(
        "serve",
        parents=[common],
        help="run the long-lived coverage service (HTTP/JSON daemon, warm caches)",
    )
    serve_parser.add_argument("--host", default="127.0.0.1", help="bind address (default: %(default)s)")
    serve_parser.add_argument(
        "--port",
        type=_non_negative_int,
        default=8123,
        help="bind port; 0 picks an ephemeral port (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--workers",
        type=int,
        default=8,
        help="maximum concurrently executing jobs (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="DIR",
        help=(
            "persistent result-cache directory shared across restarts and "
            "`suite --cache-dir` runs (default: warm in-memory cache only)"
        ),
    )
    serve_parser.add_argument(
        "--quota-rate",
        type=float,
        default=20.0,
        metavar="TOKENS_PER_SECOND",
        help="per-client token-bucket refill rate; <= 0 disables quotas (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--quota-burst",
        type=int,
        default=40,
        metavar="TOKENS",
        help="per-client token-bucket capacity (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--request-timeout",
        type=float,
        default=300.0,
        metavar="SECONDS",
        help="default per-request budget when a job names none (default: %(default)s)",
    )
    serve_parser.add_argument(
        "--ready-file",
        metavar="FILE",
        default=None,
        help="write {host, port, pid} JSON here once listening (for scripts/CI)",
    )
    serve_parser.add_argument(
        "--preload",
        action="append",
        default=[],
        metavar="FILE",
        help="python file to exec before serving (register custom engines/designs); repeatable",
    )

    submit_parser = sub.add_parser(
        "submit",
        parents=[common],
        help="submit one job to a running coverage service",
    )
    submit_parser.add_argument("kind", choices=("check", "analyze"))
    submit_parser.add_argument("design", help="design name (validated server-side)")
    submit_parser.add_argument("--host", default="127.0.0.1", help="service address (default: %(default)s)")
    submit_parser.add_argument("--port", type=int, required=True, help="service port")
    submit_parser.add_argument(
        "--client",
        default=None,
        metavar="ID",
        help="client id for quota accounting (default: the connection's address)",
    )
    submit_parser.add_argument(
        "--job-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-request budget enforced by the server (default: server's)",
    )
    submit_parser.add_argument(
        "--index", type=_non_negative_int, default=None, metavar="N",
        help="check: only architectural conjunct N",
    )
    submit_parser.add_argument("--max-witnesses", type=int, default=None, help="analyze")
    submit_parser.add_argument("--depth", type=int, default=None, help="analyze")
    submit_parser.add_argument("--no-witnesses", action="store_true", help="analyze")
    submit_parser.add_argument(
        "--engine",
        choices=engine_names(),
        default=None,
        help="coverage engine (default: the server's default, explicit)",
    )
    submit_parser.add_argument(
        "--bound", type=_non_negative_int, default=None, help="bmc unrolling bound"
    )
    return parser


def _options_from_args(args: argparse.Namespace, **overrides) -> CoverageOptions:
    """Build CoverageOptions from the shared backend flags plus per-command overrides."""
    return CoverageOptions(
        engine=args.engine,
        bmc_max_bound=args.bound,
        **overrides,
    )


def _cmd_list() -> int:
    from .designs import CATALOG

    for name in design_names():
        entry = CATALOG[name]
        if entry.expected_covered is None:
            verdict = "?"
        else:
            verdict = "covered" if entry.expected_covered else "gap"
        print(f"{name:<15} [{verdict:^7}] {entry.description}")
    return 0


def _cmd_check(design: str, args: argparse.Namespace) -> int:
    # Both modes run the service's execution layer, so they answer the same
    # query; the --json payload byte-matches what `specmatcher submit check`
    # reports from a daemon (modulo timing fields).
    import json as _json

    from .service import (
        JobRequest,
        ProblemMemo,
        RequestValidationError,
        execute_job,
        exit_code_for,
        validate_request,
    )

    body = {"design": design, "engine": args.engine, "bound": args.bound}
    if args.index is not None:
        body["index"] = args.index
    try:
        # Only --json goes through the daemon's validation: its request
        # ceilings exist to protect the daemon, not one-shot text runs.
        request = validate_request("check", body) if args.json else JobRequest(kind="check", **body)
        problems = ProblemMemo()
        payload = execute_job(request, problems=problems)
    except RequestValidationError as exc:
        print(f"check: invalid request: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(_json.dumps(payload, indent=2, sort_keys=True))
        return exit_code_for(payload)
    verdict = payload["verdict"]
    print(f"design   : {problems.get(get_design(design)).name}")
    print(f"engine   : {payload['engine']}")
    if payload["winner"]:
        print(f"winner   : {payload['winner']}")
    if verdict["covered"] and not verdict["complete"]:
        print(f"covered  : {verdict['covered']} (up to bound {verdict['bound']})")
    else:
        print(f"covered  : {verdict['covered']}")
    print(f"time     : {payload['elapsed_seconds']:.3f} s")
    if not verdict["covered"] and verdict["witness"] is not None:
        from .rtl import render_table
        from .runner.cache import decode_trace

        print("witness run (first cycles):")
        print(render_table(decode_trace(verdict["witness"]).to_table(8)))
    return exit_code_for(payload)


def _cmd_analyze(design: str, args: argparse.Namespace) -> int:
    # The service's analyze job, run in-process, so `specmatcher submit
    # analyze` serves the same report.  The daemon's request ceilings exist
    # to protect the daemon, so a one-shot run is not validated against them.
    from .service import JobRequest, execute_job

    request = JobRequest(
        kind="analyze",
        design=design,
        engine=args.engine,
        bound=args.bound,
        max_witnesses=args.max_witnesses,
        depth=args.depth,
        witnesses=not args.no_witnesses,
    )
    print(execute_job(request)["report"])
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = []
    options = _options_from_args(args, max_witnesses=args.max_witnesses)
    for entry in table1_designs():
        problem = entry.builder()
        report = analyze_problem(problem, options)
        rows.append(report.table1_row())
    print(format_table1(rows))
    return 0


def _cmd_suite(args: argparse.Namespace) -> int:
    from .runner import expand_jobs, render_json, render_text, run_suite

    jobs = expand_jobs(
        args.designs,
        engine=args.engine,
        bound=args.bound,
        include_signals=not args.no_signals,
        random_count=args.random,
        random_seed=args.seed,
    )
    result = run_suite(
        jobs,
        workers=args.jobs,
        cache_dir=None if args.no_cache else args.cache_dir,
        use_cache=not args.no_cache,
        shard_timeout=args.timeout,
        trace=args.trace,
    )
    renderers = {"text": render_text, "json": render_json}
    report = renderers[args.report](result, profile=args.profile)
    counts = result.counts()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(
            f"suite: {len(result.shards)} shards in {result.wall_seconds:.2f} s "
            f"({counts['ok']} ok, {counts['error']} error, {counts['timeout']} timeout); "
            f"report written to {args.output}"
        )
    else:
        print(report)
    # CI must fail loudly: any errored or timed-out shard makes the run a
    # failure, and the offending shards go to stderr so they are visible even
    # when the report itself was redirected to a file.
    failed = [shard for shard in result.shards if not shard.ok]
    if failed:
        for shard in failed:
            print(
                f"suite FAILED shard {shard.job.job_id} [{shard.job.engine}]: "
                f"{shard.status} {shard.detail}".rstrip(),
                file=sys.stderr,
            )
        return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .runner.cache import cache_dir_stats, clear_cache_dir

    if args.action == "stats":
        stats = cache_dir_stats(args.cache_dir)
        print(f"cache dir : {stats['dir']}" + ("" if stats["exists"] else " (absent)"))
        print(f"entries   : {stats['entries']}")
        size = stats["size_bytes"]
        if size >= 1024 * 1024:
            human = f"{size / (1024 * 1024):.1f} MiB"
        elif size >= 1024:
            human = f"{size / 1024:.1f} KiB"
        else:
            human = f"{size} B"
        print(f"size      : {human} ({size} bytes)")
        return 0
    if args.action == "clear":
        import os

        if not os.path.isdir(args.cache_dir):
            print(f"cache dir {os.path.abspath(args.cache_dir)} does not exist; nothing to clear")
            return 0
        removed = clear_cache_dir(args.cache_dir)
        print(f"removed {removed} cache entr{'y' if removed == 1 else 'ies'} from "
              f"{os.path.abspath(args.cache_dir)}")
        return 0
    raise AssertionError(f"unhandled cache action {args.action!r}")  # pragma: no cover


def _cmd_serve(args: argparse.Namespace) -> int:
    import json as _json
    import os
    import signal as _signal
    import threading

    from .service import CoverageService, ServiceConfig

    for path in args.preload:
        # Execute plugin files (custom engines / designs) before the first
        # request — the registries are process-global, so anything they
        # register is immediately servable (and validates).
        import importlib.util

        spec = importlib.util.spec_from_file_location(
            f"specmatcher_preload_{abs(hash(path)) & 0xFFFF:x}", path
        )
        if spec is None or spec.loader is None:
            print(f"serve: cannot load preload file {path!r}", file=sys.stderr)
            return 2
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)

    service = CoverageService(
        ServiceConfig(
            host=args.host,
            port=args.port,
            workers=max(1, args.workers),
            cache_dir=args.cache_dir,
            quota_rate=args.quota_rate,
            quota_burst=max(1, args.quota_burst),
            request_timeout=args.request_timeout,
        )
    )
    port = service.start()
    if args.ready_file:
        payload = {"host": args.host, "port": port, "pid": os.getpid()}
        tmp = args.ready_file + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            _json.dump(payload, handle)
        os.replace(tmp, args.ready_file)
    print(f"specmatcher service listening on {args.host}:{port}", flush=True)

    stop = threading.Event()

    def _request_stop(signum, frame):  # pragma: no cover - signal path
        stop.set()

    previous = {}
    for signame in ("SIGTERM", "SIGINT"):
        signum = getattr(_signal, signame, None)
        if signum is not None:
            try:
                previous[signum] = _signal.signal(signum, _request_stop)
            except (ValueError, OSError):  # pragma: no cover - non-main thread
                pass
    try:
        stop.wait()
        print("specmatcher service draining (waiting for in-flight jobs)", flush=True)
        drained = service.drain()
        print(
            "specmatcher service stopped"
            + ("" if drained else " (drain timed out with jobs in flight)"),
            flush=True,
        )
        return 0 if drained else 1
    finally:
        for signum, handler in previous.items():
            try:
                _signal.signal(signum, handler)
            except (ValueError, OSError):  # pragma: no cover
                pass


def _cmd_submit(args: argparse.Namespace) -> int:
    import json as _json

    from .service import ServiceClient, ServiceError, ServiceUnavailable
    from .service.jobs import exit_code_for

    body = {"design": args.design}

    def put(field, value):
        if value is not None:
            body[field] = value

    put("engine", args.engine)
    put("bound", args.bound)
    put("timeout", args.job_timeout)
    if args.kind == "check":
        put("index", args.index)
    if args.kind == "analyze":
        put("max_witnesses", args.max_witnesses)
        put("depth", args.depth)
        if args.no_witnesses:
            body["witnesses"] = False

    client = ServiceClient(args.host, args.port, client_id=args.client)
    try:
        payload = client.submit(args.kind, body)
    except ServiceError as exc:
        print(
            _json.dumps(exc.payload, indent=2, sort_keys=True), file=sys.stderr
        )
        if exc.status == 429:
            return 3
        return 2
    except ServiceUnavailable as exc:
        print(f"submit: service unreachable: {exc}", file=sys.stderr)
        return 2
    print(_json.dumps(payload, indent=2, sort_keys=True))
    return exit_code_for(payload)


def _cmd_timing() -> int:
    design = build_full_mal_fig2()
    for title, stimulus in (
        ("Figure 3(a): cache hit for r1", hit_scenario_stimulus()),
        ("Figure 3(b): cache miss for r1", miss_scenario_stimulus()),
    ):
        trace = simulate(design, Stimulus.from_vectors(**stimulus), cycles=6)
        print(title)
        print(render_waveform(trace, ["r1", "r2", "n1", "n2", "g1", "g2", "hit", "wait", "d1", "d2"]))
        print()
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    exporter = None
    if getattr(args, "trace", None):
        from .obs import install_trace_exporter

        exporter = install_trace_exporter(args.trace)
    try:
        if args.command == "list":
            return _cmd_list()
        if args.command == "check":
            return _cmd_check(args.design, args)
        if args.command == "analyze":
            return _cmd_analyze(args.design, args)
        if args.command == "table1":
            return _cmd_table1(args)
        if args.command == "suite":
            return _cmd_suite(args)
        if args.command == "cache":
            return _cmd_cache(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "submit":
            return _cmd_submit(args)
        if args.command == "timing":
            return _cmd_timing()
        raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover
    finally:
        if exporter is not None:
            # Flush this process's metrics record even on error exits; worker
            # processes flush their own via atexit.
            exporter.close()


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
