"""``specmatcher serve --preload`` file of the ``service_mixed`` workload.

Runs inside the daemon before it serves.  It caps the daemon's address space,
registers the seeded random designs the workload asks for, and, when
``PERFBENCH_SPANS`` names a file, installs the benchmark's layer tracing and
writes the recorded spans there when the daemon exits.
"""

import atexit
import json
import os
import resource
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

_cap = int(os.environ["PERFBENCH_MEMORY_CAP"])
resource.setrlimit(resource.RLIMIT_AS, (_cap, _cap))

from repro.designs import register_random_designs  # noqa: E402

register_random_designs(int(os.environ["PERFBENCH_RANDOM_COUNT"]), int(os.environ["PERFBENCH_SEED"]))

_spans_path = os.environ.get("PERFBENCH_SPANS")
if _spans_path:
    import tracing

    _tracer = tracing.Tracer()
    tracing.install(_tracer, service=True)

    def _write_spans() -> None:
        with _tracer._lock:
            dump = {"spans": list(_tracer.spans), "attrs": dict(_tracer.attrs)}
        with open(_spans_path, "w", encoding="utf-8") as handle:
            json.dump(dump, handle)

    atexit.register(_write_spans)
