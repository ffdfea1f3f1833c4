"""The benchmark's workloads: which ops one run replays, as a fixed function of the seed.

An op is a plain dict (JSON-ready), so an op list can be printed, compared
byte for byte, and sent to another process.  Every random choice comes from
``random.Random(seed)``; nothing depends on ``PYTHONHASHSEED`` or set order.

A run does a fixed amount of work: the op count is the ``--seconds`` value
times a per-workload rate measured when the benchmark was defined.  Fixed work
keeps the sample count, and with it the percentile the tail metric reports,
identical between commits, so a faster commit shows as a shorter run with the
same ops rather than as a different mix.
"""

from __future__ import annotations

import math
import random
from typing import List, Tuple

#: Designs whose symbolic primary check finishes in under 3 s; amba_ahb and
#: mal_table1 take 39 s / 1 GB and 29 s there.
SYMBOLIC_DESIGNS = ("intel_like", "mal_fig2", "mal_fig4", "paper_example", "telemetry_bank")
#: Every engine stops its bounded search at this bound (mal_fig2 takes 19 s at 12).
BMC_BOUND = 6
#: Random designs per ``primary_sweep`` pass (2 ops each), of the default
#: ``RandomDesignSpec`` size.  Their checks take 3-90 ms, always below the
#: catalog cells around the median; larger designs (4 registers) take up to
#: 1.3 s depending on the seed and made the median jump between seeds.
PRIMARY_RANDOM_DESIGNS = 2
#: ``--seconds`` per ``primary_sweep`` pass (one pass takes ~11 s).
PRIMARY_SECONDS_PER_PASS = 10

#: Catalog cells of ``gap_analysis``: (design, engine).
GAP_CELLS = (
    ("mal_fig4", "explicit"),
    ("mal_fig4", "bmc"),
    ("paper_example", "explicit"),
    ("paper_example", "bmc"),
    ("mal_table1", "bmc"),
    ("amba_ahb", "bmc"),
)
#: Default-size random designs per ``gap_analysis`` pass (2 ops each).
GAP_RANDOM_DESIGNS = 1
#: ``--seconds`` per ``gap_analysis`` pass.  One pass takes ~20 s, but its
#: median rests on a handful of 1-2 s ops, so a run makes at least two.
GAP_SECONDS_PER_PASS = 12
#: The reduced Algorithm-1 options every ``gap_analysis`` op uses.
GAP_OPTIONS = dict(max_witnesses=2, unfold_depth=3, max_closure_checks=2, bmc_max_bound=BMC_BOUND)

#: ``service_mixed`` requests per ``--seconds`` (the daemon serves 150-220/s).
SERVICE_REQUESTS_PER_SECOND = 120
#: One request in this many asks a key the daemon has not answered yet.
SERVICE_NEW_KEY_EVERY = 10
#: Engine configurations of ``service_mixed`` keys: (engine, bound).
SERVICE_ENGINES = (("explicit", BMC_BOUND), ("bmc", 4), ("bmc", BMC_BOUND))

WORKLOADS = ("primary_sweep", "gap_analysis", "service_mixed")


def catalog_conjuncts() -> List[Tuple[str, int]]:
    """(design, conjunct index) of every catalog architectural property, sorted."""
    from repro.designs import CATALOG

    cells = []
    for name in sorted(CATALOG):
        for index in range(len(CATALOG[name].builder().architectural)):
            cells.append((name, index))
    return cells


def random_specs(seed: int, count: int):
    """The first ``count`` default-size random designs of ``seed``."""
    from repro.designs.random import RandomDesignSpec

    return [RandomDesignSpec(seed=seed, index=index) for index in range(count)]


def service_random_count(seconds: int) -> int:
    """Random designs the daemon registers: enough that every new key is distinct."""
    new_keys = service_request_count(seconds) // SERVICE_NEW_KEY_EVERY
    catalog_keys = len(catalog_conjuncts()) * len(SERVICE_ENGINES)
    return max(1, math.ceil((new_keys + 1 - catalog_keys) / len(SERVICE_ENGINES)))


def service_request_count(seconds: int) -> int:
    return max(SERVICE_NEW_KEY_EVERY, seconds * SERVICE_REQUESTS_PER_SECOND)


def _passes(seconds: int, seconds_per_pass: int) -> int:
    return max(1, seconds // seconds_per_pass)


def primary_ops(seed: int, seconds: int) -> List[dict]:
    """``primary_sweep``: single primary checks, each pass a seeded shuffle of every cell."""
    cells = []
    for design, index in catalog_conjuncts():
        engines = ["explicit", "bmc"] + (["symbolic"] if design in SYMBOLIC_DESIGNS else [])
        for engine in engines:
            cells.append({"design": design, "conjunct": index, "engine": engine})
    for spec in random_specs(seed, PRIMARY_RANDOM_DESIGNS):
        for engine in ("explicit", "bmc"):
            cells.append({"design": spec.name, "conjunct": 0, "engine": engine})
    return _shuffled_passes(cells, seed, _passes(seconds, PRIMARY_SECONDS_PER_PASS))


def gap_ops(seed: int, seconds: int) -> List[dict]:
    """``gap_analysis``: one Algorithm-1 run per op, each pass a seeded shuffle of every cell."""
    cells = [{"design": design, "engine": engine} for design, engine in GAP_CELLS]
    for spec in random_specs(seed, GAP_RANDOM_DESIGNS):
        for engine in ("explicit", "bmc"):
            cells.append({"design": spec.name, "engine": engine})
    return _shuffled_passes(cells, seed, _passes(seconds, GAP_SECONDS_PER_PASS))


def _shuffled_passes(cells: List[dict], seed: int, passes: int) -> List[dict]:
    rng = random.Random(seed)
    ops: List[dict] = []
    for _ in range(passes):
        order = list(cells)
        rng.shuffle(order)
        ops.extend(dict(cell) for cell in order)
    return ops


def service_keys(seed: int, seconds: int) -> List[dict]:
    """Every key ``service_mixed`` may request, in the order of their first request.

    Random-design keys come in a seeded order.  Catalog keys, the slowest
    first requests and so the ones that set the tail, come in one fixed order
    spread evenly among them, so that the seed does not decide which catalog
    keys a run reaches early (and which later ones find their design's
    compiled automata already in the memo).
    """
    from repro.designs.random import RandomDesignSpec

    catalog = [
        {"design": design, "index": index, "engine": engine, "bound": bound}
        for design, index in catalog_conjuncts()
        for engine, bound in SERVICE_ENGINES
    ]
    keys = [
        {"design": RandomDesignSpec(seed=seed, index=number).name, "index": 0,
         "engine": engine, "bound": bound}
        for number in range(service_random_count(seconds))
        for engine, bound in SERVICE_ENGINES
    ]
    random.Random(seed).shuffle(keys)
    step = len(keys) // len(catalog) + 1
    for position, key in enumerate(catalog):
        keys.insert(1 + position * step, key)
    return keys


def service_ops(seed: int, seconds: int) -> Tuple[dict, List[dict]]:
    """``(warm_up, requests)`` of ``service_mixed``.

    The warm-up request asks the first key, so the daemon has answered it
    before the timed window.  In every block of ``SERVICE_NEW_KEY_EVERY``
    requests exactly one, at a seeded position, asks a key not asked before;
    the others repeat a key asked earlier, chosen uniformly.
    """
    keys = service_keys(seed, seconds)
    rng = random.Random(seed * 7919 + 1)
    warm_up = dict(keys[0])
    seen = [warm_up]
    fresh = iter(keys[1:])
    requests: List[dict] = []
    total = service_request_count(seconds)
    for _ in range(total // SERVICE_NEW_KEY_EVERY):
        new_at = rng.randrange(SERVICE_NEW_KEY_EVERY)
        for slot in range(SERVICE_NEW_KEY_EVERY):
            key = next(fresh, None) if slot == new_at else None
            if key is None:
                key = seen[rng.randrange(len(seen))]
            else:
                seen.append(key)
            requests.append(dict(key))
    return warm_up, requests

