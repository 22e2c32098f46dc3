"""Pinned simulated results: the cycle ledgers a refactor must not move.

Each scenario runs a small deterministic workload and compares its
fingerprint — final clock, charge count, sha256 of the sorted per-site
ledger and scheduler preemptions — with ``goldens.json``.  The full
ledger is stored next to its hash so a mismatch can name the first site
that moved.  An intended recalibration of the cost model edits the JSON
by hand (the failure message prints the new fingerprint to paste).
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

GOLDENS_PATH = Path(__file__).with_name("goldens.json")
BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def fingerprint(machines, kernels) -> dict:
    ledger = sorted(
        (f"{machine.name}.{site}", cycles)
        for machine in machines
        for site, cycles in machine.obs.aggregator.cycles.items())
    return {
        "clock": sum(machine.clock.now for machine in machines),
        "charges": sum(machine.clock.events for machine in machines),
        "ledger_sha256": hashlib.sha256(
            json.dumps(ledger).encode()).hexdigest(),
        "preemptions": sum(k.scheduler.preemptions for k in kernels),
        "ledger": dict(ledger),
    }


def run_serving():
    """Memcached behind the serving engine, 4 workers on 2 cores: two
    runnable workers per core, so the quantum preempts."""
    from repro import Kernel, Libmpk, Machine
    from repro.apps.kvstore import Memcached, Twemperf
    from repro.apps.kvstore.slab import SLAB_BYTES
    from repro.bench.serving import ArrivalSchedule, ServingEngine

    kernel = Kernel(Machine(num_cores=8))
    process = kernel.create_process()
    main = process.main_task
    lib = Libmpk(process)
    lib.mpk_init(main)
    store = Memcached(kernel, process, main, mode="mpk_begin", lib=lib,
                      slab_bytes=4 * SLAB_BYTES, hash_buckets=1 << 10)
    perf = Twemperf(store, workers=4, requests_per_connection=10)
    engine = ServingEngine(kernel, cores=[1, 2], name="memcached")
    for i in range(4):
        engine.add_worker(process.spawn_task(), core_id=1 + i % 2)
    engine.offer(ArrivalSchedule.poisson(24, 3_000.0, seed=8),
                 perf.connection_job)
    engine.run()
    return [kernel.machine], [kernel]


def run_cluster():
    """A healthy 3-node cluster, 2 replicas per key, no fault script."""
    from repro.bench.cluster import _build_cluster

    cluster, client = _build_cluster(seed=29, nodes=3, connections=48,
                                     replicas=2)
    cluster.run()
    nodes = list(cluster.nodes.values())
    return ([node.machine for node in nodes] + [client.machine],
            [node.kernel for node in nodes])


def run_table1():
    """The Table 1 primitive microbenchmark, exactly as archived."""
    spec = importlib.util.spec_from_file_location(
        "bench_table1_primitives",
        BENCHMARKS / "bench_table1_primitives.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    _, bed = module.run_table1()
    return [bed.kernel.machine], [bed.kernel]


SCENARIOS = {"serving": run_serving, "cluster": run_cluster,
             "table1": run_table1}


def first_difference(expected: dict, actual: dict) -> str:
    for site in sorted(set(expected) | set(actual)):
        if expected.get(site) != actual.get(site):
            return (f"first differing site {site!r}: expected "
                    f"{expected.get(site)!r}, got {actual.get(site)!r}")
    return "ledgers agree site by site"


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_fingerprint_matches_golden(name):
    golden = json.loads(GOLDENS_PATH.read_text())[name]
    actual = fingerprint(*SCENARIOS[name]())
    if actual != golden:
        pytest.fail(
            f"{name}: simulated results moved; "
            f"{first_difference(golden['ledger'], actual['ledger'])}\n"
            f"new fingerprint:\n{json.dumps(actual, indent=2)}")


def test_serving_scenario_preempts():
    """The serving golden only pins the slice rule if it time-slices."""
    golden = json.loads(GOLDENS_PATH.read_text())["serving"]
    assert golden["preemptions"] > 0
