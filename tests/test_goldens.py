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
    # Left to right, as the simulator adds cycles: Python 3.12's sum()
    # compensates float rounding and can differ from 3.11 in the last
    # bit across several machines.
    clock = 0.0
    for machine in machines:
        clock += machine.clock.now
    return {
        "clock": clock,
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
    from repro.bench.serving import PoissonArrivals, ServingEngine

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
    engine.offer(PoissonArrivals(24, 3_000.0, seed=8),
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


def run_evict():
    """The key-miss path with running siblings, under every eviction
    policy: 40 one-page groups over 15 keys on a 4-core machine whose
    other 3 cores run siblings of the caller.  Ops are skewed
    ``mpk_begin``/write/``mpk_end`` pairs and ``mpk_mprotect`` READ/RW
    flips (misses evict, hits sync PKRU lazily); after a READ flip a
    running sibling reads the group.  A fourth sibling sleeps throughout
    and collects its PKRU updates as task_work, drained when it is
    finally scheduled."""
    import random

    from repro import PAGE_SIZE, PROT_READ, PROT_WRITE, Kernel, Libmpk, Machine
    from repro.core.keycache import EVICTION_POLICIES

    rw = PROT_READ | PROT_WRITE
    machines, kernels = [], []
    for policy in sorted(EVICTION_POLICIES):
        kernel = Kernel(Machine(num_cores=4, name=policy))
        process = kernel.create_process()
        main = process.main_task
        siblings = [process.spawn_task() for _ in range(3)]
        for sibling in siblings:
            kernel.scheduler.schedule(sibling, charge=False)
        sleeper = process.spawn_task()
        lib = Libmpk(process)
        lib.mpk_init(main, policy=policy, seed=7)
        bases = [lib.mpk_mmap(main, vkey, PAGE_SIZE, rw)
                 for vkey in range(40)]
        rng = random.Random(11)
        for index in range(300):
            vkey = int(40 * rng.random() ** 2)
            if rng.randrange(6) == 0:
                lib.mpk_mprotect(main, vkey, PROT_READ)
                main.read(bases[vkey], 8)
                siblings[index % 3].read(bases[vkey], 8)
                lib.mpk_mprotect(main, vkey, rw)
            else:
                lib.mpk_begin(main, vkey, rw)
                main.write(bases[vkey], b"%08d" % index)
                lib.mpk_end(main, vkey)
        kernel.scheduler.unschedule(siblings[2])
        kernel.scheduler.schedule(sleeper)
        assert lib.audit().ok
        machines.append(kernel.machine)
        kernels.append(kernel)
    return machines, kernels


SCENARIOS = {"serving": run_serving, "cluster": run_cluster,
             "table1": run_table1, "evict": run_evict}


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
