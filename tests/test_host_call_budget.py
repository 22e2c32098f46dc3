"""Host call budgets for the domain-switch, userspace-load, key-miss
and protect-syscall paths, for a served Memcached connection and for
the cluster's discrete-event loop.

The paper's hit-path claim is one hashmap lookup plus one WRPKRU per
domain switch; these tests keep the simulator's *host* cost of that
path small, and of the miss path (evict, PTE rewrite, shootdown, lazy
PKRU sync) too.  They count the Python-level calls one operation makes,
which (unlike wall time) is bit-identical run to run.  Only named
functions count: frames whose ``co_name`` starts with ``<``
(``<lambda>``, and the comprehensions that Python 3.12 inlines) are
skipped, so the counts agree across 3.11 and 3.12.  A budget failure
prints the calls split by layer (``repro.<layer>``).

Each budget constant below carries, in its comment, the count it was
set from (Python 3.11.7), and sits at most about 5% above it.  The
counters live in :mod:`repro.bench.harness`, so an interpreter without
pytest can take the same counts.
"""

from __future__ import annotations

import pytest

from repro import PAGE_SIZE, PROT_READ, PROT_WRITE, Kernel, Libmpk, Machine
from repro.apps.kvstore import Memcached, Twemperf
from repro.apps.kvstore.slab import SLAB_BYTES
from repro.bench.cluster import _build_cluster
from repro.bench.harness import calls_by_layer, named_calls
from repro.bench.serving import PoissonArrivals, ServingEngine

RW = PROT_READ | PROT_WRITE
VKEY = 100

#: Budgets: named Python calls per operation.
#: A cached ``mpk_begin`` + ``mpk_end`` pair: 21.
PAIR_BUDGET = 22
#: A cached 8-byte ``Task.read`` or ``Task.write``: 4.
LOAD_BUDGET = 4
STORE_BUDGET = 4
#: The same load after a TLB flush (a miss and a page walk): 12; the
#: next integer, 13, is 8% above it.
TLB_MISS_LOAD_BUDGET = 12
#: An evicting ``mpk_begin`` + ``mpk_end`` pair with 3 running
#: siblings: 145.
EVICT_PAIR_BUDGET = 147
#: An ``mpk_mprotect`` that misses and evicts: 142.
MISS_MPROTECT_BUDGET = 144
#: A one-page ``pkey_mprotect``: 23.
PKEY_MPROTECT_BUDGET = 24
#: Named Python calls per client connection of a healthy 3-node,
#: 2-replica cluster run (``_build_cluster``, seed 5, 48
#: connections): 1,616.9.
CLUSTER_BUDGET = 1_655
#: Named Python calls per connection served by Memcached in
#: ``mpk_begin`` mode (``_serving``: 48 connections of 2 requests):
#: 236.1.
SERVE_BUDGET = 243


def within_budget(fn, budget: int, per: int = 1) -> None:
    """Fail, printing the per-layer split, when the named calls of
    ``fn()`` divided by ``per`` exceed ``budget``."""
    layers = calls_by_layer(fn)
    calls = sum(layers.values()) / per
    split = ", ".join(f"{layer} {count / per:g}"
                      for layer, count in layers.most_common())
    assert calls <= budget, f"{calls:g} calls > {budget} ({split})"


@pytest.fixture
def cached():
    """A task with ``VKEY``'s group cached, its page and TLB entry warm,
    and no domain open."""
    kernel = Kernel(Machine(num_cores=2))
    process = kernel.create_process()
    task = process.main_task
    lib = Libmpk(process)
    lib.mpk_init(task)
    base = lib.mpk_mmap(task, VKEY, PAGE_SIZE, RW)
    lib.mpk_begin(task, VKEY, RW)
    task.write(base, b"warm-up!")
    assert task.read(base, 8) == b"warm-up!"
    lib.mpk_end(task, VKEY)
    return lib, task, base


def _churned():
    """40 one-page groups over 15 hardware keys, each touched three
    times round-robin, on a 4-core machine whose other 3 cores run
    siblings of the caller, so every further load evicts, rewrites
    PTEs, shoots down 3 TLBs and syncs 3 PKRUs lazily."""
    kernel = Kernel(Machine(num_cores=4))
    process = kernel.create_process()
    task = process.main_task
    for _ in range(3):
        kernel.scheduler.schedule(process.spawn_task(), charge=False)
    lib = Libmpk(process)
    lib.mpk_init(task)
    vkeys = range(VKEY, VKEY + 40)
    bases = [lib.mpk_mmap(task, vkey, PAGE_SIZE, RW) for vkey in vkeys]
    for _ in range(3):
        for vkey, base in zip(vkeys, bases):
            lib.mpk_begin(task, vkey, RW)
            task.write(base, b"x")
            lib.mpk_end(task, vkey)
    assert lib.cache.peek(VKEY) is None
    return lib, task


@pytest.fixture
def churning():
    return _churned()


def test_cached_domain_switch_pair(cached):
    lib, task, _ = cached
    within_budget(lambda: (lib.mpk_begin(task, VKEY, RW),
                           lib.mpk_end(task, VKEY)), PAIR_BUDGET)


def test_cached_load(cached):
    lib, task, base = cached
    with lib.domain(task, VKEY, RW):
        within_budget(lambda: task.read(base, 8), LOAD_BUDGET)


def test_cached_store(cached):
    lib, task, base = cached
    with lib.domain(task, VKEY, RW):
        within_budget(lambda: task.write(base, b"12345678"), STORE_BUDGET)


def test_tlb_miss_load(cached):
    """A one-page load whose translation is not cached: the miss, the
    page-table lookup, the walk charge and the fill."""
    lib, task, base = cached
    tlb = task.process.kernel.machine.core(task.core_id).tlb
    with lib.domain(task, VKEY, RW):
        tlb.flush()
        misses = tlb.stats.misses
        within_budget(lambda: task.read(base, 8), TLB_MISS_LOAD_BUDGET)
    assert tlb.stats.misses == misses + 1


def test_evicting_domain_switch_pair(churning):
    lib, task = churning
    evictions = lib.cache.stats_evictions
    within_budget(lambda: (lib.mpk_begin(task, VKEY, RW),
                           lib.mpk_end(task, VKEY)), EVICT_PAIR_BUDGET)
    assert lib.cache.stats_evictions == evictions + 1


def test_missing_mpk_mprotect(churning):
    lib, task = churning
    evictions = lib.cache.stats_evictions
    within_budget(lambda: lib.mpk_mprotect(task, VKEY, PROT_READ),
                  MISS_MPROTECT_BUDGET)
    assert lib.cache.stats_evictions == evictions + 1


def _protecting():
    """A one-page mapping, populated and TLB-warm, tagged with an
    allocated pkey on a 2-core machine; its first ``pkey_mprotect``
    (which creates the syscall's span node) is already done."""
    kernel = Kernel(Machine(num_cores=2))
    task = kernel.create_process().main_task
    key = kernel.sys_pkey_alloc(task)
    addr = kernel.sys_mmap(task, PAGE_SIZE, RW)
    task.write(addr, b"x")
    kernel.sys_pkey_mprotect(task, addr, PAGE_SIZE, RW, key)
    return kernel, task, addr, key


def test_one_page_pkey_mprotect():
    """The protect syscall chain: entry, VMA lookup (the cached exact
    fit), PTE rewrite, itemized charges and the precise shootdown."""
    kernel, task, addr, key = _protecting()
    within_budget(lambda: kernel.sys_pkey_mprotect(
        task, addr, PAGE_SIZE, PROT_READ, key), PKEY_MPROTECT_BUDGET)
    assert kernel.machine.cores[0].tlb.stats.page_invalidations == 2


def _serving(connections):
    """Memcached in ``mpk_begin`` mode behind the serving engine, 4
    workers on 2 cores, ``connections`` Poisson arrivals of 2 requests
    each (the shape of perfbench's ``serve_memcached``)."""
    kernel = Kernel(Machine(num_cores=3))
    process = kernel.create_process()
    main = process.main_task
    lib = Libmpk(process)
    lib.mpk_init(main)
    store = Memcached(kernel, process, main, mode="mpk_begin", lib=lib,
                      slab_bytes=4 * SLAB_BYTES, hash_buckets=1 << 10)
    perf = Twemperf(store, workers=4, requests_per_connection=2)
    engine = ServingEngine(kernel, cores=[1, 2], name="memcached")
    for i in range(4):
        engine.add_worker(process.spawn_task(), core_id=1 + i % 2)
    engine.offer(PoissonArrivals(connections, 4_300.0, seed=8),
                 perf.connection_job)
    return engine


def test_serving_calls_per_connection():
    """A protected request's host cost: two domain windows, the loads
    inside them and the engine's scheduling."""
    connections = 48
    engine = _serving(connections)
    reports = []
    within_budget(lambda: reports.append(engine.run()), SERVE_BUDGET,
                  per=connections)
    assert reports[0].completed == connections


def test_cluster_calls_per_connection():
    """The event loop's plumbing (driver polls, plane heap, digests)
    stays a small share of a connection's host cost."""
    connections = 48
    cluster, client = _build_cluster(5, nodes=3, connections=connections,
                                     replicas=2)
    within_budget(cluster.run, CLUSTER_BUDGET, per=connections)
    assert client.ledger()["completed"] == connections


def test_counter_sees_the_calls():
    """The counter itself: a named call counts, a lambda frame does
    not."""
    def leaf():
        return 1

    assert named_calls(lambda: leaf()) == 1
    assert named_calls(lambda: None) == 0


def test_layer_counts_add_up():
    """Every named call lands in exactly one layer: the split of an
    evicting pair sums to the plain count of the same pair on an
    identically built system, and names the layers its path crosses."""
    counts = []
    for count in (calls_by_layer, named_calls):
        lib, task = _churned()
        counts.append(count(lambda: (lib.mpk_begin(task, VKEY, RW),
                                     lib.mpk_end(task, VKEY))))
    layers, total = counts
    assert sum(layers.values()) == total
    assert {"core", "kernel", "hw", "obs"} <= set(layers)
    assert "other" not in layers
