"""The four perfbench workloads.

Each workload turns ``--seed`` into fixed inputs once, then runs any
number of identical *episodes*.  An episode builds a fresh simulated
system (:meth:`setup`, timed as set-up), drives the inputs through it
(:meth:`run`, the timed phase) and is then checked.  Every episode of a
run does the same simulated work, so every episode must end with the
same simulated fingerprint.

* ``serve_memcached`` — open loop in simulated time: Poisson connection
  arrivals into the serving engine, 4 workers on 2 cores, Memcached in
  ``mpk_begin`` mode.  Exercises obs (charges), bench and apps; its two
  vkeys always hit the key cache.
* ``keycache_churn`` — closed loop, one caller: 1000 page groups over 15
  hardware keys with skewed picks, so key virtualization evicts, and
  each eviction rewrites PTEs and shoots down 3 sibling threads.
* ``mmu_stream`` — closed loop, one caller: 64 KiB protected-buffer
  round trips over 8 always-cached groups (the Fig. 8 shape).  The hw
  MMU/TLB path with no evictions and no engine.
* ``cluster_replicated`` — open loop: a FleetClient sends Poisson
  connections over the network plane to a healthy 3-node cluster with
  2 replicas per key.  The only workload that exercises net.
"""

from __future__ import annotations

import hashlib
import json
import random
import time
import traceback
import typing
from dataclasses import dataclass, field

from repro import Kernel, Libmpk, Machine, PAGE_SIZE, PROT_READ, PROT_WRITE
from repro.apps.kvstore import Memcached, Twemperf
from repro.apps.kvstore.slab import SLAB_BYTES
from repro.bench.serving import ArrivalSchedule, ServingEngine
from repro.consts import CLOCK_HZ
from repro.net import Cluster, FleetClient, NetworkPlane, ShardMap

RW = PROT_READ | PROT_WRITE


# ---------------------------------------------------------------------------
# Inputs and shared plumbing.
# ---------------------------------------------------------------------------

def poisson_arrivals(seed: int, count: int, rate_per_s: float) -> tuple:
    """``count`` arrival times in cycles with exponential gaps.  The
    benchmark draws its own inputs rather than calling the simulator's
    arrival generators, so a change there cannot change the inputs."""
    rng = random.Random(seed)
    mean_gap = CLOCK_HZ / rate_per_s
    now = 0.0
    arrivals = []
    for _ in range(count):
        now += rng.expovariate(1.0) * mean_gap
        arrivals.append(now)
    return tuple(arrivals)


class Recorder:
    """Host clock readings at op completions.

    ``mark()`` is called once per completed op: after each op by a
    closed-loop caller, from the completion hook in an open loop.  Host
    time per op is the gap between consecutive marks (the first measured
    from ``start()``), which for an open loop is the host cost of the
    simulation work that produced that completion.  Process CPU time is
    read at ``start()`` and after every ``window``-th mark (often enough
    to be kept per short stretch of ops, rarely enough to cost nothing).
    """

    def __init__(self, window: int) -> None:
        self.window = window
        self.stamps: list[float] = []
        self.cpu: list[float] = []

    def start(self) -> None:
        self.stamps.append(time.perf_counter())
        self.cpu.append(time.process_time())

    def mark(self, *_ignored) -> None:
        stamps = self.stamps
        stamps.append(time.perf_counter())
        if len(stamps) % self.window == 1:
            self.cpu.append(time.process_time())


class MarkingList(list):
    """A list that marks the recorder on every append.

    The FleetClient appends each completed connection's simulated time
    to ``completion_times``; swapping in this list times completions on
    the host without touching the simulation."""

    def __init__(self, recorder: Recorder) -> None:
        super().__init__()
        self.recorder = recorder

    def append(self, item) -> None:
        self.recorder.mark()
        super().append(item)


def report_failure(workload: str, what: str) -> None:
    """Print the first failing op's traceback, once per episode."""
    print(f"perfbench {workload}: {what} raised:", flush=True)
    traceback.print_exc()


@dataclass
class Sim:
    """A built simulated system plus the handles checks and counters
    read.  ``machines`` fixes the order of every cross-machine sum."""

    machines: list
    kernels: list
    libs: list
    stores: list = field(default_factory=list)
    plane: typing.Any = None
    parts: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one timed phase did."""

    attempted: int
    failed: int


def fingerprint(sim: Sim, completed: int) -> dict:
    """Simulated result of an episode: total clock, charge count, sha256
    of the sorted site ledger, key-cache and TLB counters."""
    ledger = sorted(
        (f"{machine.name}.{site}", cycles)
        for machine in sim.machines
        for site, cycles in machine.obs.aggregator.cycles.items())
    cores = [core for machine in sim.machines for core in machine.cores]
    caches = [lib.cache for lib in sim.libs]
    return {
        "clock": sum(machine.clock.now for machine in sim.machines),
        "charges": sum(machine.clock.events for machine in sim.machines),
        "ledger_sha256": hashlib.sha256(
            json.dumps(ledger).encode()).hexdigest(),
        "keycache": [sum(c.stats_hits for c in caches),
                     sum(c.stats_misses for c in caches),
                     sum(c.stats_evictions for c in caches)],
        "tlb": [sum(c.tlb.stats.hits for c in cores),
                sum(c.tlb.stats.misses for c in cores),
                sum(c.tlb.stats.page_invalidations for c in cores)],
        "completed": completed,
    }


def counters(sim: Sim) -> dict:
    """Counters the layers already keep, summed over the system."""
    cores = [core for machine in sim.machines for core in machine.cores]
    mms = [process.mm for kernel in sim.kernels
           for process in kernel.processes]
    caches = [lib.cache for lib in sim.libs]
    plane = sim.plane
    return {
        "charges": sum(m.clock.events for m in sim.machines),
        "context_switches": sum(k.scheduler.context_switches
                                for k in sim.kernels),
        "preemptions": sum(k.scheduler.preemptions for k in sim.kernels),
        "ipis": sum(k.scheduler.ipis_sent for k in sim.kernels),
        "get_hits": sum(s.stats_hits for s in sim.stores),
        "get_misses": sum(s.stats_misses for s in sim.stores),
        "key_lookups": sum(c.stats_lookups for c in caches),
        "key_hits": sum(c.stats_hits for c in caches),
        "key_evictions": sum(c.stats_evictions for c in caches),
        "vma_lookups": sum(mm.vma_cache_lookups for mm in mms),
        "vma_hits": sum(mm.vma_cache_hits for mm in mms),
        "tlb_hits": sum(c.tlb.stats.hits for c in cores),
        "tlb_misses": sum(c.tlb.stats.misses for c in cores),
        "tlb_page_invalidations": sum(c.tlb.stats.page_invalidations
                                      for c in cores),
        "net_sent": plane.sent if plane is not None else 0,
        "net_delivered": plane.delivered if plane is not None else 0,
    }


def audit(sim: Sim) -> list[str]:
    """libmpk's cross-layer audit and every machine's obs conservation
    audit (sum of per-site cycles == clock, registered invariants)."""
    problems = []
    for lib in sim.libs:
        report = lib.audit()
        if not report.ok:
            problems.append(f"Libmpk.audit: {report.violations}")
    for machine in sim.machines:
        ok, delta = machine.obs.audit()
        if not ok:
            problems.append(
                f"{machine.name}: obs audit failed (delta {delta}, "
                f"{machine.obs.invariant_failures()})")
    return problems


# ---------------------------------------------------------------------------
# The workloads.
# ---------------------------------------------------------------------------

class ServeMemcached:
    """Fig. 14 Memcached behind the serving engine (open loop)."""

    name = "serve_memcached"
    loop = "open"
    CONNECTIONS = 2_000
    #: About 75-80% of the 2-core service capacity at 2 requests per
    #: connection, so the backlog stays bounded and nothing is shed.
    RATE_PER_S = 4_300.0
    WORKERS = 4
    CORES = (1, 2)

    def __init__(self, seed: int) -> None:
        self.arrivals = poisson_arrivals(seed, self.CONNECTIONS,
                                         self.RATE_PER_S)

    def setup(self) -> Sim:
        kernel = Kernel(Machine(num_cores=8))
        process = kernel.create_process()   # main task takes core 0
        main = process.main_task
        lib = Libmpk(process)
        lib.mpk_init(main)
        store = Memcached(kernel, process, main, mode="mpk_begin", lib=lib,
                          slab_bytes=4 * SLAB_BYTES, hash_buckets=1 << 10)
        perf = Twemperf(store, workers=self.WORKERS,
                        requests_per_connection=2)
        engine = ServingEngine(kernel, cores=list(self.CORES),
                               retain_records=False, name="memcached")
        for i in range(self.WORKERS):
            engine.add_worker(process.spawn_task(),
                              core_id=self.CORES[i % len(self.CORES)])
        engine.offer(ArrivalSchedule(self.arrivals), perf.connection_job)
        return Sim(machines=[kernel.machine], kernels=[kernel], libs=[lib],
                   stores=[store], parts={"engine": engine})

    def run(self, sim: Sim, recorder: Recorder) -> Outcome:
        engine = sim.parts["engine"]
        engine.on_complete = recorder.mark
        recorder.start()
        report = engine.run()
        sim.parts["report"] = report
        return Outcome(report.offered, report.offered - report.completed)

    def check(self, sim: Sim) -> list[str]:
        report = sim.parts["report"]
        problems = audit(sim)
        accounted = (report.completed + report.aborted + report.shed
                     + report.unserved)
        if accounted != report.offered:
            problems.append(
                f"engine accounting: offered {report.offered} != "
                f"completed + aborted + shed + unserved {accounted}")
        return problems


class KeycacheChurn:
    """Key virtualization under eviction (closed loop, one caller)."""

    name = "keycache_churn"
    loop = "closed"
    OPS = 5_000
    GROUPS = 1_000
    THREADS = 4
    VKEY_BASE = 1_000
    #: vkey = floor(GROUPS * u**SKEW): a hot set plus a long cold tail.
    SKEW = 4

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        # (vkey, is an mpk_mprotect READ->RW pair); one op in eight is.
        self.plan = [
            (self.VKEY_BASE + min(self.GROUPS - 1,
                                  int(self.GROUPS * rng.random()
                                      ** self.SKEW)),
             rng.randrange(8) == 0)
            for _ in range(self.OPS)]

    def setup(self) -> Sim:
        kernel = Kernel(Machine(num_cores=self.THREADS))
        process = kernel.create_process()
        task = process.main_task
        # Running siblings: every PTE rewrite shoots their TLBs down and
        # every mpk_mprotect syncs their PKRU lazily (paper §4.4).
        for _ in range(self.THREADS - 1):
            kernel.scheduler.schedule(process.spawn_task(), charge=False)
        lib = Libmpk(process)
        lib.mpk_init(task)
        bases = {vkey: lib.mpk_mmap(task, vkey, PAGE_SIZE, RW)
                 for vkey in range(self.VKEY_BASE,
                                   self.VKEY_BASE + self.GROUPS)}
        return Sim(machines=[kernel.machine], kernels=[kernel], libs=[lib],
                   parts={"task": task, "bases": bases})

    def run(self, sim: Sim, recorder: Recorder) -> Outcome:
        lib = sim.libs[0]
        task = sim.parts["task"]
        bases = sim.parts["bases"]
        written: dict = {}
        failed = 0
        mark = recorder.mark
        recorder.start()
        for index, (vkey, flip) in enumerate(self.plan):
            try:
                if flip:
                    lib.mpk_mprotect(task, vkey, PROT_READ)
                    lib.mpk_mprotect(task, vkey, RW)
                else:
                    payload = b"%064d" % index
                    lib.mpk_begin(task, vkey, RW)
                    task.write(bases[vkey], payload)
                    lib.mpk_end(task, vkey)
                    written[vkey] = payload
            except Exception:
                if not failed:
                    report_failure(self.name, f"op {index}")
                failed += 1
            mark()
        sim.parts["written"] = written
        return Outcome(len(self.plan), failed)

    def check(self, sim: Sim) -> list[str]:
        """Audits, then read every written group back inside a READ
        domain (this moves the simulation on, so it runs after the
        fingerprint is taken)."""
        problems = audit(sim)
        lib = sim.libs[0]
        task = sim.parts["task"]
        bases = sim.parts["bases"]
        for vkey, payload in sorted(sim.parts["written"].items()):
            lib.mpk_begin(task, vkey, PROT_READ)
            try:
                data = task.read(bases[vkey], len(payload))
            finally:
                lib.mpk_end(task, vkey)
            if data != payload:
                problems.append(f"vkey {vkey}: read back {data[:16]!r}..., "
                                f"wrote {payload[:16]!r}...")
                break
        return problems


class MmuStream:
    """Protected-buffer round trips through the MMU (closed loop)."""

    name = "mmu_stream"
    loop = "closed"
    OPS = 8_000
    GROUPS = 8
    PAGES = 16
    VKEY_BASE = 100
    PAYLOADS = 4

    def __init__(self, seed: int) -> None:
        rng = random.Random(seed)
        size = self.PAGES * PAGE_SIZE
        self.order = [rng.randrange(self.GROUPS) for _ in range(self.OPS)]
        self.payloads = [rng.randbytes(size) for _ in range(self.PAYLOADS)]

    def setup(self) -> Sim:
        kernel = Kernel(Machine(num_cores=2))
        process = kernel.create_process()
        task = process.main_task
        lib = Libmpk(process)
        lib.mpk_init(task)
        buffers = []
        for group in range(self.GROUPS):
            vkey = self.VKEY_BASE + group
            addr = lib.mpk_mmap(task, vkey, self.PAGES * PAGE_SIZE, RW)
            lib.mpk_mprotect(task, vkey, RW)
            buffers.append((vkey, addr))
        return Sim(machines=[kernel.machine], kernels=[kernel], libs=[lib],
                   parts={"task": task, "buffers": buffers})

    def run(self, sim: Sim, recorder: Recorder) -> Outcome:
        lib = sim.libs[0]
        task = sim.parts["task"]
        buffers = sim.parts["buffers"]
        payloads = self.payloads
        size = self.PAGES * PAGE_SIZE
        failed = 0
        mark = recorder.mark
        recorder.start()
        for index, group in enumerate(self.order):
            vkey, addr = buffers[group]
            payload = payloads[index % len(payloads)]
            try:
                lib.mpk_mprotect(task, vkey, RW)
                task.write(addr, payload)
                lib.mpk_mprotect(task, vkey, PROT_READ)
                if task.read(addr, size) != payload:
                    failed += 1
            except Exception:
                if not failed:
                    report_failure(self.name, f"op {index}")
                failed += 1
            mark()
        return Outcome(len(self.order), failed)

    def check(self, sim: Sim) -> list[str]:
        return audit(sim)


class ClusterReplicated:
    """A healthy replicated memcached cluster (open loop)."""

    name = "cluster_replicated"
    loop = "open"
    CONNECTIONS = 1_000
    RATE_PER_S = 2_000.0
    NODES = 3
    REPLICAS = 2
    REQUESTS_PER_CONNECTION = 6

    def __init__(self, seed: int) -> None:
        self.arrivals = poisson_arrivals(seed, self.CONNECTIONS,
                                         self.RATE_PER_S)

    @staticmethod
    def _node(name: str, incarnation: int) -> dict:
        """One cluster member: the serve_memcached store and engine on
        its own machine."""
        kernel = Kernel(Machine(num_cores=4, name=name))
        process = kernel.create_process()   # main task takes core 0
        main = process.main_task
        lib = Libmpk(process)
        lib.mpk_init(main)
        # Room for every replica an episode stores: a Memcached LRU
        # eviction would leave the cluster's version table claiming an
        # item the store dropped, which Cluster.audit() reports.
        store = Memcached(kernel, process, main, mode="mpk_begin", lib=lib,
                          slab_bytes=16 * SLAB_BYTES, hash_buckets=1 << 12,
                          begin_timeout=5_000_000.0)
        cores = [1, 2]
        engine = ServingEngine(kernel, cores=cores, queue_limit=16,
                               retain_records=False, name=name)
        for i in range(4):
            engine.add_worker(process.spawn_task(), core_id=cores[i % 2])
        return {"machine": kernel.machine, "kernel": kernel,
                "process": process, "lib": lib, "store": store,
                "engine": engine, "pool": None}

    def setup(self) -> Sim:
        names = [f"node{i}" for i in range(self.NODES)]
        plane = NetworkPlane()
        cluster = Cluster(names, self._node, plane,
                          ShardMap(names, replicas=self.REPLICAS))
        client = FleetClient(
            plane, "client", ShardMap(names, replicas=self.REPLICAS),
            Machine(num_cores=1, name="client"), arrivals=self.arrivals,
            requests_per_connection=self.REQUESTS_PER_CONNECTION,
            rpc_timeout=15e6, max_attempts=3, backoff_base=2e6,
            backoff_cap=8e6, suspect_cycles=30e6)
        cluster.attach_client(client)
        nodes = list(cluster.nodes.values())
        return Sim(machines=[n.machine for n in nodes] + [client.machine],
                   kernels=[n.kernel for n in nodes],
                   libs=[n.lib for n in nodes],
                   stores=[n.store for n in nodes], plane=plane,
                   parts={"cluster": cluster, "client": client})

    def run(self, sim: Sim, recorder: Recorder) -> Outcome:
        cluster = sim.parts["cluster"]
        client = sim.parts["client"]
        client.completion_times = MarkingList(recorder)
        recorder.start()
        cluster.run()
        return Outcome(client.offered, client.offered - client.completed)

    def check(self, sim: Sim) -> list[str]:
        cluster = sim.parts["cluster"]
        ledger = sim.parts["client"].ledger()
        report = cluster.audit()
        problems = [f"Cluster.audit: {v}" for v in report.violations]
        problems += audit(Sim(machines=sim.machines, kernels=[], libs=[]))
        if ledger["offered"] != (ledger["completed"] + ledger["shed"]
                                 + ledger["in_flight"]):
            problems.append(f"client accounting: {ledger}")
        if ledger["in_flight"]:
            problems.append(f"{ledger['in_flight']} connections in flight "
                            f"at quiescence")
        down = sorted(set(cluster.nodes) - set(cluster.up_nodes()))
        if down:
            problems.append(f"nodes down at the end: {down}")
        return problems


WORKLOADS = {cls.name: cls for cls in
             (ServeMemcached, KeycacheChurn, MmuStream, ClusterReplicated)}
