"""Deterministic discrete-event serving engine and open-loop load plane.

The paper's server results (Figures 10, 11, 14) come from *concurrent*
workloads — multi-worker Apache+OpenSSL and 4-worker Memcached under
offered connection rates.  This module provides the concurrency
substrate those measurements need while keeping the simulator's core
guarantee: every interleaving is a pure function of cycle state.

Model
-----
The global :class:`~repro.hw.cycles.Clock` stays what it has always
been — the *sum of all work performed* — so the obs conservation audit
(``sum(per-site cycles) == clock.now``) keeps holding.  On top of it
the engine maintains a **virtual timeline per core**: every slice of
work a core executes advances that core's time by exactly the cycles
the work charged.  Wall-clock-style quantities (latency, throughput,
queue wait) are computed on the per-core timelines; cores that idle
fast-forward to the next connection arrival, as an event-driven server
blocks in ``epoll_wait``.

Jobs are *generators*: each ``yield`` is a preemption point (a charge
boundary where the kernel would check ``need_resched``), and yielding
a :class:`~repro.kernel.task.WaitQueue` blocks the worker until a
waker fires (``mpk_end`` waking ``mpk_begin_wait`` sleepers, for
example).  At each yield the engine compares the clock against the
slice's start cycle: the quantum decides *when* preemption happens;
the run-queue rotation decides who runs next.  Nothing consults wall
time or unseeded randomness, so two runs with the same arrival
schedule are bit-identical.

Scaling: the event calendar
---------------------------
The engine is sized for 100k+ offered connections:

* **Core calendar** — runnable cores live in a lazy min-heap of
  ``(core_time, core_index)`` entries instead of being rescanned per
  iteration.  Core timelines are monotone non-decreasing, so a stale
  entry can only *underestimate* its core; the head is corrected in
  place until exact, which preserves the historical tie-break (lowest
  core index among the earliest timelines) bit for bit.
* **Lazy arrivals** — ``offer()`` records (schedule, job factory,
  first-conn-id) triples; connections are materialized one at a time
  from a merged arrival stream (:class:`PoissonArrivals` generates
  gaps in batches, never the whole vector), so offered load costs O(1)
  memory instead of O(connections).
* **Streaming metrics** — the engine keeps no per-connection
  records.  Queue depth is pre-aggregated (count/total/max), and each
  completion folds its latency and queue wait into a
  :class:`~repro.bench.digest.LatencyDigest` and is dropped.  Digests
  stay exact (nearest-rank) up to 4,096 values, so small runs report
  the same percentiles a retained vector would; per-connection detail
  is available to callers through the ``on_complete`` hook.

``python -m repro servebench`` drives the two paper scenarios (httpd
with 4 workers on 2 cores, memcached with 4 workers) twice each,
gates on bit-identical :meth:`ServingReport.fingerprint` (clock,
per-site ledger and both digest states), and writes
``BENCH_serving.json``; ``--scale large`` pushes 100k+ connections per
scenario through the same path.
"""

from __future__ import annotations

import heapq
import math
import random
import typing
from collections import deque
from dataclasses import dataclass, field

from repro.consts import CLOCK_HZ
from repro.errors import MpkKeyExhaustion, MpkTimeout, TaskKilled
from repro.kernel.task import WaitQueue
from repro.apps.sslserver.workers import RequestAborted
from repro.bench.digest import LatencyDigest
from repro.bench.harness import run_twice

if typing.TYPE_CHECKING:
    from repro.kernel.kcore import Kernel
    from repro.kernel.task import Task


# ---------------------------------------------------------------------------
# Arrival schedules (the open-loop load plane).
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ArrivalSchedule:
    """A fixed list of connection arrival times, in cycles.

    Open-loop: arrivals happen at their scheduled times regardless of
    how far behind the server is — backlog builds up as queue depth,
    exactly the "unhandled concurrent connections" axis of Figure 14.
    """

    arrivals: tuple[float, ...]

    def __post_init__(self) -> None:
        if any(b < a for a, b in zip(self.arrivals, self.arrivals[1:])):
            raise ValueError("arrival times must be non-decreasing")

    def __len__(self) -> int:
        return len(self.arrivals)

    def iter_arrivals(self) -> typing.Iterator[float]:
        """Arrival times, in order (the engine's streaming interface)."""
        return iter(self.arrivals)

    @property
    def span_cycles(self) -> float:
        return self.arrivals[-1] if self.arrivals else 0.0

    @classmethod
    def uniform(cls, count: int, rate_per_sec: float,
                clock_hz: float = CLOCK_HZ) -> "ArrivalSchedule":
        """``count`` arrivals evenly spaced at ``rate_per_sec``."""
        if count <= 0 or rate_per_sec <= 0:
            raise ValueError("count and rate must be positive")
        gap = clock_hz / rate_per_sec
        return cls(tuple(i * gap for i in range(count)))


@dataclass(frozen=True)
class PoissonArrivals:
    """A lazily generated Poisson arrival stream: ``count`` arrivals
    with seeded-exponential inter-arrival gaps (no wall clock, fully
    reproducible).

    The one Poisson generator.  Gaps are drawn in bounded batches
    instead of as a whole vector, so a 100k+-connection offer costs
    O(batch) memory; a caller that needs the times up front takes
    ``tuple(stream.iter_arrivals())``.
    """

    count: int
    rate_per_sec: float
    seed: int
    clock_hz: float = CLOCK_HZ

    #: Gaps drawn per RNG round trip; bounds the stream's working set.
    BATCH = 4096

    def __post_init__(self) -> None:
        if self.count <= 0 or self.rate_per_sec <= 0:
            raise ValueError("count and rate must be positive")

    def __len__(self) -> int:
        return self.count

    def iter_arrivals(self) -> typing.Iterator[float]:
        rng = random.Random(self.seed)
        expovariate = rng.expovariate
        mean_gap = self.clock_hz / self.rate_per_sec
        now = 0.0
        remaining = self.count
        while remaining > 0:
            batch = self.BATCH if remaining > self.BATCH else remaining
            for _ in range(batch):
                now += expovariate(1.0) * mean_gap
                yield now
            remaining -= batch


def percentile(values: typing.Sequence[float], p: float) -> float:
    """Nearest-rank percentile (deterministic, no interpolation)."""
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100]: {p}")
    ordered = sorted(values)
    rank = math.ceil(p / 100.0 * len(ordered))
    return ordered[rank - 1]


# ---------------------------------------------------------------------------
# Engine plumbing.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaitSpec:
    """What a job yields to block with a deadline.

    ``yield WaitSpec(queue, timeout)`` parks the worker on ``queue``
    for at most ``timeout`` cycles of its core's virtual time; when the
    deadline passes first, the engine expires the wait (via
    ``on_expire(task)`` when given — e.g. ``Libmpk.key_wait_timeout``,
    which charges and counts the expiry — else the queue's plain
    ``timeout``) and resumes the job by throwing
    :class:`~repro.errors.MpkTimeout` at the yield point.  A bare
    ``yield queue`` still means "wait forever".
    """

    queue: "WaitQueue"
    timeout: float | None = None
    on_expire: typing.Callable | None = None


@dataclass
class Connection:
    """One unit of offered load."""

    conn_id: int
    arrival: float
    job_factory: typing.Callable
    start: float | None = None
    finish: float | None = None
    worker_tid: int | None = None
    core_id: int | None = None
    accept_charged: bool = False
    retries: int = 0

    @property
    def latency(self) -> float:
        if self.finish is None:
            raise ValueError(f"connection {self.conn_id} never finished")
        return self.finish - self.arrival

    @property
    def queue_wait(self) -> float:
        if self.start is None:
            raise ValueError(f"connection {self.conn_id} never started")
        return self.start - self.arrival


_IDLE = "idle"
_READY = "ready"
_RUNNING = "running"
_BLOCKED = "blocked"
_DEAD = "dead"

#: ServingEngine's next-event memo when it must be recomputed.
_STALE = object()


@dataclass
class _Worker:
    task: "Task"
    core_id: int
    state: str = _IDLE
    gen: typing.Iterator | None = None
    conn: Connection | None = None
    served: int = 0
    aborted: int = 0
    # Deadline-wait state (set while _BLOCKED on a timed WaitSpec).
    wait_spec: WaitSpec | None = None
    wait_deadline: float | None = None   # core-time cycles
    timed_out: bool = False              # resume via gen.throw(MpkTimeout)


@dataclass(frozen=True)
class ServingReport:
    """The engine's result: counts, latency distribution, obs snapshot.

    The two digests are the only record of per-connection latency and
    queue wait (cycles); the percentile properties read them.
    """

    offered: int
    completed: int
    aborted: int
    unserved: int
    makespan_cycles: float
    queue_depth_max: int
    queue_depth_mean: float
    preemptions: int
    context_switches: int
    blocked_waits: int
    clock_cycles: float                # machine clock at completion
    latency_digest: LatencyDigest      # finish - arrival, cycles
    queue_wait_digest: LatencyDigest   # start - arrival, cycles
    site_cycles: dict[str, float] = field(default_factory=dict)
    # Resilience counters (graceful degradation must be accounted, not
    # silent): offered == completed + aborted + shed + unserved.
    shed: int = 0
    wait_timeouts: int = 0
    restarts: int = 0

    @property
    def p50(self) -> float:
        return self.latency_digest.percentile(50)

    @property
    def p95(self) -> float:
        return self.latency_digest.percentile(95)

    @property
    def p99(self) -> float:
        return self.latency_digest.percentile(99)

    @property
    def mean_latency(self) -> float:
        return self.latency_digest.mean

    @property
    def throughput_rps(self) -> float:
        if self.makespan_cycles <= 0:
            return 0.0
        return self.completed / (self.makespan_cycles / CLOCK_HZ)

    def fingerprint(self) -> dict:
        """What a same-seed rerun must reproduce bit for bit: clock,
        per-site ledger and both digest states (below the exact cutoff
        a digest state holds every value, in completion order)."""
        return {"clock_cycles": self.clock_cycles,
                "site_cycles": self.site_cycles,
                "latency_digest": self.latency_digest.state(),
                "queue_wait_digest": self.queue_wait_digest.state()}

    def summary(self) -> dict:
        """JSON-ready digest (cycles; latencies also in ms)."""
        to_ms = 1000.0 / CLOCK_HZ
        p50, p95, p99 = self.p50, self.p95, self.p99
        return {
            "offered": self.offered,
            "completed": self.completed,
            "aborted": self.aborted,
            "unserved": self.unserved,
            "throughput_rps": round(self.throughput_rps, 3),
            "makespan_cycles": self.makespan_cycles,
            "latency_cycles": {
                "p50": p50, "p95": p95, "p99": p99,
                "mean": self.mean_latency,
            },
            "latency_ms": {
                "p50": round(p50 * to_ms, 6),
                "p95": round(p95 * to_ms, 6),
                "p99": round(p99 * to_ms, 6),
            },
            "queue_depth_max": self.queue_depth_max,
            "queue_depth_mean": round(self.queue_depth_mean, 3),
            "queue_wait_mean_cycles": self.queue_wait_digest.mean,
            "preemptions": self.preemptions,
            "context_switches": self.context_switches,
            "blocked_waits": self.blocked_waits,
            "clock_cycles": self.clock_cycles,
            "shed": self.shed,
            "shed_rate": (round(self.shed / self.offered, 4)
                          if self.offered else 0.0),
            "wait_timeouts": self.wait_timeouts,
            "restarts": self.restarts,
        }


class ServingEngine:
    """Drive generator jobs over time-sliced cores, deterministically.

    A worker is preempted at a yield point once its slice has charged
    ``quantum`` cycles (``clock.now - slice_start >= quantum``).
    Engines are single-use: build, ``add_worker``, ``offer``, ``run``.

    Completed connections feed bounded latency digests and are then
    dropped, so memory stays O(backlog) rather than O(connections).
    ``retain_records`` is accepted only as ``False`` (the one
    accounting mode) for callers that still spell it out.  ``name``
    labels the engine in diagnostics (scenario name).
    """

    def __init__(self, kernel: "Kernel", cores: typing.Sequence[int],
                 quantum: float | None = None,
                 queue_limit: int | None = None,
                 retain_records: bool = False,
                 name: str = "serving") -> None:
        if retain_records is not False:
            raise ValueError("retained per-connection records are gone; "
                             "the engine only streams into digests")
        if not cores:
            raise ValueError("engine needs at least one core")
        if queue_limit is not None and queue_limit < 1:
            raise ValueError("queue_limit must be at least 1")
        if len(set(cores)) != len(cores):
            raise ValueError("duplicate core ids")
        for core_id in cores:
            if kernel.scheduler.running_task(core_id) is not None:
                raise RuntimeError(
                    f"core {core_id} is busy; engine cores must be "
                    "dedicated")
        self.kernel = kernel
        self.name = name
        self.cores = list(cores)
        self.quantum = (kernel.costs.sched_quantum
                        if quantum is None else quantum)
        if self.quantum <= 0:
            raise ValueError("quantum must be positive")
        self.core_time: dict[int, float] = {c: 0.0 for c in self.cores}
        self.workers: list[_Worker] = []
        self._by_tid: dict[int, _Worker] = {}
        self._accept: deque[Connection] = deque()
        # The event calendar: a lazy min-heap of (core_time, core_index)
        # entries, at most one live entry per core (_cal_entries guards
        # duplicates).  See the module docstring for the invariants.
        self._core_index = {c: i for i, c in enumerate(self.cores)}
        self._calendar: list[tuple[float, int]] = []
        self._cal_entries = [0] * len(self.cores)
        # Offered load: (schedule, job_factory, first_conn_id) triples,
        # merged lazily into arrival order at run() time.
        self._offers: list[tuple] = []
        self._offered_total = 0
        self._next_conn_id = 0
        self._arrival_stream: typing.Iterator | None = None
        self._stream_done = False
        self._static_head: tuple | None = None
        self._next_arrival: Connection | None = None
        # Dynamic arrivals (the cluster's network plane pushes
        # connections mid-run): a heap of (arrival, conn_id, factory),
        # merged with the static offer stream at _peek_arrival.
        self._pushed: list[tuple] = []
        self._popped = 0
        # next_time()'s memo, cleared by every call that can move the
        # next event: step(), push() and _on_wake().
        self._next_memo = _STALE
        self.latency_digest = LatencyDigest()
        self.queue_wait_digest = LatencyDigest()
        # Connections finished so far (live: an attached pool's
        # ``stats()`` folds it into its request accounting).
        self.completed = 0
        self._makespan = 0.0
        # Queue-depth running aggregates (one sample per admission).
        self._depth_count = 0
        self._depth_total = 0
        self._depth_max = 0
        self.aborted = 0
        self.blocked_waits = 0
        self._ran = False
        # Admission control: the accept queue holds at most
        # ``queue_limit`` connections per engine core; beyond that,
        # arrivals are shed deterministically (RST, charged, counted).
        self.queue_limit = queue_limit
        self.shed = 0
        self.wait_timeouts = 0
        self.restarts = 0
        # Workers killed mid-job (each one passes _crash once); an
        # attached pool's ``stats()`` folds it into ``workers_killed``.
        self.killed = 0
        self.readmitted = 0
        self._supervisor = None
        self._current_worker: _Worker | None = None
        # Per-connection outcome hooks for external drivers (the
        # cluster's fleet client observes completions without retaining
        # records): each is called with (conn, core_now) when set.
        self.on_complete: typing.Callable | None = None
        self.on_abort: typing.Callable | None = None
        self.on_shed: typing.Callable | None = None
        # Metric sites interned once; observations then index a list
        # instead of hashing a label per event.
        obs = kernel.machine.obs
        self._obs = obs
        self._depth_metric = obs.metric_id("apps.serving.queue_depth")
        self._wait_metric = obs.metric_id("apps.serving.queue_wait")

    @property
    def current_task(self) -> "Task | None":
        """The worker task whose job step is currently advancing (chaos
        hooks use this to kill "whoever is running right now")."""
        if self._current_worker is None:
            return None
        return self._current_worker.task

    def attach_supervisor(self, supervisor) -> None:
        """Restart dead workers through ``supervisor`` (an object with
        ``revive(dead_task) -> Task | None``, e.g.
        :class:`~repro.apps.sslserver.workers.Supervisor`): on a worker
        kill the engine re-admits the in-flight connection at the head
        of the accept queue and replaces the worker in its slot, within
        the supervisor's restart budget."""
        self._supervisor = supervisor

    # -- setup ----------------------------------------------------------

    def add_worker(self, task: "Task", core_id: int) -> None:
        """Register ``task`` as a worker pinned to ``core_id``.

        Running tasks are taken off their core first — the engine owns
        placement from here on.
        """
        if core_id not in self.core_time:
            raise ValueError(f"core {core_id} is not an engine core")
        if task.tid in self._by_tid:
            raise ValueError(f"task {task.tid} is already a worker")
        if task.running:
            self.kernel.scheduler.unschedule(task)
        worker = _Worker(task=task, core_id=core_id)
        self.workers.append(worker)
        self._by_tid[task.tid] = worker

    def offer(self, schedule, job_factory: typing.Callable) -> None:
        """Queue ``schedule``'s arrivals; each connection's job is
        ``job_factory(worker_task, conn_id)`` — a generator yielding
        None at preemption points or a WaitQueue to block.

        ``schedule`` is anything with ``__len__`` and
        ``iter_arrivals()`` yielding non-decreasing times —
        :class:`ArrivalSchedule` or the lazy :class:`PoissonArrivals`.
        Connections are *not* materialized here; conn-ids are assigned
        in offer order and arrivals are streamed during :meth:`run`.
        """
        count = len(schedule)
        if count == 0:
            return
        self._offers.append((schedule, job_factory, self._next_conn_id))
        self._next_conn_id += count
        self._offered_total += count

    # -- the event loop -------------------------------------------------

    def run(self, horizon: float | None = None) -> ServingReport:
        """Serve every offered connection (or stop once all cores pass
        ``horizon`` cycles); returns the :class:`ServingReport`."""
        self._start()
        try:
            while self._tick(horizon):
                pass
        finally:
            self._park_workers()
        return self._report()

    def _start(self) -> None:
        """Arm the (single-use) run: freeze the offer set into the
        merged arrival stream."""
        if self._ran:
            raise RuntimeError(
                f"serving engine {self.name!r} (cores {self.cores}) is "
                "single-use: build a fresh engine per run")
        if not self.workers:
            raise RuntimeError("engine has no workers")
        self._ran = True
        self._arrival_stream = self._merged_arrivals()

    def _tick(self, horizon: float | None, strict: bool = True) -> bool:
        """One event-loop iteration; False when there is nothing left
        to do.  In strict mode (the :meth:`run` loop) an un-wakeable
        stall raises; externally stepped runs pass ``strict=False``
        because an idle engine is not stuck — more work can still
        arrive via :meth:`push`."""
        self._inject()
        if horizon is not None and all(
                self.core_time[c] >= horizon for c in self.cores):
            return False
        self._fire_due_timeouts()
        core_id = self._pick_core()
        if core_id is None:
            head = self._peek_arrival()
            nxt = head.arrival if head is not None else None
            waiter = self._earliest_deadline_worker()
            if nxt is not None and (
                    waiter is None
                    or nxt <= waiter.wait_deadline):
                # Everyone idles: leap to the next arrival.
                for c in self.cores:
                    self.core_time[c] = max(self.core_time[c], nxt)
                return True
            if waiter is not None:
                # Nothing runnable before the earliest wait
                # deadline: time passes, the wait expires.
                self._expire_wait(waiter)
                return True
            if strict and any(w.state == _BLOCKED for w in self.workers):
                raise RuntimeError(
                    "serving engine stalled: blocked workers "
                    "with no waker and no deadline (all "
                    "waiters and no waker)")
            if strict and self._accept and any(w.state != _DEAD
                                               for w in self.workers):
                raise RuntimeError(
                    "serving engine stalled: queued work but "
                    "no runnable worker")
            # Either everything drained, or every worker is
            # dead past its restart budget: stop and report
            # the leftovers as unserved (accounted, not hung).
            return False
        self._run_core(core_id)
        return True

    # -- external stepping (the cluster driver) --------------------------

    def start(self) -> None:
        """Begin an externally stepped run: the driver interleaves this
        engine with others via :meth:`next_time`/:meth:`step` and
        finishes with :meth:`stop` instead of calling :meth:`run`.
        Same single-use contract."""
        self._start()

    def push(self, arrival: float, job_factory: typing.Callable) -> int:
        """Offer one connection dynamically, mid-run (the network plane
        delivers requests as messages arrive).  Returns the assigned
        conn id.  Pushed arrivals need not be monotone; they merge with
        the static offer stream by ``(arrival, conn_id)``."""
        conn_id = self._next_conn_id
        self._next_conn_id += 1
        self._offered_total += 1
        heapq.heappush(self._pushed, (arrival, conn_id, job_factory))
        self._next_memo = _STALE
        return conn_id

    def next_time(self) -> float | None:
        """Virtual time of the engine's next event — the earliest busy
        core, else the next arrival or earliest wait deadline — or None
        when the engine is fully idle (nothing will happen until the
        driver pushes more work).

        Memoized: only :meth:`step`, :meth:`push` and a wait-queue wake
        (``_on_wake``) can move the next event, and each clears the
        memo.  The cluster driver polls every node once per event, so
        an engine nothing touched answers without recomputing."""
        memo = self._next_memo
        if memo is _STALE:
            memo = self._next_memo = self._compute_next_time()
        return memo

    def _compute_next_time(self) -> float | None:
        head = self._calendar_head()
        if head is not None:
            return head[0]
        conn = self._peek_arrival()
        waiter = self._earliest_deadline_worker()
        if waiter is None:
            return None if conn is None else conn.arrival
        if conn is None or waiter.wait_deadline < conn.arrival:
            return waiter.wait_deadline
        return conn.arrival

    def step(self) -> bool:
        """Advance one event of an externally stepped run; False when
        idle (never raises on a stall — see :meth:`_tick`)."""
        more = self._tick(None, strict=False)
        self._next_memo = _STALE
        return more

    def stop(self) -> ServingReport:
        """End an externally stepped run: teardown and report."""
        self._park_workers()
        return self._report()

    # -- the arrival stream ---------------------------------------------

    def _merged_arrivals(self) -> typing.Iterator[tuple]:
        """(arrival, conn_id, job_factory) triples in global arrival
        order — identical to sorting all materialized connections by
        ``(arrival, conn_id)``, since each offer's stream is already
        non-decreasing in that key."""
        def stream(schedule, job_factory, first_id):
            conn_id = first_id
            for arrival in schedule.iter_arrivals():
                yield (arrival, conn_id, job_factory)
                conn_id += 1

        streams = [stream(s, f, b) for s, f, b in self._offers]
        if len(streams) == 1:
            return streams[0]
        return heapq.merge(*streams, key=lambda t: (t[0], t[1]))

    def _peek_arrival(self) -> Connection | None:
        """The next offered connection, materialized but not consumed —
        the earlier of the static offer stream and the pushed heap,
        keyed ``(arrival, conn_id)``."""
        if self._next_arrival is not None:
            return self._next_arrival
        if (self._static_head is None and not self._stream_done
                and self._arrival_stream is not None):
            try:
                self._static_head = next(self._arrival_stream)
            except StopIteration:
                self._stream_done = True
        head = self._static_head
        if self._pushed and (head is None
                             or self._pushed[0][:2] < head[:2]):
            arrival, conn_id, factory = heapq.heappop(self._pushed)
        elif head is not None:
            arrival, conn_id, factory = head
            self._static_head = None
        else:
            return None
        self._next_arrival = Connection(conn_id=conn_id,
                                        arrival=arrival,
                                        job_factory=factory)
        return self._next_arrival

    def _pop_arrival(self) -> Connection | None:
        conn = self._peek_arrival()
        if conn is not None:
            self._next_arrival = None
            self._popped += 1
        return conn

    # -- the core calendar ----------------------------------------------

    def _core_has_work(self, core_id: int) -> bool:
        sched = self.kernel.scheduler
        return (sched.running_task(core_id) is not None
                or sched.runnable_count(core_id) > 0)

    def _note_core(self, core_id: int) -> None:
        """Record that ``core_id`` may now have work.  At most one live
        calendar entry exists per core; an existing entry can only
        underestimate the core's (monotone) timeline, so it covers the
        core until lazily corrected at the heap head."""
        idx = self._core_index[core_id]
        if self._cal_entries[idx]:
            return
        self._cal_entries[idx] = 1
        heapq.heappush(self._calendar, (self.core_time[core_id], idx))

    def _calendar_head(self) -> tuple[float, int] | None:
        """(core_time, core_id) of the earliest core that has work, or
        None.  Pops entries for cores that went idle and corrects
        stale-low entries in place; on return the head is exact, which
        makes the (time, index) heap order reproduce the historical
        first-strict-minimum linear scan."""
        heap = self._calendar
        while heap:
            entry_time, idx = heap[0]
            core_id = self.cores[idx]
            if not self._core_has_work(core_id):
                heapq.heappop(heap)
                self._cal_entries[idx] = 0
                continue
            actual = self.core_time[core_id]
            if entry_time < actual:
                heapq.heapreplace(heap, (actual, idx))
                continue
            return entry_time, core_id
        return None

    def _pick_core(self) -> int | None:
        head = self._calendar_head()
        return None if head is None else head[1]

    def _min_busy_time(self) -> float | None:
        head = self._calendar_head()
        return None if head is None else head[0]

    # -- internals ------------------------------------------------------

    def _inject(self) -> None:
        """Move every due arrival into the accept queue.

        An arrival is *due* once no in-flight work predates it: every
        busy core's timeline has reached the arrival time (idle cores
        never hold time back — they are parked in epoll_wait).
        """
        while True:
            head = self._peek_arrival()
            if head is None:
                break
            busy_time = self._min_busy_time()
            if busy_time is not None and head.arrival > busy_time:
                break
            conn = self._pop_arrival()
            if (self.queue_limit is not None
                    and len(self._accept)
                    >= self.queue_limit * len(self.cores)):
                self._shed(conn)
                continue
            depth = len(self._accept)
            self._depth_count += 1
            self._depth_total += depth
            if depth > self._depth_max:
                self._depth_max = depth
            self._obs.record_metric_id(self._depth_metric, depth)
            self._accept.append(conn)
            self._assign_idle()
        self._assign_idle()

    def _shed(self, conn: Connection) -> None:
        """Load shedding: the accept backlog is full, so the connection
        is refused (TCP RST) — charged, counted, and recorded, never
        silently dropped."""
        self.shed += 1
        self._obs.record_metric("apps.serving.shed", 1.0)
        core_id = min(self.cores, key=lambda c: self.core_time[c])
        self._advance(core_id, lambda: self.kernel.clock.charge(
            self.kernel.costs.conn_reset, site="apps.serving.shed"))
        if self.on_shed is not None:
            self.on_shed(conn, self.core_time[core_id])

    def _assign_idle(self) -> None:
        """Hand queued connections to idle workers (earliest-core-time
        worker first — it has been idle longest)."""
        while self._accept:
            idle = [w for w in self.workers if w.state == _IDLE]
            if not idle:
                return
            # min keeps the first minimum: ties go to worker order.
            worker = min(idle, key=lambda w: self.core_time[w.core_id])
            conn = self._accept.popleft()
            self._start_conn(worker, conn)
            # An idle worker "sleeps" until its connection arrives.
            self.core_time[worker.core_id] = max(
                self.core_time[worker.core_id], conn.arrival)
            self.kernel.scheduler.enqueue(worker.task, worker.core_id)
            worker.state = _READY
            self._note_core(worker.core_id)

    def _start_conn(self, worker: _Worker, conn: Connection) -> None:
        conn.worker_tid = worker.task.tid
        conn.core_id = worker.core_id
        worker.conn = conn
        worker.gen = conn.job_factory(worker.task, conn.conn_id)

    def _advance(self, core_id: int, fn):
        """Run ``fn`` and bill its charged cycles to ``core_id``'s
        virtual timeline."""
        clock = self.kernel.clock
        before = clock.now
        result = fn()
        self.core_time[core_id] += clock.now - before
        return result

    def _run_core(self, core_id: int) -> None:
        """One scheduling slice on ``core_id``."""
        sched = self.kernel.scheduler
        task = sched.running_task(core_id)
        if task is None:
            task = self._advance(core_id, lambda: sched.dispatch(core_id))
            if task is None:
                return
            self._by_tid[task.tid].state = _RUNNING
        worker = self._by_tid[task.tid]
        clock = self.kernel.clock
        quantum = self.quantum
        slice_start = clock.now
        self._current_worker = worker
        try:
            while True:
                conn = worker.conn
                if conn is not None and not conn.accept_charged:
                    # accept(2)/epoll bookkeeping, paid by the serving
                    # core; marks the start of service.
                    conn.accept_charged = True
                    self._advance(core_id, lambda: self.kernel.clock.charge(
                        self.kernel.costs.accept_cycles,
                        site="apps.serving.accept"))
                    conn.start = self.core_time[core_id]
                    self._obs.record_metric_id(self._wait_metric,
                                               conn.queue_wait)
                try:
                    step = self._advance(core_id,
                                         lambda: self._step(worker))
                except StopIteration:
                    self._finish_conn(worker, core_id)
                    if worker.state != _RUNNING:
                        return
                    continue
                except TaskKilled:
                    self._crash(worker, core_id)
                    return
                except RequestAborted:
                    self._abort_conn(worker)
                    if worker.state != _RUNNING:
                        return
                    continue
                except MpkTimeout:
                    self._timeout_conn(worker)
                    if worker.state != _RUNNING:
                        return
                    continue
                if step is not None:
                    self._block(worker, core_id, step)
                    return
                if clock.now - slice_start >= quantum:
                    if sched.runnable_count(core_id) > 0:
                        sched.preempt(core_id)
                        worker.state = _READY
                        return
                    # Alone on the core: keep running, fresh slice.
                    slice_start = clock.now
        finally:
            self._current_worker = None

    def _step(self, worker: _Worker):
        """Advance the worker's job one yield.  A worker resuming from
        an expired wait gets :class:`~repro.errors.MpkTimeout` thrown
        at its yield point instead of a plain resume."""
        if worker.timed_out:
            worker.timed_out = False
            conn_id = worker.conn.conn_id if worker.conn else None
            return worker.gen.throw(MpkTimeout(
                f"connection {conn_id}: wait deadline expired"))
        return next(worker.gen)

    def _finish_conn(self, worker: _Worker, core_id: int) -> None:
        conn = worker.conn
        conn.finish = self.core_time[core_id]
        # Fold the connection into the digests and drop it — O(1)
        # memory per completion.
        self.completed += 1
        self.latency_digest.add(conn.finish - conn.arrival)
        self.queue_wait_digest.add(conn.start - conn.arrival)
        if conn.finish > self._makespan:
            self._makespan = conn.finish
        if self.on_complete is not None:
            self.on_complete(conn, conn.finish)
        worker.served += 1
        worker.conn = None
        worker.gen = None
        if self._accept:
            # The worker thread loops straight into the next queued
            # connection — no context switch, as in a real accept loop.
            self._start_conn(worker, self._accept.popleft())
        else:
            self.kernel.scheduler.unschedule(worker.task)
            worker.state = _IDLE

    def _block(self, worker: _Worker, core_id: int, step) -> None:
        """The job yielded a WaitQueue or WaitSpec: park the worker
        off-core (with a core-time deadline when the spec carries a
        timeout)."""
        spec = step if isinstance(step, WaitSpec) else WaitSpec(step)
        if not isinstance(spec.queue, WaitQueue):
            raise TypeError(f"job yielded {step!r}; expected a "
                            "WaitQueue or WaitSpec")
        sched = self.kernel.scheduler
        sched.unschedule(worker.task)
        worker.task.state = "blocked"
        worker.state = _BLOCKED
        worker.wait_spec = spec
        if spec.timeout is not None:
            worker.wait_deadline = self.core_time[core_id] + spec.timeout
        self.blocked_waits += 1
        spec.queue.add(worker.task,
                       on_wake=lambda task, w=worker: self._on_wake(w),
                       now=self.kernel.clock.now)

    def _on_wake(self, worker: _Worker) -> None:
        self._next_memo = _STALE
        worker.wait_spec = None
        worker.wait_deadline = None
        if worker.task.state == "dead":
            return
        self.kernel.scheduler.enqueue(worker.task, worker.core_id)
        worker.state = _READY
        self._note_core(worker.core_id)

    # -- wait deadlines --------------------------------------------------

    def _earliest_deadline_worker(self) -> _Worker | None:
        """The blocked worker whose deadline expires first (ties broken
        by tid, so expiry order is deterministic)."""
        best = None
        for w in self.workers:
            deadline = w.wait_deadline
            if w.state != _BLOCKED or deadline is None:
                continue
            if (best is None or deadline < best.wait_deadline
                    or (deadline == best.wait_deadline
                        and w.task.tid < best.task.tid)):
                best = w
        return best

    def _fire_due_timeouts(self) -> None:
        """Expire blocked waits whose core timeline already passed the
        deadline (other work on the core carried time forward)."""
        while True:
            due = [w for w in self.workers
                   if w.state == _BLOCKED and w.wait_deadline is not None
                   and self.core_time[w.core_id] >= w.wait_deadline]
            if not due:
                return
            self._expire_wait(min(
                due, key=lambda w: (w.wait_deadline, w.task.tid)))

    def _expire_wait(self, worker: _Worker) -> None:
        """Time out one blocked worker: fast-forward its core to the
        deadline, remove it from the wait queue (accounted — a wake
        that already fired wins instead), and make it runnable so the
        engine resumes it with MpkTimeout."""
        spec = worker.wait_spec
        deadline = worker.wait_deadline
        worker.wait_spec = None
        worker.wait_deadline = None
        if spec is None or deadline is None:
            return
        core_id = worker.core_id
        self.core_time[core_id] = max(self.core_time[core_id], deadline)
        expire = (spec.on_expire if spec.on_expire is not None
                  else spec.queue.timeout)
        fired = self._advance(core_id, lambda: expire(worker.task))
        if not fired:
            return  # the wake won the race; _on_wake requeued us
        worker.timed_out = True
        self.kernel.scheduler.enqueue(worker.task, worker.core_id)
        worker.state = _READY
        self._note_core(worker.core_id)

    def _timeout_conn(self, worker: _Worker) -> None:
        """The job let MpkTimeout propagate: the connection is dropped
        (counted both as aborted and, separately, as a wait timeout)."""
        self.wait_timeouts += 1
        self._obs.record_metric("apps.serving.wait_timeout", 1.0)
        self._abort_conn(worker)

    def _abort_conn(self, worker: _Worker) -> None:
        """A signal handler abandoned the request (RequestAborted):
        the connection is lost but the worker keeps serving."""
        conn = worker.conn
        worker.aborted += 1
        self.aborted += 1
        worker.conn = None
        worker.gen = None
        if conn is not None and self.on_abort is not None:
            self.on_abort(conn, self.core_time[worker.core_id])
        if self._accept:
            self._start_conn(worker, self._accept.popleft())
        else:
            self.kernel.scheduler.unschedule(worker.task)
            worker.state = _IDLE

    def _crash(self, worker: _Worker, core_id: int) -> None:
        """Containment for a killed worker (its task is already dead
        and off-core via the kernel's kill path).

        Without a supervisor the connection is lost and the worker
        leaves the pool.  With one, the in-flight connection is
        re-admitted at the head of the accept queue (retried once) and
        the worker slot is refilled within the supervisor's restart
        budget — respawn and backoff cycles are billed to this core's
        timeline."""
        self.killed += 1
        conn = worker.conn
        worker.conn = None
        worker.gen = None
        worker.state = _DEAD
        readmitted = False
        if (conn is not None and self._supervisor is not None
                and conn.retries < 1):
            conn.retries += 1
            conn.accept_charged = False
            conn.start = None
            conn.worker_tid = None
            conn.core_id = None
            self._accept.appendleft(conn)
            self.readmitted += 1
            readmitted = True
        if conn is not None and not readmitted:
            worker.aborted += 1
            self.aborted += 1
            if self.on_abort is not None:
                self.on_abort(conn, self.core_time[core_id])
        if self._supervisor is not None:
            replacement = self._advance(
                core_id, lambda: self._supervisor.revive(worker.task))
            if replacement is not None:
                del self._by_tid[worker.task.tid]
                worker.task = replacement
                self._by_tid[replacement.tid] = worker
                worker.state = _IDLE
                self.restarts += 1
                self._assign_idle()

    def _park_workers(self) -> None:
        """Teardown: drain run queues, cancel leftover waits, and leave
        no worker on a core."""
        sched = self.kernel.scheduler
        for core_id in self.cores:
            queue = sched.run_queues.get(core_id)
            if queue:
                queue.clear()
            task = sched.running_task(core_id)
            if task is not None and task.tid in self._by_tid:
                sched.unschedule(task)
        for worker in self.workers:
            if worker.state == _DEAD:
                continue
            if worker.task.waiting_on is not None:
                worker.task.waiting_on.remove(worker.task)
            if worker.task.state == "blocked":
                worker.task.state = "runnable"
            worker.wait_spec = None
            worker.wait_deadline = None
            worker.timed_out = False
            worker.state = _IDLE

    def _report(self) -> ServingReport:
        in_flight = sum(1 for w in self.workers if w.conn is not None)
        unserved = (self._offered_total - self._popped
                    + len(self._accept) + in_flight)
        sched = self.kernel.scheduler
        return ServingReport(
            offered=self._offered_total,
            completed=self.completed,
            aborted=self.aborted,
            unserved=unserved,
            makespan_cycles=self._makespan,
            queue_depth_max=self._depth_max,
            queue_depth_mean=(self._depth_total / self._depth_count
                              if self._depth_count else 0.0),
            preemptions=sched.preemptions,
            context_switches=sched.context_switches,
            blocked_waits=self.blocked_waits,
            clock_cycles=self.kernel.clock.now,
            site_cycles=dict(
                self.kernel.machine.obs.aggregator.cycles),
            shed=self.shed,
            wait_timeouts=self.wait_timeouts,
            restarts=self.restarts,
            latency_digest=self.latency_digest,
            queue_wait_digest=self.queue_wait_digest,
        )


def blocking_begin(lib, task: "Task", vkey: int, prot: int,
                   max_spins: int = 64, timeout: float | None = None):
    """Generator fragment for engine jobs: ``mpk_begin`` that *blocks*
    the worker on key exhaustion instead of raising.

    Use as ``yield from blocking_begin(lib, task, vkey, prot)`` inside
    a job; the worker parks on ``lib.key_waiters`` and is woken by
    ``mpk_end``/``mpk_munmap``/``mpk_disown`` on another worker.

    ``timeout`` bounds each individual park (core-time cycles): if the
    deadline passes before a wake, the engine expires the wait through
    ``lib.key_wait_timeout`` (charged as ``libmpk.keycache.
    wait_timeout``) and :class:`~repro.errors.MpkTimeout` is raised
    here, at the yield point, for the job to handle or propagate.
    """
    # Tag the wanted vkey while (potentially) parked: the watchdog's
    # key_demand() contention export reads it off the wait queue, and
    # the cost-aware eviction policy uses it to spare demanded keys.
    task.wanted_vkey = vkey
    try:
        for _ in range(max_spins):
            try:
                lib.mpk_begin(task, vkey, prot)
                return
            except MpkKeyExhaustion:
                task.kernel.clock.charge(task.kernel.costs.futex_block,
                                         site="libmpk.keycache.wait")
                if timeout is None:
                    yield lib.key_waiters
                else:
                    yield WaitSpec(lib.key_waiters, timeout,
                                   on_expire=lib.key_wait_timeout)
        raise MpkKeyExhaustion(
            f"blocking_begin: no key after {max_spins} wakes")
    finally:
        task.wanted_vkey = None


# ---------------------------------------------------------------------------
# The servebench scenarios (python -m repro servebench).
# ---------------------------------------------------------------------------

def _run_httpd_scenario(seed: int, connections: int,
                        requests_per_connection: int,
                        response_size: int, workers: int,
                        num_cores: int, rate_per_sec: float
                        ) -> ServingReport:
    """httpd: ``workers`` SSL workers over ``num_cores`` cores, libmpk
    guarding the private key, Poisson arrivals."""
    from repro import Kernel, Libmpk, Machine
    from repro.apps.sslserver import HttpServer, SslLibrary
    from repro.apps.sslserver.ab import ApacheBench
    from repro.apps.sslserver.workers import WorkerPool

    kernel = Kernel(Machine(num_cores=max(num_cores + 2, 8)))
    process = kernel.create_process()  # main task occupies core 0
    main = process.main_task
    lib = Libmpk(process)
    lib.mpk_init(main)
    ssl = SslLibrary(kernel, process, main, mode="libmpk", lib=lib)
    server = HttpServer(kernel, process, main, ssl)
    cores = list(range(1, num_cores + 1))
    engine = ServingEngine(kernel, cores=cores, name="httpd")
    pool = WorkerPool(kernel, process, server, workers=workers,
                      schedule=False)
    pool.attach_engine(engine, cores)
    schedule = PoissonArrivals(connections, rate_per_sec, seed=seed)
    bench = ApacheBench(server)
    return bench.run_open_loop(
        engine, schedule, response_size,
        requests_per_connection=requests_per_connection)


def _run_memcached_scenario(seed: int, connections: int,
                            workers: int, num_cores: int,
                            rate_per_sec: float,
                            requests_per_connection: int = 10
                            ) -> ServingReport:
    """memcached: the paper's 4 workers, mpk_begin protection,
    twemperf-style get/set connections."""
    from repro import Kernel, Libmpk, Machine
    from repro.apps.kvstore import Memcached, Twemperf
    from repro.apps.kvstore.slab import SLAB_BYTES

    kernel = Kernel(Machine(num_cores=max(num_cores + 2, 8)))
    process = kernel.create_process()  # main task occupies core 0
    main = process.main_task
    lib = Libmpk(process)
    lib.mpk_init(main)
    store = Memcached(kernel, process, main, mode="mpk_begin", lib=lib,
                      slab_bytes=4 * SLAB_BYTES, hash_buckets=1 << 10)
    perf = Twemperf(store, workers=workers,
                    requests_per_connection=requests_per_connection)
    cores = list(range(1, num_cores + 1))
    engine = ServingEngine(kernel, cores=cores, name="memcached")
    for i in range(workers):
        worker = process.spawn_task()
        engine.add_worker(worker, core_id=cores[i % num_cores])
    engine.offer(PoissonArrivals(connections, rate_per_sec, seed=seed + 1),
                 perf.connection_job)
    return engine.run()


#: Offered rates by scale.  Smoke: above each scenario's 2-core service
#: capacity, so backlog (queue depth) builds open-loop.  Large: ≈75–80%
#: of the measured 2-core capacity (httpd ≈24.6k conn/s, memcached
#: ≈5.6k conn/s at the large shapes) so the open-loop backlog (the only
#: O(connections) state left) stays bounded for the whole run.
_BASE_RATES = {
    "smoke": {"httpd": 60_000.0, "memcached": 3_000.0},
    "large": {"httpd": 19_000.0, "memcached": 4_300.0},
}

#: Per-connection shapes by scale, all on the paper's 4 workers over 2
#: cores (two runnable workers per core, so the quantum actually
#: preempts).  The large scale slims them (1 request / 1 KiB responses
#: for httpd, 2 requests for memcached) so 100k+ streaming connections
#: finish within a CI wall budget.
_SHAPES = {
    "smoke": {"httpd": {"requests_per_connection": 4,
                        "response_size": 4096},
              "memcached": {}},
    "large": {"httpd": {"requests_per_connection": 1,
                        "response_size": 1024},
              "memcached": {"requests_per_connection": 2}},
}

_RUNNERS = {"httpd": _run_httpd_scenario,
            "memcached": _run_memcached_scenario}

#: Default offered connections per scenario, by scale.
SCALE_CONNECTIONS = {"smoke": 64, "large": 100_000}

#: Load-curve sweep: offered-rate multipliers applied to each
#: scenario's base rate, and the per-point connection cap that keeps
#: the sweep inside the wall/memory budget.
CURVE_MULTIPLIERS = (0.5, 0.75, 1.0, 1.5, 2.0)
CURVE_MAX_CONNECTIONS = 10_000


def _run_scenario(name: str, scale: str, seed: int, connections: int,
                  rate: float | None = None) -> ServingReport:
    """Scenario ``name`` in ``scale``'s shape, at its base rate unless
    ``rate`` is given (a load-curve point)."""
    return _RUNNERS[name](
        seed, connections, workers=4, num_cores=2,
        rate_per_sec=_BASE_RATES[scale][name] if rate is None else rate,
        **_SHAPES[scale][name])


def run_load_curves(seed: int, scale: str, connections: int) -> dict:
    """Queue-depth and latency versus offered load, per scenario.

    Sweeps :data:`CURVE_MULTIPLIERS` times each scenario's base rate at
    a capped connection count, so the sweep's memory stays bounded
    regardless of scale.
    """
    conns = min(connections, CURVE_MAX_CONNECTIONS)
    curves: dict[str, list] = {}
    for name, base_rate in _BASE_RATES[scale].items():
        points = []
        for multiplier in CURVE_MULTIPLIERS:
            rate = base_rate * multiplier
            report = _run_scenario(name, scale, seed, conns, rate)
            points.append({
                "load_multiplier": multiplier,
                "offered_rate_per_sec": rate,
                "connections": conns,
                "throughput_rps": round(report.throughput_rps, 3),
                "latency_cycles": {
                    "p50": report.p50, "p95": report.p95,
                    "p99": report.p99, "mean": report.mean_latency,
                },
                "queue_depth_max": report.queue_depth_max,
                "queue_depth_mean": round(report.queue_depth_mean, 3),
            })
        curves[name] = points
    return curves


def run_servebench(seed: int = 7, connections: int | None = None,
                   scale: str = "smoke", curves: bool = True) -> dict:
    """Run every scenario twice; assert bit-identical determinism.

    The determinism gate is the engine's whole value proposition: same
    seed and arrival schedule must reproduce the report's
    :meth:`ServingReport.fingerprint` bit for bit.
    """
    if scale not in SCALE_CONNECTIONS:
        raise ValueError(f"unknown scale: {scale!r} "
                         f"(choices: {sorted(SCALE_CONNECTIONS)})")
    if connections is None:
        connections = SCALE_CONNECTIONS[scale]
    results = {}
    for name in _RUNNERS:
        results[name] = run_twice(
            name, lambda: _run_scenario(name, scale, seed, connections),
            ServingReport.fingerprint)
    note_smoke = ("open-loop serving benchmark; every scenario ran "
                  "twice with identical seeds and produced bit-identical "
                  "cycle totals and digest states")
    note_large = ("open-loop serving benchmark at large scale "
                  "(streaming digests, no retained latency vectors); "
                  "every scenario ran twice with identical seeds and "
                  "produced bit-identical cycle totals and digest "
                  "states")
    benchmarks = {}
    for name, result in results.items():
        row = benchmarks[name] = result.summary()
        if scale != "smoke":
            row["latency_digest"] = result.latency_digest.summary()
            row["queue_wait_digest"] = result.queue_wait_digest.summary()
    report = {
        "schema": 1,
        "unit": {"latency": "cycles (ms alongside)",
                 "throughput": "connections/sec at 2.4 GHz"},
        "seed": seed,
        "connections": connections,
        "note": note_smoke if scale == "smoke" else note_large,
        "benchmarks": benchmarks,
    }
    if scale != "smoke":
        report["scale"] = scale
    if curves:
        report["curves"] = run_load_curves(seed, scale, connections)
    return report


def format_report(report: dict) -> str:
    lines = [f"{'scenario':<12s} {'conns':>6s} {'done':>6s} "
             f"{'thru (conn/s)':>14s} {'p50 (ms)':>10s} "
             f"{'p95 (ms)':>10s} {'p99 (ms)':>10s} {'preempt':>8s}"]
    for name, row in report["benchmarks"].items():
        ms = row["latency_ms"]
        lines.append(
            f"{name:<12s} {row['offered']:>6d} {row['completed']:>6d} "
            f"{row['throughput_rps']:>14,.1f} {ms['p50']:>10.4f} "
            f"{ms['p95']:>10.4f} {ms['p99']:>10.4f} "
            f"{row['preemptions']:>8d}")
    return "\n".join(lines)

