"""A twemperf-like connection-rate load generator (Figure 14).

The paper drives Memcached with twemperf at 250–1,000 connections per
second, 10 requests per connection, over four worker threads, and
reports (a) data throughput and (b) unhandled concurrent connections.

The generator measures the *per-connection* cycle cost empirically by
running sample connections through the simulated store, then computes
the sustainable connection rate of the four workers at the paper's
2.4 GHz clock: demand beyond that capacity shows up as unhandled
connections, exactly as twemperf's accumulating connection backlog.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.apps.kvstore.memcached import (
    CONNECTION_SETUP_CYCLES,
    Memcached,
)

if typing.TYPE_CHECKING:
    from repro.kernel.task import Task

CLOCK_HZ = 2.4e9


def request_plan(conn_id: int, req: int,
                 requests_per_connection: int) -> tuple[str, bytes]:
    """The op and key of the ``req``-th request on connection
    ``conn_id``: a warmup of ``min(4, R)`` sets, then gets cycling the
    same keys.  Shared by the local :class:`Twemperf` jobs and the
    cluster's ``FleetClient`` so single-node and fleet load offer the
    same stream per connection."""
    warmup = min(4, requests_per_connection)
    key = b"key-%d-%d" % (conn_id, req % warmup)
    return ("set" if req < warmup else "get"), key


@dataclass(frozen=True)
class LoadResult:
    offered_conns_per_sec: int
    handled_conns_per_sec: float
    unhandled_conns_per_sec: float
    throughput_mb_per_sec: float
    cycles_per_connection: float


class Twemperf:
    """Measure a Memcached instance under an offered connection rate."""

    def __init__(self, store: Memcached, workers: int = 4,
                 requests_per_connection: int = 10,
                 value_size: int = 1024) -> None:
        if workers <= 0:
            raise ValueError("workers must be positive")
        self.store = store
        self._connect_site = store.kernel.clock.site("apps.memcached.connect")
        self.workers = workers
        self.requests_per_connection = requests_per_connection
        self.value_size = value_size

    # ------------------------------------------------------------------

    def connection_job(self, task: "Task", conn_id: int):
        """One client connection, a mixed get/set request stream, as a
        serving-engine job (generator); :meth:`measure_connection_cost`
        drains it without an engine.

        Yields after setup and after every request — the engine's
        preemption points — and runs on the *worker* task, so four
        workers genuinely interleave on time-sliced cores instead of
        being folded into an analytic capacity formula.
        """
        self._connect_site.charge(CONNECTION_SETUP_CYCLES)
        yield
        value = bytes(self.value_size)
        for req in range(self.requests_per_connection):
            op, key = request_plan(conn_id, req,
                                   self.requests_per_connection)
            if op == "set":
                self.store.set(task, key, value)
            else:
                got = self.store.get(task, key)
                if got is None:
                    raise RuntimeError("twemperf read its own write "
                                       "back as missing")
            yield

    def run_open_loop(self, engine, schedule):
        """Drive the store through a serving engine under an open-loop
        arrival schedule; returns the engine's ServingReport.

        The closed-form :meth:`run` stays the Figure 14 reproduction;
        this path measures the same store under genuine multi-worker
        contention (queue depth, latency percentiles, preemption).
        """
        engine.offer(schedule, self.connection_job)
        return engine.run()

    def measure_connection_cost(self, task: "Task",
                                sample_connections: int = 8) -> float:
        """Average cycles per connection, measured on the machine."""
        clock = self.store.kernel.clock
        start = clock.snapshot()
        for conn_id in range(sample_connections):
            for _ in self.connection_job(task, conn_id):
                pass
        return (clock.snapshot() - start) / sample_connections

    # ------------------------------------------------------------------

    def run(self, task: "Task",
            conns_per_sec: int,
            sample_connections: int = 8) -> LoadResult:
        """Offer ``conns_per_sec`` and report what the store sustains."""
        per_conn = self.measure_connection_cost(task, sample_connections)
        capacity = self.workers * CLOCK_HZ / per_conn
        handled = min(float(conns_per_sec), capacity)
        unhandled = conns_per_sec - handled
        bytes_per_conn = self.requests_per_connection * self.value_size
        throughput = handled * bytes_per_conn / (1 << 20)
        return LoadResult(
            offered_conns_per_sec=conns_per_sec,
            handled_conns_per_sec=handled,
            unhandled_conns_per_sec=unhandled,
            throughput_mb_per_sec=throughput,
            cycles_per_connection=per_conn,
        )
