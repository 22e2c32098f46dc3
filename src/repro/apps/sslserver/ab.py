"""ApacheBench-like load generator for the simulated HTTPS server.

Mirrors the Figure 11 methodology: N runs of 1,000 requests from four
concurrent clients, varying the response size, reporting throughput.
Simulated time is the machine's cycle clock; throughput is expressed in
requests/sec and MB/sec at the paper's 2.4 GHz core frequency.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.apps.sslserver.httpd import CONNECTION_SETUP_CYCLES, HttpServer

if typing.TYPE_CHECKING:
    from repro.kernel.task import Task

#: Paper testbed frequency (Xeon Gold 5115): converts cycles to seconds.
CLOCK_HZ = 2.4e9


@dataclass(frozen=True)
class BenchResult:
    requests: int
    response_size: int
    total_cycles: float
    connections: int = 0

    @property
    def cycles_per_request(self) -> float:
        return self.total_cycles / self.requests

    @property
    def requests_per_second(self) -> float:
        return self.requests / (self.total_cycles / CLOCK_HZ)

    @property
    def throughput_mb_per_second(self) -> float:
        total_bytes = self.requests * self.response_size
        return (total_bytes / (1 << 20)) / (self.total_cycles / CLOCK_HZ)


class ApacheBench:
    """Drive an :class:`HttpServer` and measure simulated throughput."""

    def __init__(self, server: HttpServer) -> None:
        self.server = server

    def run(self, task: "Task", requests: int, response_size: int,
            concurrency: int = 4,
            requests_per_connection: int = 1) -> BenchResult:
        """Send ``requests`` requests of ``response_size`` bytes.

        ``concurrency`` models the four concurrent ab clients: the
        connections of one concurrent wave overlap their setup, so the
        serialized timeline pays ``CONNECTION_SETUP_CYCLES`` once per
        wave (the request handling itself is serialized on the single
        worker, as in a single-listener httpd).  The wave accounting is
        exact for ragged tails: a final wave of fewer than
        ``concurrency`` connections — or a final connection carrying
        fewer than ``requests_per_connection`` requests — still costs
        exactly one setup, so cycles-per-request no longer drifts with
        where the batch boundaries fall.
        """
        if requests <= 0 or concurrency <= 0:
            raise ValueError("requests and concurrency must be positive")
        if requests_per_connection <= 0:
            raise ValueError("requests_per_connection must be positive")
        kernel = self.server.kernel
        start = kernel.clock.snapshot()
        remaining = requests
        connections = 0
        while remaining > 0:
            # One concurrent wave: up to `concurrency` connections in
            # flight, their setups overlapped into a single charge.
            kernel.clock.charge(CONNECTION_SETUP_CYCLES,
                                site="apps.httpd.connect")
            for _ in range(concurrency):
                if remaining <= 0:
                    break
                per_conn = min(requests_per_connection, remaining)
                self.server.handle_connection(task, response_size,
                                              requests=per_conn,
                                              charge_setup=False)
                connections += 1
                remaining -= per_conn
        elapsed = kernel.clock.snapshot() - start
        return BenchResult(requests=requests, response_size=response_size,
                           total_cycles=elapsed, connections=connections)

    def run_open_loop(self, engine, schedule, response_size: int,
                      requests_per_connection: int = 1):
        """Drive the server through a serving engine under an open-loop
        arrival schedule; returns the engine's ServingReport.

        Unlike :meth:`run`, concurrency here is real: each connection is
        a generator job preemptively scheduled across the engine's
        worker tasks and cores, so latency percentiles and queue depth
        are measured rather than amortized analytically.
        """
        if requests_per_connection <= 0:
            raise ValueError("requests_per_connection must be positive")

        def job(task, conn_id):
            return self.server.connection_job(
                task, response_size, requests=requests_per_connection)

        engine.offer(schedule, job)
        return engine.run()
