"""The serving engine's next-event memo is exact.

The cluster driver polls every up node's ``ServingEngine.next_time()``
once per event.  The engine memoizes the answer and clears the memo
in ``step()``, ``push()`` and ``_on_wake()``.  Here every poll is
checked against a fresh ``_compute_next_time()`` (what each poll
recomputed before the memo existed), over every clusterchaos scenario,
one sweep cell, and an engine woken from outside its own step.
"""

from __future__ import annotations

import pytest

from repro.bench import serving
from repro.bench.cluster import (
    generate_cluster_script,
    generate_rehydration_script,
    run_cluster_sweep,
    run_clusterchaos,
)
from repro.bench.serving import ServingEngine
from repro.kernel.task import WaitQueue


@pytest.fixture
def polls(monkeypatch):
    """Check every ``next_time()`` poll against a recomputation; count
    the polls and how many the memo answered."""
    counts = {"polls": 0, "memo_hits": 0}
    memoized = ServingEngine.next_time

    def checked(self):
        counts["polls"] += 1
        if self._next_memo is not serving._STALE:
            counts["memo_hits"] += 1
        served = memoized(self)
        fresh = self._compute_next_time()
        assert served == fresh, (
            f"engine {self.name!r}: memo {served} != fresh {fresh}")
        return served

    monkeypatch.setattr(ServingEngine, "next_time", checked)
    return counts


def test_every_clusterchaos_scenario(polls):
    names = [f"node{i}" for i in range(4)]
    kinds = {event.kind for event in generate_cluster_script(29, names)}
    kinds |= {event.kind for event in generate_rehydration_script(names)}
    assert {"node_kill", "partition", "delay", "worker_kill",
            "sync_partition", "sync_kill"} <= kinds
    report = run_clusterchaos()
    assert set(report["scenarios"]) == {"sharded", "replicated",
                                        "rehydration"}
    assert polls["memo_hits"] > polls["polls"] // 2


def test_one_sweep_cell(polls):
    sweep = run_cluster_sweep(nodes_axis=(3,), replicas_axis=(2,),
                              partition_axis_mcyc=(40.0,))
    assert len(sweep["rows"]) == 1
    assert polls["memo_hits"] > 0


def test_push_into_an_idle_engine(polls, kernel, process):
    engine = ServingEngine(kernel, cores=[1])
    engine.add_worker(process.spawn_task(), core_id=1)
    engine.start()
    assert engine.next_time() is None
    assert engine.next_time() is None        # served from the memo
    engine.push(500.0, lambda task, conn_id: iter(()))
    assert engine.next_time() == 500.0
    assert polls["memo_hits"] == 1


def test_wake_from_outside_the_engine_step(polls, kernel, process):
    """A driver-side wake (the cluster's plane handlers run between
    engine steps) must move the next event: the blocked worker's core
    becomes runnable again."""
    engine = ServingEngine(kernel, cores=[1])
    engine.add_worker(process.spawn_task(), core_id=1)
    queue = WaitQueue("outside")
    done = []
    engine.on_complete = lambda conn, now: done.append(conn.conn_id)

    def job(task, conn_id):
        kernel.clock.charge(100.0, site="apps.test.request")
        yield queue
        kernel.clock.charge(100.0, site="apps.test.request")

    engine.start()
    conn_id = engine.push(0.0, job)
    while engine.next_time() is not None:
        engine.step()
    assert len(queue) == 1 and not done     # parked, engine idle
    queue.wake_one()
    assert engine.next_time() is not None
    while engine.next_time() is not None:
        engine.step()
    engine.stop()
    assert done == [conn_id]
