"""The simulated cluster: RPC path, failover, node kill, audit."""

import pytest

from repro.bench.cluster import (
    SCRIPT_FIELDS,
    _build_cluster,
    _soak_cluster,
    cluster_actions,
    generate_cluster_script,
)
from repro.faults.script import (
    FaultEvent,
    arm_script,
    script_from_json,
    script_to_json,
)

CONNS = 12


def soak(seed=5, replicas=1, script=(), connections=CONNS):
    return _soak_cluster(
        lambda: _build_cluster(seed, nodes=4, connections=connections,
                               replicas=replicas),
        script)


KILL = FaultEvent(kind="node_kill",
                  site="node1.apps.memcached.request",
                  occurrence=3, node="node1")


class TestHealthyCluster:
    def test_all_connections_complete(self):
        run = soak()
        assert run.client_ledger["completed"] == CONNS
        assert run.client_ledger["shed"] == 0
        assert run.client_ledger["in_flight"] == 0

    def test_audit_is_clean(self):
        run = soak()
        assert run.audit_violations == ()
        assert run.audit_checks > 0

    def test_runs_are_bit_identical(self):
        first, second = soak(), soak()
        assert first.site_ledger == second.site_ledger
        assert first.total_cycles == second.total_cycles
        assert first.digest_state == second.digest_state

    def test_requests_spread_across_shards(self):
        run = soak(connections=24)
        served = {name: stats["rpc_handled"]
                  for name, stats in run.nodes.items()}
        assert sum(served.values()) > 0
        assert sum(1 for count in served.values() if count > 0) >= 3


class TestNodeKill:
    def test_killed_node_restarts_and_cluster_recovers(self):
        run = soak(script=(KILL,))
        assert run.kills == 1 and run.restarts == 1
        assert run.up_nodes == ("node0", "node1", "node2", "node3")
        assert run.nodes["node1"]["incarnations"] == 2
        ledger = run.client_ledger
        assert ledger["offered"] == ledger["completed"] + ledger["shed"]
        assert ledger["timeouts"] > 0       # the death was *observed*
        assert run.audit_violations == ()

    def test_survivors_keep_serving_during_downtime(self):
        run = soak(script=(KILL,), connections=24)
        (victim, killed_at), = run.kill_times
        (_, back_at), = run.restart_times
        during = [t for t in run.completion_times
                  if killed_at < t <= back_at]
        assert during, "cluster stopped serving while one node was down"

    def test_replicated_cluster_fails_over_without_shedding(self):
        run = soak(replicas=2, script=(KILL,), connections=24)
        ledger = run.client_ledger
        assert ledger["shed"] == 0
        assert ledger["completed"] == 24
        assert ledger["failovers"] > 0
        assert run.audit_violations == ()

    def test_chaos_runs_are_bit_identical(self):
        first = soak(script=(KILL,))
        second = soak(script=(KILL,))
        assert first.site_ledger == second.site_ledger
        assert first.fired == second.fired
        assert first.kill_times == second.kill_times


class TestPartition:
    def test_client_partition_heals_and_requests_complete(self):
        cut = FaultEvent(
            kind="partition", site="node0.apps.memcached.request",
            occurrence=2, node="node0", peer="client", duration=20e6)
        run = soak(script=(cut,), connections=24)
        ledger = run.client_ledger
        assert ledger["offered"] == ledger["completed"] + ledger["shed"]
        assert ledger["in_flight"] == 0
        assert ledger["timeouts"] > 0       # drops were felt, not hidden
        assert run.plane_stats["partitions"] == []  # healed by the end
        assert run.audit_violations == ()


class TestScripts:
    def test_generated_script_round_trips_through_json(self):
        script = generate_cluster_script(7, ["node0", "node1"], events=5)
        assert script_from_json(
            script_to_json(script, SCRIPT_FIELDS)) == script

    def test_first_event_is_always_a_node_kill(self):
        for seed in range(5):
            script = generate_cluster_script(seed, ["node0", "node1"])
            assert script[0].kind == "node_kill"

    def test_unknown_event_kind_rejected(self):
        from repro.faults.inject import FaultInjector

        # The factories are lazy, so no cluster is needed to reject
        # the script before anything is armed.
        bogus = FaultEvent(kind="meteor", site="x", occurrence=1)
        with pytest.raises(ValueError, match="meteor"):
            arm_script(FaultInjector(), (bogus,), cluster_actions(None))


class TestEngineStepping:
    """The push/next_time/step face the cluster driver runs on."""

    def test_pushed_connections_complete(self, kernel, process):
        from repro.bench.serving import ServingEngine

        engine = ServingEngine(kernel, cores=[1], queue_limit=8)
        worker = process.spawn_task()
        engine.add_worker(worker, core_id=1)
        done = []
        engine.on_complete = lambda conn, now: done.append(
            (conn.conn_id, now))

        def job(task, conn_id):
            kernel.clock.charge(100.0, site="apps.test.request")
            yield

        engine.start()
        first = engine.push(0.0, job)
        second = engine.push(50.0, job)
        while engine.next_time() is not None:
            engine.step()
        report = engine.stop()
        assert [conn_id for conn_id, _ in done] == [first, second]
        assert report.completed == 2 and report.offered == 2

    def test_idle_engine_reports_no_next_time(self, kernel, process):
        from repro.bench.serving import ServingEngine

        engine = ServingEngine(kernel, cores=[1], queue_limit=8)
        engine.add_worker(process.spawn_task(), core_id=1)
        engine.start()
        assert engine.next_time() is None
        assert engine.step() is False       # non-strict: no stall raise
