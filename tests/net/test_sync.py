"""Anti-entropy rehydration: the paginated sync state machine, the
partial-sync chaos script, and the zero-post-sync-miss gate."""

from repro.bench.cluster import (
    SCRIPT_FIELDS,
    _build_cluster,
    _soak_cluster,
    generate_rehydration_script,
)
from repro.faults.script import FaultEvent, script_from_json, script_to_json

ALL_NODES = ("node0", "node1", "node2", "node3")

KILL = FaultEvent(kind="node_kill",
                  site="node1.apps.memcached.request",
                  occurrence=3, node="node1")


def soak(seed=5, replicas=2, script=(), connections=24):
    return _soak_cluster(
        lambda: _build_cluster(seed, nodes=4, connections=connections,
                               replicas=replicas),
        script)


class TestRehydration:
    def test_post_restart_reads_hit_after_sync(self):
        run = soak(script=(KILL,))
        totals = run.repl_totals
        assert totals["post_sync_misses"] == 0
        assert totals["syncs_completed"] >= 1
        assert totals["sync_pages"] > 0
        assert run.nodes["node1"]["replication"]["sync_done"]
        assert run.client_ledger["completed"] == 24
        assert run.audit_violations == ()

    def test_unreplicated_loss_is_structural_not_a_gate_failure(self):
        # replicas=1: the restarted store's contents are gone for good
        # (nobody else ever held them), so misses classify as
        # unreplicated — the post-sync gate stays about *recoverable*
        # loss only.
        run = soak(replicas=1, script=(KILL,))
        totals = run.repl_totals
        assert totals["repl_writes"] == 0
        assert totals["post_sync_misses"] == 0
        assert run.nodes["node1"]["replication"]["sync_done"]
        assert run.audit_violations == ()

    def test_sync_streams_before_the_up_view(self):
        # The restart broadcast happens at sync completion, so the
        # client's failover keeps working the surviving replica until
        # the rehydrated node is actually consistent.
        run = soak(script=(KILL,))
        (_, killed_at), = run.kill_times
        (_, back_at), = run.restart_times
        assert back_at > killed_at
        assert run.nodes["node1"]["replication"]["syncs_completed"] >= 1


class TestPartialSync:
    def test_kill_partial_sync_kill_again_converges(self):
        script = generate_rehydration_script(ALL_NODES)
        run = soak(script=script, connections=48)
        totals = run.repl_totals
        assert run.kills == 2 and run.restarts == 2
        assert totals["sync_retries"] >= 1   # the mid-sync partition
        assert totals["sync_pages"] > 0
        assert totals["post_sync_misses"] == 0
        assert run.up_nodes == ALL_NODES
        assert run.audit_violations == ()

    def test_partial_sync_runs_are_bit_identical(self):
        script = generate_rehydration_script(ALL_NODES)
        first = soak(script=script, connections=48)
        second = soak(script=script, connections=48)
        assert first.site_ledger == second.site_ledger
        assert first.total_cycles == second.total_cycles
        assert first.fired == second.fired

    def test_rehydration_script_round_trips_through_json(self):
        script = generate_rehydration_script(ALL_NODES)
        assert script_from_json(
            script_to_json(script, SCRIPT_FIELDS)) == script


class TestSyncAwareActionsFizzle:
    def test_sync_kill_fizzles_on_a_healthy_node(self):
        fizzle = FaultEvent(kind="sync_kill",
                            site="node1.apps.memcached.request",
                            occurrence=3, node="node1")
        run = soak(script=(fizzle,), connections=12)
        assert run.kills == 0
        assert run.client_ledger["completed"] == 12

    def test_sync_partition_fizzles_on_a_healthy_node(self):
        fizzle = FaultEvent(kind="sync_partition",
                            site="node1.apps.memcached.request",
                            occurrence=3, node="node1",
                            peer="node0", duration=20e6)
        run = soak(script=(fizzle,), connections=12)
        assert run.plane_stats["partitions"] == []
        assert run.client_ledger["retries"] == 0
