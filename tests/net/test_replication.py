"""Write-through replication: fan-out, version gating, hinted
handoff, and the audit's replica invariants (including tampered-copy
detection and the suspicion-staleness regression)."""

import pytest

from repro.bench.cluster import (
    _build_cluster,
    _soak_cluster,
    cluster_actions,
)
from repro.faults.inject import FaultInjector
from repro.faults.script import FaultEvent, arm_script
from repro.net.plane import Message

NODES = ["node0", "node1", "node2", "node3"]

KILL = FaultEvent(kind="node_kill",
                  site="node1.apps.memcached.request",
                  occurrence=3, node="node1")


def soak(seed=5, replicas=2, script=(), connections=24):
    return _soak_cluster(
        lambda: _build_cluster(seed, nodes=4, connections=connections,
                               replicas=replicas),
        script)


def run_cluster(seed=5, replicas=2, script=(), connections=24,
                run=True):
    """Like ``soak`` but hands back the live objects for tampering
    (or, with ``run=False``, a freshly-booted idle cluster)."""
    cluster, client = _build_cluster(seed, nodes=4,
                                     connections=connections,
                                     replicas=replicas)
    if script:
        injector = FaultInjector()
        arm_script(injector, script, cluster_actions(cluster))
        cluster.attach_injector(injector)
    if run:
        cluster.run()
    return cluster, client


class TestWriteThrough:
    def test_sets_fan_out_to_every_replica(self):
        run = soak()
        totals = run.repl_totals
        assert totals["repl_writes"] > 0
        assert totals["repl_acks"] == totals["repl_writes"]
        assert totals["repl_applied"] > 0
        assert run.audit_violations == ()

    def test_replicas_one_never_replicates(self):
        run = soak(replicas=1)
        totals = run.repl_totals
        assert totals["repl_writes"] == 0
        assert totals["hints_queued"] == 0

    def test_replica_versions_agree_after_quiesce(self):
        cluster, _ = run_cluster()
        for node in cluster.nodes.values():
            for key, (version, _size) in node.kv.items():
                for owner in cluster.shard_map.owners(key):
                    peer = cluster.nodes[owner]
                    assert peer.kv.get(key, (0, 0))[0] == version

    def test_duplicate_replica_write_is_version_gated(self):
        cluster, _ = run_cluster(run=False)
        node = cluster.nodes["node0"]
        payload = {"rid": 1, "key": b"key-0-0", "version": 2,
                   "size": 32, "origin": "node1"}
        cluster._on_repl(node, dict(payload), now=0.0)
        assert node.kv[b"key-0-0"] == (2, 32)
        assert node.repl_applied == 1
        # A duplicate (and an older version) must not re-apply.
        cluster._on_repl(node, dict(payload), now=0.0)
        cluster._on_repl(node, dict(payload, version=1), now=0.0)
        assert node.kv[b"key-0-0"] == (2, 32)
        assert node.repl_applied == 1
        assert node.repl_stale == 2


class TestHintedHandoff:
    def test_kill_routes_writes_through_hints(self):
        run = soak(script=(KILL,))
        totals = run.repl_totals
        assert totals["hints_queued"] > 0
        assert totals["hints_pending"] == 0
        assert run.audit_violations == ()

    def test_hint_ledger_conserves(self):
        run = soak(script=(KILL,))
        totals = run.repl_totals
        assert totals["hints_queued"] == (totals["hints_drained"]
                                          + totals["hints_dropped"]
                                          + totals["hints_pending"])

    def test_hint_cap_sheds_with_accounting(self):
        cluster, _ = run_cluster(run=False)
        cluster.hint_cap = 2
        node = cluster.nodes["node0"]
        for i in range(4):
            cluster._queue_hint(node, "node1", b"key-%d-0" % i,
                                version=1, size=16, attempts=0,
                                now=0.0)
        assert node.hints_queued == 4
        assert len(node.hints["node1"]) == 2
        assert node.hints_dropped == 2
        # Conservation holds even mid-flight, and the peer's missing
        # versions are excused rather than silently divergent.
        assert node.hints_queued == (node.hints_drained
                                     + node.hints_dropped
                                     + node.hints_pending())
        assert b"key-2-0" in cluster.nodes["node1"].repl_excused
        assert b"key-3-0" in cluster.nodes["node1"].repl_excused

    def test_attempt_exhaustion_sheds(self):
        cluster, _ = run_cluster(run=False)
        node = cluster.nodes["node0"]
        cluster._queue_hint(node, "node1", b"key-0-0", version=1,
                            size=16, attempts=cluster.max_hint_attempts
                            + 1, now=0.0)
        assert node.hints_dropped == 1
        assert node.hints_pending() == 0


class TestSuspicionStaleness:
    """Regression: a response from a suspected node must clear its
    suspicion (before the fix only ``view`` messages did, so a node
    that recovered without a view broadcast stayed skipped until the
    suspicion window aged out)."""

    def _resp(self, payload):
        return Message(src="node1", dst="client", kind="resp",
                       payload=payload, size_bytes=64, sent_at=0.0,
                       deliver_at=0.0, seq=1)

    def test_resp_clears_suspicion(self):
        _, client = _build_cluster(5, nodes=4, connections=4,
                                   replicas=2)
        client._conns[0] = {"req": 0, "attempt": 0, "arrival": 0.0,
                            "done": None, "last_target": "node1"}
        client._suspect_until["node1"] = 1e12
        client._on_message(self._resp({"conn": 0, "req": 0,
                                       "attempt": 0,
                                       "result": "hit"}), 0.0)
        assert "node1" not in client._suspect_until

    def test_even_a_duplicate_resp_clears_suspicion(self):
        _, client = _build_cluster(5, nodes=4, connections=4,
                                   replicas=2)
        client._conns[0] = {"req": 0, "attempt": 0, "arrival": 0.0,
                            "done": "completed", "last_target": None}
        client._suspect_until["node1"] = 1e12
        client._on_message(self._resp({"conn": 0, "req": 0,
                                       "attempt": 0,
                                       "result": "hit"}), 0.0)
        assert "node1" not in client._suspect_until
        assert client.dup_responses == 1


class TestAuditTamperDetection:
    def test_tampered_store_copy_is_caught(self):
        cluster, _ = run_cluster()
        node = next(n for n in cluster.nodes.values() if n.kv)
        key = sorted(node.kv)[0]
        del node.store._lru[key]
        report = cluster.audit()
        assert any("tampered or silently lost copy" in v
                   for v in report.violations)

    def test_foreign_replica_is_a_tenant_isolation_breach(self):
        cluster, _ = run_cluster()
        node = cluster.nodes["node0"]
        foreign = next(b"key-%d-0" % i for i in range(100)
                       if "node0" not in
                       cluster.shard_map.owners(b"key-%d-0" % i))
        node.kv[foreign] = (1, 16)
        report = cluster.audit()
        assert any("tenant isolation breach" in v
                   for v in report.violations)

    def test_unexplained_version_divergence_is_caught(self):
        cluster, _ = run_cluster()
        node, key = next(
            (n, k) for n in cluster.nodes.values()
            for k, (v, _s) in n.kv.items() if v >= 1
            and len(cluster.shard_map.owners(k)) >= 2)
        node.kv[key] = (0, node.kv[key][1])
        report = cluster.audit()
        assert any("replica divergence" in v
                   for v in report.violations)
        # An accounted hint drop for that key excuses the gap.
        node.repl_excused.add(key)
        assert cluster.audit().violations == []

    def test_incarnation_aware_seen_keys_catch_stale_serves(self):
        cluster, _ = run_cluster(script=(KILL,))
        node = cluster.nodes["node1"]
        # One retired seen-set per incarnation (the final quiesce
        # retires the live one too).
        assert len(node.retired_seen) == node.incarnation
        foreign = next(b"key-%d-0" % i for i in range(100)
                       if "node1" not in
                       cluster.shard_map.owners(b"key-%d-0" % i))
        node.retired_seen[0] = frozenset({foreign})
        report = cluster.audit()
        assert any("incarnation 1" in v and "does not own" in v
                   for v in report.violations)


class TestConfigValidation:
    def test_hint_cap_must_be_positive(self):
        from repro.net.cluster import Cluster
        from repro.net.plane import NetworkPlane
        from repro.net.shard import ShardMap

        with pytest.raises(ValueError, match="hint_cap"):
            Cluster(["a"], lambda n, i: {}, NetworkPlane(),
                    ShardMap(["a"]), hint_cap=0)

    def test_sync_page_size_must_be_positive(self):
        from repro.net.cluster import Cluster
        from repro.net.plane import NetworkPlane
        from repro.net.shard import ShardMap

        with pytest.raises(ValueError, match="sync_page_size"):
            Cluster(["a"], lambda n, i: {}, NetworkPlane(),
                    ShardMap(["a"]), sync_page_size=0)
