"""The simulated cluster: N machines, a sharded memcached fleet, and
cross-node failure handling.

A :class:`Cluster` assembles full ``Machine``/``Kernel``/``Libmpk``
nodes (built by a caller-supplied factory so the workload stays
pluggable), wires them into one :class:`~repro.net.plane.NetworkPlane`,
and drives everything on a single global virtual-time axis: each loop
iteration advances whichever has the earliest next event — the plane
(a delivery or timer) or one node's
:class:`~repro.bench.serving.ServingEngine` (one scheduling slice via
the engine's stepping API).  Ties go to the plane, then to node boot
order, so the interleaving is a pure function of the inputs.

The robustness machinery:

* **RPC state machine** (:class:`FleetClient`) — per-request timeout,
  capped-exponential retry/backoff (the same ``min(base * 2**n, cap)``
  schedule as :class:`Supervisor`, the
  :class:`~repro.errors.MpkTimeout` semantics transplanted to the
  wire), failover to the next replica in the shard map, and
  shed-with-accounting at ``net.cluster.shed`` when every attempt is
  exhausted.  Responses are at-least-once: a late first-attempt reply
  still completes the request, and anything after that is counted as a
  duplicate, never double-completed.  Any response from a suspected
  node clears its suspicion — the response *is* the liveness proof.
* **Write-through replication** — a ``set`` handled by any owner (the
  coordinator: the primary normally, a replica during failover) fans
  out to the rest of the ShardMap's distinct-node replica walk as
  ``repl`` messages, charged at ``net.repl.tx``/``net.repl.rx``.
  Every write carries a per-key version counter, so duplicate and
  reordered replica writes are idempotent (version-gated; stale
  applications count, never overwrite).  Each replica write is acked;
  an unacked write converts to a *hint* at the ack timeout.
* **Hinted handoff** — per-peer FIFO hint buffers, bounded at
  ``hint_cap``; overflow and attempt-exhaustion shed with accounting
  at ``net.repl.hint_drop`` (and excuse the peer's missing versions in
  the audit — explained loss, not silent loss).  Hints drain on the
  peer's ``up`` view message, on any ack from the peer (connectivity
  proof), and on a capped-exponential retry timer, so a healed
  partition drains even if no other traffic flows.
* **Anti-entropy rehydration** — a restarted node streams its owned
  keys back from every peer through a paginated ``sync_req`` →
  ``sync_page`` state machine (deterministic cursor order, per-page
  timeout/retry/backoff, peer skip after ``sync_max_attempts``) before
  broadcasting its ``up`` view; while the sync is in flight the node
  serves in *degraded* mode (misses allowed and counted separately).
* **Node kill** (:func:`node_kill`) — the machine "loses power" at the
  current event boundary: every task dies via
  :meth:`~repro.kernel.kcore.Kernel.power_off`, the engine's report,
  the machine's per-site cycle ledger, and the incarnation's
  ``seen_keys`` are retired (kept per incarnation under the node's
  name), pending hints and unacked replica writes are dropped *with
  accounting*, in-flight RPCs go unanswered (the client's timeouts
  take it from there), and a restart is scheduled after
  ``restart_delay`` — within a *machine-granularity* restart budget.
* **Link partition** (:func:`link_partition`) — cuts a link for a
  bounded window; sends during the window drop at the plane and the
  client rides its retry/failover path.  :func:`sync_partition` and
  :func:`sync_kill` are the rehydration-aware variants: they only fire
  while the victim is mid-sync.
* **Cluster audit** (:meth:`Cluster.audit`) — every live node's
  four-layer ``Libmpk.audit()`` plus obs conservation, the client's
  conservation, shard-map view consistency (ring fingerprints must
  agree), per-incarnation ownership (every key any incarnation served
  must belong to the node under the static map), per-incarnation
  engine accounting, replica **version agreement** after quiesce
  (divergence is a violation unless explained by an accounted hint
  drop or an incomplete sync), **hint-ledger conservation**
  (``queued == drained + dropped + pending``), **store coherence**
  (the version table and the store's item index must agree — a
  tampered or silently-evicted copy is a violation), and per-tenant
  isolation (a tenant's keys must never be held outside the tenant's
  sanctioned replica sets).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.apps.kvstore.memcached import CONNECTION_SETUP_CYCLES
from repro.apps.kvstore.twemperf import request_plan
from repro.bench.digest import LatencyDigest
from repro.net.plane import NetworkPlane
from repro.net.shard import ShardMap
from repro.obs import ChargeSink

#: Client-side cycle costs (charged on the client machine's clock).
RPC_CLIENT_CYCLES = 800.0       # marshal + socket write per request
TIMEOUT_HANDLER_CYCLES = 1_000.0  # hrtimer expiry + state transition

#: Replication-plane cycle costs (charged on the node doing the work).
REPL_TX_CYCLES = 600.0          # marshal one replica write
REPL_RX_CYCLES = 500.0          # replica-write bookkeeping (the store
#                                 apply charges its own request cycles)
REPL_ACK_CYCLES = 300.0         # ack bookkeeping on the coordinator
HINT_QUEUE_CYCLES = 200.0       # enqueue one hint
HINT_DRAIN_CYCLES = 200.0       # dequeue + replay one hint
HINT_DROP_CYCLES = 100.0        # shed one hint (cap or attempts)
SYNC_REQ_CYCLES = 400.0         # one sync page request
SYNC_PAGE_CYCLES = 800.0        # peer-side page scan + marshal
SYNC_APPLY_CYCLES = 400.0       # requester-side page bookkeeping
SYNC_RETRY_CYCLES = 300.0       # sync timeout handling

#: Small-message wire sizes (bytes).
REQUEST_HEADER_BYTES = 64
RESPONSE_HEADER_BYTES = 64
VIEW_MESSAGE_BYTES = 64
ACK_MESSAGE_BYTES = 64

#: The plane endpoint view/control messages originate from (no clock:
#: membership changes are the simulation harness speaking, not work).
CONTROL_ENDPOINT = "ctrl"


def tenant_of(key: bytes) -> str:
    """The tenant a key belongs to.  The fleet workload's keys are
    ``key-<conn>-<n>`` (one tenant per connection); anything else is
    the anonymous tenant ``"?"`` — still audited, just unattributed."""
    parts = key.split(b"-")
    if len(parts) >= 2 and parts[1]:
        return parts[1].decode("ascii", "replace")
    return "?"


class PrefixTap(ChargeSink):
    """Forward a machine's charges to a shared sink with the node name
    prefixed (``node0.apps.memcached.request``), so one
    :class:`~repro.faults.inject.FaultInjector` can script per-node
    (site, occurrence) plans across the whole cluster."""

    def __init__(self, prefix: str, sink: ChargeSink) -> None:
        self._prefix = prefix
        self._sink = sink

    def on_charge(self, site: str, cycles: float, now: float,
                  seq: int) -> None:
        self._sink.on_charge(f"{self._prefix}.{site}", cycles, now, seq)


@dataclass
class Node:
    """One cluster member (the current incarnation, plus everything
    carried across restarts: retired ledgers, reports, budget, and the
    cumulative replication counters)."""

    name: str
    machine: typing.Any
    kernel: typing.Any
    process: typing.Any
    lib: typing.Any
    store: typing.Any
    engine: typing.Any
    pool: typing.Any
    incarnation: int = 1
    up: bool = True
    dying: bool = False
    restarts_used: int = 0
    gave_up: bool = False
    # RPCs in flight on this incarnation's engine.
    pending: dict = field(default_factory=dict)    # conn_id -> reply info
    results: dict = field(default_factory=dict)    # conn_id -> result str
    rpc_handled: int = 0
    rpc_aborted: int = 0
    rpc_shed: int = 0
    # Keys this *incarnation* served; retired with the ledger so the
    # ownership audit stays incarnation-aware (a key served before a
    # kill must not vouch for the post-restart store).
    seen_keys: set = field(default_factory=set)
    retired_seen: list = field(default_factory=list)  # per-incarnation
    # Ledgers retired from dead incarnations.
    retired_sites: dict = field(default_factory=dict)
    retired_clock: float = 0.0
    reports: list = field(default_factory=list)    # per-incarnation
    # --- replication plane (this incarnation's volatile state) -------
    kv: dict = field(default_factory=dict)         # key -> (version, size)
    pending_repl: dict = field(default_factory=dict)  # rid -> write info
    hints: dict = field(default_factory=dict)      # peer -> [hint, ...]
    hint_timer: dict = field(default_factory=dict)  # peer -> bool
    hint_backoff: dict = field(default_factory=dict)  # peer -> level
    syncing: bool = False
    sync_done: bool = True       # incarnation 1 has nothing to recover
    sync_incomplete: bool = False  # a peer was skipped this incarnation
    sync_peers: list = field(default_factory=list)
    sync_peer_idx: int = 0
    sync_cursor: bytes = b""
    sync_attempts: int = 0
    # Ledger slots of the replica-write round trip on this
    # incarnation's clock, bound at boot (hint and sync charges run
    # only after faults and name their sites per charge).
    repl_tx_site: typing.Any = None
    repl_rx_site: typing.Any = None
    repl_ack_site: typing.Any = None
    # --- cumulative counters (carried across restarts) ---------------
    repl_writes: int = 0         # replica writes sent
    repl_applied: int = 0        # replica writes applied (version won)
    repl_stale: int = 0          # replica writes gated (duplicate/old)
    repl_acks: int = 0
    hints_queued: int = 0
    hints_drained: int = 0
    hints_dropped: int = 0
    sync_pages: int = 0          # pages this node rehydrated from peers
    sync_serves: int = 0         # pages this node served to peers
    sync_retries: int = 0
    sync_peer_skips: int = 0
    syncs_completed: int = 0
    degraded_misses: int = 0     # get-misses served while sync in flight
    excused_misses: int = 0      # misses explained by accounted loss
    unreplicated_misses: int = 0  # replicas=1: loss is structural
    cold_misses: int = 0         # misses on never-stored keys
    post_sync_misses: int = 0    # the rehydration-gate counter: must be 0
    # Keys whose loss on *this* node is excused by an accounted hint
    # drop (sticky across restarts — the drop is permanent).
    repl_excused: set = field(default_factory=set)

    def hints_pending(self) -> int:
        return sum(len(queue) for queue in self.hints.values())

    def repl_stats(self) -> dict:
        """The replication-plane counters the bench summaries and the
        procfs mirror read."""
        return {
            "repl_writes": self.repl_writes,
            "repl_applied": self.repl_applied,
            "repl_stale": self.repl_stale,
            "repl_acks": self.repl_acks,
            "hints_queued": self.hints_queued,
            "hints_drained": self.hints_drained,
            "hints_dropped": self.hints_dropped,
            "hints_pending": self.hints_pending(),
            "sync_pages": self.sync_pages,
            "sync_serves": self.sync_serves,
            "sync_retries": self.sync_retries,
            "sync_peer_skips": self.sync_peer_skips,
            "syncs_completed": self.syncs_completed,
            "sync_done": self.sync_done,
            "degraded_misses": self.degraded_misses,
            "excused_misses": self.excused_misses,
            "unreplicated_misses": self.unreplicated_misses,
            "cold_misses": self.cold_misses,
            "post_sync_misses": self.post_sync_misses,
            "keys_held": len(self.kv),
        }


@dataclass
class ClusterAuditReport:
    """Outcome of one cluster-wide consistency audit."""

    violations: list[str] = field(default_factory=list)
    checks: int = 0


class FleetClient:
    """The twemperf fleet: open-loop connections, each a sequence of
    set/get RPCs routed by consistent hash, with timeout / retry /
    failover / shed handling.

    Request streams mirror :class:`~repro.apps.kvstore.twemperf.
    Twemperf.connection_job` (warmup sets, then gets of the same keys),
    but each request travels the network plane to its shard owner
    instead of running on a local worker.  A simple failure detector
    rides the timeouts: a target that times out is *suspected* for
    ``suspect_cycles`` and skipped when picking targets (unless every
    owner is suspected — then the client tries anyway, which is what
    lets it rediscover a restarted node even if the view message
    raced); cluster view messages *and any response from the node
    itself* clear suspicion — a reply is a stronger liveness proof
    than a view broadcast, and without it a recovered-but-unannounced
    node would stay futilely skipped until the suspicion aged out.
    """

    def __init__(self, plane: NetworkPlane, name: str,
                 shard_map: ShardMap, machine,
                 arrivals: typing.Sequence[float],
                 requests_per_connection: int = 6,
                 value_size: int = 1024,
                 rpc_timeout: float = 15e6,
                 max_attempts: int = 4,
                 backoff_base: float = 2e6,
                 backoff_cap: float = 8e6,
                 suspect_cycles: float = 30e6) -> None:
        if max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        self.plane = plane
        self.name = name
        self.shard_map = shard_map
        self.machine = machine
        self._connect_site = machine.clock.site("net.cluster.connect")
        self._rpc_site = machine.clock.site("net.cluster.rpc")
        self.requests_per_connection = requests_per_connection
        self.value_size = value_size
        self.rpc_timeout = rpc_timeout
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.suspect_cycles = suspect_cycles
        self.offered = len(arrivals)
        self._conns: dict[int, dict] = {}
        self._suspect_until: dict[str, float] = {}
        self.completed = 0
        self.shed = 0
        self.timeouts = 0
        self.retries = 0
        self.failovers = 0
        self.dup_responses = 0
        self.misses = 0
        self.latency_digest = LatencyDigest()
        self.completion_times: list[float] = []
        self.shed_times: list[float] = []
        plane.add_endpoint(name, clock=machine.clock,
                           handler=self._on_message)
        for conn_id, arrival in enumerate(arrivals):
            plane.at(arrival,
                     lambda now, cid=conn_id, arr=arrival:
                     self._start_conn(cid, arr, now))

    # -- the request plan (shared with Twemperf) ------------------------

    def _request(self, conn_id: int, req: int) -> tuple[str, bytes]:
        return request_plan(conn_id, req, self.requests_per_connection)

    # -- connection lifecycle -------------------------------------------

    def _start_conn(self, conn_id: int, arrival: float,
                    now: float) -> None:
        self._connect_site.charge(CONNECTION_SETUP_CYCLES)
        self._conns[conn_id] = {"req": 0, "attempt": 0,
                                "arrival": arrival, "done": None,
                                "last_target": None}
        self._send(conn_id, now)

    def _suspected(self, node: str, now: float) -> bool:
        until = self._suspect_until.get(node)
        return until is not None and now < until

    def _pick_target(self, state: dict, key: bytes, now: float) -> str:
        owners = self.shard_map.owners(key)
        candidates = [o for o in owners if not self._suspected(o, now)]
        if not candidates:
            candidates = list(owners)
        return candidates[state["attempt"] % len(candidates)]

    def _send(self, conn_id: int, now: float) -> None:
        state = self._conns[conn_id]
        req = state["req"]
        op, key = self._request(conn_id, req)
        target = self._pick_target(state, key, now)
        if state["attempt"] > 0 and target != state["last_target"]:
            self.failovers += 1
        state["last_target"] = target
        self._rpc_site.charge(RPC_CLIENT_CYCLES)
        size = (self.value_size if op == "set"
                else REQUEST_HEADER_BYTES)
        self.plane.send(self.name, target, "req",
                        {"conn": conn_id, "req": req,
                         "attempt": state["attempt"], "op": op,
                         "key": key, "size": self.value_size,
                         "reply_to": self.name},
                        size_bytes=size, now=now)
        self.plane.at(now + self.rpc_timeout,
                      lambda t, cid=conn_id, r=req,
                      a=state["attempt"]: self._on_timeout(cid, r, a, t))

    # -- timeout / retry / failover / shed ------------------------------

    def _on_timeout(self, conn_id: int, req: int, attempt: int,
                    now: float) -> None:
        state = self._conns[conn_id]
        if (state["done"] is not None or state["req"] != req
                or state["attempt"] != attempt):
            return  # resolved already: the response (or a retry) won
        self.timeouts += 1
        self.machine.clock.charge(TIMEOUT_HANDLER_CYCLES,
                                  site="net.cluster.timeout")
        if state["last_target"] is not None:
            self._suspect_until[state["last_target"]] = \
                now + self.suspect_cycles
        state["attempt"] += 1
        if state["attempt"] >= self.max_attempts:
            # Every attempt exhausted: shed the whole connection,
            # accounted at its own site — degradation, not silence.
            state["done"] = "shed"
            self.shed += 1
            self.shed_times.append(now)
            self.machine.clock.charge(self.machine.costs.conn_reset,
                                      site="net.cluster.shed")
            return
        self.retries += 1
        backoff = min(self.backoff_base * (2 ** (state["attempt"] - 1)),
                      self.backoff_cap)
        self.plane.at(now + backoff,
                      lambda t, cid=conn_id, r=req,
                      a=state["attempt"]: self._resend(cid, r, a, t))

    def _resend(self, conn_id: int, req: int, attempt: int,
                now: float) -> None:
        state = self._conns[conn_id]
        if (state["done"] is not None or state["req"] != req
                or state["attempt"] != attempt):
            return  # a response landed during the backoff
        self._send(conn_id, now)

    # -- responses ------------------------------------------------------

    def _on_message(self, message, now: float) -> None:
        if message.kind == "view":
            if message.payload.get("up"):
                self._suspect_until.pop(message.payload["node"], None)
            return
        if message.kind != "resp":
            return
        # A response *is* a liveness proof: clear the responder's
        # suspicion even for duplicates (previously only view messages
        # did, so a node recovering without a view broadcast stayed
        # skipped until the suspicion window aged out).
        self._suspect_until.pop(message.src, None)
        payload = message.payload
        conn_id, req = payload["conn"], payload["req"]
        state = self._conns[conn_id]
        if state["done"] is not None or state["req"] != req:
            # A duplicate (a retried request answered twice) or a
            # response that lost to the shed path: never re-completed.
            self.dup_responses += 1
            return
        if payload.get("result") == "miss":
            self.misses += 1
        state["req"] += 1
        state["attempt"] = 0
        state["last_target"] = None
        if state["req"] >= self.requests_per_connection:
            state["done"] = "completed"
            self.completed += 1
            self.completion_times.append(now)
            self.latency_digest.add(now - state["arrival"])
        else:
            self._send(conn_id, now)

    # -- accounting ------------------------------------------------------

    def in_flight(self) -> int:
        return sum(1 for s in self._conns.values() if s["done"] is None)

    def ledger(self) -> dict:
        """The client-centric accounting the liveness gate runs on:
        every offered connection must end up completed or shed."""
        return {
            "offered": self.offered,
            "completed": self.completed,
            "shed": self.shed,
            "in_flight": self.in_flight(),
            "timeouts": self.timeouts,
            "retries": self.retries,
            "failovers": self.failovers,
            "dup_responses": self.dup_responses,
            "misses": self.misses,
        }


class Cluster:
    """N nodes + plane + fleet client, driven deterministically."""

    def __init__(self, node_names: typing.Sequence[str],
                 node_factory: typing.Callable,
                 plane: NetworkPlane, shard_map: ShardMap,
                 restart_delay: float = 45e6,
                 max_node_restarts: int = 2,
                 repl_ack_timeout: float = 10e6,
                 hint_cap: int = 64,
                 max_hint_attempts: int = 6,
                 hint_retry_base: float = 8e6,
                 hint_retry_cap: float = 32e6,
                 sync_page_size: int = 8,
                 sync_timeout: float = 10e6,
                 sync_max_attempts: int = 3,
                 sync_backoff_base: float = 2e6,
                 sync_backoff_cap: float = 8e6) -> None:
        if hint_cap < 1:
            raise ValueError("hint_cap must be positive")
        if sync_page_size < 1:
            raise ValueError("sync_page_size must be positive")
        self.plane = plane
        self.shard_map = shard_map
        self.node_factory = node_factory
        self.restart_delay = restart_delay
        self.max_node_restarts = max_node_restarts
        self.repl_ack_timeout = repl_ack_timeout
        self.hint_cap = hint_cap
        self.max_hint_attempts = max_hint_attempts
        self.hint_retry_base = hint_retry_base
        self.hint_retry_cap = hint_retry_cap
        self.sync_page_size = sync_page_size
        self.sync_timeout = sync_timeout
        self.sync_max_attempts = sync_max_attempts
        self.sync_backoff_base = sync_backoff_base
        self.sync_backoff_cap = sync_backoff_cap
        self.nodes: dict[str, Node] = {}
        self.client: FleetClient | None = None
        self.injector = None
        self.vnow = 0.0
        self.kills = 0
        self._deaths_pending = False   # kill_node flagged a node
        self.restarts = 0
        self.kill_times: list[tuple[str, float]] = []
        self.restart_times: list[tuple[str, float]] = []
        #: Every key any coordinator ever durably stored (the
        #: rehydration gate's reference set).
        self.stored_keys: set[bytes] = set()
        #: Accounted hint drops: (coordinator, peer, key) — the audit's
        #: excuse ledger for version divergence.
        self.hint_drops: list[tuple[str, str, bytes]] = []
        self._rid = 0   # plane-wide replica-write id (never reused
        #                 across incarnations, so stale acks can't
        #                 complete a new incarnation's write)
        plane.add_endpoint(CONTROL_ENDPOINT)
        for name in node_names:
            self._boot(name, incarnation=1)

    def attach_client(self, client: FleetClient) -> None:
        self.client = client

    def attach_injector(self, injector) -> None:
        """Tap every machine (nodes, client, and any future node
        incarnation) into ``injector`` with name-prefixed sites."""
        self.injector = injector
        for node in self.nodes.values():
            node.machine.obs.add_sink(PrefixTap(node.name, injector))
        if self.client is not None:
            self.client.machine.obs.add_sink(
                PrefixTap(self.client.name, injector))

    # -- node lifecycle --------------------------------------------------

    def _boot(self, name: str, incarnation: int) -> Node:
        parts = self.node_factory(name, incarnation)
        node = Node(name=name, incarnation=incarnation, **parts)
        site = node.machine.clock.site
        node.repl_tx_site = site("net.repl.tx")
        node.repl_rx_site = site("net.repl.rx")
        node.repl_ack_site = site("net.repl.ack")
        self.nodes[name] = node
        if self.injector is not None:
            node.machine.obs.add_sink(PrefixTap(name, self.injector))
        node.engine.on_complete = \
            lambda conn, now, n=node: self._request_done(n, conn, now)
        node.engine.on_abort = \
            lambda conn, now, n=node: self._request_lost(n, conn,
                                                         aborted=True)
        node.engine.on_shed = \
            lambda conn, now, n=node: self._request_lost(n, conn,
                                                         aborted=False)
        node.engine.start()
        self.plane.add_endpoint(
            name, clock=node.machine.clock,
            handler=lambda msg, now, n=name: self._on_node_message(
                n, msg, now))
        return node

    def kill_node(self, name: str) -> bool:
        """Mark a node for death at the current event boundary (the
        fault action face; the loop finalizes via :meth:`_shutdown`)."""
        node = self.nodes[name]
        if not node.up or node.dying:
            return False
        node.dying = True
        self._deaths_pending = True
        return True

    def _shutdown(self, node: Node) -> None:
        node.dying = False
        node.up = False
        self.kills += 1
        self.kill_times.append((node.name, self.vnow))
        self.plane.set_up(node.name, False)
        node.kernel.power_off()
        node.reports.append(node.engine.stop())
        self._retire_ledger(node)
        # Unanswered RPCs: the client's timeouts discover the death.
        node.pending.clear()
        node.results.clear()
        # The replication plane's volatile state dies with the
        # incarnation — but never silently: unacked replica writes and
        # pending hints are retired as accounted drops (power is off,
        # so no cycles are charged; the *ledger* still balances).
        for rid in sorted(node.pending_repl):
            entry = node.pending_repl[rid]
            node.hints_queued += 1
            self._drop_hint(node, entry["peer"], entry["key"],
                            charge=False)
        node.pending_repl.clear()
        for peer in sorted(node.hints):
            for entry in node.hints[peer]:
                self._drop_hint(node, peer, entry["key"], charge=False)
        node.hints.clear()
        node.hint_timer.clear()
        node.hint_backoff.clear()
        if node.restarts_used < self.max_node_restarts:
            self.plane.at(self.vnow + self.restart_delay,
                          lambda now, name=node.name:
                          self._restart(name, now))
        else:
            node.gave_up = True

    def _retire_ledger(self, node: Node) -> None:
        for site, cycles in node.machine.obs.aggregator.cycles.items():
            node.retired_sites[site] = \
                node.retired_sites.get(site, 0.0) + cycles
        node.retired_clock += node.machine.clock.now
        # seen_keys retires with the ledger, per incarnation: the
        # ownership audit must not let a pre-kill serve vouch for the
        # post-restart store.
        node.retired_seen.append(frozenset(node.seen_keys))
        node.seen_keys = set()

    def _restart(self, name: str, now: float) -> None:
        old = self.nodes[name]
        if old.up:
            return
        node = self._boot(name, incarnation=old.incarnation + 1)
        # Carry the cross-incarnation state forward.
        node.retired_sites = old.retired_sites
        node.retired_clock = old.retired_clock
        node.reports = old.reports
        node.retired_seen = old.retired_seen
        node.restarts_used = old.restarts_used + 1
        node.repl_excused = old.repl_excused
        for attr in ("repl_writes", "repl_applied", "repl_stale",
                     "repl_acks", "hints_queued", "hints_drained",
                     "hints_dropped", "sync_pages", "sync_serves",
                     "sync_retries", "sync_peer_skips",
                     "syncs_completed", "degraded_misses",
                     "excused_misses", "unreplicated_misses",
                     "cold_misses", "post_sync_misses"):
            setattr(node, attr, getattr(old, attr))
        self.restarts += 1
        self.restart_times.append((name, now))
        # Rehydration is anti-entropy-shaped: the store restarts empty
        # and streams its owned keys back from every peer before the
        # node broadcasts its `up` view (degraded serving meanwhile).
        self._start_sync(node, now)

    # -- server-side RPC handling ---------------------------------------

    def _on_node_message(self, name: str, message, now: float) -> None:
        node = self.nodes[name]
        if not node.up:
            return
        kind = message.kind
        if kind == "req":
            self._on_req(node, message.payload, now)
        elif kind == "repl":
            self._on_repl(node, message.payload, now)
        elif kind == "repl_ack":
            self._on_repl_ack(node, message.payload, now)
        elif kind == "sync_req":
            self._on_sync_req(node, message.payload, now)
        elif kind == "sync_page":
            self._on_sync_page(node, message, now)
        elif kind == "view":
            if message.payload.get("up"):
                self._drain_hints(node, message.payload["node"], now)

    def _on_req(self, node: Node, payload: dict, now: float) -> None:
        key = payload["key"]
        node.seen_keys.add(key)
        conn_id = node.engine.push(
            now, self._make_job(node, payload["op"], key,
                                payload["size"]))
        node.pending[conn_id] = {
            "conn": payload["conn"], "req": payload["req"],
            "attempt": payload["attempt"],
            "reply_to": payload["reply_to"],
            "op": payload["op"], "key": key, "size": payload["size"],
        }

    def _make_job(self, node: Node, op: str, key: bytes, size: int):
        store = node.store
        cluster = self

        def job(task, conn_id):
            if op == "set":
                store.set(task, key, bytes(size))
                version = node.kv.get(key, (0, 0))[0] + 1
                node.kv[key] = (version, size)
                cluster.stored_keys.add(key)
                node.results[conn_id] = "stored"
            else:
                got = store.get(task, key)
                if got is None:
                    cluster._count_miss(node, key)
                node.results[conn_id] = "hit" if got is not None \
                    else "miss"
            yield

        return job

    def _count_miss(self, node: Node, key: bytes) -> None:
        """Classify a get-miss: every miss must be explicable —
        degraded (sync in flight), excused (accounted hint drop or
        skipped sync peer), structural (replicas=1: nobody else ever
        had it), or cold (never stored cluster-wide).  What remains is
        a *post-sync miss* — the rehydration gate's zero-target."""
        if node.syncing:
            node.degraded_misses += 1
        elif key not in self.stored_keys:
            node.cold_misses += 1
        elif len(self.shard_map.owners(key)) < 2:
            node.unreplicated_misses += 1
        elif key in node.repl_excused or node.sync_incomplete:
            node.excused_misses += 1
        else:
            node.post_sync_misses += 1

    def _request_done(self, node: Node, conn, now: float) -> None:
        info = node.pending.pop(conn.conn_id, None)
        if info is None:
            return
        result = node.results.pop(conn.conn_id, "error")
        node.rpc_handled += 1
        size = (self.client.value_size if result == "hit"
                else RESPONSE_HEADER_BYTES)
        self.plane.send(node.name, info["reply_to"], "resp",
                        {"conn": info["conn"], "req": info["req"],
                         "attempt": info["attempt"], "result": result},
                        size_bytes=size, now=now)
        if info["op"] == "set" and result == "stored":
            self._replicate(node, info["key"], now)

    def _request_lost(self, node: Node, conn, aborted: bool) -> None:
        """A pushed RPC died server-side (worker killed mid-request, or
        admission control shed it): no response — the client's timeout
        owns recovery."""
        if node.pending.pop(conn.conn_id, None) is None:
            return
        node.results.pop(conn.conn_id, None)
        if aborted:
            node.rpc_aborted += 1
        else:
            node.rpc_shed += 1

    # -- write-through replication --------------------------------------

    def _replicate(self, node: Node, key: bytes, now: float) -> None:
        """Fan a completed set out to the rest of the key's replica
        walk.  A peer with hints already pending gets the write queued
        *behind* them — per-peer hint order is the delivery order."""
        version, size = node.kv[key]
        for peer in self.shard_map.owners(key):
            if peer == node.name:
                continue
            if node.hints.get(peer):
                self._queue_hint(node, peer, key, version, size,
                                 attempts=0, now=now)
            else:
                self._send_repl(node, peer, key, version, size,
                                attempts=0, now=now)

    def _send_repl(self, node: Node, peer: str, key: bytes,
                   version: int, size: int, attempts: int,
                   now: float) -> None:
        self._rid += 1
        rid = self._rid
        node.pending_repl[rid] = {"peer": peer, "key": key,
                                  "version": version, "size": size,
                                  "attempts": attempts}
        node.repl_writes += 1
        node.repl_tx_site.charge(REPL_TX_CYCLES)
        self.plane.send(node.name, peer, "repl",
                        {"rid": rid, "key": key, "version": version,
                         "size": size, "origin": node.name},
                        size_bytes=size, now=now)
        inc = node.incarnation
        self.plane.at(now + self.repl_ack_timeout,
                      lambda t, n=node.name, i=inc, r=rid:
                      self._on_repl_timeout(n, i, r, t))

    def _on_repl_timeout(self, name: str, incarnation: int, rid: int,
                         now: float) -> None:
        node = self.nodes[name]
        if node.incarnation != incarnation or not node.up:
            return
        entry = node.pending_repl.pop(rid, None)
        if entry is None:
            return  # acked in time
        self._queue_hint(node, entry["peer"], entry["key"],
                         entry["version"], entry["size"],
                         attempts=entry["attempts"] + 1, now=now)

    def _on_repl(self, node: Node, payload: dict, now: float) -> None:
        """A replica write arrives: apply it iff its version wins
        (duplicates and reordered deliveries are gated, counted, and
        still acked — the sender only needs to know the data landed)."""
        node.repl_rx_site.charge(REPL_RX_CYCLES)
        key, version = payload["key"], payload["version"]
        if version > node.kv.get(key, (0, 0))[0]:
            node.store.set(node.process.main_task, key,
                           bytes(payload["size"]))
            node.kv[key] = (version, payload["size"])
            node.repl_applied += 1
        else:
            node.repl_stale += 1
        self.plane.send(node.name, payload["origin"], "repl_ack",
                        {"rid": payload["rid"], "holder": node.name},
                        size_bytes=ACK_MESSAGE_BYTES, now=now)

    def _on_repl_ack(self, node: Node, payload: dict,
                     now: float) -> None:
        node.repl_ack_site.charge(REPL_ACK_CYCLES)
        node.repl_acks += 1
        holder = payload["holder"]
        node.hint_backoff[holder] = 0
        acked = node.pending_repl.pop(payload["rid"], None) is not None
        if acked and node.hints.get(holder):
            # The peer just proved it is reachable: flush its backlog.
            self._drain_hints(node, holder, now)

    # -- hinted handoff --------------------------------------------------

    def _queue_hint(self, node: Node, peer: str, key: bytes,
                    version: int, size: int, attempts: int,
                    now: float) -> None:
        # Counted *offered*, not *accepted*: a hint shed at the cap or
        # the attempt budget still enters the ledger as queued + then
        # dropped, so conservation (queued == drained + dropped +
        # pending) holds with no invisible entries.
        node.hints_queued += 1
        if attempts > self.max_hint_attempts:
            self._drop_hint(node, peer, key, charge=True)
            return
        queue = node.hints.setdefault(peer, [])
        if len(queue) >= self.hint_cap:
            self._drop_hint(node, peer, key, charge=True)
            return
        queue.append({"key": key, "version": version, "size": size,
                      "attempts": attempts})
        node.machine.clock.charge(HINT_QUEUE_CYCLES,
                                  site="net.repl.hint_queue")
        self._schedule_hint_retry(node, peer, now)

    def _drop_hint(self, node: Node, peer: str, key: bytes,
                   charge: bool) -> None:
        """Shed one hint with accounting: the peer's missing version
        becomes *explained* loss (the audit excuses it, the miss
        classifier marks it excused) instead of silent divergence."""
        node.hints_dropped += 1
        self.hint_drops.append((node.name, peer, key))
        peer_node = self.nodes.get(peer)
        if peer_node is not None:
            peer_node.repl_excused.add(key)
        if charge:
            node.machine.clock.charge(HINT_DROP_CYCLES,
                                      site="net.repl.hint_drop")

    def _schedule_hint_retry(self, node: Node, peer: str,
                             now: float) -> None:
        if node.hint_timer.get(peer):
            return
        node.hint_timer[peer] = True
        level = node.hint_backoff.get(peer, 0)
        delay = min(self.hint_retry_base * (2 ** level),
                    self.hint_retry_cap)
        inc = node.incarnation
        self.plane.at(now + delay,
                      lambda t, n=node.name, i=inc, p=peer:
                      self._on_hint_retry(n, i, p, t))

    def _on_hint_retry(self, name: str, incarnation: int, peer: str,
                       now: float) -> None:
        node = self.nodes[name]
        if node.incarnation != incarnation or not node.up:
            return
        node.hint_timer[peer] = False
        queue = node.hints.get(peer)
        if not queue:
            node.hint_backoff[peer] = 0
            return
        peer_node = self.nodes.get(peer)
        if peer_node is not None and peer_node.gave_up:
            # The peer is never coming back: shed the whole backlog
            # with accounting rather than retrying into the void.
            for entry in list(queue):
                self._drop_hint(node, peer, entry["key"], charge=True)
            queue.clear()
            return
        if not self.plane.is_up(peer):
            # Down but restart pending: don't burn hint attempts on a
            # guaranteed drop; back off and re-check.
            node.hint_backoff[peer] = node.hint_backoff.get(peer, 0) + 1
            self._schedule_hint_retry(node, peer, now)
            return
        self._drain_hints(node, peer, now)

    def _drain_hints(self, node: Node, peer: str, now: float) -> None:
        """Replay the peer's queued hints through the normal replica
        write path, FIFO.  A replay that times out again re-queues with
        its attempt count bumped (conservation: every queued hint ends
        drained or dropped)."""
        queue = node.hints.get(peer)
        if not queue:
            return
        node.hint_backoff[peer] = node.hint_backoff.get(peer, 0) + 1
        entries = list(queue)
        queue.clear()
        for entry in entries:
            node.hints_drained += 1
            node.machine.clock.charge(HINT_DRAIN_CYCLES,
                                      site="net.repl.hint_drain")
            self._send_repl(node, peer, entry["key"], entry["version"],
                            entry["size"], entry["attempts"], now)

    # -- anti-entropy rehydration ---------------------------------------

    def _start_sync(self, node: Node, now: float) -> None:
        node.syncing = True
        node.sync_done = False
        node.sync_incomplete = False
        node.sync_peers = sorted(n for n in self.nodes
                                 if n != node.name)
        node.sync_peer_idx = 0
        node.sync_cursor = b""
        node.sync_attempts = 0
        self._sync_request(node, now)

    def _sync_request(self, node: Node, now: float) -> None:
        if node.sync_peer_idx >= len(node.sync_peers):
            self._sync_complete(node, now)
            return
        peer = node.sync_peers[node.sync_peer_idx]
        node.machine.clock.charge(SYNC_REQ_CYCLES,
                                  site="net.repl.sync_req")
        self.plane.send(node.name, peer, "sync_req",
                        {"requester": node.name,
                         "inc": node.incarnation,
                         "cursor": node.sync_cursor,
                         "page": self.sync_page_size},
                        size_bytes=REQUEST_HEADER_BYTES, now=now)
        token = (node.sync_peer_idx, node.sync_cursor,
                 node.sync_attempts)
        inc = node.incarnation
        self.plane.at(now + self.sync_timeout,
                      lambda t, n=node.name, i=inc, tok=token:
                      self._on_sync_timeout(n, i, tok, t))

    def _sync_token(self, node: Node) -> tuple:
        return (node.sync_peer_idx, node.sync_cursor,
                node.sync_attempts)

    def _on_sync_timeout(self, name: str, incarnation: int,
                         token: tuple, now: float) -> None:
        node = self.nodes[name]
        if (node.incarnation != incarnation or not node.up
                or not node.syncing
                or self._sync_token(node) != token):
            return  # the page landed (or the incarnation died)
        node.sync_attempts += 1
        if node.sync_attempts > self.sync_max_attempts:
            # Give up on this peer, not on the sync: record the skip
            # (the audit treats this incarnation's gaps as explained)
            # and move on to the next peer.
            node.sync_peer_skips += 1
            node.sync_incomplete = True
            node.sync_peer_idx += 1
            node.sync_cursor = b""
            node.sync_attempts = 0
            self._sync_request(node, now)
            return
        node.sync_retries += 1
        node.machine.clock.charge(SYNC_RETRY_CYCLES,
                                  site="net.repl.sync_retry")
        backoff = min(
            self.sync_backoff_base * (2 ** (node.sync_attempts - 1)),
            self.sync_backoff_cap)
        retry_token = self._sync_token(node)
        self.plane.at(now + backoff,
                      lambda t, n=name, i=incarnation, tok=retry_token:
                      self._sync_resend(n, i, tok, t))

    def _sync_resend(self, name: str, incarnation: int, token: tuple,
                     now: float) -> None:
        node = self.nodes[name]
        if (node.incarnation != incarnation or not node.up
                or not node.syncing
                or self._sync_token(node) != token):
            return
        self._sync_request(node, now)

    def _on_sync_req(self, node: Node, payload: dict,
                     now: float) -> None:
        """Serve one page of the requester's owned keys out of this
        node's version table, deterministic cursor order."""
        requester = payload["requester"]
        cursor = payload["cursor"]
        node.machine.clock.charge(SYNC_PAGE_CYCLES,
                                  site="net.repl.sync_page")
        node.sync_serves += 1
        matching = sorted(
            key for key in node.kv
            if key > cursor and self.shard_map.owns(requester, key))
        batch = matching[:payload["page"]]
        done = len(matching) <= payload["page"]
        entries = [(key, node.kv[key][0], node.kv[key][1])
                   for key in batch]
        size = RESPONSE_HEADER_BYTES + sum(e[2] for e in entries)
        self.plane.send(node.name, requester, "sync_page",
                        {"inc": payload["inc"], "from_cursor": cursor,
                         "entries": entries, "done": done},
                        size_bytes=size, now=now)

    def _on_sync_page(self, node: Node, message, now: float) -> None:
        payload = message.payload
        if (not node.syncing
                or payload["inc"] != node.incarnation
                or node.sync_peer_idx >= len(node.sync_peers)
                or message.src != node.sync_peers[node.sync_peer_idx]
                or payload["from_cursor"] != node.sync_cursor):
            return  # a stale or duplicate page (a retry raced it)
        node.machine.clock.charge(SYNC_APPLY_CYCLES,
                                  site="net.repl.sync_apply")
        for key, version, size in payload["entries"]:
            if version > node.kv.get(key, (0, 0))[0]:
                node.store.set(node.process.main_task, key,
                               bytes(size))
                node.kv[key] = (version, size)
        node.sync_pages += 1
        node.sync_attempts = 0
        if payload["done"]:
            node.sync_peer_idx += 1
            node.sync_cursor = b""
        else:
            node.sync_cursor = payload["entries"][-1][0]
        self._sync_request(node, now)

    def _sync_complete(self, node: Node, now: float) -> None:
        node.syncing = False
        node.sync_done = True
        node.syncs_completed += 1
        # Only now does the node announce itself: the client routes
        # traffic back, and peers drain any hints they held for us.
        targets = []
        if self.client is not None:
            targets.append(self.client.name)
        targets.extend(sorted(n for n in self.nodes
                              if n != node.name))
        for target in targets:
            self.plane.send(node.name, target, "view",
                            {"node": node.name, "up": True},
                            size_bytes=VIEW_MESSAGE_BYTES, now=now)

    # -- the global event loop ------------------------------------------

    def run(self) -> None:
        """Drive plane and engines to quiescence.  Each iteration picks
        the earliest next event cluster-wide — plane first on ties,
        then node boot order — and advances exactly one of them.  The
        strict ``<`` below is that tie rule: a node displaces the plane
        or an earlier-booted node only when strictly earlier."""
        plane = self.plane
        nodes = self.nodes.values()
        while True:
            if self._deaths_pending:
                self._finalize_deaths()
            best_time = plane.next_time()
            best = None                  # None: the plane
            for node in nodes:
                if not node.up:
                    continue
                node_next = node.engine.next_time()
                if node_next is not None and (best_time is None
                                              or node_next < best_time):
                    best_time = node_next
                    best = node
            if best_time is None:
                break
            if best_time > self.vnow:
                self.vnow = best_time
            if best is None:
                plane.step()
            else:
                best.engine.step()
        self._finalize_deaths()
        for node in self.nodes.values():
            if node.up:
                node.reports.append(node.engine.stop())
                self._retire_ledger(node)

    def _finalize_deaths(self) -> None:
        self._deaths_pending = False
        for node in list(self.nodes.values()):
            if node.dying:
                self._shutdown(node)

    # -- cluster-wide accounting ----------------------------------------

    def site_ledger(self) -> dict[str, float]:
        """Per-site cycles for the whole cluster, node-name prefixed,
        summed across every incarnation (live machines are *not*
        re-retired: after :meth:`run`, retired_sites already holds
        them)."""
        merged: dict[str, float] = {}
        for node in self.nodes.values():
            for site, cycles in node.retired_sites.items():
                merged[f"{node.name}.{site}"] = \
                    merged.get(f"{node.name}.{site}", 0.0) + cycles
        if self.client is not None:
            client = self.client
            for site, cycles in \
                    client.machine.obs.aggregator.cycles.items():
                merged[f"{client.name}.{site}"] = cycles
        return merged

    def total_cycles(self) -> float:
        # A plain left-to-right loop: from Python 3.12 ``sum()``
        # compensates float rounding, which would move the last digit.
        total = 0.0
        for node in self.nodes.values():
            total += node.retired_clock
        if self.client is not None:
            total += self.client.machine.clock.now
        return total

    def up_nodes(self) -> list[str]:
        return [name for name, node in self.nodes.items() if node.up]

    def repl_totals(self) -> dict:
        """Cluster-wide replication counters (the bench gates' face)."""
        totals: dict[str, int] = {}
        for node in self.nodes.values():
            for name, value in node.repl_stats().items():
                if name == "sync_done":
                    continue
                totals[name] = totals.get(name, 0) + int(value)
        return totals

    # -- the cluster-wide audit -----------------------------------------

    def audit(self) -> ClusterAuditReport:
        report = ClusterAuditReport()
        for node in self.nodes.values():
            if node.up:
                lib_report = node.lib.audit()
                report.checks += lib_report.checks
                report.violations.extend(
                    f"{node.name}: {v}" for v in lib_report.violations)
            # Ownership, per incarnation: a key an incarnation served
            # must be explicable by the static shard map.  Keeping the
            # sets incarnation-scoped means a pre-kill serve can never
            # vouch for a post-restart store.
            incarnation_seen = list(node.retired_seen)
            if node.seen_keys:
                incarnation_seen.append(frozenset(node.seen_keys))
            for inc_index, seen in enumerate(incarnation_seen):
                for key in sorted(seen):
                    report.checks += 1
                    if node.name not in self.shard_map.owners(key):
                        report.violations.append(
                            f"{node.name} incarnation {inc_index + 1}: "
                            f"served key {key!r} it does not own "
                            f"(owners: {self.shard_map.owners(key)})")
            # Per-incarnation engine accounting: nothing vanished.
            for i, engine_report in enumerate(node.reports):
                report.checks += 1
                accounted = (engine_report.completed
                             + engine_report.aborted
                             + engine_report.shed
                             + engine_report.unserved)
                if accounted != engine_report.offered:
                    report.violations.append(
                        f"{node.name} incarnation {i + 1}: engine "
                        f"accounting leak ({engine_report.offered} "
                        f"offered != {accounted} accounted)")
            # Hint-ledger conservation: every hint ever queued is
            # drained, dropped, or still pending — nothing vanishes.
            report.checks += 1
            pending = node.hints_pending()
            if node.hints_queued != (node.hints_drained
                                     + node.hints_dropped + pending):
                report.violations.append(
                    f"{node.name}: hint ledger leak "
                    f"({node.hints_queued} queued != "
                    f"{node.hints_drained} drained + "
                    f"{node.hints_dropped} dropped + "
                    f"{pending} pending)")
        self._audit_replicas(report)
        if self.client is not None:
            client = self.client
            report.checks += 1
            ok, delta = client.machine.obs.audit()
            if not ok:
                report.violations.append(
                    f"{client.name}: obs conservation broken "
                    f"(delta {delta})")
            # Shard-map view consistency: the client routes by its own
            # map instance; its ring must be structurally identical.
            report.checks += 1
            if client.shard_map.describe() != self.shard_map.describe():
                report.violations.append(
                    "client shard-map view diverges from the "
                    "cluster's authoritative ring")
            report.checks += 1
            ledger = client.ledger()
            if ledger["offered"] != (ledger["completed"]
                                     + ledger["shed"]
                                     + ledger["in_flight"]):
                report.violations.append(
                    f"client ledger leak: {ledger}")
        return report

    def _audit_replicas(self, report: ClusterAuditReport) -> None:
        """The replica-plane invariants: contents vs the authority
        (per-tenant isolation), version-table/store coherence, and
        cross-node version agreement modulo accounted loss."""
        up = [node for node in self.nodes.values() if node.up]
        for node in up:
            for key in sorted(node.kv):
                version = node.kv[key][0]
                report.checks += 1
                if node.name not in self.shard_map.owners(key):
                    report.violations.append(
                        f"{node.name}: holds replicated key {key!r} "
                        f"(tenant {tenant_of(key)}) outside its "
                        f"replica set "
                        f"{self.shard_map.owners(key)} — tenant "
                        f"isolation breach")
                report.checks += 1
                if key not in node.store._lru:
                    report.violations.append(
                        f"{node.name}: version table claims {key!r} "
                        f"at v{version} but the store has no such "
                        f"item (tampered or silently lost copy)")
        # Version agreement after quiesce: every up owner must hold
        # the key's max version, unless its gap is *explained* — an
        # accounted hint drop for that key, or an incomplete sync.
        universe: set[bytes] = set()
        for node in up:
            universe.update(node.kv)
        for key in sorted(universe):
            owners = [self.nodes[name]
                      for name in self.shard_map.owners(key)
                      if self.nodes[name].up]
            if not owners:
                continue
            vmax = max(o.kv.get(key, (0, 0))[0] for o in owners)
            for owner in owners:
                report.checks += 1
                version = owner.kv.get(key, (0, 0))[0]
                if (version < vmax
                        and key not in owner.repl_excused
                        and not owner.sync_incomplete
                        and not owner.syncing):
                    report.violations.append(
                        f"replica divergence on {key!r} (tenant "
                        f"{tenant_of(key)}): {owner.name} at "
                        f"v{version} < v{vmax} with no accounted "
                        f"hint drop or sync gap to explain it")


# ---------------------------------------------------------------------------
# Fault actions (armed on a FaultInjector via Cluster.attach_injector's
# name-prefixed charge taps).
# ---------------------------------------------------------------------------

def node_kill(cluster: Cluster, name: str):
    """Action: the named node loses power at the current event boundary
    (tasks die, ledger retires, restart scheduled within the budget)."""
    def action(event) -> None:
        cluster.kill_node(name)
    return action


def link_partition(cluster: Cluster, a: str, b: str, duration: float):
    """Action: cut the ``a``–``b`` link for ``duration`` cycles (the
    heal is a plane timer, so it fires even if nothing else does)."""
    def action(event) -> None:
        plane = cluster.plane
        if plane.partitioned(a, b):
            return
        plane.partition(a, b)
        plane.at(cluster.vnow + duration,
                 lambda now: plane.heal(a, b))
    return action


def node_site_delay(cluster: Cluster, name: str, extra_cycles: float):
    """Action: stretch the victim operation on the named node (the
    cluster flavour of :func:`repro.faults.inject.delay` — the event's
    site arrives name-prefixed, so the re-charge strips the prefix and
    lands on the node's *current* incarnation's clock)."""
    def action(event) -> None:
        node = cluster.nodes[name]
        if not node.up:
            return
        site = event.site.split(".", 1)[1] if "." in event.site \
            else event.site
        node.kernel.clock.charge(extra_cycles, site=site)
    return action


def sync_partition(cluster: Cluster, name: str, peer: str,
                   duration: float):
    """Action: partition-during-sync — cut the recovering node's link
    to ``peer`` for ``duration`` cycles, but only while the node is
    actually mid-rehydration (otherwise the event fizzles, occurrence
    burned, so a mistimed script cannot partition a healthy link and
    report it as a survived sync storm)."""
    inner = link_partition(cluster, name, peer, duration)

    def action(event) -> None:
        node = cluster.nodes[name]
        if not node.up or not node.syncing:
            return
        inner(event)
    return action


def sync_kill(cluster: Cluster, name: str):
    """Action: kill-during-rehydration — power the node off only while
    its anti-entropy sync is in flight (the partial-sync crash the
    rehydration scenario needs; fizzles deterministically when the
    node is not syncing)."""
    def action(event) -> None:
        node = cluster.nodes[name]
        if not node.up or not node.syncing:
            return
        cluster.kill_node(name)
    return action
