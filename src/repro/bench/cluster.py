"""Cluster benchmarks and the cluster chaos soak.

``python -m repro clusterbench`` boots an N-node sharded memcached
cluster (full ``Machine``/``Kernel``/``Libmpk`` per node, connected by
the :mod:`repro.net.plane` fabric) and drives it with a twemperf fleet
client — a healthy-cluster baseline for the networked serving path.

``python -m repro clusterchaos`` runs the same cluster under a seeded
script of **node kills**, **link partitions**, and **operation delays**
(armed at exact name-prefixed charge-site occurrences, e.g.
``node0.apps.memcached.request@31``) and holds it to four verdicts:

* **Determinism** — each scenario runs twice; the merged per-node site
  ledger, total cycle count, client ledger, latency-digest state, and
  injection firing sequence must match bit for bit.
* **Consistency** — the cluster-wide audit (every node's four-layer
  ``Libmpk.audit()``, conservation, shard ownership, per-incarnation
  engine accounting, shard-map view agreement) reports zero violations.
* **Liveness** — every offered connection ends completed or shed
  (accounted at ``net.cluster.shed``); nothing stays in flight; every
  killed node is back up at the end (the restart budget was enough).
* **Degradation** — while a node is down the cluster keeps completing
  requests on surviving shards, and completes more after the restart
  (recovery to full capacity).
* **Replication** — zero post-sync misses on previously-stored
  replicated keys, every surviving node's anti-entropy sync complete,
  no hint stuck in a buffer at quiescence.

A third scenario, ``rehydration``, soaks the recovery plane itself
under a handcrafted kill → partial sync → kill-again script
(:func:`generate_rehydration_script`): the victim dies mid-traffic,
its restart's anti-entropy sync is partitioned away from its first
peer (forcing the timeout/retry/backoff path), and a second kill
lands at the first applied sync page — the second restart must
rehydrate from scratch and still converge with zero unexplained
misses.

``python -m repro clusterbench --sweep`` runs the nodes × replicas ×
partition-duration grid (:func:`run_cluster_sweep`) under the same
gate set and merges the rows into ``BENCH_cluster.json``.

The scripts are data (:class:`~repro.faults.script.FaultEvent`
tuples, armed through :func:`cluster_actions`) embedded in
``BENCH_cluster.json`` for exact replay, the same idiom as
``servechaos``.
"""

from __future__ import annotations

import functools
import random
import typing
from dataclasses import dataclass

from repro.bench.harness import run_twice
from repro.bench.serving import PoissonArrivals
from repro.consts import CLOCK_HZ
from repro.faults.inject import FaultInjector, kill_task
from repro.faults.script import FaultEvent, arm_script, script_to_json
from repro.net.cluster import (
    Cluster,
    FleetClient,
    link_partition,
    node_kill,
    node_site_delay,
    sync_kill,
    sync_partition,
)
from repro.net.plane import NetworkPlane
from repro.net.shard import ShardMap

#: Per-node sites a scripted delay can stretch (the trigger site is
#: name-prefixed at arm time).
DELAY_SITES = (
    "apps.memcached.request",
    "apps.memcached.connect",
    "net.link.rx",
    "kernel.sched.context_switch",
)

#: Per-node sites a scripted worker kill lands on.
WORKER_KILL_SITES = (
    "apps.memcached.request",
)

#: Event fields the cluster scripts record beside kind/site/occurrence.
SCRIPT_FIELDS = ("node", "peer", "duration", "extra_cycles")


def generate_cluster_script(seed: int, node_names: typing.Sequence[str],
                            events: int = 6
                            ) -> tuple[FaultEvent, ...]:
    """Derive a cluster chaos script from ``seed`` alone.

    The first event is always a node kill early in the run (the
    degradation/recovery gates need one); the rest are a seeded mix of
    partitions, worker kills, and delays.
    """
    if events < 1:
        raise ValueError("a cluster chaos script needs at least 1 event")
    rng = random.Random(seed)
    names = list(node_names)
    script = []
    victim = rng.choice(names)
    script.append(FaultEvent(
        kind="node_kill",
        site=f"{victim}.apps.memcached.request",
        occurrence=rng.randint(10, 40),
        node=victim))
    for _ in range(events - 1):
        roll = rng.random()
        if roll < 0.30:
            a, b = rng.sample(names + ["client"], 2)
            script.append(FaultEvent(
                kind="partition",
                site=f"{rng.choice(names)}.net.link.rx",
                occurrence=rng.randint(5, 80),
                node=a, peer=b,
                duration=1e6 * rng.randint(10, 40)))
        elif roll < 0.55:
            node = rng.choice(names)
            script.append(FaultEvent(
                kind="worker_kill",
                site=f"{node}.apps.memcached.request",
                occurrence=rng.randint(5, 120),
                node=node))
        else:
            node = rng.choice(names)
            script.append(FaultEvent(
                kind="delay",
                site=f"{node}.{rng.choice(DELAY_SITES)}",
                occurrence=rng.randint(1, 80),
                node=node,
                extra_cycles=1000.0 * rng.randint(10, 100)))
    return tuple(script)


def generate_rehydration_script(node_names: typing.Sequence[str]
                                ) -> tuple[FaultEvent, ...]:
    """The kill → partial sync → kill-again script the rehydration
    scenario soaks under (deterministic by construction, no rng):

    1. ``node_kill`` takes the victim down mid-traffic; its restart
       enters anti-entropy sync.
    2. ``sync_partition`` cuts the victim's link to its first sync
       peer *while the sync is in flight* (the action fizzles
       otherwise), long enough to force at least one sync timeout +
       retry, short enough to heal before the retry budget runs out.
    3. ``sync_kill`` powers the victim off again at its first applied
       sync page — a partial sync is lost wholesale, and the *second*
       restart must rehydrate from scratch and still converge.
    """
    victim = node_names[1]
    helper = node_names[0]   # sorted first => the first sync peer
    return (
        FaultEvent(
            kind="node_kill",
            site=f"{victim}.apps.memcached.request",
            occurrence=12, node=victim),
        FaultEvent(
            kind="sync_partition",
            site=f"{victim}.net.repl.sync_req",
            occurrence=1, node=victim, peer=helper, duration=12e6),
        FaultEvent(
            kind="sync_kill",
            site=f"{victim}.net.repl.sync_apply",
            occurrence=1, node=victim),
    )


def _node_worker_kill(cluster: Cluster, name: str):
    """A worker kill that re-resolves the node at firing time, so it
    lands on the *current* incarnation's kernel/engine (arming against
    the boot-time kernel would make a post-restart fire look like a
    foreign-kernel misuse)."""
    def action(event) -> None:
        node = cluster.nodes[name]
        if not node.up:
            return
        kill_task(node.kernel,
                  lambda: node.engine.current_task)(event)
    return action


def cluster_actions(cluster: Cluster) -> dict:
    """The cluster soak's action table (see :func:`arm_script`)."""
    return {
        "node_kill": lambda event: node_kill(cluster, event.node),
        "partition": lambda event: link_partition(
            cluster, event.node, event.peer, event.duration),
        "worker_kill": lambda event: _node_worker_kill(cluster,
                                                       event.node),
        "delay": lambda event: node_site_delay(cluster, event.node,
                                               event.extra_cycles),
        "sync_partition": lambda event: sync_partition(
            cluster, event.node, event.peer, event.duration),
        "sync_kill": lambda event: sync_kill(cluster, event.node),
    }


# ---------------------------------------------------------------------------
# Cluster assembly.
# ---------------------------------------------------------------------------

def _build_cluster(seed: int, nodes: int = 4, connections: int = 96,
                   replicas: int = 1,
                   requests_per_connection: int = 6
                   ) -> tuple[Cluster, FleetClient]:
    from repro import Kernel, Libmpk, Machine
    from repro.apps.kvstore import Memcached
    from repro.apps.kvstore.slab import SLAB_BYTES
    from repro.apps.sslserver.workers import Supervisor
    from repro.bench.serving import ServingEngine

    names = [f"node{i}" for i in range(nodes)]

    def node_factory(name: str, incarnation: int) -> dict:
        kernel = Kernel(Machine(num_cores=8, name=name))
        process = kernel.create_process()  # main task occupies core 0
        main = process.main_task
        lib = Libmpk(process)
        lib.mpk_init(main)
        # The store restarts empty: rehydration is miss-driven, which
        # is why post-restart gets legitimately miss.
        store = Memcached(kernel, process, main, mode="mpk_begin",
                          lib=lib, slab_bytes=4 * SLAB_BYTES,
                          hash_buckets=1 << 10,
                          begin_timeout=5_000_000.0)
        cores = [1, 2]
        engine = ServingEngine(kernel, cores=cores, queue_limit=16)
        pool = Supervisor(kernel, process, server=None, workers=4,
                          crash_policy="kill", schedule=False,
                          max_restarts=8)
        pool.attach_engine(engine, cores)
        engine.attach_supervisor(pool)
        return {"machine": kernel.machine, "kernel": kernel,
                "process": process, "lib": lib, "store": store,
                "engine": engine, "pool": pool}

    plane = NetworkPlane()
    cluster = Cluster(names, node_factory, plane,
                      ShardMap(names, replicas=replicas),
                      restart_delay=45e6, max_node_restarts=2)
    client = FleetClient(
        plane, "client",
        ShardMap(names, replicas=replicas),  # own instance: the audit
        Machine(num_cores=1, name="client"),  # checks view agreement
        arrivals=tuple(PoissonArrivals(connections, 2500.0,
                                       seed=seed).iter_arrivals()),
        requests_per_connection=requests_per_connection,
        rpc_timeout=15e6, max_attempts=3,
        backoff_base=2e6, backoff_cap=8e6, suspect_cycles=30e6)
    cluster.attach_client(client)
    return cluster, client


CLUSTER_SCENARIOS = {
    # replicas=1: a dead shard has no stand-in — requests to it ride
    # timeout/retry and shed if the restart comes too late.
    "sharded": {"replicas": 1},
    # replicas=2: the client fails over to the replica — degradation
    # shows up as failovers and misses instead of sheds.
    "replicated": {"replicas": 2},
}


# ---------------------------------------------------------------------------
# One soak pass.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterRun:
    """One cluster pass (chaotic or not), everything the gates read."""

    site_ledger: dict
    total_cycles: float
    client_ledger: dict
    digest_state: tuple
    fired: tuple
    audit_violations: tuple
    audit_checks: int
    plane_stats: dict
    nodes: dict
    kills: int
    restarts: int
    kill_times: tuple
    restart_times: tuple
    completion_times: tuple
    shed_times: tuple
    up_nodes: tuple
    repl_totals: dict

    def fingerprint(self) -> dict:
        """What a rerun under the same script must reproduce bit for bit."""
        return {
            "site_ledger": self.site_ledger,
            "total_cycles": self.total_cycles,
            "client_ledger": self.client_ledger,
            "digest_state": self.digest_state,
            "fired": self.fired,
        }


def _soak_cluster(build, script) -> ClusterRun:
    cluster, client = build()
    injector = FaultInjector()
    if script:
        # Taps attach *after* the factories ran, so boot-time charges
        # never burn scripted occurrences.
        arm_script(injector, script, cluster_actions(cluster))
        cluster.attach_injector(injector)
    cluster.run()
    audit = cluster.audit()
    node_stats = {}
    for name, node in cluster.nodes.items():
        node_stats[name] = {
            "incarnations": node.incarnation,
            "restarts_used": node.restarts_used,
            "gave_up": node.gave_up,
            "rpc_handled": node.rpc_handled,
            "rpc_aborted": node.rpc_aborted,
            "rpc_shed": node.rpc_shed,
            "engine_reports": [
                {"offered": r.offered, "completed": r.completed,
                 "aborted": r.aborted, "shed": r.shed,
                 "unserved": r.unserved}
                for r in node.reports],
            "supervisor": node.pool.stats(),
            "replication": node.repl_stats(),
        }
    return ClusterRun(
        site_ledger=cluster.site_ledger(),
        total_cycles=cluster.total_cycles(),
        client_ledger=client.ledger(),
        digest_state=client.latency_digest.state(),
        fired=tuple(rec.label for rec in injector.fired),
        audit_violations=tuple(audit.violations),
        audit_checks=audit.checks,
        plane_stats=cluster.plane.stats(),
        nodes=node_stats,
        kills=cluster.kills,
        restarts=cluster.restarts,
        kill_times=tuple(cluster.kill_times),
        restart_times=tuple(cluster.restart_times),
        completion_times=tuple(client.completion_times),
        shed_times=tuple(client.shed_times),
        up_nodes=tuple(cluster.up_nodes()),
        repl_totals=cluster.repl_totals(),
    )


# ---------------------------------------------------------------------------
# Gates.
# ---------------------------------------------------------------------------

def _check_cluster_liveness(run: ClusterRun) -> list[str]:
    violations = []
    ledger = run.client_ledger
    if ledger["offered"] != ledger["completed"] + ledger["shed"]:
        violations.append(
            f"client accounting leak: {ledger['offered']} offered != "
            f"{ledger['completed']} completed + {ledger['shed']} shed")
    if ledger["in_flight"]:
        violations.append(
            f"{ledger['in_flight']} connections still in flight at "
            f"quiescence")
    if len(run.up_nodes) != len(run.nodes):
        down = sorted(set(run.nodes) - set(run.up_nodes))
        violations.append(f"nodes still down at the end: {down}")
    return violations


def _check_degradation(run: ClusterRun) -> list[str]:
    """A killed node must not stop the world: completions continue
    during its downtime and resume cluster-wide after its restart."""
    violations = []
    if not run.kill_times:
        violations.append("chaos script killed no node "
                          "(the scenario gates need one)")
        return violations
    victim, killed_at = run.kill_times[0]
    back_at = None
    for name, at in run.restart_times:
        if name == victim:
            back_at = at
            break
    if back_at is None:
        violations.append(f"{victim} was killed but never restarted")
        return violations
    during = sum(1 for t in run.completion_times
                 if killed_at < t <= back_at)
    after = sum(1 for t in run.completion_times if t > back_at)
    after_shed = sum(1 for t in run.shed_times if t > back_at)
    if during == 0:
        violations.append(
            f"no request completed while {victim} was down "
            f"({killed_at:.0f}..{back_at:.0f}) — the cluster stopped "
            f"serving surviving shards")
    # Recovery is only observable when work was still outstanding at
    # the restart (short smoke runs can finish everything first); when
    # it was, post-restart resolutions must include completions, not
    # just sheds.
    if (after or after_shed) and after == 0:
        violations.append(
            f"every post-restart connection shed after {victim} came "
            f"back at {back_at:.0f} — no recovery to full capacity")
    return violations


def _check_replication(run: ClusterRun) -> list[str]:
    """The replication plane's quiescence gates: no unexplained
    post-restart misses on previously-stored keys, every surviving
    node's anti-entropy sync complete, no hint stuck in a buffer."""
    violations = []
    totals = run.repl_totals
    if totals.get("post_sync_misses"):
        violations.append(
            f"{totals['post_sync_misses']} post-sync misses on "
            f"previously-stored replicated keys (rehydration gate "
            f"demands 0)")
    if totals.get("hints_pending"):
        violations.append(
            f"{totals['hints_pending']} hints still queued at "
            f"quiescence (neither drained nor shed)")
    for name in run.up_nodes:
        repl = run.nodes[name]["replication"]
        if not repl["sync_done"]:
            violations.append(
                f"{name} is up but its anti-entropy sync never "
                f"completed")
    return violations


def _check_rehydration(run: ClusterRun) -> list[str]:
    """The kill → partial sync → kill-again scenario's extra gates:
    both kills must actually land, the mid-sync partition must force
    at least one sync retry, and rehydration must stream real pages."""
    violations = []
    if run.kills < 2:
        violations.append(
            f"only {run.kills} kill(s) landed — the sync_kill never "
            f"caught the victim mid-rehydration")
    if run.restarts < 2:
        violations.append(
            f"only {run.restarts} restart(s) — the second recovery "
            f"never happened")
    totals = run.repl_totals
    if not totals.get("sync_retries"):
        violations.append(
            "the mid-sync partition forced no sync retry — the "
            "timeout/backoff path went unexercised")
    if not totals.get("sync_pages"):
        violations.append("no sync page was ever applied — "
                          "rehydration streamed nothing")
    return violations


# ---------------------------------------------------------------------------
# Campaign drivers.
# ---------------------------------------------------------------------------

def _summarize(run: ClusterRun) -> dict:
    digest = run.client_ledger
    return {
        "client": dict(digest),
        "total_cycles": run.total_cycles,
        "makespan_ms": round(
            max(run.completion_times + run.shed_times or (0.0,))
            / CLOCK_HZ * 1000.0, 6),
        "kills": run.kills,
        "restarts": run.restarts,
        "plane": run.plane_stats,
        "nodes": run.nodes,
        "fired": list(run.fired),
        "audit_checks": run.audit_checks,
        "charge_sites": len(run.site_ledger),
        "replication": dict(run.repl_totals),
    }


def run_clusterbench(seed: int = 29, nodes: int = 4,
                     connections: int = 96) -> dict:
    """Healthy-cluster baseline: both scenarios, no faults, run twice
    with bit-identity, audit, and liveness enforced."""
    scenarios = {}
    for name, config in CLUSTER_SCENARIOS.items():
        build = functools.partial(_build_cluster, seed, nodes=nodes,
                                  connections=connections, **config)
        first = run_twice(name, lambda: _soak_cluster(build, script=()),
                          ClusterRun.fingerprint)
        if first.audit_violations:
            raise AssertionError(
                f"{name}: cluster audit failed: "
                f"{list(first.audit_violations)}")
        liveness = (_check_cluster_liveness(first)
                    + _check_replication(first))
        if liveness:
            raise AssertionError(f"{name}: liveness violated: {liveness}")
        summary = _summarize(first)
        summary.update({"audit_ok": True, "liveness_ok": True})
        scenarios[name] = summary
    return {
        "schema": 1,
        "kind": "clusterbench",
        "seed": seed,
        "nodes": nodes,
        "connections": connections,
        "scenarios": scenarios,
    }


def run_clusterchaos(seed: int = 29, nodes: int = 4,
                     connections: int = 96, events: int = 6,
                     script: typing.Sequence[FaultEvent] | None
                     = None,
                     rehydration_script:
                     typing.Sequence[FaultEvent] | None = None
                     ) -> dict:
    """Soak the cluster scenarios under chaos; every gate is an
    AssertionError.  Returns the ``BENCH_cluster.json`` payload,
    scripts embedded.

    ``sharded``/``replicated`` run under the seeded (or replayed)
    kill/partition/delay ``script``; ``rehydration`` (replicas=2)
    runs under the handcrafted kill → partial sync → kill-again
    ``rehydration_script`` and additionally gates on the sync state
    machine actually being stressed (retries forced, pages streamed,
    both kills landing mid-flight).
    """
    if nodes < 2:
        raise ValueError(f"clusterchaos needs at least 2 nodes: the "
                         f"rehydration scenario kills node1 and syncs "
                         f"it from node0 (got {nodes})")
    node_names = [f"node{i}" for i in range(nodes)]
    if script is None:
        script = generate_cluster_script(seed, node_names,
                                         events=events)
    script = tuple(script)
    if rehydration_script is None:
        rehydration_script = generate_rehydration_script(node_names)
    rehydration_script = tuple(rehydration_script)
    scenarios = {}
    runs = [(name, config, script, ())
            for name, config in CLUSTER_SCENARIOS.items()]
    runs.append(("rehydration", {"replicas": 2}, rehydration_script,
                 (_check_rehydration,)))
    for name, config, scenario_script, extra_gates in runs:
        build = functools.partial(_build_cluster, seed, nodes=nodes,
                                  connections=connections, **config)
        first = run_twice(name,
                          lambda: _soak_cluster(build, scenario_script),
                          ClusterRun.fingerprint)
        if first.audit_violations:
            raise AssertionError(
                f"{name}: cluster audit failed after chaos: "
                f"{list(first.audit_violations)}")
        violations = (_check_cluster_liveness(first)
                      + _check_degradation(first)
                      + _check_replication(first))
        for gate in extra_gates:
            violations += gate(first)
        if violations:
            raise AssertionError(
                f"{name}: chaos gates violated: {violations}")
        summary = _summarize(first)
        summary.update({
            "kill_times": [[n, t] for n, t in first.kill_times],
            "restart_times": [[n, t] for n, t in first.restart_times],
            "audit_ok": True,
            "liveness_ok": True,
            "degradation_ok": True,
            "replication_ok": True,
        })
        scenarios[name] = summary
    return {
        "schema": 2,
        "kind": "clusterchaos",
        "seed": seed,
        "nodes": nodes,
        "connections": connections,
        "script": script_to_json(script, SCRIPT_FIELDS),
        "rehydration_script": script_to_json(rehydration_script,
                                             SCRIPT_FIELDS),
        "note": ("cluster chaos soak: each scenario ran twice under "
                 "the same seeded kill/partition/delay script and "
                 "produced bit-identical site ledgers, cycle totals, "
                 "and client accounting; zero audit violations "
                 "(including replica version agreement, hint-ledger "
                 "conservation, and tenant isolation); every offered "
                 "connection completed or shed; zero post-sync misses "
                 "on previously-stored replicated keys; the "
                 "rehydration scenario survived kill → partial sync "
                 "→ kill-again with forced sync retries"),
        "scenarios": scenarios,
    }


# ---------------------------------------------------------------------------
# The nodes × replicas × partition-duration sweep.
# ---------------------------------------------------------------------------

def _sweep_script(node_names: typing.Sequence[str],
                  partition_mcyc: float
                  ) -> tuple[FaultEvent, ...]:
    """One sweep cell's script: an early inter-node partition (repl
    traffic between node0 and node1 rides the hint path for its
    duration) plus a node kill (the restart rehydrates)."""
    victim = node_names[-1]
    return (
        FaultEvent(
            kind="partition",
            site=f"{node_names[0]}.net.link.rx",
            occurrence=8, node=node_names[0], peer=node_names[1],
            duration=partition_mcyc * 1e6),
        FaultEvent(
            kind="node_kill",
            site=f"{victim}.apps.memcached.request",
            occurrence=15, node=victim),
    )


def run_cluster_sweep(seed: int = 29,
                      nodes_axis: typing.Sequence[int] = (3, 4),
                      replicas_axis: typing.Sequence[int] = (1, 2),
                      partition_axis_mcyc:
                      typing.Sequence[float] = (10.0, 40.0),
                      connections: int = 48) -> dict:
    """The ``clusterbench --sweep`` grid: every (nodes, replicas,
    partition-duration) cell runs the same partition+kill script
    twice under the full gate set (bit-identity, audit, liveness,
    replication).  Cells with ``replicas > nodes`` are skipped — the
    shard map rejects them by construction.

    Raises ``ValueError`` before any cell runs when a cluster size is
    below 2 (the cell script partitions node0 from node1) or when no
    cell would run at all (an empty report would pass vacuously)."""
    small = [n for n in nodes_axis if n < 2]
    if small:
        raise ValueError(
            f"sweep cluster sizes must be >= 2 (the cell script "
            f"partitions node0 from node1), got {small}")
    if not partition_axis_mcyc or not any(
            replicas <= node_count for node_count in nodes_axis
            for replicas in replicas_axis):
        raise ValueError(
            f"sweep has no runnable cell: nodes {list(nodes_axis)}, "
            f"replicas {list(replicas_axis)}, partitions "
            f"{list(partition_axis_mcyc)} (every cell needs replicas "
            f"<= nodes)")
    rows = []
    for node_count in nodes_axis:
        for replicas in replicas_axis:
            if replicas > node_count:
                continue
            for partition_mcyc in partition_axis_mcyc:
                names = [f"node{i}" for i in range(node_count)]
                script = _sweep_script(names, partition_mcyc)

                build = functools.partial(_build_cluster, seed,
                                          nodes=node_count,
                                          connections=connections,
                                          replicas=replicas)
                label = (f"n{node_count} r{replicas} "
                         f"p{partition_mcyc:.0f}M")
                first = run_twice(f"sweep {label}",
                                  lambda: _soak_cluster(build, script),
                                  ClusterRun.fingerprint)
                if first.audit_violations:
                    raise AssertionError(
                        f"sweep {label}: audit failed: "
                        f"{list(first.audit_violations)}")
                violations = (_check_cluster_liveness(first)
                              + _check_replication(first))
                if violations:
                    raise AssertionError(
                        f"sweep {label}: gates violated: {violations}")
                client = first.client_ledger
                totals = first.repl_totals
                rows.append({
                    "nodes": node_count,
                    "replicas": replicas,
                    "partition_mcyc": partition_mcyc,
                    "completed": client["completed"],
                    "shed": client["shed"],
                    "misses": client["misses"],
                    "retries": client["retries"],
                    "failovers": client["failovers"],
                    "kills": first.kills,
                    "restarts": first.restarts,
                    "repl_writes": totals["repl_writes"],
                    "hints_queued": totals["hints_queued"],
                    "hints_drained": totals["hints_drained"],
                    "hints_dropped": totals["hints_dropped"],
                    "sync_pages": totals["sync_pages"],
                    "sync_retries": totals["sync_retries"],
                    "post_sync_misses": totals["post_sync_misses"],
                    "total_cycles": first.total_cycles,
                })
    return {
        "schema": 1,
        "kind": "cluster_sweep",
        "seed": seed,
        "connections": connections,
        "nodes_axis": list(nodes_axis),
        "replicas_axis": list(replicas_axis),
        "partition_axis_mcyc": list(partition_axis_mcyc),
        "rows": rows,
        "note": ("nodes x replicas x partition-duration sweep under "
                 "a fixed partition+kill script; every cell ran "
                 "twice bit-identically with zero audit violations "
                 "and zero post-sync misses"),
    }


def format_sweep_table(sweep: dict) -> str:
    """The sweep as a GitHub-flavoured markdown table (appended to
    ``$GITHUB_STEP_SUMMARY`` by the CI job)."""
    lines = [
        "### cluster sweep (nodes × replicas × partition duration)",
        "",
        "| nodes | replicas | partition | done | shed | miss "
        "| hints q/d/x | sync pages | sync retries | post-sync miss |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for row in sweep["rows"]:
        hints = (f"{row['hints_queued']}/{row['hints_drained']}"
                 f"/{row['hints_dropped']}")
        lines.append(
            f"| {row['nodes']} | {row['replicas']} "
            f"| {row['partition_mcyc']:.0f}M "
            f"| {row['completed']} | {row['shed']} "
            f"| {row['misses']} | {hints} "
            f"| {row['sync_pages']} | {row['sync_retries']} "
            f"| {row['post_sync_misses']} |")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Reporting.
# ---------------------------------------------------------------------------

def format_cluster_report(report: dict) -> str:
    lines = []
    if report.get("script"):
        lines.append(f"cluster chaos script ({len(report['script'])} "
                     f"events, seed {report['seed']}):")
        for event in report["script"]:
            detail = ""
            if event["kind"] == "partition":
                detail = (f" {event['node']}--{event['peer']} "
                          f"{event['duration'] / 1e6:.0f}Mcyc")
            elif event["kind"] in ("node_kill", "worker_kill"):
                detail = f" victim={event['node']}"
            elif event["kind"] == "delay":
                detail = f" +{event['extra_cycles']:.0f}cyc"
            lines.append(f"  {event['kind']:<12s} {event['site']}"
                         f"@{event['occurrence']}{detail}")
        lines.append("")
    lines.append(f"{'scenario':<12s} {'conns':>6s} {'done':>6s} "
                 f"{'shed':>6s} {'retry':>6s} {'fail':>6s} "
                 f"{'miss':>6s} {'kills':>6s} {'hints':>6s} "
                 f"{'sync':>6s} {'psm':>6s} {'audit':>6s}")
    for name, row in report["scenarios"].items():
        client = row["client"]
        repl = row.get("replication", {})
        lines.append(
            f"{name:<12s} {client['offered']:>6d} "
            f"{client['completed']:>6d} {client['shed']:>6d} "
            f"{client['retries']:>6d} {client['failovers']:>6d} "
            f"{client['misses']:>6d} {row['kills']:>6d} "
            f"{repl.get('hints_queued', 0):>6d} "
            f"{repl.get('sync_pages', 0):>6d} "
            f"{repl.get('post_sync_misses', 0):>6d} "
            f"{'ok' if row['audit_ok'] else 'FAIL':>6s}")
    return "\n".join(lines)

