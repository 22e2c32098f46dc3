"""Deadlock and starvation watchdog for key waits.

libmpk's blocking path (``Libmpk.begin_blocking``) parks threads on
``Libmpk.key_waiters`` until a hardware key frees.  Keys free when pins drop — and pins only drop when
the pin-*holder* runs.  That closes a classic wait-for loop: if every
thread holding a pinned page group is itself parked waiting for a key,
no thread can ever run ``mpk_end``, no key can ever free, and the whole
process wedges silently.

The :class:`Watchdog` makes that state observable instead of silent:

* **Wait-for graph** — each parked waiter points at every task pinning
  a cached page group (any of them could free a key by running).  The
  graph is rebuilt from live state on every scan; nothing is cached.
* **Deadlock detection** — a DFS over the graph, restricted to parked
  nodes, finds cycles of mutually-waiting pin-holders.  A cycle is only
  reported as a deadlock when nothing *outside* the cycle could break
  it: no free hardware key and no evictable (unpinned) cached group.
* **Stall detection** — any waiter parked longer than
  ``stall_threshold`` cycles is flagged, deadlocked or not (lost-wakeup
  and starvation coverage).

Scans charge ``kernel.watchdog.scan`` and report through the obs spine:
stalls and deadlocks land in :class:`~repro.obs.MetricSeries` under
``kernel.watchdog.stall`` / ``kernel.watchdog.deadlock``, and
:meth:`watch` registers an invariant so ``Observability.audit()`` (and
therefore ``Libmpk.audit()``) fails while a deadlock exists.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

if typing.TYPE_CHECKING:
    from repro.core.api import Libmpk
    from repro.kernel.kcore import Kernel


@dataclass
class WatchdogReport:
    """Outcome of one watchdog scan."""

    #: Deadlock cycles, each a sorted tid list of mutually-waiting
    #: pin-holders (empty when the process can still make progress).
    deadlocks: list[list[int]] = field(default_factory=list)
    #: ``(tid, waited_cycles)`` for waiters parked past the threshold.
    stalls: list[tuple[int, float]] = field(default_factory=list)
    #: Parked waiters seen across all watched libmpk instances.
    waiters: int = 0
    #: Aggregate key contention: vkey -> live parked waiters wanting
    #: it (see :func:`key_demand`; empty when nobody waits).
    contention: dict[int, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.deadlocks and not self.stalls

    def __str__(self) -> str:
        if self.ok:
            return f"watchdog ok ({self.waiters} waiters)"
        parts = []
        for cycle in self.deadlocks:
            parts.append(f"deadlock cycle tids={cycle}")
        for tid, waited in self.stalls:
            parts.append(f"stall tid={tid} waited={waited:.0f}")
        return f"watchdog: {'; '.join(parts)}"


def wait_for_graph(lib: "Libmpk") -> dict[int, set[int]]:
    """Build the waiter→pin-holder edge set for one libmpk instance.

    A parked waiter needs *some* hardware key; any task pinning a
    cached page group is keeping one key unreclaimable, so the waiter
    waits-for all of them.  Only live holders appear (task death drops
    pins, enforced by the audit plane).
    """
    holders: set[int] = set()
    for group in lib._groups.values():
        if group.cached and not group.exec_only:
            holders |= group.pinned_by
    graph: dict[int, set[int]] = {}
    for entry in lib.key_waiters.entries():
        if entry.task.state == "dead":
            continue
        graph[entry.task.tid] = set(holders)
    return graph


def key_demand(lib: "Libmpk") -> dict[int, int]:
    """Contention export: vkey -> number of live parked waiters that
    are sleeping for that virtual key.

    ``Libmpk.begin_blocking`` tags its task with the vkey it wants
    (``task.wanted_vkey``) before parking on ``lib.key_waiters``; this
    reads those tags back off the queue.  The cost-aware eviction
    policy treats a demanded vkey as infinitely expensive to evict —
    evicting it would guarantee the parked waiter another miss on
    wake — and the watchdog surfaces the aggregate as the
    ``kernel.watchdog.contention`` metric.  Pure state inspection: no
    cycles are charged.
    """
    demand: dict[int, int] = {}
    for entry in lib.key_waiters.entries():
        task = entry.task
        if task.state == "dead":
            continue
        vkey = task.wanted_vkey
        if vkey is None:
            continue
        demand[vkey] = demand.get(vkey, 0) + 1
    return demand


def find_cycles(graph: dict[int, set[int]],
                parked: set[int]) -> list[list[int]]:
    """DFS cycle detection over ``graph``, walking only ``parked``
    nodes (a runnable holder breaks the wait: it can still run
    ``mpk_end``).  Returns each distinct cycle as a sorted tid list."""
    cycles: list[list[int]] = []
    claimed: set[int] = set()
    for root in sorted(graph):
        if root in claimed or root not in parked:
            continue
        stack: list[int] = []
        on_stack: set[int] = set()
        done: set[int] = set()

        def visit(node: int) -> list[int] | None:
            stack.append(node)
            on_stack.add(node)
            for succ in sorted(graph.get(node, ())):
                if succ not in parked or succ in done:
                    continue
                if succ in on_stack:
                    return stack[stack.index(succ):]
                found = visit(succ)
                if found is not None:
                    return found
            on_stack.discard(node)
            stack.pop()
            done.add(node)
            return None

        cycle = visit(root)
        if cycle is not None:
            ordered = sorted(set(cycle))
            if ordered not in cycles:
                cycles.append(ordered)
            claimed.update(cycle)
    return cycles


class Watchdog:
    """Periodic wait-for-graph scanner over watched libmpk instances.

    ``stall_threshold`` is in cycles; the serving engine and the chaos
    campaign call :meth:`scan` at their outer loops, and anything else
    (tests, the CLI) may call it ad hoc — every scan is a pure function
    of current simulation state plus one ``kernel.watchdog.scan``
    charge.
    """

    def __init__(self, kernel: "Kernel",
                 stall_threshold: float = 50_000_000.0) -> None:
        if stall_threshold <= 0:
            raise ValueError("stall_threshold must be positive")
        self.kernel = kernel
        self.stall_threshold = stall_threshold
        self._libs: list["Libmpk"] = []
        self.scans = 0
        self.stalls_detected = 0
        self.deadlocks_detected = 0
        self.last_report: WatchdogReport | None = None

    def watch(self, lib: "Libmpk") -> None:
        """Track ``lib`` and hook its process into ``audit()``: while a
        deadlock cycle exists among the process's tasks, the obs
        invariant ``watchdog.pid<N>`` fails."""
        if lib in self._libs:
            raise ValueError("libmpk instance is already watched")
        self._libs.append(lib)
        self.kernel.machine.obs.register_invariant(
            f"watchdog.pid{lib._process.pid}",
            lambda: self._check_lib(lib))

    def _deadlocks_for(self, lib: "Libmpk") -> list[list[int]]:
        """Chargeless deadlock analysis for one instance (shared by
        scan() and the audit invariant)."""
        cache = lib._cache
        if cache is None or not len(lib.key_waiters):
            return []
        # Outside help available?  A free key, or an evictable (cached
        # but unpinned, non-exec-only) group, means a waiter can still
        # be satisfied without any holder moving.
        if cache.free_keys:
            return []
        for group in lib._groups.values():
            if group.cached and not group.exec_only and not group.pinned_by:
                return []
        graph = wait_for_graph(lib)
        parked = {entry.task.tid for entry in lib.key_waiters.entries()
                  if entry.task.state != "dead"}
        return find_cycles(graph, parked)

    def _check_lib(self, lib: "Libmpk") -> str | None:
        cycles = self._deadlocks_for(lib)
        if cycles:
            return (f"deadlock: pin-holders {cycles} are mutually "
                    f"parked on key_waiters with no free or evictable "
                    f"key")
        return None

    def scan(self) -> WatchdogReport:
        """Walk every watched instance; charge, record, and report."""
        clock = self.kernel.clock
        clock.charge(self.kernel.costs.watchdog_scan,
                     site="kernel.watchdog.scan")
        self.scans += 1
        obs = self.kernel.machine.obs
        report = WatchdogReport()
        now = clock.now
        for lib in self._libs:
            for vkey, waiters in key_demand(lib).items():
                report.contention[vkey] = (
                    report.contention.get(vkey, 0) + waiters)
            for cycle in self._deadlocks_for(lib):
                report.deadlocks.append(cycle)
                self.deadlocks_detected += 1
                obs.record_metric("kernel.watchdog.deadlock",
                                  float(len(cycle)))
            for entry in lib.key_waiters.entries():
                if entry.task.state == "dead":
                    continue
                report.waiters += 1
                waited = now - entry.parked_at
                if waited >= self.stall_threshold:
                    report.stalls.append((entry.task.tid, waited))
                    self.stalls_detected += 1
                    obs.record_metric("kernel.watchdog.stall", waited)
        if report.contention:
            # One observation per scan that saw contention: how many
            # distinct vkeys had parked demand.  Recorded only when
            # non-empty so contention-free workloads keep their metric
            # summaries byte-identical.
            obs.record_metric("kernel.watchdog.contention",
                              float(len(report.contention)))
        self.last_report = report
        return report
