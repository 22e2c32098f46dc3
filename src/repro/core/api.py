"""The libmpk API (§4.1, Table 2).

Eight calls over a process's address space:

====================  =====================================================
``mpk_init``          obtain every hardware key, set the eviction rate
``mpk_mmap``          create a page group for a virtual key
``mpk_munmap``        destroy a page group
``mpk_begin/end``     thread-local domain isolation (usage model 1)
``mpk_mprotect``      process-global permission change (usage model 2)
``mpk_malloc/free``   heap allocation inside a page group
====================  =====================================================

All calls take the invoking :class:`~repro.kernel.task.Task` first —
the simulator's stand-in for "the calling thread" — and charge the
calibrated costs on the machine clock.

Key-virtualization behaviour follows Figure 6: a *hit* costs a WRPKRU
plus bookkeeping; a *miss* either evicts the least-recently-used
unpinned hardware key or (for ``mpk_mprotect``, governed by the
eviction rate) falls back to plain ``mprotect``.  ``mpk_begin`` always
maps a key and raises :class:`~repro.errors.MpkKeyExhaustion` when all
15 are pinned.  One key is lazily reserved for execute-only groups and
never evicted while any exist.
"""

from __future__ import annotations

import math
import typing
from contextlib import contextmanager, suppress

from repro.consts import (
    DEFAULT_PKEY,
    MAP_ANONYMOUS,
    MAP_PRIVATE,
    PKEY_DISABLE_ACCESS,
    PROT_EXEC,
    PROT_READ,
    page_align_up,
)
from repro.errors import (
    MpkError,
    MpkKeyExhaustion,
    MpkTimeout,
    MpkUnknownVkey,
    MpkVkeyInUse,
    NoSpace,
)
from repro.hw.pkru import KEY_RIGHTS_NONE, rights_for_prot
from repro.obs import traced
from repro.core.groups import PageGroup
from repro.core.heap import GroupHeap
from repro.core.keycache import EvictionPolicy, KeyCache
from repro.core.metadata import CallSiteRegistry, MetadataRegion
from repro.core.sync import do_pkey_sync
from repro.kernel.task import WaitQueue, WaitSpec
from repro.kernel.watchdog import key_demand

if typing.TYPE_CHECKING:
    from repro.kernel.kcore import Kernel, Process
    from repro.kernel.task import Task

_DEFAULT_FLAGS = MAP_ANONYMOUS | MAP_PRIVATE

# Usage models a group was last driven by (decides eviction behaviour).
_MODEL_DOMAIN = "domain"
_MODEL_GLOBAL = "global"

#: Obs cost table keyed by vkey: measured cycles of each group (re)load
#: (see ``Observability.charge_key_cost``; read by cost-aware eviction).
RELOAD_COST_TABLE = "libmpk.keycache.reload"


class Libmpk:
    """One libmpk instance, bound to one process."""

    def __init__(self, process: "Process") -> None:
        self._process = process
        self._kernel: "Kernel" = process.kernel
        # The machine's instrumentation spine (for @traced spans).
        self._obs = process.kernel.machine.obs
        self._lookup_site = process.kernel.clock.site(
            "libmpk.keycache.lookup")
        self._cache: KeyCache | None = None
        self._groups: dict[int, PageGroup] = {}
        self._metadata: MetadataRegion | None = None
        self._registry = CallSiteRegistry(None)
        self._xo_pkey: int | None = None
        self._xo_groups: set[int] = set()
        # Expired key waits (surfaced via stats()).
        self._wait_timeouts = 0
        # Threads blocked in begin_blocking park here; any call that
        # can free or unpin a hardware key wakes them.
        self.key_waiters = WaitQueue("libmpk.key_waiters")
        # A thread killed by a signal implicitly ends its open domains.
        process.task_death_hooks.append(self._task_death_hook)

    # ------------------------------------------------------------------
    # mpk_init
    # ------------------------------------------------------------------

    @traced("libmpk.mpk_init")
    def mpk_init(self, task: "Task", evict_rate: float = -1,
                 static_vkeys: typing.Iterable[int] | None = None,
                 policy: str | EvictionPolicy = "lru",
                 seed: int = 42) -> None:
        """Initialize libmpk: grab all hardware keys, set the eviction
        rate (-1 means the default of 100%), and set up the protected
        metadata region.

        ``static_vkeys`` models the load-time binary scan of §4.3: when
        given, every later API call must use one of these hardcoded
        virtual keys.  ``policy`` selects the victim-selection policy
        ("lru" is the paper's design; the rest exist for the eviction
        shootout) by registry name or strategy object.  ``seed`` feeds
        the cache's private RNG — the only randomness any policy may
        draw from — so victim sequences are a pure function of the
        seed regardless of global ``random`` state.
        """
        if self._cache is not None:
            raise MpkError("mpk_init() called twice")
        if evict_rate == -1:
            evict_rate = 1.0
        keys: list[int] = []
        while True:
            try:
                keys.append(self._kernel.sys_pkey_alloc(
                    task, 0, PKEY_DISABLE_ACCESS))
            except NoSpace:
                break
        if not keys:
            raise MpkError("no hardware protection keys available")
        self._cache = KeyCache(keys, evict_rate, policy=policy,
                               seed=seed)
        # Victim pricing for cost-using policies: measured reload
        # cycles per vkey, with parked-waiter demand as a veto.
        self._cache.victim_cost = self._victim_costs
        self._metadata = MetadataRegion(self._kernel, self._process, task)
        self._registry = CallSiteRegistry(static_vkeys)
        # Key-cache counter conservation, checked by obs.audit()
        # alongside the MMU/TLB invariant: every lookup resolved to
        # exactly one of hit or miss.
        self._obs.register_invariant(
            f"keycache_counters.pid{self._process.pid}",
            self._cache.check_counters)
        # Key partition: bound + free + reserved cover the hardware
        # keys exactly (a limbo key mid-eviction is transient inside a
        # single call and never outlives it).
        self._obs.register_invariant(
            f"keycache_partition.pid{self._process.pid}",
            self._cache.check_partition)
        # Wait-timeout conservation: every waiter expired off the key
        # wait queue must have gone through key_wait_timeout() — i.e.
        # been charged as libmpk.keycache.wait_timeout and counted —
        # so no timeout path can silently drop accounting.
        self._obs.register_invariant(
            f"key_wait_timeouts.pid{self._process.pid}",
            self._check_wait_timeouts)

    # ------------------------------------------------------------------
    # mpk_mmap / mpk_munmap
    # ------------------------------------------------------------------

    @traced("libmpk.mpk_mmap")
    def mpk_mmap(self, task: "Task", vkey: int, length: int, prot: int,
                 flags: int = _DEFAULT_FLAGS,
                 addr: int | None = None) -> int:
        """Create a page group for ``vkey``; returns its base address.

        The group starts *inaccessible* (Figure 5: "page permission:
        rw- & pkey permission: --"): if a hardware key is free it backs
        the group immediately with all-threads-denied PKRU rights;
        otherwise the pages are mapped with their permission revoked
        until the first ``mpk_begin``/``mpk_mprotect`` loads the group.
        """
        cache = self._require_init()
        self._registry.verify(vkey)
        if vkey in self._groups:
            raise MpkVkeyInUse(f"vkey {vkey} already names a page group")
        length = page_align_up(length)
        base = self._kernel.sys_mmap(task, length, prot, flags, addr=addr)
        group = PageGroup(vkey=vkey, base=base, length=length, prot=prot)
        self._groups[vkey] = group
        try:
            pkey = cache.assign_free(vkey)
            if pkey is not None:
                group.pkey = pkey
                self._kernel_update_range(task, group, prot, pkey)
                self._quiesce_key(task, pkey)
            else:
                # No key available: revoke data access (keep EXEC, see
                # _unload_group) until a begin/mprotect loads the group.
                self._kernel_update_range(task, group, prot & PROT_EXEC,
                                          DEFAULT_PKEY)
            self._metadata.kernel_upsert(group)
        except BaseException:
            # Unwind to "the group never existed": drop the binding and
            # the group, unmap the pages, scrub any metadata record.
            if group.cached:
                with suppress(Exception):
                    cache.release(vkey)
            group.pkey = None
            self._groups.pop(vkey, None)
            with suppress(Exception):
                self._kernel.sys_munmap(task, base, length)
            with suppress(Exception):
                self._metadata.kernel_remove(vkey)
            raise
        return base

    @traced("libmpk.mpk_adopt")
    def mpk_adopt(self, task: "Task", vkey: int, addr: int,
                  length: int, prot: int) -> None:
        """Create a page group from an *existing* mapping.

        The paper's one-key-per-page JIT port dedicates a key to a code
        page "when it is first time re-protected via mprotect()" — the
        page already exists in the code cache and must not move.  This
        entry point registers such a range as a page group; a hardware
        key is attached lazily by the first mpk_begin/mpk_mprotect.
        """
        self._require_init()
        self._registry.verify(vkey)
        if vkey in self._groups:
            raise MpkVkeyInUse(f"vkey {vkey} already names a page group")
        length = page_align_up(length)
        group = PageGroup(vkey=vkey, base=addr, length=length, prot=prot)
        self._groups[vkey] = group
        try:
            self._metadata.kernel_upsert(group)
        except BaseException:
            self._groups.pop(vkey, None)
            with suppress(Exception):
                self._metadata.kernel_remove(vkey)
            raise

    @traced("libmpk.mpk_disown")
    def mpk_disown(self, task: "Task", vkey: int, prot: int) -> None:
        """Dissolve a page group *without* unmapping its pages.

        The inverse of :meth:`mpk_adopt`: the group's metadata and key
        binding are released and the pages become a plain mapping with
        ``prot`` under the default key.  A JIT uses this to return cold
        code pages to the undedicated pool (freeing their virtual keys)
        while the code itself stays mapped and executable.
        """
        self._require_init()
        self._registry.verify(vkey)
        group = self._lookup_group(vkey)
        if group.pinned:
            raise self._pinned_error("mpk_disown", group)
        self._drop_key(group)
        try:
            self._kernel_update_range(task, group, prot, DEFAULT_PKEY)
        except BaseException:
            # The binding is already gone: roll *forward* — retry the
            # reset once (idempotent) so the pages do not keep a key
            # the cache now considers free.
            with suppress(Exception):
                self._kernel_update_range(task, group, prot, DEFAULT_PKEY)
            self._repair_record(group)
            raise
        self._dissolve(vkey)

    @traced("libmpk.mpk_munmap")
    def mpk_munmap(self, task: "Task", vkey: int) -> None:
        """Destroy ``vkey``'s page group and unmap all of its pages.

        libmpk tracks the group→pages mapping precisely so destruction
        never scans the whole page table (§4.1).
        """
        self._require_init()
        group = self._lookup_group(vkey)
        if group.pinned:
            raise self._pinned_error("mpk_munmap", group)
        # Unmap *first*: a failure here leaves the group fully intact
        # (and an already-unmapped range audits vacuously); only then
        # release the binding and dissolve the group.
        self._kernel.sys_munmap(task, group.base, group.length)
        self._drop_key(group)
        self._dissolve(vkey)

    # ------------------------------------------------------------------
    # mpk_begin / mpk_end — domain-based thread-local isolation.
    # ------------------------------------------------------------------

    @traced("libmpk.mpk_begin")
    def mpk_begin(self, task: "Task", vkey: int, prot: int) -> None:
        """Grant the *calling thread* ``prot`` access to the group.

        Always maps the virtual key to a hardware key (evicting an
        unpinned LRU key on a miss); raises
        :class:`~repro.errors.MpkKeyExhaustion` when every key is
        pinned, letting the caller decide how to wait (§4.2).
        """
        # The hit path tests attributes directly; the helpers run only
        # to raise their errors.
        cache = self._cache
        if cache is None:
            self._require_init()
        kernel = self._kernel
        self._lookup_site.charge(kernel.costs.mpk_cache_lookup)
        static = self._registry.static
        if static is not None and vkey not in static:
            self._registry.verify(vkey)  # raises
        group = self._groups.get(vkey)
        if group is None:
            self._lookup_group(vkey)
        if group.exec_only:
            raise MpkError(
                f"mpk_begin: vkey {vkey} is execute-only; change it "
                "with mpk_mprotect first")
        pkey = cache.lookup(vkey)
        loaded = False
        try:
            if pkey is None:
                pkey = self._load_group(task, group, group.prot)
                loaded = True
                self._quiesce_key(task, pkey)
            elif group.model == _MODEL_GLOBAL:
                # The group is moving from mprotect semantics (all
                # threads hold its rights) to domain isolation: revoke
                # the global grants so only begin/end windows open it
                # from here on.
                self._quiesce_key(task, pkey)
            task.trusted_pkey_set(pkey, rights_for_prot(prot))
        except BaseException:
            if loaded:
                # The group went cached but the record still says
                # evicted; a failed quiesce/grant leaves no pin and no
                # rights, so the binding itself may stand.
                self._repair_record(group)
            raise
        # Pin and record the usage model only once the grant is live, so
        # a failure above cannot leave a pin without rights (the seed's
        # mpk_begin pinned first and leaked the pin on error).
        prev_model = group.model
        group.pinned_by.add(task.tid)
        group.model = _MODEL_DOMAIN
        try:
            self._metadata.kernel_upsert(group)
        except BaseException:
            group.pinned_by.discard(task.tid)
            group.model = prev_model
            with suppress(Exception):
                task.trusted_pkey_set(pkey, KEY_RIGHTS_NONE)
            self._repair_record(group)
            raise

    def begin_blocking(self, task: "Task", vkey: int, prot: int,
                       timeout: float | None = None):
        """``mpk_begin`` that parks until a hardware key frees.

        The paper leaves exhaustion to the caller ("mpk_begin() raises
        an exception and lets the calling thread handle it (e.g.,
        sleeps until a key is available)"); this generator is that
        sleep.  Drive it with ``yield from lib.begin_blocking(...)``
        inside a serving-engine job.  On each
        :class:`~repro.errors.MpkKeyExhaustion` it charges the futex
        wait entry as ``libmpk.keycache.wait`` and yields
        :attr:`key_waiters`, which ``mpk_end``/``mpk_munmap``/
        ``mpk_disown`` wake whenever a pin drops or a key frees.

        ``timeout`` (cycles) bounds the *total* wait: the deadline is
        fixed once, and each park yields a
        :class:`~repro.kernel.task.WaitSpec` carrying only what is
        left of it, expired through :meth:`key_wait_timeout`.  The
        driver throws :class:`~repro.errors.MpkTimeout` at the yield
        when it passes.
        """
        clock = self._kernel.clock
        deadline = None if timeout is None else clock.now + timeout
        # The watchdog's key_demand() export (and through it the
        # cost-aware eviction policy) reads what each parked waiter
        # wants off this tag.
        task.wanted_vkey = vkey
        try:
            while True:
                try:
                    self.mpk_begin(task, vkey, prot)
                    return
                except MpkKeyExhaustion:
                    self._charge(self._kernel.costs.futex_block,
                                 site="libmpk.keycache.wait")
                if deadline is None:
                    yield self.key_waiters
                else:
                    yield WaitSpec(self.key_waiters,
                                   max(deadline - clock.now, 1.0),
                                   on_expire=self.key_wait_timeout)
        finally:
            task.wanted_vkey = None

    @traced("libmpk.mpk_begin_wait")
    def mpk_begin_wait(self, task: "Task", vkey: int, prot: int,
                       timeout: float | None = None) -> None:
        """Drive :meth:`begin_blocking` for a synchronous caller.

        A synchronous caller has no other thread to wake it, so a park
        never ends in a wake.  With ``timeout`` the thread sleeps out
        the rest of its deadline (charged as ``libmpk.keycache.wait``),
        the expiry is charged as ``libmpk.keycache.wait_timeout``, and
        :class:`~repro.errors.MpkTimeout` (ETIMEDOUT) is raised.
        Without one the wait would deadlock, so
        :class:`~repro.errors.MpkKeyExhaustion` is raised at once.
        Returns once the group is pinned, as ``mpk_begin`` does.
        """
        clock = self._kernel.clock
        if timeout is not None and timeout <= 0:
            raise MpkError(
                f"mpk_begin_wait: timeout must be positive cycles, "
                f"got {timeout!r}")
        started = clock.now
        waits = self.begin_blocking(task, vkey, prot, timeout)
        # The generator catches neither throw, so each raises out of
        # it (clearing its wanted_vkey tag) and out of this call.
        for spec in waits:
            if not isinstance(spec, WaitSpec):
                waits.throw(MpkKeyExhaustion(
                    f"mpk_begin_wait: all hardware keys pinned and no "
                    f"waker for vkey {vkey} (would deadlock)"))
            self.key_waiters.add(task, now=clock.now)
            self._charge(spec.timeout, site="libmpk.keycache.wait")
            spec.on_expire(task)
            waited = clock.now - started
            waits.throw(MpkTimeout(
                f"mpk_begin_wait: no hardware key for vkey {vkey} "
                f"within the deadline ({waited:.0f} cycles waited)",
                vkey=vkey, waited_cycles=waited))

    def key_wait_timeout(self, task: "Task") -> bool:
        """Expire ``task``'s parked key wait (the deadline path, also
        driven by the serving engine for blocked workers): remove it
        from :attr:`key_waiters`, charge the expiry, and count it.
        Returns False when the task was not parked (a wake won)."""
        if not self.key_waiters.timeout(task):
            return False
        self._charge(self._kernel.costs.futex_timeout,
                     site="libmpk.keycache.wait_timeout")
        self._wait_timeouts += 1
        return True

    def _check_wait_timeouts(self) -> str | None:
        """Invariant: queue-level expiries match charged+counted ones."""
        queued = self.key_waiters.stats_timeouts
        if queued != self._wait_timeouts:
            return (f"key wait queue expired {queued} waiters but only "
                    f"{self._wait_timeouts} went through "
                    f"key_wait_timeout() accounting")
        return None

    def _wake_key_waiters(self) -> None:
        """Wake every thread blocked in :meth:`begin_blocking` (a key
        freed or a pin dropped).  Callers call it only when
        ``key_waiters.parked`` is non-empty, so workloads that never
        block see identical cycle totals."""
        self._charge(len(self.key_waiters.parked)
                     * self._kernel.costs.futex_wake,
                     site="libmpk.keycache.wake")
        self.key_waiters.wake_all()

    @traced("libmpk.mpk_end")
    def mpk_end(self, task: "Task", vkey: int) -> None:
        """Release the calling thread's access to the group."""
        if self._cache is None:
            self._require_init()
        kernel = self._kernel
        self._lookup_site.charge(kernel.costs.mpk_cache_lookup)
        static = self._registry.static
        if static is not None and vkey not in static:
            self._registry.verify(vkey)  # raises
        group = self._groups.get(vkey)
        if group is None:
            self._lookup_group(vkey)
        if task.tid not in group.pinned_by:
            raise MpkError(
                f"mpk_end: thread {task.tid} has no open mpk_begin on "
                f"vkey {vkey}")
        task.trusted_pkey_set(group.pkey, KEY_RIGHTS_NONE)
        group.pinned_by.discard(task.tid)
        try:
            self._metadata.kernel_upsert(group)
        except BaseException:
            # Rights are already revoked and the pin dropped — roll
            # forward by retrying the record update, never backwards
            # into a re-pinned state.
            self._repair_record(group)
            raise
        # The dropped pin may make an eviction victim available.
        if self.key_waiters.parked:
            self._wake_key_waiters()

    @contextmanager
    def domain(self, task: "Task", vkey: int, prot: int):
        """``with lib.domain(task, vkey, prot): ...`` sugar around
        mpk_begin/mpk_end."""
        self.mpk_begin(task, vkey, prot)
        try:
            yield
        finally:
            self.mpk_end(task, vkey)

    # ------------------------------------------------------------------
    # mpk_mprotect — global permission change with mprotect semantics.
    # ------------------------------------------------------------------

    @traced("libmpk.mpk_mprotect")
    def mpk_mprotect(self, task: "Task", vkey: int, prot: int) -> None:
        """Change the group's permission *for every thread*.

        Hit: a WRPKRU for the caller plus lazy PKRU synchronization of
        the siblings — no page-table or TLB work, independent of the
        group's size.  Miss: evict the LRU key or fall back to plain
        mprotect, per the configured eviction rate.  A ``PROT_EXEC``
        request routes to the reserved execute-only key.
        """
        cache = self._require_init()
        self._lookup_site.charge(self._kernel.costs.mpk_cache_lookup)
        self._registry.verify(vkey)
        group = self._lookup_group(vkey)

        if prot == PROT_EXEC:
            self._make_group_exec_only(task, group)
            return
        try:
            if group.exec_only:
                # Leaving execute-only: scrub the reserved key out of
                # the PTEs immediately — otherwise these pages would
                # silently rejoin a *future* exec-only group that
                # reuses the key.
                self._drop_key(group)
                try:
                    self._kernel_update_range(task, group, prot,
                                              DEFAULT_PKEY)
                except BaseException:
                    with suppress(Exception):
                        self._kernel_update_range(task, group, prot,
                                                  DEFAULT_PKEY)
                    raise
                group.current_prot = prot
                group.model = _MODEL_GLOBAL
                self._metadata.kernel_upsert(group)
                return

            pkey = cache.lookup(vkey)
            if pkey is not None:
                self._mprotect_hit(task, group, pkey, prot)
            elif cache.should_evict_on_miss():
                pkey = self._load_group(task, group, prot)
                self._apply_rights_globally(task, pkey,
                                            rights_for_prot(prot))
            else:
                # Fallback: enforce with page bits, process-wide.
                self._kernel.sys_mprotect(task, group.base, group.length,
                                          prot)
            group.current_prot = prot
            group.model = _MODEL_GLOBAL
            self._metadata.kernel_upsert(group)
        except BaseException:
            # Whatever progress stood (a load, an exec-only exit) is
            # kept; only the record is forced back into agreement.
            self._repair_record(group)
            raise

    def _mprotect_hit(self, task: "Task", group: PageGroup, pkey: int,
                      prot: int) -> None:
        """Fast path: adjust PKRU rights; widen page bits only if the
        request needs bits the PTEs do not yet carry (e.g. adding EXEC)."""
        page_prot = group.page_prot
        if prot & ~page_prot:
            widened = page_prot | prot
            self._kernel_update_range(task, group, widened, pkey)
            group.page_prot = widened
        self._apply_rights_globally(task, pkey, rights_for_prot(prot))

    # ------------------------------------------------------------------
    # mpk_malloc / mpk_free — the per-group heap.
    # ------------------------------------------------------------------

    @traced("libmpk.mpk_malloc")
    def mpk_malloc(self, task: "Task", vkey: int, size: int) -> int:
        """Allocate ``size`` bytes inside ``vkey``'s page group."""
        self._require_init()
        self._charge(self._kernel.costs.mpk_metadata_op,
                     site="libmpk.heap.metadata")
        self._registry.verify(vkey)
        group = self._lookup_group(vkey)
        if group.heap is None:
            group.heap = GroupHeap(group.base, group.length)
        return group.heap.malloc(size)

    @traced("libmpk.mpk_free")
    def mpk_free(self, task: "Task", vkey: int, addr: int) -> None:
        """Free an ``mpk_malloc`` allocation."""
        self._require_init()
        self._charge(self._kernel.costs.mpk_metadata_op,
                     site="libmpk.heap.metadata")
        self._registry.verify(vkey)
        heap = self.heap(vkey)
        if heap is None:
            raise MpkError(f"vkey {vkey} has no heap allocations")
        heap.free(addr)

    # ------------------------------------------------------------------
    # Introspection (used by tests, benchmarks, and applications).
    # ------------------------------------------------------------------

    def group(self, vkey: int) -> PageGroup:
        return self._lookup_group(vkey)

    def groups(self) -> dict[int, PageGroup]:
        return dict(self._groups)

    def heap(self, vkey: int) -> GroupHeap | None:
        group = self._groups.get(vkey)
        return None if group is None else group.heap

    @property
    def cache(self) -> KeyCache:
        return self._require_init()

    @property
    def metadata(self) -> MetadataRegion:
        if self._metadata is None:
            raise MpkError("libmpk is not initialized (call mpk_init)")
        return self._metadata

    @property
    def exec_only_pkey(self) -> int | None:
        return self._xo_pkey

    def memory_overhead_bytes(self) -> int:
        """Heap metadata (32 B per group) plus the metadata region."""
        return (len(self._groups) * PageGroup.METADATA_BYTES
                + self.metadata.capacity_bytes)

    def stats(self) -> dict:
        """A point-in-time summary of libmpk's internal state."""
        cache = self._require_init()
        groups = self._groups.values()
        return {
            "groups": len(self._groups),
            "cached_groups": sum(1 for g in groups if g.cached),
            "pinned_groups": sum(1 for g in groups if g.pinned),
            "exec_only_groups": len(self._xo_groups),
            "hardware_keys": cache.capacity,
            "keys_in_use": cache.in_use,
            "reserved_keys": len(cache.reserved_keys),
            "cache_hits": cache.stats_hits,
            "cache_misses": cache.stats_misses,
            "evictions": cache.stats_evictions,
            "mprotect_fallbacks": cache.stats_fallbacks,
            "eviction_rate": cache.evict_rate,
            "eviction_policy": cache.policy,
            "memory_overhead_bytes": self.memory_overhead_bytes(),
            "protected_bytes": sum(g.length for g in groups),
            "wait_timeouts": self._wait_timeouts,
        }

    def audit(self):
        """Cross-check every state layer (groups, key cache, page
        table, metadata region, pins, cycle conservation); returns an
        :class:`~repro.faults.audit.AuditReport`."""
        from repro.faults.audit import audit_libmpk
        return audit_libmpk(self)

    # ------------------------------------------------------------------
    # Internals.
    # ------------------------------------------------------------------

    def _require_init(self) -> KeyCache:
        if self._cache is None:
            raise MpkError("libmpk is not initialized (call mpk_init)")
        return self._cache

    def _lookup_group(self, vkey: int) -> PageGroup:
        group = self._groups.get(vkey)
        if group is None:
            raise MpkUnknownVkey(f"vkey {vkey} has no page group")
        return group

    def _charge(self, cycles: float, site: str) -> None:
        self._kernel.clock.charge(cycles, site=site)

    def _repair_record(self, group: PageGroup) -> None:
        """Failure-path fix-up: force ``group``'s metadata record back
        into agreement with the in-memory state.  Idempotent; a second
        failure here is swallowed and left for the audit to report."""
        with suppress(Exception):
            self._metadata.kernel_upsert(group)

    @staticmethod
    def _pinned_error(call: str, group: PageGroup) -> MpkError:
        """The refusal for a call that would take a pinned group's key
        (§4.2: a key pinned by mpk_begin cannot be taken away)."""
        return MpkError(f"{call}: vkey {group.vkey} is pinned by threads "
                        f"{sorted(group.pinned_by)}")

    def _drop_key(self, group: PageGroup) -> None:
        """Release ``group``'s hardware key: its cache binding, or its
        claim on the reserved execute-only key (unreserved once the
        last execute-only group leaves)."""
        if group.exec_only:
            group.exec_only = False
            self._xo_groups.discard(group.vkey)
            if not self._xo_groups and self._xo_pkey is not None:
                self._cache.unreserve(self._xo_pkey)
                self._xo_pkey = None
        elif group.cached:
            self._cache.release(group.vkey)
        group.pkey = None

    def _dissolve(self, vkey: int) -> None:
        """The tail of mpk_munmap/mpk_disown: drop the (key-less) group,
        remove its record (one retry) and wake key waiters."""
        self._groups.pop(vkey)
        try:
            self._metadata.kernel_remove(vkey)
        except BaseException:
            with suppress(Exception):
                self._metadata.kernel_remove(vkey)
            raise
        if self.key_waiters.parked:
            self._wake_key_waiters()

    def _task_death_hook(self, task: "Task", info) -> None:
        """A thread killed by a signal implicitly mpk_ends its open
        domains: pins drop so the keys become evictable again (the
        kernel knows the pin counts via the metadata region)."""
        dropped = False
        for group in self._groups.values():
            if task.tid in group.pinned_by:
                group.pinned_by.discard(task.tid)
                self._repair_record(group)
                dropped = True
        if dropped and self.key_waiters.parked:
            self._wake_key_waiters()

    def _kernel_update_range(self, task: "Task", group: PageGroup,
                             prot: int, pkey: int,
                             pte_prot: int | None = None) -> None:
        """libmpk's kernel component rewriting a group's PTEs.

        Charged like a pkey_mprotect syscall (Figure 6b shows the miss
        path invoking mprotect), including the TLB shootdown; unlike the
        userspace syscall it may legitimately reset keys to 0.
        """
        self._kernel._enter(task)
        stats = self._process.mm.protect(group.base, group.length, prot,
                                         pkey=pkey, pte_prot=pte_prot)
        self._kernel._charge_protect(stats, pkey_variant=True)
        self._kernel._protect_shootdown(self._process, task, stats)

    def _victim_costs(self, candidates: list[int]) -> list[float]:
        """Price each eviction candidate for a cost-using policy.

        A vkey some parked waiter is sleeping on (the watchdog's
        :func:`~repro.kernel.watchdog.key_demand` export) costs +inf —
        evicting it would guarantee that waiter another miss on wake.
        Everything else costs its mean measured reload
        (:data:`RELOAD_COST_TABLE`); a never-reloaded vkey prices at
        zero, making untouched-since-mmap groups the cheapest victims.
        """
        demand = key_demand(self)
        obs = self._obs
        return [math.inf if vkey in demand
                else obs.key_cost(RELOAD_COST_TABLE, vkey)
                for vkey in candidates]

    def _load_group(self, task: "Task", group: PageGroup,
                    page_prot: int) -> int:
        """Map ``group`` onto a hardware key, evicting the LRU unpinned
        key when none is free.  Returns the key."""
        cache = self._cache
        load_started = self._kernel.clock.now
        pkey = cache.assign_free(group.vkey)
        if pkey is None:
            pkey = self._evict_victim(task)
            cache.bind(group.vkey, pkey)
        group.pkey = pkey
        try:
            self._kernel_update_range(task, group, page_prot, pkey)
        except BaseException:
            # Undo the load: drop the binding and reset the pages to
            # their evicted state (idempotent if the PTE write never
            # happened).
            group.pkey = None
            with suppress(Exception):
                cache.release(group.vkey)
            with suppress(Exception):
                self._kernel_update_range(task, group,
                                          self._evicted_prot(group),
                                          DEFAULT_PKEY)
            self._repair_record(group)
            raise
        group.page_prot = page_prot
        # Observational only: remember what this (re)load cost so the
        # cost-aware policy can later prefer cheap-to-reload victims.
        self._obs.charge_key_cost(RELOAD_COST_TABLE, group.vkey,
                                  self._kernel.clock.now - load_started)
        return pkey

    def _evict_victim(self, task: "Task") -> int:
        """Evict the policy's victim among the unpinned keys and unload
        its group; returns the key, unbound but not yet free."""
        cache = self._cache
        groups = self._groups
        victim_vkey = cache.choose_victim(lambda v: not groups[v].pinned_by)
        pkey = cache.evict(victim_vkey)
        try:
            self._unload_group(task, groups[victim_vkey])
        except BaseException:
            # The victim rolled itself forward to "evicted"; the key is
            # unbound but not free — return it to the pool.
            cache.refund(pkey)
            raise
        return pkey

    def _unload_group(self, task: "Task", group: PageGroup) -> None:
        """Evict: reset the group's pages to key 0.

        Domain-model groups lose their *data* permission entirely so no
        thread can slip in while the group has no key (§4.2).  The EXEC
        bit survives so an evicted JIT code page remains runnable; our
        PTEs can express execute-only directly, standing in for routing
        evicted executable groups through the reserved execute-only key
        (x86 page bits cannot drop read while keeping exec).
        Global-model groups keep their last requested permission
        enforced by page bits, preserving mprotect semantics without a
        hardware key.
        """
        evicted_prot = self._evicted_prot(group)
        group.pkey = None
        try:
            self._kernel_update_range(task, group, evicted_prot,
                                      DEFAULT_PKEY)
            self._metadata.kernel_upsert(group)
        except BaseException:
            # The binding is gone either way: roll forward — retry the
            # PTE reset (idempotent) and repair the record.
            with suppress(Exception):
                self._kernel_update_range(task, group, evicted_prot,
                                          DEFAULT_PKEY)
            self._repair_record(group)
            raise

    def _evicted_prot(self, group: PageGroup) -> int:
        """The page-bit permission an evicted group falls back to (see
        :meth:`_unload_group`'s docstring for the rationale)."""
        if group.model == _MODEL_GLOBAL:
            return group.current_prot
        return group.prot & PROT_EXEC

    def _quiesce_key(self, task: "Task", pkey: int) -> None:
        """Clear every thread's PKRU rights for a freshly (re)bound key
        so stale grants from the key's previous tenant cannot leak into
        the new group."""
        task.trusted_pkey_set(pkey, KEY_RIGHTS_NONE)
        do_pkey_sync(self._kernel, task, pkey, KEY_RIGHTS_NONE)

    def _apply_rights_globally(self, task: "Task", pkey: int,
                               rights: int) -> None:
        """The §4.4 global update: caller WRPKRUs itself, siblings get
        lazy task_work updates plus rescheduling IPIs."""
        task.trusted_pkey_set(pkey, rights)
        do_pkey_sync(self._kernel, task, pkey, rights)

    # ------------------------------------------------------------------
    # Execute-only groups (§4.2's reserved-key scheme).
    # ------------------------------------------------------------------

    def _make_group_exec_only(self, task: "Task", group: PageGroup) -> None:
        if group.pinned:
            raise self._pinned_error("mpk_mprotect(PROT_EXEC)", group)
        cache = self._require_init()
        self._charge(self._kernel.costs.mpk_metadata_op,
                     site="libmpk.metadata.exec_only")
        if self._xo_pkey is None:
            self._xo_pkey = self._reserve_exec_only_key(task)
        if group.cached and not group.exec_only:
            # Leave the ordinary cache; the reserved key takes over.
            cache.release(group.vkey)
            group.pkey = None
        try:
            self._kernel_update_range(task, group, PROT_EXEC,
                                      self._xo_pkey,
                                      pte_prot=PROT_READ | PROT_EXEC)
            group.pkey = self._xo_pkey
            group.exec_only = True
            group.current_prot = PROT_EXEC
            self._xo_groups.add(group.vkey)
            self._apply_rights_globally(task, self._xo_pkey,
                                        KEY_RIGHTS_NONE)
            self._metadata.kernel_upsert(group)
        except BaseException:
            # Drive the group to a consistent *evicted* state (the key
            # stays reserved; a later exec-only group reuses it).
            self._xo_groups.discard(group.vkey)
            group.exec_only = False
            group.pkey = None
            with suppress(Exception):
                self._kernel_update_range(task, group,
                                          self._evicted_prot(group),
                                          DEFAULT_PKEY)
            self._repair_record(group)
            raise

    def _reserve_exec_only_key(self, task: "Task") -> int:
        """Reserve a key for execute-only groups, evicting the LRU
        unpinned key if the pool is dry; the reserved key is never
        evicted while execute-only pages exist."""
        cache = self._require_init()
        try:
            return cache.reserve_free_key()
        except MpkError:
            pkey = self._evict_victim(task)
            cache.reserve_key(pkey)
            return pkey
