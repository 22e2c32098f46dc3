"""The Memcached model with four protection configurations (Figure 14).

The store pre-allocates its slab area (1 GB by default, as the paper's
modified Memcached does) plus a hash-table bucket region, and secures
both — slabs and hash table get *separate* keys (Table 3: 2 pkeys /
2 vkeys) to narrow the attack surface.

Protection modes:

``none``
    Original Memcached: both regions stay read-write.
``mpk_begin``
    Domain isolation: each request opens both groups thread-locally
    with mpk_begin and closes them with mpk_end — two WRPKRU pairs.
``mpk_mprotect``
    mprotect semantics via libmpk: each request opens and closes both
    groups globally with mpk_mprotect — key-cache hits, so the cost is
    independent of the gigabyte of protected memory.
``mprotect``
    The page-table baseline: each request opens/closes both regions
    with real mprotect calls whose cost is linear in region size.
"""

from __future__ import annotations

import typing
from collections import OrderedDict

from repro.consts import CLOCK_HZ, PROT_NONE, PROT_READ, PROT_WRITE
from repro.apps.kvstore.hashtable import HashTable
from repro.apps.kvstore.slab import SlabAllocator
from repro.errors import MpkError

if typing.TYPE_CHECKING:
    from repro.core.api import Libmpk
    from repro.kernel.kcore import Kernel, Process
    from repro.kernel.task import Task

RW = PROT_READ | PROT_WRITE

PROTECTION_MODES = ("none", "mpk_begin", "mpk_mprotect", "mprotect")

#: Per-request compute outside the protected data path: TCP handling,
#: protocol parsing, response serialization, LRU bookkeeping.
REQUEST_BASE_CYCLES = 400_000.0
CONNECTION_SETUP_CYCLES = 50_000.0


class Memcached:
    """One simulated Memcached instance."""

    SLAB_VKEY = 70
    HASH_VKEY = 71

    def __init__(self, kernel: "Kernel", process: "Process", task: "Task",
                 mode: str = "none", lib: "Libmpk | None" = None,
                 slab_bytes: int = 1 << 30,
                 hash_buckets: int = 1 << 21,
                 begin_timeout: float | None = None) -> None:
        if mode not in PROTECTION_MODES:
            raise ValueError(f"unknown protection mode: {mode!r}")
        if mode.startswith("mpk") and lib is None:
            raise ValueError(f"mode {mode!r} requires an initialized Libmpk")
        if begin_timeout is not None and mode != "mpk_begin":
            raise ValueError("begin_timeout only applies to mpk_begin mode")
        self.kernel = kernel
        self.process = process
        self.mode = mode
        self.lib = lib
        # Bounded key waits (resilience layer): with a timeout, an
        # exhausted key cache makes the request fail fast with
        # MpkTimeout (ETIMEDOUT) instead of blocking unboundedly.
        self.begin_timeout = begin_timeout
        self.slab_bytes = slab_bytes
        hash_bytes = hash_buckets * 8

        if mode.startswith("mpk"):
            slab_base = lib.mpk_mmap(task, self.SLAB_VKEY, slab_bytes, RW)
            hash_base = lib.mpk_mmap(task, self.HASH_VKEY, hash_bytes, RW)
            if mode == "mpk_mprotect":
                # Load both groups once; later calls are cache hits.
                lib.mpk_mprotect(task, self.SLAB_VKEY, PROT_NONE)
                lib.mpk_mprotect(task, self.HASH_VKEY, PROT_NONE)
        else:
            slab_base = kernel.sys_mmap(task, slab_bytes, RW)
            hash_base = kernel.sys_mmap(task, hash_bytes, RW)
            if mode == "mprotect":
                kernel.sys_mprotect(task, slab_base, slab_bytes, PROT_NONE)
                kernel.sys_mprotect(task, hash_base, hash_bytes, PROT_NONE)
        self._slab_base = slab_base
        self._hash_base = hash_base
        self._hash_bytes = hash_bytes
        self.slab = SlabAllocator(slab_base, slab_bytes)
        self.table = HashTable(hash_base, hash_buckets, self.slab)
        self.stats_requests = 0
        self.stats_hits = 0
        self.stats_misses = 0
        self.stats_evictions = 0
        # Item LRU (Memcached evicts the least recently used item when
        # a slab class is full).  The order index lives out-of-band,
        # like our allocator metadata; item data stays protected.
        self._lru: OrderedDict[bytes, None] = OrderedDict()

    # ------------------------------------------------------------------
    # The protection wrapper around every data-path access.
    # ------------------------------------------------------------------

    def _open(self, task: "Task") -> None:
        """Open both protected regions for one request: the slab first,
        then the hash table.  In ``mpk_begin`` mode a failure to open
        the second ends the first before the error propagates."""
        mode = self.mode
        if mode == "mpk_begin":
            self._begin(task, self.SLAB_VKEY)
            try:
                self._begin(task, self.HASH_VKEY)
            except MpkError:
                self.lib.mpk_end(task, self.SLAB_VKEY)
                raise
        elif mode == "mpk_mprotect":
            self.lib.mpk_mprotect(task, self.SLAB_VKEY, RW)
            self.lib.mpk_mprotect(task, self.HASH_VKEY, RW)
        elif mode == "mprotect":
            self.kernel.sys_mprotect(task, self._slab_base,
                                     self.slab_bytes, RW)
            self.kernel.sys_mprotect(task, self._hash_base,
                                     self._hash_bytes, RW)

    def _close(self, task: "Task") -> None:
        """Close what :meth:`_open` opened, in reverse order.  Requests
        call it in a ``finally``, so it runs however the access ends."""
        mode = self.mode
        if mode == "mpk_begin":
            self.lib.mpk_end(task, self.HASH_VKEY)
            self.lib.mpk_end(task, self.SLAB_VKEY)
        elif mode == "mpk_mprotect":
            self.lib.mpk_mprotect(task, self.HASH_VKEY, PROT_NONE)
            self.lib.mpk_mprotect(task, self.SLAB_VKEY, PROT_NONE)
        elif mode == "mprotect":
            self.kernel.sys_mprotect(task, self._hash_base,
                                     self._hash_bytes, PROT_NONE)
            self.kernel.sys_mprotect(task, self._slab_base,
                                     self.slab_bytes, PROT_NONE)

    def _begin(self, task: "Task", vkey: int) -> None:
        """Open one protected group: plain ``mpk_begin``, or the
        deadline-bounded ``mpk_begin_wait`` when ``begin_timeout`` is
        set (a timed-out request surfaces ETIMEDOUT to the caller —
        shed one request, never wedge the worker)."""
        if self.begin_timeout is None:
            self.lib.mpk_begin(task, vkey, RW)
        else:
            self.lib.mpk_begin_wait(task, vkey, RW,
                                    timeout=self.begin_timeout)

    # ------------------------------------------------------------------
    # The memcached command set.
    # ------------------------------------------------------------------

    def now_seconds(self) -> int:
        """The store's clock: simulated cycles at the testbed's 2.4 GHz."""
        return int(self.kernel.clock.now / CLOCK_HZ)

    def set(self, task: "Task", key: bytes, value: bytes,
            ttl_seconds: int = 0) -> None:
        """Store an item; ``ttl_seconds`` of 0 means it never expires.

        When the slab class is full, the least-recently-used items are
        evicted to make room, as Memcached does.
        """
        self.kernel.clock.charge(REQUEST_BASE_CYCLES,
                                 site="apps.memcached.request")
        self.stats_requests += 1
        expires_at = (self.now_seconds() + ttl_seconds) if ttl_seconds \
            else 0
        self._open(task)
        try:
            while True:
                try:
                    self.table.assoc_insert(task, key, value,
                                            expires_at=expires_at)
                    break
                except MpkError:
                    self._evict_lru_item(task, exclude=key)
        finally:
            self._close(task)
        self._lru[key] = None
        self._lru.move_to_end(key)

    def get(self, task: "Task", key: bytes) -> bytes | None:
        self.kernel.clock.charge(REQUEST_BASE_CYCLES,
                                 site="apps.memcached.request")
        self.stats_requests += 1
        self._open(task)
        try:
            value = self.table.assoc_find(task, key,
                                          now=self.now_seconds())
        finally:
            self._close(task)
        if value is None:
            self.stats_misses += 1
            self._lru.pop(key, None)
        else:
            self.stats_hits += 1
            self._lru.move_to_end(key)
        return value

    def delete(self, task: "Task", key: bytes) -> bool:
        self.kernel.clock.charge(REQUEST_BASE_CYCLES,
                                 site="apps.memcached.request")
        self.stats_requests += 1
        self._open(task)
        try:
            removed = self.table.assoc_delete(task, key, missing_ok=True)
        finally:
            self._close(task)
        if removed:
            self._lru.pop(key, None)
        return removed

    def _evict_lru_item(self, task: "Task", exclude: bytes) -> None:
        """Free the least-recently-used item (the regions are open)."""
        for candidate in self._lru:
            if candidate != exclude:
                self.table.assoc_delete(task, candidate, missing_ok=True)
                del self._lru[candidate]
                self.stats_evictions += 1
                return
        raise MpkError("slab exhausted and nothing evictable")

    # ------------------------------------------------------------------

    @property
    def item_count(self) -> int:
        return self.table.item_count

    def stats(self) -> dict:
        """The `stats` command: a counters snapshot."""
        return {
            "curr_items": self.table.item_count,
            "cmd_requests": self.stats_requests,
            "get_hits": self.stats_hits,
            "get_misses": self.stats_misses,
            "evictions": self.stats_evictions,
            "expired": self.table.expired_count,
            "slabs_in_use": self.slab.slabs_in_use(),
            "protection_mode": self.mode,
            "limit_maxbytes": self.slab_bytes,
        }
