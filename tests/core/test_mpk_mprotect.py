"""mpk_mprotect: global semantics, eviction-rate policy, exec-only."""

from contextlib import suppress

import pytest

from repro.consts import (
    PAGE_SIZE,
    PROT_EXEC,
    PROT_NONE,
    PROT_READ,
    PROT_WRITE,
)
from repro.errors import MachineFault, PkeyFault, SegmentationFault
from repro import Libmpk

RW = PROT_READ | PROT_WRITE
G = 100


class TestGlobalSemantics:
    def test_grants_access_to_all_threads(self, lib, kernel, process, task):
        sibling = process.spawn_task()
        kernel.scheduler.schedule(sibling, charge=False)
        addr = lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, RW)
        task.write(addr, b"shared")
        assert sibling.read(addr, 6) == b"shared"

    def test_revocation_reaches_running_siblings_immediately(
            self, lib, kernel, process, task):
        """The mprotect-semantics guarantee: when mpk_mprotect returns,
        no thread retains the old permission (§4.4)."""
        sibling = process.spawn_task()
        kernel.scheduler.schedule(sibling, charge=False)
        addr = lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, RW)
        sibling.write(addr, b"ok")
        lib.mpk_mprotect(task, G, PROT_READ)
        assert sibling.read(addr, 2) == b"ok"
        with pytest.raises(PkeyFault):
            sibling.write(addr, b"no")

    def test_revocation_reaches_sleeping_threads_via_task_work(
            self, lib, kernel, process, task):
        sleeper = process.spawn_task()
        addr = lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, RW)
        lib.mpk_mprotect(task, G, PROT_READ)
        assert sleeper.has_pending_task_work()
        kernel.scheduler.schedule(sleeper, charge=False)
        with pytest.raises(PkeyFault):
            sleeper.write(addr, b"no")

    def test_prot_none_blocks_everyone(self, lib, kernel, process, task):
        sibling = process.spawn_task()
        kernel.scheduler.schedule(sibling, charge=False)
        addr = lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, RW)
        lib.mpk_mprotect(task, G, PROT_NONE)
        assert task.try_read(addr, 1) is None
        assert sibling.try_read(addr, 1) is None

    def test_widening_permission_later(self, lib, task):
        addr = lib.mpk_mmap(task, G, PAGE_SIZE, PROT_READ)
        lib.mpk_mprotect(task, G, PROT_READ)
        with pytest.raises(MachineFault):
            task.write(addr, b"x")
        lib.mpk_mprotect(task, G, RW)
        task.write(addr, b"x")


class TestHitMissCosts:
    def test_hit_is_an_order_of_magnitude_cheaper_than_mprotect(
            self, lib, kernel, task, measure):
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, RW)  # load
        hit = measure(lambda: lib.mpk_mprotect(task, G, PROT_READ),
                      task=task)
        assert 1094.0 / hit == pytest.approx(12.2, abs=0.2)

    def test_hit_cost_is_independent_of_group_size(self, lib, kernel,
                                                   task, measure):
        lib.mpk_mmap(task, G, 1000 * PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, RW)
        big = measure(lambda: lib.mpk_mprotect(task, G, PROT_READ),
                      task=task)
        lib.mpk_mmap(task, G + 1, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G + 1, RW)
        small = measure(lambda: lib.mpk_mprotect(task, G + 1, PROT_READ),
                        task=task)
        assert big == pytest.approx(small)

    def test_miss_with_eviction_costs_two_range_updates(
            self, lib, kernel, task, measure):
        """Figure 6b: unset the evicted key, bind the new one."""
        for i in range(15):
            lib.mpk_mmap(task, 200 + i, PAGE_SIZE, RW)
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)  # uncached (keys exhausted)
        miss = measure(lambda: lib.mpk_mprotect(task, G, RW), task=task)
        hit = measure(lambda: lib.mpk_mprotect(task, G, PROT_READ),
                      task=task)
        assert miss > 2 * 1000  # two pkey_mprotect-scale operations
        assert miss > 10 * hit


class TestEvictionRate:
    def _exhaust_keys(self, lib, task):
        for i in range(15):
            lib.mpk_mmap(task, 200 + i, PAGE_SIZE, RW)
            lib.mpk_mprotect(task, 200 + i, RW)

    def test_zero_rate_always_falls_back_to_mprotect(self, kernel,
                                                     process, task):
        lib = Libmpk(process)
        lib.mpk_init(task, evict_rate=0.0)
        self._exhaust_keys(lib, task)
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, RW)
        assert not lib.group(G).cached          # fell back
        assert lib.cache.stats_fallbacks >= 1
        addr = lib.group(G).base
        task.write(addr, b"works via page bits")

    def test_half_rate_alternates(self, kernel, process, task):
        lib = Libmpk(process)
        lib.mpk_init(task, evict_rate=0.5)
        self._exhaust_keys(lib, task)
        outcomes = []
        for i in range(6):
            vkey = 500 + i
            lib.mpk_mmap(task, vkey, PAGE_SIZE, RW)
            lib.mpk_mprotect(task, vkey, RW)
            outcomes.append(lib.group(vkey).cached)
        assert outcomes.count(True) == 3
        assert outcomes.count(False) == 3

    def test_full_rate_always_evicts(self, lib, task):
        self._exhaust_keys(lib, task)
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, RW)
        assert lib.group(G).cached
        assert lib.cache.stats_fallbacks == 0

    def test_fallback_preserves_global_semantics(self, kernel, process,
                                                 task):
        """Even when enforcement falls back to page bits, all threads
        see the same permission — that's the point of mprotect."""
        lib = Libmpk(process)
        lib.mpk_init(task, evict_rate=0.0)
        sibling = process.spawn_task()
        kernel.scheduler.schedule(sibling, charge=False)
        self._exhaust_keys(lib, task)
        addr = lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, RW)
        sibling.write(addr, b"ok")
        lib.mpk_mprotect(task, G, PROT_READ)
        with pytest.raises(SegmentationFault):
            sibling.write(addr, b"no")


class TestEvictedGlobalGroups:
    def test_evicted_global_group_keeps_its_permission(self, lib, task):
        """Evicting an mpk_mprotect-managed group moves enforcement to
        page bits without changing the effective permission (§4.2)."""
        addr = lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, PROT_READ)
        # Force eviction of G by cycling 15 other groups.
        for i in range(15):
            lib.mpk_mmap(task, 200 + i, PAGE_SIZE, RW)
            lib.mpk_mprotect(task, 200 + i, RW)
        assert not lib.group(G).cached
        assert task.read(addr, 1) == b"\x00"       # still readable
        with pytest.raises(SegmentationFault):
            task.write(addr, b"x")                  # still not writable


class TestExecOnlyGroups:
    def test_exec_only_group_uses_reserved_key(self, lib, task):
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, PROT_EXEC)
        assert lib.exec_only_pkey is not None
        assert lib.group(G).pkey == lib.exec_only_pkey
        assert lib.group(G).exec_only

    def test_exec_only_blocks_reads_allows_fetch(self, lib, task):
        addr = lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, RW)
        task.write(addr, b"\xc3")
        lib.mpk_mprotect(task, G, PROT_EXEC)
        with pytest.raises(PkeyFault):
            task.read(addr, 1)
        assert task.fetch(addr, 1) == b"\xc3"

    def test_exec_only_blocks_sibling_reads_too(self, lib, kernel,
                                                process, task):
        """Unlike raw kernel execute-only memory, libmpk synchronizes
        the denial to every thread (fixing the §3.3 hole)."""
        sibling = process.spawn_task()
        kernel.scheduler.schedule(sibling, charge=False)
        addr = lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, PROT_EXEC)
        assert sibling.try_read(addr, 1) is None
        assert sibling.fetch(addr, 1) == b"\x00"

    def test_multiple_exec_only_groups_share_the_reserved_key(self, lib,
                                                              task):
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mmap(task, G + 1, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, PROT_EXEC)
        lib.mpk_mprotect(task, G + 1, PROT_EXEC)
        assert lib.group(G).pkey == lib.group(G + 1).pkey

    def test_reserved_key_survives_pressure(self, lib, task):
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, PROT_EXEC)
        xo = lib.exec_only_pkey
        for i in range(20):  # heavy churn on the remaining keys
            lib.mpk_mmap(task, 300 + i, PAGE_SIZE, RW)
            lib.mpk_mprotect(task, 300 + i, RW)
        assert lib.group(G).pkey == xo
        assert lib.group(G).exec_only

    def test_reserved_key_released_when_last_exec_group_leaves(self, lib,
                                                               task):
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, PROT_EXEC)
        assert lib.exec_only_pkey is not None
        lib.mpk_mprotect(task, G, RW)
        assert lib.exec_only_pkey is None
        assert not lib.group(G).exec_only

    def test_leaving_exec_only_scrubs_the_reserved_key_from_ptes(
            self, lib, kernel, process, task):
        """A future exec-only group reusing the reserved key must not
        silently adopt pages that left the exec-only state earlier."""
        from repro.consts import page_number
        addr = lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, PROT_EXEC)
        old_xo = lib.exec_only_pkey
        lib.mpk_mprotect(task, G, RW)           # leave exec-only
        entry = process.page_table.lookup(page_number(addr))
        assert entry.pkey != old_xo              # scrubbed
        task.write(addr, b"normal data again")
        # A brand-new exec-only group must not affect G's pages.
        lib.mpk_mmap(task, G + 1, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G + 1, PROT_EXEC)
        assert task.read(addr, 6) == b"normal"   # unaffected

    def test_begin_on_exec_only_group_is_rejected(self, lib, task):
        from repro.errors import MpkError
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, G, PROT_EXEC)
        with pytest.raises(MpkError):
            lib.mpk_begin(task, G, RW)


class TestExecOnlyRespectsPins:
    """§4.2: a key pinned by another thread's mpk_begin cannot be taken
    away, so mpk_mprotect(PROT_EXEC) refuses a pinned group (as
    mpk_munmap and mpk_disown do) before any exec-only work: the only
    charge is the cache lookup every mpk_mprotect pays."""

    def _pinned(self, lib, kernel, process, task):
        other = process.spawn_task()
        kernel.scheduler.schedule(other, charge=False)
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_begin(task, G, RW)
        return other

    def test_exec_only_on_pinned_group_is_refused(self, lib, kernel,
                                                  process, task):
        from repro.errors import MpkError
        other = self._pinned(lib, kernel, process, task)
        pkey = lib.group(G).pkey
        before = kernel.clock.now
        with pytest.raises(MpkError, match="pinned"):
            lib.mpk_mprotect(other, G, PROT_EXEC)
        assert kernel.clock.now - before == kernel.costs.mpk_cache_lookup
        assert lib.group(G).pkey == pkey
        assert not lib.group(G).exec_only
        assert lib.exec_only_pkey is None

    def test_begin_exec_end_keeps_the_record(self, lib, kernel, process,
                                             task):
        """A.begin, B.mprotect(EXEC), A.end: mpk_end used to rewrite the
        record of the group B had made exec-only with the flag clear."""
        from repro.errors import MpkError
        other = self._pinned(lib, kernel, process, task)
        with suppress(MpkError):
            lib.mpk_mprotect(other, G, PROT_EXEC)
        lib.mpk_end(task, G)
        assert lib.audit().ok, lib.audit().violations

    def test_begin_exec_read_end_keeps_a_key(self, lib, kernel, process,
                                             task):
        """A.begin, B.mprotect(EXEC), A.mprotect(READ), A.end: leaving
        exec-only dropped the pinned group's key, and mpk_end then
        passed pkey None to the WRPKRU (TypeError)."""
        from repro.errors import MpkError
        other = self._pinned(lib, kernel, process, task)
        with suppress(MpkError):
            lib.mpk_mprotect(other, G, PROT_EXEC)
        lib.mpk_mprotect(task, G, PROT_READ)
        lib.mpk_end(task, G)
        assert lib.audit().ok, lib.audit().violations
