"""Invalidation regressions for the syscall-side caches.

The mprotect fast path keeps one host-side cache: the per-process
protect-VMA cache (exact-fit range -> VMA, validated by the VMA tree's
structural version).  Each test here encodes a way it could serve a
stale hit; every one fails against a cache that skips the
corresponding invalidation.  The cache also registers its counters as
an ``obs.audit()`` invariant — the tamper tests prove the audit
actually trips.  The kernel-side PKRU encode keeps no cache; its tests
pin the register values a stale cache would get wrong.
"""

from __future__ import annotations

import pytest

from repro.consts import (
    PAGE_SIZE,
    PKEY_DISABLE_ACCESS,
    PKEY_DISABLE_WRITE,
    PROT_READ,
    PROT_WRITE,
)
from repro.hw.pkru import PKRU, with_key_rights

RW = PROT_READ | PROT_WRITE


class TestProtectVmaCache:
    def test_repeat_protect_hits_cache(self, kernel, task):
        """The table1 shape: mprotect toggles over one exact-fit VMA
        must hit the cache from the second call on."""
        mm = task.process.mm
        addr = kernel.sys_mmap(task, PAGE_SIZE, RW)
        kernel.sys_mprotect(task, addr, PAGE_SIZE, PROT_READ)
        misses_after_first = mm.vma_cache_misses
        for i in range(4):
            kernel.sys_mprotect(task, addr, PAGE_SIZE,
                                RW if i % 2 else PROT_READ)
        assert mm.vma_cache_misses == misses_after_first
        assert mm.vma_cache_hits >= 4
        assert (mm.vma_cache_hits + mm.vma_cache_misses
                == mm.vma_cache_lookups)

    def test_munmap_remap_invalidates(self, kernel, task):
        """munmap + remap at the same address must not reuse the dead
        VMA: the new mapping has different attributes, and a stale hit
        would write protections through a VMA no longer in the tree."""
        mm = task.process.mm
        addr = kernel.sys_mmap(task, PAGE_SIZE, RW)
        kernel.sys_mprotect(task, addr, PAGE_SIZE, PROT_READ)
        stale = mm._protect_cache_vma
        assert stale is not None
        kernel.sys_munmap(task, addr, PAGE_SIZE)
        new_addr = kernel.sys_mmap(task, PAGE_SIZE, RW, addr=addr)
        assert new_addr == addr
        kernel.sys_mprotect(task, addr, PAGE_SIZE, PROT_READ)
        live = mm.vmas.find(addr)
        assert live is not stale
        assert live.prot == PROT_READ
        # The dead VMA kept whatever it had; the protect landed on the
        # live one.
        ok, _ = kernel.machine.obs.audit()
        assert ok, kernel.machine.obs.invariant_failures()

    def test_split_invalidates(self, kernel, task):
        """A sub-range protect splits the cached VMA; the full-range
        entry must not survive the split."""
        mm = task.process.mm
        addr = kernel.sys_mmap(task, 4 * PAGE_SIZE, RW)
        kernel.sys_mprotect(task, addr, 4 * PAGE_SIZE, PROT_READ)
        kernel.sys_mprotect(task, addr + PAGE_SIZE, PAGE_SIZE, RW)
        # Re-protect the original full range: the old single VMA is
        # gone (split into three); a stale hit would update only it.
        kernel.sys_mprotect(task, addr, 4 * PAGE_SIZE, PROT_READ)
        for vma in mm.vmas:
            if vma.start >= addr and vma.end <= addr + 4 * PAGE_SIZE:
                assert vma.prot == PROT_READ
        ok, _ = kernel.machine.obs.audit()
        assert ok, kernel.machine.obs.invariant_failures()

    def test_cache_not_stored_on_multi_vma_range(self, kernel, task):
        """A range spanning several VMAs (or splitting) must not seed
        the cache — only the proven exact-fit single-VMA case may."""
        mm = task.process.mm
        addr = kernel.sys_mmap(task, 4 * PAGE_SIZE, RW)
        kernel.sys_mprotect(task, addr, PAGE_SIZE, PROT_READ)  # splits
        assert mm._protect_cache_key != (addr, addr + 4 * PAGE_SIZE)

    def test_audit_trips_on_corrupt_cache(self, kernel, task):
        """The registered invariant must notice a cache entry pointing
        at a VMA that is no longer what the tree holds for the range."""
        from repro.kernel.vma import VMA
        mm = task.process.mm
        addr = kernel.sys_mmap(task, PAGE_SIZE, RW)
        kernel.sys_mprotect(task, addr, PAGE_SIZE, PROT_READ)
        assert mm._protect_cache_vma is not None
        mm._protect_cache_vma = VMA(addr, addr + PAGE_SIZE, RW)
        ok, _ = kernel.machine.obs.audit()
        assert not ok
        failures = kernel.machine.obs.invariant_failures()
        assert any("mm_protect_cache" in name for name in failures)

    def test_audit_trips_on_counter_leak(self, kernel, task):
        mm = task.process.mm
        addr = kernel.sys_mmap(task, PAGE_SIZE, RW)
        kernel.sys_mprotect(task, addr, PAGE_SIZE, PROT_READ)
        mm.vma_cache_hits += 7
        ok, _ = kernel.machine.obs.audit()
        assert not ok


class TestPkruEncodeMemo:
    """The kernel-side PKRU encode (``set_pkru_rights_from_kernel``)
    keeps no cache: each encode derives from the task's current
    register value, so no write to it can leave a stale result behind.
    The class keeps its name; it pins register values only."""

    def test_repeat_kernel_encodes_hit(self, kernel, task):
        """pkey_alloc's initial-rights install, repeated: the task's
        PKRU and its core's register agree and stay stable."""
        core = kernel.machine.core(task.core_id)
        key = kernel.sys_pkey_alloc(task)
        kernel.sys_pkey_free(task, key)
        stable = task.pkru
        for _ in range(3):
            key = kernel.sys_pkey_alloc(task)
            kernel.sys_pkey_free(task, key)
            assert task.pkru == core.pkru == stable
        assert isinstance(task.pkru, int)

    def test_wrpkru_invalidates(self, kernel, task):
        """A userspace WRPKRU changes the base value: a later kernel
        encode and ``pkey_set`` must build on the new value."""
        key = kernel.sys_pkey_alloc(task)
        task.set_pkru_rights_from_kernel(key, PKEY_DISABLE_WRITE)
        # Direct WRPKRU to a different value (deny the key entirely).
        new = with_key_rights(task.pkru, key,
                              PKEY_DISABLE_ACCESS | PKEY_DISABLE_WRITE)
        task.wrpkru(new)
        assert task.pkru == new
        task.set_pkru_rights_from_kernel(key, PKEY_DISABLE_WRITE)
        assert task.pkru == with_key_rights(new, key, PKEY_DISABLE_WRITE)
        task.pkey_set(key, 0)
        assert PKRU(task.pkru).rights(key) == 0
        assert task.pkru == with_key_rights(new, key, 0)
        assert kernel.machine.core(task.core_id).pkru == task.pkru
        ok, _ = kernel.machine.obs.audit()
        assert ok, kernel.machine.obs.invariant_failures()

    def test_external_pkru_swap_is_caught_lazily(self, kernel, task):
        """The signal-restore / context-switch path replaces
        ``task.pkru`` directly; the next encode must build on the new
        value."""
        key = kernel.sys_pkey_alloc(task)
        task.pkey_set(key, PKEY_DISABLE_WRITE)
        # Swap the base directly (what sigreturn does).
        task.pkru = PKRU.allow_all().value
        task.set_pkru_rights_from_kernel(key, PKEY_DISABLE_ACCESS)
        assert task.pkru == with_key_rights(0, key, PKEY_DISABLE_ACCESS)
        assert kernel.machine.core(task.core_id).pkru == task.pkru
        ok, _ = kernel.machine.obs.audit()
        assert ok, kernel.machine.obs.invariant_failures()

    def test_invalid_rights_never_served_from_cache(self, kernel, task):
        """Bogus rights raise on every call, before and after a valid
        encode of the same key, and leave the register unchanged."""
        key = kernel.sys_pkey_alloc(task)
        task.set_pkru_rights_from_kernel(key, PKEY_DISABLE_WRITE)
        before = task.pkru
        for _ in range(2):
            with pytest.raises(ValueError):
                task.set_pkru_rights_from_kernel(key, 5)
            assert task.pkru == before
        assert kernel.machine.core(task.core_id).pkru == before
