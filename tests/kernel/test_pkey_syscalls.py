"""pkey syscalls: allocation bitmap, faithful use-after-free, costs."""

import pytest

from repro.consts import (
    NUM_PKEYS,
    PAGE_SIZE,
    PKEY_DISABLE_ACCESS,
    PROT_READ,
    PROT_WRITE,
    page_number,
)
from repro.errors import InvalidArgument, NoSpace
from repro.hw.pkru import PKRU
from repro.kernel.pkey import PkeyAllocator

RW = PROT_READ | PROT_WRITE


class TestPkeyAllocator:
    def test_key_zero_reserved(self):
        allocator = PkeyAllocator()
        assert allocator.is_allocated(0)
        with pytest.raises(InvalidArgument):
            allocator.free(0)

    def test_allocates_fifteen_keys(self):
        allocator = PkeyAllocator()
        keys = [allocator.alloc() for _ in range(NUM_PKEYS - 1)]
        assert keys == list(range(1, 16))
        with pytest.raises(NoSpace):
            allocator.alloc()

    def test_free_makes_key_reallocatable(self):
        allocator = PkeyAllocator()
        key = allocator.alloc()
        allocator.free(key)
        assert allocator.alloc() == key

    def test_double_free_rejected(self):
        allocator = PkeyAllocator()
        key = allocator.alloc()
        allocator.free(key)
        with pytest.raises(InvalidArgument):
            allocator.free(key)

    def test_invalid_flags_and_rights(self):
        allocator = PkeyAllocator()
        with pytest.raises(InvalidArgument):
            allocator.alloc(flags=1)
        with pytest.raises(InvalidArgument):
            allocator.alloc(init_rights=0x8)

    def test_execute_only_reservation_is_stable(self):
        allocator = PkeyAllocator()
        key = allocator.reserve_execute_only()
        assert allocator.reserve_execute_only() == key
        with pytest.raises(PermissionError):
            allocator.free(key)


class TestPkeySyscalls:
    def test_alloc_installs_initial_rights(self, kernel, process, task):
        key = kernel.sys_pkey_alloc(task, 0, PKEY_DISABLE_ACCESS)
        assert not PKRU(task.pkru).can_read(key)

    def test_alloc_costs_match_table1(self, kernel, task, measure):
        elapsed = measure(lambda: kernel.sys_pkey_alloc(task), task=task)
        assert elapsed == pytest.approx(186.3)

    def test_free_costs_match_table1(self, kernel, task, measure):
        key = kernel.sys_pkey_alloc(task)
        elapsed = measure(lambda: kernel.sys_pkey_free(task, key),
                          task=task)
        assert elapsed == pytest.approx(137.2)

    def test_pkey_mprotect_requires_allocated_key(self, kernel, task):
        addr = kernel.sys_mmap(task, PAGE_SIZE, RW)
        with pytest.raises(InvalidArgument):
            kernel.sys_pkey_mprotect(task, addr, PAGE_SIZE, RW, 9)

    def test_pkey_mprotect_rejects_key_zero(self, kernel, task):
        addr = kernel.sys_mmap(task, PAGE_SIZE, RW)
        with pytest.raises(InvalidArgument):
            kernel.sys_pkey_mprotect(task, addr, PAGE_SIZE, RW, 0)

    def test_pkey_mprotect_tags_ptes(self, kernel, process, task):
        key = kernel.sys_pkey_alloc(task)
        addr = kernel.sys_mmap(task, 2 * PAGE_SIZE, RW)
        kernel.sys_pkey_mprotect(task, addr, 2 * PAGE_SIZE, RW, key)
        for i in range(2):
            assert process.page_table.lookup(
                page_number(addr) + i).pkey == key

    def test_use_after_free_leaves_stale_ptes(self, kernel, process, task):
        """§3.1: pkey_free does not scrub PTEs; reallocation silently
        adopts the stale pages."""
        key = kernel.sys_pkey_alloc(task)
        addr = kernel.sys_mmap(task, PAGE_SIZE, RW)
        kernel.sys_pkey_mprotect(task, addr, PAGE_SIZE, RW, key)
        kernel.sys_pkey_free(task, key)
        # The PTE still carries the freed key.
        assert process.page_table.lookup(page_number(addr)).pkey == key
        # And the very next alloc hands the same key back.
        assert kernel.sys_pkey_alloc(task) == key
        assert process.page_table.pages_with_pkey(key) == [page_number(addr)]
