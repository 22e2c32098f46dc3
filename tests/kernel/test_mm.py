"""MM mechanics: mmap/munmap/protect over VMAs and PTEs."""

import pytest

from repro.consts import (
    DEFAULT_PKEY,
    PAGE_SIZE,
    PROT_EXEC,
    PROT_NONE,
    PROT_READ,
    PROT_WRITE,
    page_number,
)
from repro.errors import InvalidArgument, OutOfMemory
from repro.hw.machine import Machine
from repro.kernel.mm import MM

RW = PROT_READ | PROT_WRITE


@pytest.fixture
def mm():
    return MM(Machine(num_cores=1))


class TestMmap:
    def test_maps_requested_pages(self, mm):
        addr, stats = mm.mmap(3 * PAGE_SIZE, RW)
        assert stats.pages_mapped == 3
        for i in range(3):
            # Demand paging: lookup triggers the minor fault that
            # installs the PTE from the VMA's attributes.
            entry = mm.page_table.lookup(page_number(addr) + i)
            assert entry is not None
            assert entry.prot == RW
            assert entry.pkey == DEFAULT_PKEY

    def test_mmap_allocates_no_frames_until_touched(self, mm):
        mm.mmap(100 * PAGE_SIZE, RW)
        assert mm.machine.memory.allocated_frames == 0
        assert mm.total_mapped_pages() == 100
        assert mm.populated_pages() == 0

    def test_first_touch_takes_a_minor_fault(self, mm):
        addr, _ = mm.mmap(2 * PAGE_SIZE, RW)
        assert mm.minor_faults == 0
        mm.page_table.lookup(page_number(addr))
        assert mm.minor_faults == 1
        assert mm.populated_pages() == 1
        # Re-access does not fault again.
        mm.page_table.lookup(page_number(addr))
        assert mm.minor_faults == 1

    def test_populate_faults_in_whole_range(self, mm):
        addr, _ = mm.mmap(8 * PAGE_SIZE, RW)
        assert mm.populate(addr, 8 * PAGE_SIZE) == 8
        assert mm.populated_pages() == 8
        # Idempotent.
        assert mm.populate(addr, 8 * PAGE_SIZE) == 0

    def test_length_rounds_up_to_pages(self, mm):
        addr, stats = mm.mmap(100, RW)
        assert stats.pages_mapped == 1

    def test_distinct_calls_get_distinct_ranges(self, mm):
        a, _ = mm.mmap(PAGE_SIZE, RW)
        b, _ = mm.mmap(PAGE_SIZE, RW)
        assert a != b
        assert abs(a - b) >= PAGE_SIZE

    def test_zero_length_rejected(self, mm):
        with pytest.raises(InvalidArgument):
            mm.mmap(0, RW)

    def test_overcommit_oom_surfaces_at_fault_time(self):
        """Linux-style overcommit: huge mmaps succeed; the OOM bill
        arrives when touch exceeds physical memory."""
        machine = Machine(num_cores=1, memory_bytes=2 * PAGE_SIZE)
        mm = MM(machine)
        addr, _ = mm.mmap(3 * PAGE_SIZE, RW)  # succeeds (overcommit)
        mm.page_table.lookup(page_number(addr))
        mm.page_table.lookup(page_number(addr) + 1)
        with pytest.raises(OutOfMemory):
            mm.page_table.lookup(page_number(addr) + 2)

    def test_fixed_address_hint(self, mm):
        addr, _ = mm.mmap(PAGE_SIZE, RW, addr=0x7000_0000_0000)
        assert addr == 0x7000_0000_0000


class TestMunmap:
    def test_unmaps_and_frees_frames(self, mm):
        machine = mm.machine
        addr, _ = mm.mmap(2 * PAGE_SIZE, RW)
        mm.populate(addr, 2 * PAGE_SIZE)
        before = machine.memory.allocated_frames
        stats = mm.munmap(addr, 2 * PAGE_SIZE)
        assert stats.pages_unmapped == 2
        assert stats.frames_freed == 2
        assert machine.memory.allocated_frames == before - 2
        assert mm.page_table.lookup(page_number(addr)) is None

    def test_partial_unmap_splits_vma(self, mm):
        addr, _ = mm.mmap(4 * PAGE_SIZE, RW)
        stats = mm.munmap(addr + PAGE_SIZE, 2 * PAGE_SIZE)
        assert stats.pages_unmapped == 2
        assert stats.splits == 2
        assert mm.page_table.lookup(page_number(addr)) is not None
        assert mm.page_table.lookup(page_number(addr) + 3) is not None
        assert mm.page_table.lookup(page_number(addr) + 1) is None

    def test_misaligned_address_rejected(self, mm):
        with pytest.raises(InvalidArgument):
            mm.munmap(123, PAGE_SIZE)


class TestProtect:
    def test_changes_vma_and_ptes(self, mm):
        addr, _ = mm.mmap(2 * PAGE_SIZE, RW)
        stats = mm.protect(addr, 2 * PAGE_SIZE, PROT_READ)
        assert stats.pages_updated == 2
        assert stats.vmas_found == 1
        assert stats.splits == 0
        assert mm.vmas.find(addr).prot == PROT_READ
        assert mm.page_table.lookup(page_number(addr)).prot == PROT_READ

    def test_interior_range_splits_twice(self, mm):
        addr, _ = mm.mmap(4 * PAGE_SIZE, RW)
        stats = mm.protect(addr + PAGE_SIZE, 2 * PAGE_SIZE, PROT_READ)
        assert stats.splits == 2
        assert mm.vmas.find(addr).prot == RW
        assert mm.vmas.find(addr + PAGE_SIZE).prot == PROT_READ
        assert mm.vmas.find(addr + 3 * PAGE_SIZE).prot == RW

    def test_restoring_prot_merges_vmas_back(self, mm):
        addr, _ = mm.mmap(4 * PAGE_SIZE, RW)
        mm.protect(addr + PAGE_SIZE, 2 * PAGE_SIZE, PROT_READ)
        assert len(mm.vmas) == 3
        stats = mm.protect(addr + PAGE_SIZE, 2 * PAGE_SIZE, RW)
        assert stats.merges == 2
        assert len(mm.vmas) == 1

    def test_sets_pkey_when_given(self, mm):
        addr, _ = mm.mmap(PAGE_SIZE, RW)
        mm.protect(addr, PAGE_SIZE, PROT_READ, pkey=7)
        entry = mm.page_table.lookup(page_number(addr))
        assert entry.pkey == 7
        assert mm.vmas.find(addr).pkey == 7

    def test_plain_protect_preserves_pkey(self, mm):
        addr, _ = mm.mmap(PAGE_SIZE, RW)
        mm.protect(addr, PAGE_SIZE, PROT_READ, pkey=7)
        mm.protect(addr, PAGE_SIZE, RW)
        assert mm.page_table.lookup(page_number(addr)).pkey == 7

    def test_pte_prot_override_for_execute_only(self, mm):
        addr, _ = mm.mmap(PAGE_SIZE, RW)
        mm.protect(addr, PAGE_SIZE, PROT_EXEC, pkey=5,
                   pte_prot=PROT_READ | PROT_EXEC)
        assert mm.vmas.find(addr).prot == PROT_EXEC
        entry = mm.page_table.lookup(page_number(addr))
        assert entry.prot == PROT_READ | PROT_EXEC
        assert entry.pkey == 5

    def test_hole_in_range_raises_enomem(self, mm):
        a, _ = mm.mmap(PAGE_SIZE, RW)
        mm.munmap(a, PAGE_SIZE)
        with pytest.raises(OutOfMemory):
            mm.protect(a, PAGE_SIZE, PROT_READ)

    def test_unmapped_tail_raises_enomem(self, mm):
        addr, _ = mm.mmap(PAGE_SIZE, RW)
        with pytest.raises(OutOfMemory):
            mm.protect(addr, 2 * PAGE_SIZE, PROT_READ)

    def test_spans_multiple_vmas(self, mm):
        # Adjacent mappings with different prot so they never merge.
        a, _ = mm.mmap(PAGE_SIZE, RW)
        b, _ = mm.mmap(PAGE_SIZE, PROT_READ, addr=a + PAGE_SIZE)
        stats = mm.protect(a, 2 * PAGE_SIZE, PROT_NONE)
        assert stats.vmas_found == 2
        assert stats.pages_updated == 2

    def test_sparse_mappings_are_separate_vmas(self, mm):
        """The Figure 3 setup: per-page mmap calls leave per-page VMAs
        (no merging because they are not adjacent)."""
        addrs = []
        base = 0x7100_0000_0000
        for i in range(10):
            addr, _ = mm.mmap(PAGE_SIZE, RW, addr=base + 2 * i * PAGE_SIZE)
            addrs.append(addr)
        assert len(mm.vmas) == 10


class TestProtectStatsContract:
    """``pages_updated`` is the range's page count; ``vpns`` lists the
    resident pages whose PTEs were rewritten."""

    def test_per_page_path_populates_vpns(self, mm):
        addr, _ = mm.mmap(4 * PAGE_SIZE, RW)
        mm.populate(addr, 4 * PAGE_SIZE)
        stats = mm.protect(addr, 4 * PAGE_SIZE, PROT_READ)
        assert stats.vpns == [page_number(addr) + i for i in range(4)]
        assert stats.pages_updated == 4

    def test_empty_resident_set_is_still_populated_flag_true(self, mm):
        """An untouched range has no resident pages: ``vpns`` is
        genuinely empty (every path enumerates), while
        ``pages_updated`` still counts the range."""
        addr, _ = mm.mmap(2 * PAGE_SIZE, RW)  # demand-paged, untouched
        stats = mm.protect(addr, 2 * PAGE_SIZE, PROT_READ)
        assert stats.vpns == []
        assert stats.pages_updated == 2


class TestLargePkeyMprotect:
    """A pkey_mprotect over 512 pages with a few resident pages and a
    running sibling: the resident PTEs carry the new attributes, the
    PTE cost is per range page, and every targeted core full-flushes
    (512 INVLPGs cost more than one full flush)."""

    PAGES = 512
    RESIDENT = (0, 7, 300, 511)

    def test_rewrites_resident_ptes_and_full_flushes(self, kernel, process,
                                                     task):
        sibling = process.spawn_task()
        kernel.scheduler.schedule(sibling, charge=False)
        addr = kernel.sys_mmap(task, self.PAGES * PAGE_SIZE, RW)
        for i in self.RESIDENT:
            task.write(addr + i * PAGE_SIZE, b"x")
            sibling.read(addr + i * PAGE_SIZE, 1)  # warm both TLBs
        pkey = kernel.sys_pkey_alloc(task)
        clock, costs = kernel.clock, kernel.costs
        pte, flush_full, flush_page = (
            clock.site("kernel.mprotect.pte_update"),
            clock.site("hw.tlb.flush_full"),
            clock.site("hw.tlb.flush_page"))
        targets = [kernel.machine.core(t.core_id).tlb
                   for t in (task, sibling)]
        before = (pte.cycles, flush_full.count, flush_page.count,
                  [tlb.stats.full_flushes for tlb in targets])

        kernel.sys_pkey_mprotect(task, addr, self.PAGES * PAGE_SIZE,
                                 PROT_READ, pkey)

        table = process.mm.page_table
        first = page_number(addr)
        for i in self.RESIDENT:
            entry = table.lookup_populated(first + i)
            assert (entry.prot, entry.pkey) == (PROT_READ, pkey)
        assert table.lookup_populated(first + 1) is None
        assert pte.cycles - before[0] == self.PAGES * costs.pte_update
        assert flush_full.count - before[1] == len(targets)
        assert flush_page.count == before[2]
        assert [tlb.stats.full_flushes for tlb in targets] == [
            n + 1 for n in before[3]]
        assert all(len(tlb) == 0 for tlb in targets)
