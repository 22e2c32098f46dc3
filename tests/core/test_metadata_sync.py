"""Metadata protection (§4.3) and do_pkey_sync (§4.4)."""

import pytest

from repro.consts import PAGE_SIZE, PROT_READ, PROT_WRITE
from repro.core.metadata import RECORD_SIZE
from repro.core.sync import do_pkey_sync
from repro.errors import MpkMetadataTampering, SegmentationFault
from repro.hw.pkru import KEY_RIGHTS_NONE, KEY_RIGHTS_READ, PKRU
from repro import Libmpk

RW = PROT_READ | PROT_WRITE
G = 100


class TestMetadataRegion:
    def test_user_mapping_is_read_only(self, lib, task):
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        addr = lib.metadata.record_user_addr(G)
        assert addr is not None
        # Reading through the user mapping works...
        assert task.read(addr, RECORD_SIZE)
        # ...but an arbitrary-write attacker faults.
        with pytest.raises(SegmentationFault):
            task.write(addr, b"\xff" * RECORD_SIZE)

    def test_kernel_writes_are_user_visible(self, lib, task):
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        record = lib.metadata.user_read_record(task, G)
        assert record is not None
        vkey, pkey, pinned, flags = record
        assert vkey == G
        assert pkey == lib.group(G).pkey
        assert pinned == 0

    def test_records_track_pin_counts(self, lib, task):
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_begin(task, G, RW)
        assert lib.metadata.user_read_record(task, G)[2] == 1
        lib.mpk_end(task, G)
        assert lib.metadata.user_read_record(task, G)[2] == 0

    def test_removed_records_disappear(self, lib, task):
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        lib.mpk_munmap(task, G)
        assert lib.metadata.user_read_record(task, G) is None

    def test_region_starts_at_32kb(self, lib):
        assert lib.metadata.capacity_bytes == 32 * 1024

    def test_region_expands_beyond_2048_groups(self, lib, task):
        """32 KB / 16 B = 2048 records before the first expansion."""
        for i in range(lib.metadata.capacity_records + 1):
            lib.mpk_mmap(task, 1000 + i, PAGE_SIZE, RW)
        assert lib.metadata.expansions >= 1
        # Records in the expansion region still resolve.
        assert lib.metadata.user_read_record(
            task, 1000 + 2048)[0] == 1000 + 2048

    def test_memory_overhead_accounting(self, lib, task):
        base = lib.memory_overhead_bytes()
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        assert lib.memory_overhead_bytes() == base + 32


class TestCallSiteVerification:
    def test_static_vkeys_enforced(self, kernel, process, task):
        lib = Libmpk(process)
        lib.mpk_init(task, static_vkeys=[G])
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        with pytest.raises(MpkMetadataTampering):
            lib.mpk_mmap(task, 999, PAGE_SIZE, RW)

    def test_corrupted_vkey_argument_is_rejected(self, kernel, process,
                                                 task):
        """An attacker who corrupts an in-memory vkey variable cannot
        redirect a call site to a different group."""
        lib = Libmpk(process)
        lib.mpk_init(task, static_vkeys=[G, G + 1])
        lib.mpk_mmap(task, G, PAGE_SIZE, RW)
        corrupted_vkey = 0x41414141
        with pytest.raises(MpkMetadataTampering):
            lib.mpk_begin(task, corrupted_vkey, RW)

    def test_no_registry_means_no_enforcement(self, lib, task):
        lib.mpk_mmap(task, 12345, PAGE_SIZE, RW)  # arbitrary vkey fine


class TestDoPkeySync:
    def test_no_siblings_costs_nothing(self, kernel, process, task):
        before = kernel.clock.now
        assert do_pkey_sync(kernel, task, 3, KEY_RIGHTS_NONE) == 0
        assert kernel.clock.now == before

    def test_updates_every_sibling(self, kernel, process, task):
        running = process.spawn_task()
        kernel.scheduler.schedule(running, charge=False)
        sleeping = process.spawn_task()
        count = do_pkey_sync(kernel, task, 3, KEY_RIGHTS_READ)
        assert count == 2
        assert PKRU(running.pkru).rights(3) == KEY_RIGHTS_READ  # IPI'd now
        assert sleeping.has_pending_task_work()            # lazy
        kernel.scheduler.schedule(sleeping, charge=False)
        assert PKRU(sleeping.pkru).rights(3) == KEY_RIGHTS_READ

    def test_cost_scales_with_running_siblings(self, kernel, process,
                                               task, measure):
        costs = kernel.costs
        for _ in range(3):
            kernel.scheduler.schedule(process.spawn_task(), charge=False)
        elapsed = measure(
            lambda: do_pkey_sync(kernel, task, 3, KEY_RIGHTS_NONE))
        expected = (costs.syscall_overhead()
                    + 3 * (costs.task_work_add + costs.resched_ipi
                           + costs.resched_ack_wait + costs.task_work_run))
        assert elapsed == pytest.approx(expected)

    def test_sleeping_siblings_skip_the_ipi(self, kernel, process, task,
                                            measure):
        costs = kernel.costs
        process.spawn_task()  # never scheduled
        elapsed = measure(
            lambda: do_pkey_sync(kernel, task, 3, KEY_RIGHTS_NONE))
        expected = costs.syscall_overhead() + costs.task_work_add
        assert elapsed == pytest.approx(expected)

    def test_other_processes_are_untouched(self, kernel, process, task):
        other = kernel.create_process()
        before = other.main_task.pkru
        do_pkey_sync(kernel, task, 3, KEY_RIGHTS_READ)
        assert other.main_task.pkru == before
