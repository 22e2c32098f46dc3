"""PKRU across context switches: the per-thread register discipline."""

import pytest

from repro.consts import PAGE_SIZE, PROT_READ, PROT_WRITE
from repro.hw.pkru import KEY_RIGHTS_ALL, KEY_RIGHTS_NONE, PKRU
from repro import Kernel, Libmpk, Machine

RW = PROT_READ | PROT_WRITE


@pytest.fixture
def single_core_kernel():
    return Kernel(Machine(num_cores=1))


class TestPkruContextSwitch:
    def test_tasks_sharing_a_core_keep_their_own_pkru(
            self, single_core_kernel):
        """Two tasks alternate on one core; each sees its own PKRU."""
        kernel = single_core_kernel
        process = kernel.create_process(schedule_main=False)
        a = process.main_task
        b = process.spawn_task()

        kernel.scheduler.schedule(a, core_id=0)
        a.pkey_set(5, KEY_RIGHTS_ALL)
        kernel.scheduler.unschedule(a)

        kernel.scheduler.schedule(b, core_id=0)
        assert b.pkey_get(5) == KEY_RIGHTS_NONE  # b's own default view
        b.pkey_set(7, KEY_RIGHTS_ALL)
        kernel.scheduler.unschedule(b)

        kernel.scheduler.schedule(a, core_id=0)
        assert a.pkey_get(5) == KEY_RIGHTS_ALL   # a's grant survived
        assert a.pkey_get(7) == KEY_RIGHTS_NONE  # b's grant is not a's

    def test_domain_window_survives_descheduling(self,
                                                 single_core_kernel):
        """A thread inside mpk_begin keeps its access after being
        switched out and back in."""
        kernel = single_core_kernel
        process = kernel.create_process(schedule_main=False)
        owner = process.main_task
        other = process.spawn_task()

        kernel.scheduler.schedule(owner, core_id=0)
        lib = Libmpk(process)
        lib.mpk_init(owner)
        addr = lib.mpk_mmap(owner, 100, PAGE_SIZE, RW)
        lib.mpk_begin(owner, 100, RW)
        owner.write(addr, b"before switch")
        kernel.scheduler.unschedule(owner)

        # The other task runs on the same core meanwhile — and has no
        # access, even though the core register held the grant moments
        # ago.
        kernel.scheduler.schedule(other, core_id=0)
        assert other.try_read(addr, 1) is None
        kernel.scheduler.unschedule(other)

        kernel.scheduler.schedule(owner, core_id=0)
        assert owner.read(addr, 13) == b"before switch"
        lib.mpk_end(owner, 100)

    def test_pending_sync_applies_before_first_user_access(
            self, single_core_kernel):
        """A descheduled thread that missed a do_pkey_sync picks up the
        new PKRU at switch-in, before it can touch memory."""
        kernel = single_core_kernel
        process = kernel.create_process(schedule_main=False)
        caller = process.main_task
        sleeper = process.spawn_task()

        kernel.scheduler.schedule(caller, core_id=0)
        lib = Libmpk(process)
        lib.mpk_init(caller)
        addr = lib.mpk_mmap(caller, 100, PAGE_SIZE, RW)
        lib.mpk_mprotect(caller, 100, RW)      # global rw
        lib.mpk_mprotect(caller, 100, PROT_READ)  # revoke writes
        assert sleeper.has_pending_task_work()
        kernel.scheduler.unschedule(caller)

        kernel.scheduler.schedule(sleeper, core_id=0)
        assert not sleeper.has_pending_task_work()
        assert sleeper.read(addr, 1) == b"\x00"
        from repro.errors import PkeyFault
        with pytest.raises(PkeyFault):
            sleeper.write(addr, b"x")

    def test_core_register_mirrors_running_task(self,
                                                single_core_kernel):
        kernel = single_core_kernel
        process = kernel.create_process(schedule_main=False)
        task = process.main_task
        task.pkru = PKRU.allow_all().value
        kernel.scheduler.schedule(task, core_id=0)
        assert kernel.machine.core(0).pkru == PKRU.allow_all().value
