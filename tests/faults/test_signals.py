"""Simulated signal delivery: siginfo, sigreturn, recovery, death."""

import pytest

from repro.consts import PAGE_SIZE, PROT_READ, PROT_WRITE
from repro.errors import PkeyFault, TaskKilled
from repro.faults.signals import (
    SEGV_MAPERR,
    SEGV_PKUERR,
    SIGSEGV,
    Siginfo,
)
from repro.hw.pkru import rights_for_prot, with_key_rights

RW = PROT_READ | PROT_WRITE


@pytest.fixture
def protected(lib, task):
    """A page group the caller has no PKRU rights to."""
    addr = lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
    with lib.domain(task, 100, RW):
        task.write(addr, b"secret")
    return addr


class TestDelivery:
    def test_handler_sees_pkey_siginfo(self, lib, task, protected):
        seen = []

        def handler(t, info):
            seen.append(info)
            return False  # decline: the raw fault propagates

        task.sigaction(SIGSEGV, handler)
        with pytest.raises(PkeyFault):
            task.read(protected, 6)
        assert len(seen) == 1
        info = seen[0]
        assert info.signo == SIGSEGV
        assert info.si_code == SEGV_PKUERR
        assert info.is_pkey_fault
        assert info.si_addr == protected
        assert info.si_pkey == lib.group(100).pkey

    def test_unmapped_address_is_maperr(self, kernel, process, task):
        seen = []
        task.sigaction(SIGSEGV, lambda t, info: seen.append(info))
        with pytest.raises(Exception):
            task.read(0xDEAD_0000, 1)
        assert seen[0].si_code == SEGV_MAPERR

    def test_sigaction_returns_previous_and_unregisters(self, task):
        def first(t, info):
            return False

        assert task.sigaction(SIGSEGV, first) is None
        assert task.sigaction(SIGSEGV, None) is first
        assert not task.signals_enabled

    def test_delivery_costs_cycles(self, kernel, lib, task, protected):
        task.sigaction(SIGSEGV, lambda t, info: False)
        before = kernel.clock.snapshot()
        with pytest.raises(PkeyFault):
            task.read(protected, 1)
        spent = kernel.clock.snapshot() - before
        assert spent >= (kernel.costs.signal_deliver
                         + kernel.costs.sigreturn)
        ok, delta = kernel.machine.obs.audit()
        assert ok, delta


class TestSigreturn:
    def test_handler_wrpkru_is_lost_at_sigreturn(self, lib, task,
                                                 protected):
        """Like Linux >= 4.9: the sigframe PKRU wins over handler
        WRPKRUs, so a handler cannot leak itself rights."""
        pkey = lib.group(100).pkey

        def handler(t, info):
            t.pkey_set(pkey, rights_for_prot(RW))  # futile
            return False

        task.sigaction(SIGSEGV, handler)
        before = task.pkru
        with pytest.raises(PkeyFault):
            task.read(protected, 1)
        assert task.pkru == before
        assert task.try_read(protected, 1) is None

    def test_saved_pkru_edit_enables_retry(self, lib, task, protected):
        """The sigcontext-patch recovery pattern: edit the sigframe's
        PKRU and return truthy — the access retries and succeeds."""
        pkey = lib.group(100).pkey

        def handler(t, info):
            info.saved_pkru = with_key_rights(
                info.saved_pkru, pkey, rights_for_prot(PROT_READ))
            return True

        task.sigaction(SIGSEGV, handler)
        assert task.read(protected, 6) == b"secret"

    def test_lying_handler_gives_up_after_retries(self, lib, task,
                                                  protected):
        calls = []

        def handler(t, info):
            calls.append(info)
            return True  # claims success, fixes nothing

        task.sigaction(SIGSEGV, handler)
        for access in (lambda: task.read(protected, 1),
                       lambda: task.write(protected, b"x")):
            calls.clear()
            with pytest.raises(PkeyFault):
                access()
            assert len(calls) == task._SIGNAL_RETRIES

    def test_handler_raise_unwinds_past_the_access(self, lib, task,
                                                   protected):
        """The siglongjmp pattern: raising from the handler aborts the
        faulting operation; PKRU is still restored."""

        class Abort(Exception):
            pass

        def handler(t, info):
            raise Abort

        task.sigaction(SIGSEGV, handler)
        before = task.pkru
        with pytest.raises(Abort):
            task.read(protected, 1)
        assert task.pkru == before

    @pytest.mark.parametrize("bad", [1 << 32, -1, None])
    def test_out_of_range_saved_pkru_is_rejected(self, kernel, lib, task,
                                                  protected, bad):
        """A handler that stores something other than a 32-bit value
        in the sigframe: sigreturn raises ``ValueError`` and the task
        resumes with the PKRU it was delivered with, even after a
        handler WRPKRU."""
        pkey = lib.group(100).pkey

        def handler(t, info):
            t.pkey_set(pkey, rights_for_prot(RW))
            info.saved_pkru = bad
            return True

        task.sigaction(SIGSEGV, handler)
        before = task.pkru
        with pytest.raises(ValueError, match="sigreturn"):
            task.read(protected, 1)
        assert task.pkru == before
        assert kernel.machine.core(task.core_id).pkru == before
        ok, delta = kernel.machine.obs.audit()
        assert ok, delta


class TestKill:
    def test_unhandled_signal_kills_task_not_process(self, kernel,
                                                     process, lib,
                                                     protected):
        worker = process.spawn_task()
        kernel.scheduler.schedule(worker, charge=False)
        worker.enable_signals()
        with pytest.raises(TaskKilled) as exc_info:
            worker.read(protected, 1)
        assert worker.state == "dead"
        assert worker.exit_signal.si_code == SEGV_PKUERR
        assert exc_info.value.tid == worker.tid
        # The process and its main task keep working.
        assert process.main_task.state == "running"
        assert process.main_task in process.live_tasks()

    def test_nested_fault_in_handler_kills(self, kernel, process, lib,
                                           task, protected):
        worker = process.spawn_task()
        kernel.scheduler.schedule(worker, charge=False)

        def handler(t, info):
            t.read(protected, 1)  # faults again, inside the handler

        worker.sigaction(SIGSEGV, handler)
        with pytest.raises(TaskKilled) as exc_info:
            worker.read(protected, 1)
        assert "nested" in str(exc_info.value)
        assert worker.state == "dead"

    def test_death_unpins_open_domains(self, kernel, process, lib,
                                       task, protected):
        """libmpk's death hook: a killed thread's mpk_begin pins drop,
        so its keys become evictable and the metadata stays honest."""
        other = lib.mpk_mmap(task, 200, PAGE_SIZE, RW)
        del other
        worker = process.spawn_task()
        kernel.scheduler.schedule(worker, charge=False)
        worker.enable_signals()
        lib.mpk_begin(worker, 200, RW)
        assert lib.group(200).pinned
        with pytest.raises(TaskKilled):
            worker.read(protected, 1)
        assert not lib.group(200).pinned
        report = lib.audit()
        assert report.ok, str(report)


class TestSignalTask:
    def test_cross_thread_signal_runs_handler(self, kernel, process):
        target = process.spawn_task()
        kernel.scheduler.schedule(target, charge=False)
        seen = []
        target.sigaction(SIGSEGV, lambda t, info: seen.append(info))
        kernel.signal_task(target, Siginfo(signo=SIGSEGV,
                                           si_code=SEGV_MAPERR,
                                           si_addr=0x1000))
        assert len(seen) == 1
        assert seen[0].si_addr == 0x1000

    def test_cross_thread_signal_without_handler_kills(self, kernel,
                                                       process):
        target = process.spawn_task()
        kernel.scheduler.schedule(target, charge=False)
        kernel.signal_task(target, Siginfo(signo=SIGSEGV,
                                           si_code=SEGV_MAPERR))
        assert target.state == "dead"
        assert process.main_task.state == "running"


class TestLegacyFaultHandler:
    def test_set_fault_handler_takes_priority(self, lib, task,
                                              protected):
        """The pre-signal lazy-unlock hook still works and runs before
        signal delivery."""
        def fixer(t, fault):
            lib.mpk_begin(t, 100, PROT_READ)
            return True

        sig_calls = []
        task.set_fault_handler(fixer)
        task.sigaction(SIGSEGV, lambda t, info: sig_calls.append(info))
        assert task.read(protected, 6) == b"secret"
        assert sig_calls == []
        lib.mpk_end(task, 100)
