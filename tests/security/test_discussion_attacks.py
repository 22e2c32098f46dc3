"""§7 discussion attacks: Meltdown against MPK, WRPKRU hijacking."""

import pytest

from repro.consts import PAGE_SIZE, PROT_NONE, PROT_READ, PROT_WRITE
from repro.errors import SandboxViolation
from repro import Kernel, Libmpk, Machine
from repro.hw.pkru import KEY_RIGHTS_ALL
from repro.security import (
    install_wrpkru_sandbox,
    meltdown_attack,
    remove_wrpkru_sandbox,
    sandbox_process,
    wrpkru_hijack_attack,
)

RW = PROT_READ | PROT_WRITE


def _protected_secret(kernel, process, task, lib):
    """A populated, PKRU-sealed page containing a secret."""
    addr = lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
    with lib.domain(task, 100, RW):
        task.write(addr, b"TOP-SECRET-BYTES")
    return addr


class TestMeltdown:
    def _setup(self, mitigated: bool):
        kernel = Kernel(Machine(num_cores=4,
                                meltdown_mitigated=mitigated))
        process = kernel.create_process()
        task = process.main_task
        lib = Libmpk(process)
        lib.mpk_init(task)
        addr = _protected_secret(kernel, process, task, lib)
        return kernel, task, addr

    def test_vulnerable_silicon_leaks_pkey_protected_data(self):
        """§7: MPK does not stop the rogue data cache load."""
        kernel, task, addr = self._setup(mitigated=False)
        assert task.try_read(addr, 16) is None  # architecturally sealed
        result = meltdown_attack(task, addr)
        assert result.succeeded
        assert result.leaked == b"TOP-SECRET-BYTES"

    def test_mitigated_silicon_does_not_leak(self):
        kernel, task, addr = self._setup(mitigated=True)
        result = meltdown_attack(task, addr)
        assert not result.succeeded

    def test_absent_pages_cannot_leak(self):
        """Demand paging as incidental defence: an untouched page has
        no resident data for the transient load to return."""
        kernel = Kernel(Machine(num_cores=4))
        process = kernel.create_process()
        task = process.main_task
        lib = Libmpk(process)
        lib.mpk_init(task)
        addr = lib.mpk_mmap(task, 100, PAGE_SIZE, RW)  # never written
        result = meltdown_attack(task, addr)
        assert not result.succeeded

    def test_page_bit_denial_blocks_the_transient_load(self):
        kernel = Kernel(Machine(num_cores=4))
        process = kernel.create_process()
        task = process.main_task
        addr = kernel.sys_mmap(task, PAGE_SIZE, RW)
        task.write(addr, b"data")
        kernel.sys_mprotect(task, addr, PAGE_SIZE, PROT_NONE)
        result = meltdown_attack(task, addr)
        assert not result.succeeded


class TestWrpkruHijack:
    def _setup(self):
        kernel = Kernel()
        process = kernel.create_process()
        task = process.main_task
        lib = Libmpk(process)
        lib.mpk_init(task)
        addr = _protected_secret(kernel, process, task, lib)
        return kernel, process, task, lib, addr

    def test_hijack_succeeds_without_sandbox(self):
        """§7: once control flow is hijacked, a WRPKRU gadget defeats
        raw MPK protection entirely."""
        kernel, process, task, lib, addr = self._setup()
        result = wrpkru_hijack_attack(task, addr)
        assert result.succeeded
        assert result.leaked == b"TOP-SECRET-BYTES"

    def test_call_gate_sandbox_blocks_the_gadget(self):
        kernel, process, task, lib, addr = self._setup()
        install_wrpkru_sandbox(task)
        result = wrpkru_hijack_attack(task, addr)
        assert not result.succeeded
        assert "sandbox" in result.detail

    def test_libmpk_still_works_inside_the_sandbox(self):
        """The gates exist precisely so legitimate libmpk calls keep
        functioning after the binary scan."""
        kernel, process, task, lib, addr = self._setup()
        install_wrpkru_sandbox(task)
        with lib.domain(task, 100, PROT_READ):
            assert task.read(addr, 16) == b"TOP-SECRET-BYTES"
        assert task.try_read(addr, 16) is None

    def test_direct_pkey_set_is_also_gated(self):
        kernel, process, task, lib, addr = self._setup()
        install_wrpkru_sandbox(task)
        with pytest.raises(SandboxViolation):
            task.pkey_set(lib.group(100).pkey, KEY_RIGHTS_ALL)

    def test_gadget_on_an_off_core_task_is_blocked_by_the_sandbox(self):
        """The sandbox gate is checked before the core is resolved: a
        sandboxed task that is not running still reports the gadget as
        a sandbox violation, not as an off-core error."""
        kernel, process, task, lib, addr = self._setup()
        sibling = process.spawn_task()
        install_wrpkru_sandbox(sibling)
        assert sibling.core_id is None
        with pytest.raises(SandboxViolation):
            sibling.wrpkru(0)
        result = wrpkru_hijack_attack(sibling, addr)
        assert not result.succeeded
        assert "sandbox" in result.detail

    def test_sandbox_is_per_task_and_removable(self):
        kernel, process, task, lib, addr = self._setup()
        sibling = process.spawn_task()
        kernel.scheduler.schedule(sibling, charge=False)
        assert sandbox_process(process) == 2
        with pytest.raises(SandboxViolation):
            sibling.wrpkru(0)
        remove_wrpkru_sandbox(sibling)
        sibling.wrpkru(0)  # allowed again
        with pytest.raises(SandboxViolation):
            task.wrpkru(0)  # main task still sandboxed
