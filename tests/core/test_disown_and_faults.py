"""mpk_disown, the code-cache GC, and fault-handler-driven lazy unlock."""

import pytest

from repro.consts import PAGE_SIZE, PROT_EXEC, PROT_READ, PROT_WRITE
from repro.errors import MpkError, MpkUnknownVkey, PkeyFault
from repro.apps.jit import ENGINES, JsEngine, KeyPerPageWx
from repro import Kernel, Libmpk

RW = PROT_READ | PROT_WRITE
RX = PROT_READ | PROT_EXEC


class TestDisown:
    def test_pages_stay_mapped_with_new_prot(self, lib, kernel, task):
        addr = lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        with lib.domain(task, 100, RW):
            task.write(addr, b"kept")
        lib.mpk_disown(task, 100, PROT_READ)
        # Group gone, data still there, plain page semantics now.
        with pytest.raises(MpkUnknownVkey):
            lib.mpk_begin(task, 100, RW)
        assert task.read(addr, 4) == b"kept"

    def test_frees_the_hardware_key(self, lib, task):
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        assert lib.cache.in_use == 1
        lib.mpk_disown(task, 100, PROT_READ)
        assert lib.cache.in_use == 0

    def test_pinned_group_rejected(self, lib, task):
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        lib.mpk_begin(task, 100, RW)
        with pytest.raises(MpkError):
            lib.mpk_disown(task, 100, PROT_READ)
        lib.mpk_end(task, 100)

    def test_vkey_is_reusable_after_disown(self, lib, task):
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        lib.mpk_disown(task, 100, PROT_READ)
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)  # fresh group, same vkey
        assert lib.group(100) is not None


class TestCodeCacheGc:
    def _engine(self):
        kernel = Kernel()
        process = kernel.create_process()
        task = process.main_task
        lib = Libmpk(process)
        lib.mpk_init(task)
        backend = KeyPerPageWx(kernel, lib)
        return JsEngine(kernel, process, ENGINES["chakracore"],
                        backend, cache_pages=64), lib

    def test_release_retires_the_virtual_key(self):
        engine, lib = self._engine()
        addr = engine.compile_function(128)
        groups_before = len(lib.groups())
        assert engine.backend.release_page(engine.jit_task, addr)
        assert len(lib.groups()) == groups_before - 1
        # The code still runs after the GC.
        engine.execute_native(addr, 128)

    def test_release_of_undedicated_page_is_noop(self):
        engine, lib = self._engine()
        addr = engine.alloc_code_page()  # never emitted to
        assert not engine.backend.release_page(engine.jit_task, addr)

    def test_released_page_can_be_rededicated(self):
        engine, lib = self._engine()
        addr = engine.compile_function(128)
        engine.backend.release_page(engine.jit_task, addr)
        # Re-emitting dedicates it again under a fresh vkey.
        engine.backend.emit(engine.jit_task, addr, engine.CODE_STUB)
        engine.execute_native(addr, 128)

    def test_gc_sweep_keeps_cache_groups_bounded(self):
        engine, lib = self._engine()
        addrs = [engine.compile_function(64) for _ in range(30)]
        for addr in addrs[:25]:  # sweep the cold ones
            engine.backend.release_page(engine.jit_task, addr)
        assert len(lib.groups()) == 5
        for addr in addrs:
            engine.execute_native(addr, 64)  # everything still runs


class TestFaultHandlers:
    def test_lazy_unlock_pattern(self, lib, kernel, task):
        """The handler opens the right domain on demand — the classic
        'protect everything, unlock on fault' deployment style."""
        addr = lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        opened = []

        def lazy_unlock(t, fault):
            if isinstance(fault, PkeyFault) and \
                    lib.group(100).contains(fault.addr):
                lib.mpk_begin(t, 100, RW)
                opened.append(fault.addr)
                return True
            return False

        task.set_fault_handler(lazy_unlock)
        task.write(addr, b"written via lazy unlock")
        assert opened == [addr]
        assert task.read(addr, 7) == b"written"
        lib.mpk_end(task, 100)
        task.set_fault_handler(None)

    def test_handler_declining_reraises(self, lib, kernel, task):
        addr = lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        task.set_fault_handler(lambda t, fault: False)
        with pytest.raises(PkeyFault):
            task.read(addr, 1)
        task.set_fault_handler(None)

    def test_handler_that_fixes_nothing_faults_on_retry(self, lib,
                                                        kernel, task):
        addr = lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        calls = []

        def liar(t, fault):
            calls.append(fault.addr)
            return True  # claims resolved but did nothing

        task.set_fault_handler(liar)
        for access in (lambda: task.read(addr, 1),
                       lambda: task.write(addr, b"x")):
            calls.clear()
            with pytest.raises(PkeyFault):
                access()
            assert calls == [addr]  # retried once, no infinite loop
        task.set_fault_handler(None)

    def test_try_read_respects_the_handler(self, lib, kernel, task):
        addr = lib.mpk_mmap(task, 100, PAGE_SIZE, RW)

        def lazy(t, fault):
            lib.mpk_begin(t, 100, PROT_READ)
            return True

        task.set_fault_handler(lazy)
        assert task.try_read(addr, 1) == b"\x00"
        lib.mpk_end(task, 100)
        task.set_fault_handler(None)
