"""JIT engine + W⊕X backends: enforcement, costs, Octane plumbing."""

import pytest

from repro.consts import PAGE_SIZE
from repro.errors import MachineFault, PkeyFault
from repro import Kernel, Libmpk
from repro.apps.jit import (
    ENGINES,
    JsEngine,
    KeyPerPageWx,
    KeyPerProcessWx,
    MprotectWx,
    NoWx,
    SdcgWx,
)
from repro.apps.jit.octane import (
    OCTANE_PROGRAMS,
    OctaneProgram,
    geometric_mean,
    octane_score,
)


def make_engine(backend_name, engine_name="chakracore", cache_pages=64):
    kernel = Kernel()
    process = kernel.create_process()
    task = process.main_task
    lib = None
    if backend_name in ("kpp", "kproc"):
        lib = Libmpk(process)
        lib.mpk_init(task)
    backend = {
        "none": lambda: NoWx(kernel),
        "mprotect": lambda: MprotectWx(kernel),
        "kpp": lambda: KeyPerPageWx(kernel, lib),
        "kproc": lambda: KeyPerProcessWx(kernel, lib),
        "sdcg": lambda: SdcgWx(kernel),
    }[backend_name]()
    engine = JsEngine(kernel, process, ENGINES[engine_name], backend,
                      cache_pages=cache_pages)
    return engine


ALL_BACKENDS = ["none", "mprotect", "kpp", "kproc", "sdcg"]


class TestCompilationAndExecution:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_compiled_code_is_executable(self, backend):
        engine = make_engine(backend)
        addr = engine.compile_function(256)
        engine.execute_native(addr, 256, iterations=3)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_patching_preserves_executability(self, backend):
        engine = make_engine(backend)
        addr = engine.compile_function(256)
        engine.patch_function(addr, times=5)
        engine.execute_native(addr, 256)

    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_compile_wave_emits_every_function(self, backend):
        engine = make_engine(backend)
        addrs = engine.compile_wave([128] * 6)
        assert len(set(addrs)) == 6
        for addr in addrs:
            engine.execute_native(addr, 128)

    def test_cache_pages_wrap_when_exhausted(self):
        engine = make_engine("none", cache_pages=20)
        addrs = {engine.alloc_code_page() for _ in range(50)}
        usable = 20 - engine.BULK_PAGES
        assert len(addrs) == usable

    def test_bulk_updates_stay_inside_bulk_area(self):
        engine = make_engine("mprotect", cache_pages=64)
        engine.multi_page_update(pages=4, start_index=0)
        lowest_bulk = engine.bulk_page(0)
        assert lowest_bulk >= engine.cache_base + \
            (64 - engine.BULK_PAGES) * PAGE_SIZE


class TestWxEnforcement:
    @pytest.mark.parametrize("backend", ["mprotect", "kpp", "kproc"])
    def test_exec_thread_cannot_write_code_cache(self, backend):
        """W⊕X holds at rest: no thread can write the cache outside an
        emission."""
        engine = make_engine(backend)
        addr = engine.compile_function(128)
        with pytest.raises(MachineFault):
            engine.exec_task.write(addr, b"\xcc")

    def test_nowx_cache_is_wide_open(self):
        engine = make_engine("none")
        addr = engine.compile_function(128)
        engine.exec_task.write(addr, b"\xcc")  # no fault: v8's problem

    @pytest.mark.parametrize("backend", ["kpp", "kproc"])
    def test_write_grant_is_jit_thread_local(self, backend):
        """The libmpk advantage: even *during* emission, only the JIT
        thread can write."""
        engine = make_engine(backend)

        original_emit = engine.backend.emit

        def spying_emit(task, addr, data):
            original_emit(task, addr, data)

        addr = engine.compile_function(128)
        # Open the writable window as the JIT thread would...
        if backend == "kpp":
            vkey = engine.backend._page_vkeys[addr & ~(PAGE_SIZE - 1)]
        else:
            vkey = engine.backend.VKEY
        engine.backend.lib.mpk_begin(engine.jit_task, vkey, 0x3)
        try:
            engine.jit_task.write(addr, b"\x90")      # JIT thread: ok
            with pytest.raises(PkeyFault):
                engine.exec_task.write(addr, b"\xcc")  # exec thread: no
        finally:
            engine.backend.lib.mpk_end(engine.jit_task, vkey)

    def test_mprotect_window_is_process_wide(self):
        """The §6.1 race: during an mprotect emission window any thread
        can write the page."""
        engine = make_engine("mprotect")
        landed = {}

        def racer(page):
            engine.exec_task.write(page, b"\xcc")
            landed["yes"] = page

        engine.backend.race_hook = racer
        engine.compile_function(128)
        assert "yes" in landed


class TestSwitchAccounting:
    def test_mprotect_backend_counts_switch_cycles(self):
        engine = make_engine("mprotect")
        engine.compile_function(128)
        assert engine.backend.switch_cycles > 2 * 1000  # two mprotects

    def test_libmpk_hit_switches_are_cheap(self):
        engine = make_engine("kproc")
        addr = engine.compile_function(128)
        before = engine.backend.switch_cycles
        engine.patch_function(addr, times=1)
        delta = engine.backend.switch_cycles - before
        assert delta < 1000  # begin+end with sibling sync, no mprotect

    def test_sdcg_charges_ipc_per_emission(self):
        engine = make_engine("sdcg")
        before = engine.backend.switch_cycles
        engine.compile_function(128)
        from repro.apps.jit.wx import SDCG_IPC_CYCLES
        assert engine.backend.switch_cycles - before == pytest.approx(
            SDCG_IPC_CYCLES)


class TestOctane:
    def test_score_is_inverse_in_cycles(self):
        assert octane_score(1e6) > octane_score(2e6)
        with pytest.raises(ValueError):
            octane_score(0)

    def test_geometric_mean(self):
        assert geometric_mean([4.0, 9.0]) == pytest.approx(6.0)
        with pytest.raises(ValueError):
            geometric_mean([])

    def test_suite_contains_the_named_programs(self):
        names = {p.name for p in OCTANE_PROGRAMS}
        assert {"Box2D", "SplayLatency", "zlib"} <= names

    def test_program_runs_to_completion_on_every_backend(self):
        prog = OctaneProgram(name="mini", hot_functions=3,
                             function_size=100, patches_per_function=2,
                             exec_iterations=5, interp_iterations=2)
        for backend in ALL_BACKENDS:
            engine = make_engine(backend)
            cycles = engine.run_program(prog)
            assert cycles > 0

    def test_libmpk_beats_mprotect_on_total_octane(self):
        """The Figure 12 headline, as a regression test (ChakraCore)."""
        def total(backend):
            engine = make_engine(backend, cache_pages=256)
            scores = [octane_score(engine.run_program(p))
                      for p in OCTANE_PROGRAMS]
            return geometric_mean(scores)

        assert total("kproc") > total("mprotect")
        assert total("kpp") > total("mprotect")
