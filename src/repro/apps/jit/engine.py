"""JavaScript engine models: interpretation, JIT tiers, code emission.

The engines are modeled at the granularity the paper's evaluation
depends on: a program is a stream of *emission events* against the code
cache (commits, fresh compiles, patches, occasional multi-page updates)
interleaved with compute.  Engine-specific behaviour follows §6.3:

* **SpiderMonkey** batches permission switches ("designed to get rid of
  unnecessary mprotect() calls"), so consecutive patches to the same
  page coalesce into one switch.
* **ChakraCore** "only makes one page writable per time", one switch
  per patch.
* **v8** (the version SDCG used) ships with no W⊕X at all; protection
  is added by the SDCG or libmpk backends.

Execution is real in the simulator's terms: emitted code is written
through the MMU and executed by fetching it, so a backend that leaves
the cache non-executable or non-writable faults immediately.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.consts import PAGE_SIZE
from repro.faults.signals import SIGSEGV

from repro.apps.jit.wx import WxBackend

if typing.TYPE_CHECKING:
    from repro.kernel.kcore import Kernel, Process
    from repro.apps.jit.octane import OctaneProgram

# Compute-cost constants (cycles).
COMPILE_CYCLES_PER_BYTE = 40.0
INTERP_CYCLES_PER_BYTE = 12.0
NATIVE_CYCLES_PER_BYTE = 1.0


@dataclass(frozen=True)
class EngineProfile:
    """How an engine schedules permission switches."""

    name: str
    #: Consecutive patches to the same page merged into one emission
    #: (SpiderMonkey's batching).
    patch_batch: int = 1
    #: Compilation-burst size: how many freshly compiled functions are
    #: written to the cache under a single permission window.
    #: SpiderMonkey "is designed to get rid of unnecessary mprotect()
    #: calls"; ChakraCore "only makes one page writable per time".
    compile_batch: int = 1
    #: Whether the engine ships W⊕X already (v8 does not).
    has_builtin_wx: bool = True


ENGINES = {
    "spidermonkey": EngineProfile(name="spidermonkey", patch_batch=4,
                                  compile_batch=4),
    "chakracore": EngineProfile(name="chakracore"),
    "v8": EngineProfile(name="v8", has_builtin_wx=False),
}


class GuestCrash(Exception):
    """Untrusted guest code wrote into the protected code cache."""


class JsEngine:
    """One engine instance: a code cache, a JIT thread, an exec thread."""

    #: A stub of native code; emitted at each compile/patch site.
    CODE_STUB = b"\x55\x48\x89\xe5\x90\x90\x5d\xc3"

    def __init__(self, kernel: "Kernel", process: "Process",
                 profile: EngineProfile, backend: WxBackend,
                 cache_pages: int = 256) -> None:
        self.kernel = kernel
        self.process = process
        self.profile = profile
        self.backend = backend
        self.exec_task = process.main_task
        # The JIT compilation thread — a *different* thread from the one
        # executing code, which is what makes per-thread write grants
        # meaningful.
        self.jit_task = process.spawn_task()
        kernel.scheduler.schedule(self.jit_task, charge=False)
        self.cache_base = backend.create_cache(self.jit_task, cache_pages)
        self.cache_pages = cache_pages
        self._next_page = 0
        self.wx_violations: list = []
        self.guest_crashes = 0

    # ------------------------------------------------------------------
    # Code-cache page management.
    # ------------------------------------------------------------------

    #: Pages at the top of the cache reserved for bulk (multi-page)
    #: rewrites — GC compaction, bulk relocation — which real engines
    #: perform on regions distinct from hot inline-cache pages.
    BULK_PAGES = 16

    def alloc_code_page(self) -> int:
        limit = self.cache_pages - self.BULK_PAGES
        if self._next_page >= limit:
            self._next_page = 0  # wrap: recycle the oldest pages
        addr = self.cache_base + self._next_page * PAGE_SIZE
        self._next_page += 1
        return addr

    def bulk_page(self, index: int) -> int:
        """A page in the bulk-rewrite area (cycled modulo its size)."""
        slot = self.cache_pages - self.BULK_PAGES + (index % self.BULK_PAGES)
        return self.cache_base + slot * PAGE_SIZE

    # ------------------------------------------------------------------
    # Compilation and execution.
    # ------------------------------------------------------------------

    def compile_function(self, size_bytes: int) -> int:
        """JIT-compile a hot function: returns its code address."""
        return self.compile_wave([size_bytes])[0]

    def compile_wave(self, sizes: list[int]) -> list[int]:
        """Compile a burst of hot functions; emission is grouped into
        the engine's ``compile_batch`` windows (SpiderMonkey coalesces,
        ChakraCore writes one page at a time)."""
        self.kernel.clock.charge(
            sum(sizes) * COMPILE_CYCLES_PER_BYTE,
            site="apps.jit.compile")
        addrs = [self.alloc_code_page() for _ in sizes]
        for addr in addrs:
            self.backend.commit_page(self.jit_task, addr)
        batch = self.profile.compile_batch
        for i in range(0, len(addrs), batch):
            chunk = addrs[i:i + batch]
            if len(chunk) == 1:
                self.backend.emit(self.jit_task, chunk[0], self.CODE_STUB)
            else:
                self.backend.emit_multi(self.jit_task, chunk,
                                        self.CODE_STUB)
        return addrs

    def multi_page_update(self, pages: int = 4,
                          start_index: int = 0) -> None:
        """A multi-page rewrite event in the bulk area."""
        addrs = [self.bulk_page(start_index + i) for i in range(pages)]
        for addr in addrs:
            self.backend.commit_page(self.jit_task, addr)
        self.backend.emit_multi(self.jit_task, addrs, self.CODE_STUB)

    def patch_function(self, addr: int, times: int = 1) -> None:
        """Re-emit (patch) compiled code ``times`` times, honouring the
        engine's batching behaviour."""
        remaining = times
        while remaining > 0:
            batch = min(self.profile.patch_batch, remaining)
            # One emission covers `batch` logical patches.
            self.backend.emit(self.jit_task, addr, self.CODE_STUB)
            remaining -= batch

    def execute_native(self, addr: int, size_bytes: int,
                       iterations: int = 1) -> None:
        """Run compiled code: fetch through the MMU, charge native cost."""
        for _ in range(iterations):
            code = self.exec_task.fetch(addr, len(self.CODE_STUB))
            if code[:1] != self.CODE_STUB[:1]:
                raise RuntimeError("executed uninitialized code cache")
        self.kernel.clock.charge(
            iterations * size_bytes * NATIVE_CYCLES_PER_BYTE,
            site="apps.jit.native_exec")

    def interpret(self, size_bytes: int, iterations: int = 1) -> None:
        self.kernel.clock.charge(
            iterations * size_bytes * INTERP_CYCLES_PER_BYTE,
            site="apps.jit.interpret")

    # ------------------------------------------------------------------
    # W⊕X violation recovery (the fault plane).
    # ------------------------------------------------------------------

    def enable_wx_violation_recovery(self) -> None:
        """Contain guest writes into the protected code cache.

        Installs a SIGSEGV handler on the *exec* thread: a fault whose
        address lands in the code cache (or any pkey denial — the mpk
        backend's signature) is recorded and unwound as a
        :class:`GuestCrash`; faults that are not W⊕X violations are
        declined and propagate as raw machine faults.  The engine — and
        the JIT thread's write grant — survives the crash.
        """
        cache_lo = self.cache_base
        cache_hi = self.cache_base + self.cache_pages * PAGE_SIZE

        def handler(task, info):
            in_cache = (info.si_addr is not None
                        and cache_lo <= info.si_addr < cache_hi)
            if not (info.is_pkey_fault or in_cache):
                return False  # not a W⊕X violation: decline
            self.wx_violations.append(info)
            raise GuestCrash(f"guest wrote protected code cache: "
                             f"{info.describe()}")

        self.exec_task.sigaction(SIGSEGV, handler)

    def guest_store(self, addr: int, data: bytes) -> bool:
        """An untrusted guest store issued from generated code.

        Returns True when the store landed; False when the W⊕X backend
        denied it and recovery contained the crash.
        """
        try:
            self.exec_task.write(addr, data)
        except GuestCrash:
            self.guest_crashes += 1
            return False
        return True

    # ------------------------------------------------------------------
    # Whole-program runs (Octane driver).
    # ------------------------------------------------------------------

    def run_program(self, program: "OctaneProgram") -> float:
        """Execute one Octane-like program; returns elapsed cycles."""
        start = self.kernel.clock.snapshot()
        program.run(self)
        return self.kernel.clock.snapshot() - start
