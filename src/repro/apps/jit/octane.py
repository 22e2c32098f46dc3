"""An Octane-like benchmark suite for the simulated JS engines.

Each program is a workload *profile*: how many functions turn hot, how
big they are, how often compiled code gets patched, how many code pages
are committed but rarely touched, and how much pure compute surrounds
it all.  The profiles are chosen so the programs stress the same
corners of W⊕X enforcement the paper calls out in §6.3:

* **Box2D** — patch-heavy (inline-cache churn): permission-switch cost
  dominates; the biggest libmpk win.
* **SplayLatency** — allocates many fresh executable pages that are
  rarely updated afterwards: one-key-per-page pays key-dedication and
  cache-eviction costs without amortizing them.
* **zlib** — commits many pages once and almost never updates them:
  one-key-per-process pays the extra pkey_mprotect per committed page.
* The remaining programs are compute-dominated, so every backend ties
  within noise — which is exactly why the paper's *total* deltas are
  small.

Scores follow Octane's convention: a fixed reference cost divided by
measured time (bigger is better).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

if typing.TYPE_CHECKING:
    from repro.apps.jit.engine import JsEngine

#: Score normalization constant (cycles); chosen so scores land in the
#: familiar four-to-five-digit Octane range.
OCTANE_REFERENCE_CYCLES = 2.0e11


@dataclass(frozen=True)
class OctaneProgram:
    """One benchmark program's workload profile."""

    name: str
    hot_functions: int          # functions that get JIT-compiled
    function_size: int          # bytecode bytes per function
    patches_per_function: int   # re-emissions after the first compile
    exec_iterations: int        # native executions per function
    interp_iterations: int      # interpreter warmup runs per function
    committed_only_pages: int = 0   # pages committed but never written
    multi_page_updates: int = 0     # events rewriting 4 pages at once
    extra_compute: float = 0.0      # GC / layout / pure-JS cycles

    #: Functions that warm up and compile together before patching.
    WAVE = 8

    def run(self, engine: "JsEngine") -> None:
        """Execute the profile on ``engine`` in compilation waves."""
        for _ in range(self.committed_only_pages):
            addr = engine.alloc_code_page()
            engine.backend.commit_page(engine.jit_task, addr)
        remaining = self.hot_functions
        while remaining > 0:
            wave = min(self.WAVE, remaining)
            remaining -= wave
            for _ in range(wave):
                engine.interpret(self.function_size,
                                 self.interp_iterations)
            addrs = engine.compile_wave([self.function_size] * wave)
            for addr in addrs:
                engine.patch_function(addr, self.patches_per_function)
                engine.execute_native(addr, self.function_size,
                                      self.exec_iterations)
        for i in range(self.multi_page_updates):
            engine.multi_page_update(pages=4, start_index=4 * i)
        if self.extra_compute:
            engine.kernel.clock.charge(self.extra_compute,
                                       site="apps.jit.compute")


# ---------------------------------------------------------------------------
# The suite.  Sizes/iterations are in simulated units; extra_compute
# dominates most programs, as real Octane time is dominated by the JS
# itself rather than by code emission.
# ---------------------------------------------------------------------------

OCTANE_PROGRAMS: tuple[OctaneProgram, ...] = (
    OctaneProgram(name="Richards", hot_functions=12, function_size=400,
                  patches_per_function=3, exec_iterations=600,
                  interp_iterations=40, extra_compute=6.0e6),
    OctaneProgram(name="DeltaBlue", hot_functions=14, function_size=350,
                  patches_per_function=3, exec_iterations=500,
                  interp_iterations=40, extra_compute=6.5e6),
    OctaneProgram(name="Crypto", hot_functions=10, function_size=800,
                  patches_per_function=2, exec_iterations=1500,
                  interp_iterations=30, extra_compute=9.0e6),
    OctaneProgram(name="RayTrace", hot_functions=13, function_size=500,
                  patches_per_function=4, exec_iterations=700,
                  interp_iterations=40, extra_compute=7.0e6),
    OctaneProgram(name="EarleyBoyer", hot_functions=15, function_size=600,
                  patches_per_function=4, exec_iterations=500,
                  interp_iterations=50, extra_compute=8.0e6),
    OctaneProgram(name="RegExp", hot_functions=8, function_size=300,
                  patches_per_function=2, exec_iterations=900,
                  interp_iterations=30, extra_compute=7.5e6),
    OctaneProgram(name="SplayLatency", hot_functions=72,
                  function_size=250, patches_per_function=1,
                  exec_iterations=50, interp_iterations=10,
                  extra_compute=1.5e6),
    OctaneProgram(name="NavierStokes", hot_functions=9, function_size=900,
                  patches_per_function=2, exec_iterations=1200,
                  interp_iterations=30, extra_compute=8.5e6),
    OctaneProgram(name="Box2D", hot_functions=40, function_size=450,
                  patches_per_function=5, exec_iterations=100,
                  interp_iterations=10, multi_page_updates=260,
                  extra_compute=2.5e6),
    OctaneProgram(name="zlib", hot_functions=6, function_size=1200,
                  patches_per_function=1, exec_iterations=700,
                  interp_iterations=20, committed_only_pages=170,
                  extra_compute=2.5e6),
    OctaneProgram(name="CodeLoad", hot_functions=30, function_size=300,
                  patches_per_function=1, exec_iterations=60,
                  interp_iterations=10, extra_compute=6.0e6),
)


def octane_score(cycles: float) -> float:
    """Convert measured cycles into an Octane-style score."""
    if cycles <= 0:
        raise ValueError("cycles must be positive")
    return OCTANE_REFERENCE_CYCLES / cycles


def geometric_mean(scores: typing.Iterable[float]) -> float:
    values = list(scores)
    if not values:
        raise ValueError("no scores")
    product = 1.0
    for value in values:
        product *= value
    return product ** (1.0 / len(values))
