"""A complete simulated machine: cores + physical memory + clock.

The default configuration mirrors the paper's testbed: two Xeon Gold
5115 sockets exposing 40 logical cores and 192 GB of memory — though
frames materialize lazily, so instantiating the machine is cheap.
"""

from __future__ import annotations

from repro.consts import PAGE_SIZE
from repro.hw.cpu import Core
from repro.hw.cycles import Clock, CostModel, DEFAULT_COST_MODEL, Region
from repro.hw.phys import PhysicalMemory
from repro.obs import Observability


class Machine:
    """Hardware container shared by the kernel and all processes."""

    def __init__(self, num_cores: int = 40,
                 memory_bytes: int = 192 << 30,
                 costs: CostModel | None = None,
                 meltdown_mitigated: bool = False,
                 name: str = "machine") -> None:
        if num_cores <= 0:
            raise ValueError("num_cores must be positive")
        # Boot label: the cluster prefixes this machine's charge sites
        # with it when merging per-node ledgers ("node0.apps...").
        self.name = name
        self.costs = costs or DEFAULT_COST_MODEL
        self.clock = Clock()
        # The instrumentation spine: registers the per-site aggregator
        # before the clock can advance, so attribution is complete.
        self.obs = Observability(self.clock)
        self.memory = PhysicalMemory(total_frames=memory_bytes // PAGE_SIZE)
        self.cores = [Core(i, self.clock, self.costs,
                           meltdown_mitigated=meltdown_mitigated)
                      for i in range(num_cores)]
        # MMU counter conservation: every architecturally-counted access
        # was served by exactly one TLB outcome (hit or charged walk).
        self.obs.register_invariant("mmu_counter_conservation",
                                    self._check_mmu_counters)

    def _check_mmu_counters(self) -> str | None:
        for core in self.cores:
            stats = core.tlb.stats
            accesses = core.data_accesses + core.instruction_fetches
            served = stats.hits + stats.misses
            if served != accesses:
                return (f"core {core.core_id}: tlb hits+misses {served} "
                        f"!= data+fetch accesses {accesses}")
        return None

    @property
    def num_cores(self) -> int:
        return len(self.cores)

    def core(self, core_id: int) -> Core:
        return self.cores[core_id]

    def measure(self) -> Region:
        """Context manager measuring elapsed simulated cycles."""
        return Region(self.clock)

    def perf_summary(self) -> dict:
        """Machine-wide architectural event counters."""
        return {
            "cycles": self.clock.now,
            "wrpkru": sum(c.wrpkru_count for c in self.cores),
            "rdpkru": sum(c.rdpkru_count for c in self.cores),
            "data_accesses": sum(c.data_accesses for c in self.cores),
            "instruction_fetches": sum(c.instruction_fetches
                                       for c in self.cores),
            "tlb_misses": sum(c.tlb.stats.misses for c in self.cores),
            "tlb_flushes": sum(c.tlb.stats.full_flushes
                               for c in self.cores),
            "charge_sites": len(self.obs.aggregator.cycles),
        }
