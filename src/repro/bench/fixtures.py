"""Reusable benchmark testbeds: machine + kernel + process + libmpk.

``make_testbed(threads=N)`` reproduces the paper's measurement setup:
one process with N running threads (the caller plus N-1 running
siblings that mprotect must shoot down and do_pkey_sync must IPI).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro import Kernel, Libmpk, Machine, Process, Task


@dataclass
class TestBed:
    __test__ = False  # not a pytest test class despite the name

    kernel: Kernel
    process: Process
    task: Task
    lib: Libmpk | None
    siblings: list[Task]

    @property
    def clock(self):
        return self.kernel.clock

    def measure(self, fn) -> float:
        """Elapsed simulated cycles of ``fn()`` (pipeline-isolated)."""
        core = self.kernel.machine.core(self.task.core_id)
        core.reset_pipeline()
        start = self.clock.snapshot()
        fn()
        return self.clock.snapshot() - start

    def measure_avg(self, fn, repeat: int) -> float:
        """Average simulated cycles over ``repeat`` invocations."""
        if repeat <= 0:
            raise ValueError("repeat must be positive")
        core = self.kernel.machine.core(self.task.core_id)
        core.reset_pipeline()
        start = self.clock.snapshot()
        for _ in range(repeat):
            fn()
        return (self.clock.snapshot() - start) / repeat


def make_testbed(threads: int = 1, with_libmpk: bool = True,
                 evict_rate: float = 1.0,
                 num_cores: int = 40) -> TestBed:
    """A fresh machine with ``threads`` running tasks in one process."""
    if threads < 1:
        raise ValueError("need at least the calling thread")
    kernel = Kernel(Machine(num_cores=num_cores))
    process = kernel.create_process()
    task = process.main_task
    siblings = []
    for _ in range(threads - 1):
        sibling = process.spawn_task()
        kernel.scheduler.schedule(sibling, charge=False)
        siblings.append(sibling)
    lib = None
    if with_libmpk:
        lib = Libmpk(process)
        lib.mpk_init(task, evict_rate=evict_rate)
    return TestBed(kernel=kernel, process=process, task=task, lib=lib,
                   siblings=siblings)
