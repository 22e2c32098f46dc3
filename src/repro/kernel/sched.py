"""Deterministic scheduler: core assignment, run queues, IPIs, preemption.

Tests and benchmarks may still place tasks on cores explicitly — the
"concurrency" the paper depends on (which sibling threads are
*currently running* when an mprotect needs a TLB shootdown or a
do_pkey_sync needs rescheduling IPIs) stays fully deterministic.  On
top of that, the scheduler carries per-core FIFO run queues and
:meth:`Scheduler.preempt`, which requeues the running task at the tail.
The scheduler keeps no slice timer: the serving engine in
``repro.bench.serving`` compares the clock against its slice start at
its jobs' yield points, so preemption points are a pure function of
cycle state.

Two IPI flavours matter for the paper's measurements:

* **TLB-shootdown IPI** (used by mprotect): every other core running a
  task of the same process must flush its TLB; cost grows with the
  number of running threads (Figure 10's mprotect curves).
* **Rescheduling IPI** (used by do_pkey_sync): forces a running task
  through the kernel-exit path so its queued task_work — the PKRU
  update — executes before any further userspace instruction.
"""

from __future__ import annotations

import typing
from collections import deque

from repro.hw.machine import Machine

if typing.TYPE_CHECKING:
    from repro.kernel.kcore import Process
    from repro.kernel.task import Task


def _task_tid(task: "Task") -> int:
    return task.tid


class Scheduler:
    """Maps cores to running tasks and models switch/IPI costs."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self._core_task: dict[int, "Task"] = {}
        self.ipis_sent = 0
        self.context_switches = 0
        self.preemptions = 0
        self.run_queues: dict[int, deque["Task"]] = {}

    # ------------------------------------------------------------------
    # Placement.
    # ------------------------------------------------------------------

    def schedule(self, task: "Task", core_id: int | None = None,
                 charge: bool = True) -> int:
        """Place ``task`` on ``core_id`` (or the first free core).

        Runs pending task_work (kernel exit path) and loads the task's
        PKRU into the core, exactly as a real context switch would.
        """
        if task.running:
            raise RuntimeError(f"{task!r} is already running")
        if core_id is None:
            core_id = self._first_free_core()
        elif core_id in self._core_task:
            raise RuntimeError(f"core {core_id} is busy")
        if charge:
            self.machine.clock.charge(self.machine.costs.context_switch,
                                      site="kernel.sched.context_switch")
        self.context_switches += 1
        self._core_task[core_id] = task
        task.core_id = core_id
        task.state = "running"
        self.kernel_exit(task)
        return core_id

    def unschedule(self, task: "Task") -> None:
        """Take ``task`` off its core (it becomes runnable again)."""
        if not task.running:
            raise RuntimeError(f"{task!r} is not running")
        del self._core_task[task.core_id]
        task.core_id = None
        task.state = "runnable"

    def running_tasks(self, process: "Process | None" = None) -> list["Task"]:
        core_task = self._core_task
        if process is not None:
            tasks = [t for t in core_task.values() if t.process is process]
        else:
            tasks = list(core_task.values())
        if len(tasks) > 1:
            tasks.sort(key=_task_tid)
        return tasks

    def running_task(self, core_id: int) -> "Task | None":
        """The task currently on ``core_id`` (None when the core idles)."""
        return self._core_task.get(core_id)

    def _first_free_core(self) -> int:
        for core_id in range(self.machine.num_cores):
            if core_id not in self._core_task:
                return core_id
        raise RuntimeError("no free core")

    # ------------------------------------------------------------------
    # Run queues + preemption.
    # ------------------------------------------------------------------

    def enqueue(self, task: "Task", core_id: int) -> None:
        """Append ``task`` to ``core_id``'s FIFO run queue."""
        if task.running:
            raise RuntimeError(f"{task!r} is already running")
        if task.state == "dead":
            raise RuntimeError(f"{task!r} is dead")
        queue = self.run_queues.setdefault(core_id, deque())
        if any(queued is task for queued in queue):
            raise RuntimeError(f"{task!r} is already queued")
        task.state = "runnable"
        queue.append(task)

    def runnable_count(self, core_id: int) -> int:
        return len(self.run_queues.get(core_id, ()))

    def forget(self, task: "Task") -> bool:
        """Purge ``task`` from every run queue (task-death path: a dead
        task must never be dispatched).  Returns True when it was
        actually queued somewhere."""
        for queue in self.run_queues.values():
            for queued in list(queue):
                if queued is task:
                    queue.remove(queued)
                    return True
        return False

    def dispatch(self, core_id: int) -> "Task | None":
        """Context-switch the head of ``core_id``'s run queue onto the
        core (charging the switch).  Returns the dispatched task, or
        None when the queue is empty."""
        queue = self.run_queues.get(core_id)
        if not queue:
            return None
        if core_id in self._core_task:
            raise RuntimeError(f"core {core_id} is busy")
        task = queue.popleft()
        self.schedule(task, core_id=core_id)
        return task

    def preempt(self, core_id: int) -> "Task":
        """Take the running task off ``core_id`` at a quantum boundary
        and requeue it at the tail.  The switch cost is charged when
        the next task dispatches."""
        task = self._core_task.get(core_id)
        if task is None:
            raise RuntimeError(f"core {core_id} is idle")
        self.unschedule(task)
        self.enqueue(task, core_id)
        self.preemptions += 1
        return task

    # ------------------------------------------------------------------
    # IPIs.
    # ------------------------------------------------------------------

    def send_resched_ipi(self, task: "Task") -> bool:
        """Kick ``task`` through the kernel exit path if it is running.

        Returns True when an IPI was actually sent.  The interrupted
        task drains its task_work and reloads PKRU before it can touch
        userspace memory again — the heart of lazy PKRU sync.
        """
        if not task.running:
            return False
        self.machine.clock.charge(self.machine.costs.resched_ipi,
                                  site="kernel.sched.resched_ipi")
        self.ipis_sent += 1
        self.kernel_exit(task)
        return True

    def tlb_shootdown(self, process: "Process", initiator: "Task | None",
                      full: bool = True, vpns: list[int] | None = None,
                      charge_pages: int | None = None) -> int:
        """Flush TLBs on every core that may hold ``process``'s
        translations — the kernel's mm_cpumask targeting.

        Targeted cores are those running a task of the process *plus*
        those whose TLB reports :meth:`~repro.hw.tlb.TLB.may_hold` for
        the process's page table: with no ASIDs, a core whose worker
        blocked and left the core idle still caches the old
        translations, and skipping it would let a resumed task read
        stale pkey/prot bits forever (the keyscale serving bench at 10k
        domains trips exactly this).  The initiating core flushes
        locally; each *other* targeted core costs a shootdown IPI.
        Returns the number of remote IPIs sent.

        ``full=True`` (the default) flushes everything on each core.
        ``full=False`` with ``vpns`` is the precise flavour — the
        per-core cost is ``charge_pages`` INVLPGs (defaulting to
        ``len(vpns)``) and only the listed translations are dropped.
        The kernel passes the *range* page count as ``charge_pages``
        when ``vpns`` lists only resident pages, mirroring Linux's
        ``flush_tlb_range`` which walks the whole virtual range.
        """
        # Validate before any IPI is charged or any TLB touched: a
        # half-executed shootdown that then raises would leave the
        # cycle ledger and ipis_sent permanently skewed.
        if initiator is not None and not initiator.running:
            raise RuntimeError("shootdown initiator must be running")
        machine = self.machine
        ipi_cost = machine.costs.tlb_shootdown_ipi
        charge = machine.clock.charge
        page_table = process.page_table
        targets: dict[int, bool] = {}   # core_id -> is the initiator
        for task in self.running_tasks(process):
            targets[task.core_id] = (initiator is not None
                                     and task is initiator)
        for core in machine.cores:
            if core.core_id not in targets and core.tlb.may_hold(
                    page_table):
                targets[core.core_id] = False
        if initiator is not None and not targets.get(
                initiator.core_id, False):
            # The initiator may be running a task of a *different*
            # process (the kernel editing another mm).  Cores have no
            # ASIDs here, so its TLB can still hold stale translations
            # of the flushed process — the local flush is mandatory.
            targets[initiator.core_id] = True
        remote = 0
        for core_id in sorted(targets):
            if not targets[core_id]:
                charge(ipi_cost, site="hw.tlb.shootdown_ipi")
                self.ipis_sent += 1
                remote += 1
            self._flush(machine.core(core_id), full, vpns, charge_pages)
        return remote

    @staticmethod
    def _flush(core, full: bool, vpns: list[int] | None,
               charge_pages: int | None = None) -> None:
        if full or vpns is None:
            core.tlb.flush()
        else:
            core.tlb.invalidate_range(vpns, charge_pages=charge_pages)

    # ------------------------------------------------------------------
    # Kernel exit path (task_work + PKRU reload).
    # ------------------------------------------------------------------

    def kernel_exit(self, task: "Task") -> None:
        """Model the return-to-userspace path for ``task``.

        Drains task_work (the lazy-PKRU-sync and signal-delivery hook)
        and reloads the task's PKRU into its core.  Public because the
        kernel's trap-return path (signal delivery after an MMU fault)
        drives it directly.
        """
        ran = task.run_task_works()
        if ran:
            self.machine.clock.charge(ran * self.machine.costs.task_work_run,
                                      site="kernel.sched.task_work_run")
        if task.running:
            self.machine.core(task.core_id).load_pkru(task.pkru)
