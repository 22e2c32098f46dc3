"""The kernel facade: processes, syscalls, cost accounting, shootdowns.

Syscall methods take the calling :class:`~repro.kernel.task.Task` as
their first argument (the task must be running on a core) and charge:

* the user→kernel→user round trip (``syscall_overhead``),
* the handler body, itemized from :class:`~repro.hw.cycles.CostModel`
  using the mechanics stats reported by :class:`~repro.kernel.mm.MM`,
* TLB shootdown IPIs to every other core running a task of the same
  process, for the calls that edit page tables.

The pkey syscalls mirror Linux 4.14 semantics as the paper describes
them, including the two sharp edges §3 critiques: ``pkey_free`` leaves
stale keys in PTEs, and ``mprotect(PROT_EXEC)`` creates execute-only
memory whose PKRU restriction applies to the *calling thread only*.
"""

from __future__ import annotations

from repro.consts import (
    DEFAULT_PKEY,
    PROT_EXEC,
    PROT_READ,
)
from repro.errors import InvalidArgument, MachineFault, TaskKilled
from repro.faults.signals import Siginfo, siginfo_from_fault
from repro.hw.machine import Machine
from repro.hw.pkru import KEY_RIGHTS_NONE
from repro.obs import traced
from repro.kernel.mm import MM, ProtectStats
from repro.kernel.pkey import PkeyAllocator
from repro.kernel.sched import Scheduler
from repro.kernel.task import Task


class Process:
    """A process: address space, pkey bitmap, and its tasks."""

    _next_pid = 1

    def __init__(self, kernel: "Kernel") -> None:
        self.pid = Process._next_pid
        Process._next_pid += 1
        self.kernel = kernel
        self.mm = MM(kernel.machine)
        self.pkeys = PkeyAllocator()
        self.tasks: list[Task] = []
        # ``hook(task, siginfo)`` callbacks run when a task is killed by
        # a signal, *before* it leaves the task list — libmpk registers
        # one to unpin the dead thread's page groups.
        self.task_death_hooks: list = []
        self.main_task = self.spawn_task()
        # The syscall-side mprotect VMA cache rides the audit: a stale
        # hit would be a silent isolation bug, so its counters and
        # cached contents are re-derived on every ``audit()``.
        kernel.machine.obs.register_invariant(
            f"mm_protect_cache.pid{self.pid}",
            self.mm.protect_cache_consistency)

    @property
    def page_table(self):
        return self.mm.page_table

    def spawn_task(self) -> Task:
        task = Task(self)
        self.tasks.append(task)
        return task

    def detach_task(self, task: Task) -> None:
        """Sever ``task`` from every scheduling structure and mark it
        dead: off its core, out of its wait queue, purged from run
        queues.  Must happen *before* death hooks run — a hook that
        wakes wait queues (libmpk's pin-drop) would otherwise wake the
        dying task itself and leave a dead task in a run queue."""
        if task.running:
            self.kernel.scheduler.unschedule(task)
        if task.waiting_on is not None:
            task.waiting_on.remove(task)
        self.kernel.scheduler.forget(task)
        task.state = "dead"

    def exit_task(self, task: Task) -> None:
        self.detach_task(task)
        if task in self.tasks:
            self.tasks.remove(task)

    def live_tasks(self) -> list[Task]:
        return [t for t in self.tasks if t.state != "dead"]


class Kernel:
    """Machine-wide kernel state and the syscall interface."""

    def __init__(self, machine: Machine | None = None) -> None:
        self.machine = machine or Machine()
        # Bound once rather than exposed as properties: the machine
        # never swaps its clock/costs/obs after construction, and every
        # syscall touches all three.  ``_obs`` feeds the @traced spans.
        self.costs = self.machine.costs
        self.clock = self.machine.clock
        self._obs = self.machine.obs
        self._syscall_overhead = self.costs.syscall_overhead()
        # Ledger slots of the syscall and lazy-sync charges
        # (do_pkey_sync in repro.core.sync charges the sync slots, and
        # the scheduler's resched-IPI slot).
        site = self.clock.site
        self._entry_exit_site = site("kernel.syscall.entry_exit")
        self._mmap_site = site("kernel.mmap.body")
        self._munmap_site = site("kernel.munmap.body")
        self._pkey_alloc_site = site("kernel.pkey_alloc.body")
        self._pkey_free_site = site("kernel.pkey_free.body")
        self._mprotect_base_site = site("kernel.mprotect.base")
        self._vma_find_site = site("kernel.mprotect.vma_find")
        self._vma_split_site = site("kernel.mprotect.vma_split")
        self._pte_update_site = site("kernel.mprotect.pte_update")
        self._pkey_check_site = site("kernel.mprotect.pkey_check")
        self._sync_entry_exit_site = site("kernel.pkey_sync.entry_exit")
        self._task_work_add_site = site("kernel.sync.task_work_add")
        self._ipi_ack_wait_site = site("kernel.sync.ipi_ack_wait")
        self.scheduler = Scheduler(self.machine)
        self.processes: list[Process] = []

    def create_process(self, schedule_main: bool = True) -> Process:
        process = Process(self)
        self.processes.append(process)
        if schedule_main:
            self.scheduler.schedule(process.main_task, charge=False)
        return process

    def power_off(self) -> int:
        """Machine teardown hook: every live task dies instantly, as if
        the node lost power.  Returns the number of tasks killed.

        Unlike :meth:`signal_task` this charges *nothing* — a dead
        machine does no work — but it still detaches each task and runs
        the process death hooks, so cross-layer accounting (libmpk pin
        drops, supervisor death counts) stays consistent on the retired
        machine's ledger.  The cluster driver calls this when a
        node-kill fault lands; a powered-off kernel's processes keep
        their state for post-mortem audits, they just never run again.
        """
        from repro.faults.signals import SIGKILL
        info = Siginfo(signo=SIGKILL, si_code=0)
        killed = 0
        for process in self.processes:
            for task in list(process.tasks):
                if task.state == "dead":
                    continue
                task.exit_signal = info
                task._task_works.clear()
                # Same ordering contract as _execute_kill: detach
                # before the hooks, so a hook that wakes wait queues
                # cannot wake the task being killed.
                process.detach_task(task)
                for hook in list(process.task_death_hooks):
                    hook(task, info)
                process.exit_task(task)
                killed += 1
        return killed

    # ------------------------------------------------------------------
    # Syscalls: memory mapping.
    # ------------------------------------------------------------------

    @traced("kernel.sys_mmap")
    def sys_mmap(self, task: Task, length: int, prot: int,
                 flags: int = 0, addr: int | None = None) -> int:
        self._enter(task)
        address, stats = task.process.mm.mmap(length, prot, flags, addr)
        self._mmap_site.charge(
            self.costs.mmap_base
            + stats.pages_mapped * self.costs.mmap_per_page)
        return address

    def create_shared_object(self, name: str, size: int):
        """memfd_create-style: a kernel-owned shared memory object."""
        from repro.kernel.shm import SharedObject
        return SharedObject(name=name, size=size)

    @traced("kernel.sys_mmap_shared")
    def sys_mmap_shared(self, task: Task, shared, prot: int,
                        addr: int | None = None) -> int:
        """Map a shared object (MAP_SHARED) into the caller's space."""
        self._enter(task)
        base = task.process.mm.mmap_shared_object(shared, prot,
                                                  addr=addr)
        self.clock.charge(self.costs.mmap_base
                          + shared.num_pages * self.costs.mmap_per_page,
                          site="kernel.mmap.shared")
        return base

    @traced("kernel.sys_munmap")
    def sys_munmap(self, task: Task, addr: int, length: int) -> None:
        self._enter(task)
        stats = task.process.mm.munmap(addr, length)
        self._munmap_site.charge(
            self.costs.munmap_base
            + stats.pages_unmapped * self.costs.munmap_per_page)
        self.scheduler.tlb_shootdown(task.process, task)

    # ------------------------------------------------------------------
    # Syscalls: protection.
    # ------------------------------------------------------------------

    @traced("kernel.sys_mprotect")
    def sys_mprotect(self, task: Task, addr: int, length: int,
                     prot: int) -> None:
        """mprotect(2), including the Linux-4.14 execute-only behaviour:
        a PROT_EXEC-only request is implemented with a protection key and
        is effective only for the calling thread (the §3.3 hole)."""
        self._enter(task)
        if prot == PROT_EXEC:
            self._make_execute_only(task, addr, length)
            return
        stats = task.process.mm.protect(addr, length, prot)
        self._charge_protect(stats)
        self._protect_shootdown(task.process, task, stats)

    @traced("kernel.sys_pkey_mprotect")
    def sys_pkey_mprotect(self, task: Task, addr: int, length: int,
                          prot: int, pkey: int) -> None:
        """pkey_mprotect(2): mprotect + pkey assignment.

        Per the paper's observation, a user thread may not reset a key to
        zero (the default key of new pages); the key must be allocated.
        """
        self._enter(task)
        if pkey == DEFAULT_PKEY:
            raise InvalidArgument(
                "pkey_mprotect cannot reset a protection key to 0")
        if not task.process.pkeys.is_allocated(pkey):
            raise InvalidArgument(f"pkey {pkey} is not allocated")
        stats = task.process.mm.protect(addr, length, prot, pkey=pkey)
        self._charge_protect(stats, pkey_variant=True)
        self._protect_shootdown(task.process, task, stats)

    def _charge_protect(self, stats: ProtectStats,
                        pkey_variant: bool = False) -> None:
        """Itemized mprotect body: each Table-1 component is charged to
        its own site so the breakdown shows *where* protect time goes."""
        costs = self.costs
        self._mprotect_base_site.charge(costs.mprotect_base)
        if stats.vmas_found:
            self._vma_find_site.charge(stats.vmas_found * costs.vma_find)
        if stats.splits:
            self._vma_split_site.charge(stats.splits * costs.vma_split)
        if stats.pages_updated:
            self._pte_update_site.charge(
                stats.pages_updated * costs.pte_update)
        if pkey_variant:
            self._pkey_check_site.charge(costs.pkey_mprotect_extra)

    def _protect_shootdown(self, process, task: Task,
                           stats: ProtectStats) -> None:
        """Invalidate remote TLBs after an mprotect-family call.

        Small ranges get the precise flavour — per-core cost is one
        INVLPG per *range* page (Linux's flush_tlb_range walks the whole
        virtual range), dropping only the translations that can actually
        be resident (``stats.vpns``).  Ranges where the INVLPG total
        exceeds a full flush full-flush instead, as the kernel would.
        """
        if (stats.pages_updated * self.costs.tlb_flush_page
                <= self.costs.tlb_flush_full):
            self.scheduler.tlb_shootdown(process, task, full=False,
                                         vpns=stats.vpns,
                                         charge_pages=stats.pages_updated)
        else:
            self.scheduler.tlb_shootdown(process, task)

    def _make_execute_only(self, task: Task, addr: int, length: int) -> None:
        """Linux's MPK-backed execute-only memory.

        x86 page bits cannot express execute-without-read, so the kernel
        allocates a dedicated key, maps the pages readable+executable at
        the PTE level with that key, and denies the key in the *calling
        thread's* PKRU.  Sibling threads' PKRUs are untouched — the
        synchronization gap the paper demonstrates.
        """
        process = task.process
        xo_key = process.pkeys.reserve_execute_only()
        stats = process.mm.protect(addr, length, PROT_EXEC, pkey=xo_key,
                                   pte_prot=PROT_READ | PROT_EXEC)
        self._charge_protect(stats, pkey_variant=True)
        task.set_pkru_rights_from_kernel(xo_key, KEY_RIGHTS_NONE)
        self._protect_shootdown(process, task, stats)

    # ------------------------------------------------------------------
    # Syscalls: protection keys.
    # ------------------------------------------------------------------

    @traced("kernel.sys_pkey_alloc")
    def sys_pkey_alloc(self, task: Task, flags: int = 0,
                       init_rights: int = 0) -> int:
        self._enter(task)
        key = task.process.pkeys.alloc(flags, init_rights)
        self._pkey_alloc_site.charge(self.costs.pkey_alloc_kernel)
        # The kernel installs the requested initial rights in the calling
        # thread's PKRU before returning (an xstate write, part of the
        # measured syscall cost, not a userspace WRPKRU).
        task.set_pkru_rights_from_kernel(key, init_rights)
        return key

    @traced("kernel.sys_pkey_free")
    def sys_pkey_free(self, task: Task, pkey: int) -> None:
        """pkey_free(2).  Faithfully does NOT scrub PTEs or PKRUs: pages
        still tagged with the freed key silently join whatever group the
        key is next allocated for (§3.1)."""
        self._enter(task)
        task.process.pkeys.free(pkey)
        self._pkey_free_site.charge(self.costs.pkey_free_kernel)

    # ------------------------------------------------------------------
    # Kernel-internal helpers (used by libmpk's kernel component).
    # ------------------------------------------------------------------

    def ktask_work_add(self, target: Task, work) -> None:
        """In-kernel task_work_add(): queue work on another task."""
        target.task_work_add(work)
        self._task_work_add_site.charge(self.costs.task_work_add)

    def kick(self, target: Task) -> bool:
        """Send a rescheduling IPI; charge the caller's ack wait if the
        target was actually running (lazy sync, Figure 7 steps 3-5)."""
        sent = self.scheduler.send_resched_ipi(target)
        if sent:
            self._ipi_ack_wait_site.charge(self.costs.resched_ack_wait)
        return sent

    # ------------------------------------------------------------------
    # Signal delivery (the fault plane; see repro.faults.signals).
    # ------------------------------------------------------------------

    def deliver_fault(self, task: Task, fault: MachineFault) -> bool:
        """Convert an MMU fault into a SIGSEGV delivered to ``task``.

        The trap path: build the siginfo, queue the handler invocation
        as task_work, and drive the task through the kernel-exit path
        (exactly how Linux delivers a synchronous signal — the fault
        returns to userspace *into* the handler).  Returns True when
        the handler resolved the fault (the caller retries the access).
        Raises :class:`~repro.errors.TaskKilled` when the signal was
        unhandled, the handler declined-by-default (no handler for
        SIGSEGV), or a second fault arrived mid-handler.
        """
        info = siginfo_from_fault(fault)
        self.clock.charge(self.costs.signal_deliver,
                          site="kernel.signal.deliver")
        if task._in_signal_handler:
            # A fault while the handler runs: double fault, no recovery.
            self._execute_kill(task, info)
            raise TaskKilled(
                f"task {task.tid} killed by nested {info.describe()} "
                "inside its signal handler", tid=task.tid, siginfo=info)
        outcome = {"retry": False}
        self.ktask_work_add(task, self._signal_work(info, outcome))
        self.scheduler.kernel_exit(task)
        if task.state == "dead":
            raise TaskKilled(
                f"task {task.tid} killed by unhandled {info.describe()}",
                tid=task.tid, siginfo=info)
        return outcome["retry"]

    def signal_task(self, target: Task, info: Siginfo) -> None:
        """Cross-thread signal (tgkill analogue): queue the handler
        invocation on ``target`` and kick it through the kernel-exit
        path if it is running; a sleeping target handles the signal at
        its next context-switch-in.  An unhandled signal kills the
        target without unwinding the sender."""
        self.clock.charge(self.costs.signal_deliver,
                          site="kernel.signal.deliver")
        self.ktask_work_add(target, self._signal_work(info, {}))
        self.kick(target)

    def _signal_work(self, info: Siginfo, outcome: dict):
        """The task_work that runs the handler at kernel exit."""
        def work(task: Task) -> None:
            handler = task._sigactions.get(info.signo)
            if handler is None:
                self._execute_kill(task, info)
                return
            # Sigframe setup: snapshot PKRU into the saved context the
            # handler may patch; sigreturn installs whatever it holds,
            # or keeps the snapshot and raises if that is no 32-bit
            # value.
            info.saved_pkru = saved = task.pkru
            task._in_signal_handler = True
            try:
                with task.trusted_gate():
                    result = handler(task, info)
            finally:
                task._in_signal_handler = False
                if task.state != "dead":
                    pkru = info.saved_pkru
                    valid = (isinstance(pkru, int)
                             and 0 <= pkru <= 0xFFFF_FFFF)
                    task.pkru = pkru if valid else saved
                    if task.running:
                        self.machine.core(task.core_id).load_pkru(
                            task.pkru)
                    self.clock.charge(self.costs.sigreturn,
                                      site="kernel.signal.sigreturn")
                    if not valid:
                        raise ValueError(
                            f"sigreturn: saved PKRU {pkru!r} is not a "
                            "32-bit value")
            outcome["retry"] = bool(result)
        return work

    def _execute_kill(self, task: Task, info: Siginfo) -> None:
        """Terminate ``task`` from kernel context: run death hooks (so
        libmpk unpins its groups), drop pending work, leave the core.
        The *process* stays fully usable."""
        if task.state == "dead":
            return
        self.clock.charge(self.costs.signal_kill,
                          site="kernel.signal.kill")
        task.exit_signal = info
        task._task_works.clear()
        # Detach first: the death hooks may wake wait queues (libmpk's
        # pin-drop does), and a dying task still parked there would be
        # woken — stealing a wake from a live waiter and landing a dead
        # task in a run queue.
        task.process.detach_task(task)
        for hook in list(task.process.task_death_hooks):
            hook(task, info)
        task.process.exit_task(task)

    # ------------------------------------------------------------------

    def _enter(self, task: Task) -> None:
        """Kernel entry: validate the caller and charge the round trip."""
        if task.core_id is None:
            raise RuntimeError(
                f"syscall from task {task.tid} which is not on a core")
        self._entry_exit_site.charge(self._syscall_overhead)
