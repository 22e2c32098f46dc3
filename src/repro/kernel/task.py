"""Tasks (threads) with per-thread PKRU state and task_work callbacks.

Each task owns the architectural PKRU value it runs with; the scheduler
loads it into the core at context-switch-in.  Tasks also carry a
``task_work`` list — callbacks the kernel runs just before the task
returns to userspace — which is the hook libmpk's ``do_pkey_sync()``
uses for lazy inter-thread PKRU synchronization (§4.4, Figure 7).
"""

from __future__ import annotations

import dataclasses
import typing
from collections import deque

from repro.errors import MachineFault, SandboxViolation
from repro.hw.pkru import PKRU, PkruEncodeMemo, with_key_rights


class _TrustedGate:
    """Context manager marking execution inside a libmpk call gate.

    Re-entrant: each task keeps one instance and every
    :meth:`Task.trusted_gate` returns it, so nesting just counts."""

    def __init__(self, task: "Task") -> None:
        self._task = task

    def __enter__(self) -> None:
        self._task._gate_depth += 1

    def __exit__(self, *exc_info: object) -> None:
        self._task._gate_depth -= 1

if typing.TYPE_CHECKING:
    from repro.kernel.kcore import Kernel, Process


@dataclasses.dataclass
class Waiter:
    """One parked task: callbacks plus the timing the resilience layer
    needs (when it parked, and the deadline after which it times out)."""

    task: "Task"
    on_wake: typing.Callable | None = None
    deadline: float | None = None     # absolute cycles; None = forever
    on_timeout: typing.Callable | None = None
    parked_at: float = 0.0            # cycles at add() time
    seq: int = 0                      # queue-wide arrival ordinal


class WaitQueue:
    """A futex-style FIFO wait queue with deadline-aware parking.

    Waiters park here with an optional ``on_wake(task)`` callback; a
    waker pops them in arrival order.  The queue itself never touches
    core placement — blocking a *running* task off its core is the
    scheduler's (or the serving engine's) job — it only tracks who is
    waiting and notifies them, so the same primitive backs both the
    synchronous ``mpk_begin_wait`` retry path and the serving engine's
    genuinely-blocking workers.

    Deadlines make lost wakeups survivable: a waiter parked with
    ``deadline=`` (absolute cycles) is eligible for :meth:`expire`,
    which times waiters out in *deadline* order (ties broken by arrival
    order), independent of the FIFO wake order.  A wake always beats a
    pending timeout: once :meth:`wake_one`/:meth:`wake_all` pops a
    waiter it can no longer expire, so the wake-vs-timeout race is
    resolved by whichever the (deterministic) caller drives first.

    Dead tasks never come back from a wake: a task killed while parked
    is normally detached by the kill path, and as defense in depth the
    wake/expire paths skip-and-drop any dead entry rather than waking
    it (or worse, letting it consume a wake a live waiter needed).
    """

    def __init__(self, name: str = "wait") -> None:
        self.name = name
        self._waiters: deque[Waiter] = deque()
        self._next_seq = 0
        self.stats_waits = 0
        self.stats_wakes = 0
        self.stats_timeouts = 0
        self.stats_dead_reaped = 0

    def __len__(self) -> int:
        return len(self._waiters)

    def waiters(self) -> list["Task"]:
        return [entry.task for entry in self._waiters]

    def entries(self) -> list[Waiter]:
        """Snapshot of the parked entries (watchdog/introspection use)."""
        return list(self._waiters)

    def add(self, task: "Task", on_wake: typing.Callable | None = None,
            deadline: float | None = None,
            on_timeout: typing.Callable | None = None,
            now: float = 0.0) -> Waiter:
        """Park ``task`` on the queue (FIFO).

        ``deadline`` (absolute cycles) opts the waiter into
        :meth:`expire`; ``on_timeout(task)`` fires instead of
        ``on_wake`` when it does.  ``now`` stamps ``parked_at`` so the
        watchdog can measure how long the waiter has been parked.
        """
        if any(entry.task is task for entry in self._waiters):
            raise RuntimeError(
                f"task {task.tid} is already waiting on {self.name!r}")
        if task.waiting_on is not None:
            raise RuntimeError(
                f"task {task.tid} is already waiting on "
                f"{task.waiting_on.name!r}")
        task.waiting_on = self
        entry = Waiter(task=task, on_wake=on_wake, deadline=deadline,
                       on_timeout=on_timeout, parked_at=now,
                       seq=self._next_seq)
        self._next_seq += 1
        self._waiters.append(entry)
        self.stats_waits += 1
        return entry

    def remove(self, task: "Task") -> bool:
        """Cancel ``task``'s wait (give-up path).  Returns True when
        the task was actually queued."""
        for i, entry in enumerate(self._waiters):
            if entry.task is task:
                del self._waiters[i]
                task.waiting_on = None
                return True
        return False

    def _wake(self, entry: Waiter) -> "Task":
        task = entry.task
        task.waiting_on = None
        if task.state == "blocked":
            task.state = "runnable"
        self.stats_wakes += 1
        if entry.on_wake is not None:
            entry.on_wake(task)
        return task

    def _pop_live(self) -> Waiter | None:
        """Pop the oldest *live* waiter, dropping dead entries (a task
        killed while parked must neither be woken nor absorb a wake)."""
        while self._waiters:
            entry = self._waiters.popleft()
            if entry.task.state == "dead":
                entry.task.waiting_on = None
                self.stats_dead_reaped += 1
                continue
            return entry
        return None

    def wake_one(self) -> "Task | None":
        """Wake the oldest live waiter; returns it (None when empty)."""
        entry = self._pop_live()
        if entry is None:
            return None
        return self._wake(entry)

    def wake_all(self) -> list["Task"]:
        """Wake every live waiter in FIFO order (the thundering-herd
        flavour — deterministic, and correct for key-exhaustion waits
        where any freed key may satisfy any waiter)."""
        woken = []
        while True:
            entry = self._pop_live()
            if entry is None:
                return woken
            woken.append(self._wake(entry))

    # -- deadlines ------------------------------------------------------

    def next_deadline(self) -> float | None:
        """The earliest deadline among live parked waiters, or None."""
        deadlines = [entry.deadline for entry in self._waiters
                     if entry.deadline is not None
                     and entry.task.state != "dead"]
        return min(deadlines) if deadlines else None

    def timeout(self, task: "Task") -> bool:
        """Expire one specific waiter: remove it and fire its
        ``on_timeout`` callback.  Returns True when the task was
        actually parked (False = it was already woken — wake wins)."""
        for i, entry in enumerate(self._waiters):
            if entry.task is task:
                del self._waiters[i]
                task.waiting_on = None
                if task.state == "blocked":
                    task.state = "runnable"
                self.stats_timeouts += 1
                if entry.on_timeout is not None:
                    entry.on_timeout(task)
                return True
        return False

    def expire(self, now: float) -> list["Task"]:
        """Time out every live waiter whose deadline has passed.

        Expiry order is (deadline, arrival): a waiter with an earlier
        deadline times out first even when it enqueued later.  Dead
        entries are dropped silently; expired waiters leave no residue
        in the queue.
        """
        due = sorted((entry for entry in list(self._waiters)
                      if entry.deadline is not None
                      and entry.deadline <= now),
                     key=lambda e: (e.deadline, e.seq))
        expired = []
        for entry in due:
            if entry not in self._waiters:
                continue  # a callback re-shaped the queue
            self._waiters.remove(entry)
            task = entry.task
            task.waiting_on = None
            if task.state == "dead":
                self.stats_dead_reaped += 1
                continue
            if task.state == "blocked":
                task.state = "runnable"
            self.stats_timeouts += 1
            if entry.on_timeout is not None:
                entry.on_timeout(task)
            expired.append(task)
        return expired

    def __repr__(self) -> str:
        return f"<WaitQueue {self.name!r} waiters={len(self._waiters)}>"


class Task:
    """One thread of a simulated process."""

    _next_tid = 1

    def __init__(self, process: "Process") -> None:
        self.tid = Task._next_tid
        Task._next_tid += 1
        self.process = process
        # The machine's fixed core list and the process's page table,
        # resolved once: loads, stores and WRPKRU index straight in.
        self._cores = process.kernel.machine.cores
        self._page_table = process.mm.page_table
        self.pkru = PKRU.deny_all_but_default()
        # Memoized PKRU encode for the kernel-side right-insertion path
        # (set_pkru_rights_from_kernel: pkey_alloc's initial-rights
        # install).  Invalidated eagerly by every userspace WRPKRU and
        # lazily whenever the base value diverges from the stamp (task
        # switch, signal restore, sync).
        self._pkru_memo = PkruEncodeMemo()
        self.core_id: int | None = None
        self._task_works: deque[typing.Callable[["Task"], None]] = deque()
        self.state = "runnable"
        # The WaitQueue this task is currently parked on, if any.
        self.waiting_on: WaitQueue | None = None
        # While blocked for a hardware key (mpk_begin_wait / the
        # serving engine's blocking_begin): the vkey this task wants.
        # Read back by the watchdog's key_demand() contention export;
        # None when the task is not waiting for a key.
        self.wanted_vkey: int | None = None
        # WRPKRU call-gating (the §7 control-flow-hijack mitigation):
        # when sandboxed, WRPKRU may only execute inside a trusted gate.
        self.wrpkru_sandboxed = False
        self._gate_depth = 0
        self._gate = _TrustedGate(self)
        # Signal state (the fault plane): registered handlers, whether a
        # handler is currently on the (conceptual) signal stack, and the
        # siginfo the task died from, if any.
        self._fault_handler = None
        self._sigactions: dict[int, typing.Callable] = {}
        self._signals_default = False
        self._in_signal_handler = False
        self.exit_signal = None

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self.core_id is not None

    @property
    def kernel(self) -> "Kernel":
        return self.process.kernel

    def _core(self):
        if self.core_id is None:
            raise RuntimeError(
                f"task {self.tid} is not running on any core")
        return self._cores[self.core_id]

    # ------------------------------------------------------------------
    # task_work (kernel-side API).
    # ------------------------------------------------------------------

    def task_work_add(self, work: typing.Callable[["Task"], None]) -> None:
        """Queue ``work`` to run at the task's next return to userspace."""
        self._task_works.append(work)

    def has_pending_task_work(self) -> bool:
        return bool(self._task_works)

    def run_task_works(self) -> int:
        """Drain the task_work queue (kernel exit path).  Returns the
        number of callbacks run; the scheduler charges their cost."""
        count = 0
        while self._task_works:
            work = self._task_works.popleft()
            work(self)
            count += 1
        return count

    # ------------------------------------------------------------------
    # Userspace operations (require the task to be on a core).
    # ------------------------------------------------------------------

    def trusted_gate(self):
        """Enter a trusted WRPKRU call gate (used by libmpk internals).

        Models the binary-scan guarantee that the only executable
        WRPKRU instructions live behind libmpk's entry points.
        """
        return self._gate

    def wrpkru(self, value: int) -> None:
        """Userspace WRPKRU — updates this thread's PKRU only."""
        self._wrpkru(value)

    def _wrpkru(self, value: int, core=None) -> None:
        """WRPKRU behind the sandbox gate, on ``core`` when the caller
        already resolved this task's core.  The gate is checked first,
        so a sandboxed WRPKRU outside a gate is a
        :class:`SandboxViolation` even when the task is off-core."""
        if self.wrpkru_sandboxed and self._gate_depth == 0:
            raise SandboxViolation(
                f"task {self.tid}: WRPKRU outside a trusted call gate")
        if core is None:
            core = self._core()
        core.wrpkru(value)
        self.pkru = pkru = core.pkru
        self._pkru_memo.note_pkru_write(pkru.value)

    def rdpkru(self) -> int:
        return self._core().rdpkru()

    def set_pkru_rights_from_kernel(self, pkey: int, rights: int) -> None:
        """Kernel-side PKRU edit (xstate write, no WRPKRU charge): used
        by pkey_alloc's initial-rights install and execute-only setup;
        the cost is part of the syscall body."""
        self.pkru = self._pkru_memo.encode(self.pkru, pkey, rights)
        if self.running:
            self._core().load_pkru(self.pkru)

    def pkey_set(self, pkey: int, rights: int) -> None:
        """glibc pkey_set(): read-modify-write of this thread's PKRU.

        The new value comes from :func:`with_key_rights` on the core's
        register value (the :class:`PkruEncodeMemo` serves only the
        kernel-side :meth:`set_pkru_rights_from_kernel`: the WRPKRU that
        follows every ``pkey_set`` would invalidate it each time).  A
        bad key or bad rights bits raise ``ValueError``, as
        :meth:`PKRU.with_rights` does.
        """
        core = self._core()
        self._wrpkru(with_key_rights(core.pkru.value, pkey, rights), core)

    def pkey_get(self, pkey: int) -> int:
        """glibc pkey_get(): RDPKRU and extract one key's rights."""
        core = self._core()
        value = core.rdpkru()
        return (value >> (2 * pkey)) & 0x3

    def set_fault_handler(self, handler) -> None:
        """Install a SIGSEGV-handler analogue.

        ``handler(task, fault) -> bool`` runs when a read/write faults;
        returning True means "resolved, retry the access once" (the
        lazy-unlock pattern: the handler opens the right domain), False
        re-raises.  Fetches are not covered (a SIGSEGV on ifetch is not
        recoverable this way on real hardware either).
        """
        self._fault_handler = handler

    # ------------------------------------------------------------------
    # POSIX-style signals (the fault plane; see repro.faults.signals).
    # ------------------------------------------------------------------

    def sigaction(self, signo: int, handler):
        """Register ``handler(task, siginfo)`` for ``signo``; returns
        the previous handler (None unregisters).

        A truthy return from the handler retries the faulting access
        once; a falsy return declines (the raw fault propagates); an
        exception raised by the handler unwinds past the faulting
        access — the siglongjmp recovery pattern.  Registering any
        handler enables signal delivery for this task.
        """
        previous = self._sigactions.get(signo)
        if handler is None:
            self._sigactions.pop(signo, None)
        else:
            self._sigactions[signo] = handler
        return previous

    def enable_signals(self) -> None:
        """Opt into signal *semantics* without a handler: an unhandled
        fault then kills this task cleanly (process survives) instead
        of unwinding the whole simulation — the worker-respawn model."""
        self._signals_default = True

    @property
    def signals_enabled(self) -> bool:
        return self._signals_default or bool(self._sigactions)

    #: Deliveries attempted for one access before giving up on a
    #: handler that keeps claiming success while the fault persists.
    _SIGNAL_RETRIES = 4

    def _recover(self, fault: MachineFault, retry):
        """Resolve a faulted load/store, or re-raise.

        The fault handler gets the first say: if it claims success the
        access is retried once (a second fault propagates).  Otherwise,
        with signals enabled, each delivery the handler accepts retries
        the access, up to :attr:`_SIGNAL_RETRIES` times.  ``retry``
        re-runs the access; it is built only on this slow path.
        """
        handler = self._fault_handler
        if handler is not None and handler(self, fault):
            return retry()  # retry once after the handler fixed it
        if self.signals_enabled:
            for _ in range(self._SIGNAL_RETRIES):
                if not self.kernel.deliver_fault(self, fault):
                    break  # handler declined: surface the raw fault
                try:
                    return retry()
                except MachineFault as again:
                    fault = again
        raise fault

    def read(self, addr: int, length: int) -> bytes:
        """MMU-checked userspace load: straight to the core's MMU; a
        fault goes through :meth:`_recover`."""
        core_id = self.core_id
        if core_id is None:
            self._core()  # raises: not on a core
        try:
            return self._cores[core_id].read(self._page_table, addr, length)
        except MachineFault as fault:
            return self._recover(fault, lambda: self._core().read(
                self._page_table, addr, length))

    def write(self, addr: int, data: bytes) -> None:
        """MMU-checked userspace store: straight to the core's MMU; a
        fault goes through :meth:`_recover`."""
        core_id = self.core_id
        if core_id is None:
            self._core()  # raises: not on a core
        try:
            self._cores[core_id].write(self._page_table, addr, data)
        except MachineFault as fault:
            self._recover(fault, lambda: self._core().write(
                self._page_table, addr, data))

    def fetch(self, addr: int, length: int = 1) -> bytes:
        """MMU-checked instruction fetch (PKRU-exempt)."""
        return self._core().fetch(self._page_table, addr, length)

    def try_read(self, addr: int, length: int) -> bytes | None:
        """Read that returns None instead of faulting (attack probing)."""
        try:
            return self.read(addr, length)
        except MachineFault:
            return None

    def __repr__(self) -> str:
        where = f"core {self.core_id}" if self.running else self.state
        return f"<Task tid={self.tid} {where}>"
