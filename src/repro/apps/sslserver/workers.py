"""Worker-pool crash isolation for the HTTPS server (the fault plane's
application-level payoff).

With libmpk guarding the private-key heap, a compromised or buggy
request handler that touches the key heap outside an open domain takes
a ``SEGV_PKUERR`` — and the right response is Apache's, not a process
exit: contain the blast radius to one worker.  Two containment
policies, matching how real servers configure it:

* ``"abort"`` — each worker installs a SIGSEGV handler that raises
  :class:`RequestAborted`, unwinding past the faulting access (the
  siglongjmp pattern).  The worker survives and serves the next
  request.
* ``"kill"`` — workers only opt into signal *semantics*: the unhandled
  signal kills the worker cleanly
  (:class:`~repro.errors.TaskKilled`), libmpk's death hook unpins its
  domains, and the pool respawns a fresh worker in its slot.

Either way the process — and every other worker — keeps serving.
"""

from __future__ import annotations

import typing

from repro.errors import TaskKilled
from repro.faults.signals import SIGSEGV, Siginfo

if typing.TYPE_CHECKING:
    from repro.apps.sslserver.httpd import HttpServer
    from repro.kernel.kcore import Kernel, Process
    from repro.kernel.task import Task


class RequestAborted(Exception):
    """A worker's signal handler abandoned the current request."""

    def __init__(self, info: Siginfo) -> None:
        super().__init__(f"request aborted: {info.describe()}")
        self.info = info


def _abort_request(task: "Task", info: Siginfo):
    raise RequestAborted(info)


class WorkerPool:
    """A fixed pool of worker threads serving requests round-robin."""

    def __init__(self, kernel: "Kernel", process: "Process",
                 server: "HttpServer | None", workers: int = 2,
                 crash_policy: str = "abort",
                 schedule: bool = True) -> None:
        if crash_policy not in ("abort", "kill"):
            raise ValueError(f"unknown crash policy: {crash_policy!r}")
        self.kernel = kernel
        self.process = process
        self.server = server
        self.crash_policy = crash_policy
        self._schedule = schedule
        self.workers: list["Task"] = [self._spawn() for _ in range(workers)]
        self._next = 0
        self._engine = None
        self.requests_ok = 0
        self.requests_aborted = 0
        self.workers_killed = 0

    def _spawn(self) -> "Task":
        worker = self.process.spawn_task()
        if self._schedule:
            self.kernel.scheduler.schedule(worker, charge=False)
        if self.crash_policy == "abort":
            worker.sigaction(SIGSEGV, _abort_request)
        else:
            worker.enable_signals()
        return worker

    def attach_engine(self, engine, cores: list[int]) -> None:
        """Register every worker with a serving engine, round-robin
        across ``cores``.  Build the pool with ``schedule=False`` so
        the engine owns core placement from the start; the signal
        containment policies apply unchanged to engine jobs
        (``RequestAborted`` drops the connection, a killed worker
        leaves the engine's pool).  The engine is kept so
        :meth:`stats` can report requests served and workers killed
        through it — engine-mode requests never pass :meth:`dispatch`,
        and a
        supervisor block claiming ``requests_ok: 0`` after thousands
        of completions is an accounting hole, not a quiet pool."""
        self._engine = engine
        for i, worker in enumerate(self.workers):
            engine.add_worker(worker, core_id=cores[i % len(cores)])

    def dispatch(self, request) -> bool:
        """Run ``request(worker_task)`` on the next worker.

        Returns True when the request completed; False when it was
        contained (aborted by the handler, or the worker was killed and
        respawned).  Anything else propagates — containment is only for
        signal-shaped failures.
        """
        for _ in range(len(self.workers)):
            slot = self._next % len(self.workers)
            self._next += 1
            if self.workers[slot].state != "dead":
                break
        else:
            raise RuntimeError("no live worker in the pool (restart "
                               "budget exhausted)")
        worker = self.workers[slot]
        try:
            request(worker)
        except RequestAborted:
            self.requests_aborted += 1
            return False
        except TaskKilled:
            self.workers_killed += 1
            self._respawn_slot(slot)
            return False
        self.requests_ok += 1
        return True

    def _respawn_slot(self, slot: int) -> None:
        """Refill a killed worker's slot (the supervisor subclass
        applies a restart budget here)."""
        self.workers[slot] = self._spawn()

    def serve(self, response_size: int = 1024) -> bool:
        """Dispatch one ordinary HTTPS request."""
        return self.dispatch(
            lambda worker: self.server.handle_request(worker,
                                                      response_size))

    def live_workers(self) -> int:
        return sum(1 for worker in self.workers if worker.state != "dead")

    def stats(self) -> dict:
        # Requests flow through dispatch() (synchronous mode) or the
        # attached engine (serving mode), and each path counts its own
        # kills; the totals cover both paths.
        requests_ok = self.requests_ok
        requests_aborted = self.requests_aborted
        workers_killed = self.workers_killed
        if self._engine is not None:
            requests_ok += self._engine.completed
            requests_aborted += self._engine.aborted
            workers_killed += self._engine.killed
        return {
            "workers": len(self.workers),
            "live_workers": self.live_workers(),
            "crash_policy": self.crash_policy,
            "requests_ok": requests_ok,
            "requests_aborted": requests_aborted,
            "workers_killed": workers_killed,
        }


class Supervisor(WorkerPool):
    """A worker pool under supervision: restarts are budgeted.

    A plain :class:`WorkerPool` respawns a killed worker unconditionally
    — fine for fault drills, unbounded for a crash loop.  The
    supervisor adds the resilience-layer policy:

    * **death detection** — a process-level task-death hook counts
      every supervised worker the kernel kills (libmpk's own death hook
      has already dropped the dead thread's pins by then);
    * **capped-exponential backoff** — the ``n``-th restart charges
      ``min(backoff_base * 2**n, backoff_cap)`` cycles at
      ``apps.supervisor.backoff`` before the respawn itself
      (``worker_respawn`` cycles at ``apps.supervisor.respawn``);
    * **restart budget** — after ``max_restarts`` restarts the
      supervisor gives up on further deaths: the slot stays dead, the
      caller degrades (sheds, reports) instead of thrashing.

    Accounting is audited: :meth:`mpk_init`-style, construction
    registers an obs invariant ``supervisor.pid<N>`` asserting
    ``deaths == restarts + gave_up + pending`` so no worker death can
    go unaccounted.  The serving engine consumes :meth:`revive` via
    ``ServingEngine.attach_supervisor``; the synchronous
    :meth:`dispatch` path applies the same budget through
    ``_respawn_slot``.
    """

    def __init__(self, kernel: "Kernel", process: "Process",
                 server: "HttpServer | None" = None, workers: int = 2,
                 crash_policy: str = "kill", schedule: bool = False,
                 max_restarts: int = 8,
                 backoff_base: float | None = None,
                 backoff_cap: float | None = None) -> None:
        if max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
        super().__init__(kernel, process, server, workers=workers,
                         crash_policy=crash_policy, schedule=schedule)
        costs = kernel.costs
        self.max_restarts = max_restarts
        self.backoff_base = (costs.context_switch if backoff_base is None
                             else backoff_base)
        self.backoff_cap = (64 * self.backoff_base if backoff_cap is None
                            else backoff_cap)
        self.deaths = 0
        self.restarts = 0
        self.gave_up = 0
        self._worker_tids = {worker.tid for worker in self.workers}
        self._pending: set[int] = set()  # dead, not yet (not) revived
        process.task_death_hooks.append(self._on_worker_death)
        kernel.machine.obs.register_invariant(
            f"supervisor.pid{process.pid}", self._check_accounting)

    # -- death detection ------------------------------------------------

    def _on_worker_death(self, task: "Task", info: Siginfo) -> None:
        if task.tid not in self._worker_tids:
            return  # not ours (e.g. the process main task)
        self.deaths += 1
        self._pending.add(task.tid)
        self.kernel.machine.obs.record_metric(
            "apps.supervisor.death", 1.0)

    def _check_accounting(self) -> str | None:
        expected = self.restarts + self.gave_up + len(self._pending)
        if self.deaths != expected:
            return (f"supervisor accounting broken: {self.deaths} "
                    f"deaths != {self.restarts} restarts + "
                    f"{self.gave_up} gave_up + {len(self._pending)} "
                    f"pending")
        return None

    # -- the restart policy ---------------------------------------------

    def revive(self, dead_task: "Task") -> "Task | None":
        """Decide one dead worker's fate: a fresh replacement task
        (backoff + respawn charged), or None once the budget is spent.
        Replaces the task in this pool's slot list when present."""
        self._pending.discard(dead_task.tid)
        clock = self.kernel.clock
        if self.restarts >= self.max_restarts:
            self.gave_up += 1
            self.kernel.machine.obs.record_metric(
                "apps.supervisor.gave_up", 1.0)
            return None
        delay = min(self.backoff_base * (2 ** self.restarts),
                    self.backoff_cap)
        clock.charge(delay, site="apps.supervisor.backoff")
        clock.charge(self.kernel.costs.worker_respawn,
                     site="apps.supervisor.respawn")
        self.restarts += 1
        replacement = self._spawn()
        self._worker_tids.add(replacement.tid)
        for i, worker in enumerate(self.workers):
            if worker is dead_task:
                self.workers[i] = replacement
                break
        self.kernel.machine.obs.record_metric(
            "apps.supervisor.restart", 1.0)
        return replacement

    def _respawn_slot(self, slot: int) -> None:
        """Budgeted slot refill for the synchronous dispatch path; on
        a spent budget the slot stays dead (dispatch skips it)."""
        self.revive(self.workers[slot])

    def stats(self) -> dict:
        data = super().stats()
        data.update({
            "deaths": self.deaths,
            "restarts": self.restarts,
            "gave_up": self.gave_up,
            "max_restarts": self.max_restarts,
        })
        return data
