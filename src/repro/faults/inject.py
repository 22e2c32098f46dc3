"""Deterministic failure injection over the charge-site stream.

Every simulated cycle flows through the clock's one charge body,
:meth:`~repro.hw.cycles.Site.charge`, with a dotted
``layer.op.component`` site label, so "the Nth PTE update
of this run" or "the next keycache lookup" is a well-defined, exactly
reproducible point in time.  :class:`FaultInjector` is a
:class:`~repro.obs.ChargeSink` that counts occurrences per site and
fires *plans* — raise an exception, stretch the operation by extra
cycles, or run an arbitrary callback — when a plan's (site, occurrence)
pair comes up.

Two ways to arm it:

* ``arm(site, occurrence)`` — fire exactly at the Nth hit (1-based) of
  a site; patterns like ``"kernel.mprotect.*"`` match a whole
  subsystem.  :func:`repro.faults.script.arm_script` arms a whole
  recorded :class:`~repro.faults.script.FaultEvent` script this way.
* exhaustive sweeps live one level up, in
  :mod:`repro.faults.campaign`, which replays a workload once per
  recorded occurrence.

Plans are one-shot by default, which is what makes recovery code
testable: the rollback path re-executes the same sites (PTE resets,
metadata repair writes) and must not re-trigger the injection that
unwound it.  While a plan's action runs, the injector suspends itself,
so an action that charges cycles (the delay action re-charges the
victim site) cannot recurse.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

from repro.errors import InjectedFault
from repro.obs import ChargeSink


@dataclass
class InjectionEvent:
    """What a firing plan's action gets to see."""

    site: str
    occurrence: int     # 1-based per-site hit count at firing time
    cycles: float
    now: float
    seq: int


@dataclass
class InjectionPlan:
    """One armed injection: fire ``action`` at hit ``occurrence`` of
    any site matching ``pattern`` (one-shot unless ``repeat``)."""

    pattern: str
    occurrence: int
    action: typing.Callable[[InjectionEvent], None]
    repeat: bool = False
    fired: int = 0
    label: str = ""

    def matches(self, site: str, occurrence: int) -> bool:
        if not self.repeat and self.fired:
            return False
        return occurrence == self.occurrence and _site_matches(
            self.pattern, site)


def _site_matches(pattern: str, site: str) -> bool:
    """Exact match, or a ``prefix.*`` subsystem wildcard."""
    if pattern.endswith(".*"):
        return site.startswith(pattern[:-1]) or site == pattern[:-2]
    return site == pattern


# ---------------------------------------------------------------------------
# Actions.
# ---------------------------------------------------------------------------

def raise_error(exc_type: type = InjectedFault, message: str | None = None):
    """Action: raise ``exc_type`` at the injection point.

    :class:`~repro.errors.InjectedFault` (the default) gets the firing
    site/occurrence attached; other exception types (``OutOfMemory``,
    ``PkeyFault``...) are constructed with the message alone.
    """
    def action(event: InjectionEvent) -> None:
        text = message or (f"injected failure at {event.site} "
                           f"(occurrence {event.occurrence})")
        if issubclass(exc_type, InjectedFault):
            raise exc_type(text, site=event.site,
                           occurrence=event.occurrence)
        raise exc_type(text)
    return action


def delay(clock, extra_cycles: float):
    """Action: stretch the operation — charge ``extra_cycles`` more to
    the victim site (a slow IPI ack, a contended lock, an SMI)."""
    def action(event: InjectionEvent) -> None:
        clock.charge(extra_cycles, site=event.site)
    return action


def kill_task(kernel, victim: typing.Callable[[], object]):
    """Action: deliver a fatal ``SEGV_PKUERR`` to ``victim()`` through
    the kernel's real signal path, so death hooks (libmpk pin drops,
    supervisor accounting) run exactly as for an organic crash.

    ``victim`` is resolved at firing time (e.g. ``lambda:
    engine.current_task``); when it returns None ("nobody is running
    right now") the event fizzles deterministically — the occurrence
    count still burned.  Resolving to an *already-dead* task, or to a
    task living under a different kernel than the one the action was
    armed against, is a script bug, not a miss: it raises
    :class:`~repro.errors.InjectionError` instead of silently
    no-op'ing, so a chaos plan aimed at the wrong victim cannot report
    a survived storm that never landed.  A task that dies (no handler
    installed) surfaces as :class:`~repro.errors.TaskKilled` at the
    injection point; a task whose SIGSEGV handler absorbs the signal
    keeps running (or unwinds however the handler decides).
    """
    from repro.errors import InjectionError, TaskKilled
    from repro.faults.signals import SEGV_PKUERR, SIGSEGV, Siginfo

    def action(event: InjectionEvent) -> None:
        task = victim()
        if task is None:
            return
        if task.state == "dead":
            raise InjectionError(
                f"kill_task victim resolved to task {task.tid}, which "
                f"is already dead (at {event.site} occurrence "
                f"{event.occurrence})",
                site=event.site, occurrence=event.occurrence)
        if task.process.kernel is not kernel:
            raise InjectionError(
                f"kill_task victim resolved to task {task.tid} of a "
                f"foreign kernel (at {event.site} occurrence "
                f"{event.occurrence}); arm the plan against the "
                f"victim's own kernel",
                site=event.site, occurrence=event.occurrence)
        info = Siginfo(SIGSEGV, SEGV_PKUERR, si_addr=0)
        kernel.signal_task(task, info)
        if task.state == "dead":
            raise TaskKilled(
                f"injected kill of task {task.tid} at {event.site} "
                f"(occurrence {event.occurrence})",
                tid=task.tid, siginfo=info)
    return action


# ---------------------------------------------------------------------------
# The injector sink.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiredRecord:
    """Journal entry for one plan firing."""

    site: str
    occurrence: int
    label: str
    now: float


class FaultInjector(ChargeSink):
    """Charge sink that fires scripted failures at exact charge sites.

    Attach with ``machine.obs.add_sink(injector)`` *after* building the
    system under test, so setup charges do not skew occurrence counts;
    detach with ``remove_sink`` before auditing.
    """

    def __init__(self) -> None:
        self._counts: dict[str, int] = {}
        self._plans: list[InjectionPlan] = []
        self._suspended = False
        self.fired: list[FiredRecord] = []

    # ------------------------------------------------------------------
    # Arming.
    # ------------------------------------------------------------------

    def arm(self, site: str, occurrence: int = 1, action=None,
            repeat: bool = False, label: str = "") -> InjectionPlan:
        """Fire ``action`` at the ``occurrence``-th hit of ``site``.

        ``action`` defaults to raising :class:`InjectedFault`;
        ``site`` may end in ``.*`` to match a subsystem prefix.
        """
        if occurrence < 1:
            raise ValueError("occurrence is 1-based")
        plan = InjectionPlan(pattern=site, occurrence=occurrence,
                             action=action or raise_error(),
                             repeat=repeat,
                             label=label or f"{site}@{occurrence}")
        self._plans.append(plan)
        return plan

    # ------------------------------------------------------------------
    # Introspection.
    # ------------------------------------------------------------------

    def occurrences(self, site: str) -> int:
        """Hits of ``site`` seen so far (injection clock, not census)."""
        return self._counts.get(site, 0)

    @property
    def counts(self) -> dict[str, int]:
        return dict(self._counts)

    # ------------------------------------------------------------------
    # ChargeSink.
    # ------------------------------------------------------------------

    def on_charge(self, site: str, cycles: float, now: float,
                  seq: int) -> None:
        if self._suspended:
            return
        count = self._counts.get(site, 0) + 1
        self._counts[site] = count
        event = InjectionEvent(site=site, occurrence=count,
                               cycles=cycles, now=now, seq=seq)
        for plan in self._plans:
            if plan.matches(site, count):
                plan.fired += 1
                self.fired.append(FiredRecord(site=site, occurrence=count,
                                              label=plan.label, now=now))
                self._suspended = True
                try:
                    plan.action(event)
                finally:
                    self._suspended = False

