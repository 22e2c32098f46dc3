"""Fault scripts: one event type, one JSON codec, one arm loop.

A fault script is data — a tuple of :class:`FaultEvent` — generated
from a seed (or written by hand) and recorded in the BENCH file, so a
failing run is replayed exactly by decoding the recorded script and
arming it again.  The layers that soak under scripts (the serving
plane in :mod:`repro.bench.chaos`, the cluster in
:mod:`repro.bench.cluster`) each supply an *action table*: a mapping
from event kind to a factory that builds the injector action for one
event.  :func:`arm_script` turns a script plus a table into armed
:class:`~repro.faults.inject.FaultInjector` plans.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass

if typing.TYPE_CHECKING:
    from repro.faults.inject import FaultInjector


@dataclass(frozen=True)
class FaultEvent:
    """One scripted failure: fire ``kind`` at the ``occurrence``-th
    charge of ``site``.  Which of the other fields an event uses is up
    to its kind's action factory."""

    kind: str                   # a key of the caller's action table
    site: str                   # trigger, e.g. "node0.net.link.rx"
    occurrence: int             # 1-based
    node: str = ""              # victim node
    peer: str = ""              # other end of a partition
    duration: float = 0.0       # partition window, cycles
    extra_cycles: float = 0.0   # delay size, cycles


def script_to_json(script: typing.Iterable[FaultEvent],
                   fields: typing.Sequence[str]) -> list[dict]:
    """Encode ``script``: ``kind``/``site``/``occurrence`` plus the
    caller's ``fields``, in that order."""
    return [{"kind": event.kind, "site": event.site,
             "occurrence": event.occurrence,
             **{name: getattr(event, name) for name in fields}}
            for event in script]


def script_from_json(data: typing.Iterable[dict]
                     ) -> tuple[FaultEvent, ...]:
    """Decode a recorded script; absent fields take their defaults."""
    return tuple(
        FaultEvent(kind=entry["kind"], site=entry["site"],
                   occurrence=int(entry["occurrence"]),
                   node=entry.get("node", ""),
                   peer=entry.get("peer", ""),
                   duration=float(entry.get("duration", 0.0)),
                   extra_cycles=float(entry.get("extra_cycles", 0.0)))
        for entry in data)


def arm_script(injector: "FaultInjector",
               script: typing.Iterable[FaultEvent],
               actions: typing.Mapping[
                   str, typing.Callable[[FaultEvent], typing.Callable]]
               ) -> None:
    """Arm one plan per event, its action built by
    ``actions[event.kind](event)`` and labelled
    ``kind:site@occurrence``.  An unknown kind raises ValueError before
    any factory runs or any plan is armed."""
    script = tuple(script)
    for event in script:
        if event.kind not in actions:
            raise ValueError(f"unknown fault event kind: {event.kind!r}")
    for event in script:
        injector.arm(event.site, event.occurrence,
                     action=actions[event.kind](event),
                     label=f"{event.kind}:{event.site}@{event.occurrence}")
