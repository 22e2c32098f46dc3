"""Execution tracing: cycle-annotated event logs for the whole stack.

``attach_tracer`` records a :class:`TraceEvent` — operation name,
summarized arguments, and the simulated cycles it consumed (inclusive
of nested operations) — for every kernel syscall and/or libmpk API
call.  The instrumented layers emit :class:`~repro.obs.SpanRecord`
spans natively (see :func:`repro.obs.traced`), and a tracer is a
*subscriber* on the machine's :class:`~repro.obs.Observability` spine,
filtered to the requested layers.  Multiple tracers can observe the
same machine concurrently, and detaching one never disturbs another.

Typical use::

    tracer = attach_tracer(kernel, lib)
    lib.mpk_begin(task, 100, PROT_READ)
    ...
    print(format_trace(tracer.events))
    tracer.detach()

The trace is the debugging companion to the cost model: when a
benchmark number looks off, the trace shows exactly which operations
were charged what.  For *where the cycles went* rather than *what was
called*, read the per-site counters on ``machine.obs`` instead.
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.obs import SpanRecord

if typing.TYPE_CHECKING:
    from repro.core.api import Libmpk
    from repro.kernel.kcore import Kernel


@dataclass(frozen=True)
class TraceEvent:
    """One traced call."""

    seq: int
    layer: str          # "kernel" | "libmpk"
    op: str
    start_cycles: float
    cycles: float       # inclusive of nested work
    depth: int          # nesting level at entry
    args: str           # human-readable argument summary

    def __str__(self) -> str:
        indent = "  " * self.depth
        return (f"[{self.start_cycles:>12,.1f}] {indent}{self.layer}."
                f"{self.op}({self.args}) -> {self.cycles:,.1f} cycles")


@dataclass
class Tracer:
    """Collects events from its span subscriptions."""

    max_events: int = 10_000
    events: list[TraceEvent] = field(default_factory=list)
    dropped: int = 0
    _seq: int = 0
    _subscriptions: list = field(default_factory=list, repr=False)

    def _attach_spans(self, obs, layers: frozenset[str]) -> None:
        """Subscribe to ``obs`` span completions, keeping only spans
        whose layer (first label component) is in ``layers``; depth is
        recomputed over the *included* ancestors so a kernel-only trace
        shows syscalls flat even when libmpk drove them."""

        def on_span(record: SpanRecord,
                    ancestors: tuple[str, ...]) -> None:
            layer, _, op = record.label.partition(".")
            if layer not in layers:
                return
            depth = sum(1 for label in ancestors
                        if label.partition(".")[0] in layers)
            self._seq += 1
            if len(self.events) >= self.max_events:
                self.dropped += 1
                return
            self.events.append(TraceEvent(
                seq=self._seq,
                layer=layer,
                op=op,
                start_cycles=record.start_cycles,
                cycles=record.cycles,
                depth=depth,
                args=record.args,
            ))

        obs.subscribe_spans(on_span)
        self._subscriptions.append((obs, on_span))

    def detach(self) -> None:
        """Drop this tracer's subscriptions (idempotent)."""
        while self._subscriptions:
            obs, callback = self._subscriptions.pop()
            obs.unsubscribe_spans(callback)

    # ------------------------------------------------------------------

    def total_cycles(self, layer: str | None = None,
                     op: str | None = None) -> float:
        """Sum of *top-level* event costs matching the filters."""
        return sum(e.cycles for e in self.events
                   if e.depth == 0
                   and (layer is None or e.layer == layer)
                   and (op is None or e.op == op))

    def count(self, layer: str | None = None,
              op: str | None = None) -> int:
        return sum(1 for e in self.events
                   if (layer is None or e.layer == layer)
                   and (op is None or e.op == op))


def attach_tracer(kernel: "Kernel | None" = None,
                  lib: "Libmpk | None" = None,
                  max_events: int = 10_000) -> Tracer:
    """Create a tracer observing a kernel and/or libmpk.

    Subscribes to the machine's span stream, so attaching several
    tracers — even to the same layers — is safe: each records
    independently and ``detach`` only removes its own subscription.
    """
    if kernel is None and lib is None:
        raise ValueError("attach_tracer needs a kernel and/or a Libmpk")
    layers = set()
    if kernel is not None:
        layers.add("kernel")
    if lib is not None:
        layers.add("libmpk")
        kernel = lib._kernel
    tracer = Tracer(max_events=max_events)
    tracer._attach_spans(kernel.machine.obs, frozenset(layers))
    return tracer


def format_trace(events: typing.Iterable[TraceEvent]) -> str:
    """Render events as an indented, time-stamped listing.

    Events are emitted at completion (children before parents); the
    listing re-orders them by start time with parents first — ``seq``
    breaks ties so zero-cost siblings that share a start tick keep
    their call order.
    """
    ordered = sorted(events,
                     key=lambda e: (e.start_cycles, e.depth, e.seq))
    return "\n".join(str(event) for event in ordered)
