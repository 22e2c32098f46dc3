"""repro.obs — the attributed instrumentation spine.

Every simulated cycle enters the system through
:meth:`~repro.hw.cycles.Clock.charge`, and every charge now carries a
*site*: a dotted attribution label of the form ``layer.op.component``
(``kernel.mprotect.pte_update``, ``hw.tlb.shootdown_ipi``,
``libmpk.keycache.lookup``).  This module turns that stream into
observable structure:

* :class:`SiteAggregator` — per-site cycle/event totals: a read-only
  view of the ledger the clock keeps inline on every charge, so
  ``aggregator.total() == clock.now`` holds from cycle zero (the
  *conservation invariant* the test suite audits).
* :class:`RingLog` — a bounded ring buffer of raw charge events for
  post-mortem debugging; overflow evicts the oldest events and counts
  them in ``dropped``.
* :class:`Observability` — the per-machine facade.  Besides managing
  sinks it provides hierarchical *spans*: the kernel's syscalls and
  libmpk's API methods are bracketed with ``obs.span("kernel.sys_mmap")``
  context managers (via the :func:`traced` decorator), which replaces
  the old tracer's monkey-patching.  Completed spans update a per-path
  profile (inclusive/self cycles) and are broadcast to subscribers —
  :func:`repro.trace.attach_tracer` is now a thin subscriber.

Site-label taxonomy
-------------------
``layer.op.component`` where ``layer`` is one of ``hw``, ``kernel``,
``libmpk``, or ``apps``; ``op`` names the operation or subsystem
(``mprotect``, ``tlb``, ``keycache``); and ``component`` is the
itemized cost inside it (``base``, ``pte_update``, ``lookup``).
Aggregations at depth 1 or 2 therefore answer "which layer?" and
"which subsystem?" without any extra bookkeeping.

>>> from repro.hw.cycles import Clock
>>> clock = Clock()
>>> obs = Observability(clock)
>>> clock.charge(10.0, site="kernel.mprotect.base")
>>> clock.charge(5.5, site="kernel.mprotect.pte_update")
>>> obs.aggregator.total()
15.5
>>> obs.breakdown(depth=2)
{'kernel.mprotect': 15.5}
>>> obs.audit()[0]
True
"""

from __future__ import annotations

import functools
import math
import typing
from dataclasses import dataclass

#: Site used by :meth:`Clock.charge` when a caller supplies none.  The
#: repo-consistency tests forbid it inside ``src/repro``; it exists so
#: external/exploratory code keeps working.
UNATTRIBUTED = "unattributed"


# ---------------------------------------------------------------------------
# Charge sinks.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChargeRecord:
    """One raw charge as a sink sees it."""

    seq: int            # clock-wide event ordinal
    site: str
    cycles: float
    now: float          # clock time *after* the charge


class ChargeSink:
    """Interface for pluggable charge consumers (duck-typed; this base
    class exists for documentation and isinstance-friendly code)."""

    def on_charge(self, site: str, cycles: float, now: float,
                  seq: int) -> None:
        raise NotImplementedError


class SiteAggregator:
    """Read-only per-site view of a clock's ledger: cycle totals and
    charge counts, keyed by site label.

    The clock itself keeps the ledger (flat lists indexed by interned
    site id, updated inline by :meth:`~repro.hw.cycles.Clock.charge`);
    this view resolves ids back to labels.  The dict-shaped views
    (:attr:`cycles`, :attr:`counts`) are rebuilt on access — they are
    read on report boundaries, never per charge.
    """

    def __init__(self, clock) -> None:
        self._clock = clock

    def _items(self, values: list) -> typing.Iterator[tuple[str, object]]:
        """(site, value) pairs for every site that has seen a charge."""
        clock = self._clock
        for sid, count in enumerate(clock.site_counts):
            if count:
                yield clock.site_name(sid), values[sid]

    # -- dict-shaped views (report boundaries, not per charge) ----------

    @property
    def cycles(self) -> dict[str, float]:
        return dict(self._items(self._clock.site_cycles))

    @property
    def counts(self) -> dict[str, int]:
        return dict(self._items(self._clock.site_counts))

    # ------------------------------------------------------------------

    def total(self) -> float:
        return sum(self._clock.site_cycles)

    def sites(self) -> list[str]:
        return sorted(site for site, _ in
                      self._items(self._clock.site_counts))

    def breakdown(self, depth: int | None = None) -> dict[str, float]:
        """Cycles aggregated by label prefix of ``depth`` components
        (None = full site labels).  ``depth=1`` groups by layer."""
        if depth is None:
            return self.cycles
        grouped: dict[str, float] = {}
        for site, cycles in self._items(self._clock.site_cycles):
            label = ".".join(site.split(".")[:depth])
            grouped[label] = grouped.get(label, 0.0) + cycles
        return grouped

    def rows(self, depth: int | None = None) -> list[tuple[str, float]]:
        """(label, cycles) pairs, most expensive first."""
        grouped = self.breakdown(depth)
        return sorted(grouped.items(), key=lambda kv: (-kv[1], kv[0]))


class RingLog(ChargeSink):
    """Bounded ring buffer of :class:`ChargeRecord`.

    Keeps the most recent ``capacity`` charges; older entries are
    overwritten and accounted in :attr:`dropped`.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("RingLog capacity must be positive")
        self.capacity = capacity
        self.dropped = 0
        self._buffer: list[ChargeRecord | None] = [None] * capacity
        self._next = 0
        self._filled = 0

    def on_charge(self, site: str, cycles: float, now: float,
                  seq: int) -> None:
        if self._filled == self.capacity:
            self.dropped += 1
        else:
            self._filled += 1
        self._buffer[self._next] = ChargeRecord(seq=seq, site=site,
                                                cycles=cycles, now=now)
        self._next = (self._next + 1) % self.capacity

    def events(self) -> list[ChargeRecord]:
        """Buffered records, oldest first."""
        if self._filled < self.capacity:
            return [r for r in self._buffer[:self._filled]
                    if r is not None]
        tail = self._buffer[self._next:] + self._buffer[:self._next]
        return [r for r in tail if r is not None]

    def __len__(self) -> int:
        return self._filled


# ---------------------------------------------------------------------------
# Spans: the hierarchical profiler.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpanRecord:
    """One completed span, broadcast to subscribers."""

    seq: int
    label: str          # "layer.op", e.g. "kernel.sys_mmap"
    start_cycles: float
    cycles: float       # inclusive of nested work
    depth: int          # nesting level at entry (all spans counted)
    args: str           # human-readable argument summary ("" if no
                        # subscriber asked for one)


@dataclass
class SpanStats:
    """Aggregate for one span *path* (tuple of labels root..leaf)."""

    count: int = 0
    cycles: float = 0.0       # inclusive
    self_cycles: float = 0.0  # inclusive minus direct children


class _Span:
    """Context manager for one span instance."""

    __slots__ = ("_obs", "label", "_call_args", "_start", "_depth",
                 "_child_cycles", "_path")

    def __init__(self, obs: "Observability", label: str,
                 call_args: tuple | None) -> None:
        self._obs = obs
        self.label = label
        self._call_args = call_args
        self._start = 0.0
        self._depth = 0
        self._child_cycles = 0.0
        self._path: tuple[str, ...] = ()

    def __enter__(self) -> "_Span":
        obs = self._obs
        stack = obs._span_stack
        self._start = obs.clock.now
        self._depth = len(stack)
        # Extend the parent's already-built path instead of re-walking
        # the stack: span entry sits on every traced syscall, so this
        # is O(1) per enter rather than O(depth).
        if stack:
            self._path = stack[-1]._path + (self.label,)
        else:
            self._path = (self.label,)
        stack.append(self)
        return self

    def __exit__(self, *exc_info: object) -> None:
        obs = self._obs
        obs._span_stack.pop()
        cycles = obs.clock.now - self._start
        stats = obs._profile.get(self._path)
        if stats is None:
            stats = obs._profile[self._path] = SpanStats()
        stats.count += 1
        stats.cycles += cycles
        stats.self_cycles += cycles - self._child_cycles
        if obs._span_stack:
            obs._span_stack[-1]._child_cycles += cycles
        if obs._span_subscribers:
            obs._span_seq += 1
            args = ""
            if self._call_args is not None:
                args = summarize_args(*self._call_args)
            record = SpanRecord(seq=obs._span_seq, label=self.label,
                                start_cycles=self._start, cycles=cycles,
                                depth=self._depth, args=args)
            ancestors = self._path[:-1]
            for subscriber in list(obs._span_subscribers):
                subscriber(record, ancestors)


@dataclass
class MetricSeries:
    """Aggregate of one recorded metric site (not cycle-bearing).

    Values that are *observations* rather than machine work — queue
    depths, wait times — must not be charged on the clock (the clock is
    the sum of work, and charging idle time would corrupt the
    conservation audit).  They land here instead, keyed by the same
    dotted site convention as charges.
    """

    count: int = 0
    total: float = 0.0
    minimum: float = math.inf
    maximum: float = -math.inf
    last: float = 0.0

    def record(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        self.last = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def summary(self) -> dict:
        """JSON-safe snapshot: an empty series reports ``None`` for its
        extrema instead of the ``inf``/``-inf`` sentinels, which are
        not valid JSON.  Report/procfs renderers must serialize series
        through this, never the raw fields."""
        empty = self.count == 0
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "minimum": None if empty else self.minimum,
            "maximum": None if empty else self.maximum,
            "last": None if empty else self.last,
        }


class Observability:
    """Per-machine instrumentation facade: sinks, spans, audits.

    Constructed by :class:`~repro.hw.machine.Machine` and reachable as
    ``machine.obs`` (``kernel.machine.obs`` from the kernel).  Its
    :class:`SiteAggregator` views the clock's own per-site ledger, so
    per-site counters account for *every* cycle.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.aggregator = SiteAggregator(clock)
        self._span_stack: list[_Span] = []
        self._span_seq = 0
        self._span_subscribers: list = []
        self._profile: dict[tuple[str, ...], SpanStats] = {}
        self._invariants: dict[str, object] = {}
        self._metric_ids: dict[str, int] = {}
        self._metric_names: list[str] = []
        self._metric_list: list[MetricSeries] = []
        # table -> key -> [total_cycles, observations]
        self._key_costs: dict[str, dict[int, list[float]]] = {}

    # ------------------------------------------------------------------
    # Metric series (non-cycle observations: queue depths, wait times).
    # ------------------------------------------------------------------

    def metric_id(self, site: str) -> int:
        """Intern ``site`` as a metric and return its dense id.

        Hot paths resolve the id once and call :meth:`record_metric_id`
        per observation — a list index instead of a string-dict probe
        per record.  Interning registers an (initially empty) series,
        so a pre-registered site appears in :meth:`metrics` even before
        its first observation.
        """
        mid = self._metric_ids.get(site)
        if mid is None:
            mid = len(self._metric_list)
            self._metric_ids[site] = mid
            self._metric_names.append(site)
            self._metric_list.append(MetricSeries())
        return mid

    def record_metric_id(self, metric_id: int, value: float) -> None:
        """Record one observation against an id from :meth:`metric_id`."""
        self._metric_list[metric_id].record(value)

    def record_metric(self, site: str, value: float) -> None:
        """Record one observation of ``site`` (dotted label, same
        convention as charge sites)."""
        mid = self._metric_ids.get(site)
        if mid is None:
            mid = self.metric_id(site)
        self._metric_list[mid].record(value)

    def metric(self, site: str) -> MetricSeries | None:
        mid = self._metric_ids.get(site)
        return None if mid is None else self._metric_list[mid]

    def metrics(self) -> dict[str, MetricSeries]:
        """Snapshot of every recorded metric series."""
        return {name: self._metric_list[mid]
                for name, mid in self._metric_ids.items()}

    def metrics_summary(self) -> dict[str, dict]:
        """JSON-safe snapshot of every series (see
        :meth:`MetricSeries.summary`), sorted by site."""
        return {name: series.summary()
                for name, series in sorted(self.metrics().items())}

    # ------------------------------------------------------------------
    # Per-key cost tables (keyed attribution of charged cycles).
    # ------------------------------------------------------------------

    def charge_key_cost(self, table: str, key: int,
                        cycles: float) -> None:
        """Attribute ``cycles`` — already charged to the clock through
        an ordinary ``charge`` site — to ``key`` inside ``table``.

        Purely observational, like :meth:`record_metric`: nothing here
        touches the clock or the conservation audit.  libmpk records
        each virtual key's measured reload cost this way
        (``libmpk.keycache.reload``), and the cost-aware eviction
        policy reads it back through :meth:`key_cost` to prefer
        cheap-to-reload victims.
        """
        table_map = self._key_costs.get(table)
        if table_map is None:
            table_map = self._key_costs[table] = {}
        entry = table_map.get(key)
        if entry is None:
            table_map[key] = [cycles, 1]
        else:
            entry[0] += cycles
            entry[1] += 1

    def key_cost(self, table: str, key: int,
                 default: float = 0.0) -> float:
        """Mean recorded cost of ``key`` in ``table`` (``default``
        when the key was never charged there)."""
        table_map = self._key_costs.get(table)
        if table_map is None:
            return default
        entry = table_map.get(key)
        if entry is None:
            return default
        return entry[0] / entry[1]

    def key_costs(self, table: str) -> dict[int, float]:
        """Snapshot of ``table``: key -> mean recorded cost."""
        table_map = self._key_costs.get(table, {})
        return {key: entry[0] / entry[1]
                for key, entry in table_map.items()}

    # ------------------------------------------------------------------
    # Sink management (pass-through with a tiny convenience).
    # ------------------------------------------------------------------

    def add_sink(self, sink) -> None:
        self.clock.add_sink(sink)

    def remove_sink(self, sink) -> None:
        self.clock.remove_sink(sink)

    def attach_ring_log(self, capacity: int = 1024) -> RingLog:
        """Create, register, and return a bounded charge log."""
        log = RingLog(capacity)
        self.add_sink(log)
        return log

    # ------------------------------------------------------------------
    # Spans.
    # ------------------------------------------------------------------

    def span(self, label: str, call_args: tuple | None = None) -> _Span:
        """Bracket a region as ``with obs.span("kernel.sys_mmap"): ...``.

        ``call_args`` is an optional ``(args, kwargs)`` pair summarized
        for subscribers (lazily — no cost when nobody listens).
        """
        return _Span(self, label, call_args)

    def subscribe_spans(self, callback) -> None:
        """``callback(record: SpanRecord, ancestors: tuple[str, ...])``
        fires on every span completion, children before parents."""
        self._span_subscribers.append(callback)

    def unsubscribe_spans(self, callback) -> None:
        if callback in self._span_subscribers:
            self._span_subscribers.remove(callback)

    @property
    def span_depth(self) -> int:
        return len(self._span_stack)

    # ------------------------------------------------------------------
    # The conservation audit.
    # ------------------------------------------------------------------

    def register_invariant(self, name: str, check) -> None:
        """Register an extra consistency check run by :meth:`audit`.

        ``check()`` returns None when the invariant holds, or a short
        failure description.  The machine registers the MMU counter
        conservation check (``tlb hits + walk-misses == data accesses +
        instruction fetches`` per core) here; subsystems can add their
        own.  Re-registering a name replaces the previous check.
        """
        self._invariants[name] = check

    def audit(self, rel_tol: float = 1e-9) -> tuple[bool, float]:
        """Check ``sum(per-site counters) == clock.now`` plus every
        registered invariant.

        Returns ``(ok, delta)``; ``delta`` is the absolute cycle
        discrepancy.  Tolerance covers float summation order only — a
        real leak (a ledger slot edited behind the clock's back)
        shows up as a delta many orders of magnitude above it.  A
        failing registered invariant makes ``ok`` False regardless of
        the cycle delta; :meth:`invariant_failures` lists the details.
        """
        total = self.aggregator.total()
        delta = abs(total - self.clock.now)
        ok = math.isclose(total, self.clock.now, rel_tol=rel_tol,
                          abs_tol=1e-6)
        if ok and self._invariants:
            ok = not self.invariant_failures()
        return ok, delta

    def invariant_failures(self) -> dict[str, str]:
        """Name -> failure description for every failing registered
        invariant (empty when all hold)."""
        failures = {}
        for name, check in self._invariants.items():
            problem = check()
            if problem is not None:
                failures[name] = problem
        return failures

    # ------------------------------------------------------------------
    # Rendering.
    # ------------------------------------------------------------------

    def breakdown(self, depth: int | None = None) -> dict[str, float]:
        return self.aggregator.breakdown(depth)

    def format_breakdown(self, depth: int | None = None,
                         limit: int | None = None) -> str:
        """Paper-style per-site table, most expensive first."""
        rows = self.aggregator.rows(depth)
        if limit is not None:
            rows = rows[:limit]
        total = self.clock.now or 1.0
        width = max([len(label) for label, _ in rows] + [24])
        lines = [f"{'site':<{width}s} {'cycles':>14s} "
                 f"{'charges':>9s} {'share':>7s}"]
        counts = (self.aggregator.counts if depth is None else None)
        for label, cycles in rows:
            count = counts.get(label, 0) if counts is not None else \
                sum(c for s, c in self.aggregator.counts.items()
                    if s.startswith(label + ".") or s == label)
            lines.append(f"{label:<{width}s} {cycles:>14,.1f} "
                         f"{count:>9d} {100 * cycles / total:>6.1f}%")
        return "\n".join(lines)

    def profile(self) -> dict[tuple[str, ...], SpanStats]:
        """Per-path span aggregates (path = root..leaf label tuple)."""
        return dict(self._profile)

    def format_profile(self) -> str:
        """Indented span tree: calls, inclusive and self cycles."""
        if not self._profile:
            return "(no spans recorded)"
        lines = [f"{'span':<44s} {'calls':>7s} {'inclusive':>14s} "
                 f"{'self':>14s}"]
        for path in sorted(self._profile):
            stats = self._profile[path]
            indent = "  " * (len(path) - 1)
            label = indent + path[-1]
            lines.append(f"{label:<44s} {stats.count:>7d} "
                         f"{stats.cycles:>14,.1f} "
                         f"{stats.self_cycles:>14,.1f}")
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# The @traced decorator: native spans at API boundaries.
# ---------------------------------------------------------------------------

def traced(label: str):
    """Bracket a method in an ``obs.span(label)``.

    The decorated class must expose ``self._obs`` returning the
    machine's :class:`Observability` (the kernel and libmpk do).  The
    method's arguments (minus ``self``) become the span's lazily
    summarized ``args``.
    """
    def decorator(fn):
        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            with self._obs.span(label, call_args=(args, kwargs)):
                return fn(self, *args, **kwargs)
        wrapper._repro_traced = label
        return wrapper
    return decorator


# ---------------------------------------------------------------------------
# Argument summaries (shared with repro.trace).
# ---------------------------------------------------------------------------

def summarize_args(args: tuple, kwargs: dict, limit: int = 60) -> str:
    """Compact human-readable rendering of a call's arguments."""
    parts = [_fmt(value) for value in args]
    parts += [f"{key}={_fmt(value)}" for key, value in kwargs.items()]
    text = ", ".join(parts)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def _fmt(value: object) -> str:
    if isinstance(value, int) and value > 0xFFFF:
        return hex(value)
    cls = type(value).__name__
    if cls == "Task":
        return f"tid{value.tid}"
    if isinstance(value, (int, float, str, bytes, bool)) or value is None:
        return repr(value)
    return cls
