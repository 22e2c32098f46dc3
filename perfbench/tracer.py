"""Per-layer host-time tracing for perfbench.

The traced run wraps the public entry points of each simulator layer
(:data:`LAYERS`) with a span recorder.  Spans live in memory on a parent
stack; a layer's *self time* is its span time minus the time of child
spans that belong to *other* layers.  A wrapped call made while the
innermost open span already belongs to the same layer (``mpk_begin_wait``
calling ``mpk_begin``, a plane delivery handler calling ``send``) opens no
span of its own: its time stays in the enclosing span, so same-layer
recursion is never counted twice.  Self times of all layers therefore sum
to at most the traced wall; the rest is time outside every wrapped call.

The wrappers only read the host clock: they never charge simulated
cycles, which the benchmark proves by comparing the traced run's
simulated fingerprint with the untraced one's.

Nothing here imports the simulator at module load, so the arithmetic can
be tested without it; :meth:`Tracer.install` resolves the classes.
"""

from __future__ import annotations

import importlib
import time

#: layer -> (module, class, method names) of its wrapped entry points.
#: A names entry ending in ``*`` is a prefix: every method of the class
#: whose name starts with it.  ``Clock.charge`` runs the charge sinks
#: (site aggregator, quantum sink) itself, so sink time is obs self time.
LAYERS: dict[str, tuple[tuple[str, str, tuple[str, ...]], ...]] = {
    "obs": (("repro.hw.cycles", "Clock", ("charge",)),
            ("repro.obs", "Observability",
             ("record_metric", "record_metric_id"))),
    "bench": (("repro.bench.serving", "ServingEngine", ("run", "step")),),
    "apps": (("repro.apps.kvstore.memcached", "Memcached",
              ("get", "set", "delete")),),
    "core": (("repro.core.api", "Libmpk", ("mpk_*",)),),
    "kernel": (("repro.kernel.kcore", "Kernel", ("sys_*",)),
               ("repro.kernel.sched", "Scheduler", ("tlb_shootdown",))),
    "hw": (("repro.hw.cpu", "Core", ("read", "write", "fetch", "wrpkru")),),
    "net": (("repro.net.plane", "NetworkPlane", ("send", "step")),),
}


def _hw_bytes(name: str, args: tuple) -> int:
    """Bytes moved by one ``Core`` call: ``read``/``fetch`` take
    ``(page_table, addr, length)``, ``write`` takes
    ``(page_table, addr, data)``; ``wrpkru`` moves none."""
    if name == "write":
        return len(args[2])
    if name in ("read", "fetch"):
        return args[2]
    return 0


#: layer -> function(method name, args without self) -> bytes moved.
BYTE_COUNTERS = {"hw": _hw_bytes}


class Tracer:
    """Span recorder with per-layer self time, call and byte counts.

    ``now`` is the host clock (seconds); tests pass a fake one.
    """

    def __init__(self, layers=LAYERS, now=time.perf_counter) -> None:
        self.layers = layers
        self._now = now
        # Open spans, innermost last: [layer, child time of other layers].
        self._stack: list[list] = []
        self.self_s = {layer: 0.0 for layer in layers}
        self.calls = {layer: 0 for layer in layers}
        self.bytes = {layer: 0 for layer in layers}
        # (class, name, original, span) of the last install, kept past
        # uninstall to prove each entry point was restored.
        self._entries: list[tuple[type, str, object, object]] = []
        self._installed = False

    def reset(self) -> None:
        """Zero the accumulators in place (the wrappers hold them)."""
        if self._stack:
            raise RuntimeError("reset() inside an open span")
        for layer in self.layers:
            self.self_s[layer] = 0.0
            self.calls[layer] = 0
            self.bytes[layer] = 0

    def wrap(self, layer: str, fn, name: str = ""):
        """``fn`` wrapped as a span of ``layer``."""
        stack = self._stack
        now = self._now
        self_s = self.self_s
        calls = self.calls
        counter = BYTE_COUNTERS.get(layer)
        moved = self.bytes

        def span(*args, **kwargs):
            calls[layer] += 1
            if counter is not None:
                moved[layer] += counter(name, args[1:])
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = now()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = now() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                if stack:
                    stack[-1][1] += elapsed

        return span

    # -- installing on the simulator's classes ---------------------------

    def install(self) -> None:
        """Replace every entry point in :attr:`layers` with its span."""
        if self._installed:
            raise RuntimeError("tracer is already installed")
        self._entries = []
        for layer, entries in self.layers.items():
            for module, cls_name, names in entries:
                cls = getattr(importlib.import_module(module), cls_name)
                for name in _expand(cls, names):
                    original = cls.__dict__[name]
                    span = self.wrap(layer, original, name)
                    self._entries.append((cls, name, original, span))
                    setattr(cls, name, span)
        self._installed = True

    def uninstall(self) -> None:
        """Put every original entry point back."""
        for cls, name, original, _ in self._entries:
            setattr(cls, name, original)
        self._installed = False

    def installed_leftovers(self) -> list[str]:
        """Entry points that still hold a span wrapper (empty after a
        clean :meth:`uninstall`)."""
        return [f"{cls.__name__}.{name}"
                for cls, name, _, span in self._entries
                if cls.__dict__.get(name) is span]


def _expand(cls: type, names: tuple[str, ...]) -> list[str]:
    """Method names of ``cls`` matching ``names`` (``prefix*`` entries
    match every callable defined on the class with that prefix)."""
    found = []
    for name in names:
        if name.endswith("*"):
            prefix = name[:-1]
            found.extend(sorted(
                attr for attr, value in vars(cls).items()
                if attr.startswith(prefix) and callable(value)))
        else:
            found.append(name)
    return found
