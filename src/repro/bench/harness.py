"""The one bench harness: run-twice gate, BENCH writer, call counters.

Every BENCH producer runs each scenario twice through :func:`run_twice`
and compares the two runs' *fingerprints* (plain dicts built where the
data lives, e.g. :meth:`ServingReport.fingerprint`) with
:func:`check_identical`.  :func:`write_json` writes every
``BENCH_*.json`` file.
"""

from __future__ import annotations

import itertools
import json
import sys
import typing
from collections import Counter

T = typing.TypeVar("T")


def check_identical(label: str, first: dict, second: dict) -> None:
    """Raise AssertionError unless two fingerprints are equal.

    The message names ``label``, the first divergent key in sorted
    order and both values.  When both values are dicts it descends one
    level, so a site-ledger divergence names the site.
    """
    if first == second:
        return
    where = ""
    a, b = first, second
    for depth in range(2):
        if not (isinstance(a, dict) and isinstance(b, dict)):
            break
        key = min(k for k in a.keys() | b.keys()
                  if k not in a or k not in b or a[k] != b[k])
        where += str(key) if depth == 0 else f"[{key!r}]"
        a, b = a.get(key, "<missing>"), b.get(key, "<missing>")
    raise AssertionError(f"{label}: runs diverge at "
                         f"{where}: {a!r} vs {b!r}")


def run_twice(label: str, run: typing.Callable[[], T],
              fingerprint: typing.Callable[[T], dict]) -> T:
    """Call ``run()`` twice, gate the fingerprints, return the first
    result."""
    first = run()
    check_identical(label, fingerprint(first), fingerprint(run()))
    return first


def write_json(report: dict, path) -> None:
    """Write a BENCH report: sorted keys, two-space indent, trailing
    newline, so equal reports are equal files."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _profile_calls(fn, on_call) -> None:
    """Run ``fn()``, calling ``on_call(frame)`` for each named Python
    function call it makes.  Builtins are not counted, nor frames whose
    ``co_name`` starts with ``<`` (``<lambda>``, and the comprehensions
    Python 3.12 inlines), so counts agree across 3.11 and 3.12."""
    def profile(frame, event, _arg):
        if event == "call" and not frame.f_code.co_name.startswith("<"):
            on_call(frame)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)


def named_calls(fn) -> int:
    """Run ``fn()`` and count the named Python function calls it makes."""
    counter = itertools.count()
    _profile_calls(fn, lambda _frame: next(counter))
    return next(counter)


def calls_by_layer(fn) -> Counter:
    """Run ``fn()`` and count its named calls per layer: the package
    under ``repro`` a frame's module lives in (``repro.kernel.sched``
    counts for ``kernel``, ``repro.obs`` for ``obs``); frames outside
    ``repro`` count for ``other``."""
    layers: Counter = Counter()

    def on_call(frame):
        parts = frame.f_globals.get("__name__", "").split(".")
        layers[parts[1] if len(parts) > 1 and parts[0] == "repro"
               else "other"] += 1

    _profile_calls(fn, on_call)
    return layers
