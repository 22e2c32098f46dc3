"""The one bench harness: the run-twice determinism gate and BENCH writer.

Every BENCH producer runs each scenario twice through :func:`run_twice`
and compares the two runs' *fingerprints* (plain dicts built where the
data lives, e.g. :meth:`ServingReport.fingerprint`) with
:func:`check_identical`.  :func:`write_json` writes every
``BENCH_*.json`` file.
"""

from __future__ import annotations

import json
import typing

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
