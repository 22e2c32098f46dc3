"""Pinned span profile: what ``@traced`` and ``obs.span()`` record.

A fixed scenario nests the span kinds the simulator produces: a
timed-out ``libmpk.mpk_begin_wait`` around a ``libmpk.mpk_begin`` that
raises key exhaustion; an ``obs.span()`` around a failing
``mpk_begin``, the ``mpk_end`` that frees a key and the retried
``mpk_begin`` that evicts; ``libmpk.mpk_mprotect`` around the
``kernel.do_pkey_sync`` span that ``obs.span()`` opens; and the
kernel's syscall spans under ``mpk_mmap``/``mpk_mprotect``.  The test
compares, with ``span_profile.json``:

* ``format_profile()``'s text,
* ``profile()``: every path's count, inclusive and self cycles,
* every ``(SpanRecord, ancestors)`` pair a subscriber sees, in order.

A change to the span machinery must leave all three identical.  An
intended change of the scenario rewrites the JSON with
``python tests/test_span_profile.py --write``.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import astuple
from pathlib import Path

from repro import PAGE_SIZE, PROT_READ, PROT_WRITE, Kernel, Libmpk, Machine
from repro.errors import MpkKeyExhaustion, MpkTimeout

GOLDEN_PATH = Path(__file__).with_name("span_profile.json")
RW = PROT_READ | PROT_WRITE
FIRST_VKEY = 200
#: One more group than libmpk has hardware keys, so the last
#: ``mpk_begin`` finds every key pinned.
GROUPS = 16
#: Cycles the synchronous wait sleeps before it expires.
WAIT_TIMEOUT = 5_000.0


def run_scenario() -> dict:
    """Run the scenario; return its profile text, per-path stats and
    subscriber records (JSON-shaped)."""
    kernel = Kernel(Machine(num_cores=4))
    process = kernel.create_process()
    task = process.main_task
    for _ in range(2):
        kernel.scheduler.schedule(process.spawn_task(), charge=False)
    obs = kernel.machine.obs
    records = []

    def on_span(record, ancestors):
        # Thread ids count up across the whole interpreter; record them
        # relative to the main task's so the golden ignores test order.
        row = list(astuple(record))
        row[5] = re.sub(r"tid(\d+)",
                        lambda m: f"tid+{int(m[1]) - task.tid}", row[5])
        records.append([*row, list(ancestors)])

    obs.subscribe_spans(on_span)
    lib = Libmpk(process)
    lib.mpk_init(task)
    vkeys = range(FIRST_VKEY, FIRST_VKEY + GROUPS)
    bases = [lib.mpk_mmap(task, vkey, PAGE_SIZE, RW) for vkey in vkeys]
    for vkey in vkeys[:-1]:
        lib.mpk_begin(task, vkey, RW)
    try:
        lib.mpk_begin(task, vkeys[-1], RW)
    except MpkKeyExhaustion:
        pass
    else:
        raise AssertionError("every hardware key should be pinned")

    try:
        lib.mpk_begin_wait(task, vkeys[-1], RW, timeout=WAIT_TIMEOUT)
    except MpkTimeout:
        pass
    else:
        raise AssertionError("a synchronous wait with no waker expires")
    with obs.span("apps.golden.retry", ((vkeys[-1],), {})):
        try:
            lib.mpk_begin(task, vkeys[-1], RW)
        except MpkKeyExhaustion:
            lib.mpk_end(task, vkeys[0])
            lib.mpk_begin(task, vkeys[-1], RW)
    task.write(bases[-1], b"golden")
    lib.mpk_end(task, vkeys[-1])
    lib.mpk_mprotect(task, vkeys[1], PROT_READ)
    with obs.span("apps.golden.outer", ((vkeys[2],), {"tag": "x"})):
        lib.mpk_end(task, vkeys[2])
    obs.unsubscribe_spans(on_span)
    profile = {" / ".join(path): [stats.count, stats.cycles,
                                  stats.self_cycles]
               for path, stats in sorted(obs.profile().items())}
    return {"format_profile": obs.format_profile().splitlines(),
            "profile": profile, "records": records}


def test_span_profile_matches_golden():
    expected = json.loads(GOLDEN_PATH.read_text())
    actual = run_scenario()
    assert actual["format_profile"] == expected["format_profile"]
    assert actual["profile"] == expected["profile"]
    assert len(actual["records"]) == len(expected["records"])
    for got, want in zip(actual["records"], expected["records"]):
        assert got == want, f"first differing span record: {got}"


def test_scenario_covers_the_nested_span_kinds():
    """The golden is only as good as its scenario: the timed-out wait
    wraps a failing begin, one span wraps a failing and a retried
    begin, and do_pkey_sync nests under mpk_mprotect."""
    profile = run_scenario()["profile"]
    assert profile["libmpk.mpk_begin_wait / libmpk.mpk_begin"][0] == 1
    assert profile["apps.golden.retry / libmpk.mpk_begin"][0] == 2
    assert "apps.golden.retry / libmpk.mpk_end" in profile
    assert "libmpk.mpk_mprotect / kernel.do_pkey_sync" in profile
    assert "apps.golden.outer / libmpk.mpk_end" in profile


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_span_profile.py --write")
    GOLDEN_PATH.write_text(json.dumps(run_scenario(), indent=1) + "\n")
