"""Bounded exhaustive check: every short op sequence keeps libmpk's
state layers in agreement.

Two threads, A and B, run on a 2-core machine and share one page
group.  The eight ops are A/B ``mpk_begin``, A/B ``mpk_end``, B's
``mpk_mprotect`` to READ, EXEC and READ|WRITE, and A's ``mpk_munmap``.
Every sequence of depth 4 (8**4 = 4,096 sequences, so every shorter
sequence is one of their prefixes) replays on a fresh machine: 16,384
steps.  A step may refuse with :class:`~repro.errors.MpkError`; any
other exception, or a failed :meth:`~repro.core.api.Libmpk.audit`
after the step, fails the sequence.  The steps reach 14 distinct
group states (existence, cached, exec-only, pinning threads, usage
model); the test pins that count so a change that narrows the walk
shows.
"""

from __future__ import annotations

import itertools

from repro import Kernel, Libmpk, Machine
from repro.consts import PAGE_SIZE, PROT_EXEC, PROT_READ, PROT_WRITE
from repro.errors import MpkError

RW = PROT_READ | PROT_WRITE
G = 100
DEPTH = 4
STATES = 14


def _ops():
    def begin(t):
        return lambda lib, tasks: lib.mpk_begin(tasks[t], G, RW)

    def end(t):
        return lambda lib, tasks: lib.mpk_end(tasks[t], G)

    def mprotect(prot):
        return lambda lib, tasks: lib.mpk_mprotect(tasks[1], G, prot)

    return {
        "A.begin": begin(0),
        "B.begin": begin(1),
        "A.end": end(0),
        "B.end": end(1),
        "B.mprotect(R)": mprotect(PROT_READ),
        "B.mprotect(X)": mprotect(PROT_EXEC),
        "B.mprotect(RW)": mprotect(RW),
        "A.munmap": lambda lib, tasks: lib.mpk_munmap(tasks[0], G),
    }


OPS = _ops()


def _fresh():
    kernel = Kernel(Machine(num_cores=2))
    process = kernel.create_process()
    a = process.main_task
    b = process.spawn_task()
    kernel.scheduler.schedule(b, charge=False)
    lib = Libmpk(process)
    lib.mpk_init(a)
    lib.mpk_mmap(a, G, PAGE_SIZE, RW)
    return lib, (a, b)


def _state(lib, tasks) -> tuple:
    group = lib.groups().get(G)
    if group is None:
        return ("gone",)
    return (group.cached, group.exec_only, group.model,
            tuple(t.tid in group.pinned_by for t in tasks))


def _replay(names, states) -> str | None:
    """Run ``names`` on a fresh machine; the first failure, or None."""
    lib, tasks = _fresh()
    for depth, name in enumerate(names, 1):
        try:
            OPS[name](lib, tasks)
        except MpkError:
            pass
        except Exception as exc:  # any other exception is a bug
            return f"{names[:depth]}: {type(exc).__name__}: {exc}"
        report = lib.audit()
        if not report.ok:
            return f"{names[:depth]}: {report.violations}"
        states.add(_state(lib, tasks))
    return None


def test_every_sequence_to_depth_4_audits_clean():
    states: set[tuple] = set()
    failures = [failure for names in itertools.product(OPS, repeat=DEPTH)
                if (failure := _replay(names, states)) is not None]
    assert not failures, (f"{len(failures)} failing sequences, first: "
                          f"{failures[:3]}")
    assert len(states) == STATES, sorted(states, key=repr)
