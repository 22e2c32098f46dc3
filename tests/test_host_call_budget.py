"""Host call budgets for the domain-switch and userspace-load paths.

The paper's hit-path claim is one hashmap lookup plus one WRPKRU per
domain switch; these tests keep the simulator's *host* cost of that
path small.  They count the Python-level calls one operation makes,
which (unlike wall time) is bit-identical run to run.  Only named
functions count: frames whose ``co_name`` starts with ``<``
(``<lambda>``, and the comprehensions that Python 3.12 inlines) are
skipped, so the counts agree across 3.11 and 3.12.

Measured on Python 3.11.7 and 3.12.1 alike: a cached ``mpk_begin`` +
``mpk_end`` pair makes 47 calls, and a cached 8-byte ``Task.read`` or
``Task.write`` makes 6.
"""

from __future__ import annotations

import sys

import pytest

from repro import PAGE_SIZE, PROT_READ, PROT_WRITE, Kernel, Libmpk, Machine

RW = PROT_READ | PROT_WRITE
VKEY = 100

#: Budgets: named Python calls per operation.
PAIR_BUDGET = 50
LOAD_BUDGET = 6
STORE_BUDGET = 6


def named_calls(fn) -> int:
    """Run ``fn()`` and count the named Python function calls it makes
    (``sys.setprofile`` ``"call"`` events; builtins are not counted)."""
    count = 0

    def profile(frame, event, _arg):
        nonlocal count
        if event == "call" and not frame.f_code.co_name.startswith("<"):
            count += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(previous)
    return count


@pytest.fixture
def cached():
    """A task with ``VKEY``'s group cached, its page and TLB entry warm,
    and no domain open."""
    kernel = Kernel(Machine(num_cores=2))
    process = kernel.create_process()
    task = process.main_task
    lib = Libmpk(process)
    lib.mpk_init(task)
    base = lib.mpk_mmap(task, VKEY, PAGE_SIZE, RW)
    lib.mpk_begin(task, VKEY, RW)
    task.write(base, b"warm-up!")
    assert task.read(base, 8) == b"warm-up!"
    lib.mpk_end(task, VKEY)
    return lib, task, base


def test_cached_domain_switch_pair(cached):
    lib, task, _ = cached
    calls = named_calls(lambda: (lib.mpk_begin(task, VKEY, RW),
                                 lib.mpk_end(task, VKEY)))
    assert calls <= PAIR_BUDGET, calls


def test_cached_load(cached):
    lib, task, base = cached
    with lib.domain(task, VKEY, RW):
        calls = named_calls(lambda: task.read(base, 8))
    assert calls <= LOAD_BUDGET, calls


def test_cached_store(cached):
    lib, task, base = cached
    with lib.domain(task, VKEY, RW):
        calls = named_calls(lambda: task.write(base, b"12345678"))
    assert calls <= STORE_BUDGET, calls


def test_counter_sees_the_calls():
    """The counter itself: a named call counts, a lambda frame does
    not."""
    def leaf():
        return 1

    assert named_calls(lambda: leaf()) == 1
    assert named_calls(lambda: None) == 0
