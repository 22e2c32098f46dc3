"""The tracing subsystem: spans, nesting, accounting, detach."""

import pytest

from repro.consts import PAGE_SIZE, PROT_READ, PROT_WRITE
from repro import Libmpk
from repro.trace import TraceEvent, attach_tracer, format_trace

RW = PROT_READ | PROT_WRITE


class TestKernelTracing:
    def test_syscalls_are_recorded_with_costs(self, kernel, task):
        tracer = attach_tracer(kernel=kernel)
        addr = kernel.sys_mmap(task, PAGE_SIZE, RW)
        kernel.sys_mprotect(task, addr, PAGE_SIZE, PROT_READ)
        tracer.detach()
        assert tracer.count("kernel", "sys_mmap") == 1
        assert tracer.count("kernel", "sys_mprotect") == 1
        mprotect = next(e for e in tracer.events
                        if e.op == "sys_mprotect")
        assert mprotect.cycles == pytest.approx(1094.0)

    def test_detach_restores_originals(self, kernel, task):
        tracer = attach_tracer(kernel=kernel)
        kernel.sys_mmap(task, PAGE_SIZE, RW)
        tracer.detach()
        kernel.sys_mmap(task, PAGE_SIZE, RW)
        assert tracer.count() == 1  # second call untraced

    def test_event_cap_drops_not_grows(self, kernel, task):
        tracer = attach_tracer(kernel=kernel, max_events=3)
        for _ in range(6):
            kernel.sys_mmap(task, PAGE_SIZE, RW)
        tracer.detach()
        assert len(tracer.events) == 3
        assert tracer.dropped == 3


class TestLibmpkTracing:
    def test_nested_kernel_calls_get_deeper_depth(self, kernel,
                                                  process, task):
        lib = Libmpk(process)
        lib.mpk_init(task)
        tracer = attach_tracer(kernel=kernel, lib=lib)
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        tracer.detach()
        top = next(e for e in tracer.events if e.op == "mpk_mmap")
        nested = [e for e in tracer.events
                  if e.layer == "kernel"
                  and top.start_cycles <= e.start_cycles
                  <= top.start_cycles + top.cycles]
        assert top.depth == 0
        assert nested and all(e.depth > 0 for e in nested)

    def test_inclusive_costs_cover_nested_work(self, kernel, process,
                                               task):
        lib = Libmpk(process)
        lib.mpk_init(task)
        tracer = attach_tracer(kernel=kernel, lib=lib)
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        tracer.detach()
        top = next(e for e in tracer.events if e.op == "mpk_mmap")
        nested_sum = sum(e.cycles for e in tracer.events
                         if e.depth == 1)
        assert top.cycles >= nested_sum

    def test_total_cycles_filters(self, kernel, process, task):
        lib = Libmpk(process)
        lib.mpk_init(task)
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        tracer = attach_tracer(lib=lib)
        lib.mpk_begin(task, 100, RW)
        lib.mpk_end(task, 100)
        tracer.detach()
        begin_cost = tracer.total_cycles("libmpk", "mpk_begin")
        assert begin_cost == pytest.approx(89.7, abs=0.1)
        assert tracer.total_cycles() == pytest.approx(
            begin_cost + tracer.total_cycles("libmpk", "mpk_end"))

    def test_format_trace_is_readable(self, kernel, process, task):
        lib = Libmpk(process)
        lib.mpk_init(task)
        tracer = attach_tracer(kernel=kernel, lib=lib)
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        tracer.detach()
        text = format_trace(tracer.events)
        assert "libmpk.mpk_mmap" in text
        assert "kernel.sys_mmap" in text
        assert "cycles" in text

    def test_argument_summaries(self, kernel, process, task):
        lib = Libmpk(process)
        lib.mpk_init(task)
        tracer = attach_tracer(lib=lib)
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        tracer.detach()
        event = next(e for e in tracer.events if e.op == "mpk_mmap")
        assert f"tid{task.tid}" in event.args
        assert "100" in event.args

    def test_requires_a_target(self):
        with pytest.raises(ValueError):
            attach_tracer()


class TestOrdering:
    def test_same_tick_siblings_keep_call_order(self):
        """Zero-cost siblings share a start tick; ``seq`` breaks the
        tie even when the caller hands events in arbitrary order."""
        events = [TraceEvent(seq=seq, layer="kernel", op=op,
                             start_cycles=100.0, cycles=0.0, depth=0,
                             args="")
                  for seq, op in enumerate(("alpha", "beta", "gamma"), 1)]
        text = format_trace(reversed(events))
        assert text.index("kernel.alpha") < text.index("kernel.beta") \
            < text.index("kernel.gamma")

    def test_parents_still_precede_children(self, kernel, process,
                                            task):
        lib = Libmpk(process)
        lib.mpk_init(task)
        tracer = attach_tracer(kernel=kernel, lib=lib)
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        tracer.detach()
        lines = format_trace(tracer.events).splitlines()
        top = next(i for i, line in enumerate(lines)
                   if "mpk_mmap" in line)
        nested = next(i for i, line in enumerate(lines)
                      if "sys_mmap" in line)
        assert top < nested


class TestMultipleTracers:
    def test_two_tracers_record_independently(self, kernel, task):
        first = attach_tracer(kernel=kernel)
        second = attach_tracer(kernel=kernel, max_events=1)
        kernel.sys_mmap(task, PAGE_SIZE, RW)
        kernel.sys_mmap(task, PAGE_SIZE, RW)
        first.detach()
        kernel.sys_mmap(task, PAGE_SIZE, RW)
        second.detach()
        assert first.count() == 2
        assert len(second.events) == 1 and second.dropped == 2

    def test_detach_is_idempotent(self, kernel, task):
        tracer = attach_tracer(kernel=kernel)
        kernel.sys_mmap(task, PAGE_SIZE, RW)
        tracer.detach()
        tracer.detach()
        kernel.sys_mmap(task, PAGE_SIZE, RW)
        assert tracer.count() == 1
