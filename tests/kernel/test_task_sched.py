"""Tasks, scheduler placement, task_work, and rescheduling IPIs."""

import pytest

from repro.consts import PAGE_SIZE, PROT_READ, PROT_WRITE
from repro.hw.pkru import KEY_RIGHTS_NONE, KEY_RIGHTS_READ, PKRU
from repro.kernel.task import WaitQueue

RW = PROT_READ | PROT_WRITE


class TestTaskPkru:
    def test_tasks_start_with_default_deny(self, process):
        task = process.spawn_task()
        assert task.pkru.value == PKRU.deny_all_but_default().value

    def test_wrpkru_updates_task_and_core(self, kernel, task):
        task.wrpkru(0)
        assert task.pkru.value == 0
        assert kernel.machine.core(task.core_id).pkru.value == 0

    def test_pkey_set_get_roundtrip(self, kernel, task):
        task.pkey_set(4, KEY_RIGHTS_READ)
        assert task.pkey_get(4) == KEY_RIGHTS_READ
        task.pkey_set(4, KEY_RIGHTS_NONE)
        assert task.pkey_get(4) == KEY_RIGHTS_NONE

    def test_memory_ops_require_a_core(self, process):
        parked = process.spawn_task()
        with pytest.raises(RuntimeError):
            parked.read(0x1000, 1)

    def test_try_read_swallows_faults(self, kernel, task):
        assert task.try_read(0xDEAD000, 8) is None


class TestScheduler:
    def test_schedule_loads_task_pkru_into_core(self, kernel, process):
        task = process.spawn_task()
        task.pkru = PKRU.allow_all()
        kernel.scheduler.schedule(task)
        assert kernel.machine.core(task.core_id).pkru.value == 0

    def test_unschedule_frees_the_core(self, kernel, process):
        task = process.spawn_task()
        core_id = kernel.scheduler.schedule(task)
        kernel.scheduler.unschedule(task)
        assert not task.running
        other = process.spawn_task()
        assert kernel.scheduler.schedule(other, core_id=core_id) == core_id

    def test_double_schedule_rejected(self, kernel, process, task):
        with pytest.raises(RuntimeError):
            kernel.scheduler.schedule(task)

    def test_busy_core_rejected(self, kernel, process, task):
        other = process.spawn_task()
        with pytest.raises(RuntimeError):
            kernel.scheduler.schedule(other, core_id=task.core_id)

    def test_running_tasks_filters_by_process(self, kernel, process):
        other_process = kernel.create_process()
        assert kernel.scheduler.running_tasks(process) == [
            process.main_task]
        assert kernel.scheduler.running_tasks(other_process) == [
            other_process.main_task]
        assert len(kernel.scheduler.running_tasks()) == 2


class TestTaskWork:
    def test_work_runs_on_resched_ipi(self, kernel, process, task):
        sibling = process.spawn_task()
        kernel.scheduler.schedule(sibling, charge=False)
        ran = []
        sibling.task_work_add(lambda t: ran.append(t.tid))
        assert kernel.scheduler.send_resched_ipi(sibling)
        assert ran == [sibling.tid]
        assert not sibling.has_pending_task_work()

    def test_ipi_to_sleeping_task_is_a_noop(self, kernel, process):
        sleeper = process.spawn_task()
        sleeper.task_work_add(lambda t: None)
        assert not kernel.scheduler.send_resched_ipi(sleeper)
        assert sleeper.has_pending_task_work()  # runs at next schedule

    def test_work_runs_at_schedule_in(self, kernel, process):
        sleeper = process.spawn_task()
        ran = []
        sleeper.task_work_add(lambda t: ran.append("work"))
        kernel.scheduler.schedule(sleeper)
        assert ran == ["work"]

    def test_pkru_edit_in_task_work_reaches_core(self, kernel, process):
        """The do_pkey_sync pattern: task_work rewrites PKRU; the kernel
        exit path loads it into the core."""
        sibling = process.spawn_task()
        kernel.scheduler.schedule(sibling, charge=False)

        def grant(task):
            task.pkru = task.pkru.with_rights(5, KEY_RIGHTS_READ)

        sibling.task_work_add(grant)
        kernel.scheduler.send_resched_ipi(sibling)
        assert kernel.machine.core(sibling.core_id).pkru.can_read(5)

    def test_works_run_in_fifo_order(self, kernel, process):
        sleeper = process.spawn_task()
        order = []
        sleeper.task_work_add(lambda t: order.append(1))
        sleeper.task_work_add(lambda t: order.append(2))
        kernel.scheduler.schedule(sleeper)
        assert order == [1, 2]


class TestWaitQueue:
    def test_wake_one_is_fifo(self, process):
        wq = WaitQueue("test")
        a, b = process.spawn_task(), process.spawn_task()
        wq.add(a)
        wq.add(b)
        assert wq.wake_one() is a
        assert wq.wake_one() is b
        assert wq.wake_one() is None

    def test_wake_clears_waiting_state(self, process):
        wq = WaitQueue("test")
        waiter = process.spawn_task()
        waiter.state = "blocked"
        wq.add(waiter)
        assert waiter.waiting_on is wq
        wq.wake_all()
        assert waiter.waiting_on is None
        assert waiter.state == "runnable"

    def test_on_wake_callback_fires(self, process):
        wq = WaitQueue("test")
        woken = []
        waiter = process.spawn_task()
        wq.add(waiter, on_wake=woken.append)
        wq.wake_one()
        assert woken == [waiter]

    def test_double_wait_rejected(self, process):
        wq, other = WaitQueue("a"), WaitQueue("b")
        waiter = process.spawn_task()
        wq.add(waiter)
        with pytest.raises(RuntimeError):
            wq.add(waiter)
        with pytest.raises(RuntimeError):
            other.add(waiter)

    def test_remove_cancels_the_wait(self, process):
        wq = WaitQueue("test")
        waiter = process.spawn_task()
        wq.add(waiter)
        assert wq.remove(waiter)
        assert waiter.waiting_on is None
        assert not wq.remove(waiter)
        assert wq.wake_one() is None

    def test_exit_task_leaves_wait_queues(self, kernel, process):
        """A dying waiter must not linger on the queue (a later wake
        would resurrect a dead task)."""
        wq = WaitQueue("test")
        waiter = process.spawn_task()
        wq.add(waiter)
        process.exit_task(waiter)
        assert len(wq) == 0
        assert waiter.waiting_on is None


class TestDeadlineWakeTiesUnderDelay:
    """The exact-tie corner: an injected delay stretches the waker's
    operation so the clock lands *precisely on* the waiter's deadline.
    The contract says the wake still wins — expiry only claims waiters
    the caller has not already woken — and the loser path (expire
    first) must be just as deterministic."""

    def _tie(self, kernel, process, extra: float):
        from repro.faults.inject import FaultInjector, delay

        clock = kernel.clock
        wq = WaitQueue("tie")
        events = []
        waiter = process.spawn_task()
        waiter.state = "blocked"
        deadline = clock.now + 100.0 + extra
        wq.add(waiter, on_wake=lambda t: events.append("wake"),
               deadline=deadline,
               on_timeout=lambda t: events.append("timeout"),
               now=clock.now)
        injector = FaultInjector()
        kernel.machine.obs.add_sink(injector)
        try:
            injector.arm("net.link.rx", occurrence=1,
                         action=delay(clock, extra))
            clock.charge(100.0, site="net.link.rx")
        finally:
            kernel.machine.obs.remove_sink(injector)
        assert clock.now == deadline  # the delay made it an exact tie
        return clock, wq, waiter, events

    def test_wake_wins_an_exact_tie(self, kernel, process):
        clock, wq, waiter, events = self._tie(kernel, process, 400.0)
        assert wq.wake_one() is waiter
        assert wq.expire(clock.now) == []
        assert not wq.timeout(waiter)
        assert events == ["wake"]
        assert wq.stats_timeouts == 0

    def test_expire_claims_the_tie_when_nothing_wakes(self, kernel,
                                                      process):
        # deadline <= now is inclusive: with no wake driven first, the
        # exact-tie waiter times out (a waiter can never be left parked
        # past its deadline just because the clock stopped *on* it).
        clock, wq, waiter, events = self._tie(kernel, process, 400.0)
        assert wq.expire(clock.now) == [waiter]
        assert wq.wake_one() is None
        assert events == ["timeout"]
        assert wq.stats_timeouts == 1

    def test_tied_deadlines_expire_in_arrival_order_after_delay(
            self, kernel, process):
        clock, wq, first, events = self._tie(kernel, process, 300.0)
        second = process.spawn_task()
        second.state = "blocked"
        wq.add(second, deadline=clock.now,
               on_timeout=lambda t: events.append("timeout2"),
               now=clock.now)
        assert wq.expire(clock.now) == [first, second]
        assert events == ["timeout", "timeout2"]


class TestWaitQueueDeadlines:
    def test_expire_orders_by_deadline_not_arrival(self, process):
        """The earlier deadline times out first even when that waiter
        enqueued later."""
        wq = WaitQueue("test")
        late = process.spawn_task()
        early = process.spawn_task()
        wq.add(late, deadline=200.0, now=0.0)     # enqueued first
        wq.add(early, deadline=100.0, now=0.0)    # earlier deadline
        assert wq.expire(150.0) == [early]
        assert wq.expire(150.0) == []             # late not due yet
        assert wq.expire(250.0) == [late]
        assert len(wq) == 0

    def test_expire_ties_break_by_arrival(self, process):
        wq = WaitQueue("test")
        a, b = process.spawn_task(), process.spawn_task()
        wq.add(a, deadline=100.0)
        wq.add(b, deadline=100.0)
        assert wq.expire(100.0) == [a, b]

    def test_next_deadline_is_the_minimum(self, process):
        wq = WaitQueue("test")
        assert wq.next_deadline() is None
        wq.add(process.spawn_task(), deadline=300.0)
        wq.add(process.spawn_task())               # forever waiter
        wq.add(process.spawn_task(), deadline=100.0)
        assert wq.next_deadline() == 100.0

    def test_wake_beats_pending_timeout(self, process):
        """The wake-vs-timeout race is deterministic: once woken, a
        waiter can no longer time out."""
        wq = WaitQueue("test")
        fired = []
        waiter = process.spawn_task()
        wq.add(waiter, deadline=100.0, on_timeout=fired.append)
        assert wq.wake_one() is waiter
        assert not wq.timeout(waiter)              # wake won
        assert wq.expire(1e9) == []
        assert fired == []
        assert wq.stats_wakes == 1
        assert wq.stats_timeouts == 0

    def test_timeout_fires_on_timeout_not_on_wake(self, process):
        wq = WaitQueue("test")
        woken, timed_out = [], []
        waiter = process.spawn_task()
        waiter.state = "blocked"
        wq.add(waiter, on_wake=woken.append, deadline=50.0,
               on_timeout=timed_out.append)
        assert wq.timeout(waiter)
        assert (woken, timed_out) == ([], [waiter])
        assert waiter.waiting_on is None
        assert waiter.state == "runnable"
        assert wq.stats_timeouts == 1

    def test_timed_out_waiter_leaves_no_residue(self, process):
        """After expiry the waiter is fully gone: not wakeable, not
        re-expirable, free to park again."""
        wq = WaitQueue("test")
        waiter = process.spawn_task()
        wq.add(waiter, deadline=10.0)
        assert wq.expire(10.0) == [waiter]
        assert wq.wake_one() is None
        assert wq.expire(1e9) == []
        wq.add(waiter)                             # no double-wait error
        assert wq.wake_one() is waiter

    def test_expired_dead_waiter_is_reaped_not_timed_out(self, process):
        wq = WaitQueue("test")
        fired = []
        waiter = process.spawn_task()
        wq.add(waiter, deadline=10.0, on_timeout=fired.append)
        waiter.state = "dead"
        assert wq.expire(100.0) == []
        assert fired == []
        assert wq.stats_dead_reaped == 1
        assert wq.stats_timeouts == 0

    def test_killed_waiter_never_absorbs_a_wake(self, kernel, process):
        """Regression (the kill-while-parked bug): a task killed while
        parked must neither be woken nor steal a wake a live waiter
        needed."""
        from repro.faults.signals import SEGV_PKUERR, SIGSEGV, Siginfo

        wq = WaitQueue("test")
        doomed, survivor = process.spawn_task(), process.spawn_task()
        doomed.enable_signals()
        kernel.scheduler.schedule(doomed)  # the IPI needs a core
        wq.add(doomed)
        wq.add(survivor)
        kernel.signal_task(doomed,
                           Siginfo(SIGSEGV, SEGV_PKUERR, si_addr=0))
        assert doomed.state == "dead"
        # The kill path detached the dying task before its death hooks.
        assert doomed.waiting_on is None
        assert all(entry.task is not doomed for entry in wq.entries())
        assert wq.wake_one() is survivor


class TestRunQueuesAndSlicing:
    def test_enqueue_dispatch_fifo(self, kernel, process):
        sched = kernel.scheduler
        a, b = process.spawn_task(), process.spawn_task()
        sched.enqueue(a, core_id=3)
        sched.enqueue(b, core_id=3)
        assert sched.runnable_count(3) == 2
        assert sched.dispatch(3) is a
        assert a.running and a.core_id == 3

    def test_dispatch_on_busy_core_rejected(self, kernel, process, task):
        sched = kernel.scheduler
        sched.enqueue(process.spawn_task(), core_id=task.core_id)
        with pytest.raises(RuntimeError):
            sched.dispatch(task.core_id)

    def test_preempt_requeues_at_tail(self, kernel, process):
        sched = kernel.scheduler
        a, b = process.spawn_task(), process.spawn_task()
        sched.enqueue(a, core_id=3)
        sched.enqueue(b, core_id=3)
        sched.dispatch(3)
        sched.preempt(3)
        assert sched.preemptions == 1
        assert sched.dispatch(3) is b        # a went to the tail
        assert sched.runnable_count(3) == 1

    def test_quantum_sink_latches_need_resched(self, kernel, process):
        """The serving engine polls ``clock.now - slice_start`` at each
        yield point: a slice keeps running while under the quantum, is
        preempted at the first yield at or past it, and every dispatch
        starts a fresh slice."""
        from repro.bench.serving import ArrivalSchedule, ServingEngine

        steps = []

        def factory(task, conn_id):
            def job():
                for _ in range(3):
                    kernel.clock.charge(600.0, site="test.work")
                    steps.append(task.tid)
                    yield
            return job()

        # accept + 600 stays under the quantum; accept + 1200 crosses it.
        engine = ServingEngine(kernel, cores=[3],
                               quantum=kernel.costs.accept_cycles + 1000.0)
        a, b = process.spawn_task(), process.spawn_task()
        engine.add_worker(a, core_id=3)
        engine.add_worker(b, core_id=3)
        engine.offer(ArrivalSchedule((0.0, 0.0)), factory)
        before = kernel.scheduler.preemptions
        assert engine.run().completed == 2
        assert steps == [a.tid, a.tid, b.tid, b.tid, a.tid, b.tid]
        assert kernel.scheduler.preemptions - before == 2


class TestShootdownRegressions:
    def test_non_running_initiator_rejected_before_any_charge(
            self, kernel, process):
        """The initiator check must run before any IPI is charged: a
        half-executed shootdown would skew the cycle ledger forever."""
        sibling = process.spawn_task()
        kernel.scheduler.schedule(sibling, charge=False)  # remote target
        parked = process.spawn_task()                     # never running
        start = kernel.clock.snapshot()
        ipis = kernel.scheduler.ipis_sent
        with pytest.raises(RuntimeError):
            kernel.scheduler.tlb_shootdown(process, initiator=parked)
        assert kernel.clock.snapshot() == start
        assert kernel.scheduler.ipis_sent == ipis

    def test_cross_process_initiator_core_is_flushed(self, kernel, process):
        """Cores have no ASIDs: when the initiating core runs a task of
        a *different* process, its TLB can still hold stale translations
        of the process being flushed — the local flush is mandatory."""
        other = kernel.create_process()
        victim = other.main_task
        addr = kernel.sys_mmap(victim, PAGE_SIZE, RW)
        victim.write(addr, b"x")              # fills this core's TLB
        core_id = victim.core_id
        core = kernel.machine.core(core_id)
        vpn = addr // PAGE_SIZE
        assert core.tlb.probe(vpn) is not None
        kernel.scheduler.unschedule(victim)
        initiator = process.spawn_task()      # process A task, same core
        kernel.scheduler.schedule(initiator, core_id=core_id)
        kernel.scheduler.tlb_shootdown(other, initiator=initiator)
        assert core.tlb.probe(vpn) is None

    def test_idle_core_holding_translations_is_flushed(self, kernel,
                                                       process):
        """Regression (keyscale at scale): a core whose worker blocked
        (e.g. parked on key_waiters during pkey exhaustion) sits idle
        but still caches the process's translations.  Pre-fix the
        shootdown only targeted cores *currently running* a task of the
        process, so the idle core kept stale prot/pkey tags and the
        worker faulted on resume."""
        worker = process.spawn_task()
        kernel.scheduler.schedule(worker)
        addr = kernel.sys_mmap(worker, PAGE_SIZE, RW)
        worker.write(addr, b"x")              # fills this core's TLB
        core = kernel.machine.core(worker.core_id)
        vpn = addr // PAGE_SIZE
        assert core.tlb.probe(vpn) is not None
        initiator = process.spawn_task()
        kernel.scheduler.schedule(initiator)  # lands on another core
        assert initiator.core_id != core.core_id
        kernel.scheduler.unschedule(worker)   # core now idle
        ipis = kernel.scheduler.ipis_sent
        flushes = core.tlb.stats.full_flushes
        remote = kernel.scheduler.tlb_shootdown(process,
                                                initiator=initiator)
        assert core.tlb.probe(vpn) is None    # pre-fix: still resident
        assert core.tlb.stats.full_flushes == flushes + 1
        assert kernel.scheduler.ipis_sent == ipis + remote

    def test_full_flush_retracts_shootdown_targeting(self, kernel,
                                                     process):
        """Once a core full-flushed, it holds nothing of the process —
        later shootdowns must not keep IPI-ing it forever."""
        worker = process.spawn_task()
        kernel.scheduler.schedule(worker)
        addr = kernel.sys_mmap(worker, PAGE_SIZE, RW)
        worker.write(addr, b"x")
        core = kernel.machine.core(worker.core_id)
        initiator = process.spawn_task()
        kernel.scheduler.schedule(initiator)
        kernel.scheduler.unschedule(worker)
        first = kernel.scheduler.tlb_shootdown(process,
                                               initiator=initiator)
        assert not core.tlb.may_hold(process.page_table)
        flushes = core.tlb.stats.full_flushes + core.tlb.stats.noop_flushes
        second = kernel.scheduler.tlb_shootdown(process,
                                                initiator=initiator)
        assert second == first - 1            # the idle core dropped out
        assert (core.tlb.stats.full_flushes
                + core.tlb.stats.noop_flushes) == flushes


class TestProcessLifecycle:
    def test_exit_task_removes_from_process(self, kernel, process):
        task = process.spawn_task()
        kernel.scheduler.schedule(task)
        process.exit_task(task)
        assert task not in process.live_tasks()
        assert not task.running

    def test_processes_have_isolated_address_spaces(self, kernel):
        p1 = kernel.create_process()
        p2 = kernel.create_process()
        addr = kernel.sys_mmap(p1.main_task, PAGE_SIZE, RW)
        p1.main_task.write(addr, b"p1 data")
        # Same numeric address is unmapped in p2.
        assert p2.main_task.try_read(addr, 7) is None
