"""The resilience layer: engine wait deadlines, admission control,
supervision with restart budgets, and the chaos-soak campaign."""

import pytest

from repro.bench.serving import ArrivalSchedule, ServingEngine, WaitSpec
from repro.errors import MpkTimeout, TaskKilled
from repro.faults.signals import SEGV_PKUERR, SIGSEGV, Siginfo
from repro.kernel.task import WaitQueue


def _engine(kernel, process, cores=(1,), workers=1, killable=False,
            **kw):
    engine = ServingEngine(kernel, cores=list(cores), **kw)
    for i in range(workers):
        task = process.spawn_task()
        if killable:
            task.enable_signals()
        engine.add_worker(task, core_id=cores[i % len(cores)])
    return engine


def _kill(kernel, task):
    """In-job worker kill through the kernel's signal path (the same
    route the chaos campaign uses)."""
    info = Siginfo(SIGSEGV, SEGV_PKUERR, si_addr=0)
    kernel.signal_task(task, info)
    if task.state == "dead":
        raise TaskKilled(f"drill killed tid {task.tid}", tid=task.tid,
                         siginfo=info)


class TestEngineWaitDeadlines:
    def test_unwoken_wait_times_out_instead_of_stalling(self, kernel,
                                                        process):
        """A blocked worker with a deadline and no waker must expire
        (accounted) — pre-deadline engines raised 'stalled' here."""
        engine = _engine(kernel, process)
        wq = WaitQueue("test")

        def factory(task, conn_id):
            def job():
                kernel.clock.charge(100.0, site="test.serve")
                yield WaitSpec(wq, timeout=5_000.0)
                kernel.clock.charge(100.0, site="test.serve")
            return job()

        engine.offer(ArrivalSchedule.uniform(1, 1e6), factory)
        report = engine.run()
        assert report.completed == 0
        assert report.aborted == 1          # timeouts count as aborts
        assert report.wait_timeouts == 1
        assert len(wq) == 0                 # no residue
        assert wq.stats_timeouts == 1

    def test_job_may_catch_the_timeout_and_finish(self, kernel,
                                                  process):
        engine = _engine(kernel, process)
        wq = WaitQueue("test")

        def factory(task, conn_id):
            def job():
                kernel.clock.charge(100.0, site="test.serve")
                try:
                    yield WaitSpec(wq, timeout=5_000.0)
                except MpkTimeout:
                    kernel.clock.charge(50.0, site="test.serve")
            return job()

        engine.offer(ArrivalSchedule.uniform(1, 1e6), factory)
        report = engine.run()
        assert report.completed == 1
        assert report.wait_timeouts == 0    # handled, not dropped
        assert wq.stats_timeouts == 1

    def test_wake_in_time_beats_the_deadline(self, kernel, process):
        engine = _engine(kernel, process, workers=2)
        wq = WaitQueue("test")

        def blocker(task, conn_id):
            def job():
                yield WaitSpec(wq, timeout=1e12)
                kernel.clock.charge(10.0, site="test.serve")
            return job()

        def waker(task, conn_id):
            def job():
                kernel.clock.charge(100.0, site="test.serve")
                yield
                wq.wake_all()
            return job()

        engine.offer(ArrivalSchedule.uniform(1, 1e6), blocker)
        engine.offer(ArrivalSchedule.uniform(1, 1e6), waker)
        report = engine.run()
        assert report.completed == 2
        assert report.wait_timeouts == 0
        assert wq.stats_wakes == 1

    def test_earlier_deadline_expires_first(self, kernel, process):
        """Two blocked workers; the one with the shorter timeout (even
        if it parked later) resumes first."""
        engine = _engine(kernel, process, workers=2)
        wq = WaitQueue("test")
        order = []

        def factory(timeout):
            def make(task, conn_id):
                def job():
                    kernel.clock.charge(100.0, site="test.serve")
                    try:
                        yield WaitSpec(wq, timeout=timeout)
                    except MpkTimeout:
                        order.append(timeout)
                return job()
            return make

        engine.offer(ArrivalSchedule.uniform(1, 1e6), factory(50_000.0))
        engine.offer(ArrivalSchedule.uniform(1, 1e6), factory(5_000.0))
        report = engine.run()
        assert report.completed == 2
        assert order == [5_000.0, 50_000.0]


class TestAdmissionControl:
    def _overload(self, kernel, process):
        """1 worker, slow jobs, a burst of simultaneous arrivals, and
        room for only 2 queued connections."""
        engine = _engine(kernel, process, queue_limit=2)

        def factory(task, conn_id):
            def job():
                for _ in range(4):
                    kernel.clock.charge(250_000.0, site="test.serve")
                    yield
            return job()

        engine.offer(ArrivalSchedule.uniform(8, 2.4e9), factory)
        return engine.run()

    def test_overload_sheds_instead_of_queueing_without_bound(
            self, kernel, process):
        report = self._overload(kernel, process)
        assert report.shed > 0
        assert report.completed > 0
        assert (report.completed + report.aborted + report.shed
                + report.unserved) == report.offered
        assert kernel.machine.obs.metric(
            "apps.serving.shed").count == report.shed
        # Shedding is work: each reset charges conn_reset cycles.
        assert kernel.machine.obs.aggregator.counts[
            "apps.serving.shed"] == report.shed

    def test_shedding_is_deterministic(self):
        from repro import Kernel, Machine

        def run():
            kernel = Kernel(Machine(num_cores=8))
            process = kernel.create_process()
            report = self._overload(kernel, process)
            return (report.shed, report.completed, report.fingerprint(),
                    kernel.clock.now)

        assert run() == run()

    def test_queue_limit_validated(self, kernel):
        with pytest.raises(ValueError):
            ServingEngine(kernel, cores=[1], queue_limit=0)


class TestSupervisedEngine:
    def _supervised(self, kernel, process, max_restarts=8):
        from repro.apps.sslserver.workers import Supervisor

        engine = ServingEngine(kernel, cores=[1])
        pool = Supervisor(kernel, process, server=None, workers=1,
                          crash_policy="kill", schedule=False,
                          max_restarts=max_restarts)
        pool.attach_engine(engine, [1])
        engine.attach_supervisor(pool)
        return engine, pool

    def _killing_factory(self, kernel, kills):
        """Jobs for conn 0 kill their worker once; retries complete."""

        def factory(task, conn_id):
            def job():
                kernel.clock.charge(100.0, site="test.serve")
                yield
                if conn_id == 0 and not kills:
                    kills.append(task.tid)
                    _kill(kernel, task)
                kernel.clock.charge(100.0, site="test.serve")
            return job()

        return factory

    def test_killed_worker_restarts_and_conn_is_readmitted(
            self, kernel, process):
        engine, pool = self._supervised(kernel, process)
        kills = []
        engine.offer(ArrivalSchedule.uniform(3, 1e6),
                     self._killing_factory(kernel, kills))
        report = engine.run()
        assert len(kills) == 1
        assert report.completed == 3        # nothing lost, retried
        assert report.restarts == 1
        assert engine.readmitted == 1
        assert pool.deaths == 1
        assert pool.restarts == 1
        assert pool.live_workers() == 1
        ok, _ = kernel.machine.obs.audit()
        assert ok

    def test_exhausted_budget_degrades_instead_of_raising(
            self, kernel, process):
        engine, pool = self._supervised(kernel, process,
                                        max_restarts=0)
        kills = []
        engine.offer(ArrivalSchedule.uniform(3, 1e6),
                     self._killing_factory(kernel, kills))
        report = engine.run()               # must not raise
        assert pool.gave_up == 1
        assert pool.live_workers() == 0
        assert report.restarts == 0
        assert report.unserved == 3         # incl. the readmitted conn
        assert (report.completed + report.aborted + report.shed
                + report.unserved) == report.offered
        ok, _ = kernel.machine.obs.audit()
        assert ok

    def test_restart_charges_grow_exponentially(self, kernel, process):
        from repro.apps.sslserver.workers import Supervisor

        pool = Supervisor(kernel, process, workers=1,
                          crash_policy="kill", schedule=True,
                          max_restarts=3)

        def killer(worker):
            _kill(kernel, worker)

        agg = kernel.machine.obs.aggregator
        charges = []
        for _ in range(2):
            assert pool.dispatch(killer) is False
            charges.append(agg.cycles["apps.supervisor.backoff"])
        assert charges[0] == pool.backoff_base
        assert charges[1] == 3 * pool.backoff_base   # base + 2*base
        assert agg.counts["apps.supervisor.respawn"] == 2

    def test_dispatch_budget_exhaustion(self, kernel, process):
        from repro.apps.sslserver.workers import Supervisor

        pool = Supervisor(kernel, process, workers=1,
                          crash_policy="kill", schedule=True,
                          max_restarts=1)

        def killer(worker):
            _kill(kernel, worker)

        assert pool.dispatch(killer) is False   # death 1 -> restart 1
        assert pool.dispatch(killer) is False   # death 2 -> gave up
        assert (pool.deaths, pool.restarts, pool.gave_up) == (2, 1, 1)
        assert pool.live_workers() == 0
        with pytest.raises(RuntimeError):
            pool.dispatch(killer)
        ok, _ = kernel.machine.obs.audit()
        assert ok


class TestChaosCampaign:
    def test_script_generation_is_seed_deterministic(self):
        from repro.bench.chaos import generate_script

        assert generate_script(3, events=8) == generate_script(
            3, events=8)
        assert generate_script(3, events=8) != generate_script(
            4, events=8)

    def test_script_json_roundtrip(self):
        from repro.bench.chaos import SCRIPT_FIELDS, generate_script
        from repro.faults.script import script_from_json, script_to_json

        script = generate_script(9, events=5)
        assert script_from_json(
            script_to_json(script, SCRIPT_FIELDS)) == script

    def test_soak_passes_all_three_gates(self):
        """Liveness, audit, and two-run determinism are asserted inside
        run_servechaos; a clean return means all gates held."""
        from repro.bench.chaos import run_servechaos

        report = run_servechaos(seed=13, connections=12, events=4)
        assert set(report["scenarios"]) == {"httpd", "memcached"}
        for name, row in report["scenarios"].items():
            assert row["audit_ok"] and row["liveness_ok"], name
            assert (row["completed"] + row["aborted"] + row["shed"]
                    ) + row["unserved"] == row["offered"]
        assert len(report["script"]) == 4

    def test_engine_kill_counts_once_in_pool_stats(self):
        """A scripted kill inside an engine run is one death and one
        killed worker: the supervisor's ``deaths`` and the pool's
        ``workers_killed`` count the same event."""
        from repro.bench.chaos import _build_memcached, _soak
        from repro.faults.script import FaultEvent

        script = (FaultEvent("kill", "apps.memcached.request", 13),)
        run = _soak(lambda: _build_memcached(13, 32), script)
        assert run.fired == ("kill:apps.memcached.request@13",)
        assert run.supervisor["workers_killed"] == 1
        assert run.supervisor["deaths"] == 1
        assert run.supervisor["restarts"] == 1

    def test_recorded_script_replays_identically(self):
        from repro.bench.chaos import run_servechaos
        from repro.faults.script import script_from_json

        first = run_servechaos(seed=5, connections=10, events=3)
        replay = run_servechaos(
            seed=5, connections=10,
            script=script_from_json(first["script"]))
        assert first["scenarios"] == replay["scenarios"]
        assert first["script"] == replay["script"]

    def test_unknown_event_kind_rejected(self, kernel, process):
        from repro.bench.chaos import _actions
        from repro.faults.inject import FaultInjector
        from repro.faults.script import FaultEvent, arm_script

        with pytest.raises(ValueError, match="meteor"):
            arm_script(FaultInjector(),
                       [FaultEvent(kind="meteor", site="apps.x",
                                   occurrence=1)],
                       _actions(kernel, engine=None))
