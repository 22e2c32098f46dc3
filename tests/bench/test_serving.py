"""The serving engine: arrivals, percentiles, slicing, blocking, and
the bit-identical determinism gate."""

import random

import pytest

from repro.bench.serving import (
    ArrivalSchedule,
    PoissonArrivals,
    ServingEngine,
    _run_httpd_scenario,
    _run_memcached_scenario,
    blocking_begin,
    percentile,
    run_servebench,
)
from repro.consts import PROT_READ, PROT_WRITE
from repro.errors import MpkKeyExhaustion
from repro.kernel.task import WaitQueue

RW = PROT_READ | PROT_WRITE


class TestArrivalSchedule:
    def test_uniform_spacing(self):
        sched = ArrivalSchedule.uniform(4, rate_per_sec=2.4e9)
        assert sched.arrivals == (0.0, 1.0, 2.0, 3.0)
        assert len(sched) == 4
        assert sched.span_cycles == 3.0

    def test_poisson_is_seed_deterministic(self):
        a = _poisson_schedule(32, 1000.0, seed=3)
        b = _poisson_schedule(32, 1000.0, seed=3)
        c = _poisson_schedule(32, 1000.0, seed=4)
        assert a.arrivals == b.arrivals
        assert a.arrivals != c.arrivals

    def test_poisson_mean_gap_tracks_rate(self):
        sched = _poisson_schedule(2000, 1000.0, seed=1)
        mean_gap = sched.span_cycles / len(sched)
        assert mean_gap == pytest.approx(2.4e9 / 1000.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ArrivalSchedule((2.0, 1.0))
        with pytest.raises(ValueError):
            ArrivalSchedule.uniform(0, 10.0)


def _poisson_schedule(count, rate_per_sec, seed):
    """A Poisson stream materialized into an explicit schedule."""
    return ArrivalSchedule(tuple(
        PoissonArrivals(count, rate_per_sec, seed=seed).iter_arrivals()))


class TestPoissonArrivals:
    def test_matches_materialized_schedule_bit_for_bit(self):
        """The stream must produce the *same floats* as an inline,
        unbatched expovariate loop — across a batch boundary, so the
        internal batching provably doesn't perturb the RNG sequence."""
        count = PoissonArrivals.BATCH + 500
        rng = random.Random(9)
        mean_gap = 2.4e9 / 3_000.0
        now, eager = 0.0, []
        for _ in range(count):
            now += rng.expovariate(1.0) * mean_gap
            eager.append(now)
        lazy = PoissonArrivals(count, 3_000.0, seed=9)
        assert tuple(lazy.iter_arrivals()) == tuple(eager)
        assert len(lazy) == count

    def test_stream_is_restartable(self):
        lazy = PoissonArrivals(16, 1_000.0, seed=2)
        assert list(lazy.iter_arrivals()) == list(lazy.iter_arrivals())

    def test_validation(self):
        with pytest.raises(ValueError):
            PoissonArrivals(0, 10.0, seed=1)
        with pytest.raises(ValueError):
            PoissonArrivals(4, 0.0, seed=1)


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 95) == 95
        assert percentile(values, 99) == 99
        assert percentile(values, 100) == 100

    def test_small_samples(self):
        assert percentile([7.0], 50) == 7.0
        assert percentile([3.0, 1.0], 50) == 1.0
        assert percentile([3.0, 1.0], 99) == 3.0

    def test_validation(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 0)


def _collect(engine):
    """Record every completion's (latency, queue wait) by conn id."""
    done = {}
    engine.on_complete = lambda conn, now: done.__setitem__(
        conn.conn_id, (conn.latency, conn.queue_wait))
    return done


def _charging_job(kernel, cycles_per_step, steps):
    """A job factory charging a fixed number of cycles per step."""

    def factory(task, conn_id):
        def job():
            for _ in range(steps):
                kernel.clock.charge(cycles_per_step, site="test.serve")
                yield
        return job()

    return factory


class TestServingEngine:
    def _engine(self, kernel, process, cores=(1,), workers=1, **kw):
        engine = ServingEngine(kernel, cores=list(cores), **kw)
        for i in range(workers):
            engine.add_worker(process.spawn_task(),
                              core_id=cores[i % len(cores)])
        return engine

    def test_serves_every_connection(self, kernel, process):
        engine = self._engine(kernel, process)
        engine.offer(ArrivalSchedule.uniform(5, 1e6),
                     _charging_job(kernel, 100.0, steps=3))
        done = _collect(engine)
        report = engine.run()
        assert report.completed == 5
        assert report.unserved == 0
        assert sorted(done) == [0, 1, 2, 3, 4]
        assert all(lat > 0 for lat, _ in done.values())
        assert report.latency_digest.count == 5
        assert report.latency_digest.minimum > 0

    def test_latency_includes_queue_wait(self, kernel, process):
        """Back-to-back arrivals on one worker: the second connection
        waits for the first, so its latency exceeds its service time."""
        engine = self._engine(kernel, process)
        engine.offer(ArrivalSchedule((0.0, 0.0)),
                     _charging_job(kernel, 1000.0, steps=2))
        done = _collect(engine)
        report = engine.run()
        assert report.completed == 2
        (first, _), (second, second_wait) = done[0], done[1]
        assert second > first
        assert second_wait > 0

    def test_quantum_preempts_between_workers(self, kernel, process):
        """Two workers on one core with a tiny quantum must interleave:
        preemptions happen and both connections finish."""
        engine = self._engine(kernel, process, cores=(1,), workers=2,
                              quantum=4000.0)
        engine.offer(ArrivalSchedule((0.0, 0.0)),
                     _charging_job(kernel, 2000.0, steps=10))
        done = _collect(engine)
        report = engine.run()
        assert report.completed == 2
        assert report.preemptions > 0
        # Interleaving, not serialization: the finish times land within
        # a couple of slices of each other, not one full 20k-cycle
        # service time apart.
        spread = abs(done[0][0] - done[1][0])
        assert spread < 10 * 2000.0
        # A slice that lands exactly on the quantum preempts (>=).  With
        # quantum == accept + one step, each worker's first slice ends
        # after one step and the later ones after two: four preemptions.
        # One cycle more and every slice runs two steps: two.
        exact = kernel.costs.accept_cycles + 1000.0
        for quantum, preemptions in ((exact, 4), (exact + 1.0, 2)):
            engine = self._engine(kernel, process, cores=(1,), workers=2,
                                  quantum=quantum)
            engine.offer(ArrivalSchedule((0.0, 0.0)),
                         _charging_job(kernel, 1000.0, steps=3))
            before = kernel.scheduler.preemptions
            assert engine.run().completed == 2
            assert kernel.scheduler.preemptions - before == preemptions

    def test_nonpositive_quantum_rejected(self, kernel):
        for quantum in (0.0, -1.0):
            with pytest.raises(ValueError, match="quantum"):
                ServingEngine(kernel, cores=[1], quantum=quantum)

    def test_no_preemption_when_alone_on_core(self, kernel, process):
        engine = self._engine(kernel, process, cores=(1,), workers=1,
                              quantum=150.0)
        engine.offer(ArrivalSchedule((0.0,)),
                     _charging_job(kernel, 100.0, steps=10))
        report = engine.run()
        assert report.completed == 1
        assert report.preemptions == 0

    def test_idle_cores_fast_forward_to_arrivals(self, kernel, process):
        """A late arrival on an idle engine starts at its arrival time,
        not at cycle 0 — and queue wait stays zero."""
        engine = self._engine(kernel, process)
        engine.offer(ArrivalSchedule((1e6,)),
                     _charging_job(kernel, 100.0, steps=1))
        done = _collect(engine)
        report = engine.run()
        assert report.completed == 1
        # No backlog: the wait is just dispatch + accept bookkeeping,
        # not the megacycle the engine idled before the arrival.
        assert done[0][1] <= (kernel.costs.context_switch
                              + kernel.costs.accept_cycles)
        assert report.makespan_cycles >= 1e6

    def test_blocking_and_wake_across_workers(self, kernel, process):
        """A job yielding a WaitQueue parks its worker; another worker's
        job wakes it and both run to completion."""
        wq = WaitQueue("test.gate")
        order = []

        def blocker(task, conn_id):
            order.append("block")
            yield wq
            order.append("resumed")
            kernel.clock.charge(10.0, site="test.serve")
            yield

        def waker(task, conn_id):
            kernel.clock.charge(10.0, site="test.serve")
            yield
            order.append("wake")
            wq.wake_all()
            yield

        engine = self._engine(kernel, process, cores=(1, 2), workers=2)
        engine.offer(ArrivalSchedule((0.0,)), blocker)
        engine.offer(ArrivalSchedule((0.0,)), waker)
        report = engine.run()
        assert report.completed == 2
        assert report.blocked_waits == 1
        assert order == ["block", "wake", "resumed"]

    def test_stall_with_no_waker_is_detected(self, kernel, process):
        wq = WaitQueue("test.gate")

        def blocker(task, conn_id):
            yield wq

        engine = self._engine(kernel, process)
        engine.offer(ArrivalSchedule((0.0,)), blocker)
        with pytest.raises(RuntimeError, match="stalled"):
            engine.run()

    def test_horizon_leaves_late_arrivals_unserved(self, kernel, process):
        engine = self._engine(kernel, process)
        engine.offer(ArrivalSchedule((0.0, 5e6)),
                     _charging_job(kernel, 100.0, steps=1))
        report = engine.run(horizon=1e6)
        assert report.completed == 1
        assert report.unserved == 1

    def test_engines_are_single_use(self, kernel, process):
        engine = self._engine(kernel, process, name="httpd-test")
        engine.offer(ArrivalSchedule((0.0,)),
                     _charging_job(kernel, 10.0, steps=1))
        engine.run()
        # The error names the engine and its cores so a log line from a
        # multi-scenario run identifies which engine was reused.
        with pytest.raises(RuntimeError, match=r"'httpd-test'.*\[1\]"):
            engine.run()

    def test_digest_percentiles_match_collected_latencies(self, kernel,
                                                          process):
        """Below the exact cutoff the digests are nearest-rank on every
        completion, so they agree with :func:`percentile` over the
        latencies an ``on_complete`` collector saw."""
        engine = self._engine(kernel, process, cores=(1, 2), workers=4,
                              quantum=4000.0)
        # Offered above the cores' capacity, so a backlog builds and
        # latencies and waits spread out.
        engine.offer(PoissonArrivals(24, 400_000.0, seed=11),
                     _charging_job(kernel, 900.0, steps=12))
        done = _collect(engine)
        report = engine.run()
        assert report.completed == len(done) == 24
        latencies = [lat for lat, _ in done.values()]
        waits = [wait for _, wait in done.values()]
        assert len(set(latencies)) > 12 and max(waits) > 10 * min(waits)
        for p in (50, 95, 99):
            assert report.latency_digest.percentile(p) == \
                percentile(latencies, p)
            assert report.queue_wait_digest.percentile(p) == \
                percentile(waits, p)
        assert (report.p50, report.p95, report.p99) == tuple(
            percentile(latencies, p) for p in (50, 95, 99))
        assert report.latency_digest.maximum == max(latencies)

    def test_streaming_mode_is_bit_identical(self):
        def run():
            return _run_memcached_scenario(
                seed=5, connections=20, workers=4, num_cores=2,
                rate_per_sec=3_000.0)

        a, b = run(), run()
        assert a.clock_cycles == b.clock_cycles
        assert a.latency_digest.state() == b.latency_digest.state()
        assert a.queue_wait_digest.state() == b.queue_wait_digest.state()

    def test_retain_records_accepts_only_false(self, kernel, process):
        """The keyword survives for callers that still spell out the
        one accounting mode; asking for retained records is an error."""
        with pytest.raises(ValueError, match="retained"):
            ServingEngine(kernel, cores=[1], retain_records=True)
        engine = ServingEngine(kernel, cores=[1], retain_records=False)
        engine.add_worker(process.spawn_task(), core_id=1)
        engine.offer(ArrivalSchedule((0.0,)),
                     _charging_job(kernel, 10.0, steps=1))
        assert engine.run().completed == 1

    def test_busy_core_rejected(self, kernel, process, task):
        with pytest.raises(RuntimeError):
            ServingEngine(kernel, cores=[task.core_id])

    def test_teardown_restores_the_scheduler(self, kernel, process):
        engine = self._engine(kernel, process, cores=(1,), workers=2)
        engine.offer(ArrivalSchedule((0.0, 0.0, 0.0)),
                     _charging_job(kernel, 50.0, steps=2))
        engine.run()
        assert kernel.scheduler.running_task(1) is None
        assert kernel.scheduler.runnable_count(1) == 0
        for worker in engine.workers:
            assert worker.task.waiting_on is None


class TestBlockingBegin:
    def test_blocks_until_a_pin_drops(self, kernel, process, lib):
        """Workers contending for hardware keys genuinely block.

        Both workers share one core with a small quantum.  The hog
        dispatches first and pins every hardware key *within one slice*
        (no yields), then hits its first preemption point; the
        contender's ``blocking_begin`` then finds all keys pinned and
        parks on ``lib.key_waiters`` until the hog's ``mpk_end`` drops
        a pin and wakes it."""
        main = process.main_task
        groups = list(range(100, 100 + lib.cache.capacity))
        for vkey in groups:
            lib.mpk_mmap(main, vkey, 4096, RW)
        extra = 500
        lib.mpk_mmap(main, extra, 4096, RW)

        def hog(task, conn_id):
            for vkey in groups:          # one slice: no yields here
                lib.mpk_begin(task, vkey, RW)
            yield                        # preempted: contender runs
            for vkey in groups:
                lib.mpk_end(task, vkey)  # first end wakes the waiter
                yield

        def contender(task, conn_id):
            yield from blocking_begin(lib, task, extra, RW)
            lib.mpk_end(task, extra)
            yield

        engine = ServingEngine(kernel, cores=[1], quantum=1000.0)
        engine.add_worker(process.spawn_task(), core_id=1)
        engine.add_worker(process.spawn_task(), core_id=1)
        engine.offer(ArrivalSchedule((0.0,)), hog)
        engine.offer(ArrivalSchedule((0.0,)), contender)
        report = engine.run()
        assert report.completed == 2
        assert report.blocked_waits >= 1
        assert lib.key_waiters.stats_wakes >= 1

    def test_gives_up_after_max_spins(self, kernel, process, lib, task):
        with pytest.raises(MpkKeyExhaustion):
            gen = blocking_begin(lib, task, 999, RW, max_spins=0)
            next(gen)


class TestScenarioDeterminism:
    """Same seed, same schedule => bit-identical everything."""

    def _pair(self, scenario, **kw):
        return scenario(**kw), scenario(**kw)

    def test_httpd_bit_identical(self):
        a, b = self._pair(
            _run_httpd_scenario, seed=11, connections=12,
            requests_per_connection=2, response_size=1024, workers=4,
            num_cores=2, rate_per_sec=60_000.0)
        assert a.fingerprint() == b.fingerprint()
        assert a.preemptions == b.preemptions
        assert a.completed == 12

    def test_memcached_bit_identical(self):
        a, b = self._pair(
            _run_memcached_scenario, seed=11, connections=10, workers=4,
            num_cores=2, rate_per_sec=3_000.0)
        assert a.fingerprint() == b.fingerprint()
        assert a.completed == 10

    def test_seed_actually_changes_the_run(self):
        a = _run_memcached_scenario(seed=1, connections=10, workers=4,
                                    num_cores=2, rate_per_sec=3_000.0)
        b = _run_memcached_scenario(seed=2, connections=10, workers=4,
                                    num_cores=2, rate_per_sec=3_000.0)
        assert a.latency_digest.state() != b.latency_digest.state()

    def test_deterministic_under_fault_injection(self, ):
        """Armed delay injections are part of the cycle state, so two
        injected runs must still be bit-identical (and differ from the
        clean run)."""
        from repro.faults.inject import FaultInjector, delay

        def injected():
            from repro import Kernel, Machine
            from repro.apps.kvstore import Memcached, Twemperf
            from repro.apps.kvstore.slab import SLAB_BYTES
            from repro import Libmpk

            kernel = Kernel(Machine(num_cores=8))
            process = kernel.create_process()
            main = process.main_task
            lib = Libmpk(process)
            lib.mpk_init(main)
            store = Memcached(kernel, process, main, mode="mpk_begin",
                              lib=lib, slab_bytes=4 * SLAB_BYTES,
                              hash_buckets=1 << 10)
            perf = Twemperf(store, workers=4)
            injector = FaultInjector()
            injector.arm("apps.memcached.connect", occurrence=3,
                         action=delay(kernel.clock, 50_000.0),
                         repeat=True)
            kernel.machine.obs.add_sink(injector)
            engine = ServingEngine(kernel, cores=[1, 2])
            for i in range(4):
                engine.add_worker(process.spawn_task(),
                                  core_id=[1, 2][i % 2])
            schedule = PoissonArrivals(10, 3_000.0, seed=5)
            report = perf.run_open_loop(engine, schedule)
            kernel.machine.obs.remove_sink(injector)
            ok, _ = kernel.machine.obs.audit()
            assert ok, "conservation audit failed under injection"
            return report

        a = injected()
        b = injected()
        clean = _run_memcached_scenario(seed=4, connections=10, workers=4,
                                        num_cores=2, rate_per_sec=3_000.0)
        assert a.fingerprint() == b.fingerprint()
        assert a.clock_cycles != clean.clock_cycles


class TestRunServebench:
    def test_smoke_report_shape(self):
        report = run_servebench(seed=7, connections=8, curves=False)
        assert set(report["benchmarks"]) == {"httpd", "memcached"}
        for row in report["benchmarks"].values():
            assert row["completed"] == 8
            assert "latency_digest" not in row   # smoke rows keep no block
        assert "curves" not in report

    def test_large_scale_streams_digests(self):
        """The large scale at a tiny connection count: streaming mode
        end to end, digest summaries present, gate passing."""
        report = run_servebench(seed=7, connections=8, scale="large",
                                curves=False)
        assert report["scale"] == "large"
        for row in report["benchmarks"].values():
            assert row["completed"] == 8
            assert row["latency_digest"]["count"] == 8
            assert "queue_wait_digest" in row

    def test_curves_cover_every_multiplier(self):
        from repro.bench.serving import CURVE_MULTIPLIERS

        report = run_servebench(seed=7, connections=6)
        for name in ("httpd", "memcached"):
            points = report["curves"][name]
            assert [pt["load_multiplier"] for pt in points] == \
                list(CURVE_MULTIPLIERS)
            # Heavier offered load never shrinks the queue-depth peak.
            depths = [pt["queue_depth_max"] for pt in points]
            assert depths == sorted(depths)

    def test_unknown_scale_rejected(self):
        with pytest.raises(ValueError, match="unknown scale"):
            run_servebench(scale="galactic")
