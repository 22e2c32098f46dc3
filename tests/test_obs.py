"""The instrumentation spine: sinks, aggregation, spans, conservation."""

import pytest

from repro.bench import make_testbed
from repro.consts import PAGE_SIZE, PROT_READ, PROT_WRITE
from repro.hw.cycles import Clock
from repro.obs import (ChargeRecord, Observability, RingLog,
                       SiteAggregator)

RW = PROT_READ | PROT_WRITE


class TestSinkRegistration:
    def test_sinks_receive_charges(self):
        clock = Clock()
        log = RingLog(capacity=8)
        clock.add_sink(log)
        clock.charge(10.0, site="hw.test.a")
        clock.charge(2.0, site="hw.test.b")
        assert [(e.site, e.cycles, e.now, e.seq) for e in log.events()] \
            == [("hw.test.a", 10.0, 10.0, 1), ("hw.test.b", 2.0, 12.0, 2)]

    def test_duplicate_registration_rejected(self):
        clock = Clock()
        log = RingLog()
        clock.add_sink(log)
        with pytest.raises(ValueError):
            clock.add_sink(log)

    def test_unregistered_sink_stops_receiving(self):
        clock = Clock()
        log = RingLog()
        clock.add_sink(log)
        clock.charge(10.0, site="hw.test.a")
        clock.remove_sink(log)
        clock.charge(10.0, site="hw.test.a")
        assert len(log) == 1
        clock.remove_sink(log)  # removing twice is a no-op

    def test_multiple_sinks_see_the_same_stream(self):
        """Sinks run in registration order and get the same record."""
        clock = Clock()
        seen = []

        class Recorder:
            def __init__(self, name):
                self.name = name

            def on_charge(self, site, cycles, now, seq):
                seen.append((self.name, site, cycles, now, seq))

        first, second = Recorder("first"), Recorder("second")
        clock.add_sink(first)
        clock.add_sink(second)
        clock.charge(3.0, site="hw.test.a")
        assert seen == [("first", "hw.test.a", 3.0, 3.0, 1),
                        ("second", "hw.test.a", 3.0, 3.0, 1)]


class TestSiteAggregator:
    def test_per_site_totals_and_counts(self):
        clock = Clock()
        agg = SiteAggregator(clock)
        for cycles in (2.0, 3.0):
            clock.charge(cycles, site="kernel.mprotect.base")
        clock.charge(10.0, site="hw.tlb.flush_full")
        clock.site_id("hw.test.never_charged")  # interned, not charged
        assert agg.cycles == {"kernel.mprotect.base": pytest.approx(5.0),
                              "hw.tlb.flush_full": pytest.approx(10.0)}
        assert agg.counts == {"kernel.mprotect.base": 2,
                              "hw.tlb.flush_full": 1}
        assert agg.total() == pytest.approx(15.0) == clock.now
        assert agg.sites() == ["hw.tlb.flush_full",
                               "kernel.mprotect.base"]

    def test_breakdown_groups_by_prefix_depth(self):
        clock = Clock()
        agg = SiteAggregator(clock)
        clock.charge(1.0, site="kernel.mprotect.base")
        clock.charge(2.0, site="kernel.mprotect.pte_update")
        clock.charge(4.0, site="kernel.mmap.body")
        clock.charge(8.0, site="hw.tlb.flush_full")
        assert agg.breakdown(depth=1) == {
            "kernel": pytest.approx(7.0), "hw": pytest.approx(8.0)}
        assert agg.breakdown(depth=2)["kernel.mprotect"] == \
            pytest.approx(3.0)
        # rows are ordered most expensive first
        assert agg.rows(depth=1)[0][0] == "hw"


class TestRingLog:
    def test_records_in_order(self):
        log = RingLog(capacity=4)
        for i in range(3):
            log.on_charge(f"hw.test.s{i}", float(i), float(i), i)
        events = log.events()
        assert [e.site for e in events] == \
            ["hw.test.s0", "hw.test.s1", "hw.test.s2"]
        assert isinstance(events[0], ChargeRecord)
        assert log.dropped == 0

    def test_overflow_evicts_oldest_and_counts_dropped(self):
        log = RingLog(capacity=3)
        for i in range(7):
            log.on_charge(f"hw.test.s{i}", float(i), float(i), i)
        assert len(log) == 3
        assert log.dropped == 4
        assert [e.site for e in log.events()] == \
            ["hw.test.s4", "hw.test.s5", "hw.test.s6"]

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            RingLog(capacity=0)

    def test_attach_ring_log_convenience(self, machine):
        log = machine.obs.attach_ring_log(capacity=16)
        machine.clock.charge(1.0, site="hw.test.a")
        assert len(log) == 1
        machine.obs.remove_sink(log)


class TestSpans:
    def test_nested_spans_attribute_self_vs_inclusive(self):
        clock = Clock()
        obs = Observability(clock)
        with obs.span("libmpk.outer"):
            clock.charge(10.0, site="libmpk.test.a")
            with obs.span("kernel.inner"):
                clock.charge(4.0, site="kernel.test.b")
        profile = obs.profile()
        outer = profile[("libmpk.outer",)]
        inner = profile[("libmpk.outer", "kernel.inner")]
        assert outer.count == 1
        assert outer.cycles == pytest.approx(14.0)   # inclusive
        assert outer.self_cycles == pytest.approx(10.0)
        assert inner.cycles == pytest.approx(4.0)
        assert inner.self_cycles == pytest.approx(4.0)

    def test_counter_aggregation_across_nested_spans(self, lib, task):
        """Spans do not disturb the flat per-site counters: cycles
        charged inside nested spans land exactly once."""
        obs = lib._kernel.machine.obs
        before = obs.clock.now
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)  # libmpk + kernel spans
        assert obs.clock.now > before
        assert obs.aggregator.total() == pytest.approx(obs.clock.now)

    def test_span_subscription_and_unsubscription(self):
        clock = Clock()
        obs = Observability(clock)
        seen = []

        def on_span(record, ancestors):
            seen.append((record.label, ancestors))

        obs.subscribe_spans(on_span)
        with obs.span("libmpk.outer"):
            with obs.span("kernel.inner"):
                pass
        assert seen == [("kernel.inner", ("libmpk.outer",)),
                        ("libmpk.outer", ())]
        obs.unsubscribe_spans(on_span)
        obs.unsubscribe_spans(on_span)  # unknown callback: no-op
        with obs.span("libmpk.outer"):
            pass
        assert len(seen) == 2  # nothing new after unsubscribe

    def test_span_emitted_on_exception(self):
        clock = Clock()
        obs = Observability(clock)
        with pytest.raises(RuntimeError):
            with obs.span("kernel.boom"):
                clock.charge(2.0, site="kernel.test.a")
                raise RuntimeError("inside")
        assert obs.profile()[("kernel.boom",)].cycles == \
            pytest.approx(2.0)
        assert obs.span_depth == 0


class TestConservation:
    def test_holds_from_cycle_zero(self, machine):
        ok, delta = machine.obs.audit()
        assert ok and delta == 0.0

    def test_holds_after_benchmark_style_workload(self):
        """Table-1-style run plus libmpk churn: every cycle the clock
        advanced is accounted to some site."""
        bed = make_testbed(threads=4, evict_rate=1.0)
        kernel, task, lib = bed.kernel, bed.task, bed.lib
        addr = kernel.sys_mmap(task, PAGE_SIZE, RW)
        for _ in range(50):  # raw-syscall churn (libmpk holds all pkeys)
            kernel.sys_mprotect(task, addr, PAGE_SIZE, PROT_READ)
            kernel.sys_mprotect(task, addr, PAGE_SIZE, RW)
        for vkey in range(100, 120):  # force key-cache eviction
            buf = lib.mpk_mmap(task, vkey, 2 * PAGE_SIZE, RW)
            with lib.domain(task, vkey, RW):
                task.write(buf, b"payload")
        lib.mpk_mprotect(task, 100, PROT_READ)
        obs = kernel.machine.obs
        assert obs.clock.now > 100_000  # a real workload ran
        ok, delta = obs.audit()
        assert ok, f"attribution leak: {delta} cycles"
        assert obs.aggregator.total() == pytest.approx(obs.clock.now)

    def test_every_layer_shows_up(self, lib, task):
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        with lib.domain(task, 100, RW):
            pass
        layers = set(lib._kernel.machine.obs.breakdown(depth=1))
        assert {"hw", "kernel", "libmpk"} <= layers

    def test_negative_charge_rejected(self):
        clock = Clock()
        with pytest.raises(ValueError):
            clock.charge(-1.0, site="hw.test.a")


class TestRendering:
    def test_format_breakdown_table(self, lib, task):
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        obs = lib._kernel.machine.obs
        text = obs.format_breakdown(depth=2, limit=5)
        assert "site" in text and "share" in text
        assert len(text.splitlines()) <= 6

    def test_format_profile_tree(self, lib, task):
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        text = lib._kernel.machine.obs.format_profile()
        assert "libmpk.mpk_mmap" in text
        assert "  kernel.sys_mmap" in text  # indented child

    def test_mpk_stats_procfs_node(self, process, lib, task):
        from repro.kernel.procfs import format_mpk_stats, mpk_stats
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        stats = mpk_stats(process)
        assert stats["conservation_ok"]
        assert stats["clock_cycles"] == \
            pytest.approx(stats["attributed_cycles"])
        assert set(stats["by_layer"]) >= {"kernel", "libmpk"}
        text = format_mpk_stats(process)
        assert "Conservation:     ok" in text
        assert "kernel.mmap" in text

    def test_reading_stats_charges_nothing(self, process, lib, task):
        from repro.kernel.procfs import format_mpk_stats
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        clock = lib._kernel.clock
        before = clock.now
        format_mpk_stats(process)
        assert clock.now == before


class TestPerfSummaryIntegration:
    def test_charge_sites_counted(self, machine):
        machine.core(0).execute_adds(1)
        assert machine.perf_summary()["charge_sites"] >= 1


class TestSiteInterning:
    def test_labels_get_dense_stable_ids(self):
        clock = Clock()
        a = clock.site_id("hw.test.a")
        b = clock.site_id("hw.test.b")
        assert (a, b) == (0, 1)
        assert clock.site_id("hw.test.a") == a  # stable on re-intern
        assert clock.site_name(b) == "hw.test.b"

    def test_bound_aggregator_shares_the_clock_table(self):
        """The aggregator is a view of its clock's site ledger: it sees
        charges made before it was built, and two views agree."""
        clock = Clock()
        clock.charge(5.0, site="kernel.test.x")
        early = SiteAggregator(clock)
        late_id = clock.site_id("kernel.test.y")
        clock.charge(7.0, site="kernel.test.x")
        clock.charge(1.0, site="kernel.test.y")
        late = SiteAggregator(clock)
        for agg in (early, late):
            assert agg.cycles == {"kernel.test.x": pytest.approx(12.0),
                                  clock.site_name(late_id):
                                  pytest.approx(1.0)}
            assert agg.counts == {"kernel.test.x": 2, "kernel.test.y": 1}


class TestKeyCostTables:
    def test_mean_cost_per_key(self):
        clock = Clock()
        obs = Observability(clock)
        obs.charge_key_cost("libmpk.keycache.reload", 100, 4_000.0)
        obs.charge_key_cost("libmpk.keycache.reload", 100, 2_000.0)
        obs.charge_key_cost("libmpk.keycache.reload", 101, 500.0)
        assert obs.key_cost("libmpk.keycache.reload",
                            100) == pytest.approx(3_000.0)
        assert obs.key_costs("libmpk.keycache.reload") == {
            100: pytest.approx(3_000.0), 101: pytest.approx(500.0)}

    def test_unknown_table_or_key_yields_default(self):
        clock = Clock()
        obs = Observability(clock)
        assert obs.key_cost("libmpk.keycache.reload", 100) == 0.0
        assert obs.key_cost("libmpk.keycache.reload", 100,
                            default=7.5) == 7.5
        obs.charge_key_cost("libmpk.keycache.reload", 100, 1.0)
        assert obs.key_cost("libmpk.keycache.reload", 999,
                            default=-1.0) == -1.0
        assert obs.key_costs("other.table") == {}

    def test_recording_is_purely_observational(self):
        """charge_key_cost attributes already-charged cycles — it must
        never touch the clock itself."""
        clock = Clock()
        obs = Observability(clock)
        before = clock.now
        obs.charge_key_cost("libmpk.keycache.reload", 100, 4_000.0)
        assert clock.now == before


class TestMetricSeries:
    def test_interned_ids_record_like_labels(self):
        clock = Clock()
        obs = Observability(clock)
        mid = obs.metric_id("apps.test.depth")
        assert obs.metric_id("apps.test.depth") == mid  # stable
        obs.record_metric_id(mid, 3.0)
        obs.record_metric("apps.test.depth", 5.0)
        series = obs.metric("apps.test.depth")
        assert series.count == 2
        assert series.total == pytest.approx(8.0)
        assert series.minimum == 3.0 and series.maximum == 5.0

    def test_empty_series_summary_is_json_safe(self):
        """A pre-registered series that never saw an observation must
        not leak ±inf into JSON reports (procfs serializes these)."""
        import json
        import math

        clock = Clock()
        obs = Observability(clock)
        obs.metric_id("apps.test.never_recorded")
        summary = obs.metrics_summary()["apps.test.never_recorded"]
        assert summary["count"] == 0
        assert summary["minimum"] is None
        assert summary["maximum"] is None
        assert summary["last"] is None
        assert not any(isinstance(v, float) and math.isinf(v)
                       for v in summary.values())
        json.dumps(summary)  # must not require allow_nan fallbacks

    def test_metrics_summary_sorted_and_round_trips(self):
        import json

        clock = Clock()
        obs = Observability(clock)
        obs.record_metric("apps.b.site", 1.0)
        obs.record_metric("apps.a.site", 2.0)
        summary = obs.metrics_summary()
        assert list(summary) == ["apps.a.site", "apps.b.site"]
        assert json.loads(json.dumps(summary)) == summary

    def test_mpk_stats_exposes_metrics(self, process):
        from repro.kernel.procfs import mpk_stats

        obs = process.kernel.machine.obs
        obs.record_metric("apps.test.depth", 4.0)
        obs.metric_id("apps.test.empty")
        stats = mpk_stats(process)
        assert stats["metrics"]["apps.test.depth"]["mean"] == 4.0
        assert stats["metrics"]["apps.test.empty"]["minimum"] is None
