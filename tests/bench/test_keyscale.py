"""The keyscale shootout: sweep mechanics, gates, and rendering."""

import json

import pytest

from repro.bench import keyscale
from repro.bench.harness import write_json
from repro.core.keycache import EVICTION_POLICIES


@pytest.fixture(scope="module")
def small_report():
    """One tiny but complete sweep shared by the read-only tests:
    both workloads, two policies, one small domain point."""
    return keyscale.run_keyscale(seed=11, domains=(60,),
                                 policies=("lru", "cost-aware"),
                                 smoke=True)


class TestSweep:
    def test_report_schema(self, small_report):
        report = small_report
        assert report["bench"] == "keyscale"
        assert report["domains"] == [60]
        assert report["policies"] == ["lru", "cost-aware"]
        assert report["determinism"] == {"runs_per_cell": 2,
                                         "identical": True}
        assert set(report["workloads"]) == {"serving", "jit"}
        for by_policy in report["workloads"].values():
            for curve in by_policy.values():
                assert len(curve) == 1
                cell = curve[0]
                assert "_fingerprint" not in cell
                assert cell["domains"] == 60
                assert cell["throughput_rps"] > 0
                assert 0.0 <= cell["hit_rate"] <= 1.0

    def test_comparison_covers_both_workloads(self, small_report):
        comparison = small_report["comparison"]
        assert set(comparison) == {"serving", "jit"}
        for summary in comparison.values():
            assert "60" in summary["wait_timeout_rate_by_domains"]
            # No >=1k point in this sweep: the verdict cannot claim a
            # win it never measured.
            assert summary["points_at_1k_plus"] == 0
            assert summary["cost_aware_beats_lru_at_1k_plus"] is False

    def test_default_policy_set_is_the_registry(self):
        assert keyscale.DEFAULT_POLICIES == tuple(EVICTION_POLICIES)
        assert set(keyscale.DEFAULT_POLICIES) >= {
            "lru", "fifo", "random", "clock", "cost-aware"}

    def test_unknown_policy_rejected(self):
        with pytest.raises(AssertionError, match="unknown policy"):
            keyscale.run_keyscale(policies=("belady",), domains=(50,))

    def test_unknown_workload_rejected(self):
        with pytest.raises(AssertionError, match="unknown workload"):
            keyscale.run_keyscale(workloads=("batch",), domains=(50,))


class TestCells:
    def test_serving_contention_expires_waits(self):
        """At 1k domains the serving shape must actually exercise the
        SLO path: exhaustion parks workers and some connections time
        out — a policy shootout over a workload with zero timeouts
        would compare nothing."""
        cell = keyscale._run_serving_cell("lru", 1_000, 11, 96)
        assert cell["wait_timeouts"] > 0
        assert cell["aborted"] == cell["wait_timeouts"]
        assert cell["completed"] + cell["aborted"] == cell["offered"]

    def test_serving_cell_is_deterministic(self):
        a = keyscale._run_serving_cell("clock", 60, 11, 24)
        b = keyscale._run_serving_cell("clock", 60, 11, 24)
        assert a == b

    def test_jit_cell_is_deterministic_and_quiet(self):
        a = keyscale._run_jit_cell("random", 80, 11, 120)
        b = keyscale._run_jit_cell("random", 80, 11, 120)
        assert a == b
        assert a["wait_timeouts"] == 0  # single thread: nobody waits


class TestRendering:
    def test_text_report_tables_and_curves(self, small_report):
        text = keyscale.format_report(small_report)
        assert "workload: serving" in text
        assert "workload: jit" in text
        assert "lru" in text and "cost-aware" in text
        assert "throughput (req/s) vs domains" in text
        assert "determinism gate: 2 runs per cell" in text

    def test_markdown_summary(self, small_report):
        md = keyscale.format_markdown(small_report)
        assert md.startswith("### keyscale")
        assert "| policy | throughput/s |" in md
        assert "cost-aware" in md

    def test_write_report_round_trips(self, small_report, tmp_path):
        path = tmp_path / "keyscale.json"
        write_json(small_report, path)
        assert json.loads(path.read_text()) == small_report
        # Byte-stable serialization (sorted keys, trailing newline):
        # re-writing the same report must reproduce the file exactly.
        first = path.read_bytes()
        write_json(small_report, path)
        assert path.read_bytes() == first
