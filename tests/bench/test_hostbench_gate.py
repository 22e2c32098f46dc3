"""The hostbench baseline gate, driven by synthetic reports.

The real benchmark is timed in CI; these tests pin the gate *logic* —
exact ``sim_cycles`` against the baseline, per-workload wall floors
with failure messages that name the regressing workload, the
``--only`` subset, and the markdown rendering — without burning
benchmark wall time in the unit suite.
"""

from __future__ import annotations

from repro.bench import hostbench

SIM = {"fig8_cache": 193136.9, "table1": 1323945.0,
       "fig14_memcached": 667153.5}


def _report(walls: dict[str, float], sim: dict[str, float] = SIM) -> dict:
    return {
        "schema": 3,
        "note": "synthetic",
        "benchmarks": {
            name: {
                "sim_cycles": sim[name],
                "wall_s": wall,
                "wall_all_s": [wall],
                "repeat": 1,
            }
            for name, wall in walls.items()
        },
    }


BASELINE_WALLS = {"fig8_cache": 0.030, "table1": 0.030,
                  "fig14_memcached": 0.020}
BASELINE = _report(BASELINE_WALLS)


class TestSpeedupFloors:
    def test_passes_when_every_workload_clears_floor(self):
        # Slower than the baseline, but within every floor.
        walls = {name: wall * 1.1 for name, wall in BASELINE_WALLS.items()}
        assert hostbench.check_against_baseline(_report(walls),
                                                BASELINE) == []

    def test_failure_names_the_regressing_workload(self):
        bad = dict(BASELINE_WALLS, table1=3 * BASELINE_WALLS["table1"])
        problems = hostbench.check_against_baseline(_report(bad), BASELINE)
        assert len(problems) == 1
        assert problems[0].startswith("table1:")
        assert "fig8" not in problems[0]

    def test_every_workload_has_a_floor(self):
        assert set(hostbench.FLOORS) == set(hostbench.WORKLOADS)

    def test_all_floors_require_fast_path_to_win(self):
        # A floor of 1 demands no slowdown at all; above 1 would demand
        # a speedup over the baseline on every run.
        assert all(0 < floor <= 1 for floor in hostbench.FLOORS.values())

    def test_missing_workload_is_a_failure(self):
        partial = {k: v for k, v in BASELINE_WALLS.items() if k != "table1"}
        problems = hostbench.check_against_baseline(_report(partial),
                                                    BASELINE)
        assert problems == ["table1: missing from the report"]

    def test_subset_restriction_skips_absent_workloads(self):
        partial = {"table1": BASELINE_WALLS["table1"]}
        assert hostbench.check_against_baseline(
            _report(partial), BASELINE, workloads=["table1"]) == []


class TestBaselineGate:
    def test_includes_absolute_floors(self):
        # sim_cycles must match exactly, even at the baseline's wall.
        drifted = dict(SIM, fig14_memcached=SIM["fig14_memcached"] + 0.5)
        problems = hostbench.check_against_baseline(
            _report(BASELINE_WALLS, sim=drifted), BASELINE)
        assert len(problems) == 1
        assert problems[0].startswith("fig14_memcached:")
        assert "sim_cycles" in problems[0]

    def test_relative_regression_fails_even_above_absolute_floor(self):
        # Identical sim_cycles, but a wall past 1 / floor of the
        # baseline's.
        floor = hostbench.FLOORS["fig8_cache"]
        slow = dict(BASELINE_WALLS,
                    fig8_cache=BASELINE_WALLS["fig8_cache"] / floor * 1.01)
        problems = hostbench.check_against_baseline(_report(slow), BASELINE)
        assert len(problems) == 1
        assert problems[0].startswith("fig8_cache:")
        assert "baseline" in problems[0]

    def test_passes_at_baseline(self):
        assert hostbench.check_against_baseline(BASELINE, BASELINE) == []


class TestMarkdown:
    def test_renders_one_row_per_workload_with_floor(self):
        text = hostbench.format_markdown(BASELINE)
        assert text.startswith("### ")
        for name in BASELINE_WALLS:
            row = next(line for line in text.splitlines()
                       if line.startswith(f"| {name} |"))
            assert row.endswith(f"| {hostbench.FLOORS[name]:.2f} |")
