"""The clusterbench sweep grid: cell scripts, gating, and the
markdown table the CI step summary renders."""

import pytest

from repro.bench.cluster import (
    _sweep_script,
    format_sweep_table,
    run_cluster_sweep,
)


class TestSweepPlumbing:
    def test_cell_script_is_deterministic(self):
        names = ["node0", "node1", "node2"]
        assert _sweep_script(names, 10.0) == _sweep_script(names, 10.0)
        short = _sweep_script(names, 10.0)
        long = _sweep_script(names, 40.0)
        assert short[0].duration == 10e6
        assert long[0].duration == 40e6
        assert short[1].kind == "node_kill"

    def test_impossible_cells_are_skipped(self):
        # replicas > nodes is rejected by the shard map, so the sweep
        # never builds those cells; the runnable cell beside it still
        # runs.
        sweep = run_cluster_sweep(nodes_axis=(3,), replicas_axis=(2, 4),
                                  partition_axis_mcyc=(10.0,),
                                  connections=8)
        assert [(row["nodes"], row["replicas"])
                for row in sweep["rows"]] == [(3, 2)]

    def test_sweep_without_a_runnable_cell_is_rejected(self):
        # An all-skipped grid would report "rows": [] and pass
        # vacuously; it is bad input instead.
        with pytest.raises(ValueError, match="no runnable cell"):
            run_cluster_sweep(nodes_axis=(2,), replicas_axis=(3,),
                              partition_axis_mcyc=(10.0,),
                              connections=8)
        with pytest.raises(ValueError, match="no runnable cell"):
            run_cluster_sweep(nodes_axis=(3,), replicas_axis=(1,),
                              partition_axis_mcyc=(), connections=8)

    def test_single_node_cluster_is_rejected(self):
        # The cell script partitions node0 from node1.
        with pytest.raises(ValueError, match=">= 2"):
            run_cluster_sweep(nodes_axis=(1, 3), replicas_axis=(1,),
                              partition_axis_mcyc=(10.0,),
                              connections=8)

    def test_single_cell_passes_the_gates(self):
        sweep = run_cluster_sweep(nodes_axis=(3,), replicas_axis=(2,),
                                  partition_axis_mcyc=(10.0,),
                                  connections=24)
        (row,) = sweep["rows"]
        assert row["nodes"] == 3 and row["replicas"] == 2
        assert row["post_sync_misses"] == 0
        assert row["completed"] + row["shed"] == 24

    def test_table_is_github_markdown(self):
        sweep = {"rows": [{
            "nodes": 4, "replicas": 2, "partition_mcyc": 40.0,
            "completed": 96, "shed": 0, "misses": 0,
            "hints_queued": 191, "hints_drained": 187,
            "hints_dropped": 4, "sync_pages": 17, "sync_retries": 0,
            "post_sync_misses": 0,
        }]}
        table = format_sweep_table(sweep)
        assert "| nodes | replicas |" in table
        assert "| 4 | 2 | 40M | 96 | 0 | 0 | 191/187/4 | 17 | 0 | 0 |" \
            in table
