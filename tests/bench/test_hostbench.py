"""Hostbench's gate: ``BENCH_hotpath.json`` regenerates byte for byte.

The committed file records, per workload, the simulated cycles and the
named Python calls its run body makes per ``repro`` layer.  Both are
exact, so a change that costs the hot paths more host calls shows as a
diff whatever the host's load, even when it moves no simulated cycle.
"""

from __future__ import annotations

import json
import pathlib

import pytest

import repro.kernel.mm
from repro.__main__ import main
from repro.bench import hostbench
from tests.mutants import NeverAuthoritativePageTable

COMMITTED = pathlib.Path(__file__).resolve().parents[2] / "BENCH_hotpath.json"
REGENERATE = "PYTHONPATH=src python -m repro hostbench"


def _differences(committed: dict, fresh: dict) -> list[str]:
    """One line per workload: its sim_cycles change, if any, and each
    layer's calls in the fresh run minus the committed file's."""
    lines = []
    old_rows, new_rows = committed["benchmarks"], fresh["benchmarks"]
    for name in sorted(old_rows.keys() | new_rows.keys()):
        old, new = old_rows.get(name, {}), new_rows.get(name, {})
        parts = []
        if old.get("sim_cycles") != new.get("sim_cycles"):
            parts.append(f"sim_cycles {old.get('sim_cycles')!r} -> "
                         f"{new.get('sim_cycles')!r}")
        old_calls = old.get("calls_by_layer", {})
        new_calls = new.get("calls_by_layer", {})
        for layer in sorted(old_calls.keys() | new_calls.keys()):
            delta = new_calls.get(layer, 0) - old_calls.get(layer, 0)
            if delta:
                parts.append(f"{layer} {delta:+,d}")
        lines.append(f"  {name}: {', '.join(parts) or 'unchanged'}")
    return lines


def test_regenerates_the_committed_file(tmp_path, capsys):
    out = tmp_path / "BENCH_hotpath.json"
    assert main(["hostbench", "--output", str(out)]) == 0
    capsys.readouterr()
    if out.read_bytes() != COMMITTED.read_bytes():
        diffs = _differences(json.loads(COMMITTED.read_text()),
                             json.loads(out.read_text()))
        pytest.fail("hostbench no longer reproduces BENCH_hotpath.json "
                    "(fresh run minus committed):\n" + "\n".join(diffs)
                    + f"\nif the change is intended, regenerate it with "
                    f"`{REGENERATE}`")


def test_mismatch_names_each_workloads_layer_difference():
    committed = {"benchmarks": {
        "fig8_cache": {"sim_cycles": 1.0,
                       "calls_by_layer": {"hw": 10, "obs": 2}},
        "table1": {"sim_cycles": 2.0, "calls_by_layer": {"hw": 5}}}}
    fresh = {"benchmarks": {
        "fig8_cache": {"sim_cycles": 1.0,
                       "calls_by_layer": {"hw": 12, "other": 3}},
        "table1": {"sim_cycles": 2.5, "calls_by_layer": {"hw": 5}}}}
    assert _differences(committed, fresh) == [
        "  fig8_cache: hw +2, obs -2, other +3",
        "  table1: sim_cycles 2.0 -> 2.5"]


def test_never_authoritative_tlb_moves_calls_not_cycles(monkeypatch):
    """The regression the gate is for: a TLB that never serves an
    authoritative hit charges the same simulated cycles, so only the
    call counts can show it."""
    monkeypatch.setattr(repro.kernel.mm, "PageTable",
                        NeverAuthoritativePageTable)
    row = hostbench.run_workload("fig8_cache")
    committed = json.loads(COMMITTED.read_text())["benchmarks"]["fig8_cache"]
    assert row["sim_cycles"] == committed["sim_cycles"]
    assert (sum(row["calls_by_layer"].values())
            != sum(committed["calls_by_layer"].values()))
