"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest perfbench -q

They exercise the span arithmetic with a fake clock, install and
removal of the wrappers, every workload on a non-default seed (all
checks but the golden compare), the golden compare on the default seed,
and the refusal to run without the simulator source.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracer as tracer_mod
from tracer import Tracer

HERE = Path(__file__).resolve().parent


class FakeClock:
    """A host clock that moves only when the test says work happened."""

    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t

    def work(self, seconds: float) -> None:
        self.t += seconds


def make_tracer():
    clock = FakeClock()
    return Tracer(layers={"a": (), "b": ()}, now=clock), clock


def test_cross_layer_child_is_subtracted():
    t, clock = make_tracer()
    b = t.wrap("b", lambda: clock.work(2.0))

    def a_body():
        clock.work(1.0)
        b()
        clock.work(3.0)

    t.wrap("a", a_body)()
    assert t.self_s == {"a": 4.0, "b": 2.0}
    assert t.calls == {"a": 1, "b": 1}


def test_same_layer_recursion_is_not_double_counted():
    t, clock = make_tracer()
    b = t.wrap("b", lambda: clock.work(2.0))

    def inner():
        clock.work(1.0)
        b()

    inner_a = t.wrap("a", inner)

    def outer():
        clock.work(5.0)
        inner_a()          # same layer: stays inside the outer span

    t.wrap("a", outer)()
    assert t.self_s == {"a": 6.0, "b": 2.0}
    assert t.calls == {"a": 2, "b": 1}
    assert sum(t.self_s.values()) == clock.t


def test_layer_reentered_below_another_layer_gets_its_own_span():
    t, clock = make_tracer()
    leaf = t.wrap("a", lambda: clock.work(1.0))

    def middle():
        clock.work(2.0)
        leaf()

    b = t.wrap("b", middle)

    def top():
        clock.work(4.0)
        b()

    t.wrap("a", top)()
    assert t.self_s == {"a": 5.0, "b": 2.0}
    assert sum(t.self_s.values()) == clock.t


def test_span_closes_when_the_call_raises():
    t, clock = make_tracer()

    def boom():
        clock.work(1.0)
        raise ValueError("boom")

    with pytest.raises(ValueError):
        t.wrap("a", boom)()
    t.wrap("b", lambda: clock.work(2.0))()
    assert t.self_s == {"a": 1.0, "b": 2.0}
    t.reset()
    assert t.self_s == {"a": 0.0, "b": 0.0}


class Target:
    def charge(self, x):
        return x + 1

    def mpk_one(self):
        return "one"


def test_install_wraps_and_uninstall_restores():
    originals = dict(vars(Target))
    layers = {"a": ((__name__, "Target", ("charge", "mpk_*")),)}
    t = Tracer(layers=layers)
    t.install()
    assert vars(Target)["charge"] is not originals["charge"]
    assert Target().charge(1) == 2 and Target().mpk_one() == "one"
    assert t.calls["a"] == 2
    assert sorted(t.installed_leftovers()) == ["Target.charge",
                                               "Target.mpk_one"]
    t.uninstall()
    assert vars(Target)["charge"] is originals["charge"]
    assert vars(Target)["mpk_one"] is originals["mpk_one"]
    assert t.installed_leftovers() == []


def test_every_layer_entry_point_exists():
    run.import_simulator()
    for entries in tracer_mod.LAYERS.values():
        for module, cls_name, names in entries:
            cls = getattr(importlib.import_module(module), cls_name)
            assert tracer_mod._expand(cls, names)
            for name in tracer_mod._expand(cls, names):
                assert name in vars(cls), f"{cls_name}.{name}"


def result_of(argv) -> tuple[dict, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run.main(argv) == 0
    text = out.getvalue()
    return json.loads(text.strip().splitlines()[-1]), text


@pytest.mark.parametrize("workload", ["serve_memcached", "keycache_churn",
                                      "mmu_stream", "cluster_replicated"])
def test_other_seed_passes_every_check_traced(workload):
    result, text = result_of(["--workload", workload, "--seed", "7",
                              "--seconds", "0.1", "--trace", "1"])
    assert result["correct"], text
    assert result["failed"] == 0
    assert set(result["metrics"]) == {name for name, _ in run.PER_LAYER}


def test_default_seed_matches_golden():
    result, text = result_of(["--workload", "mmu_stream",
                              "--seconds", "0.1", "--trace", "0"])
    assert result["correct"], text
    assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}


def test_golden_mismatch_fails_every_op(monkeypatch):
    golden = run.load_golden("mmu_stream")
    monkeypatch.setattr(run, "load_golden",
                        lambda name: dict(golden, clock=golden["clock"] + 1))
    result, _ = result_of(["--workload", "mmu_stream",
                           "--seconds", "0.1", "--trace", "0"])
    assert not result["correct"]
    assert result["failed"] == result["attempted"] > 0


def test_refuses_to_run_without_simulator_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mmu_stream",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
