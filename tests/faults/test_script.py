"""Fault scripts: the one event type, its JSON codec, and the arm loop."""

import json
import pathlib

import pytest

from repro.bench import chaos, cluster
from repro.faults.inject import FaultInjector
from repro.faults.script import (
    FaultEvent,
    arm_script,
    script_from_json,
    script_to_json,
)

REPO = pathlib.Path(__file__).resolve().parents[2]


class TestCommittedScriptsRoundTrip:
    """Each committed BENCH script re-encodes to itself under its own
    module's fields: an extra field leaking into the serving codec, or
    one missing from the cluster codec, breaks the equality."""

    @pytest.mark.parametrize("bench, keys, fields", [
        ("BENCH_chaos.json", ("script",), chaos.SCRIPT_FIELDS),
        ("BENCH_cluster.json", ("script", "rehydration_script"),
         cluster.SCRIPT_FIELDS),
    ])
    def test_decode_then_encode_is_identity(self, bench, keys, fields):
        recorded = json.loads((REPO / bench).read_text())
        for key in keys:
            data = recorded[key]
            assert data, f"{bench} has an empty {key}"
            assert script_to_json(script_from_json(data), fields) == data


class TestArmScript:
    def test_labels_and_factory_arguments(self, kernel):
        built = []

        def factory(event):
            built.append(event)
            return lambda injection: None

        script = (FaultEvent(kind="poke", site="hw.test.site",
                             occurrence=2),
                  FaultEvent(kind="poke", site="hw.test.other",
                             occurrence=1))
        injector = FaultInjector()
        arm_script(injector, script, {"poke": factory})
        assert built == list(script)
        kernel.machine.obs.add_sink(injector)
        try:
            for site in ("hw.test.site", "hw.test.other",
                         "hw.test.site"):
                kernel.clock.charge(1.0, site=site)
        finally:
            kernel.machine.obs.remove_sink(injector)
        assert [rec.label for rec in injector.fired] == [
            "poke:hw.test.other@1", "poke:hw.test.site@2"]

    def test_unknown_kind_rejected_before_any_factory_runs(self):
        built = []
        script = (FaultEvent(kind="poke", site="x", occurrence=1),
                  FaultEvent(kind="meteor", site="y", occurrence=1))
        injector = FaultInjector()
        with pytest.raises(ValueError, match="meteor"):
            arm_script(injector, script,
                       {"poke": lambda event: built.append(event)})
        assert built == []
        assert injector.fired == [] and injector._plans == []
