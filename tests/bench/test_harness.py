"""The bench harness: the run-twice gate's verdicts and failure
messages, and the byte-stable BENCH writer."""

import json

import pytest

from repro.bench.harness import check_identical, run_twice, write_json


def _fingerprint(**overrides):
    base = {
        "clock_cycles": 1000.0,
        "latencies": (10.0, 20.0),
        "site_cycles": {"hw.tlb.walk": 600.0, "kernel.mprotect": 400.0},
    }
    base.update(overrides)
    return base


class TestCheckIdentical:
    def test_equal_fingerprints_pass(self):
        check_identical("httpd", _fingerprint(), _fingerprint())

    def test_scalar_divergence_names_key_and_values(self):
        with pytest.raises(AssertionError) as err:
            check_identical("httpd", _fingerprint(),
                            _fingerprint(clock_cycles=1001.0))
        message = str(err.value)
        assert message.startswith("httpd: ")
        assert "clock_cycles" in message
        assert "1000.0 vs 1001.0" in message

    def test_first_divergent_key_in_sorted_order(self):
        with pytest.raises(AssertionError) as err:
            check_identical("memcached", _fingerprint(),
                            _fingerprint(latencies=(10.0, 21.0),
                                         clock_cycles=999.0))
        message = str(err.value)
        assert "at clock_cycles:" in message
        assert "latencies" not in message

    def test_nested_site_ledger_divergence_names_the_site(self):
        second = _fingerprint(site_cycles={"hw.tlb.walk": 600.0,
                                           "kernel.mprotect": 401.0})
        with pytest.raises(AssertionError) as err:
            check_identical("n3 r1 p10M", _fingerprint(), second)
        message = str(err.value)
        assert message.startswith("n3 r1 p10M: ")
        assert "site_cycles['kernel.mprotect']" in message
        assert "400.0 vs 401.0" in message
        assert "hw.tlb.walk" not in message

    def test_site_present_in_one_run_only(self):
        second = _fingerprint(site_cycles={"hw.tlb.walk": 600.0,
                                           "kernel.mprotect": 400.0,
                                           "apps.extra": 1.0})
        with pytest.raises(AssertionError,
                           match=r"site_cycles\['apps.extra'\]: "
                                 r"'<missing>' vs 1.0"):
            check_identical("httpd", _fingerprint(), second)


class TestRunTwice:
    def test_returns_the_first_result(self):
        results = iter([{"clock": 5.0, "run": 1}, {"clock": 5.0, "run": 2}])
        first = run_twice("cell", lambda: next(results),
                          lambda r: {"clock": r["clock"]})
        assert first == {"clock": 5.0, "run": 1}

    def test_divergent_runs_raise(self):
        clocks = iter([5.0, 6.0])
        with pytest.raises(AssertionError, match="cell: .*clock.*5.0 vs 6.0"):
            run_twice("cell", lambda: next(clocks),
                      lambda clock: {"clock": clock})


class TestWriteJson:
    def test_sorted_indented_with_trailing_newline(self, tmp_path):
        path = tmp_path / "bench.json"
        write_json({"b": 1, "a": {"d": 2, "c": 3}}, path)
        text = path.read_text()
        assert text == json.dumps({"a": {"c": 3, "d": 2}, "b": 1},
                                  indent=2) + "\n"
