"""The ``python -m repro`` command-line interface."""

import sys

import pytest

from repro.__main__ import main


class TestInfo:
    def test_prints_calibration(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "libmpk-repro" in out
        assert "USENIX ATC 2019" in out
        assert "WRPKRU" in out
        assert "1094.0" in out


class TestResults:
    def test_prints_archived_tables_when_present(self, capsys,
                                                 tmp_path, monkeypatch):
        import repro.__main__ as cli
        monkeypatch.setattr(cli, "RESULTS_DIR", tmp_path)
        (tmp_path / "fake.txt").write_text("ARCHIVED TABLE\n")
        assert main(["results"]) == 0
        assert "ARCHIVED TABLE" in capsys.readouterr().out

    def test_fails_cleanly_when_empty(self, capsys, tmp_path,
                                      monkeypatch):
        import repro.__main__ as cli
        monkeypatch.setattr(cli, "RESULTS_DIR", tmp_path / "missing")
        assert main(["results"]) == 1
        assert "python -m repro bench" in capsys.readouterr().err


class TestBench:
    @pytest.mark.parametrize("argv, tail", [
        (["bench", "--only", "table1"], ["-k", "table1"]),
        (["bench"], []),
    ])
    def test_runs_pytest_on_the_benchmarks(self, monkeypatch, argv,
                                           tail):
        import repro.__main__ as cli
        calls = []
        monkeypatch.setattr(cli.subprocess, "call",
                            lambda cmd: calls.append(cmd) or 3)
        assert main(argv) == 3          # pytest's exit status, as is
        assert calls == [[sys.executable, "-m", "pytest",
                          str(cli.REPO_ROOT / "benchmarks"),
                          "--benchmark-only", "-q", *tail]]


class TestExamples:
    def test_every_example_exits_zero(self, capsys):
        import repro.__main__ as cli
        names = sorted(p.name for p in cli.EXAMPLES_DIR.glob("*.py"))
        assert len(names) == 9
        assert main(["examples"]) == 0
        out = capsys.readouterr().out
        for name in names:
            assert f"### {name} " in out

    def test_raising_example_fails_the_run(self, capsys, tmp_path,
                                           monkeypatch):
        import repro.__main__ as cli
        monkeypatch.setattr(cli, "EXAMPLES_DIR", tmp_path)
        (tmp_path / "a_broken.py").write_text(
            "raise RuntimeError('boom')\n")
        (tmp_path / "b_fine.py").write_text("print('still ran')\n")
        assert main(["examples"]) == 1
        captured = capsys.readouterr()
        assert "FAILED: RuntimeError: boom" in captured.err
        assert "still ran" in captured.out


class TestStats:
    def test_prints_attribution_table(self, capsys):
        assert main(["stats", "--threads", "2", "--limit", "8"]) == 0
        out = capsys.readouterr().out
        assert "Conservation:     ok" in out
        assert "hw.tlb" in out
        assert "share" in out

    def test_full_depth_labels(self, capsys):
        assert main(["stats", "--threads", "1", "--depth", "0"]) == 0
        out = capsys.readouterr().out
        assert "kernel.mprotect.pte_update" in out

    def test_zero_threads_fails_cleanly(self, capsys):
        assert main(["stats", "--threads", "0"]) == 1
        captured = capsys.readouterr()
        assert "stats FAILED: need at least the calling thread" \
            in captured.err
        assert captured.out == ""


class TestProfile:
    def test_prints_span_tree(self, capsys):
        assert main(["profile", "--threads", "2"]) == 0
        out = capsys.readouterr().out
        assert "libmpk.mpk_mmap" in out
        assert "inclusive" in out and "self" in out

    def test_zero_threads_fails_cleanly(self, capsys):
        assert main(["profile", "--threads", "0"]) == 1
        captured = capsys.readouterr()
        assert "profile FAILED: need at least the calling thread" \
            in captured.err
        assert captured.out == ""


class TestServebench:
    def test_writes_report_and_prints_table(self, capsys, tmp_path):
        import json
        out_path = tmp_path / "serving.json"
        assert main(["servebench", "--connections", "8",
                     "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "httpd" in out and "memcached" in out
        assert "p99" in out
        report = json.loads(out_path.read_text())
        assert set(report["benchmarks"]) == {"httpd", "memcached"}
        for row in report["benchmarks"].values():
            assert row["completed"] == 8
            assert row["latency_cycles"]["p50"] > 0


class TestKeyscale:
    def test_writes_report_and_prints_tables(self, capsys, tmp_path):
        import json
        out_path = tmp_path / "keyscale.json"
        assert main(["keyscale", "--domains", "60",
                     "--policies", "lru,clock", "--smoke",
                     "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "workload: serving" in out and "workload: jit" in out
        assert "determinism gate" in out
        report = json.loads(out_path.read_text())
        assert report["policies"] == ["lru", "clock"]
        assert report["domains"] == [60]
        assert set(report["workloads"]) == {"serving", "jit"}

    def test_unknown_policy_fails_cleanly(self, capsys, tmp_path):
        """Bad input to any BENCH command is a one-line FAILED and exit
        1 with no report written, never a traceback."""
        cases = [
            ("keyscale", ["--domains", "60", "--policies", "belady"],
             "belady"),
            ("servechaos", ["--events", "-1"], "non-negative"),
            ("clusterchaos", ["--events", "0"], "at least 1 event"),
            ("clusterchaos", ["--nodes", "1"], "at least 2 nodes"),
            ("keyscale", ["--domains", "0"], "at least 1"),
        ]
        for cmd, flags, detail in cases:
            out_path = tmp_path / f"{cmd}.json"
            assert main([cmd, *flags, "--output", str(out_path)]) == 1
            err = capsys.readouterr().err
            assert f"{cmd} FAILED" in err and detail in err
            assert not out_path.exists()


class TestServechaos:
    def test_writes_report_and_replays_it(self, capsys, tmp_path):
        import json
        out_path = tmp_path / "chaos.json"
        assert main(["servechaos", "--connections", "8", "--events",
                     "3", "--output", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "chaos script" in out
        assert "httpd" in out and "memcached" in out
        report = json.loads(out_path.read_text())
        assert set(report["scenarios"]) == {"httpd", "memcached"}
        assert len(report["script"]) == 3
        for row in report["scenarios"].values():
            assert row["audit_ok"] and row["liveness_ok"]
        # Replaying the recorded script reproduces the report exactly.
        replay_path = tmp_path / "chaos_replay.json"
        assert main(["servechaos", "--connections", "8",
                     "--replay", str(out_path),
                     "--output", str(replay_path)]) == 0
        assert json.loads(replay_path.read_text()) == report


    def test_nondeterministic_scenario_fails_the_gate(self, capsys,
                                                      tmp_path,
                                                      monkeypatch):
        from repro.bench import chaos

        builds = []
        honest = chaos.CHAOS_SCENARIOS["httpd"]

        def drifting(seed, connections):
            built = honest(seed, connections)
            builds.append(built)
            if len(builds) == 2:  # the gate's second run drifts a cycle
                built[0].clock.charge(1.0, site="apps.httpd.request")
            return built

        monkeypatch.setitem(chaos.CHAOS_SCENARIOS, "httpd", drifting)
        out_path = tmp_path / "chaos.json"
        assert main(["servechaos", "--connections", "4", "--events", "1",
                     "--output", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert "servechaos FAILED: httpd" in err
        assert "clock_cycles" in err
        assert not out_path.exists()


class TestClusterbench:
    def test_healthy_baseline_writes_both_scenarios(self, capsys,
                                                    tmp_path):
        import json
        out_path = tmp_path / "cluster.json"
        assert main(["clusterbench", "--nodes", "3", "--connections",
                     "12", "--output", str(out_path)]) == 0
        assert f"wrote {out_path}" in capsys.readouterr().out
        report = json.loads(out_path.read_text())
        assert report["kind"] == "clusterbench"
        assert set(report["scenarios"]) == {"sharded", "replicated"}
        for row in report["scenarios"].values():
            assert row["audit_ok"] and row["liveness_ok"]

    def test_sweep_merges_and_appends_step_summary(self, capsys, tmp_path,
                                                   monkeypatch):
        import json
        summary = tmp_path / "summary.md"
        summary.write_text("earlier step\n")
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(summary))
        out_path = tmp_path / "cluster.json"
        out_path.write_text(json.dumps({"kind": "clusterchaos",
                                        "scenarios": {"sharded": {}}}))
        assert main(["clusterbench", "--sweep", "--sweep-nodes", "3",
                     "--sweep-replicas", "1", "--sweep-partitions", "10",
                     "--connections", "8",
                     "--output", str(out_path)]) == 0
        assert f"wrote {out_path}" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["kind"] == "clusterchaos"
        assert payload["scenarios"] == {"sharded": {}}
        (row,) = payload["sweep"]["rows"]
        assert (row["nodes"], row["replicas"]) == (3, 1)
        text = summary.read_text()
        assert text.startswith("earlier step\n")
        assert "### cluster sweep" in text
        assert "| 3 | 1 | 10M |" in text


    @pytest.mark.parametrize("axes, detail", [
        (["--sweep-nodes", "1"], ">= 2"),
        (["--sweep-nodes", "3", "--sweep-replicas", "5"],
         "no runnable cell"),
    ])
    def test_bad_sweep_axes_fail_cleanly(self, capsys, tmp_path, axes,
                                         detail):
        out_path = tmp_path / "cluster.json"
        assert main(["clusterbench", "--sweep", *axes, "--connections",
                     "8", "--output", str(out_path)]) == 1
        err = capsys.readouterr().err
        assert "cluster sweep FAILED" in err and detail in err
        assert not out_path.exists()


class TestParsing:
    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_command_is_required(self):
        with pytest.raises(SystemExit):
            main([])
