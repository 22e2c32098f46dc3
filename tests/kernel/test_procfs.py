"""/proc-style introspection: smaps and status."""


from repro.consts import PAGE_SIZE, PROT_EXEC, PROT_READ, PROT_WRITE
from repro.kernel.procfs import format_smaps, smaps, status

RW = PROT_READ | PROT_WRITE


class TestSmaps:
    def test_lists_every_vma(self, kernel, process, task):
        a = kernel.sys_mmap(task, 2 * PAGE_SIZE, RW)
        b = kernel.sys_mmap(task, PAGE_SIZE, PROT_READ)
        entries = {e.start: e for e in smaps(process)}
        assert entries[a].size_kb == 8
        assert entries[a].prot == RW
        assert entries[b].prot == PROT_READ

    def test_rss_tracks_population(self, kernel, process, task):
        addr = kernel.sys_mmap(task, 10 * PAGE_SIZE, RW)
        entry = next(e for e in smaps(process) if e.start == addr)
        assert entry.rss_kb == 0
        task.write(addr, b"touch")
        task.write(addr + 3 * PAGE_SIZE, b"touch")
        entry = next(e for e in smaps(process) if e.start == addr)
        assert entry.rss_kb == 8  # two populated pages

    def test_shows_protection_keys(self, kernel, process, task):
        key = kernel.sys_pkey_alloc(task)
        addr = kernel.sys_mmap(task, PAGE_SIZE, RW)
        kernel.sys_pkey_mprotect(task, addr, PAGE_SIZE, RW, key)
        entry = next(e for e in smaps(process) if e.start == addr)
        assert entry.pkey == key

    def test_format_is_smaps_like(self, kernel, process, task):
        addr = kernel.sys_mmap(task, PAGE_SIZE,
                               PROT_READ | PROT_EXEC)
        text = format_smaps(process)
        assert "r-xp" in text
        assert "ProtectionKey:" in text
        assert f"{addr:016x}" in text

    def test_observation_charges_nothing(self, kernel, process, task):
        kernel.sys_mmap(task, PAGE_SIZE, RW)
        before = kernel.clock.now
        smaps(process)
        status(process)
        assert kernel.clock.now == before


class TestStatus:
    def test_summary_fields(self, kernel, process, task):
        addr = kernel.sys_mmap(task, 4 * PAGE_SIZE, RW)
        task.write(addr, b"x")
        info = status(process)
        assert info["pid"] == process.pid
        assert info["threads"] == 1
        assert info["vm_size_kb"] >= 16
        assert info["vm_rss_kb"] >= 4
        assert info["minor_faults"] >= 1
        assert 0 in info["pkeys_allocated"]

    def test_execute_only_key_visible(self, kernel, process, task):
        addr = kernel.sys_mmap(task, PAGE_SIZE, RW)
        kernel.sys_mprotect(task, addr, PAGE_SIZE, PROT_EXEC)
        info = status(process)
        assert info["execute_only_pkey"] == \
            process.pkeys.execute_only_pkey


class TestMpkStatsResilience:
    def test_counters_start_at_zero(self, kernel, process):
        from repro.kernel.procfs import mpk_stats

        resilience = mpk_stats(process)["resilience"]
        assert resilience == {
            "worker_deaths": 0, "restarts": 0, "gave_up": 0,
            "shed": 0, "wait_timeouts": 0, "watchdog_stalls": 0,
            "watchdog_deadlocks": 0,
        }

    def test_counters_follow_the_obs_spine(self, kernel, process):
        from repro.kernel.procfs import format_mpk_stats, mpk_stats

        obs = kernel.machine.obs
        obs.record_metric("apps.supervisor.death", 1.0)
        obs.record_metric("apps.supervisor.restart", 1.0)
        obs.record_metric("apps.serving.shed", 1.0)
        obs.record_metric("apps.serving.shed", 1.0)
        obs.record_metric("kernel.watchdog.stall", 123.0)
        kernel.clock.charge(350.0, site="libmpk.keycache.wait_timeout")
        resilience = mpk_stats(process)["resilience"]
        assert resilience["worker_deaths"] == 1
        assert resilience["restarts"] == 1
        assert resilience["shed"] == 2
        assert resilience["wait_timeouts"] == 1
        assert resilience["watchdog_stalls"] == 1
        rendered = format_mpk_stats(process)
        assert "Resilience:" in rendered
        assert "shed=2" in rendered


class TestMpkStatsReplication:
    def test_counters_start_at_zero(self, kernel, process):
        from repro.kernel.procfs import format_mpk_stats, mpk_stats

        replication = mpk_stats(process)["replication"]
        assert replication == {
            "repl_writes": 0, "repl_applied": 0, "repl_acks": 0,
            "hints_queued": 0, "hints_drained": 0,
            "hints_dropped": 0, "sync_pages": 0, "sync_served": 0,
            "sync_retries": 0,
        }
        # An all-zero section stays out of the rendered summary.
        assert "Replication:" not in format_mpk_stats(process)

    def test_counters_follow_the_charge_sites(self, kernel, process):
        from repro.kernel.procfs import format_mpk_stats, mpk_stats

        kernel.clock.charge(600.0, site="net.repl.tx")
        kernel.clock.charge(500.0, site="net.repl.rx")
        kernel.clock.charge(200.0, site="net.repl.hint_queue")
        kernel.clock.charge(200.0, site="net.repl.hint_queue")
        kernel.clock.charge(100.0, site="net.repl.hint_drop")
        kernel.clock.charge(400.0, site="net.repl.sync_apply")
        kernel.clock.charge(300.0, site="net.repl.sync_retry")
        replication = mpk_stats(process)["replication"]
        assert replication["repl_writes"] == 1
        assert replication["repl_applied"] == 1
        assert replication["hints_queued"] == 2
        assert replication["hints_dropped"] == 1
        assert replication["sync_pages"] == 1
        assert replication["sync_retries"] == 1
        rendered = format_mpk_stats(process)
        assert "Replication:" in rendered
        assert "hints_queued=2" in rendered

    def test_cluster_node_counters_surface_through_procfs(self):
        # End to end: a replicated chaos soak leaves real net.repl
        # charges on a node's machine; procfs must mirror them.
        from repro.bench.cluster import _build_cluster, cluster_actions
        from repro.faults.inject import FaultInjector
        from repro.faults.script import FaultEvent, arm_script
        from repro.kernel.procfs import mpk_stats

        cluster, _ = _build_cluster(5, nodes=4, connections=24,
                                    replicas=2)
        injector = FaultInjector()
        arm_script(injector, (FaultEvent(
            kind="node_kill", site="node1.apps.memcached.request",
            occurrence=3, node="node1"),), cluster_actions(cluster))
        cluster.attach_injector(injector)
        cluster.run()
        survivor = cluster.nodes["node0"]
        replication = mpk_stats(survivor.process)["replication"]
        assert replication["repl_writes"] > 0 \
            or replication["repl_applied"] > 0
