"""The exhaustive injection campaign and the consistency auditor.

The headline acceptance test lives here: injecting a failure at *every*
occurrence of every charge site of a Table-1-shaped workload leaves all
four state layers (groups, key cache, page table, metadata) agreeing,
every single time.
"""

import pytest

from repro.consts import PAGE_SIZE, PROT_READ, PROT_WRITE
from repro.faults.campaign import (
    ALLOWED_OUTCOMES,
    Table1Workload,
    run_campaign,
)

RW = PROT_READ | PROT_WRITE

#: site -> charges of one clean ``Table1Workload`` run (27 sites, 191
#: occurrences): the exhaustive campaign's injection points.
TABLE1_CENSUS = {
    "hw.cpu.wrpkru": 14,
    "hw.mem.access": 1,
    "hw.tlb.flush_full": 4,
    "hw.tlb.flush_page": 22,
    "hw.tlb.shootdown_ipi": 13,
    "hw.tlb.walk": 1,
    "kernel.fault.minor": 2,
    "kernel.mmap.body": 3,
    "kernel.mprotect.base": 11,
    "kernel.mprotect.pkey_check": 10,
    "kernel.mprotect.pte_update": 11,
    "kernel.mprotect.vma_find": 11,
    "kernel.mprotect.vma_split": 3,
    "kernel.munmap.body": 2,
    "kernel.pkey_alloc.body": 1,
    "kernel.pkey_free.body": 1,
    "kernel.pkey_sync.entry_exit": 6,
    "kernel.sched.resched_ipi": 6,
    "kernel.sched.task_work_run": 6,
    "kernel.sync.ipi_ack_wait": 6,
    "kernel.sync.task_work_add": 6,
    "kernel.syscall.entry_exit": 18,
    "libmpk.heap.metadata": 2,
    "libmpk.keycache.lookup": 11,
    "libmpk.metadata.exec_only": 1,
    "libmpk.metadata.remove": 2,
    "libmpk.metadata.update": 17,
}


class TestAuditor:
    def test_clean_instance_audits_ok(self, lib, task):
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        with lib.domain(task, 100, RW):
            pass
        report = lib.audit()
        assert report.ok
        assert report.checks > 10
        assert "audit ok" in str(report)

    def test_detects_group_cache_divergence(self, lib, task):
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        lib.group(100).pkey = 99  # corrupt deliberately
        report = lib.audit()
        assert not report.ok
        assert any("cache" in v for v in report.violations)

    def test_detects_stale_metadata(self, lib, task):
        lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        lib.group(100).pinned_by.add(task.tid)
        report = lib.audit()
        assert not report.ok
        assert any("pins" in v or "metadata" in v.lower()
                   for v in report.violations)

    def test_uninitialized_lib_audits_conservation_only(self, process):
        from repro import Libmpk

        report = Libmpk(process).audit()
        assert report.ok
        assert report.checks == 1


class TestTable1Workload:
    def test_clean_run_has_no_degraded_steps(self):
        workload = Table1Workload()
        testbed = workload.build()
        assert workload.run(testbed) == 0
        assert testbed.lib.audit().ok

    def test_workload_exercises_eviction(self):
        workload = Table1Workload()
        testbed = workload.build()
        workload.run(testbed)
        assert testbed.lib.cache.stats_evictions >= 1
        assert testbed.lib.cache.capacity == 3


class TestCampaign:
    def test_exhaustive_campaign_is_fully_consistent(self):
        """The tentpole acceptance: every injectable occurrence of every
        charge site, zero audit violations."""
        report = run_campaign(Table1Workload(), mode="exhaustive")
        assert report.ok, report.format()
        assert len(report.distinct_sites) >= 5
        assert len(report.runs) == sum(report.census.values())
        assert len(report.runs) > 100
        for run in report.runs:
            assert run.outcome in ALLOWED_OUTCOMES, report.format()
            assert run.violations == []

    def test_exhaustive_census_is_pinned(self):
        """The injection points themselves are pinned: every charge
        site of the workload and how often it fires.  A charge added,
        dropped or moved to another site changes this map, and every
        one of the 191 injected failures must still recover."""
        report = run_campaign(Table1Workload(), mode="exhaustive")
        assert dict(report.census) == TABLE1_CENSUS
        assert len(report.runs) == 191
        assert {run.outcome for run in report.runs} == {"recovered"}

    def test_smoke_mode_one_run_per_site(self):
        report = run_campaign(Table1Workload(),
                              max_occurrences_per_site=1)
        assert report.ok, report.format()
        assert len(report.runs) == len(report.census)

    def test_random_mode_is_seed_deterministic(self):
        first = run_campaign(Table1Workload(), mode="random",
                             max_runs=6, seed=3)
        second = run_campaign(Table1Workload(), mode="random",
                              max_runs=6, seed=3)
        assert ([(r.site, r.occurrence) for r in first.runs]
                == [(r.site, r.occurrence) for r in second.runs])
        assert len(first.runs) == 6

    def test_site_filter_restricts_sweep(self):
        report = run_campaign(Table1Workload(), sites=["libmpk.*"],
                              max_occurrences_per_site=2)
        assert report.runs
        assert all(run.site.startswith("libmpk.")
                   for run in report.runs)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            run_campaign(Table1Workload(), mode="chaotic")
