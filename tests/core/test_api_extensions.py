"""Extension surface: mpk_adopt, eviction policies, stats, model
transitions, and eager sync."""

import pytest

from repro.consts import PAGE_SIZE, PROT_EXEC, PROT_READ, PROT_WRITE
from repro.bench.serving import ArrivalSchedule, ServingEngine
from repro.errors import MpkKeyExhaustion, MpkTimeout, MpkVkeyInUse
from repro.kernel.task import WaitQueue, WaitSpec
from repro.hw.pkru import KEY_RIGHTS_READ, PKRU
from repro.core.sync import do_pkey_sync
from repro import Libmpk

RW = PROT_READ | PROT_WRITE
RWX = RW | PROT_EXEC


class TestAdopt:
    def test_adopt_turns_a_mapping_into_a_group(self, lib, kernel,
                                                task):
        addr = kernel.sys_mmap(task, 2 * PAGE_SIZE, RW)
        task.write(addr, b"pre-existing data")
        lib.mpk_adopt(task, 77, addr, 2 * PAGE_SIZE, RW)
        group = lib.group(77)
        assert group.base == addr
        assert not group.cached          # key attaches lazily
        # First begin attaches the key and gates access.
        with lib.domain(task, 77, PROT_READ):
            assert task.read(addr, 17) == b"pre-existing data"
        assert task.try_read(addr, 1) is None

    def test_adopt_does_not_change_page_permissions(self, lib, kernel,
                                                    task):
        addr = kernel.sys_mmap(task, PAGE_SIZE, PROT_READ)
        lib.mpk_adopt(task, 77, addr, PAGE_SIZE, PROT_READ)
        # Still readable (no key yet, page bits unchanged).
        assert task.read(addr, 1) == b"\x00"

    def test_adopt_duplicate_vkey_rejected(self, lib, kernel, task):
        addr = kernel.sys_mmap(task, PAGE_SIZE, RW)
        lib.mpk_adopt(task, 77, addr, PAGE_SIZE, RW)
        with pytest.raises(MpkVkeyInUse):
            lib.mpk_adopt(task, 77, addr, PAGE_SIZE, RW)

    def test_adopted_rwx_group_stays_executable_when_evicted(
            self, lib, kernel, task):
        """The JIT requirement: an evicted code page loses data access
        but keeps executing."""
        addr = kernel.sys_mmap(task, PAGE_SIZE, RWX)
        task.write(addr, b"\xc3")
        lib.mpk_adopt(task, 77, addr, PAGE_SIZE, RWX)
        lib.mpk_begin(task, 77, RW)
        lib.mpk_end(task, 77)
        # Evict by pinning 15 other groups.
        for i in range(15):
            lib.mpk_mmap(task, 100 + i, PAGE_SIZE, RW)
            lib.mpk_begin(task, 100 + i, RW)
        assert not lib.group(77).cached
        assert task.try_read(addr, 1) is None      # data sealed
        assert task.fetch(addr, 1) == b"\xc3"      # still runs
        for i in range(15):
            lib.mpk_end(task, 100 + i)


class TestEvictionPolicies:
    def _churn(self, lib, task, accesses):
        for vkey in accesses:
            lib.mpk_begin(task, vkey, RW)
            lib.mpk_end(task, vkey)

    @pytest.mark.parametrize("policy", ["lru", "fifo", "random"])
    def test_all_policies_preserve_correctness(self, process, task,
                                               policy):
        lib = Libmpk(process)
        lib.mpk_init(task, policy=policy)
        addrs = {}
        for i in range(25):
            vkey = 100 + i
            addrs[vkey] = lib.mpk_mmap(task, vkey, PAGE_SIZE, RW)
            with lib.domain(task, vkey, RW):
                task.write(addrs[vkey], bytes([i]))
        for i in range(25):
            vkey = 100 + i
            with lib.domain(task, vkey, PROT_READ):
                assert task.read(addrs[vkey], 1) == bytes([i])
            assert task.try_read(addrs[vkey], 1) is None

    def test_lru_and_fifo_differ_on_refreshed_entries(self, kernel):
        """A re-touched group survives under LRU but not under FIFO."""
        def victim_after_refresh(policy):
            process = kernel.create_process()
            task = process.main_task
            lib = Libmpk(process)
            lib.mpk_init(task, policy=policy)
            for i in range(15):
                lib.mpk_mmap(task, 100 + i, PAGE_SIZE, RW)
                lib.mpk_begin(task, 100 + i, RW)
                lib.mpk_end(task, 100 + i)
            # Refresh the oldest entry, then force one eviction.
            lib.mpk_begin(task, 100, RW)
            lib.mpk_end(task, 100)
            lib.mpk_mmap(task, 999, PAGE_SIZE, RW)
            lib.mpk_begin(task, 999, RW)
            lib.mpk_end(task, 999)
            return lib.group(100).cached

        assert victim_after_refresh("lru") is True
        assert victim_after_refresh("fifo") is False


class TestStats:
    def test_stats_snapshot(self, lib, task):
        lib.mpk_mmap(task, 100, 2 * PAGE_SIZE, RW)
        lib.mpk_begin(task, 100, RW)
        stats = lib.stats()
        assert stats["groups"] == 1
        assert stats["cached_groups"] == 1
        assert stats["pinned_groups"] == 1
        assert stats["hardware_keys"] == 15
        assert stats["protected_bytes"] == 2 * PAGE_SIZE
        assert stats["eviction_policy"] == "lru"
        lib.mpk_end(task, 100)
        assert lib.stats()["pinned_groups"] == 0

    def test_stats_track_fallbacks(self, process, task):
        lib = Libmpk(process)
        lib.mpk_init(task, evict_rate=0.0)
        for i in range(16):
            lib.mpk_mmap(task, 100 + i, PAGE_SIZE, RW)
            lib.mpk_mprotect(task, 100 + i, RW)
        assert lib.stats()["mprotect_fallbacks"] >= 1


class TestEagerSync:
    def test_eager_sync_has_same_semantics(self, kernel, process, task):
        running = process.spawn_task()
        kernel.scheduler.schedule(running, charge=False)
        sleeping = process.spawn_task()
        do_pkey_sync(kernel, task, 5, KEY_RIGHTS_READ, eager=True)
        assert PKRU(running.pkru).rights(5) == KEY_RIGHTS_READ
        # Eager mode waits for sleeping threads too (wakes them).
        assert PKRU(sleeping.pkru).rights(5) == KEY_RIGHTS_READ

    def test_eager_sync_costs_more(self, kernel, process, task,
                                   measure):
        for _ in range(3):
            kernel.scheduler.schedule(process.spawn_task(),
                                      charge=False)
        lazy = measure(lambda: do_pkey_sync(kernel, task, 5,
                                            KEY_RIGHTS_READ))
        eager = measure(lambda: do_pkey_sync(kernel, task, 5,
                                             KEY_RIGHTS_READ,
                                             eager=True))
        assert eager > lazy


def _exhaust(lib, task):
    """Pin every hardware key from ``task`` (vkeys 100..114)."""
    for i in range(15):
        lib.mpk_mmap(task, 100 + i, PAGE_SIZE, RW)
        lib.mpk_begin(task, 100 + i, RW)


#: Cycles a contention hog naps between its rounds.
NAP = 10_000.0


def _contend(kernel, process, lib, *, churn, timeout=None):
    """Serve a hog and a contender for vkey 50 on one core.

    The hog pins every hardware key, then ``churn`` times naps for
    ``NAP`` cycles and runs ``mpk_end`` then ``mpk_begin`` on one of
    its keys: each ``mpk_end`` wakes the contender, whose retry finds
    the key taken again.  The hog then naps once more and ends every
    pin.  The contender runs ``begin_blocking(..., timeout=timeout)``.
    Returns the report and the contender's record: the clock when it
    started, each park's clock, and its outcome with the clock then.
    """
    main = process.main_task
    for i in range(15):
        lib.mpk_mmap(main, 100 + i, PAGE_SIZE, RW)
    lib.mpk_mmap(main, 50, PAGE_SIZE, RW)
    naps = WaitQueue("nap")
    seen = {"parks": []}

    def nap():
        try:
            yield WaitSpec(naps, NAP)
        except MpkTimeout:
            pass

    def hog(task, conn_id):
        for i in range(15):
            lib.mpk_begin(task, 100 + i, RW)
        for i in range(churn):
            yield from nap()
            lib.mpk_end(task, 100 + i % 15)
            lib.mpk_begin(task, 100 + i % 15, RW)
        yield from nap()
        for i in range(15):
            lib.mpk_end(task, 100 + i)

    def contender(task, conn_id):
        seen["started"] = kernel.clock.now
        try:
            yield from lib.begin_blocking(task, 50, RW, timeout=timeout)
        except MpkTimeout:
            seen["outcome"] = ("timeout", kernel.clock.now)
            raise
        seen["outcome"] = ("pinned", kernel.clock.now)
        assert task.wanted_vkey is None
        lib.mpk_end(task, 50)

    add = lib.key_waiters.add

    def recording_add(task, on_wake=None, now=0.0):
        seen["parks"].append(now)
        return add(task, on_wake=on_wake, now=now)

    lib.key_waiters.add = recording_add
    engine = ServingEngine(kernel, cores=[1])
    for _ in range(2):
        engine.add_worker(process.spawn_task(), core_id=1)
    engine.offer(ArrivalSchedule((0.0,)), hog)
    engine.offer(ArrivalSchedule((0.0,)), contender)
    report = engine.run()
    assert len(lib.key_waiters) == 0
    audit = lib.audit()
    assert audit.ok, audit.violations
    return report, seen


class TestBeginWait:
    def test_succeeds_immediately_when_keys_free(self, lib, kernel,
                                                 task):
        lib.mpk_mmap(task, 50, PAGE_SIZE, RW)
        assert lib.mpk_begin_wait(task, 50, RW) is None
        assert lib.group(50).pinned_by == {task.tid}
        assert "libmpk.keycache.wait" not in \
            kernel.machine.obs.aggregator.counts
        lib.mpk_end(task, 50)

    def test_waits_until_a_key_frees(self, kernel, process, lib):
        """An engine job parks once and gets the key after the hog's
        ``mpk_end``."""
        report, seen = _contend(kernel, process, lib, churn=0)
        assert report.completed == 2
        assert len(seen["parks"]) == 1
        assert seen["outcome"][0] == "pinned"
        assert lib.key_waiters.stats_wakes == 1

    def test_gives_up_after_max_attempts(self, lib, kernel, task):
        """A synchronous caller has no waker: with no timeout the
        driver raises at the first exhaustion instead of deadlocking,
        and never parks."""
        _exhaust(lib, task)
        lib.mpk_mmap(task, 50, PAGE_SIZE, RW)
        with pytest.raises(MpkKeyExhaustion):
            lib.mpk_begin_wait(task, 50, RW)
        assert len(lib.key_waiters) == 0
        assert lib.key_waiters.stats_waits == 0
        assert task.wanted_vkey is None
        assert not lib.group(50).pinned
        for i in range(15):
            lib.mpk_end(task, 100 + i)


class TestBeginWaitTimeout:
    """The deadline path: bounded waits surface ETIMEDOUT instead of
    blocking forever."""

    def test_sync_wait_sleeps_out_the_deadline(self, lib, kernel, task):
        """With no waker, the thread sleeps the timeout away, the wait
        is charged on the clock, and MpkTimeout (ETIMEDOUT) surfaces."""
        _exhaust(lib, task)
        lib.mpk_mmap(task, 50, PAGE_SIZE, RW)
        before = kernel.clock.now
        with pytest.raises(MpkTimeout) as excinfo:
            lib.mpk_begin_wait(task, 50, RW, timeout=50_000.0)
        assert excinfo.value.errno == "ETIMEDOUT"
        assert excinfo.value.vkey == 50
        assert excinfo.value.waited_cycles >= 50_000.0
        assert kernel.clock.now - before >= 50_000.0
        # The expiry itself is attributed to its own site.
        agg = kernel.machine.obs.aggregator
        assert agg.counts["libmpk.keycache.wait_timeout"] == 1
        assert lib.stats()["wait_timeouts"] == 1

    def test_timeout_leaves_no_queue_residue(self, lib, kernel, task):
        _exhaust(lib, task)
        lib.mpk_mmap(task, 50, PAGE_SIZE, RW)
        with pytest.raises(MpkTimeout):
            lib.mpk_begin_wait(task, 50, RW, timeout=10_000.0)
        assert len(lib.key_waiters) == 0
        assert task.waiting_on is None
        assert task.wanted_vkey is None
        report = lib.audit()
        assert report.ok, report.violations
        # The wait is retryable: free a key and the same call succeeds.
        lib.mpk_end(task, 100)
        lib.mpk_begin_wait(task, 50, RW, timeout=10_000.0)
        assert lib.group(50).pinned_by == {task.tid}
        lib.mpk_end(task, 50)

    def test_spinning_waiter_times_out(self, kernel, process, lib):
        """The timeout bounds the *total* wait.  The hog wakes the
        contender every ``NAP`` cycles, well inside its timeout, but
        never leaves it a key: each re-park carries only what is left
        of the deadline, so the wait expires no later than the first
        park plus the timeout.  A fresh timeout per park would never
        expire here, and the contender would get its key once the hog
        ends its pins."""
        timeout = 5 * NAP
        report, seen = _contend(kernel, process, lib, churn=20,
                                timeout=timeout)
        outcome, at = seen["outcome"]
        assert outcome == "timeout"
        assert report.wait_timeouts == 1
        assert lib.stats()["wait_timeouts"] == 1
        assert len(seen["parks"]) >= 3          # woken again and again
        assert at <= seen["parks"][0] + timeout
        assert at >= seen["started"] + timeout - NAP

    def test_wake_in_time_beats_the_deadline(self, kernel, process,
                                             lib):
        """A wake that frees a key before the deadline wins: the
        contender gets its key and nothing expires."""
        report, seen = _contend(kernel, process, lib, churn=2,
                                timeout=1e12)
        assert report.completed == 2
        assert seen["outcome"][0] == "pinned"
        assert len(seen["parks"]) == 3
        assert lib.stats()["wait_timeouts"] == 0

    def test_timeout_validated(self, lib, task):
        from repro.errors import MpkError
        lib.mpk_mmap(task, 50, PAGE_SIZE, RW)
        with pytest.raises(MpkError):
            lib.mpk_begin_wait(task, 50, RW, timeout=0.0)
        with pytest.raises(MpkError):
            lib.mpk_begin_wait(task, 50, RW, timeout=-5.0)


class TestModelTransitions:
    def test_global_to_domain_seals_siblings(self, lib, kernel,
                                             process, task):
        """The transition quiesce found by the property tests: begin on
        a globally-readable group revokes the global grants."""
        sibling = process.spawn_task()
        kernel.scheduler.schedule(sibling, charge=False)
        addr = lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        lib.mpk_mprotect(task, 100, PROT_READ)
        assert sibling.read(addr, 1) == b"\x00"
        lib.mpk_begin(task, 100, RW)
        assert sibling.try_read(addr, 1) is None
        lib.mpk_end(task, 100)

    def test_domain_to_global_grants_everyone(self, lib, kernel,
                                              process, task):
        sibling = process.spawn_task()
        kernel.scheduler.schedule(sibling, charge=False)
        addr = lib.mpk_mmap(task, 100, PAGE_SIZE, RW)
        with lib.domain(task, 100, RW):
            task.write(addr, b"published later")
        assert sibling.try_read(addr, 1) is None
        lib.mpk_mprotect(task, 100, PROT_READ)
        assert sibling.read(addr, 15) == b"published later"
