"""Memcached model: slab, hash table, protection modes, twemperf."""

import pytest

from repro.consts import PAGE_SIZE, PROT_READ, PROT_WRITE
from repro.errors import MachineFault, MpkError, MpkTimeout
from repro import Kernel, Libmpk
from repro.apps.kvstore import Memcached, Twemperf
from repro.apps.kvstore.slab import SLAB_BYTES, SlabAllocator

RW = PROT_READ | PROT_WRITE
SMALL_SLAB = 4 * SLAB_BYTES  # keep tests fast; benches use 1 GB


def build_store(mode, *, workers=0, slab_bytes=SMALL_SLAB,
                hash_buckets=1 << 12, begin_timeout=None):
    kernel = Kernel()
    process = kernel.create_process()
    task = process.main_task
    for _ in range(workers):
        kernel.scheduler.schedule(process.spawn_task(), charge=False)
    lib = None
    if mode.startswith("mpk"):
        lib = Libmpk(process)
        lib.mpk_init(task)
    store = Memcached(kernel, process, task, mode=mode, lib=lib,
                      slab_bytes=slab_bytes, hash_buckets=hash_buckets,
                      begin_timeout=begin_timeout)
    return store, task


class TestSlabAllocator:
    def test_chunks_fit_requested_sizes(self):
        slab = SlabAllocator(0x10000000, SMALL_SLAB)
        for size in (1, 96, 100, 5000, 100_000):
            addr = slab.alloc(size)
            assert slab.chunk_size_of(addr) >= size

    def test_chunks_do_not_overlap(self):
        slab = SlabAllocator(0x10000000, SMALL_SLAB)
        spans = []
        for _ in range(100):
            addr = slab.alloc(200)
            spans.append((addr, addr + slab.chunk_size_of(addr)))
        spans.sort()
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 <= b0

    def test_free_recycles_chunks(self):
        slab = SlabAllocator(0x10000000, SMALL_SLAB)
        addr = slab.alloc(100)
        slab.free(addr)
        assert slab.alloc(100) == addr

    def test_double_free_rejected(self):
        slab = SlabAllocator(0x10000000, SMALL_SLAB)
        addr = slab.alloc(100)
        slab.free(addr)
        with pytest.raises(MpkError):
            slab.free(addr)

    def test_exhaustion(self):
        slab = SlabAllocator(0x10000000, SLAB_BYTES)
        slab.alloc(SLAB_BYTES)
        with pytest.raises(MpkError):
            slab.alloc(SLAB_BYTES)

    def test_oversized_item_rejected(self):
        slab = SlabAllocator(0x10000000, SMALL_SLAB)
        with pytest.raises(MpkError):
            slab.alloc(SLAB_BYTES + 1)


class TestStoreOperations:
    @pytest.mark.parametrize("mode", ["none", "mpk_begin",
                                      "mpk_mprotect", "mprotect"])
    def test_set_get_delete_roundtrip(self, mode):
        store, task = build_store(mode)
        store.set(task, b"alpha", b"1" * 200)
        store.set(task, b"beta", b"2" * 2000)
        assert store.get(task, b"alpha") == b"1" * 200
        assert store.get(task, b"beta") == b"2" * 2000
        assert store.get(task, b"gamma") is None
        assert store.delete(task, b"alpha")
        assert store.get(task, b"alpha") is None
        assert not store.delete(task, b"alpha")

    def test_set_replaces_existing_value(self):
        store, task = build_store("none")
        store.set(task, b"k", b"old")
        store.set(task, b"k", b"new value that is longer")
        assert store.get(task, b"k") == b"new value that is longer"
        assert store.item_count == 1

    def test_colliding_keys_chain_correctly(self):
        store, task = build_store("none", hash_buckets=2)
        pairs = {b"k%d" % i: b"v%d" % i for i in range(20)}
        for k, v in pairs.items():
            store.set(task, k, v)
        for k, v in pairs.items():
            assert store.get(task, k) == v

    def test_delete_middle_of_chain(self):
        store, task = build_store("none", hash_buckets=1)
        for i in range(5):
            store.set(task, b"k%d" % i, b"v%d" % i)
        store.delete(task, b"k2")
        assert store.get(task, b"k2") is None
        for i in (0, 1, 3, 4):
            assert store.get(task, b"k%d" % i) == b"v%d" % i


class TestProtection:
    @pytest.mark.parametrize("mode", ["mpk_begin", "mpk_mprotect",
                                      "mprotect"])
    def test_data_inaccessible_at_rest(self, mode):
        store, task = build_store(mode)
        store.set(task, b"secret-key", b"SECRET-VALUE")
        with pytest.raises(MachineFault):
            task.read(store._slab_base, 64)
        with pytest.raises(MachineFault):
            task.read(store._hash_base, 64)

    def test_unprotected_store_leaks_to_sweeps(self):
        store, task = build_store("none")
        store.set(task, b"secret-key", b"SECRET-VALUE")
        # An arbitrary-read attacker can walk the slab area freely.
        leaked = task.read(store._slab_base, SLAB_BYTES)
        assert b"SECRET-VALUE" in leaked

    def test_mpk_begin_blocks_other_threads_mid_request(self):
        """Even while one thread's request holds the domains open,
        siblings get nothing — the isolation is per-thread."""
        store, task = build_store("mpk_begin", workers=1)
        sibling = store.kernel.scheduler.running_tasks(
            store.process)[-1]
        assert sibling is not task
        store.set(task, b"k", b"v")
        store.lib.mpk_begin(task, store.SLAB_VKEY, RW)
        try:
            assert sibling.try_read(store._slab_base, 16) is None
        finally:
            store.lib.mpk_end(task, store.SLAB_VKEY)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError):
            build_store("selinux")

    def test_mpk_mode_requires_lib(self):
        kernel = Kernel()
        process = kernel.create_process()
        with pytest.raises(ValueError):
            Memcached(kernel, process, process.main_task,
                      mode="mpk_begin", slab_bytes=SMALL_SLAB)


class TestBeginTimeout:
    def test_hash_timeout_rolls_back_the_slab(self):
        """With ``begin_timeout``, a request whose hash ``mpk_begin``
        finds every hardware key pinned (by another thread) fails with
        ETIMEDOUT; ``_open`` ends the slab domain it already opened and
        the wait leaves nothing behind."""
        store, task = build_store("mpk_begin", workers=1,
                                  begin_timeout=50_000.0)
        lib = store.lib
        sibling = store.kernel.scheduler.running_tasks(
            store.process)[-1]
        assert sibling is not task
        for i in range(lib.cache.capacity - 1):
            lib.mpk_mmap(task, 100 + i, PAGE_SIZE, RW)
            lib.mpk_begin(sibling, 100 + i, RW)
        aggregator = store.kernel.machine.obs.aggregator
        assert "libmpk.keycache.wait_timeout" not in aggregator.counts
        with pytest.raises(MpkTimeout) as excinfo:
            store.get(task, b"k")
        assert excinfo.value.vkey == store.HASH_VKEY
        assert aggregator.counts["libmpk.keycache.wait_timeout"] == 1
        assert not lib.group(store.SLAB_VKEY).pinned
        assert not lib.group(store.HASH_VKEY).pinned
        assert len(lib.key_waiters) == 0
        assert task.wanted_vkey is None
        report = lib.audit()
        assert report.ok, report.violations


class TestTwemperf:
    def test_reports_capacity_and_backlog(self):
        store, task = build_store("none")
        result = Twemperf(store).run(task, conns_per_sec=500,
                                     sample_connections=4)
        assert result.offered_conns_per_sec == 500
        assert result.handled_conns_per_sec <= 500
        assert result.unhandled_conns_per_sec >= 0
        assert result.cycles_per_connection > 0

    def test_figure14_ordering_holds(self):
        """none ≈ mpk_begin << mprotect; mpk_mprotect in between but
        close to the original — the Figure 14 shape."""
        costs = {}
        for mode in ("none", "mpk_begin", "mpk_mprotect", "mprotect"):
            # A 512 MB slab: big enough that the page-linear mprotect
            # cost dominates, small enough to keep the test quick (the
            # benches use the paper's full 1 GB).
            store, task = build_store(mode, workers=3,
                                      slab_bytes=512 << 20)
            costs[mode] = Twemperf(store).run(
                task, 1000, sample_connections=4).cycles_per_connection
        assert costs["mpk_begin"] < costs["none"] * 1.01
        assert costs["mpk_mprotect"] < costs["none"] * 1.10
        assert costs["mprotect"] > 4 * costs["mpk_mprotect"]
