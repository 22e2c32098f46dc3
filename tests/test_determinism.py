"""The determinism guarantee: identical workloads, identical cycles.

Every benchmark number in EXPERIMENTS.md is reproducible because the
simulator has no hidden entropy.  These tests run non-trivial
workloads twice on fresh machines and require *bit-identical* clocks,
statistics, and results — any future nondeterminism (dict-order
dependence, stray randomness, wall-clock leakage) fails here first.
"""

from repro.consts import PAGE_SIZE, PROT_NONE, PROT_READ, PROT_WRITE
from repro import Kernel, Libmpk, Machine

RW = PROT_READ | PROT_WRITE


def libmpk_workload() -> tuple[float, dict]:
    kernel = Kernel(Machine(num_cores=8))
    process = kernel.create_process()
    task = process.main_task
    for _ in range(3):
        kernel.scheduler.schedule(process.spawn_task(), charge=False)
    lib = Libmpk(process)
    lib.mpk_init(task, evict_rate=0.5)
    for i in range(30):
        addr = lib.mpk_mmap(task, 100 + i, PAGE_SIZE, RW)
        with lib.domain(task, 100 + i, RW):
            task.write(addr, bytes([i]) * 32)
    for i in range(30):
        lib.mpk_mprotect(task, 100 + i,
                         [PROT_READ, RW, PROT_NONE][i % 3])
    for i in range(0, 30, 3):
        lib.mpk_munmap(task, 100 + i)
    return kernel.clock.now, lib.stats()


def jit_workload() -> float:
    from repro.apps.jit import ENGINES, JsEngine, KeyPerPageWx
    from repro.apps.jit.minijs import MiniJsRuntime
    kernel = Kernel()
    process = kernel.create_process()
    task = process.main_task
    lib = Libmpk(process)
    lib.mpk_init(task)
    engine = JsEngine(kernel, process, ENGINES["spidermonkey"],
                      KeyPerPageWx(kernel, lib), cache_pages=64)
    runtime = MiniJsRuntime(engine, hot_threshold=2)
    for i in range(12):
        for _ in range(3):
            runtime.evaluate(f"f{i}", f"x*{i + 1}+7", {"x": i})
    return kernel.clock.now


def serving_workload() -> dict:
    """The full serving engine: Poisson arrivals, time-sliced cores,
    per-site totals and both digest states (exact at this size, so
    every latency and queue wait)."""
    from repro.bench.serving import _run_httpd_scenario
    report = _run_httpd_scenario(seed=13, connections=10,
                                 requests_per_connection=2,
                                 response_size=2048, workers=4,
                                 num_cores=2, rate_per_sec=60_000.0)
    return report.fingerprint()


def kv_workload() -> float:
    from repro.apps.kvstore import Memcached
    from repro.apps.kvstore.slab import SLAB_BYTES
    kernel = Kernel()
    process = kernel.create_process()
    task = process.main_task
    lib = Libmpk(process)
    lib.mpk_init(task)
    store = Memcached(kernel, process, task, mode="mpk_begin",
                      lib=lib, slab_bytes=8 * SLAB_BYTES,
                      hash_buckets=1 << 8)
    for i in range(50):
        store.set(task, b"k%d" % i, b"v" * (i * 17 % 300 + 1))
    for i in range(50):
        store.get(task, b"k%d" % (i * 7 % 50))
    return kernel.clock.now


class TestDeterminism:
    def test_libmpk_workload_is_bit_reproducible(self):
        first = libmpk_workload()
        second = libmpk_workload()
        assert first == second

    def test_jit_workload_is_bit_reproducible(self):
        assert jit_workload() == jit_workload()

    def test_kvstore_workload_is_bit_reproducible(self):
        assert kv_workload() == kv_workload()

    def test_serving_engine_is_bit_reproducible(self):
        assert serving_workload() == serving_workload()
