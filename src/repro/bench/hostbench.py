"""Host-cost benchmark for the MMU hot path, in exact named calls.

Simulated cycles measure the *modeled* machine; this module measures
the *simulator itself* on the paper's three hot paths: Table 1's
primitives, Figure 8's cached switches and Figure 14's slab epochs.
Host cost is counted, not timed: each workload's ``run`` body is
counted with :func:`repro.bench.harness.calls_by_layer`, whose counts,
unlike wall time, are bit-identical run to run and agree across Python
3.11 and 3.12.

Each workload runs twice through :func:`repro.bench.harness.run_twice`;
the two runs must agree on ``sim_cycles``, the per-site cycle ledger
and the calls per layer.  ``python -m repro hostbench`` writes
``BENCH_hotpath.json``, and the gate is byte equality with the
committed file, as for every other BENCH artefact: a change that makes
the hot paths cost more host calls shows as a diff even when it moves
no simulated cycle.
"""

from __future__ import annotations

from repro.bench.fixtures import TestBed, make_testbed
from repro.bench.harness import calls_by_layer, run_twice
from repro.consts import PAGE_SIZE, PROT_READ, PROT_WRITE

RW = PROT_READ | PROT_WRITE


# ---------------------------------------------------------------------------
# Workloads.  Each returns (setup_state) from ``setup`` and is counted
# only over ``run`` — testbed construction is not what we benchmark.
# ---------------------------------------------------------------------------

_FIG8_BUFFER_PAGES = 16  # 64 KiB per protection group


def _fig8_cache_setup(bed: TestBed):
    """Figure-8-shaped state: warm key-cache groups backing buffers."""
    lib, task = bed.lib, bed.task
    buffers = []
    for vkey in range(100, 108):
        addr = lib.mpk_mmap(task, vkey,
                            _FIG8_BUFFER_PAGES * PAGE_SIZE, RW)
        lib.mpk_mprotect(task, vkey, RW)
        buffers.append((vkey, addr))
    return buffers


def _fig8_cache_run(bed: TestBed, buffers) -> None:
    """The access-heavy half of Figure 8: every mpk_mprotect toggle is
    followed by streaming reads/writes through the protected buffers —
    the pattern that streams the most bytes through the MMU."""
    lib, task = bed.lib, bed.task
    size = _FIG8_BUFFER_PAGES * PAGE_SIZE
    payload = b"\xa5" * size
    for _ in range(40):
        for vkey, addr in buffers:
            lib.mpk_mprotect(task, vkey, RW)
            task.write(addr, payload)
            lib.mpk_mprotect(task, vkey, PROT_READ)
            if task.read(addr, size) != payload:
                raise AssertionError("fig8 workload read-back mismatch")


def _table1_setup(bed: TestBed):
    addr = bed.kernel.sys_mmap(bed.task, PAGE_SIZE, RW)
    return addr


def _table1_run(bed: TestBed, addr) -> None:
    """Table-1 primitives in a loop: syscall-dominated, tracked to
    catch regressions in the syscall path's host cost."""
    kernel, task = bed.kernel, bed.task
    for i in range(500):
        key = kernel.sys_pkey_alloc(task)
        kernel.sys_pkey_mprotect(task, addr, PAGE_SIZE,
                                 PROT_READ if i % 2 else RW, key)
        task.read(addr, 64)
        kernel.sys_mprotect(task, addr, PAGE_SIZE, RW)
        task.write(addr, b"t1")
        kernel.sys_pkey_free(task, key)


def _fig14_memcached_setup(bed: TestBed):
    """A Figure-14-like slab: one 2,048-page mapping managed with
    pkey_mprotect over the whole range (full-flush shootdowns)."""
    slab_pages = 2048
    addr = bed.kernel.sys_mmap(bed.task, slab_pages * PAGE_SIZE, RW)
    key = bed.kernel.sys_pkey_alloc(bed.task)
    return addr, slab_pages, key


def _fig14_memcached_run(bed: TestBed, state) -> None:
    kernel, task = bed.kernel, bed.task
    addr, slab_pages, key = state
    item = b"\x5a" * 1024
    # SET phase: touch items across the slab (demand paging + writes).
    for i in range(0, slab_pages, 4):
        task.write(addr + i * PAGE_SIZE, item)
    # Epoch protection flips over the whole slab.
    for _ in range(4):
        kernel.sys_pkey_mprotect(task, addr, slab_pages * PAGE_SIZE,
                                 PROT_READ, key)
        for i in range(0, slab_pages, 8):  # GET phase
            task.read(addr + i * PAGE_SIZE, 1024)
        kernel.sys_pkey_mprotect(task, addr, slab_pages * PAGE_SIZE,
                                 RW, key)
        for i in range(0, slab_pages, 8):
            task.write(addr + i * PAGE_SIZE, item)


WORKLOADS = {
    "fig8_cache": (_fig8_cache_setup, _fig8_cache_run,
                   {"with_libmpk": True}),
    "table1": (_table1_setup, _table1_run, {"with_libmpk": False}),
    "fig14_memcached": (_fig14_memcached_setup, _fig14_memcached_run,
                        {"with_libmpk": False}),
}


def _run_once(name: str) -> dict:
    """One run of ``name``: its fingerprint, after the audit."""
    setup, run, kwargs = WORKLOADS[name]
    bed = make_testbed(num_cores=2, **kwargs)
    state = setup(bed)
    calls = calls_by_layer(lambda: run(bed, state))
    machine = bed.kernel.machine
    ok, delta = machine.obs.audit()
    if not ok:
        raise AssertionError(
            f"{name}: conservation audit failed "
            f"(delta={delta}, {machine.obs.invariant_failures()})")
    return {"sim_cycles": machine.clock.now,
            "site_cycles": dict(machine.obs.aggregator.cycles),
            "calls_by_layer": dict(calls)}


def run_workload(name: str) -> dict:
    """Run ``name`` twice through the determinism gate; its report row."""
    first = run_twice(name, lambda: _run_once(name), lambda fp: fp)
    return {"sim_cycles": first["sim_cycles"],
            "calls_by_layer": first["calls_by_layer"]}


def run_hostbench() -> dict:
    return {
        "schema": 4,
        "unit": {"sim": "cycles", "calls": "named Python calls"},
        "note": ("calls_by_layer = named Python calls of the run body "
                 "per repro layer; every workload ran twice and "
                 "reproduced its cycles, site ledger and calls "
                 "bit for bit"),
        "benchmarks": {name: run_workload(name) for name in WORKLOADS},
    }


def format_report(report: dict) -> str:
    lines = [f"{'workload':<18s} {'sim cycles':>16s} {'calls':>8s}"]
    for name, row in report["benchmarks"].items():
        lines.append(f"{name:<18s} {row['sim_cycles']:>16,.1f} "
                     f"{sum(row['calls_by_layer'].values()):>8,d}")
    return "\n".join(lines)
