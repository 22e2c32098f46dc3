"""Wall-clock benchmark harness for the MMU hot path.

Simulated cycles measure the *modeled* machine; this module measures
the *simulator itself* — how much host time the access-heavy workloads
burn — so the perf trajectory of the hot path is tracked in CI instead
of anecdotally.  Each workload runs twice, with the MMU fast path
enabled and disabled, which doubles as the strongest correctness gate
we have: the two runs must agree on final simulated time and on every
per-site cycle total, bit for bit.

``python -m repro hostbench`` writes machine-readable
``BENCH_hotpath.json`` at the repo root.  Two gates run under
``--check-baseline``:

* **absolute floors** (:data:`SPEEDUP_FLOORS`): the fast path must win
  — speedup >= 1.0 — on *every* workload, including the syscall-heavy
  ones where its margin is thin;
* **relative baseline** (:data:`BASELINE_RELATIVE_FLOORS`): workloads
  with real headroom (fig8's cache-access loop) must also stay within
  a fraction of their committed-baseline speedup, catching slow decay
  that the absolute floor would miss.

Repeats interleave fast and slow runs (fast, slow, fast, slow, ...)
so both sides sample the same host conditions, and the reported wall
is the min over repeats — the least-perturbed observation.
"""

from __future__ import annotations

import time

from repro.bench.fixtures import TestBed, make_testbed
from repro.bench.harness import check_identical
from repro.consts import PAGE_SIZE, PROT_READ, PROT_WRITE

RW = PROT_READ | PROT_WRITE

#: Absolute per-workload gate: the fast path must not lose anywhere.
#: table1 and fig14 are syscall-dominated, so their margin over 1.0 is
#: structurally thin — the floor pins "never a regression" rather than
#: a large win.
SPEEDUP_FLOORS = {
    "fig8_cache": 1.0,
    "table1": 1.0,
    "fig14_memcached": 1.0,
}

#: Relative gate: measured speedup must stay above this fraction of
#: the committed baseline's speedup.  Only workloads with enough
#: headroom for "fraction of baseline" to be meaningful are listed.
BASELINE_RELATIVE_FLOORS = {
    "fig8_cache": 0.75,  # >25% regression from baseline fails
}


# ---------------------------------------------------------------------------
# Workloads.  Each returns (setup_state) from ``setup`` and is timed
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
    the pattern whose wall-clock the MMU fast path exists to fix."""
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
    """Table-1 primitives in a loop: syscall-dominated, so the fast
    path's margin is thin here — tracked to catch regressions in the
    syscall path's host cost.  The iteration count keeps the wall
    around tens of milliseconds: with sub-10ms runs, fixed host noise
    swamps the margin and the >= 1.0 floor turns into a coin flip."""
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
    """A Figure-14-like slab: one large mapping managed with
    pkey_mprotect over big ranges (the bulk-overlay path)."""
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
    # Epoch protection flips over the whole slab (bulk path).
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


# ---------------------------------------------------------------------------
# Harness.
# ---------------------------------------------------------------------------

def _run_once(name: str, mmu_fast_path: bool):
    """One timed run; returns (wall_seconds, sim_cycles, site_totals)."""
    setup, run, kwargs = WORKLOADS[name]
    bed = make_testbed(num_cores=2, mmu_fast_path=mmu_fast_path,
                       **kwargs)
    state = setup(bed)
    start = time.perf_counter()
    run(bed, state)
    wall = time.perf_counter() - start
    machine = bed.kernel.machine
    ok, delta = machine.obs.audit()
    if not ok:
        raise AssertionError(
            f"{name} (fast={mmu_fast_path}): conservation audit failed "
            f"(delta={delta}, {machine.obs.invariant_failures()})")
    return wall, machine.clock.now, dict(machine.obs.aggregator.cycles)


def run_workload(name: str, repeat: int = 5) -> dict:
    """Time ``name`` fast and slow; verify bit-identical simulation.

    Fast and slow runs interleave within each repeat so a host
    perturbation (frequency step, noisy neighbour) lands on both sides
    rather than biasing whichever block it hit; the reported wall is
    the min over repeats and the raw per-repeat walls are recorded for
    post-hoc flakiness forensics.
    """
    walls = {True: [], False: []}
    sim = {}
    for _ in range(repeat):
        for fast in (True, False):
            wall, cycles, site_totals = _run_once(name, fast)
            walls[fast].append(wall)
            sim[fast] = {"sim_cycles": cycles, "site_cycles": site_totals}
    check_identical(f"{name} fast vs slow MMU", sim[True], sim[False])
    wall_fast = min(walls[True])
    wall_slow = min(walls[False])
    return {
        "sim_cycles": sim[True]["sim_cycles"],
        "wall_fast_s": round(wall_fast, 6),
        "wall_slow_s": round(wall_slow, 6),
        "wall_fast_all_s": [round(w, 6) for w in walls[True]],
        "wall_slow_all_s": [round(w, 6) for w in walls[False]],
        "repeat": repeat,
        "speedup": round(wall_slow / wall_fast, 3),
    }


def run_hostbench(repeat: int = 5, workloads=None) -> dict:
    names = list(workloads or WORKLOADS)
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        raise ValueError(f"unknown workload(s) {unknown} "
                         f"(choices: {sorted(WORKLOADS)})")
    results = {name: run_workload(name, repeat=repeat)
               for name in names}
    return {
        "schema": 2,
        "unit": {"wall": "seconds", "sim": "cycles"},
        "note": ("speedup = slow-path wall / fast-path wall (min over "
                 "interleaved repeats); simulated results are verified "
                 "bit-identical between the two"),
        "benchmarks": results,
    }


def check_speedup_floors(report: dict, workloads=None) -> list[str]:
    """Absolute gate: every floored workload must clear its
    :data:`SPEEDUP_FLOORS` entry.  Failure messages name the
    regressing workload.  ``workloads`` restricts the check (the
    ``--only`` flag runs a subset; absent workloads are a failure only
    when they were supposed to run)."""
    problems = []
    for name, floor in SPEEDUP_FLOORS.items():
        if workloads is not None and name not in workloads:
            continue
        row = report["benchmarks"].get(name)
        if row is None:
            problems.append(f"{name}: missing from report (floor "
                            f"{floor:.2f}x not checked)")
            continue
        if row["speedup"] < floor:
            problems.append(
                f"{name}: fast path lost — speedup {row['speedup']:.2f}x "
                f"is below the {floor:.2f}x floor "
                f"(fast {row['wall_fast_s']:.3f}s vs "
                f"slow {row['wall_slow_s']:.3f}s)")
    return problems


def check_against_baseline(report: dict, baseline: dict) -> list[str]:
    """Full regression gate: absolute per-workload floors plus the
    relative-to-baseline checks.  Returns failure messages (empty when
    every gate passes)."""
    problems = check_speedup_floors(report)
    for name, fraction in BASELINE_RELATIVE_FLOORS.items():
        row = report["benchmarks"].get(name)
        base = baseline.get("benchmarks", {}).get(name)
        if row is None or base is None:
            problems.append(f"baseline or report missing '{name}'")
            continue
        floor = fraction * base["speedup"]
        if row["speedup"] < floor:
            problems.append(
                f"{name}: speedup {row['speedup']:.2f}x fell "
                f"below {floor:.2f}x ({fraction:.0%} of baseline "
                f"{base['speedup']:.2f}x)")
    return problems


def format_report(report: dict) -> str:
    lines = [f"{'workload':<18s} {'sim cycles':>16s} {'slow (s)':>10s} "
             f"{'fast (s)':>10s} {'speedup':>8s}"]
    for name, row in report["benchmarks"].items():
        lines.append(f"{name:<18s} {row['sim_cycles']:>16,.1f} "
                     f"{row['wall_slow_s']:>10.3f} "
                     f"{row['wall_fast_s']:>10.3f} "
                     f"{row['speedup']:>7.2f}x")
    return "\n".join(lines)


def format_markdown(report: dict) -> str:
    """GitHub-flavoured markdown table (for the CI step summary)."""
    lines = ["### MMU hot-path hostbench",
             "",
             "| workload | sim cycles | slow (s) | fast (s) | speedup "
             "| floor |",
             "|---|---:|---:|---:|---:|---:|"]
    for name, row in report["benchmarks"].items():
        floor = SPEEDUP_FLOORS.get(name)
        floor_text = f"{floor:.2f}x" if floor is not None else "—"
        lines.append(f"| {name} | {row['sim_cycles']:,.1f} "
                     f"| {row['wall_slow_s']:.3f} "
                     f"| {row['wall_fast_s']:.3f} "
                     f"| {row['speedup']:.2f}x | {floor_text} |")
    lines += ["", f"_{report['note']}_"]
    return "\n".join(lines)

