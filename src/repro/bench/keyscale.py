"""Key virtualization at scale: the eviction-policy shootout.

The paper's core contribution is scheduling 15 usable hardware pkeys
across arbitrarily many protection domains (§4.2); the ROADMAP asks
what happens when "arbitrarily many" means *thousands*.  ``python -m
repro keyscale`` sweeps 100–10k virtual keys over two workload shapes
and every registered eviction policy:

* **serving** — a multi-tenant key-value plane in the memcached shape:
  each tenant's data lives in its own page group, 24 workers over 3
  cores serve a skewed tenant mix through a blocking ``mpk_begin``
  loop with a *total* per-connection wait SLO (so more in-flight pins
  than hardware keys park workers on ``key_waiters``, and a connection
  that cannot get a key inside the SLO expires), and ``MpkTimeout``
  expiries count against the policy.  This is where the cost-aware
  policy's contention veto — a vkey some parked waiter wants is never
  evicted first — can spare woken waiters another miss.
* **jit** — the §5.2 one-key-per-page code cache
  (:class:`~repro.apps.jit.wx.KeyPerPageWx`): a single thread emits
  into a skewed working set of ``domains`` code pages, so the sweep
  isolates pure reload behaviour (no waiters, timeout rate 0).

Every cell runs **twice** and must be bit-identical (clock, per-site
cycle ledger, cache counters) — the same determinism gate the other
benches use; every run must also pass ``Libmpk.audit()`` (partition +
counter invariants) afterwards.  Results land in
``BENCH_keyscale.json``; the text report charts the per-policy curves
(:func:`~repro.bench.report.ascii_curves`).
"""

from __future__ import annotations

import random

from repro.consts import CLOCK_HZ, PAGE_SIZE, PROT_READ, PROT_WRITE
from repro.core.keycache import EVICTION_POLICIES
from repro.errors import MpkKeyExhaustion
from repro.bench.harness import run_twice
from repro.bench.report import ascii_curves
from repro.bench.serving import PoissonArrivals, ServingEngine, WaitSpec

#: Domain-count axis (virtual keys per run): 100 → 10k, log-spaced.
DOMAIN_SWEEP = (100, 300, 1_000, 3_000, 10_000)
SMOKE_DOMAINS = (100, 1_000)

#: Policies compared by default: every registered strategy.
DEFAULT_POLICIES = tuple(EVICTION_POLICIES)

WORKLOADS = ("serving", "jit")

#: First tenant vkey of the serving workload (tenant t is BASE + t).
TENANT_VKEY_BASE = 1_000

# Serving-shape parameters: 24 workers over 3 cores holds up to 24
# concurrent pins against 15 usable keys, so exhaustion genuinely
# parks workers; the multi-slice service body (6 × 40k cycles, pin
# held throughout) spans quantum expiries, which is what spreads the
# pins across workers in the first place, and holds the all-pinned
# windows open long enough that a parked worker's wait SLO can expire.
SERVING_WORKERS = 24
SERVING_CORES = 3
SERVING_RATE_PER_SEC = 150_000.0
SERVICE_SLICES = 6
SERVICE_SLICE_CYCLES = 40_000.0

#: Per-connection key-wait SLO in cycles (50 µs at 2.4 GHz): the TOTAL
#: budget a connection may spend parked across all of its key waits —
#: re-parks carry the remaining budget, not a fresh one — after which
#: the engine expires the wait (``MpkTimeout``) and the connection
#: aborts.  This is the tail-latency currency the shootout compares.
WAIT_TIMEOUT_CYCLES = 120_000.0

#: Connections per serving cell / emissions per jit cell.
SERVING_CONNECTIONS = {"full": 400, "smoke": 96}
JIT_EMISSIONS = {"full": 1_200, "smoke": 300}

#: Skew exponent: tenant/page = floor(domains * u^SKEW) for uniform u,
#: concentrating traffic on low-numbered domains (a hot set) while the
#: tail still forces misses at scale.
SKEW = 4


def _skewed_index(rng: random.Random, domains: int) -> int:
    return min(domains - 1, int(domains * (rng.random() ** SKEW)))


def _cache_fingerprint(lib) -> dict:
    cache = lib.cache
    return {
        "lookups": cache.stats_lookups,
        "hits": cache.stats_hits,
        "misses": cache.stats_misses,
        "evictions": cache.stats_evictions,
        "fallbacks": cache.stats_fallbacks,
    }


def _audit_or_die(lib, label: str) -> None:
    report = lib.audit()
    if not report.ok:
        raise AssertionError(f"keyscale {label}: {report}")
    counters = lib.cache.check_counters()
    if counters is not None:
        raise AssertionError(f"keyscale {label}: {counters}")
    partition = lib.cache.check_partition()
    if partition is not None:
        raise AssertionError(f"keyscale {label}: {partition}")


# ---------------------------------------------------------------------------
# The serving workload (multi-tenant kv, memcached shape).
# ---------------------------------------------------------------------------

def _run_serving_cell(policy: str, domains: int, seed: int,
                      connections: int) -> dict:
    """One (policy, domains) serving measurement; returns the cell
    dict plus a determinism fingerprint under ``"_fingerprint"``."""
    from repro import Kernel, Libmpk, Machine
    from repro.kernel.watchdog import Watchdog

    kernel = Kernel(Machine(num_cores=SERVING_CORES + 2))
    process = kernel.create_process()  # main task occupies core 0
    main = process.main_task
    lib = Libmpk(process)
    lib.mpk_init(main, policy=policy, seed=seed)
    watchdog = Watchdog(kernel)
    watchdog.watch(lib)

    # One page group per tenant; sizes cycle 1/3/5/7 pages so reload
    # costs differ (the cost table the cost-aware policy feeds on).
    bases: list[int] = []
    for tenant in range(domains):
        pages = 1 + (tenant % 4) * 2
        base = lib.mpk_mmap(main, TENANT_VKEY_BASE + tenant,
                            pages * PAGE_SIZE, PROT_READ | PROT_WRITE)
        bases.append(base)

    # Per-connection tenant picks, fixed up front: a pure function of
    # (seed, domains), independent of scheduling order.
    rng = random.Random(seed * 0x9E3779B1 + domains)
    tenants = [_skewed_index(rng, domains) for _ in range(connections)]
    payload = b"v" * 64

    def connection(task, conn_id: int):
        tenant = tenants[conn_id]
        vkey = TENANT_VKEY_BASE + tenant
        yield
        # blocking_begin with a *total* wait budget: each re-park
        # carries the remaining SLO rather than a fresh timeout, so a
        # connection that cannot get a key within WAIT_TIMEOUT_CYCLES
        # genuinely expires (MpkTimeout via the engine) instead of
        # resetting its deadline on every futile wake.
        deadline = kernel.clock.now + WAIT_TIMEOUT_CYCLES
        task.wanted_vkey = vkey
        try:
            while True:
                try:
                    lib.mpk_begin(task, vkey, PROT_READ | PROT_WRITE)
                    break
                except MpkKeyExhaustion:
                    kernel.clock.charge(kernel.costs.futex_block,
                                        site="libmpk.keycache.wait")
                    remaining = max(deadline - kernel.clock.now, 1.0)
                    yield WaitSpec(lib.key_waiters, remaining,
                                   on_expire=lib.key_wait_timeout)
        finally:
            task.wanted_vkey = None
        try:
            task.write(bases[tenant], payload)
            for _ in range(SERVICE_SLICES):
                kernel.clock.charge(SERVICE_SLICE_CYCLES,
                                    site="apps.tenantkv.serve")
                yield
        finally:
            lib.mpk_end(task, vkey)

    cores = list(range(1, SERVING_CORES + 1))
    engine = ServingEngine(kernel, cores=cores, name="keyscale")
    for i in range(SERVING_WORKERS):
        worker = process.spawn_task()
        engine.add_worker(worker, core_id=cores[i % SERVING_CORES])
    engine.offer(
        PoissonArrivals(connections, SERVING_RATE_PER_SEC,
                        seed=seed + domains),
        connection)
    report = engine.run()
    scan = watchdog.scan()
    if scan.deadlocks:
        raise AssertionError(
            f"keyscale serving policy={policy} domains={domains}: "
            f"watchdog found deadlock cycles {scan.deadlocks}")
    _audit_or_die(lib, f"serving policy={policy} domains={domains}")

    cache = lib.cache
    timeouts = report.wait_timeouts
    cell = {
        "domains": domains,
        "offered": report.offered,
        "completed": report.completed,
        "aborted": report.aborted,
        "throughput_rps": round(report.throughput_rps, 3),
        "hit_rate": round(cache.stats_hits
                          / max(1, cache.stats_lookups), 4),
        "eviction_rate": round(cache.stats_evictions
                               / max(1, cache.stats_lookups), 4),
        "evictions": cache.stats_evictions,
        "wait_timeouts": timeouts,
        "wait_timeout_rate": round(timeouts / max(1, report.offered), 4),
        "clock_cycles": report.clock_cycles,
    }
    cell["_fingerprint"] = {
        "clock_cycles": report.clock_cycles,
        "site_cycles": report.site_cycles,
        "completed": report.completed,
        "aborted": report.aborted,
        "wait_timeouts": timeouts,
        "cache": _cache_fingerprint(lib),
    }
    return cell


# ---------------------------------------------------------------------------
# The JIT workload (one key per code page).
# ---------------------------------------------------------------------------

def _run_jit_cell(policy: str, domains: int, seed: int,
                  emissions: int) -> dict:
    from repro import Kernel, Libmpk, Machine
    from repro.apps.jit.wx import KeyPerPageWx

    kernel = Kernel(Machine(num_cores=2))
    process = kernel.create_process()
    main = process.main_task
    lib = Libmpk(process)
    lib.mpk_init(main, policy=policy, seed=seed)
    backend = KeyPerPageWx(kernel, lib)
    base = backend.create_cache(main, num_pages=domains)

    rng = random.Random(seed * 0x5DEECE66D + domains)
    code = b"\x90" * 64
    started = kernel.clock.now
    for _ in range(emissions):
        page = _skewed_index(rng, domains)
        backend.emit(main, base + page * PAGE_SIZE, code)
    elapsed = kernel.clock.now - started
    _audit_or_die(lib, f"jit policy={policy} domains={domains}")

    cache = lib.cache
    throughput = (emissions / (elapsed / CLOCK_HZ)) if elapsed else 0.0
    cell = {
        "domains": domains,
        "emissions": emissions,
        "throughput_rps": round(throughput, 3),
        "hit_rate": round(cache.stats_hits
                          / max(1, cache.stats_lookups), 4),
        "eviction_rate": round(cache.stats_evictions
                               / max(1, cache.stats_lookups), 4),
        "evictions": cache.stats_evictions,
        "wait_timeouts": 0,
        "wait_timeout_rate": 0.0,
        "clock_cycles": kernel.clock.now,
    }
    cell["_fingerprint"] = {
        "clock_cycles": kernel.clock.now,
        "site_cycles": dict(kernel.machine.obs.aggregator.cycles),
        "cache": _cache_fingerprint(lib),
    }
    return cell


_CELL_RUNNERS = {
    "serving": lambda policy, domains, seed, scale:
        _run_serving_cell(policy, domains, seed,
                          SERVING_CONNECTIONS[scale]),
    "jit": lambda policy, domains, seed, scale:
        _run_jit_cell(policy, domains, seed, JIT_EMISSIONS[scale]),
}


def _cell_fingerprint(cell: dict) -> dict:
    """The gate's view of a cell: its ``_fingerprint`` plus every
    reported figure (under ``"cell"``)."""
    return {**cell["_fingerprint"],
            "cell": {k: v for k, v in cell.items() if k != "_fingerprint"}}


# ---------------------------------------------------------------------------
# The sweep.
# ---------------------------------------------------------------------------

def run_keyscale(seed: int = 11,
                 domains: tuple[int, ...] | None = None,
                 policies: tuple[str, ...] | None = None,
                 workloads: tuple[str, ...] | None = None,
                 smoke: bool = False) -> dict:
    """Run the full shootout; returns the JSON-ready report dict.

    Raises AssertionError when the determinism gate or a post-run
    audit fails (the CLI maps that to exit 1).
    """
    if domains is None:
        domains = SMOKE_DOMAINS if smoke else DOMAIN_SWEEP
    if any(count < 1 for count in domains):
        raise ValueError(f"every domain count must be at least 1 "
                         f"(got {list(domains)})")
    if policies is None:
        policies = DEFAULT_POLICIES
    if workloads is None:
        workloads = WORKLOADS
    for policy in policies:
        if policy not in EVICTION_POLICIES:
            raise AssertionError(
                f"unknown policy {policy!r}; registered: "
                f"{sorted(EVICTION_POLICIES)}")
    for workload in workloads:
        if workload not in _CELL_RUNNERS:
            raise AssertionError(
                f"unknown workload {workload!r}; available: "
                f"{sorted(_CELL_RUNNERS)}")
    scale = "smoke" if smoke else "full"

    results: dict[str, dict[str, list[dict]]] = {}
    for workload in workloads:
        runner = _CELL_RUNNERS[workload]
        results[workload] = {}
        for policy in policies:
            curve = []
            for count in domains:
                first = run_twice(
                    f"keyscale {workload} policy={policy} "
                    f"domains={count}",
                    lambda: runner(policy, count, seed, scale),
                    _cell_fingerprint)
                first.pop("_fingerprint")
                curve.append(first)
            results[workload][policy] = curve

    report = {
        "bench": "keyscale",
        "schema": 1,
        "seed": seed,
        "scale": scale,
        "domains": list(domains),
        "policies": list(policies),
        "determinism": {"runs_per_cell": 2, "identical": True},
        "workloads": results,
        "comparison": _compare_cost_aware(results, domains),
        "note": ("Every cell ran twice with a bit-identity gate over "
                 "clock cycles, per-site cycle ledgers, and KeyCache "
                 "counters; every run passed Libmpk.audit() "
                 "(partition + counter invariants) afterwards."),
    }
    return report


def _compare_cost_aware(results: dict, domains) -> dict:
    """The acceptance-criterion summary: cost-aware vs lru on
    wait-timeout rate, per workload, at >= 1k domains."""
    comparison: dict[str, dict] = {}
    for workload, by_policy in results.items():
        if "lru" not in by_policy or "cost-aware" not in by_policy:
            continue
        lru = {c["domains"]: c for c in by_policy["lru"]}
        aware = {c["domains"]: c for c in by_policy["cost-aware"]}
        rows = {}
        wins = 0
        eligible = 0
        for count in domains:
            if count not in lru or count not in aware:
                continue
            lru_rate = lru[count]["wait_timeout_rate"]
            aware_rate = aware[count]["wait_timeout_rate"]
            rows[str(count)] = {
                "lru_wait_timeout_rate": lru_rate,
                "cost_aware_wait_timeout_rate": aware_rate,
            }
            if count >= 1_000:
                eligible += 1
                if aware_rate < lru_rate:
                    wins += 1
        comparison[workload] = {
            "wait_timeout_rate_by_domains": rows,
            "cost_aware_beats_lru_at_1k_plus": (wins > 0),
            "points_at_1k_plus": eligible,
        }
    return comparison


# ---------------------------------------------------------------------------
# Rendering.
# ---------------------------------------------------------------------------

_CURVE_METRICS = (
    ("throughput_rps", "throughput (req/s)"),
    ("eviction_rate", "evictions / lookup"),
    ("wait_timeout_rate", "wait timeouts / offered"),
)


def format_report(report: dict) -> str:
    lines = [
        f"keyscale: eviction-policy shootout "
        f"(seed {report['seed']}, scale {report['scale']})",
        f"domains: {report['domains']}   "
        f"policies: {', '.join(report['policies'])}",
    ]
    for workload, by_policy in report["workloads"].items():
        lines.append("")
        lines.append("=" * 72)
        lines.append(f"workload: {workload}")
        lines.append("=" * 72)
        header = (f"{'policy':<12}{'domains':>8}{'thruput/s':>12}"
                  f"{'hit%':>8}{'evict%':>8}{'timeouts':>9}"
                  f"{'timeout%':>9}")
        lines.append(header)
        lines.append("-" * len(header))
        for policy, curve in by_policy.items():
            for cell in curve:
                lines.append(
                    f"{policy:<12}{cell['domains']:>8}"
                    f"{cell['throughput_rps']:>12,.1f}"
                    f"{100 * cell['hit_rate']:>8.1f}"
                    f"{100 * cell['eviction_rate']:>8.1f}"
                    f"{cell['wait_timeouts']:>9}"
                    f"{100 * cell['wait_timeout_rate']:>9.2f}")
        for metric, label in _CURVE_METRICS:
            series = {policy: [(c["domains"], c[metric]) for c in curve]
                      for policy, curve in by_policy.items()}
            if all(y == 0 for pts in series.values() for _, y in pts):
                continue
            lines.append("")
            lines.append(f"{workload}: {label} vs domains")
            lines.append(ascii_curves(series, x_label="domains",
                                      y_label=label))
    lines.append("")
    for workload, summary in report["comparison"].items():
        verdict = ("beats" if summary["cost_aware_beats_lru_at_1k_plus"]
                   else "does NOT beat")
        lines.append(f"cost-aware {verdict} lru on wait-timeout rate "
                     f"at >=1k domains ({workload})")
    lines.append(f"determinism gate: "
                 f"{report['determinism']['runs_per_cell']} runs per "
                 f"cell, bit-identical")
    return "\n".join(lines)


def format_markdown(report: dict) -> str:
    """Policy-comparison table for ``$GITHUB_STEP_SUMMARY``."""
    lines = ["### keyscale: eviction-policy shootout",
             "",
             f"seed {report['seed']}, scale `{report['scale']}`, "
             f"domains {report['domains']}, "
             f"2 bit-identical runs per cell",
             ""]
    for workload, by_policy in report["workloads"].items():
        lines.append(f"**{workload}** (largest sweep point, "
                     f"{report['domains'][-1]} domains)")
        lines.append("")
        lines.append("| policy | throughput/s | hit % | evict % "
                     "| timeout % |")
        lines.append("|---|---|---|---|---|")
        for policy, curve in by_policy.items():
            cell = curve[-1]
            lines.append(
                f"| {policy} | {cell['throughput_rps']:,.1f} "
                f"| {100 * cell['hit_rate']:.1f} "
                f"| {100 * cell['eviction_rate']:.1f} "
                f"| {100 * cell['wait_timeout_rate']:.2f} |")
        lines.append("")
    for workload, summary in report["comparison"].items():
        verdict = ("**beats**"
                   if summary["cost_aware_beats_lru_at_1k_plus"]
                   else "does **not** beat")
        lines.append(f"- cost-aware {verdict} lru on wait-timeout "
                     f"rate at >=1k domains ({workload})")
    return "\n".join(lines)

