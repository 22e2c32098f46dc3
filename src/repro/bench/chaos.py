"""Deterministic chaos-soak campaign over the serving plane.

``python -m repro servechaos`` drives the open-loop serving scenarios
(httpd and memcached, the same shapes as ``servebench``) while a seeded
:class:`~repro.faults.inject.FaultInjector` script kills workers and
stretches operations at exact charge-site occurrences — and then holds
the resilience layer to three verdicts:

* **Liveness** — every admitted connection either completes or is
  *accounted*: ``offered == completed + aborted + shed + unserved``,
  and nothing stays unserved while live workers remain.
* **Consistency** — ``Libmpk.audit()`` reports zero violations after
  the storm (the four state layers agree, pins name live tasks, the
  wait queue holds no residue, cycle conservation holds).
* **Determinism** — the entire run, chaos included, is a pure function
  of ``(seed, script)``: each scenario runs twice and must reproduce
  the machine clock, every per-site cycle total, and both latency
  digest states bit for bit.

The chaos *script* is data (a tuple of
:class:`~repro.faults.script.FaultEvent`), generated from the seed and
recorded in ``BENCH_chaos.json`` — so a failing run is replayed
exactly by feeding the recorded script back in (``servechaos --replay
BENCH_chaos.json``), the same replay idiom as
``repro.interleave.explore(replay=...)``.
"""

from __future__ import annotations

import random
import typing
from dataclasses import dataclass

from repro.bench.harness import run_twice
from repro.bench.serving import PoissonArrivals, ServingEngine, ServingReport
from repro.faults.inject import FaultInjector, delay, kill_task
from repro.faults.script import FaultEvent, arm_script, script_to_json
from repro.kernel.watchdog import Watchdog

#: Sites where a chaos kill lands mid-request (the worker running the
#: step takes an unhandled SIGSEGV and dies).
KILL_SITES = (
    "apps.httpd.request",
    "apps.httpd.aes",
    "apps.memcached.request",
)

#: Sites a chaos delay stretches — including the wakeup-adjacent ones
#: (``libmpk.keycache.wake``/``wait``), where latency races the
#: wake-vs-timeout decision.
DELAY_SITES = (
    "apps.httpd.aes",
    "apps.httpd.connect",
    "apps.memcached.request",
    "apps.memcached.connect",
    "libmpk.keycache.wake",
    "libmpk.keycache.wait",
    "kernel.sched.context_switch",
)


def generate_script(seed: int, events: int = 6) -> tuple[FaultEvent, ...]:
    """Derive a chaos script from ``seed`` alone (no wall clock, no
    global randomness): a deterministic mix of worker kills and
    operation delays across the kill/delay site menus."""
    if events < 0:
        raise ValueError("events must be non-negative")
    rng = random.Random(seed)
    script = []
    for _ in range(events):
        if rng.random() < 0.4:
            script.append(FaultEvent(
                kind="kill",
                site=rng.choice(KILL_SITES),
                occurrence=rng.randint(2, 40)))
        else:
            script.append(FaultEvent(
                kind="delay",
                site=rng.choice(DELAY_SITES),
                occurrence=rng.randint(1, 60),
                extra_cycles=1000.0 * rng.randint(1, 40)))
    return tuple(script)


#: Event fields the serving script records beside kind/site/occurrence.
SCRIPT_FIELDS = ("extra_cycles",)


def _actions(kernel, engine) -> dict:
    """The serving soak's action table (see :func:`arm_script`)."""
    return {
        # Kill whichever worker task is advancing at the firing site;
        # between steps the event fizzles deterministically.
        "kill": lambda event: kill_task(
            kernel, lambda: engine.current_task),
        "delay": lambda event: delay(kernel.clock, event.extra_cycles),
    }


@dataclass(frozen=True)
class ChaosRun:
    """One scenario pass under one chaos script."""

    report: ServingReport
    audit_violations: tuple[str, ...]
    liveness_violations: tuple[str, ...]
    fired: tuple[str, ...]            # injection labels that triggered
    supervisor: dict
    watchdog: dict


def _check_liveness(report: ServingReport, live_workers: int) -> list[str]:
    violations = []
    accounted = (report.completed + report.aborted + report.shed
                 + report.unserved)
    if accounted != report.offered:
        violations.append(
            f"accounting leak: {report.offered} offered != "
            f"{report.completed} completed + {report.aborted} aborted "
            f"+ {report.shed} shed + {report.unserved} unserved")
    if report.unserved and live_workers > 0:
        violations.append(
            f"{report.unserved} connections left unserved although "
            f"{live_workers} workers are still alive")
    return violations


def _soak(build, script) -> ChaosRun:
    """Build a scenario, arm the script, run it, audit everything."""
    kernel, lib, engine, pool, offer = build()
    watchdog = Watchdog(kernel)
    watchdog.watch(lib)
    injector = FaultInjector()
    arm_script(injector, script, _actions(kernel, engine))
    offer()
    obs = kernel.machine.obs
    obs.add_sink(injector)
    try:
        report = engine.run()
    finally:
        obs.remove_sink(injector)
    wd_report = watchdog.scan()
    audit = lib.audit()
    return ChaosRun(
        report=report,
        audit_violations=tuple(audit.violations),
        liveness_violations=tuple(_check_liveness(
            report, pool.live_workers())),
        fired=tuple(rec.label for rec in injector.fired),
        supervisor=pool.stats(),
        watchdog={
            "scans": watchdog.scans,
            "stalls": watchdog.stalls_detected,
            "deadlocks": watchdog.deadlocks_detected,
            "waiters": wd_report.waiters,
        },
    )


# ---------------------------------------------------------------------------
# Scenario builders (supervised, admission-controlled variants of the
# servebench shapes).
# ---------------------------------------------------------------------------

def _build_httpd(seed: int, connections: int):
    from repro import Kernel, Libmpk, Machine
    from repro.apps.sslserver import HttpServer, SslLibrary
    from repro.apps.sslserver.workers import Supervisor

    kernel = Kernel(Machine(num_cores=8))
    process = kernel.create_process()  # main task occupies core 0
    main = process.main_task
    lib = Libmpk(process)
    lib.mpk_init(main)
    ssl = SslLibrary(kernel, process, main, mode="libmpk", lib=lib)
    server = HttpServer(kernel, process, main, ssl)
    cores = [1, 2]
    engine = ServingEngine(kernel, cores=cores, queue_limit=8)
    pool = Supervisor(kernel, process, server, workers=4,
                      crash_policy="kill", schedule=False,
                      max_restarts=8)
    pool.attach_engine(engine, cores)
    engine.attach_supervisor(pool)
    schedule = PoissonArrivals(connections, 60_000.0, seed=seed)

    def offer():
        engine.offer(schedule, lambda task, conn_id:
                     server.connection_job(task, 4096, requests=4))

    return kernel, lib, engine, pool, offer


def _build_memcached(seed: int, connections: int):
    from repro import Kernel, Libmpk, Machine
    from repro.apps.kvstore import Memcached, Twemperf
    from repro.apps.kvstore.slab import SLAB_BYTES
    from repro.apps.sslserver.workers import Supervisor

    kernel = Kernel(Machine(num_cores=8))
    process = kernel.create_process()  # main task occupies core 0
    main = process.main_task
    lib = Libmpk(process)
    lib.mpk_init(main)
    store = Memcached(kernel, process, main, mode="mpk_begin", lib=lib,
                      slab_bytes=4 * SLAB_BYTES, hash_buckets=1 << 10,
                      begin_timeout=5_000_000.0)
    perf = Twemperf(store, workers=4)
    cores = [1, 2]
    engine = ServingEngine(kernel, cores=cores, queue_limit=8)
    pool = Supervisor(kernel, process, server=None, workers=4,
                      crash_policy="kill", schedule=False,
                      max_restarts=8)
    pool.attach_engine(engine, cores)
    engine.attach_supervisor(pool)
    schedule = PoissonArrivals(connections, 3_000.0, seed=seed + 1)

    def offer():
        engine.offer(schedule, perf.connection_job)

    return kernel, lib, engine, pool, offer


CHAOS_SCENARIOS = {
    "httpd": _build_httpd,
    "memcached": _build_memcached,
}


# ---------------------------------------------------------------------------
# The campaign driver (python -m repro servechaos).
# ---------------------------------------------------------------------------

def run_servechaos(seed: int = 13, connections: int = 32,
                   events: int = 6,
                   script: typing.Sequence[FaultEvent] | None = None
                   ) -> dict:
    """Soak every scenario under the (seeded or replayed) chaos script.

    Each scenario runs **twice**; any divergence in the report's
    fingerprint (clock, per-site ledger, digest states) or in
    the injection firings — chaos included — is an AssertionError, as
    are liveness or audit violations.  Returns
    the ``BENCH_chaos.json`` payload, script embedded for replay.
    """
    if script is None:
        script = generate_script(seed, events=events)
    script = tuple(script)
    scenarios = {}
    for name, build in CHAOS_SCENARIOS.items():
        first = run_twice(
            name, lambda: _soak(lambda: build(seed, connections), script),
            lambda run: {**run.report.fingerprint(), "fired": run.fired})
        if first.audit_violations:
            raise AssertionError(
                f"{name}: consistency audit failed after chaos: "
                f"{list(first.audit_violations)}")
        if first.liveness_violations:
            raise AssertionError(
                f"{name}: liveness violated: "
                f"{list(first.liveness_violations)}")
        summary = first.report.summary()
        summary.update({
            "fired": list(first.fired),
            "supervisor": first.supervisor,
            "watchdog": first.watchdog,
            "audit_ok": True,
            "liveness_ok": True,
        })
        scenarios[name] = summary
    return {
        "schema": 1,
        "seed": seed,
        "connections": connections,
        "script": script_to_json(script, SCRIPT_FIELDS),
        "note": ("chaos soak: every scenario ran twice under the same "
                 "seeded failure script and produced bit-identical "
                 "cycle totals and digest states; zero audit and "
                 "zero liveness violations"),
        "scenarios": scenarios,
    }


def format_chaos_report(report: dict) -> str:
    lines = [f"chaos script ({len(report['script'])} events, seed "
             f"{report['seed']}):"]
    for event in report["script"]:
        extra = (f" +{event['extra_cycles']:.0f}cyc"
                 if event["kind"] == "delay" else "")
        lines.append(f"  {event['kind']:<6s} {event['site']}"
                     f"@{event['occurrence']}{extra}")
    lines.append("")
    lines.append(f"{'scenario':<12s} {'conns':>6s} {'done':>6s} "
                 f"{'abort':>6s} {'shed':>6s} {'restarts':>8s} "
                 f"{'fired':>6s} {'audit':>6s}")
    for name, row in report["scenarios"].items():
        lines.append(
            f"{name:<12s} {row['offered']:>6d} {row['completed']:>6d} "
            f"{row['aborted']:>6d} {row['shed']:>6d} "
            f"{row['supervisor']['restarts']:>8d} "
            f"{len(row['fired']):>6d} "
            f"{'ok' if row['audit_ok'] else 'FAIL':>6s}")
    return "\n".join(lines)

