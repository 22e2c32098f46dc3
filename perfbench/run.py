"""perfbench: host cost of the libmpk simulator, end to end and by layer.

Run from the repository root::

    python3 perfbench/run.py --workload serve_memcached --seed 1 \\
        --seconds 10 --trace 0

One run is one workload in one fresh process.  It repeats identical
episodes (fresh set-up, timed phase, checks) while the next one still
fits in ``--seconds``, at least :data:`MIN_EPISODES` times.  ``--trace 0`` reports the
end-to-end metrics from untraced episodes, timing each op by its fastest
repeat (:class:`BestTimes`).  ``--trace 1`` alternates untraced and
traced episodes (see ``tracer.py``) and reports the per-layer metrics
as medians over traced episodes.

Every episode is checked: libmpk and obs audits, op accounting, the
workload's own read-backs, and the simulated fingerprint, which must be
the same in every episode, traced or not, and for the default seed must
equal the one committed in ``golden.json``.  An episode that fails a
check counts all of its ops as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
GOLDEN = HERE / "golden.json"

#: The seed whose fingerprints ``golden.json`` pins.
DEFAULT_SEED = 1
#: Episodes per run at the least, so the cross-episode fingerprint
#: comparison always runs.
MIN_EPISODES = 2
#: Ops between process CPU time readings.
CPU_WINDOW = 10

#: (name, unit) of the metrics ``--trace 0`` reports.
END_TO_END = (
    ("ops_per_s", "ops/s"),
    ("cpu_us_per_op", "us"),
    ("op_us_p50", "us"),
    ("op_us_p99", "us"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)

#: (name, unit) of the metrics ``--trace 1`` reports.  A layer a
#: workload never enters reports 0 for its times, counts and ratios.
PER_LAYER = (
    ("obs.charges", "count"),
    ("obs.charges_per_op", "count/op"),
    ("obs.self_s", "s"),
    ("obs.self_share", "ratio"),
    ("bench.self_s", "s"),
    ("bench.self_share", "ratio"),
    ("bench.context_switches", "count"),
    ("bench.preemptions", "count"),
    ("apps.calls", "count"),
    ("apps.self_s", "s"),
    ("apps.self_share", "ratio"),
    ("apps.get_hit_ratio", "ratio"),
    ("core.calls", "count"),
    ("core.self_s", "s"),
    ("core.self_share", "ratio"),
    ("core.keycache.hit_ratio", "ratio"),
    ("core.keycache.evictions_per_op", "count/op"),
    ("kernel.calls", "count"),
    ("kernel.self_s", "s"),
    ("kernel.self_share", "ratio"),
    ("kernel.ipis", "count"),
    ("kernel.vma_cache.hit_ratio", "ratio"),
    ("hw.calls", "count"),
    ("hw.bytes", "B"),
    ("hw.self_s", "s"),
    ("hw.self_share", "ratio"),
    ("hw.tlb.hit_ratio", "ratio"),
    ("hw.tlb.page_invalidations", "count"),
    ("net.messages", "count"),
    ("net.delivered_ratio", "ratio"),
    ("net.self_s", "s"),
    ("net.self_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_s", "s"),
    ("trace.unattributed_share", "ratio"),
)


def import_simulator() -> None:
    """Make the checkout's ``src/repro`` importable, or stop: the
    benchmark measures the source next to it and nothing else."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: simulator source not found at {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# Episodes.
# ---------------------------------------------------------------------------

class BestTimes:
    """Per op position, the fastest host time seen over a run's episodes.

    Every episode issues the same ops in the same order, so op ``i`` of
    one episode repeats op ``i`` of every other.  The shared host slows
    down in phases, from a second to tens of seconds, that no median
    within a run removes; the fastest repeat of each op is its least
    disturbed measurement.  Process CPU time is kept the same way per
    :data:`CPU_WINDOW` ops.  Folding per episode keeps memory at one episode's
    worth however many episodes a run makes, so ``peak_rss_mib`` does
    not grow with speed.
    """

    def __init__(self) -> None:
        self.op_s: list[float] = []
        self.window_cpu_s: list[float] = []
        self.repeats = 0

    def add(self, recorder) -> None:
        stamps, cpu = recorder.stamps, recorder.cpu
        op_s = [b - a for a, b in zip(stamps, stamps[1:])]
        window_cpu_s = [b - a for a, b in zip(cpu, cpu[1:])]
        if self.repeats:
            op_s = list(map(min, self.op_s, op_s))
            window_cpu_s = list(map(min, self.window_cpu_s, window_cpu_s))
        self.op_s, self.window_cpu_s = op_s, window_cpu_s
        self.repeats += 1


@dataclass
class Episode:
    setup_s: float
    wall_s: float        # timed phase, host wall
    attempted: int
    failed: int
    fingerprint: dict
    delta: dict          # layer counters over the timed phase
    problems: list
    layers: dict | None  # tracer snapshot of a traced episode

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def run_episode(workload, best: BestTimes | None = None,
                tracer=None) -> Episode:
    """One set-up + timed phase + checks; the op timings are folded into
    ``best``.  A tracer is installed before set-up (so objects built
    during it see the wrapped entry points), zeroed after it, and
    removed before the checks."""
    from workloads import Recorder, counters, fingerprint

    gc.collect()
    recorder = Recorder(CPU_WINDOW)
    layers = None
    try:
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        sim = workload.setup()
        setup_s = time.perf_counter() - start
        before = counters(sim)
        if tracer is not None:
            tracer.reset()
        start = time.perf_counter()
        outcome = workload.run(sim, recorder)
        wall_s = time.perf_counter() - start
        if tracer is not None:
            layers = {"self_s": dict(tracer.self_s),
                      "calls": dict(tracer.calls),
                      "bytes": dict(tracer.bytes)}
    finally:
        if tracer is not None:
            tracer.uninstall()
    if best is not None:
        best.add(recorder)
    after = counters(sim)
    completed = outcome.attempted - outcome.failed
    # The fingerprint comes first: a check may move the simulation on.
    fp = fingerprint(sim, completed)
    problems = workload.check(sim)
    if tracer is not None:
        leftovers = tracer.installed_leftovers()
        if leftovers:
            problems.append(f"tracer left wrappers on {leftovers}")
        attributed = sum(layers["self_s"].values())
        if attributed > wall_s + 1e-6:
            problems.append(f"layer self times {attributed:.6f}s exceed "
                            f"the traced wall {wall_s:.6f}s")
    return Episode(setup_s=setup_s, wall_s=wall_s,
                   attempted=outcome.attempted,
                   failed=outcome.failed, fingerprint=fp,
                   delta={k: after[k] - before[k] for k in after},
                   problems=problems, layers=layers)


def measure(workload, seconds: float, trace: bool):
    """Episodes while the next one still fits in ``seconds``.  Traced
    runs alternate untraced and traced episodes, starting and ending
    untraced, so the last episode also shows the removed wrappers cost
    nothing.  Only untraced episodes feed the returned
    :class:`BestTimes`."""
    from tracer import Tracer

    start = time.perf_counter()
    deadline = start + seconds
    best = BestTimes()
    untraced: list[Episode] = [run_episode(workload, best)]
    traced: list[Episode] = []
    tracer = Tracer() if trace else None
    step = time.perf_counter() - start
    while (time.perf_counter() + step <= deadline
           or len(untraced) < MIN_EPISODES or (trace and not traced)):
        begun = time.perf_counter()
        if trace:
            traced.append(run_episode(workload, tracer=tracer))
        untraced.append(run_episode(workload, best))
        step = time.perf_counter() - begun
    return untraced, traced, best


# ---------------------------------------------------------------------------
# Checks and metrics.
# ---------------------------------------------------------------------------

def load_golden(name: str) -> dict | None:
    with open(GOLDEN) as fh:
        return json.load(fh)["fingerprints"].get(name)


def episode_failures(episodes: list, reference: dict,
                     golden: dict | None) -> list[list[str]]:
    """Per episode, every failed check: its own, a fingerprint that
    differs from the run's first episode, or from the golden one."""
    failures = []
    for index, episode in enumerate(episodes):
        problems = list(episode.problems)
        if episode.fingerprint != reference:
            problems.append(f"episode {index}: fingerprint "
                            f"{episode.fingerprint} != first episode's")
        if golden is not None and episode.fingerprint != golden:
            problems.append(f"episode {index}: fingerprint differs from "
                            f"golden.json {golden}")
        failures.append(problems)
    return failures


def percentile(values: list, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def end_to_end(best: BestTimes, episodes: list) -> dict:
    """Host cost per op from the fastest repeat of each op; set-up as
    the median over the run's untraced episodes."""
    op_s = best.op_s or [0.0]   # a run whose ops all failed reports 0
    windows = len(best.window_cpu_s)
    return {
        "ops_per_s": ratio(len(best.op_s), sum(op_s)),
        "cpu_us_per_op": ratio(1e6 * sum(best.window_cpu_s),
                               CPU_WINDOW * windows),
        "op_us_p50": 1e6 * percentile(op_s, 50),
        "op_us_p99": 1e6 * percentile(op_s, 99),
        "setup_s": statistics.median(e.setup_s for e in episodes),
        "peak_rss_mib": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_values(episode: Episode) -> dict:
    """Per-layer metrics of one traced episode."""
    d = episode.delta
    wall = episode.wall_s
    ops = max(1, episode.completed)
    self_s = episode.layers["self_s"]
    calls = episode.layers["calls"]
    values = {}
    for layer, seconds in self_s.items():
        values[f"{layer}.self_s"] = seconds
        values[f"{layer}.self_share"] = seconds / wall
        values[f"{layer}.calls"] = calls[layer]
    unattributed = wall - sum(self_s.values())
    values.update({
        "obs.charges": d["charges"],
        "obs.charges_per_op": d["charges"] / ops,
        "bench.context_switches": d["context_switches"],
        "bench.preemptions": d["preemptions"],
        "apps.get_hit_ratio": ratio(d["get_hits"],
                                    d["get_hits"] + d["get_misses"]),
        "core.keycache.hit_ratio": ratio(d["key_hits"], d["key_lookups"]),
        "core.keycache.evictions_per_op": d["key_evictions"] / ops,
        "kernel.ipis": d["ipis"],
        "kernel.vma_cache.hit_ratio": ratio(d["vma_hits"],
                                            d["vma_lookups"]),
        "hw.bytes": episode.layers["bytes"]["hw"],
        "hw.tlb.hit_ratio": ratio(d["tlb_hits"],
                                  d["tlb_hits"] + d["tlb_misses"]),
        "hw.tlb.page_invalidations": d["tlb_page_invalidations"],
        "net.messages": d["net_sent"],
        "net.delivered_ratio": ratio(d["net_delivered"], d["net_sent"]),
        "trace.unattributed_s": unattributed,
        "trace.unattributed_share": unattributed / wall,
    })
    return values


def per_layer(traced: list, untraced: list) -> dict:
    """Medians over traced episodes; ``trace.overhead`` compares their
    median wall with the untraced episodes' of the same run."""
    rows = [layer_values(e) for e in traced]
    values = {name: statistics.median(row[name] for row in rows)
              for name, _ in PER_LAYER if name != "trace.overhead"}
    values["trace.overhead"] = (
        statistics.median(e.wall_s for e in traced)
        / statistics.median(e.wall_s for e in untraced) - 1)
    return values


# ---------------------------------------------------------------------------
# Entry point.
# ---------------------------------------------------------------------------

def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    import_simulator()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {args.workload!r} "
                         f"(choices: {', '.join(WORKLOADS)})")
    workload = WORKLOADS[args.workload](args.seed)
    untraced, traced, best = measure(workload, args.seconds,
                                     bool(args.trace))

    episodes = untraced + traced
    golden = load_golden(workload.name) if args.seed == DEFAULT_SEED \
        else None
    failures = episode_failures(episodes, untraced[0].fingerprint, golden)
    attempted = sum(e.attempted for e in episodes)
    failed = sum(e.attempted if problems else e.failed
                 for e, problems in zip(episodes, failures))
    correct = not any(failures) and failed == 0

    if args.trace:
        values, spec = per_layer(traced, untraced), PER_LAYER
    else:
        values = end_to_end(best, untraced)
        spec = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in spec}

    print(f"perfbench {workload.name} ({workload.loop} loop) "
          f"seed={args.seed} trace={args.trace}: {len(untraced)} untraced "
          f"+ {len(traced)} traced episodes")
    for name, unit in spec:
        print(f"  {name:<34s} {values[name]:>16.6g} {unit}")
    print(f"  op samples {len(best.op_s)} ops x {best.repeats} untraced "
          f"repeats; "
          f"failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    print(f"fingerprint {json.dumps(untraced[0].fingerprint)}")
    shown = [p for problems in failures for p in problems][:10]
    print("checks: " + ("ok" if not shown else "FAILED"))
    for problem in shown:
        print(f"  {problem}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
