"""Command-line entry point: ``python -m repro <command>``.

Commands
--------
info           package, machine-model, and cost-model summary
results        print every archived benchmark table (benchmarks/results/)
bench          regenerate all tables/figures (pytest benchmarks/ …)
examples       run every example script in sequence
stats          run a sample workload, print per-site cycle attribution
profile        run a sample workload, print the hierarchical span profile
faultcampaign  sweep injected failures over a workload, audit every run
hostbench      count the simulator's host calls per layer on the MMU hot path
servebench     open-loop serving benchmark (latency percentiles), with a
               bit-identical determinism gate
servechaos     chaos-soak campaign: seeded fault scripts over the serving
               scenarios, with liveness, audit, and determinism gates
keyscale       eviction-policy shootout: sweep 100..10k virtual keys over
               serving and JIT workloads, with a determinism gate
clusterbench   healthy sharded-memcached cluster baseline over the network
               plane (--sweep: nodes x replicas x partition grid)
clusterchaos   cluster chaos soak: node kills, partitions, delays, with
               determinism, audit, liveness and degradation gates
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import runpy
import subprocess
import sys

import repro
from repro.bench.harness import write_json
from repro.hw.cycles import DEFAULT_COST_MODEL

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]
RESULTS_DIR = REPO_ROOT / "benchmarks" / "results"
EXAMPLES_DIR = REPO_ROOT / "examples"


def cmd_info(_args: argparse.Namespace) -> int:
    print(f"libmpk-repro {repro.__version__}")
    print("reproduction of: Park et al., 'libmpk: Software Abstraction "
          "for Intel Memory Protection Keys', USENIX ATC 2019")
    print()
    print("simulated machine defaults: 40 logical cores, 192 GB memory "
          "(paper's 2x Xeon Gold 5115 testbed)")
    costs = DEFAULT_COST_MODEL
    print("calibrated primitives (cycles):")
    rows = [
        ("WRPKRU", costs.wrpkru),
        ("RDPKRU", costs.rdpkru),
        ("pkey_alloc", costs.syscall_overhead() + costs.pkey_alloc_kernel),
        ("pkey_free", costs.syscall_overhead() + costs.pkey_free_kernel),
        ("mprotect (1 page)", costs.syscall_overhead()
         + costs.mprotect_base + costs.vma_find + costs.pte_update
         + costs.tlb_flush_page),
        ("libmpk hit path", costs.wrpkru + costs.mpk_cache_lookup
         + costs.mpk_metadata_op),
    ]
    for name, value in rows:
        print(f"  {name:<20s} {value:>8.1f}")
    return 0


def cmd_results(_args: argparse.Namespace) -> int:
    if not RESULTS_DIR.is_dir():
        print("no archived results; run `python -m repro bench` first",
              file=sys.stderr)
        return 1
    files = sorted(RESULTS_DIR.glob("*.txt"))
    if not files:
        print("no archived results; run `python -m repro bench` first",
              file=sys.stderr)
        return 1
    for path in files:
        sys.stdout.write(path.read_text())
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    cmd = [sys.executable, "-m", "pytest",
           str(REPO_ROOT / "benchmarks"), "--benchmark-only", "-q"]
    if args.only:
        cmd += ["-k", args.only]
    return subprocess.call(cmd)


def cmd_examples(_args: argparse.Namespace) -> int:
    failures = 0
    for script in sorted(EXAMPLES_DIR.glob("*.py")):
        banner = f"### {script.name} "
        print(banner + "#" * max(0, 72 - len(banner)))
        try:
            runpy.run_path(str(script), run_name="__main__")
        except SystemExit as exc:
            if exc.code not in (0, None):
                failures += 1
        except Exception as exc:  # surfaced, not swallowed
            print(f"FAILED: {type(exc).__name__}: {exc}",
                  file=sys.stderr)
            failures += 1
        print()
    return 1 if failures else 0


def _sample_workload(threads: int):
    """Drive a representative libmpk workload (mmap, domain switches,
    group mprotect with sibling sync, eviction pressure) and return the
    testbed so callers can read ``bed.kernel.machine.obs``."""
    from repro.bench import make_testbed
    from repro.consts import PROT_READ, PROT_WRITE

    rw = PROT_READ | PROT_WRITE
    bed = make_testbed(threads=threads, evict_rate=1.0)
    lib, task = bed.lib, bed.task
    buffers = []
    for vkey in range(100, 120):  # > 15 groups forces cache eviction
        buffers.append((vkey, lib.mpk_mmap(task, vkey, 8192, rw)))
    for vkey, addr in buffers:
        with lib.domain(task, vkey, rw):
            task.write(addr, b"x" * 64)
    lib.mpk_mprotect(task, buffers[0][0], PROT_READ)
    lib.mpk_mprotect(task, buffers[0][0], rw)
    return bed


def _sample_report(threads: int, body: str) -> str:
    """``body`` under the sample workload's one-line description."""
    return (f"sample workload: 20 protection groups, {threads} "
            f"thread(s), full eviction pressure\n\n{body}")


def cmd_stats(args: argparse.Namespace) -> int:
    from repro.kernel.procfs import format_mpk_stats

    return _publish(
        "stats", lambda: _sample_workload(args.threads),
        lambda bed: _sample_report(args.threads, format_mpk_stats(
            bed.process, depth=args.depth, limit=args.limit)),
        None)


def cmd_profile(args: argparse.Namespace) -> int:
    return _publish(
        "profile", lambda: _sample_workload(args.threads),
        lambda bed: _sample_report(
            args.threads, bed.kernel.machine.obs.format_profile()),
        None)


def cmd_faultcampaign(args: argparse.Namespace) -> int:
    from repro.faults import run_campaign

    max_per_site = 1 if args.smoke else args.limit
    report = run_campaign(mode=args.mode,
                          max_occurrences_per_site=max_per_site,
                          max_runs=args.max_runs, seed=args.seed)
    print(report.format())
    return 0 if report.ok else 1


def _publish(cmd: str, produce, text, out_path, markdown=None,
             check=None) -> int:
    """Run one report producer (a BENCH producer, or the ``stats`` /
    ``profile`` sample workload) and publish its report; returns the
    exit status.

    A failed gate (``AssertionError``) or bad input (``ValueError``)
    prints ``<cmd> FAILED: ...`` and writes nothing.  Otherwise print
    ``text(report)``, write the JSON to ``out_path`` (when given),
    append ``markdown(report)`` to the CI step summary when one is set,
    and return ``check(report)`` (0 without a check).
    """
    try:
        report = produce()
    except (AssertionError, ValueError) as exc:
        print(f"{cmd} FAILED: {exc}", file=sys.stderr)
        return 1
    print(text(report))
    if out_path is not None:
        write_json(report, out_path)
        print(f"\nwrote {out_path}")
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary_path and markdown is not None:
        with open(summary_path, "a") as fh:
            fh.write(markdown(report) + "\n")
    return check(report) if check is not None else 0


def cmd_hostbench(args: argparse.Namespace) -> int:
    from repro.bench import hostbench

    return _publish("hostbench", hostbench.run_hostbench,
                    hostbench.format_report, args.output)


def cmd_servebench(args: argparse.Namespace) -> int:
    from repro.bench import serving

    ceiling_mb = args.mem_ceiling_mb
    peak = []

    def produce():
        try:
            return serving.run_servebench(seed=args.seed,
                                          connections=args.connections,
                                          scale=args.scale,
                                          curves=not args.no_curves)
        finally:
            if ceiling_mb is not None:
                import resource

                # ru_maxrss is the process-lifetime high-water mark, in
                # KiB on Linux.  A leak of per-connection state at 100k
                # connections costs hundreds of MiB, so peak RSS
                # separates "streaming" from "retained" without
                # tracemalloc's ~5x wall-clock overhead.
                peak.append(resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss << 10)

    def check(_report) -> int:
        if ceiling_mb is None:
            return 0
        peak_mb = peak[0] / (1 << 20)
        print(f"peak RSS: {peak_mb:.1f} MiB (ceiling {ceiling_mb} MiB)")
        if peak_mb > ceiling_mb:
            print(f"servebench FAILED: peak RSS {peak_mb:.1f} MiB "
                  f"exceeds the {ceiling_mb} MiB ceiling — "
                  f"per-connection state is leaking back in",
                  file=sys.stderr)
            return 1
        return 0

    out_path = args.output
    if out_path is None:
        out_path = REPO_ROOT / ("BENCH_serving.json" if args.scale == "smoke"
                                else f"BENCH_serving_{args.scale}.json")
    return _publish("servebench", produce, serving.format_report,
                    out_path, check=check)


def cmd_servechaos(args: argparse.Namespace) -> int:
    from repro.bench import chaos
    from repro.faults.script import script_from_json

    script = None
    if args.replay:
        recorded = json.loads(pathlib.Path(args.replay).read_text())
        script = script_from_json(recorded["script"])
        args.seed = recorded.get("seed", args.seed)
        print(f"replaying {len(script)}-event script from "
              f"{args.replay} (seed {args.seed})")
    return _publish(
        "servechaos",
        lambda: chaos.run_servechaos(seed=args.seed,
                                     connections=args.connections,
                                     events=args.events, script=script),
        chaos.format_chaos_report, args.output)


def cmd_keyscale(args: argparse.Namespace) -> int:
    from repro.bench import keyscale

    domains = None
    if args.domains:
        domains = tuple(int(d) for d in args.domains.split(","))
    policies = args.policies.split(",") if args.policies else None
    workloads = args.workloads.split(",") if args.workloads else None
    return _publish(
        "keyscale",
        lambda: keyscale.run_keyscale(seed=args.seed, domains=domains,
                                      policies=policies,
                                      workloads=workloads,
                                      smoke=args.smoke),
        keyscale.format_report, args.output,
        markdown=keyscale.format_markdown)


def cmd_clusterbench(args: argparse.Namespace) -> int:
    from repro.bench import cluster

    if not args.sweep:
        return _publish(
            "clusterbench",
            lambda: cluster.run_clusterbench(seed=args.seed,
                                             nodes=args.nodes,
                                             connections=args.connections),
            cluster.format_cluster_report, args.output)

    def produce():
        sweep = cluster.run_cluster_sweep(
            seed=args.seed,
            nodes_axis=tuple(int(n) for n in args.sweep_nodes.split(",")),
            replicas_axis=tuple(
                int(r) for r in args.sweep_replicas.split(",")),
            partition_axis_mcyc=tuple(
                float(p) for p in args.sweep_partitions.split(",")),
            connections=args.connections)
        # The sweep merges into the chaos payload (one
        # BENCH_cluster.json carries both) instead of clobbering.
        payload = {}
        if args.output and os.path.exists(args.output):
            payload = json.loads(pathlib.Path(args.output).read_text())
        payload["sweep"] = sweep
        return payload

    def table(payload):
        return cluster.format_sweep_table(payload["sweep"])

    return _publish("cluster sweep", produce, table, args.output,
                    markdown=table)


def cmd_clusterchaos(args: argparse.Namespace) -> int:
    from repro.bench import cluster
    from repro.faults.script import script_from_json

    script = None
    rehydration_script = None
    if args.replay:
        recorded = json.loads(pathlib.Path(args.replay).read_text())
        script = script_from_json(recorded["script"])
        if recorded.get("rehydration_script"):
            rehydration_script = script_from_json(
                recorded["rehydration_script"])
        args.seed = recorded.get("seed", args.seed)
        print(f"replaying {len(script)}-event cluster script from "
              f"{args.replay} (seed {args.seed})")
    return _publish(
        "clusterchaos",
        lambda: cluster.run_clusterchaos(
            seed=args.seed, nodes=args.nodes,
            connections=args.connections, events=args.events,
            script=script, rehydration_script=rehydration_script),
        cluster.format_cluster_report, args.output)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("info", help="package and cost-model summary")
    sub.add_parser("results", help="print archived benchmark tables")
    bench = sub.add_parser("bench", help="regenerate tables/figures")
    bench.add_argument("--only", help="pytest -k filter", default=None)
    sub.add_parser("examples", help="run every example script")
    stats = sub.add_parser("stats",
                           help="per-site cycle attribution table")
    stats.add_argument("--threads", type=int, default=4)
    stats.add_argument("--depth", type=int, default=2,
                       help="site-label components to group by "
                            "(1=layer, 2=subsystem; 0=full labels)")
    stats.add_argument("--limit", type=int, default=20)
    profile = sub.add_parser("profile",
                             help="hierarchical span profile")
    profile.add_argument("--threads", type=int, default=4)
    campaign = sub.add_parser(
        "faultcampaign",
        help="fault-injection sweep with per-run consistency audits")
    campaign.add_argument("--mode", choices=("exhaustive", "random"),
                          default="exhaustive")
    campaign.add_argument("--smoke", action="store_true",
                          help="one injection per site (the CI gate)")
    campaign.add_argument("--limit", type=int, default=None,
                          help="cap occurrences swept per site")
    campaign.add_argument("--max-runs", type=int, default=None)
    campaign.add_argument("--seed", type=int, default=11,
                          help="sample seed for --mode random")
    hostbench = sub.add_parser(
        "hostbench",
        help="named host calls per layer on the MMU hot path "
             "(run-twice determinism gate)")
    hostbench.add_argument("--output",
                           default=str(REPO_ROOT / "BENCH_hotpath.json"))
    servebench = sub.add_parser(
        "servebench",
        help="open-loop serving benchmark with determinism gate")
    servebench.add_argument("--seed", type=int, default=7,
                            help="arrival-schedule seed")
    servebench.add_argument("--scale", choices=("smoke", "large"),
                            default="smoke",
                            help="smoke: 64 connections per scenario; "
                                 "large: 100k connections per scenario, "
                                 "reporting the latency and queue-wait "
                                 "digests")
    servebench.add_argument("--connections", type=int, default=None,
                            help="offered connections per scenario "
                                 "(default: 64 smoke / 100000 large)")
    servebench.add_argument("--no-curves", action="store_true",
                            help="skip the latency/queue-depth vs "
                                 "offered-load sweep")
    servebench.add_argument("--mem-ceiling-mb", type=int, default=None,
                            help="fail if peak RSS exceeds this many "
                                 "MiB (streaming-memory gate)")
    servebench.add_argument("--output", default=None,
                            help="report path (default: "
                                 "BENCH_serving.json, or "
                                 "BENCH_serving_large.json at --scale "
                                 "large)")
    servechaos = sub.add_parser(
        "servechaos",
        help="chaos soak over the serving scenarios (liveness + audit "
             "+ determinism gates)")
    servechaos.add_argument("--seed", type=int, default=13,
                            help="chaos-script and arrival seed")
    servechaos.add_argument("--connections", type=int, default=32,
                            help="offered connections per scenario")
    servechaos.add_argument("--events", type=int, default=6,
                            help="chaos events generated from the seed")
    servechaos.add_argument("--replay", default=None,
                            help="replay the script recorded in a prior "
                                 "BENCH_chaos.json instead of generating "
                                 "one")
    servechaos.add_argument("--output",
                            default=str(REPO_ROOT / "BENCH_chaos.json"))
    keyscale = sub.add_parser(
        "keyscale",
        help="eviction-policy shootout across the virtual-key sweep "
             "(run-twice determinism gate)")
    keyscale.add_argument("--seed", type=int, default=11,
                          help="workload seed")
    keyscale.add_argument("--smoke", action="store_true",
                          help="small sweep (100 and 1000 domains, "
                               "fewer connections) for CI")
    keyscale.add_argument("--domains", default=None,
                          help="comma-separated sweep points "
                               "(default: 100,300,1000,3000,10000)")
    keyscale.add_argument("--policies", default=None,
                          help="comma-separated policy subset "
                               "(default: all registered policies)")
    keyscale.add_argument("--workloads", default=None,
                          help="comma-separated workload subset "
                               "(default: serving,jit)")
    keyscale.add_argument("--output",
                          default=str(REPO_ROOT
                                      / "BENCH_keyscale.json"))
    clusterbench = sub.add_parser(
        "clusterbench",
        help="healthy sharded-memcached cluster baseline over the "
             "network plane")
    clusterbench.add_argument("--sweep", action="store_true",
                              help="run the nodes x replicas x "
                                   "partition-duration sweep grid")
    clusterbench.add_argument("--sweep-nodes", default="3,4",
                              help="comma list of cluster sizes")
    clusterbench.add_argument("--sweep-replicas", default="1,2",
                              help="comma list of replica counts")
    clusterbench.add_argument("--sweep-partitions", default="10,40",
                              help="comma list of partition windows "
                                   "(Mcycles)")
    clusterbench.add_argument("--seed", type=int, default=29,
                              help="arrival-schedule seed")
    clusterbench.add_argument("--nodes", type=int, default=4)
    clusterbench.add_argument("--connections", type=int, default=96)
    clusterbench.add_argument("--output", default=None,
                              help="optional JSON report path")
    clusterchaos = sub.add_parser(
        "clusterchaos",
        help="cluster chaos soak: node kills, partitions, delays "
             "(determinism + audit + liveness + degradation gates)")
    clusterchaos.add_argument("--seed", type=int, default=29,
                              help="chaos-script and arrival seed")
    clusterchaos.add_argument("--nodes", type=int, default=4)
    clusterchaos.add_argument("--connections", type=int, default=96)
    clusterchaos.add_argument("--events", type=int, default=6,
                              help="chaos events generated from the "
                                   "seed")
    clusterchaos.add_argument("--replay", default=None,
                              help="replay the script recorded in a "
                                   "prior BENCH_cluster.json")
    clusterchaos.add_argument("--output",
                              default=str(REPO_ROOT
                                          / "BENCH_cluster.json"))
    args = parser.parse_args(argv)
    if getattr(args, "depth", None) == 0:
        args.depth = None
    handler = {
        "info": cmd_info,
        "results": cmd_results,
        "bench": cmd_bench,
        "examples": cmd_examples,
        "stats": cmd_stats,
        "profile": cmd_profile,
        "faultcampaign": cmd_faultcampaign,
        "hostbench": cmd_hostbench,
        "servebench": cmd_servebench,
        "servechaos": cmd_servechaos,
        "keyscale": cmd_keyscale,
        "clusterbench": cmd_clusterbench,
        "clusterchaos": cmd_clusterchaos,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
