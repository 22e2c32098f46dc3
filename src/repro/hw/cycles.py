"""Cycle-cost model and the machine's global clock.

Every latency constant is calibrated against the paper's measurements on
two Intel Xeon Gold 5115 CPUs under Linux 4.14 (Table 1, Figures 2, 3, 8
and 10).  The simulator charges these costs on the :class:`Clock` so the
benchmark harness reproduces the paper's *relative* results — orderings,
linear slopes, and crossovers — rather than wall-clock time.

Calibration notes
-----------------
Table 1 totals are decomposed so each syscall's cost is::

    2 * domain_switch + syscall_fixed + <in-kernel body>

With ``domain_switch = 50`` and ``syscall_fixed = 20`` (round trip 120):

* pkey_alloc  = 120 + 66.3           = 186.3  (Table 1: 186.3)
* pkey_free   = 120 + 17.2           = 137.2  (Table 1: 137.2)
* mprotect(1 page, 1 thread)
              = 120 + 848.5 (base) + 80 (VMA find) + 5.5 (PTE)
                + 40 (local INVLPG)       = 1094.0  (Table 1: 1094.0)

  (Small ranges are flushed precisely — Linux's flush_tlb_range issues
  INVLPG per page below a threshold rather than a full flush, so the
  single-page Table-1 case charges one INVLPG and the fixed base
  absorbs the rest of the measured total.  Ranges whose INVLPG total
  would exceed a full flush charge ``tlb_flush_full`` instead.)
* pkey_mprotect = mprotect + 10.9    = 1104.9  (Table 1: 1104.9)

The libmpk fast path (cached key, single thread) is then
``wrpkru 23.3 + cache lookup 25 + metadata op 41.4 ≈ 89.7`` — 12.2x
faster than mprotect, matching Figure 8's headline number.

The lazy-sync path charges, per sibling thread: ``task_work_add`` and,
if the sibling is running, a rescheduling IPI plus an ack wait (the
paper notes do_pkey_sync "still needs to send inter-processor
interrupts to ensure that no other thread uses the old PKRU value").
mprotect charges one TLB-shootdown IPI plus a remote flush per running
sibling, which is why both curves climb with thread count in Figure 10
while mpk_mprotect stays ahead.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CostModel:
    """Latency constants, in CPU cycles (floats: several are sub-cycle
    amortized throughput figures, exactly as the paper reports them)."""

    # ---- Instructions (Table 1 / Figure 2). ----
    wrpkru: float = 23.3
    rdpkru: float = 0.5
    mov_reg: float = 0.0          # MOVQ rbx->rdx measured as ~0 (renamed)
    mov_xmm: float = 2.09         # MOVQ rdx->xmm
    add_throughput: float = 0.25  # 4-wide issue: ADDs retire 4/cycle
    add_latency: float = 1.0      # non-overlapped ADD inside the shadow
    # Number of post-WRPKRU instructions that issue at full latency while
    # the out-of-order window refills after serialization.
    serialization_window: int = 16
    serialization_stall: float = 10.0  # one-time pipeline drain penalty

    # ---- Memory system. ----
    tlb_hit: float = 0.0
    tlb_miss_walk: float = 60.0   # 4-level page walk
    tlb_flush_full: float = 200.0
    tlb_flush_page: float = 40.0  # INVLPG
    tlb_shootdown_ipi: float = 1200.0  # remote-core IPI (flush charged there)
    mem_access: float = 1.0       # L1 hit for a simulated load/store
    cache_line_fill: float = 50.0
    minor_fault: float = 700.0    # demand-paging first touch (anon page)

    # ---- Kernel entry/exit and generic syscall work. ----
    domain_switch: float = 50.0   # one direction (SYSCALL or SYSRET)
    syscall_fixed: float = 20.0   # dispatch, bookkeeping

    # ---- pkey syscalls (Table 1 decomposition above). ----
    pkey_alloc_kernel: float = 66.3
    pkey_free_kernel: float = 17.2

    # ---- mprotect / pkey_mprotect decomposition (Table 1, Figure 3). ----
    mprotect_base: float = 848.5      # do_mprotect_pkey() fixed path
    vma_find: float = 80.0            # rb-tree lookup per affected VMA
    vma_split: float = 120.0          # split/merge bookkeeping per boundary
    pte_update: float = 5.5           # per-page PTE rewrite
    pkey_mprotect_extra: float = 10.9 # pkey bitmap validation on top

    # ---- Scheduler / inter-thread synchronization (Figures 7, 10). ----
    resched_ipi: float = 382.0        # send a rescheduling IPI
    resched_ack_wait: float = 330.0   # caller-side wait for the remote ack
    task_work_add: float = 50.0       # enqueue one callback
    task_work_run: float = 25.0       # run the PKRU-update callback
    context_switch: float = 1800.0
    # Synchronous-rendezvous sync (the strawman §4.4 replaces): the
    # caller blocks until each sibling acknowledges its PKRU update.
    eager_sync_wait: float = 2400.0

    # ---- libmpk userspace bookkeeping (§6.2: hit path ≈ WRPKRU + "the
    # cost of maintaining internal data structures"). ----
    mpk_cache_lookup: float = 25.0    # vkey -> pkey hashmap probe
    mpk_metadata_op: float = 41.4     # metadata-page read / LRU update

    # ---- Signal delivery (the fault plane's SIGSEGV model).  Linux's
    # SIGSEGV round trip is dominated by the trap, sigframe setup with
    # the xstate (PKRU included) save, and the sigreturn restore. ----
    signal_deliver: float = 850.0   # trap + siginfo/sigframe setup
    sigreturn: float = 380.0        # sigcontext (incl. PKRU) restore
    signal_kill: float = 2400.0     # unhandled signal: task teardown

    # ---- Futex-style wait queues (mpk_begin_wait blocking) and the
    # serving engine's time-sliced cores (repro.bench.serving). ----
    futex_block: float = 450.0      # enter the kernel and park on a queue
    futex_wake: float = 250.0       # pop + make one waiter runnable
    futex_timeout: float = 350.0    # hrtimer expiry + dequeue + wakeup
    sched_quantum: float = 100_000.0  # default preemption quantum
    accept_cycles: float = 600.0    # accept(2)/epoll bookkeeping per conn

    # ---- Resilience layer (supervision + load shedding). ----
    worker_respawn: float = 30_000.0  # clone + worker re-init after a kill
    watchdog_scan: float = 800.0      # wait-for graph walk per scan
    conn_reset: float = 300.0         # shed an admitted connection (RST)

    # ---- mmap/munmap (used by workloads, not directly measured). ----
    mmap_base: float = 900.0
    mmap_per_page: float = 25.0
    munmap_base: float = 700.0
    munmap_per_page: float = 18.0

    def syscall_overhead(self) -> float:
        """Round-trip user→kernel→user cost excluding the handler body."""
        return 2 * self.domain_switch + self.syscall_fixed


DEFAULT_COST_MODEL = CostModel()


@dataclass
class Clock:
    """Monotonic cycle counter for one simulated machine.

    All hardware and kernel operations call :meth:`charge`; benchmarks
    bracket regions of interest with :meth:`snapshot` deltas.

    Every charge carries a *site* — a dotted ``layer.op.component``
    attribution label (see :mod:`repro.obs`).  The clock keeps the
    per-site ledger itself: each label is interned to a small dense id
    on first use, and :meth:`charge` adds to the flat
    :attr:`site_cycles`/:attr:`site_counts` slots of that id, so the
    always-on :class:`~repro.obs.SiteAggregator` is only a read-only
    view and ``sum(site_cycles) == now`` holds from cycle zero.

    Optional sinks (ring logs, fault injectors) registered with
    :meth:`add_sink` then get ``on_charge(site, cycles, now, seq)`` for
    every charge, in registration order.
    """

    now: float = 0.0
    _events: int = field(default=0, repr=False)
    _sinks: list = field(default_factory=list, repr=False)
    # site label <-> dense id, and the per-id ledger slots.
    _site_ids: dict = field(default_factory=dict, repr=False)
    _site_names: list = field(default_factory=list, repr=False)
    site_cycles: list = field(default_factory=list, repr=False)
    site_counts: list = field(default_factory=list, repr=False)

    def site_id(self, site: str) -> int:
        """The dense integer id for ``site`` (interning it if new)."""
        sid = self._site_ids.get(site)
        if sid is None:
            sid = len(self._site_names)
            self._site_ids[site] = sid
            self._site_names.append(site)
            self.site_cycles.append(0.0)
            self.site_counts.append(0)
        return sid

    def site_name(self, site_id: int) -> str:
        """The label interned as ``site_id``."""
        return self._site_names[site_id]

    def charge(self, cycles: float, site: str = "unattributed") -> None:
        """Advance time by ``cycles`` (non-negative), attributed to
        ``site``.  Code inside ``src/repro`` must always pass ``site=``
        (enforced by the repo-consistency tests); the default exists
        for exploratory/external callers only."""
        if cycles < 0:
            raise ValueError(f"negative cycle charge: {cycles}")
        self.now += cycles
        self._events += 1
        sid = self._site_ids.get(site)
        if sid is None:
            sid = self.site_id(site)
        self.site_cycles[sid] += cycles
        self.site_counts[sid] += 1
        if self._sinks:
            now, seq = self.now, self._events
            for sink in self._sinks:
                sink.on_charge(site, cycles, now, seq)

    def add_sink(self, sink) -> None:
        """Register a charge sink: ``sink.on_charge(site, cycles, now,
        seq)`` runs on every charge, in registration order."""
        if sink in self._sinks:
            raise ValueError("sink is already registered")
        self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        """Unregister ``sink`` (no-op when not registered).  The list
        is rebuilt, not edited, so a charge already iterating it still
        reaches every sink it started with."""
        if sink in self._sinks:
            self._sinks = [s for s in self._sinks if s is not sink]

    def snapshot(self) -> float:
        """Current time; subtract two snapshots to measure a region."""
        return self.now

    @property
    def events(self) -> int:
        """Number of individual charges (for diagnostics)."""
        return self._events


class Region:
    """Context manager measuring elapsed simulated cycles.

    >>> clock = Clock()
    >>> with Region(clock) as region:
    ...     clock.charge(10.0, site="hw.doc.example")
    >>> region.elapsed
    10.0
    """

    def __init__(self, clock: Clock) -> None:
        self._clock = clock
        self._start = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "Region":
        self._start = self._clock.snapshot()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.elapsed = self._clock.snapshot() - self._start
