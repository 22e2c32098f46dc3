"""Logical cores (hyperthreads): PKRU instructions and the MMU check.

Each :class:`Core` owns a PKRU register and a TLB.  Data accesses apply
the Figure-1 rule — the effective permission is the *intersection* of the
page's permission bits and the PKRU rights for the page's protection key
— while instruction fetches consult only the page bits (MPK rights are
orthogonal to execution, which is what enables execute-only memory).

WRPKRU is modeled with its serialization side effect (Figure 2): the
instruction drains the pipeline, so instructions issued right after it
lose out-of-order overlap for a window of instructions.

The MMU
-------
Every simulated byte the workloads move funnels through the MMU.  A TLB
hit whose generation stamp matches the page table is *authoritative*:
prot/pkey/frame are served from the :class:`TlbEntry` and the page
table is never consulted.  A hit with a stale stamp validates the
mapping against the page table (unmapped pages fault) and re-stamps the
entry in place, keeping the cached prot/pkey: stale permissions survive
until a shootdown, as on real hardware.  Only ``PageTable.unmap`` moves
the stamp, since the mapping and its frame are all a validating hit
re-reads; demand paging's ``map`` and attribute rewrites leave every
resident hit authoritative.  ``read``/``write``/``fetch``
batch their bookkeeping: each page is resolved once and the per-page
``mem_access`` and (zero-cost) ``tlb_hit`` charges are folded into one
charge each per call, on ledger slots the core binds at construction.
"""

from __future__ import annotations

from repro.consts import (
    PAGE_SIZE,
    PKEY_DISABLE_ACCESS,
    PKEY_DISABLE_WRITE,
    page_number,
)
from repro.errors import GeneralProtectionFault, PkeyFault, SegmentationFault
from repro.hw.cycles import Clock, CostModel
from repro.hw.paging import PageTable, PageTableEntry
from repro.hw.pkru import PKRU
from repro.hw.tlb import TLB, TlbEntry

READ = "read"
WRITE = "write"
FETCH = "fetch"
_ACCESS_KINDS = (READ, WRITE, FETCH)


class Core:
    """One logical core (hyperthread)."""

    def __init__(self, core_id: int, clock: Clock, costs: CostModel,
                 meltdown_mitigated: bool = False) -> None:
        self.core_id = core_id
        self.clock = clock
        self.costs = costs
        # The 32-bit register value.
        self.pkru = PKRU.deny_all_but_default().value
        self.tlb = TLB(clock, costs)
        # Ledger slots of the hot charges (bound once, charged
        # positionally).
        self._hit_site = clock.site("hw.tlb.hit")
        self._mem_site = clock.site("hw.mem.access")
        self._walk_site = clock.site("hw.tlb.walk")
        self._wrpkru_site = clock.site("hw.cpu.wrpkru")
        # Remaining instructions that execute without out-of-order overlap
        # because a WRPKRU recently serialized the pipeline.
        self._serial_shadow = 0
        self._stall_pending = False
        # Rogue-data-cache-load (Meltdown) susceptibility: pre-2018
        # silicon checks PKRU after the data is already in flight (§7).
        self.meltdown_mitigated = meltdown_mitigated
        # Architectural event counters (benchmark reporting).
        self.wrpkru_count = 0
        self.rdpkru_count = 0
        self.data_accesses = 0
        self.instruction_fetches = 0

    # ------------------------------------------------------------------
    # PKRU instructions.
    # ------------------------------------------------------------------

    def wrpkru(self, value: int, ecx: int = 0, edx: int = 0) -> None:
        """Execute WRPKRU: EAX=value, ECX and EDX must be zero.

        Serializes the pipeline: subsequent instructions pay full latency
        until the out-of-order window refills.
        """
        if ecx != 0 or edx != 0:
            raise GeneralProtectionFault(
                "WRPKRU requires ECX=0 and EDX=0 "
                f"(got ecx={ecx:#x}, edx={edx:#x})")
        # The measured 23.3 cycles already include WRPKRU's own pipeline
        # drain; the serialization shadow it leaves behind penalizes the
        # *following* instructions (Figure 2's W2 > W1).
        self._wrpkru_site.charge(self.costs.wrpkru)
        self.wrpkru_count += 1
        self.pkru = value & 0xFFFF_FFFF
        self._serial_shadow = self.costs.serialization_window
        self._stall_pending = True

    def rdpkru(self, ecx: int = 0) -> int:
        """Execute RDPKRU: ECX must be zero; returns PKRU in EAX."""
        if ecx != 0:
            raise GeneralProtectionFault(
                f"RDPKRU requires ECX=0 (got ecx={ecx:#x})")
        self._consume_serial_slot(self.costs.rdpkru,
                                  site="hw.cpu.rdpkru")
        self.rdpkru_count += 1
        return self.pkru

    def load_pkru(self, pkru: int) -> None:
        """Context-switch-in PKRU restore (XRSTOR path, not WRPKRU).

        Costs are attributed to the scheduler's context-switch charge, so
        this only replaces the architectural value.
        """
        self.pkru = pkru

    # ------------------------------------------------------------------
    # Simple ALU instructions (Figure 2 microbenchmark support).
    # ------------------------------------------------------------------

    def reset_pipeline(self) -> None:
        """Clear serialization state (microbenchmark isolation between
        measured sequences; a real harness achieves this with a long
        warm-down of unrelated instructions)."""
        self._serial_shadow = 0
        self._stall_pending = False

    def execute_adds(self, count: int) -> None:
        """Execute ``count`` independent ADD instructions.

        Without a recent WRPKRU they retire at 4/cycle; inside the
        serialization shadow each costs a full cycle (plus a one-time
        pipeline-drain stall on the first one).
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        for _ in range(count):
            self._consume_serial_slot(self.costs.add_throughput,
                                      serial_cost=self.costs.add_latency,
                                      site="hw.cpu.alu")

    def execute_mov_reg(self) -> None:
        self._consume_serial_slot(self.costs.mov_reg, site="hw.cpu.mov")

    def execute_mov_xmm(self) -> None:
        self._consume_serial_slot(self.costs.mov_xmm, site="hw.cpu.mov")

    def _consume_serial_slot(self, normal_cost: float,
                             serial_cost: float | None = None,
                             site: str = "hw.cpu.instruction") -> None:
        """Charge one instruction, honoring the serialization shadow."""
        if self._serial_shadow > 0:
            cost = normal_cost if serial_cost is None else serial_cost
            if self._stall_pending:
                cost += self.costs.serialization_stall
                self._stall_pending = False
            self._serial_shadow -= 1
            self.clock.charge(cost, site=site)
        else:
            self.clock.charge(normal_cost, site=site)

    # ------------------------------------------------------------------
    # MMU: the Figure-1 permission check.
    # ------------------------------------------------------------------

    def check_access(self, page_table: PageTable, addr: int,
                     kind: str) -> PageTableEntry:
        """Translate one address and enforce permissions for ``kind``.

        Returns the PTE on success; raises :class:`SegmentationFault` for
        page-bit violations and :class:`PkeyFault` when the page bits
        allow the access but the PKRU rights for the page's key deny it.
        """
        if kind not in _ACCESS_KINDS:
            raise ValueError(f"unknown access kind: {kind!r}")
        # A one-byte transfer with no payload: translate, charge and
        # enforce as ``kind``, then copy one byte out (no state change).
        self._transfer(page_table, addr, 1, kind, None)
        return page_table.lookup_populated(page_number(addr))

    def _translate(self, page_table: PageTable, vpn: int, addr: int,
                   kind: str, cached: TlbEntry | None):
        """Resolve ``vpn`` to ``(frame, prot, pkey)`` through the TLB;
        ``cached`` is the caller's raw probe of it (entry or None), so
        the dict is not probed twice and the LRU touch happens here.

        Three outcomes, each counting one access:

        * authoritative hit (the entry's table and generation stamp
          match): served from the TLB entry alone;
        * stale-stamp hit (the table saw an unmap since the fill): the
          mapping and frame are re-read from the page table, prot/pkey
          stay the TLB's, and the entry is re-stamped so the next hit
          is authoritative;
        * miss: the page is walked (``hw.tlb.walk`` charged) and the
          TLB filled.

        Raises :class:`SegmentationFault` (``unmapped=True``), counting
        no access and charging nothing, when no translation exists.
        Returns a fourth value, True when the translation was a TLB
        hit: the caller charges the hit's (zero-cost) ``hw.tlb.hit``
        (the batched transfer folds them into one charge).

        Counters first, charges after: the architectural access counter
        and the TLB outcome are recorded before any cycle charge, so the
        MMU counter-conservation invariant holds even when a fault
        injector raises out of a charge.
        """
        tlb = self.tlb
        if cached is not None:
            tlb._entries.move_to_end(vpn)
            if (cached.table is page_table
                    and cached.generation == page_table.generation):
                # Authoritative hit: the generation stamp proves no
                # unmap since the fill, so the page is still mapped to
                # the cached frame; prot/pkey are the TLB's own on
                # every hit.
                self._count_access(kind)
                tlb.record_hit()
                return cached.frame, cached.prot, cached.pkey, True
            # Stale stamp: mapping existence and the frame come from
            # the paging structures, permission bits stay with the TLB
            # entry (stale permissions survive until a shootdown).
            entry = page_table.lookup(vpn)
            if entry is None:
                tlb.record_stale_hit()
                raise SegmentationFault(
                    f"{kind} of unmapped address {addr:#x}", addr=addr,
                    access=kind, unmapped=True)
            self._count_access(kind)
            tlb.record_hit()
            # Re-stamp in place: the entry is resident, so no
            # allocation and no dict write.
            cached.restamp(entry.frame, entry.frame.number,
                           page_table.generation, page_table)
            tlb.note_table(page_table)
            return entry.frame, cached.prot, cached.pkey, True
        entry = page_table.lookup(vpn)
        if entry is None:
            tlb.record_unmapped_miss()
            raise SegmentationFault(
                f"{kind} of unmapped address {addr:#x}", addr=addr,
                access=kind, unmapped=True)
        self._count_access(kind)
        tlb.record_walk_miss()
        self._walk_site.charge(self.costs.tlb_miss_walk)
        tlb.fill(vpn, TlbEntry(
            frame_number=entry.frame.number, prot=entry.prot,
            pkey=entry.pkey, frame=entry.frame,
            generation=page_table.generation, table=page_table))
        return entry.frame, entry.prot, entry.pkey, False

    def _count_access(self, kind: str) -> None:
        if kind == FETCH:
            self.instruction_fetches += 1
        else:
            self.data_accesses += 1

    def _enforce(self, prot: int, pkey: int, addr: int,
                 kind: str) -> None:
        """The Figure-1 permission intersection for one page: the page
        bits, then (data accesses only) ``pkey``'s rights field read
        straight out of the register value — a read needs AD clear, a
        write needs AD and WD clear."""
        if kind == FETCH:
            # Instruction fetch ignores PKRU entirely (Figure 1).
            if not prot & 0x4:  # PROT_EXEC
                raise SegmentationFault(
                    f"fetch from non-executable page at {addr:#x}",
                    addr=addr, access=kind)
            return
        if kind == READ:
            page_ok = prot & 0x1
            denied = PKEY_DISABLE_ACCESS
        else:
            page_ok = prot & 0x2
            denied = PKEY_DISABLE_ACCESS | PKEY_DISABLE_WRITE
        if not page_ok:
            raise SegmentationFault(
                f"{kind} denied by page permission at {addr:#x}",
                addr=addr, access=kind)
        if self.pkru >> 2 * pkey & denied:
            raise PkeyFault(
                f"{kind} denied by PKRU for pkey {pkey} at {addr:#x}",
                addr=addr, access=kind, pkey=pkey)

    # ------------------------------------------------------------------
    # Data transfer through the MMU.
    # ------------------------------------------------------------------

    def read(self, page_table: PageTable, addr: int, length: int) -> bytes:
        """MMU-checked read of ``length`` bytes starting at ``addr``.  A
        one-page authoritative TLB hit is served here (counters, then
        ``tlb_hit`` and ``mem_access``, then page bits and AD, then the
        copy); every other read goes to :meth:`_transfer`."""
        offset = addr % PAGE_SIZE
        entries = self.tlb._entries
        cached = entries.get(addr // PAGE_SIZE)
        if (0 < length <= PAGE_SIZE - offset and cached is not None
                and cached.table is page_table
                and cached.generation == page_table.generation):
            entries.move_to_end(addr // PAGE_SIZE)
            self.tlb.stats.hits += 1
            self.data_accesses += 1
            frame, prot, pkey = cached.frame, cached.prot, cached.pkey
            self._hit_site.charge(self.costs.tlb_hit)
            self._mem_site.charge(self.costs.mem_access)
            if (not prot & 0x1
                    or self.pkru >> 2 * pkey & PKEY_DISABLE_ACCESS):
                self._enforce(prot, pkey, addr, READ)
            fdata = frame._data
            # bytes(), not a bare bytearray slice — read() promises
            # bytes, and callers hash / compare the result.
            return (bytes(length) if fdata is None
                    else bytes(fdata[offset:offset + length]))
        return self._transfer(page_table, addr, length, READ, None)

    def write(self, page_table: PageTable, addr: int, data: bytes) -> None:
        """MMU-checked write of ``data`` starting at ``addr``, served
        as in :meth:`read` (the PKRU test needs AD and WD clear)."""
        offset = addr % PAGE_SIZE
        length = len(data)
        entries = self.tlb._entries
        cached = entries.get(addr // PAGE_SIZE)
        if (0 < length <= PAGE_SIZE - offset and cached is not None
                and cached.table is page_table
                and cached.generation == page_table.generation):
            entries.move_to_end(addr // PAGE_SIZE)
            self.tlb.stats.hits += 1
            self.data_accesses += 1
            frame, prot, pkey = cached.frame, cached.prot, cached.pkey
            self._hit_site.charge(self.costs.tlb_hit)
            self._mem_site.charge(self.costs.mem_access)
            if (not prot & 0x2 or self.pkru >> 2 * pkey
                    & (PKEY_DISABLE_ACCESS | PKEY_DISABLE_WRITE)):
                self._enforce(prot, pkey, addr, WRITE)
            if frame._data is None:
                frame._data = bytearray(PAGE_SIZE)
            frame._data[offset:offset + length] = data
        else:
            self._transfer(page_table, addr, length, WRITE, data)

    def fetch(self, page_table: PageTable, addr: int, length: int) -> bytes:
        """Instruction fetch (PKRU-exempt) of ``length`` bytes."""
        return self._transfer(page_table, addr, length, FETCH, None)

    def _transfer(self, page_table: PageTable, addr: int, length: int,
                  kind: str, data: bytes | None) -> bytes | None:
        """The transfer engine: per page, translate (TLB-first),
        enforce, and move bytes; charge the accumulated ``mem_access``
        and ``tlb_hit`` costs in one batch at the end.  ``data`` is the
        payload for a write; None collects and returns bytes (read and
        fetch).

        Faults stop the transfer at the faulting page.  Chunks before
        it are already moved (a faulting write leaves them written).
        Every page that translated — the faulting one included when
        the fault is a permission fault — counts one access and pays
        one ``mem_access``; an unmapped page counts and pays nothing.

        :meth:`read` and :meth:`write` serve one-page authoritative
        hits themselves; a one-page access that reaches here goes
        through :meth:`_translate` once.  The multi-page loop inlines
        the authoritative-hit case of :meth:`_translate` — a dict
        probe, an identity/generation compare, and an LRU touch, with
        no Python function calls — and memoizes the :meth:`_enforce`
        verdict per distinct ``(prot, pkey)`` (PKRU cannot change
        mid-transfer).  The statistics and architectural counters for
        inlined hits are accumulated locally and folded in once, in the
        ``finally`` block, *before* any charge — preserving the
        counter-conservation invariant even when a fault injector
        raises out of a charge.
        """
        if length < 0:
            raise ValueError("length must be non-negative")
        entries = self.tlb._entries
        offset = addr % PAGE_SIZE
        if 0 < length <= PAGE_SIZE - offset:
            # One page (a read/write miss or stale stamp, any fetch):
            # charged before the permission check and the copy.
            vpn = addr // PAGE_SIZE
            frame, prot, pkey, hit = self._translate(
                page_table, vpn, addr, kind, entries.get(vpn))
            if hit:
                self._hit_site.charge(self.costs.tlb_hit)
            self._mem_site.charge(self.costs.mem_access)
            self._enforce(prot, pkey, addr, kind)
            fdata = frame._data
            if data is None:
                return (bytes(length) if fdata is None
                        else bytes(fdata[offset:offset + length]))
            if fdata is None:
                frame._data = fdata = bytearray(PAGE_SIZE)
            fdata[offset:offset + length] = data
            return None
        entries_get = entries.get
        move_to_end = entries.move_to_end
        gen = page_table.generation
        # Permission memo: re-check only when the page's (prot, pkey)
        # differ from the previous page's (ints, no tuple allocation).
        last_prot = last_pkey = -1
        pieces: list[bytes] | None = [] if data is None else None
        if data is not None and length > PAGE_SIZE:
            data = memoryview(data)  # zero-copy per-page slices
        auth = 0      # authoritative hits taken inline
        hits = 0      # TLB hits resolved through _translate
        pages = 0     # pages translated through _translate
        cursor = 0
        pos = addr
        remaining = length
        try:
            while remaining > 0:
                vpn = pos // PAGE_SIZE
                cached = entries_get(vpn)
                if (cached is not None and cached.table is page_table
                        and cached.generation == gen):
                    move_to_end(vpn)
                    frame = cached.frame
                    prot = cached.prot
                    pkey = cached.pkey
                    auth += 1
                else:
                    frame, prot, pkey, hit = self._translate(
                        page_table, vpn, pos, kind, cached)
                    hits += hit
                    pages += 1
                    # Re-read the stamp: lookup() runs the demand-
                    # paging handler, so an unmap there must not leave
                    # a stale copy in ``gen``.
                    gen = page_table.generation
                if prot != last_prot or pkey != last_pkey:
                    # Architecturally counted (above / in _translate)
                    # even when the page permission-faults here.
                    self._enforce(prot, pkey, pos, kind)
                    last_prot = prot
                    last_pkey = pkey
                offset = pos % PAGE_SIZE
                chunk = PAGE_SIZE - offset
                if chunk > remaining:
                    chunk = remaining
                # Frame contents are moved through ``_data`` directly
                # (offset/chunk are in-page by construction): the
                # Frame.read/write calls and their range checks are
                # measurable at this loop's call rate, and the slices
                # here copy each byte once instead of twice.
                fdata = frame._data
                if data is None:
                    if fdata is None:
                        pieces.append(bytes(chunk))
                    else:
                        pieces.append(fdata[offset:offset + chunk])
                else:
                    if fdata is None:
                        frame._data = fdata = bytearray(PAGE_SIZE)
                    fdata[offset:offset + chunk] = \
                        data[cursor:cursor + chunk]
                cursor += chunk
                pos += chunk
                remaining -= chunk
        finally:
            if auth:
                self.tlb.stats.hits += auth
                if kind == FETCH:
                    self.instruction_fetches += auth
                else:
                    self.data_accesses += auth
            if auth or hits:
                self._hit_site.charge((auth + hits) * self.costs.tlb_hit)
            if auth or pages:
                self._mem_site.charge((auth + pages) * self.costs.mem_access)
        return b"".join(pieces) if pieces is not None else None

    # ------------------------------------------------------------------
    # Rogue data cache load — the §7 Meltdown discussion.
    # ------------------------------------------------------------------

    def speculative_read(self, page_table: PageTable, addr: int,
                         length: int) -> bytes | None:
        """Model the rogue-data-cache-load transient window.

        Vulnerable CPUs check PKRU "when checking the page permission at
        the same pipeline phase" — *after* the load has executed
        transiently — so the content of a present, page-readable page
        leaks through the cache side channel even when its protection
        key denies access.  Architecturally the access still faults;
        this returns what the attacker recovers via the covert channel,
        or None when nothing leaks (page absent, page bits deny, or
        mitigated silicon).

        Only already-populated pages can leak: an untouched
        demand-paged page has no resident data to load transiently.
        """
        if self.meltdown_mitigated:
            return None
        vpn = page_number(addr)
        entry = page_table.lookup_populated(vpn)
        if entry is None:
            return None  # no present translation -> nothing in flight
        if not entry.prot & 0x1:
            return None  # page bits deny: the load never issues
        # PKRU-only denial: the transient load completes before the
        # pkey check retires; the attacker reads the cache residue.
        limit = min(length, PAGE_SIZE - addr % PAGE_SIZE)
        self.clock.charge(self.costs.mem_access + self.costs.cache_line_fill,
                          site="hw.mem.speculative_load")
        return entry.frame.read(addr % PAGE_SIZE, limit)
