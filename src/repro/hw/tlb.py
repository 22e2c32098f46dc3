"""Per-core TLB caching virtual-page translations.

The TLB caches the PTE's frame, permission bits, and protection key.  It
does *not* cache PKRU rights — PKRU is checked at access time on every
reference, which is why MPK permission switches need no TLB flush (the
paper's central performance argument).

Entries additionally carry a *generation stamp*: the owning page table's
``generation`` counter at fill time, plus a reference to that page table
and to the physical frame.  The MMU (:meth:`repro.hw.cpu.Core._translate`
and the batched transfer) treats a hit whose stamp still matches the
page table as **authoritative** — prot/pkey/frame are served straight
from the :class:`TlbEntry` without consulting the page table at all.
Only an unmap bumps the generation: a hit serves the cached prot/pkey
either way, so the stamp needs to vouch only for the mapping and its
frame, which nothing but an unmap can change.  A stale stamp demotes
the hit to a validating one.

Statistics are aligned with *charged events* (the shootdown-accounting
contract):

* ``hits``   — probes served from the TLB for a mapped page.
* ``misses`` — probes that missed **and** led to a charged page walk
  plus a fill; by construction ``misses == walks == fills``.
* ``unmapped_misses`` — probes that missed where the translation turned
  out not to exist (the access faults; no walk is charged).
* ``stale_hits`` — probes that hit a TLB entry whose page no longer
  exists in the page table (possible only when something unmapped
  without a shootdown); the access faults and no walk is charged.
* ``full_flushes`` vs ``noop_flushes`` — a flush of a populated TLB vs
  a flush that found nothing to drop.  Both charge the full-flush cost
  (the hardware executes the flush instruction regardless of TLB
  occupancy — Table-1 calibration depends on that), but only a
  ``full_flush`` actually invalidated translations, which is what
  shootdown audits want to count.
* ``page_invalidations`` — INVLPG-equivalents charged, whether or not
  the page was resident (INVLPG cost does not depend on residency).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from repro.hw.cycles import Clock, CostModel


class TlbEntry:
    """Cached translation: frame number + permission + pkey bits.

    ``frame``, ``generation`` and ``table`` exist for authoritative
    hits: a hit is authoritative only when ``table`` is the page table
    being translated and ``generation`` equals its current generation
    counter.  Entries constructed without them (legacy tests, external
    code) are always validated against the page table.

    A plain ``__slots__`` class rather than a dataclass: entries are
    constructed on every TLB fill, which makes ``__init__`` one of the
    simulator's hottest allocation sites, and the revalidation path
    re-stamps entries in place via :meth:`restamp` instead of
    allocating a replacement.  Equality intentionally covers only the
    architectural fields (frame number, permission bits, pkey), as the
    frozen-dataclass version's ``compare=False`` fields did.
    """

    __slots__ = ("frame_number", "prot", "pkey", "frame", "generation",
                 "table")

    def __init__(self, frame_number: int, prot: int, pkey: int,
                 frame: object | None = None, generation: int = -1,
                 table: object | None = None) -> None:
        self.frame_number = frame_number
        self.prot = prot
        self.pkey = pkey
        self.frame = frame
        self.generation = generation
        self.table = table

    def restamp(self, frame: object, frame_number: int, generation: int,
                table: object) -> None:
        """Revalidate in place after an unmap moved the stamp: adopt
        the current frame and generation stamp while keeping the
        (possibly stale) prot/pkey bits — real hardware serves stale
        permissions until a shootdown."""
        self.frame = frame
        self.frame_number = frame_number
        self.generation = generation
        self.table = table

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TlbEntry):
            return NotImplemented
        return (self.frame_number == other.frame_number
                and self.prot == other.prot
                and self.pkey == other.pkey)

    def __hash__(self) -> int:
        return hash((self.frame_number, self.prot, self.pkey))

    def __repr__(self) -> str:
        return (f"TlbEntry(frame_number={self.frame_number}, "
                f"prot={self.prot}, pkey={self.pkey}, "
                f"generation={self.generation})")


@dataclass
class TlbStats:
    hits: int = 0
    misses: int = 0              # walk-misses: each one charged a walk
    unmapped_misses: int = 0     # missed and the page did not exist
    stale_hits: int = 0          # hit an entry for a page that is gone
    full_flushes: int = 0        # flushes that dropped >= 1 entry
    noop_flushes: int = 0        # flushes of an already-empty TLB
    page_invalidations: int = 0  # INVLPGs charged

    @property
    def walks(self) -> int:
        """Charged page walks; identical to ``misses`` by construction."""
        return self.misses

    def reset(self) -> None:
        self.hits = 0
        self.misses = 0
        self.unmapped_misses = 0
        self.stale_hits = 0
        self.full_flushes = 0
        self.noop_flushes = 0
        self.page_invalidations = 0


class TLB:
    """A set-associative-ish TLB modeled as an LRU cache of entries."""

    def __init__(self, clock: Clock, costs: CostModel,
                 capacity: int = 1536) -> None:
        if capacity <= 0:
            raise ValueError("TLB capacity must be positive")
        self._clock = clock
        self._costs = costs
        self._capacity = capacity
        self._entries: OrderedDict[int, TlbEntry] = OrderedDict()
        # Page tables whose translations may be resident — the per-core
        # half of the kernel's mm_cpumask.  Sticky: set on fill, cleared
        # only by a *full* flush (LRU eviction and INVLPG leave it, a
        # conservative over-approximation, exactly like a core staying
        # in mm_cpumask until it switches mms).  Shootdowns consult it
        # so cores holding a process's translations are flushed even
        # when no task of that process is running there at that moment.
        self._tables: set[object] = set()
        self.stats = TlbStats()

    # ------------------------------------------------------------------
    # Probing and outcome accounting.
    #
    # The MMU owns the classification: it probes (no statistics), then
    # reports what the access turned out to be.  This is what keeps the
    # conservation invariant ``hits + misses == data_accesses +
    # instruction_fetches`` exact — a probe whose access never happens
    # (unmapped fault) is counted in its own bucket, not as a miss that
    # a later audit would expect to see a page walk for.
    # ------------------------------------------------------------------

    def probe(self, vpn: int) -> TlbEntry | None:
        """Raw lookup: returns the cached entry (refreshing LRU order)
        or None.  Charges nothing and records no statistics — the
        caller classifies the outcome via the ``record_*`` methods."""
        entry = self._entries.get(vpn)
        if entry is not None:
            self._entries.move_to_end(vpn)
        return entry

    def record_hit(self, charge: bool = True) -> None:
        """Account a probe that served a mapped page from the TLB."""
        self.stats.hits += 1
        if charge:
            self._clock.charge(self._costs.tlb_hit, site="hw.tlb.hit")

    def record_walk_miss(self) -> None:
        """Account a probe miss that proceeds to a charged page walk
        (the caller charges the walk and calls :meth:`fill`)."""
        self.stats.misses += 1

    def record_unmapped_miss(self) -> None:
        """Account a probe miss where no translation exists."""
        self.stats.unmapped_misses += 1

    def record_stale_hit(self) -> None:
        """Account a probe hit whose page no longer exists."""
        self.stats.stale_hits += 1

    def fill(self, vpn: int, entry: TlbEntry) -> None:
        """Install a translation after a page walk (caller charges walk)."""
        if vpn in self._entries:
            self._entries.move_to_end(vpn)
        self._entries[vpn] = entry
        if entry.table is not None:
            self._tables.add(entry.table)
        if len(self._entries) > self._capacity:
            self._entries.popitem(last=False)

    def update(self, vpn: int, entry: TlbEntry) -> None:
        """Replace a resident translation in place (revalidation path);
        unlike :meth:`fill` this is not a walk and must not evict."""
        if vpn in self._entries:
            self._entries[vpn] = entry
            if entry.table is not None:
                self._tables.add(entry.table)

    def note_table(self, table: object) -> None:
        """Record that a resident entry now stamps ``table`` (the
        revalidation path re-stamps entries in place, bypassing
        :meth:`fill`)."""
        self._tables.add(table)

    def may_hold(self, table: object) -> bool:
        """True when this TLB may hold translations of ``table`` — the
        shootdown targeting predicate (see ``_tables``)."""
        return table in self._tables

    # ------------------------------------------------------------------
    # Invalidation.
    # ------------------------------------------------------------------

    def flush(self) -> None:
        """Full flush (e.g. after mprotect); charges the flush cost.

        The cost is charged even when the TLB is already empty — the
        flush instruction executes regardless of occupancy — but the
        statistics distinguish a real flush from a no-op so shootdown
        accounting stays truthful.
        """
        if self._entries:
            self._entries.clear()
            self.stats.full_flushes += 1
        else:
            self.stats.noop_flushes += 1
        self._tables.clear()
        self._clock.charge(self._costs.tlb_flush_full,
                           site="hw.tlb.flush_full")

    def invalidate_page(self, vpn: int) -> None:
        """INVLPG a single page; charges the per-page cost."""
        self._entries.pop(vpn, None)
        self.stats.page_invalidations += 1
        self._clock.charge(self._costs.tlb_flush_page,
                           site="hw.tlb.flush_page")

    def invalidate_range(self, vpns: list[int],
                         charge_pages: int | None = None) -> None:
        """Precise shootdown: drop ``vpns`` and charge ``charge_pages``
        INVLPGs in one batch.

        ``charge_pages`` defaults to ``len(vpns)``.  The kernel passes
        the *range* page count here while ``vpns`` lists only populated
        pages — Linux's flush_tlb_range walks the whole virtual range,
        so the INVLPG cost is range-proportional even though only
        resident translations can actually be dropped.
        """
        if charge_pages is None:
            charge_pages = len(vpns)
        for vpn in vpns:
            self._entries.pop(vpn, None)
        if charge_pages:
            self.stats.page_invalidations += charge_pages
            self._clock.charge(charge_pages * self._costs.tlb_flush_page,
                               site="hw.tlb.flush_page")

    def __len__(self) -> int:
        return len(self._entries)
