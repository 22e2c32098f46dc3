"""mm_struct mechanics: mmap/munmap/mprotect over VMAs and page tables.

This module implements the *mechanics* only (VMA surgery, PTE rewrites)
and reports what it did via :class:`ProtectStats`; the syscall layer in
:mod:`repro.kernel.kcore` translates those stats into cycle charges and
performs the TLB shootdown.  Keeping mechanics and accounting separate
makes both independently testable.

Anonymous memory is **demand-paged**, as on Linux: ``mmap`` records a
VMA but allocates no frames; the first touch of each page takes a minor
fault (handled by :meth:`MM.handle_fault`, installed as the page
table's fault handler) that allocates a zeroed frame and installs the
PTE from the VMA's attributes.  Gigabyte mappings are therefore O(1)
to create and physical memory is only consumed by pages actually used —
which also means out-of-memory surfaces at *fault* time (overcommit),
exactly as with the real kernel's default policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.consts import (
    DEFAULT_PKEY,
    MMAP_BASE,
    PAGE_SHIFT,
    PAGE_SIZE,
    page_align_up,
    page_number,
)
from repro.errors import InvalidArgument, OutOfMemory
from repro.hw.machine import Machine
from repro.hw.paging import PageTable, PageTableEntry
from repro.kernel.vma import VMA, VmaTree


class ProtectStats:
    """What one mprotect-style operation touched (for cost accounting).

    ``pages_updated`` is the page count of the range — what the
    kernel's cost is proportional to.  ``vpns`` lists the populated
    pages whose PTEs were rewritten (possibly none), the precise
    shootdown's invalidation list.
    """

    __slots__ = ("vmas_found", "splits", "merges", "pages_updated", "vpns")

    def __init__(self) -> None:
        self.vmas_found = 0
        self.splits = 0
        self.merges = 0
        self.pages_updated = 0
        self.vpns: list[int] = []


@dataclass
class MapStats:
    pages_mapped: int = 0


@dataclass
class UnmapStats:
    vmas_found: int = 0
    splits: int = 0
    pages_unmapped: int = 0
    frames_freed: int = 0
    vpns: list[int] = field(default_factory=list)


class MM:
    """One process's address space: VMA tree + page table + frames."""

    def __init__(self, machine: Machine) -> None:
        self.machine = machine
        self.page_table = PageTable()
        self.page_table.fault_handler = self.handle_fault
        self.vmas = VmaTree()
        self._mmap_cursor = MMAP_BASE
        self.minor_faults = 0
        self._minor_fault_site = machine.clock.site("kernel.fault.minor")
        # The protect fast path: the last exact-fit (addr, end) -> VMA
        # resolution, validated against the VMA tree's structural
        # version.  Syscall-heavy workloads (Table 1's mprotect loop,
        # Figure 14's epoch flips) re-protect the same range over and
        # over; the cache skips the find_range walk and the hole/clamp
        # checks when nothing structural changed.  Counters are
        # audited as an obs invariant (hits + misses == lookups, and a
        # version-valid cached VMA must still resolve identically).
        self._protect_cache_key: tuple[int, int] | None = None
        self._protect_cache_vma: VMA | None = None
        self._protect_cache_version = -1
        self.vma_cache_hits = 0
        self.vma_cache_misses = 0
        self.vma_cache_lookups = 0

    # ------------------------------------------------------------------
    # Demand paging.
    # ------------------------------------------------------------------

    def handle_fault(self, vpn: int) -> PageTableEntry | None:
        """Minor-fault path: populate ``vpn`` from its VMA, if any.

        Returns the freshly installed PTE, or None when no VMA covers
        the address (the access is a genuine segfault).  Raises
        :class:`OutOfMemory` when physical frames are exhausted — the
        overcommit bill arriving at first touch.

        Shared mappings (created via :meth:`mmap_shared_object`) fault
        in the *shared object's* frame for that offset, so every
        process mapping the object sees the same bytes.
        """
        vma = self.vmas.find(vpn * PAGE_SIZE)
        if vma is None:
            return None
        shared = getattr(vma, "shared_object", None)
        if shared is not None:
            offset_page = vma.shared_offset_pages + \
                (vpn - page_number(vma.start))
            frame = shared.frame_for(offset_page, self.machine)
        else:
            frame = self.machine.memory.alloc_frame()
        entry = self.page_table.map(vpn, frame, vma.effective_pte_prot,
                                    vma.pkey)
        self.minor_faults += 1
        self._minor_fault_site.charge(self.machine.costs.minor_fault)
        return entry

    def populate(self, addr: int, length: int) -> int:
        """Eagerly fault in a range (MAP_POPULATE / mlock semantics).

        Returns the number of pages populated."""
        addr, end = self._check_range(addr, length)
        populated = 0
        for vpn in range(page_number(addr), page_number(end)):
            if self.page_table.lookup_populated(vpn) is None:
                if self.handle_fault(vpn) is None:
                    raise InvalidArgument(
                        f"populate of unmapped page {vpn * PAGE_SIZE:#x}")
                populated += 1
        return populated

    # ------------------------------------------------------------------
    # Mapping.
    # ------------------------------------------------------------------

    def mmap(self, length: int, prot: int, flags: int = 0,
             addr: int | None = None) -> tuple[int, MapStats]:
        """Create an anonymous mapping; returns (address, stats)."""
        if length <= 0:
            raise InvalidArgument(f"mmap length must be positive: {length}")
        length = page_align_up(length)
        if addr is None:
            addr = self.vmas.gap_after(self._mmap_cursor, length)
            self._mmap_cursor = addr + length
        elif addr % PAGE_SIZE:
            raise InvalidArgument(f"mmap hint not page-aligned: {addr:#x}")
        vma = VMA(addr, addr + length, prot, DEFAULT_PKEY, flags)
        self.vmas.insert(vma)
        return addr, MapStats(pages_mapped=length // PAGE_SIZE)

    def mmap_shared_object(self, shared, prot: int,
                           addr: int | None = None) -> int:
        """Map a :class:`~repro.kernel.shm.SharedObject` into this
        address space with ``prot``; returns the base address."""
        base, _ = self.mmap(shared.size, prot, addr=addr)
        vma = self.vmas.find(base)
        vma.shared_object = shared
        return base

    def munmap(self, addr: int, length: int) -> UnmapStats:
        """Remove mappings covering ``[addr, addr+length)``."""
        addr, end = self._check_range(addr, length)
        stats = UnmapStats()
        for vma in self.vmas.find_range(addr, end):
            stats.vmas_found += 1
            vma = self._clamp(vma, addr, end, stats)
            self.vmas.remove(vma)
            first = page_number(vma.start)
            last = page_number(vma.end)
            stats.pages_unmapped += last - first
            shared = getattr(vma, "shared_object", None)
            for vpn in self.page_table.populated_vpns_in_range(first,
                                                               last):
                entry = self.page_table.unmap(vpn)
                if shared is None:
                    # Shared frames stay alive in their object; private
                    # frames return to the allocator.
                    self.machine.memory.free_frame(entry.frame)
                    stats.frames_freed += 1
                stats.vpns.append(vpn)
        return stats

    # ------------------------------------------------------------------
    # Protection.
    # ------------------------------------------------------------------

    def protect(self, addr: int, length: int, prot: int,
                pkey: int | None = None,
                pte_prot: int | None = None) -> ProtectStats:
        """Change protection (and optionally the pkey) of a range.

        ``prot`` is recorded in the VMA (what the user asked for);
        ``pte_prot`` overrides the bits written to the PTEs when the two
        differ — the execute-only path maps PROT_EXEC requests as
        readable+executable PTEs gated by a protection key, since x86
        page bits cannot express execute-only.

        The range must be fully mapped (Linux returns ENOMEM otherwise).
        """
        addr, end = self._check_range(addr, length)
        stats = ProtectStats()
        tree = self.vmas
        self.vma_cache_lookups += 1
        if (self._protect_cache_key == (addr, end)
                and self._protect_cache_version == tree.version):
            # Cached resolution: the tree is structurally unchanged
            # since this exact range last resolved to a single
            # exact-fit VMA, so that VMA still spans [addr, end) and
            # the hole/clamp checks cannot fire.  The attribute and
            # PTE updates below are byte-for-byte the miss path's.
            self.vma_cache_hits += 1
            vma = self._protect_cache_vma
            stats.vmas_found = 1
            self._apply_protect(vma, prot, pkey, pte_prot, stats)
        else:
            self.vma_cache_misses += 1
            covered = addr
            vma = None
            for vma in tree.find_range(addr, end):
                if vma.start > covered:
                    raise OutOfMemory(
                        f"mprotect range has unmapped hole at "
                        f"{covered:#x}")
                stats.vmas_found += 1
                if vma.start < addr or vma.end > end:
                    vma = self._clamp(vma, addr, end, stats)
                self._apply_protect(vma, prot, pkey, pte_prot, stats)
                covered = vma.end
            if covered < end:
                raise OutOfMemory(
                    f"mprotect range has unmapped tail at {covered:#x}")
        stats.merges = tree.merge_around(addr, end)
        if (stats.vmas_found == 1 and stats.splits == 0
                and stats.merges == 0):
            # Exactly one VMA, no surgery: ``vma`` spans [addr, end)
            # precisely (anything else would have split or raised) and
            # is still in the tree, so the next protect of this range
            # can reuse it as long as the version holds.
            self._protect_cache_key = (addr, end)
            self._protect_cache_vma = vma
            self._protect_cache_version = tree.version
        else:
            self._protect_cache_key = None
            self._protect_cache_vma = None
            self._protect_cache_version = -1
        return stats

    def _apply_protect(self, vma: VMA, prot: int, pkey: int | None,
                       pte_prot: int | None, stats: ProtectStats) -> None:
        """Apply new attributes to one in-range VMA and its PTEs
        (shared by the cached and walking protect paths)."""
        vma.prot = prot
        vma.pte_prot = pte_prot
        if pkey is not None:
            vma.pkey = pkey
        effective = prot if pte_prot is None else pte_prot
        first = vma.start >> PAGE_SHIFT
        last = vma.end >> PAGE_SHIFT
        stats.pages_updated += last - first
        stats.vpns.extend(self.page_table.update_range(
            first, last, effective, pkey))

    def protect_cache_consistency(self) -> str | None:
        """Audit hook for the protect VMA cache: counters reconcile,
        and a version-valid cached entry still resolves to the same
        exact-fit VMA the tree would return.  Returns a failure
        description or None."""
        if self.vma_cache_hits + self.vma_cache_misses != \
                self.vma_cache_lookups:
            return (f"vma cache counters leak: hits "
                    f"{self.vma_cache_hits} + misses "
                    f"{self.vma_cache_misses} != lookups "
                    f"{self.vma_cache_lookups}")
        if (self._protect_cache_vma is not None
                and self._protect_cache_version == self.vmas.version):
            addr, end = self._protect_cache_key
            vma = self.vmas.find(addr)
            if (vma is not self._protect_cache_vma
                    or vma.start != addr or vma.end != end):
                return (f"stale protect cache for [{addr:#x},{end:#x}): "
                        f"cached VMA is no longer the tree's exact fit")
        return None

    # ------------------------------------------------------------------
    # Helpers.
    # ------------------------------------------------------------------

    def _clamp(self, vma: VMA, start: int, end: int, stats) -> VMA:
        """Split ``vma`` so the returned VMA lies entirely in range."""
        if vma.start < start:
            _, vma = self.vmas.split(vma, start)
            stats.splits += 1
        if vma.end > end:
            vma, _ = self.vmas.split(vma, end)
            stats.splits += 1
        return vma

    @staticmethod
    def _check_range(addr: int, length: int) -> tuple[int, int]:
        if addr % PAGE_SIZE:
            raise InvalidArgument(f"address not page-aligned: {addr:#x}")
        if length <= 0:
            raise InvalidArgument(f"length must be positive: {length}")
        return addr, addr + page_align_up(length)

    def total_mapped_pages(self) -> int:
        """Pages covered by VMAs (mapped, populated or not)."""
        return sum(vma.num_pages for vma in self.vmas)

    def populated_pages(self) -> int:
        """Pages with a physical frame behind them."""
        return len(self.page_table)
