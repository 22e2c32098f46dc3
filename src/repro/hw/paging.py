"""Page tables whose entries carry the MPK protection-key field.

Real x86-64 uses a 4-level radix tree; the simulator keeps a flat
``dict`` from virtual page number to :class:`PageTableEntry` — the
observable behaviour (present/permission/pkey bits per page) is
identical, and the 4-level walk cost is charged by the TLB-miss path.

The 4-bit protection key occupies PTE bits 62:59 on real hardware (the
paper describes them as "previously unused four bits"); here it is an
explicit field, which is exactly what matters for the use-after-free
semantics: ``pkey_free()`` does *not* visit PTEs, so stale key values
persist until something rewrites the entry.

Two counters let cached views of the table check themselves cheaply.
``generation`` is the TLB stamp and moves only on :meth:`PageTable.unmap`:
a TLB hit keeps its own cached permission bits and pkey whatever the
table says (stale bits survive until a shootdown, as on hardware), so
the only facts a hit must re-read are whether the page is mapped and to
which frame — and only an unmap changes those for a page the TLB holds.
``map_generation`` moves on map and unmap, the operations that change
which frame a page maps to.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consts import (
    DEFAULT_PKEY,
    NUM_PKEYS,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
)
from repro.hw.phys import Frame


@dataclass
class PageTableEntry:
    """One PTE: frame mapping, permission bits, and the protection key."""

    frame: Frame
    prot: int
    pkey: int = DEFAULT_PKEY

    def __post_init__(self) -> None:
        self._check_pkey(self.pkey)

    @staticmethod
    def _check_pkey(pkey: int) -> None:
        if not 0 <= pkey < NUM_PKEYS:
            raise ValueError(f"protection key out of range: {pkey}")

    @property
    def readable(self) -> bool:
        return bool(self.prot & PROT_READ)

    @property
    def writable(self) -> bool:
        return bool(self.prot & PROT_WRITE)

    @property
    def executable(self) -> bool:
        return bool(self.prot & PROT_EXEC)


class PageTable:
    """Per-address-space mapping from virtual page number to PTE."""

    def __init__(self) -> None:
        self._entries: dict[int, PageTableEntry] = {}
        # The TLB stamp: bumped only by unmap.  A TLB entry stamped
        # with the current generation therefore still names a mapped
        # page and its frame (a page cannot be mapped again without
        # an unmap first), so its hit is served without a lookup;
        # prot/pkey are the TLB's own either way (see TlbEntry).
        self.generation = 0
        # Bumped by map and unmap, the two operations that change
        # which frame a page maps to (attribute rewrites leave it).
        self.map_generation = 0
        # Demand paging: the kernel installs a handler that populates a
        # missing PTE from VMA state (or returns None -> real segfault).
        self.fault_handler = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries

    def update_range(self, start_vpn: int, end_vpn: int, prot: int,
                     pkey: int | None = None) -> list[int]:
        """Rewrite ``prot`` (and ``pkey``, when given) on every
        populated PTE in ``[start, end)`` — the table's one attribute
        rewrite path, taken by every mprotect-family call whatever the
        range's size.

        One entry lookup per populated page, the pkey validated once.
        The TLB stamp is left alone: resident translations keep their
        cached bits until the caller's shootdown.  Returns the VPNs
        rewritten (the precise-shootdown list).  Simulated cost is
        charged by the caller from the page count; nothing here touches
        the clock.
        """
        if pkey is not None and not 0 <= pkey < NUM_PKEYS:
            PageTableEntry._check_pkey(pkey)  # raises
        entries = self._entries
        vpns = self.populated_vpns_in_range(start_vpn, end_vpn)
        for vpn in vpns:
            entry = entries[vpn]
            entry.prot = prot
            if pkey is not None:
                entry.pkey = pkey
        return vpns

    def map(self, vpn: int, frame: Frame, prot: int,
            pkey: int = DEFAULT_PKEY) -> PageTableEntry:
        """Install a mapping; the page must not already be mapped."""
        if vpn in self._entries:
            raise ValueError(f"virtual page {vpn:#x} already mapped")
        entry = PageTableEntry(frame=frame, prot=prot, pkey=pkey)
        self._entries[vpn] = entry
        self.map_generation += 1
        return entry

    def unmap(self, vpn: int) -> PageTableEntry:
        """Remove and return the mapping for ``vpn``."""
        try:
            entry = self._entries.pop(vpn)
        except KeyError:
            raise ValueError(f"virtual page {vpn:#x} not mapped") from None
        self.generation += 1
        self.map_generation += 1
        return entry

    def lookup(self, vpn: int) -> PageTableEntry | None:
        """The PTE for ``vpn``, or None if not present.

        A missing entry consults the kernel's demand-paging handler
        (when installed), which may populate the page from its VMA —
        the minor-fault path.  ``lookup_populated`` skips that.
        """
        entry = self._entries.get(vpn)
        if entry is not None:
            return entry
        if self.fault_handler is not None:
            return self.fault_handler(vpn)
        return None

    def lookup_populated(self, vpn: int) -> PageTableEntry | None:
        """The PTE for ``vpn`` if it is already populated; never faults."""
        return self._entries.get(vpn)

    def populated_vpns_in_range(self, start_vpn: int,
                                end_vpn: int) -> list[int]:
        """Populated pages inside ``[start_vpn, end_vpn)``.

        Scans whichever is smaller — the range or the populated set —
        so huge, sparsely-touched ranges stay cheap."""
        if end_vpn - start_vpn <= len(self._entries):
            return [vpn for vpn in range(start_vpn, end_vpn)
                    if vpn in self._entries]
        return sorted(vpn for vpn in self._entries
                      if start_vpn <= vpn < end_vpn)

    def pages_with_pkey(self, pkey: int) -> list[int]:
        """All mapped VPNs whose PTE carries ``pkey``.

        This is the expensive full-table scan the paper notes the kernel
        *refuses* to do on pkey_free() — provided here so tests and the
        use-after-free demonstration can observe stale keys.
        """
        return sorted(vpn for vpn, entry in self._entries.items()
                      if entry.pkey == pkey)
