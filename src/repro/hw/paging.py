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

    def set_prot(self, prot: int) -> None:
        self.prot = prot

    def set_pkey(self, pkey: int) -> None:
        self._check_pkey(pkey)
        self.pkey = pkey


@dataclass
class _Overlay:
    """A pending bulk attribute update over a VPN range.

    Large ``mprotect``/``pkey_mprotect`` calls (the 1 GB Memcached slab
    of Figure 14 touches 262,144 PTEs per call) record one overlay
    instead of rewriting every PTE eagerly; entries materialize the
    pending attributes on their next individual access.  The *simulated*
    cost is still charged per page by the kernel — only the host-side
    work becomes O(1).
    """

    start_vpn: int
    end_vpn: int  # exclusive
    prot: int | None
    pkey: int | None
    seq: int

    def covers(self, vpn: int) -> bool:
        return self.start_vpn <= vpn < self.end_vpn


class PageTable:
    """Per-address-space mapping from virtual page number to PTE."""

    # Above this many pending overlays the table folds them all into the
    # populated entries and starts over — bounding ``_materialize`` at
    # O(OVERLAY_FOLD_CAP) per access no matter how adversarial the
    # open/close churn is.
    OVERLAY_FOLD_CAP = 32

    def __init__(self) -> None:
        self._entries: dict[int, PageTableEntry] = {}
        # Monotonic generation number; bumped on any structural change so
        # TLBs can detect staleness cheaply in assertions/tests.
        self.generation = 0
        # Bumped only by map/unmap, the two operations that change
        # which frame a page maps to (attribute rewrites leave it).
        self.map_generation = 0
        self._overlays: list[_Overlay] = []
        self._seq = 0
        # Demand paging: the kernel installs a handler that populates a
        # missing PTE from VMA state (or returns None -> real segfault).
        self.fault_handler = None

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, vpn: int) -> bool:
        return vpn in self._entries

    # ------------------------------------------------------------------
    # Bulk updates (overlays).
    # ------------------------------------------------------------------

    def bulk_update(self, start_vpn: int, end_vpn: int,
                    prot: int | None = None,
                    pkey: int | None = None) -> None:
        """Lazily apply ``prot``/``pkey`` to every PTE in the range."""
        if pkey is not None:
            PageTableEntry._check_pkey(pkey)
        self._seq += 1
        overlay = _Overlay(start_vpn, end_vpn, prot, pkey, self._seq)
        # Shadow-prune older overlays per field: once every field an
        # older overlay sets is fully covered by this newer one, that
        # field can never reach an entry (the newer overlay rewrites it
        # afterwards in ``_materialize``'s seq order).  An overlay with
        # no live fields left is dead.  Without the per-field rule,
        # pkey-only overlays — the mpk_mprotect hot path — accumulated
        # without bound and _materialize degraded to O(overlays).
        survivors: list[_Overlay] = []
        for o in self._overlays:
            if start_vpn <= o.start_vpn and o.end_vpn <= end_vpn:
                if prot is not None:
                    o.prot = None
                if pkey is not None:
                    o.pkey = None
                if o.prot is None and o.pkey is None:
                    continue
            survivors.append(o)
        survivors.append(overlay)
        self._overlays = survivors
        if len(self._overlays) > self.OVERLAY_FOLD_CAP:
            self._fold_overlays()
        self.generation += 1

    def _fold_overlays(self) -> None:
        """Materialize every pending overlay into the populated entries
        and clear the list (host-side only; charges nothing).

        Safe for not-yet-populated pages: the demand-paging handler
        builds fresh PTEs from current VMA state, and :meth:`map` stamps
        new entries with the current ``_seq`` — neither consults
        overlays recorded before this point.
        """
        for vpn, entry in self._entries.items():
            self._materialize(vpn, entry)
        self._overlays.clear()

    def _materialize(self, vpn: int, entry: PageTableEntry) -> None:
        """Fold any pending overlays for ``vpn`` into the entry."""
        if not self._overlays:
            return
        stamp = getattr(entry, "_stamp", 0)
        for overlay in self._overlays:
            if overlay.seq > stamp and overlay.covers(vpn):
                if overlay.prot is not None:
                    entry.prot = overlay.prot
                if overlay.pkey is not None:
                    entry.pkey = overlay.pkey
        entry._stamp = self._seq

    def update_range(self, start_vpn: int, end_vpn: int, prot: int,
                     pkey: int | None = None) -> list[int]:
        """Eagerly rewrite every populated PTE in ``[start, end)`` —
        the mprotect path for ranges below the bulk-overlay threshold.

        The per-page loop from the caller is folded in here: one entry
        lookup per page (instead of enumerate-then-lookup), the pkey
        validated once, and a single generation bump for the whole call
        — TLB stamps only ever test *equality* against the current
        generation, so one bump and k bumps invalidate exactly the same
        cached translations.  Returns the VPNs rewritten (the precise-
        shootdown list).  Simulated cost is charged by the caller from
        the page count; nothing here touches the clock.
        """
        if pkey is not None and not 0 <= pkey < NUM_PKEYS:
            PageTableEntry._check_pkey(pkey)  # raises
        entries = self._entries
        overlays = self._overlays
        vpns = self.populated_vpns_in_range(start_vpn, end_vpn)
        for vpn in vpns:
            entry = entries[vpn]
            if overlays:
                # Fold pending bulk overlays first (and stamp the
                # entry) so an older overlay can never be materialized
                # over the bits written here.
                self._materialize(vpn, entry)
            entry.prot = prot
            if pkey is not None:
                entry.pkey = pkey
        if vpns:
            self.generation += 1
        return vpns

    def map(self, vpn: int, frame: Frame, prot: int,
            pkey: int = DEFAULT_PKEY) -> PageTableEntry:
        """Install a mapping; the page must not already be mapped."""
        if vpn in self._entries:
            raise ValueError(f"virtual page {vpn:#x} already mapped")
        entry = PageTableEntry(frame=frame, prot=prot, pkey=pkey)
        # New mappings are not subject to overlays recorded earlier.
        entry._stamp = self._seq
        self._entries[vpn] = entry
        self.generation += 1
        self.map_generation += 1
        return entry

    def unmap(self, vpn: int) -> PageTableEntry:
        """Remove and return the mapping for ``vpn``."""
        try:
            entry = self._entries.pop(vpn)
        except KeyError:
            raise ValueError(f"virtual page {vpn:#x} not mapped") from None
        self._materialize(vpn, entry)
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
            self._materialize(vpn, entry)
            return entry
        if self.fault_handler is not None:
            return self.fault_handler(vpn)
        return None

    def lookup_populated(self, vpn: int) -> PageTableEntry | None:
        """The PTE for ``vpn`` if it is already populated; never faults."""
        entry = self._entries.get(vpn)
        if entry is not None:
            self._materialize(vpn, entry)
        return entry

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

    def set_prot(self, vpn: int, prot: int) -> None:
        entry = self._require(vpn)
        self._materialize(vpn, entry)
        entry.set_prot(prot)
        self.generation += 1

    def set_pkey(self, vpn: int, pkey: int) -> None:
        entry = self._require(vpn)
        self._materialize(vpn, entry)
        entry.set_pkey(pkey)
        self.generation += 1

    def pages_with_pkey(self, pkey: int) -> list[int]:
        """All mapped VPNs whose PTE carries ``pkey``.

        This is the expensive full-table scan the paper notes the kernel
        *refuses* to do on pkey_free() — provided here so tests and the
        use-after-free demonstration can observe stale keys.
        """
        result = []
        for vpn, entry in self._entries.items():
            self._materialize(vpn, entry)
            if entry.pkey == pkey:
                result.append(vpn)
        return sorted(result)

    def mapped_vpns(self) -> list[int]:
        return sorted(self._entries)

    def _require(self, vpn: int) -> PageTableEntry:
        entry = self._entries.get(vpn)
        if entry is None:
            raise ValueError(f"virtual page {vpn:#x} not mapped")
        return entry
