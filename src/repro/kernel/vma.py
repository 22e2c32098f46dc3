"""Virtual memory areas and the per-process VMA tree.

Linux tracks each process's mappings as an rb-tree of VMAs; ``mprotect``
must find every VMA overlapping the target range, split VMAs that the
range only partially covers, update the protection, and merge adjacent
VMAs that end up identical.  The number of VMAs visited — one for a
contiguous ``mmap``, one *per page* for pages mapped by separate
``mmap`` calls — is what makes sparse ``mprotect`` so much more
expensive in Figure 3.

The tree here is a sorted list with bisect lookups; the kernel layer
charges rb-tree costs per operation, so the asymptotics of the *cost
model* follow the paper even though the host data structure is a list.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

from repro.consts import DEFAULT_PKEY, PAGE_SIZE


@dataclass
class VMA:
    """One virtual memory area: ``[start, end)``, page-aligned.

    ``pte_prot`` overrides the bits written to PTEs when they must
    differ from the user-visible protection — the execute-only case,
    where ``prot`` is PROT_EXEC but the PTEs carry readable+executable
    gated by a protection key.  ``None`` means PTEs mirror ``prot``.
    """

    start: int
    end: int
    prot: int
    pkey: int = DEFAULT_PKEY
    flags: int = 0
    pte_prot: int | None = None
    #: Backing shared object (repro.kernel.shm.SharedObject) or None
    #: for private anonymous memory.
    shared_object: object | None = None
    #: Page offset into the shared object where this VMA begins
    #: (maintained across splits).
    shared_offset_pages: int = 0

    def __post_init__(self) -> None:
        if self.start % PAGE_SIZE or self.end % PAGE_SIZE:
            raise ValueError(
                f"VMA bounds not page-aligned: [{self.start:#x}, {self.end:#x})")
        if self.start >= self.end:
            raise ValueError(
                f"empty or inverted VMA: [{self.start:#x}, {self.end:#x})")

    @property
    def effective_pte_prot(self) -> int:
        return self.prot if self.pte_prot is None else self.pte_prot

    @property
    def num_pages(self) -> int:
        return (self.end - self.start) // PAGE_SIZE

    def contains(self, addr: int) -> bool:
        return self.start <= addr < self.end

    def overlaps(self, start: int, end: int) -> bool:
        return self.start < end and start < self.end

    def can_merge_with(self, other: "VMA") -> bool:
        """Adjacent VMAs merge when all attributes match (Linux rules,
        simplified to the attributes we model)."""
        return (self.end == other.start
                and self.prot == other.prot
                and self.pkey == other.pkey
                and self.flags == other.flags
                and self.pte_prot == other.pte_prot
                and self.shared_object is other.shared_object
                and (self.shared_object is None
                     or self.shared_offset_pages + self.num_pages
                     == other.shared_offset_pages))


class VmaTree:
    """Ordered, non-overlapping collection of VMAs for one process.

    ``version`` counts structural changes: every insert, remove, split
    and merge bumps it.  Callers caching a ``find``/``find_range``
    result (the mprotect fast path in :class:`repro.kernel.mm.MM`)
    validate the cached VMA by comparing versions; any mmap, munmap,
    split, or merge anywhere in the tree invalidates them all.

    Splits and merges edit the sorted lists in place at the bisected
    index: the left piece of a split, and the left partner of a merge,
    is the original VMA object with its bounds changed.
    """

    def __init__(self) -> None:
        self._starts: list[int] = []
        self._vmas: list[VMA] = []
        self.version = 0

    def __len__(self) -> int:
        return len(self._vmas)

    def __iter__(self):
        return iter(list(self._vmas))

    def insert(self, vma: VMA) -> None:
        """Insert a VMA; it must not overlap any existing one."""
        idx = bisect.bisect_left(self._starts, vma.start)
        neighbors = self._vmas[max(0, idx - 1):idx + 1]
        for other in neighbors:
            if other.overlaps(vma.start, vma.end):
                raise ValueError(
                    f"VMA [{vma.start:#x},{vma.end:#x}) overlaps "
                    f"[{other.start:#x},{other.end:#x})")
        self._starts.insert(idx, vma.start)
        self._vmas.insert(idx, vma)
        self.version += 1

    def _index(self, vma: VMA) -> int:
        idx = bisect.bisect_left(self._starts, vma.start)
        if idx >= len(self._vmas) or self._vmas[idx] is not vma:
            raise ValueError(f"VMA [{vma.start:#x},{vma.end:#x}) not in tree")
        return idx

    def remove(self, vma: VMA) -> None:
        idx = self._index(vma)
        del self._starts[idx]
        del self._vmas[idx]
        self.version += 1

    def find(self, addr: int) -> VMA | None:
        """The VMA containing ``addr``, if any."""
        idx = bisect.bisect_right(self._starts, addr) - 1
        if idx >= 0 and self._vmas[idx].contains(addr):
            return self._vmas[idx]
        return None

    def find_range(self, start: int, end: int) -> list[VMA]:
        """All VMAs overlapping ``[start, end)``, in address order."""
        vmas = self._vmas
        idx = max(0, bisect.bisect_right(self._starts, start) - 1)
        last = len(vmas)
        result = []
        while idx < last:
            vma = vmas[idx]
            if vma.start >= end:
                break
            if start < vma.end:
                result.append(vma)
            idx += 1
        return result

    def split(self, vma: VMA, addr: int) -> tuple[VMA, VMA]:
        """Split ``vma`` at ``addr`` (page-aligned, strictly inside).
        ``vma`` itself becomes the left piece."""
        if not vma.start < addr < vma.end:
            raise ValueError(
                f"split point {addr:#x} outside ({vma.start:#x},{vma.end:#x})")
        if addr % PAGE_SIZE:
            raise ValueError(f"split point not page-aligned: {addr:#x}")
        idx = self._index(vma)
        right = VMA(addr, vma.end, vma.prot, vma.pkey, vma.flags,
                    vma.pte_prot, vma.shared_object,
                    vma.shared_offset_pages
                    + (addr - vma.start) // PAGE_SIZE)
        vma.end = addr
        self._starts.insert(idx + 1, addr)
        self._vmas.insert(idx + 1, right)
        self.version += 1
        return vma, right

    def merge_around(self, start: int, end: int) -> int:
        """Merge mergeable neighbors in/adjacent to ``[start, end)``.

        Returns the number of merges performed (for cost accounting).
        """
        starts = self._starts
        vmas = self._vmas
        # The VMAs overlapping [start - PAGE_SIZE, end + PAGE_SIZE) are
        # vmas[idx:stop]; a VMA before them that ends short of the
        # window is never adjacent to the next one, so never merges.
        idx = max(0, bisect.bisect_right(starts, start - PAGE_SIZE) - 1)
        stop = bisect.bisect_left(starts, end + PAGE_SIZE)
        merges = 0
        while idx + 1 < stop:
            left = vmas[idx]
            right = vmas[idx + 1]
            if left.can_merge_with(right):
                left.end = right.end
                del starts[idx + 1]
                del vmas[idx + 1]
                stop -= 1
                merges += 1
            else:
                idx += 1
        if merges:
            self.version += 1
        return merges

    def gap_after(self, min_addr: int, length: int) -> int:
        """First free, page-aligned gap of ``length`` bytes at or above
        ``min_addr`` (simple first-fit used by mmap address selection)."""
        candidate = min_addr
        for vma in self._vmas:
            if vma.end <= candidate:
                continue
            if vma.start >= candidate + length:
                break
            candidate = vma.end
        return candidate
