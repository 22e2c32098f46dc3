"""Page-group metadata: what a virtual protection key names.

A page group is the unit libmpk protects: a contiguous anonymous mapping
created by ``mpk_mmap`` and identified by a developer-chosen *virtual
key*.  The group holds all of libmpk's per-group state: whether it
currently holds a hardware key, its page-level protection in both
cached and evicted states, the usage model that last drove it, its
heap, and which threads have it pinned via ``mpk_begin``.  The §4.3
metadata record is derived from it
(:meth:`~repro.core.metadata.MetadataRegion.kernel_upsert`).
"""

from __future__ import annotations

import typing
from dataclasses import dataclass, field

from repro.consts import PAGE_SIZE

if typing.TYPE_CHECKING:
    from repro.core.heap import GroupHeap


@dataclass
class PageGroup:
    """Metadata for one virtual-key-identified page group.

    Attributes
    ----------
    vkey:
        The developer's virtual key (any non-negative integer; the paper
        expects a hardcoded constant).
    base, length:
        The contiguous region created by ``mpk_mmap``.
    prot:
        The protection the group was created with — the page permission
        it carries while cached for domain-based use (Figure 5 line 8:
        "page permission: rw- & pkey permission: --").
    current_prot:
        The most recent globally requested permission (updated by
        ``mpk_mprotect``); enforced via PKRU while cached, via page bits
        while evicted.
    pkey:
        The hardware key currently backing the group, or ``None`` when
        evicted.
    pinned_by:
        TIDs currently inside an ``mpk_begin``/``mpk_end`` window.  A
        pinned group's key cannot be evicted.
    exec_only:
        The group holds execute-only pages and lives under the reserved
        execute-only key (§4.2's special case).
    page_prot:
        The page permission the PTEs carry, written at every load and
        widened by an ``mpk_mprotect`` hit that adds bits; read only
        while the group holds a key.
    model:
        The usage model that last drove the group: ``"domain"``
        (``mpk_begin``), ``"global"`` (``mpk_mprotect``) or ``None``
        (neither yet, treated as domain).  It decides what an evicted
        group keeps in its page bits.
    heap:
        The ``mpk_malloc`` heap, created by the first allocation.
    """

    vkey: int
    base: int
    length: int
    prot: int
    current_prot: int = 0
    pkey: int | None = None
    pinned_by: set[int] = field(default_factory=set)
    exec_only: bool = False
    page_prot: int = 0
    model: str | None = None
    heap: "GroupHeap | None" = None

    # 32 bytes of metadata per group (§6.2, "Memory overhead").
    METADATA_BYTES = 32

    def __post_init__(self) -> None:
        if self.vkey < 0:
            raise ValueError(f"virtual key must be non-negative: {self.vkey}")
        if self.length <= 0 or self.length % PAGE_SIZE:
            raise ValueError(
                f"group length must be a positive page multiple: {self.length}")
        if not self.current_prot:
            self.current_prot = self.prot
        if not self.page_prot:
            self.page_prot = self.prot

    @property
    def end(self) -> int:
        return self.base + self.length

    @property
    def num_pages(self) -> int:
        return self.length // PAGE_SIZE

    @property
    def cached(self) -> bool:
        return self.pkey is not None

    @property
    def pinned(self) -> bool:
        return bool(self.pinned_by)

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end
