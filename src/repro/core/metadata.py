"""Metadata protection (§4.3): dual-mapped pages + call-site checks.

libmpk's internal metadata — the vkey→pkey mappings and per-group
records — must survive an attacker with an arbitrary-write primitive.
The paper's design maps one physical page at two virtual addresses: a
*read-only* page visible to the application (so userspace lookups stay
cheap) and a writable alias used only by libmpk's kernel component.
Userspace writes to the metadata region therefore fault, which
``tests/security`` demonstrates.

The second defence is load-time verification that every libmpk call
site passes a *hardcoded* virtual key through a *direct* call: virtual
keys never live in corruptible memory.  We model the load-time binary
scan as registration of the application's static vkey constants; API
calls whose vkey is not among them are rejected.
"""

from __future__ import annotations

import struct
import typing

from repro.consts import PAGE_SIZE, PROT_READ
from repro.errors import MpkMetadataTampering

if typing.TYPE_CHECKING:
    from repro.core.groups import PageGroup
    from repro.hw.phys import Frame
    from repro.kernel.kcore import Kernel, Process
    from repro.kernel.task import Task

# Packed per-group record: vkey (u32), pkey (i16, -1 = evicted),
# pinned count (u16), flags (u16, bit 0 = exec-only), pad to 16 bytes
# on the page.  The paper budgets 32 bytes of heap metadata per group
# in addition.
_RECORD = struct.Struct("<IhHHxxxxxx")
RECORD_SIZE = _RECORD.size
assert RECORD_SIZE == 16

# The paper pre-allocates 32 KB for the vkey hashmap, growing once the
# application creates more than ~4,000 groups.
INITIAL_REGION_BYTES = 32 * 1024

# Records per page: region chunks are page-aligned and RECORD_SIZE
# divides PAGE_SIZE, so slot s lives on the region's page
# s // _RECORDS_PER_PAGE and never straddles a page.
_RECORDS_PER_PAGE = PAGE_SIZE // RECORD_SIZE


class MetadataRegion:
    """The dual-mapped metadata area.

    The user-visible mapping is created read-only through the ordinary
    mmap path, so the simulated MMU enforces its immutability; the
    kernel-side writes go straight to the physical frames, modelling the
    kernel's writable alias of the same pages.
    """

    def __init__(self, kernel: "Kernel", process: "Process",
                 task: "Task") -> None:
        self._kernel = kernel
        self._process = process
        self._page_table = process.mm.page_table
        self._capacity_bytes = INITIAL_REGION_BYTES
        self.user_base = kernel.sys_mmap(task, self._capacity_bytes,
                                         PROT_READ)
        # The 32 KB chunks, in slot order (see _expand).
        self._region_list: list[int] = [self.user_base]
        # region page index -> (frame, page-table map_generation): the
        # kernel alias write target, trusted only while no page was
        # mapped or unmapped since (PTE attribute rewrites never move
        # a page to another frame).  One entry per page of the region.
        self._page_frames: dict[int, tuple[Frame, int]] = {}
        self._update_site = kernel.clock.site("libmpk.metadata.update")
        self._slots: dict[int, int] = {}  # vkey -> slot index
        self._free_slots: list[int] = []
        self._next_slot = 0
        self.expansions = 0

    # ------------------------------------------------------------------

    @property
    def capacity_records(self) -> int:
        return self._capacity_bytes // RECORD_SIZE

    @property
    def capacity_bytes(self) -> int:
        return self._capacity_bytes

    def record_count(self) -> int:
        return len(self._slots)

    # ------------------------------------------------------------------
    # Kernel-side (writable alias) operations.
    # ------------------------------------------------------------------

    def kernel_upsert(self, group: "PageGroup") -> None:
        """Write/update ``group``'s record via the kernel alias, in
        place while the page's cached frame is still current.  The
        record is derived from the group alone: its vkey, pkey, pin
        count and exec-only flag."""
        vkey = group.vkey
        slot = self._slots.get(vkey)
        if slot is None:
            slot = self._take_slot(vkey)
        pkey = group.pkey
        data = _RECORD.pack(vkey, -1 if pkey is None else pkey,
                            len(group.pinned_by),
                            1 if group.exec_only else 0)
        cached = self._page_frames.get(slot // _RECORDS_PER_PAGE)
        if (cached is not None
                and cached[1] == self._page_table.map_generation):
            # _frame_write materialized the frame's bytes, and only an
            # unmap (which moves the stamp) frees the frame.
            offset = slot % _RECORDS_PER_PAGE * RECORD_SIZE
            cached[0]._data[offset:offset + RECORD_SIZE] = data
        else:
            self._frame_write(slot, data)
        self._update_site.charge(self._kernel.costs.mpk_metadata_op)

    def kernel_remove(self, vkey: int) -> None:
        slot = self._slots.pop(vkey, None)
        if slot is None:
            return
        self._frame_write(slot, b"\x00" * RECORD_SIZE)
        self._free_slots.append(slot)
        self._kernel.clock.charge(self._kernel.costs.mpk_metadata_op,
                                  site="libmpk.metadata.remove")

    def _take_slot(self, vkey: int) -> int:
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            if self._next_slot >= self.capacity_records:
                self._expand()
            slot = self._next_slot
            self._next_slot += 1
        self._slots[vkey] = slot
        return slot

    def _expand(self) -> None:
        """Grow the region by another 32 KB chunk (the paper's "size will
        automatically expand" once ~4,000 groups exist).

        Each chunk is an independent read-only mapping; slot addressing
        treats the region list as a flat array of 32 KB chunks, so the
        chunks need not be virtually adjacent.
        """
        running = [t for t in self._process.live_tasks() if t.running]
        if not running:
            raise RuntimeError(
                "metadata expansion requires a running task")
        extra = self._kernel.sys_mmap(running[0], INITIAL_REGION_BYTES,
                                      PROT_READ)
        self._region_list.append(extra)
        self._capacity_bytes += INITIAL_REGION_BYTES
        self.expansions += 1

    def _slot_addr(self, byte_offset: int) -> tuple[int, int]:
        region_idx, offset = divmod(byte_offset, INITIAL_REGION_BYTES)
        return self._region_list[region_idx], offset

    def _frame_write(self, slot: int, data: bytes) -> None:
        """Write one whole record into ``slot`` through the kernel
        alias: straight into the physical frame, resolved through the
        page table and cached for :meth:`kernel_upsert`'s in-place
        writes, which trust it until a map or unmap.
        Records never straddle a page, so no range check is needed."""
        page_table = self._page_table
        base, offset = self._slot_addr(slot * RECORD_SIZE)
        frame = page_table.lookup((base + offset) // PAGE_SIZE).frame
        # Stamped after the lookup: a demand fault bumps it.
        self._page_frames[slot // _RECORDS_PER_PAGE] = (
            frame, page_table.map_generation)
        offset = slot % _RECORDS_PER_PAGE * RECORD_SIZE
        fdata = frame._data
        if fdata is None:
            frame._data = fdata = bytearray(PAGE_SIZE)
        fdata[offset:offset + RECORD_SIZE] = data

    def kernel_read_record(
            self, vkey: int) -> tuple[int, int | None, int, int] | None:
        """Read ``vkey``'s record through the kernel alias.

        Charge-free and MMU-free (the auditor must be able to inspect
        state without perturbing the clock it is auditing).  Returns
        (vkey, pkey-or-None, pinned, flags) or None when no slot exists.
        """
        slot = self._slots.get(vkey)
        if slot is None:
            return None
        base, offset = self._slot_addr(slot * RECORD_SIZE)
        addr = base + offset
        entry = self._process.page_table.lookup_populated(addr // PAGE_SIZE)
        if entry is None:
            return None  # slot taken but record never written
        raw = entry.frame.read(addr % PAGE_SIZE, RECORD_SIZE)
        rvkey, pkey, pinned, flags = _RECORD.unpack(raw)
        return rvkey, (None if pkey == -1 else pkey), pinned, flags

    def slotted_vkeys(self) -> list[int]:
        """Every vkey holding a metadata slot (audit use)."""
        return list(self._slots)

    # ------------------------------------------------------------------
    # User-side (read-only mapping) operations.
    # ------------------------------------------------------------------

    def user_read_record(self, task: "Task",
                         vkey: int) -> tuple[int, int | None, int, int] | None:
        """Read ``vkey``'s record through the read-only user mapping.

        Returns (vkey, pkey-or-None, pinned, flags) or None.  Goes
        through the MMU, so it faults if the mapping were ever writable
        state-tampered — and a *write* through this path always faults.
        """
        slot = self._slots.get(vkey)
        if slot is None:
            return None
        base, offset = self._slot_addr(slot * RECORD_SIZE)
        raw = task.read(base + offset, RECORD_SIZE)
        rvkey, pkey, pinned, flags = _RECORD.unpack(raw)
        return rvkey, (None if pkey == -1 else pkey), pinned, flags

    def record_user_addr(self, vkey: int) -> int | None:
        """User-space address of ``vkey``'s record (for attack PoCs)."""
        slot = self._slots.get(vkey)
        if slot is None:
            return None
        base, offset = self._slot_addr(slot * RECORD_SIZE)
        return base + offset


class CallSiteRegistry:
    """Load-time verification of hardcoded virtual keys (§4.3).

    ``register`` models the loader scanning the binary for libmpk call
    sites and recording the immediate vkey operands; ``verify`` models
    the per-invocation check that the caller passed one of them.
    """

    def __init__(self, static_vkeys: typing.Iterable[int] | None) -> None:
        # The hardcoded vkeys, None when unchecked (public: read inline).
        self.static: frozenset[int] | None = (
            None if static_vkeys is None else frozenset(static_vkeys))

    def verify(self, vkey: int) -> None:
        if self.static is not None and vkey not in self.static:
            raise MpkMetadataTampering(
                f"vkey {vkey} is not a hardcoded constant of this binary "
                "(possible protection-key corruption)")
