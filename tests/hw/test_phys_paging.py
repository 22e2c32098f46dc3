"""Physical frames and page-table entries (including the pkey field)."""

import pytest

from repro.consts import DEFAULT_PKEY, PAGE_SIZE, PROT_READ, PROT_WRITE
from repro.errors import OutOfMemory
from repro.hw.paging import PageTable
from repro.hw.phys import Frame, PhysicalMemory


class TestFrame:
    def test_reads_zero_before_any_write(self):
        frame = Frame(0)
        assert frame.read(0, 16) == b"\x00" * 16

    def test_write_then_read(self):
        frame = Frame(0)
        frame.write(100, b"hello")
        assert frame.read(100, 5) == b"hello"
        assert frame.read(99, 1) == b"\x00"

    def test_zero_scrubs_contents(self):
        frame = Frame(0)
        frame.write(0, b"secret")
        frame.zero()
        assert frame.read(0, 6) == b"\x00" * 6

    def test_out_of_range_access_rejected(self):
        frame = Frame(0)
        with pytest.raises(ValueError):
            frame.read(PAGE_SIZE - 2, 4)
        with pytest.raises(ValueError):
            frame.write(PAGE_SIZE, b"x")
        with pytest.raises(ValueError):
            frame.read(-1, 1)


class TestPhysicalMemory:
    def test_alloc_returns_distinct_frames(self):
        mem = PhysicalMemory(total_frames=4)
        frames = [mem.alloc_frame() for _ in range(4)]
        assert len({f.number for f in frames}) == 4

    def test_exhaustion_raises_enomem(self):
        mem = PhysicalMemory(total_frames=2)
        mem.alloc_frame()
        mem.alloc_frame()
        with pytest.raises(OutOfMemory):
            mem.alloc_frame()

    def test_freed_frames_are_reusable_and_scrubbed(self):
        mem = PhysicalMemory(total_frames=1)
        frame = mem.alloc_frame()
        frame.write(0, b"old secret")
        mem.free_frame(frame)
        again = mem.alloc_frame()
        assert again.read(0, 10) == b"\x00" * 10

    def test_double_free_rejected(self):
        mem = PhysicalMemory(total_frames=2)
        frame = mem.alloc_frame()
        mem.free_frame(frame)
        with pytest.raises(ValueError):
            mem.free_frame(frame)

    def test_lazy_frames_do_not_materialize_bytes(self):
        # A huge allocation of untouched frames must be cheap.
        mem = PhysicalMemory(total_frames=1 << 20)
        frames = [mem.alloc_frame() for _ in range(1000)]
        assert all(f._data is None for f in frames)


class TestPageTable:
    def _frame(self):
        return PhysicalMemory(16).alloc_frame()

    def test_map_and_lookup(self):
        pt = PageTable()
        frame = self._frame()
        pt.map(0x1000 >> 12, frame, PROT_READ | PROT_WRITE)
        entry = pt.lookup(0x1000 >> 12)
        assert entry.frame is frame
        assert entry.readable and entry.writable and not entry.executable
        assert entry.pkey == DEFAULT_PKEY

    def test_double_map_rejected(self):
        pt = PageTable()
        pt.map(1, self._frame(), PROT_READ)
        with pytest.raises(ValueError):
            pt.map(1, self._frame(), PROT_READ)

    def test_unmap_returns_entry(self):
        pt = PageTable()
        frame = self._frame()
        pt.map(2, frame, PROT_READ)
        assert pt.unmap(2).frame is frame
        assert pt.lookup(2) is None
        with pytest.raises(ValueError):
            pt.unmap(2)

    def test_pkey_field_bounds(self):
        pt = PageTable()
        pt.map(3, self._frame(), PROT_READ, pkey=15)
        assert pt.lookup(3).pkey == 15
        with pytest.raises(ValueError):
            pt.map(4, self._frame(), PROT_READ, pkey=16)
        with pytest.raises(ValueError):
            pt.update_range(3, 4, PROT_READ, pkey=-1)

    def test_pages_with_pkey_finds_stale_keys(self):
        """The scan pkey_free() refuses to do — used by the
        use-after-free demonstration."""
        pt = PageTable()
        for vpn in (10, 11, 30):
            pt.map(vpn, self._frame(), PROT_READ, pkey=5)
        pt.map(20, self._frame(), PROT_READ, pkey=6)
        assert pt.pages_with_pkey(5) == [10, 11, 30]

    def test_generation_bumps_on_changes(self):
        """The TLB stamp moves on unmap and on nothing else; the map
        generation moves on map and unmap."""
        pt = PageTable()
        gen0 = pt.generation
        pt.map(1, self._frame(), PROT_READ)
        pt.map(2, self._frame(), PROT_READ)
        pt.update_range(1, 2, PROT_WRITE)
        pt.update_range(1, 2, PROT_WRITE, pkey=3)
        pt.update_range(1, 3, PROT_READ, pkey=2)
        assert pt.generation == gen0
        assert pt.map_generation == 2
        pt.unmap(1)
        gen1 = pt.generation
        pt.unmap(2)
        gen2 = pt.generation
        assert gen0 < gen1 < gen2
        assert pt.map_generation == 4
