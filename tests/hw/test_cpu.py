"""Core behaviour: PKRU instructions, serialization, the MMU check."""

import pytest

from repro.consts import (
    PAGE_SIZE,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
)
from repro.errors import (
    GeneralProtectionFault,
    PkeyFault,
    SegmentationFault,
)
from repro.hw.cpu import Core, READ, WRITE
from repro.hw.cycles import Clock, DEFAULT_COST_MODEL
from repro.hw.machine import Machine
from repro.hw.paging import PageTable
from repro.hw.pkru import KEY_RIGHTS_NONE, KEY_RIGHTS_READ, PKRU


@pytest.fixture
def core():
    clock = Clock()
    return Core(0, clock, DEFAULT_COST_MODEL)


@pytest.fixture
def memory_setup():
    """A page table with one rw page (pkey 3) and one exec page (pkey 0)."""
    machine = Machine(num_cores=1)
    pt = PageTable()
    pt.map(0x10, machine.memory.alloc_frame(), PROT_READ | PROT_WRITE,
           pkey=3)
    pt.map(0x20, machine.memory.alloc_frame(), PROT_READ | PROT_EXEC)
    return machine.core(0), pt


class TestPkruInstructions:
    def test_wrpkru_updates_register(self, core):
        core.wrpkru(0xDEAD_BEEF & 0xFFFF_FFFF)
        assert core.pkru == 0xDEADBEEF

    def test_wrpkru_requires_zero_ecx_edx(self, core):
        with pytest.raises(GeneralProtectionFault):
            core.wrpkru(0, ecx=1)
        with pytest.raises(GeneralProtectionFault):
            core.wrpkru(0, edx=2)

    def test_rdpkru_requires_zero_ecx(self, core):
        with pytest.raises(GeneralProtectionFault):
            core.rdpkru(ecx=7)

    def test_rdpkru_returns_current_value(self, core):
        core.wrpkru(0x1234)
        core.reset_pipeline()
        assert core.rdpkru() == 0x1234

    def test_wrpkru_costs_23_3_cycles(self, core):
        before = core.clock.now
        core.wrpkru(0)
        assert core.clock.now - before == pytest.approx(23.3)

    def test_rdpkru_costs_half_cycle(self, core):
        before = core.clock.now
        assert core.rdpkru() is not None
        assert core.clock.now - before == pytest.approx(0.5)


class TestSerialization:
    """Figure 2: ADDs after WRPKRU (W2) are slower than before (W1)."""

    def _w1(self, n):
        """n ADDs, then WRPKRU."""
        core = Core(0, Clock(), DEFAULT_COST_MODEL)
        core.execute_adds(n)
        core.wrpkru(0)
        return core.clock.now

    def _w2(self, n):
        """WRPKRU, then n ADDs."""
        core = Core(0, Clock(), DEFAULT_COST_MODEL)
        core.wrpkru(0)
        core.execute_adds(n)
        return core.clock.now

    @pytest.mark.parametrize("n", [1, 4, 8, 16, 32, 64])
    def test_w2_always_slower_than_w1(self, n):
        assert self._w2(n) > self._w1(n)

    def test_gap_saturates_beyond_the_window(self):
        window = DEFAULT_COST_MODEL.serialization_window
        gap_at_window = self._w2(window) - self._w1(window)
        gap_beyond = self._w2(window * 4) - self._w1(window * 4)
        assert gap_beyond == pytest.approx(gap_at_window)

    def test_adds_alone_use_full_issue_width(self):
        core = Core(0, Clock(), DEFAULT_COST_MODEL)
        core.execute_adds(100)
        assert core.clock.now == pytest.approx(
            100 * DEFAULT_COST_MODEL.add_throughput)

    def test_reset_pipeline_clears_shadow(self):
        core = Core(0, Clock(), DEFAULT_COST_MODEL)
        core.wrpkru(0)
        core.reset_pipeline()
        before = core.clock.now
        core.execute_adds(4)
        assert core.clock.now - before == pytest.approx(1.0)


class TestMmuCheck:
    def test_read_write_allowed_with_rights(self, memory_setup):
        core, pt = memory_setup
        core.load_pkru(PKRU.allow_all().value)
        core.write(pt, 0x10000, b"data")
        assert core.read(pt, 0x10000, 4) == b"data"

    def test_unmapped_address_segfaults(self, memory_setup):
        core, pt = memory_setup
        with pytest.raises(SegmentationFault):
            core.read(pt, 0x99000, 1)

    def test_page_permission_checked_first(self, memory_setup):
        core, pt = memory_setup
        core.load_pkru(PKRU.allow_all().value)
        pt.update_range(0x10, 0x11, PROT_READ)
        with pytest.raises(SegmentationFault) as exc_info:
            core.write(pt, 0x10000, b"x")
        assert not isinstance(exc_info.value, PkeyFault)

    def test_pkey_denies_read(self, memory_setup):
        core, pt = memory_setup
        core.load_pkru(PKRU.allow_all().with_rights(3, KEY_RIGHTS_NONE).value)
        with pytest.raises(PkeyFault) as exc_info:
            core.read(pt, 0x10000, 1)
        assert exc_info.value.pkey == 3

    def test_pkey_read_only_denies_write(self, memory_setup):
        core, pt = memory_setup
        core.load_pkru(PKRU.allow_all().with_rights(3, KEY_RIGHTS_READ).value)
        assert core.read(pt, 0x10000, 1) == b"\x00"
        with pytest.raises(PkeyFault):
            core.write(pt, 0x10000, b"x")

    def test_effective_permission_is_intersection(self, memory_setup):
        """Figure 1: page says rw, PKRU says read-only -> read-only."""
        core, pt = memory_setup
        core.load_pkru(PKRU.allow_all().with_rights(3, KEY_RIGHTS_READ).value)
        core.read(pt, 0x10000, 1)
        with pytest.raises(PkeyFault):
            core.write(pt, 0x10000, b"y")

    def test_instruction_fetch_ignores_pkru(self, memory_setup):
        """Figure 1: ifetch is independent of the PKRU -> execute-only
        memory is possible."""
        core, pt = memory_setup
        pt.update_range(0x20, 0x21, PROT_READ | PROT_EXEC, pkey=3)
        core.load_pkru(PKRU.allow_all().with_rights(3, KEY_RIGHTS_NONE).value)
        # Data read denied by pkey...
        with pytest.raises(PkeyFault):
            core.read(pt, 0x20000, 1)
        # ...but instruction fetch succeeds.
        assert core.fetch(pt, 0x20000, 4) == b"\x00" * 4

    def test_fetch_from_non_executable_page_faults(self, memory_setup):
        core, pt = memory_setup
        core.load_pkru(PKRU.allow_all().value)
        with pytest.raises(SegmentationFault):
            core.fetch(pt, 0x10000, 1)

    def test_access_crossing_pages_checks_both(self, memory_setup):
        core, pt = memory_setup
        core.load_pkru(PKRU.allow_all().value)
        addr = 0x10000 + PAGE_SIZE - 2
        with pytest.raises(SegmentationFault):
            core.read(pt, addr, 8)  # crosses into unmapped 0x11

    def test_write_spanning_two_pages(self):
        machine = Machine(num_cores=1)
        pt = PageTable()
        pt.map(0x10, machine.memory.alloc_frame(), PROT_READ | PROT_WRITE)
        pt.map(0x11, machine.memory.alloc_frame(), PROT_READ | PROT_WRITE)
        core = machine.core(0)
        core.load_pkru(PKRU.allow_all().value)
        addr = 0x10000 + PAGE_SIZE - 3
        core.write(pt, addr, b"abcdef")
        assert core.read(pt, addr, 6) == b"abcdef"

    def test_bad_access_kind_rejected(self, memory_setup):
        core, pt = memory_setup
        with pytest.raises(ValueError):
            core.check_access(pt, 0x10000, "poke")


class TestTlbIntegration:
    def test_first_access_misses_then_hits(self, memory_setup):
        core, pt = memory_setup
        core.load_pkru(PKRU.allow_all().value)
        core.read(pt, 0x10000, 1)
        assert core.tlb.stats.misses == 1
        core.read(pt, 0x10000, 1)
        assert core.tlb.stats.hits == 1

    def test_tlb_miss_charges_page_walk(self, memory_setup):
        core, pt = memory_setup
        core.load_pkru(PKRU.allow_all().value)
        t0 = core.clock.now
        core.read(pt, 0x10000, 1)
        cold = core.clock.now - t0
        t1 = core.clock.now
        core.read(pt, 0x10000, 1)
        warm = core.clock.now - t1
        assert cold - warm == pytest.approx(DEFAULT_COST_MODEL.tlb_miss_walk)

    def test_pkey_check_uses_current_pkru_not_tlb_time_pkru(self,
                                                            memory_setup):
        """PKRU is consulted at access time: no TLB flush needed after a
        WRPKRU — the paper's core performance claim."""
        core, pt = memory_setup
        core.load_pkru(PKRU.allow_all().value)
        core.read(pt, 0x10000, 1)  # TLB now warm with pkey=3
        core.load_pkru(PKRU.allow_all().with_rights(3, KEY_RIGHTS_NONE).value)
        with pytest.raises(PkeyFault):
            core.read(pt, 0x10000, 1)
        assert core.tlb.stats.full_flushes == 0
