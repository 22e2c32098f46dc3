"""The MMU hot path: authoritative TLB hits, generation-stamp
invalidation, and the batched transfer's exact charges."""

import pytest

from repro.consts import PAGE_SIZE, PROT_READ, PROT_WRITE
from repro.errors import InjectedFault, PkeyFault, SegmentationFault
from repro.faults.inject import FaultInjector
from repro.hw.machine import Machine
from repro.hw.paging import PageTable
from repro.hw.pkru import KEY_RIGHTS_NONE, PKRU

RW = PROT_READ | PROT_WRITE


def make_core_and_table(pages=4):
    machine = Machine(num_cores=1)
    pt = PageTable()
    for i in range(pages):
        pt.map(0x10 + i, machine.memory.alloc_frame(), RW, pkey=3)
    core = machine.core(0)
    core.load_pkru(PKRU.allow_all().value)
    return machine, core, pt


class CountingPageTable(PageTable):
    """PageTable that counts every lookup (fault-handler path included)."""

    def __init__(self):
        super().__init__()
        self.lookups = 0

    def lookup(self, vpn):
        self.lookups += 1
        return super().lookup(vpn)


class TestAuthoritativeHits:
    def test_warm_hit_skips_page_table_lookup(self):
        machine = Machine(num_cores=1)
        pt = CountingPageTable()
        pt.map(0x10, machine.memory.alloc_frame(), RW, pkey=3)
        core = machine.core(0)
        core.load_pkru(PKRU.allow_all().value)
        core.read(pt, 0x10000, 1)           # cold: walk + fill
        walked = pt.lookups
        assert walked == 1
        for _ in range(10):
            core.read(pt, 0x10000, 1)       # warm: TLB-authoritative
        assert pt.lookups == walked
        assert core.tlb.stats.hits == 10

    def test_slow_path_validates_every_access(self):
        """An unmap before every access leaves no hit authoritative:
        each one consults the page table once."""
        machine = Machine(num_cores=1)
        pt = CountingPageTable()
        pt.map(0x10, machine.memory.alloc_frame(), RW, pkey=3)
        for i in range(5):
            pt.map(0x30 + i, machine.memory.alloc_frame(), RW)
        core = machine.core(0)
        core.load_pkru(PKRU.allow_all().value)
        for i in range(5):
            pt.unmap(0x30 + i)                  # bump
            core.read(pt, 0x10000, 1)
        assert pt.lookups == 5
        assert core.tlb.stats.misses == 1
        assert core.tlb.stats.hits == 4

    def test_generation_bump_demotes_hit_to_validation(self):
        machine = Machine(num_cores=1)
        pt = CountingPageTable()
        pt.map(0x10, machine.memory.alloc_frame(), RW, pkey=3)
        pt.map(0x30, machine.memory.alloc_frame(), RW)
        core = machine.core(0)
        core.load_pkru(PKRU.allow_all().value)
        core.read(pt, 0x10000, 1)
        baseline = pt.lookups
        pt.unmap(0x30)                      # bumps generation
        core.read(pt, 0x10000, 1)           # stale stamp -> validates
        assert pt.lookups == baseline + 1
        core.read(pt, 0x10000, 1)           # re-stamped -> authoritative
        assert pt.lookups == baseline + 1

    def test_map_and_attribute_rewrites_keep_hits_authoritative(self):
        """Only unmap moves the stamp: mapping another page (demand
        paging) and rewriting this page's attributes, alone or in a
        range, leave the cached translation authoritative."""
        machine = Machine(num_cores=1)
        pt = CountingPageTable()
        pt.map(0x10, machine.memory.alloc_frame(), RW, pkey=3)
        core = machine.core(0)
        core.load_pkru(PKRU.allow_all().value)
        core.read(pt, 0x10000, 1)
        baseline = pt.lookups
        edits = [
            lambda: pt.map(0x30, machine.memory.alloc_frame(), RW),
            lambda: pt.update_range(0x10, 0x11, PROT_READ),
            lambda: pt.update_range(0x10, 0x11, PROT_READ, pkey=5),
            lambda: pt.update_range(0x10, 0x31, RW, pkey=4),
        ]
        for edit in edits:
            edit()
            core.read(pt, 0x10000, 1)       # authoritative: no lookup
            assert pt.lookups == baseline
        assert core.tlb.stats.hits == len(edits)

    def test_stale_permissions_served_until_shootdown(self):
        """The MMU preserves TLB-stale semantics: a prot change
        without a TLB flush keeps serving the cached bits."""
        machine, core, pt = make_core_and_table()
        core.write(pt, 0x10000, b"x")   # TLB caches prot=RW
        pt.update_range(0x10, 0x11, PROT_READ)  # no shootdown
        core.write(pt, 0x10000, b"y")   # stale RW still honored
        core.tlb.flush()
        with pytest.raises(SegmentationFault):
            core.write(pt, 0x10000, b"z")

    def test_unmap_without_shootdown_faults_on_access(self):
        machine, core, pt = make_core_and_table()
        core.read(pt, 0x10000, 1)
        pt.unmap(0x10)
        with pytest.raises(SegmentationFault) as exc_info:
            core.read(pt, 0x10000, 1)
        assert exc_info.value.unmapped
        assert core.tlb.stats.stale_hits == 1

    def test_cross_table_hit_never_authoritative(self):
        """A TLB entry from another address space must not serve its
        frame just because the generation numbers coincide."""
        machine = Machine(num_cores=1)
        core = machine.core(0)
        core.load_pkru(PKRU.allow_all().value)
        pt_a, pt_b = PageTable(), PageTable()
        frame_a = machine.memory.alloc_frame()
        frame_b = machine.memory.alloc_frame()
        pt_a.map(0x10, frame_a, RW)
        pt_b.map(0x10, frame_b, RW)
        assert pt_a.generation == pt_b.generation
        core.write(pt_a, 0x10000, b"A")
        core.write(pt_b, 0x10000, b"B")
        assert core.read(pt_a, 0x10000, 1) == b"A"
        assert core.read(pt_b, 0x10000, 1) == b"B"


class TestBatchedTransfer:
    def test_multi_page_read_round_trips(self):
        machine, core, pt = make_core_and_table(pages=4)
        data = bytes(range(256)) * (4 * PAGE_SIZE // 256)
        core.write(pt, 0x10000, data)
        assert core.read(pt, 0x10000, len(data)) == data

    def test_fast_and_slow_paths_charge_identical_cycles(self):
        """The batched transfer charges exactly the cost model's
        per-page ledger: one walk per first touch, one mem_access per
        page touched, and nothing else."""
        machine, core, pt = make_core_and_table(pages=4)
        costs = machine.costs
        data = b"\xab" * (3 * PAGE_SIZE + 100)
        core.write(pt, 0x10000, data)               # 4 pages, 4 walks
        core.read(pt, 0x10000, len(data))           # 4 pages, all hits
        core.read(pt, 0x10000 + 7, 2 * PAGE_SIZE)   # 3 pages, all hits
        walks, accesses = 4, 4 + 4 + 3
        cycles = machine.obs.aggregator.cycles
        assert cycles["hw.tlb.walk"] == walks * costs.tlb_miss_walk
        assert cycles["hw.mem.access"] == accesses * costs.mem_access
        assert cycles.get("hw.tlb.hit", 0.0) == \
            (accesses - walks) * costs.tlb_hit
        assert machine.clock.now == (walks * costs.tlb_miss_walk
                                     + accesses * costs.mem_access
                                     + (accesses - walks) * costs.tlb_hit)
        assert core.data_accesses == accesses

    def test_partial_write_before_faulting_page_persists(self):
        machine, core, pt = make_core_and_table(pages=2)
        addr = 0x11000 + PAGE_SIZE - 4
        with pytest.raises(SegmentationFault):
            # Crosses from mapped 0x11 into unmapped 0x12.
            core.write(pt, addr, b"12345678")
        # The bytes that landed on the mapped page stay written.
        assert core.read(pt, addr, 4) == b"1234"

    def test_unmapped_fault_charges_only_prior_pages(self):
        """Fault ordering: an unmapped fault at page k leaves exactly
        k-1 mem_access charges."""
        machine, core, pt = make_core_and_table(pages=2)
        with pytest.raises(SegmentationFault):
            core.read(pt, 0x10000, 3 * PAGE_SIZE)  # 0x12 unmapped
        assert machine.obs.aggregator.cycles.get(
            "hw.mem.access", 0.0) == pytest.approx(
                2 * machine.costs.mem_access)
        assert core.data_accesses == 2

    def test_perm_fault_charges_faulting_page_too(self):
        machine, core, pt = make_core_and_table(pages=2)
        core.load_pkru(PKRU.allow_all().with_rights(3, KEY_RIGHTS_NONE).value)
        with pytest.raises(PkeyFault):
            core.read(pt, 0x10000, 1)
        assert machine.obs.aggregator.cycles.get(
            "hw.mem.access") == pytest.approx(machine.costs.mem_access)
        assert core.data_accesses == 1

    @pytest.mark.parametrize("tlb_state, site", [
        ("miss", "hw.tlb.walk"), ("miss", "hw.mem.access"),
        ("stale", "hw.tlb.hit"), ("stale", "hw.mem.access"),
        ("authoritative", "hw.tlb.hit"),
        ("authoritative", "hw.mem.access")])
    def test_one_page_write_charges_before_it_copies(self, tlb_state, site):
        """A one-page write pays its charges before its bytes land,
        whatever the TLB holds: a fault injected at any of them leaves
        the page as it was."""
        machine, core, pt = make_core_and_table(pages=2)
        if tlb_state != "miss":
            core.read(pt, 0x10000, 1)       # fill the TLB entry
        if tlb_state == "stale":
            pt.unmap(0x11)                  # moves the stamp
        injector = FaultInjector()
        machine.obs.add_sink(injector)
        injector.arm(site, occurrence=1)
        with pytest.raises(InjectedFault):
            core.write(pt, 0x10008, b"new!")
        assert pt.lookup(0x10).frame.read(0, PAGE_SIZE) == bytes(PAGE_SIZE)

    def test_counter_conservation_invariant_audited(self):
        machine, core, pt = make_core_and_table()
        core.read(pt, 0x10000, 2 * PAGE_SIZE)
        core.read(pt, 0x10000, 1)
        ok, _ = machine.obs.audit()
        assert ok
        assert machine.obs.invariant_failures() == {}
        # Corrupt a counter: the registered invariant must trip.
        core.data_accesses += 1
        assert not machine.obs.audit()[0]
        failures = machine.obs.invariant_failures()
        assert "mmu_counter_conservation" in failures

    def test_unmapped_probe_not_counted_as_walk_miss(self):
        # Regression (stats-drift bugfix): an access that faults
        # unmapped must not count a TLB miss — no walk was charged, so
        # misses would diverge from walks and the conservation audit
        # (hits + misses == accesses) would break.
        machine, core, pt = make_core_and_table()
        with pytest.raises(SegmentationFault):
            core.read(pt, 0x99000, 1)
        assert core.tlb.stats.misses == 0
        assert core.tlb.stats.unmapped_misses == 1
        assert machine.obs.audit()[0]

