"""The MMU hot path: authoritative TLB hits, generation-stamp
invalidation, the batched transfer's exact charges, and the
overlay-pruning and stats-contract regressions it depends on."""

import pytest

from repro.consts import PAGE_SIZE, PROT_READ, PROT_WRITE
from repro.errors import PkeyFault, SegmentationFault
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
    core.load_pkru(PKRU.allow_all())
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
        core.load_pkru(PKRU.allow_all())
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
        core.load_pkru(PKRU.allow_all())
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
        core.load_pkru(PKRU.allow_all())
        core.read(pt, 0x10000, 1)
        baseline = pt.lookups
        pt.unmap(0x30)                      # bumps generation
        core.read(pt, 0x10000, 1)           # stale stamp -> validates
        assert pt.lookups == baseline + 1
        core.read(pt, 0x10000, 1)           # re-stamped -> authoritative
        assert pt.lookups == baseline + 1

    def test_map_and_attribute_rewrites_keep_hits_authoritative(self):
        """Only unmap moves the stamp: mapping another page (demand
        paging) and rewriting this page's attributes, singly or in
        ranges, leave the cached translation authoritative."""
        machine = Machine(num_cores=1)
        pt = CountingPageTable()
        pt.map(0x10, machine.memory.alloc_frame(), RW, pkey=3)
        core = machine.core(0)
        core.load_pkru(PKRU.allow_all())
        core.read(pt, 0x10000, 1)
        baseline = pt.lookups
        edits = [
            lambda: pt.map(0x30, machine.memory.alloc_frame(), RW),
            lambda: pt.set_prot(0x10, PROT_READ),
            lambda: pt.set_pkey(0x10, 5),
            lambda: pt.update_range(0x10, 0x31, RW, pkey=4),
            lambda: pt.bulk_update(0x10, 0x31, prot=PROT_READ, pkey=6),
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
        pt.set_prot(0x10, PROT_READ)    # no shootdown
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
        core.load_pkru(PKRU.allow_all())
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
        core.load_pkru(PKRU.allow_all().with_rights(3, KEY_RIGHTS_NONE))
        with pytest.raises(PkeyFault):
            core.read(pt, 0x10000, 1)
        assert machine.obs.aggregator.cycles.get(
            "hw.mem.access") == pytest.approx(machine.costs.mem_access)
        assert core.data_accesses == 1

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


class TestOverlayPruning:
    def test_pkey_only_bulk_updates_stay_bounded(self):
        # Regression (headline bugfix): 10k repeated pkey-only bulk
        # updates — the mpk_mprotect hot path — must leave O(1)
        # overlays.  Pre-fix, pruning required prot AND pkey to be set,
        # so this accumulated 10_000 overlays and every subsequent
        # access paid O(overlays) in _materialize.
        pt = PageTable()
        for i in range(10_000):
            pt.bulk_update(0x100, 0x300, pkey=(i % 14) + 1)
        assert len(pt._overlays) <= PageTable.OVERLAY_FOLD_CAP
        assert len(pt._overlays) <= 2

    def test_prot_only_bulk_updates_stay_bounded(self):
        pt = PageTable()
        for i in range(10_000):
            pt.bulk_update(0x100, 0x300,
                           prot=PROT_READ if i % 2 else RW)
        assert len(pt._overlays) <= 2

    def test_partial_shadow_nulls_only_covered_field(self):
        pt = PageTable()
        frame_owner = Machine(num_cores=1)
        f = frame_owner.memory.alloc_frame
        pt.map(0x100, f(), RW, pkey=1)
        pt.bulk_update(0x100, 0x200, prot=PROT_READ, pkey=5)
        pt.bulk_update(0x100, 0x200, pkey=7)  # shadows pkey, not prot
        entry = pt.lookup(0x100)
        assert entry.prot == PROT_READ
        assert entry.pkey == 7

    def test_fold_cap_bounds_disjoint_overlay_churn(self):
        pt = PageTable()
        machine = Machine(num_cores=1)
        pt.map(0x100, machine.memory.alloc_frame(), RW, pkey=1)
        # Disjoint ranges never shadow each other; only the fold cap
        # keeps the list bounded.
        for i in range(1000):
            base = 0x1000 + 2 * i
            pt.bulk_update(base, base + 1, pkey=(i % 14) + 1)
        assert len(pt._overlays) <= PageTable.OVERLAY_FOLD_CAP
        # And folding preserved already-populated entries' pending state.
        pt.bulk_update(0x100, 0x101, pkey=9)
        assert pt.lookup(0x100).pkey == 9
