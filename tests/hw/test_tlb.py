"""TLB behaviour: caching, capacity, flush and outcome accounting."""

import pytest

from repro.hw.cycles import Clock, DEFAULT_COST_MODEL
from repro.hw.tlb import TLB, TlbEntry


@pytest.fixture
def tlb():
    return TLB(Clock(), DEFAULT_COST_MODEL, capacity=4)


def entry(n):
    return TlbEntry(frame_number=n, prot=0x3, pkey=0)


class TestProbeFill:
    def test_miss_then_hit(self, tlb):
        assert tlb.probe(1) is None
        tlb.record_walk_miss()
        tlb.fill(1, entry(1))
        assert tlb.probe(1) == entry(1)
        tlb.record_hit()
        assert tlb.stats.misses == 1
        assert tlb.stats.walks == 1
        assert tlb.stats.hits == 1

    def test_probe_records_nothing(self, tlb):
        tlb.probe(1)
        tlb.fill(1, entry(1))
        tlb.probe(1)
        assert tlb.stats.hits == 0
        assert tlb.stats.misses == 0
        assert tlb.stats.unmapped_misses == 0

    def test_unmapped_miss_is_not_a_walk(self, tlb):
        # Regression (stats-drift bugfix): a probe miss where the page
        # turns out not to exist must not inflate ``misses`` — no page
        # walk is ever charged for it, so misses would diverge from
        # walks.
        assert tlb.probe(7) is None
        tlb.record_unmapped_miss()
        assert tlb.stats.misses == 0
        assert tlb.stats.walks == 0
        assert tlb.stats.unmapped_misses == 1

    def test_capacity_evicts_lru(self, tlb):
        for vpn in range(4):
            tlb.fill(vpn, entry(vpn))
        tlb.probe(0)               # refresh vpn 0
        tlb.fill(4, entry(4))      # evicts vpn 1 (LRU)
        assert tlb.probe(1) is None
        assert tlb.probe(0) is not None
        assert tlb.probe(4) is not None

    def test_refill_same_vpn_replaces(self, tlb):
        tlb.fill(1, entry(1))
        tlb.fill(1, entry(99))
        assert tlb.probe(1).frame_number == 99
        assert len(tlb) == 1

    def test_update_only_touches_resident(self, tlb):
        tlb.update(5, entry(5))
        assert tlb.probe(5) is None
        tlb.fill(5, entry(5))
        tlb.update(5, entry(50))
        assert tlb.probe(5).frame_number == 50
        assert len(tlb) == 1


class TestFlush:
    def test_full_flush_empties_and_charges(self, tlb):
        tlb.fill(1, entry(1))
        clock_before = tlb._clock.now
        tlb.flush()
        assert len(tlb) == 0
        assert tlb.stats.full_flushes == 1
        assert tlb.stats.noop_flushes == 0
        assert tlb._clock.now - clock_before == pytest.approx(
            DEFAULT_COST_MODEL.tlb_flush_full)

    def test_empty_flush_counted_as_noop(self, tlb):
        # Regression (stats-drift bugfix): flushing an empty TLB still
        # executes (and charges) the flush instruction, but it must be
        # accounted as a no-op, not as a flush that invalidated
        # translations.  Pre-fix code counted full_flushes == 1 here.
        clock_before = tlb._clock.now
        tlb.flush()
        assert tlb.stats.full_flushes == 0
        assert tlb.stats.noop_flushes == 1
        assert tlb._clock.now - clock_before == pytest.approx(
            DEFAULT_COST_MODEL.tlb_flush_full)

    def test_invalidate_single_page(self, tlb):
        tlb.fill(1, entry(1))
        tlb.fill(2, entry(2))
        tlb.invalidate_page(1)
        assert tlb.probe(1) is None
        assert tlb.probe(2) is not None
        assert tlb.stats.page_invalidations == 1

    def test_invalidate_absent_page_is_harmless(self, tlb):
        tlb.invalidate_page(42)
        assert tlb.stats.page_invalidations == 1

    def test_invalidate_range_batches_one_charge(self, tlb):
        tlb.fill(1, entry(1))
        tlb.fill(2, entry(2))
        tlb.fill(3, entry(3))
        clock_before = tlb._clock.now
        tlb.invalidate_range([1, 2], charge_pages=5)
        assert tlb.probe(1) is None
        assert tlb.probe(2) is None
        assert tlb.probe(3) is not None
        # Range-proportional cost: 5 INVLPGs charged though only two
        # translations were resident.
        assert tlb.stats.page_invalidations == 5
        assert tlb._clock.now - clock_before == pytest.approx(
            5 * DEFAULT_COST_MODEL.tlb_flush_page)

    def test_invalidate_range_zero_pages_charges_nothing(self, tlb):
        clock_before = tlb._clock.now
        tlb.invalidate_range([], charge_pages=0)
        assert tlb._clock.now == clock_before
        assert tlb.stats.page_invalidations == 0

    def test_stats_reset(self, tlb):
        tlb.fill(1, entry(1))
        tlb.probe(1)
        tlb.record_hit()
        tlb.flush()
        tlb.stats.reset()
        assert tlb.stats.hits == 0
        assert tlb.stats.full_flushes == 0
        assert tlb.stats.noop_flushes == 0


class TestMmResidency:
    """The per-core mm_cpumask analogue: which page tables may have
    translations resident (the shootdown targeting predicate)."""

    def test_fill_records_the_stamping_table(self, tlb):
        table = object()
        assert not tlb.may_hold(table)
        tlb.fill(1, TlbEntry(frame_number=1, prot=0x3, pkey=0,
                             generation=0, table=table))
        assert tlb.may_hold(table)

    def test_unstamped_entries_record_nothing(self, tlb):
        tlb.fill(1, entry(1))          # legacy entry, table=None
        assert not tlb.may_hold(None)

    def test_update_and_note_table_record_residency(self, tlb):
        table = object()
        tlb.fill(1, entry(1))
        tlb.update(1, TlbEntry(frame_number=1, prot=0x3, pkey=0,
                               generation=0, table=table))
        assert tlb.may_hold(table)
        other = object()
        tlb.note_table(other)          # the MMU's restamp bypasses fill
        assert tlb.may_hold(other)

    def test_residency_is_sticky_across_eviction_and_invlpg(self, tlb):
        # Conservative like mm_cpumask: LRU eviction and INVLPG do not
        # retract residency — only a full flush does.
        table = object()
        tlb.fill(0, TlbEntry(frame_number=0, prot=0x3, pkey=0,
                             generation=0, table=table))
        tlb.invalidate_page(0)
        assert tlb.may_hold(table)
        tlb.fill(0, TlbEntry(frame_number=0, prot=0x3, pkey=0,
                             generation=0, table=table))
        for vpn in range(1, 5):
            tlb.fill(vpn, entry(vpn))  # capacity 4: evicts vpn 0
        assert tlb.probe(0) is None
        assert tlb.may_hold(table)

    def test_full_flush_clears_residency(self, tlb):
        table = object()
        tlb.fill(1, TlbEntry(frame_number=1, prot=0x3, pkey=0,
                             generation=0, table=table))
        tlb.flush()
        assert not tlb.may_hold(table)


class TestValidation:
    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            TLB(Clock(), DEFAULT_COST_MODEL, capacity=0)
