"""Authoritative TLB hits against a TLB that always validates.

A seeded random mix of page-table edits (map, unmap, set_prot, set_pkey,
update_range, bulk_update), TLB flushes (full, one page, a range), PKRU
writes and 1-3-page reads, writes and fetches runs twice on identical
machines.  The second run uses a page table whose generation stamp never
matches, so every TLB hit takes the validating path (re-read the
mapping, keep the cached prot/pkey, re-stamp).  Whatever rule decides
when a stamp moves, an authoritative hit must be indistinguishable from
a validating one: the returned bytes, every fault, the final contents
of every mapped page, the TLB statistics, the cores' counters and the
clock's per-site ledger must be equal.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import asdict

import pytest

from repro.consts import PAGE_SIZE, PROT_EXEC, PROT_READ, PROT_WRITE
from repro.errors import MachineFault
from repro.hw.machine import Machine
from repro.hw.paging import PageTable

PAGES = 8
FIRST_VPN = 0x40
PKEYS = 4
PROTS = [0, PROT_READ, PROT_READ | PROT_WRITE, PROT_READ | PROT_EXEC,
         PROT_READ | PROT_WRITE | PROT_EXEC]
OPS = 600


class NeverAuthoritativePageTable(PageTable):
    """A page table whose ``generation`` reads a fresh value every
    time, so no TLB entry's stamp ever matches it."""

    def __init__(self) -> None:
        self._reads = itertools.count(1)
        super().__init__()

    @property
    def generation(self) -> int:
        return -next(self._reads)

    @generation.setter
    def generation(self, _value: int) -> None:
        pass


def _range(rng):
    start = FIRST_VPN + rng.randrange(PAGES)
    return start, start + rng.randint(1, 3)


def run(seed: int, table_cls) -> dict:
    """Drive the seeded op mix through ``table_cls``; return everything
    observable about the run."""
    rng = random.Random(seed)
    machine = Machine(num_cores=2)
    pt = table_cls()
    outcomes = []
    for _ in range(OPS):
        op = rng.randrange(12)
        vpn = FIRST_VPN + rng.randrange(PAGES)
        core = machine.core(rng.randrange(2))
        if op == 0:
            if vpn not in pt:
                pt.map(vpn, machine.memory.alloc_frame(),
                       rng.choice(PROTS), pkey=rng.randrange(PKEYS))
        elif op == 1:
            if vpn in pt:
                pt.unmap(vpn)
                if rng.randrange(2):  # remap onto a fresh frame
                    pt.map(vpn, machine.memory.alloc_frame(),
                           rng.choice(PROTS), pkey=rng.randrange(PKEYS))
        elif op == 2:
            if vpn in pt:
                pt.set_prot(vpn, rng.choice(PROTS))
        elif op == 3:
            if vpn in pt:
                pt.set_pkey(vpn, rng.randrange(PKEYS))
        elif op == 4:
            start, end = _range(rng)
            pkey = rng.choice([None, *range(PKEYS)])
            outcomes.append(pt.update_range(start, end, rng.choice(PROTS),
                                            pkey=pkey))
        elif op == 5:
            start, end = _range(rng)
            prot = rng.choice([None, *PROTS])
            pkey = rng.choice([None, *range(PKEYS)])
            pt.bulk_update(start, end, prot=prot, pkey=pkey)
        elif op == 6:
            flush = rng.randrange(3)
            if flush == 0:
                core.tlb.flush()
            elif flush == 1:
                core.tlb.invalidate_page(vpn)
            else:
                core.tlb.invalidate_range(list(range(*_range(rng))))
        elif op == 7:
            value = 0
            for key in range(PKEYS):
                value |= rng.randrange(4) << 2 * key
            core.wrpkru(value)
        else:
            kind = rng.choice(["read", "write", "fetch"])
            addr = vpn * PAGE_SIZE + rng.randrange(PAGE_SIZE)
            length = rng.randint(1, 3 * PAGE_SIZE - addr % PAGE_SIZE)
            try:
                if kind == "write":
                    core.write(pt, addr, bytes([op]) * length)
                    outcomes.append((kind, addr, length))
                else:
                    data = getattr(core, kind)(pt, addr, length)
                    outcomes.append((kind, addr, length, data))
            except MachineFault as fault:
                outcomes.append((kind, addr, length, type(fault).__name__,
                                 fault.addr, fault.access,
                                 getattr(fault, "unmapped", None),
                                 getattr(fault, "pkey", None)))
    memory = {vpn: pt.lookup_populated(vpn).frame.read(0, PAGE_SIZE)
              for vpn in range(FIRST_VPN, FIRST_VPN + PAGES) if vpn in pt}
    return {
        "outcomes": outcomes,
        "memory": memory,
        "tlb": [asdict(core.tlb.stats) for core in machine.cores],
        "counters": [(core.data_accesses, core.instruction_fetches,
                      core.wrpkru_count) for core in machine.cores],
        "clock": (machine.clock.now, machine.clock.events),
        "ledger": machine.obs.aggregator.cycles,
    }


@pytest.mark.parametrize("seed", range(4))
def test_authoritative_hits_match_validating_hits(seed):
    fast = run(seed, PageTable)
    slow = run(seed, NeverAuthoritativePageTable)
    for key in ("outcomes", "memory", "tlb", "counters", "clock",
                "ledger"):
        assert fast[key] == slow[key], key


def test_the_mix_reaches_every_outcome():
    """The op mix exercises what the comparison is about: hits, walks,
    stale hits on unmapped pages, and every fault class."""
    results = [run(seed, PageTable) for seed in range(4)]
    stats = {key: sum(tlb[key] for r in results for tlb in r["tlb"])
             for key in ("hits", "misses", "stale_hits", "unmapped_misses")}
    assert all(stats.values()), stats
    faults = {o[3] for r in results for o in r["outcomes"]
              if isinstance(o, tuple) and len(o) > 4}
    assert faults == {"SegmentationFault", "PkeyFault"}
