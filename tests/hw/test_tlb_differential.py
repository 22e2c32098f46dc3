"""Authoritative TLB hits against a TLB that always validates.

A seeded random mix of page-table edits (map, unmap, and attribute
rewrites of one page or a range), TLB flushes (full, one page, a
range), PKRU writes and reads, writes and fetches (half of them within
one page, the rest over up to three) runs twice on identical machines.  The second
run uses a page table whose generation stamp never matches, so every
TLB hit takes the validating path (re-read the mapping, keep the
cached prot/pkey, re-stamp).  Whatever rule decides when a stamp moves,
and however the MMU serves an authoritative hit, it must be
indistinguishable from a validating one: the returned bytes, every
fault, the final contents of every mapped page, the TLB statistics,
the cores' counters, every ``(site, cycles)`` charge in order (with,
for a charge an access makes, the contents of the pages it targets at
that moment, so a copy moved across a charge shows) and the clock's
per-site ledger must be equal.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import asdict

import pytest

from repro.consts import (
    PAGE_SIZE,
    PKEY_DISABLE_ACCESS,
    PKEY_DISABLE_WRITE,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
)
from repro.errors import MachineFault
from repro.hw.machine import Machine
from repro.hw.paging import PageTable
from tests.mutants import NeverAuthoritativePageTable

PAGES = 8
FIRST_VPN = 0x40
PKEYS = 4
PROTS = [0, PROT_READ, PROT_READ | PROT_WRITE, PROT_READ | PROT_EXEC,
         PROT_READ | PROT_WRITE | PROT_EXEC]
OPS = 600


def _range(rng):
    start = FIRST_VPN + rng.randrange(PAGES)
    return start, start + rng.randint(1, 3)


class _Charges:
    """Clock sink collecting every ``(site, cycles)`` charge in order,
    each with a checksum of every frame in ``targets`` (the frames of
    the pages the running access touches; empty between accesses)."""

    def __init__(self) -> None:
        self.charges: list[tuple[str, float, tuple]] = []
        self.targets: list = []

    def on_charge(self, site, cycles, _now, _seq) -> None:
        self.charges.append((site, cycles, tuple(
            None if frame is None else zlib.crc32(frame.read(0, PAGE_SIZE))
            for frame in self.targets)))


def _authoritative(core, pt, addr: int, length: int) -> bool:
    """True when a ``length``-byte access at ``addr`` stays on one page
    whose TLB entry on ``core`` carries a matching stamp."""
    offset = addr % PAGE_SIZE
    if not 0 < length <= PAGE_SIZE - offset:
        return False
    cached = core.tlb._entries.get(addr // PAGE_SIZE)
    return (cached is not None and cached.table is pt
            and cached.generation == pt.generation)


def run(seed: int, table_cls) -> dict:
    """Drive the seeded op mix through ``table_cls``; return everything
    observable about the run, plus (under ``"auth_faults"``, not
    compared) the faults single-page authoritative hits raised, each as
    ``(kind, fault class, the key's PKRU rights)``."""
    rng = random.Random(seed)
    machine = Machine(num_cores=2)
    sink = _Charges()
    machine.clock.add_sink(sink)
    pt = table_cls()
    frames = {}   # vpn -> the frame it maps
    outcomes = []
    auth_faults = []
    for _ in range(OPS):
        op = rng.randrange(16)
        vpn = FIRST_VPN + rng.randrange(PAGES)
        core = machine.core(rng.randrange(2))
        if op == 0:
            if vpn not in pt:
                frames[vpn] = machine.memory.alloc_frame()
                pt.map(vpn, frames[vpn], rng.choice(PROTS),
                       pkey=rng.randrange(PKEYS))
        elif op == 1:
            if vpn in pt:
                pt.unmap(vpn)
                del frames[vpn]
                if rng.randrange(2):  # remap onto a fresh frame
                    frames[vpn] = machine.memory.alloc_frame()
                    pt.map(vpn, frames[vpn], rng.choice(PROTS),
                           pkey=rng.randrange(PKEYS))
        elif op == 2:
            if vpn in pt:
                pt.update_range(vpn, vpn + 1, rng.choice(PROTS))
        elif op == 3:
            if vpn in pt:
                pt.update_range(vpn, vpn + 1, pt.lookup_populated(vpn).prot,
                                pkey=rng.randrange(PKEYS))
        elif op == 4:
            start, end = _range(rng)
            pkey = rng.choice([None, *range(PKEYS)])
            outcomes.append(pt.update_range(start, end, rng.choice(PROTS),
                                            pkey=pkey))
        elif op == 5:
            start, end = _range(rng)
            prot = rng.choice(PROTS)
            pkey = rng.choice([None, *range(PKEYS)])
            pt.update_range(start, end, prot, pkey=pkey)
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
            # Half the accesses stay on one page (the MMU's hit path),
            # half may span up to three.
            span = rng.choice([PAGE_SIZE, 3 * PAGE_SIZE])
            length = rng.randint(1, span - addr % PAGE_SIZE)
            authoritative = _authoritative(core, pt, addr, length)
            sink.targets = [frames.get(page) for page in range(
                vpn, (addr + length - 1) // PAGE_SIZE + 1)]
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
                if authoritative:
                    pkey = core.tlb._entries[vpn].pkey
                    auth_faults.append((kind, type(fault).__name__,
                                        core.pkru >> 2 * pkey & 3))
            sink.targets = []
    memory = {vpn: pt.lookup_populated(vpn).frame.read(0, PAGE_SIZE)
              for vpn in range(FIRST_VPN, FIRST_VPN + PAGES) if vpn in pt}
    return {
        "outcomes": outcomes,
        "memory": memory,
        "tlb": [asdict(core.tlb.stats) for core in machine.cores],
        "counters": [(core.data_accesses, core.instruction_fetches,
                      core.wrpkru_count) for core in machine.cores],
        "clock": (machine.clock.now, machine.clock.events),
        "charges": sink.charges,
        "ledger": machine.obs.aggregator.cycles,
        "auth_faults": auth_faults,
    }


@pytest.mark.parametrize("seed", range(4))
def test_authoritative_hits_match_validating_hits(seed):
    fast = run(seed, PageTable)
    slow = run(seed, NeverAuthoritativePageTable)
    for key in ("outcomes", "memory", "tlb", "counters", "clock",
                "charges", "ledger"):
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


def test_the_mix_faults_on_authoritative_single_page_hits():
    """Single-page authoritative hits raise every fault the hit path
    checks for: page bits on a read and on a write, AD on a read and WD
    (without AD) on a write.  The never-authoritative table serves none
    of them."""
    faults = {fault for seed in range(4)
              for fault in run(seed, PageTable)["auth_faults"]}
    kinds = {(kind, name) for kind, name, _ in faults}
    assert {("read", "SegmentationFault"),
            ("write", "SegmentationFault")} <= kinds, faults
    assert ("read", "PkeyFault", PKEY_DISABLE_ACCESS) in faults, faults
    assert ("write", "PkeyFault", PKEY_DISABLE_WRITE) in faults, faults
    assert not run(0, NeverAuthoritativePageTable)["auth_faults"]
