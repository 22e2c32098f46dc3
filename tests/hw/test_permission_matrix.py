"""Exhaustive check of the MMU's single-page permission test.

``Core._enforce`` reads the page key's AD/WD bits straight out of
``core.pkru.value``.  Every page ``prot`` (0-7) x PKRU rights (0-3) x
access kind on a single-page access is checked against the Figure-1
rule written out here: the fault class and fields (or no fault), and
the same ledger and counter deltas as an access the page and PKRU both
allow (a permission fault still pays its TLB hit and memory access).
Every other key is denied, so reading the wrong rights field shows.
Both TLB states are covered: an authoritative hit (the inline branch)
and a cold miss (the walk).
"""

from __future__ import annotations

import itertools
from contextlib import suppress

import pytest

from repro.consts import (
    PAGE_SIZE,
    PKEY_DISABLE_ACCESS,
    PKEY_DISABLE_WRITE,
    PROT_EXEC,
    PROT_READ,
    PROT_WRITE,
)
from repro.errors import MachineFault, PkeyFault, SegmentationFault
from repro.hw.cpu import FETCH, READ, WRITE
from repro.hw.machine import Machine
from repro.hw.paging import PageTable
from repro.hw.pkru import PKRU

PKEY = 5
VPN = 0x40
ADDR = VPN * PAGE_SIZE + 24
ALL_PROT = 0x7
ALL_RIGHTS = 0x0
#: Every key's AD and WD bits set.
DENY_EVERY_KEY = 0xFFFF_FFFF


def _fields(fault):
    if fault is None:
        return None
    return (type(fault), fault.addr, fault.access,
            getattr(fault, "pkey", None), fault.unmapped)


def _figure1(prot: int, rights: int, kind: str):
    """The expected fault class for one access, or None: the page bits
    first, then (data accesses only) the key's rights."""
    if kind == FETCH:
        return None if prot & PROT_EXEC else SegmentationFault
    if kind == READ:
        page_bit, denied = PROT_READ, PKEY_DISABLE_ACCESS
    else:
        page_bit = PROT_WRITE
        denied = PKEY_DISABLE_ACCESS | PKEY_DISABLE_WRITE
    if not prot & page_bit:
        return SegmentationFault
    return PkeyFault if rights & denied else None


def _snapshot(machine, core):
    obs = machine.obs
    stats = core.tlb.stats
    return (dict(obs.aggregator.cycles), dict(obs.aggregator.counts),
            core.data_accesses, core.instruction_fetches, stats.hits,
            stats.misses)


def _delta(before, after):
    cycles = {site: after[0][site] - before[0].get(site, 0.0)
              for site in after[0]}
    counts = {site: after[1][site] - before[1].get(site, 0)
              for site in after[1]}
    return ({s: c for s, c in cycles.items() if counts[s]},
            {s: c for s, c in counts.items() if c},
            *(a - b for a, b in zip(after[2:], before[2:])))


def _access(prot: int, rights: int, kind: str, warm: bool):
    """One 8-byte single-page access; returns (fault, deltas)."""
    machine = Machine(num_cores=1)
    core = machine.core(0)
    table = PageTable()
    table.map(VPN, machine.memory.alloc_frame(), prot, pkey=PKEY)
    if warm:
        # Translation happens before the permission check, so even a
        # denied read fills the TLB.
        with suppress(MachineFault):
            core.read(table, ADDR, 8)
    core.load_pkru(PKRU(DENY_EVERY_KEY).with_rights(PKEY, rights))
    before = _snapshot(machine, core)
    fault = None
    try:
        if kind == READ:
            core.read(table, ADDR, 8)
        elif kind == WRITE:
            core.write(table, ADDR, b"8 bytes!")
        else:
            core.fetch(table, ADDR, 8)
    except MachineFault as exc:
        fault = exc
    return fault, _delta(before, _snapshot(machine, core))


@pytest.mark.parametrize("warm", [True, False], ids=["tlb_hit", "tlb_miss"])
@pytest.mark.parametrize("kind", [READ, WRITE, FETCH])
def test_single_page_check_matches_figure1(kind, warm):
    _, allowed_deltas = _access(ALL_PROT, ALL_RIGHTS, kind, warm)
    outcomes = set()
    for prot, rights in itertools.product(range(8), range(4)):
        fault, deltas = _access(prot, rights, kind, warm)
        case = f"prot={prot} rights={rights} kind={kind} warm={warm}"
        expected = _figure1(prot, rights, kind)
        if expected is None:
            assert fault is None, case
        else:
            pkey = PKEY if expected is PkeyFault else None
            assert _fields(fault) == (expected, ADDR, kind, pkey,
                                      False), case
        assert deltas == allowed_deltas, case
        outcomes.add(None if fault is None else type(fault).__name__)
    # The matrix reaches every outcome the kind can have.
    if kind == FETCH:
        assert outcomes == {None, "SegmentationFault"}
    else:
        assert outcomes == {None, "SegmentationFault", "PkeyFault"}
