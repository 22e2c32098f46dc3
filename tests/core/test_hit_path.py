"""The cached domain-switch hit path (§4.2): what one mpk_begin/mpk_end
pair on a cached key charges, which spans it opens, and the metadata
record it leaves behind.

The paper's hit costs one hashmap lookup plus one WRPKRU (plus the
metadata update); the simulator must charge exactly those sites, once
per call, however its host code is arranged.  The record checks cover
the metadata region's cached write target across a region expansion
and across a munmap + re-mmap of the same vkey.
"""

from __future__ import annotations

import pytest

from repro.consts import PAGE_SIZE, PROT_READ, PROT_WRITE
from repro.errors import SandboxViolation

RW = PROT_READ | PROT_WRITE
G = 100

#: The charges of one cached mpk_begin, and of one cached mpk_end, in
#: the order they are made.
HIT_CHARGES = [
    ("libmpk.keycache.lookup", 25.0),
    ("hw.cpu.wrpkru", 23.3),
    ("libmpk.metadata.update", 41.4),
]


class _Charges:
    """Clock sink collecting every ``(site, cycles)`` charge."""

    def __init__(self) -> None:
        self.charges: list[tuple[str, float]] = []

    def on_charge(self, site, cycles, _now, _seq) -> None:
        self.charges.append((site, cycles))


def _measure(lib, call):
    """Run ``call()``; return the ``(site, cycles)`` charges it made, in
    order, and the labels of the spans it completed."""
    machine = lib._kernel.machine
    sink = _Charges()
    labels = []

    def on_span(record, _ancestors):
        labels.append(record.label)

    machine.clock.add_sink(sink)
    machine.obs.subscribe_spans(on_span)
    try:
        call()
    finally:
        machine.obs.unsubscribe_spans(on_span)
        machine.clock.remove_sink(sink)
    return sink.charges, labels


def _check_cached_pair(lib, task, vkey):
    """Warm ``vkey``'s key, then check one pair: exact charges, one span
    per call, and the pin count visible through the read-only user
    mapping inside and after the domain."""
    lib.mpk_begin(task, vkey, RW)
    lib.mpk_end(task, vkey)
    pkey = lib.group(vkey).pkey
    assert pkey is not None

    charges, labels = _measure(lib, lambda: lib.mpk_begin(task, vkey, RW))
    assert charges == HIT_CHARGES
    assert labels == ["libmpk.mpk_begin"]
    assert lib.metadata.user_read_record(task, vkey) == (vkey, pkey, 1, 0)
    assert lib.metadata.kernel_read_record(vkey) == (vkey, pkey, 1, 0)

    charges, labels = _measure(lib, lambda: lib.mpk_end(task, vkey))
    assert charges == HIT_CHARGES
    assert labels == ["libmpk.mpk_end"]
    assert lib.metadata.user_read_record(task, vkey) == (vkey, pkey, 0, 0)
    assert lib.metadata.kernel_read_record(vkey) == (vkey, pkey, 0, 0)


def test_cached_pair(lib, task):
    lib.mpk_mmap(task, G, PAGE_SIZE, RW)
    _check_cached_pair(lib, task, G)
    # Twice: the second pair writes through the cached record frame.
    _check_cached_pair(lib, task, G)


def test_cached_pair_after_region_expansion(lib, task):
    """32 KB / 16 B = 2048 records; the 2049th group's record lives in
    the first expansion chunk."""
    first = 1000
    for i in range(lib.metadata.capacity_records + 1):
        lib.mpk_mmap(task, first + i, PAGE_SIZE, RW)
    assert lib.metadata.expansions == 1
    _check_cached_pair(lib, task, first + 2048)
    _check_cached_pair(lib, task, first)


def test_cached_pair_after_munmap_and_remap(lib, task):
    lib.mpk_mmap(task, G, PAGE_SIZE, RW)
    lib.mpk_mmap(task, G + 1, PAGE_SIZE, RW)
    _check_cached_pair(lib, task, G)
    lib.mpk_munmap(task, G)
    assert lib.metadata.user_read_record(task, G) is None
    # The freed slot is reused by the next record.
    lib.mpk_mmap(task, G + 2, PAGE_SIZE, RW)
    lib.mpk_mmap(task, G, PAGE_SIZE, RW)
    _check_cached_pair(lib, task, G)
    _check_cached_pair(lib, task, G + 2)
    _check_cached_pair(lib, task, G + 1)


#: Out-of-range keys and rights with bits beyond AD | WD.
BAD_KEY_OR_RIGHTS = [(16, 0), (-1, 0), (1, 5), (1, 4)]


@pytest.mark.parametrize("pkey, rights", BAD_KEY_OR_RIGHTS)
def test_pkey_set_rejects_bad_key_or_rights(lib, task, pkey, rights):
    before = task.pkru
    with pytest.raises(ValueError):
        task.pkey_set(pkey, rights)
    assert task.pkru == before


@pytest.mark.parametrize("pkey, rights", BAD_KEY_OR_RIGHTS)
def test_trusted_pkey_set_rejects_bad_key_or_rights(lib, task, pkey,
                                                    rights):
    """libmpk's gated WRPKRU validates before it charges anything."""
    before = task.pkru
    core = lib._kernel.machine.core(task.core_id)

    def call():
        with pytest.raises(ValueError):
            task.trusted_pkey_set(pkey, rights)

    charges, _ = _measure(lib, call)
    assert charges == []
    assert task.pkru == core.pkru == before
    assert task._gate_depth == 0


def test_sandboxed_task_switches_only_through_libmpk(lib, task):
    """With WRPKRU call-gating on, libmpk's own switches still run (and
    charge exactly the hit path), while a WRPKRU or ``pkey_set`` of the
    application outside a gate is refused."""
    lib.mpk_mmap(task, G, PAGE_SIZE, RW)
    task.wrpkru_sandboxed = True
    _check_cached_pair(lib, task, G)
    pkey = lib.group(G).pkey
    before = task.pkru
    with pytest.raises(SandboxViolation):
        task.wrpkru(0)
    with pytest.raises(SandboxViolation):
        task.pkey_set(pkey, 0)
    assert task.pkru == before
    assert task._gate_depth == 0
