"""Range attribute rewrites (``PageTable.update_range``) must match a
per-page reference model: every populated page in the range takes the
new prot (and the new pkey when one is given), pages outside it and
holes in it are left alone."""

from hypothesis import given, settings, strategies as st

from repro.consts import PROT_READ, PROT_WRITE
from repro.hw.machine import Machine
from repro.hw.paging import PageTable

N_PAGES = 32
PROTS = st.integers(min_value=0, max_value=7)
PKEYS = st.one_of(st.none(), st.integers(0, 15))

# An operation: (start, length, prot, pkey)
ops = st.lists(
    st.tuples(
        st.integers(0, N_PAGES - 1),
        st.integers(1, N_PAGES),
        PROTS,
        PKEYS,
    ),
    max_size=25,
)


def _build():
    """A table with every fifth page left unmapped, so ranges span
    holes, and its reference model: vpn -> [prot, pkey]."""
    machine = Machine(num_cores=1, memory_bytes=1 << 24)
    table, reference = PageTable(), {}
    for vpn in range(N_PAGES):
        if vpn % 5:
            table.map(vpn, machine.memory.alloc_frame(),
                      PROT_READ | PROT_WRITE)
            reference[vpn] = [PROT_READ | PROT_WRITE, 0]
    return table, reference


def _apply(table, reference, operations):
    for start, length, prot, pkey in operations:
        end = min(start + length, N_PAGES)
        rewritten = table.update_range(start, end, prot, pkey)
        assert rewritten == [vpn for vpn in range(start, end)
                             if vpn in reference]
        for vpn in rewritten:
            reference[vpn][0] = prot
            if pkey is not None:
                reference[vpn][1] = pkey


@settings(max_examples=60, deadline=None)
@given(ops)
def test_update_range_matches_per_page_reference(operations):
    table, reference = _build()
    _apply(table, reference, operations)
    for vpn in range(N_PAGES):
        entry = table.lookup_populated(vpn)
        if vpn not in reference:
            assert entry is None
            continue
        assert [entry.prot, entry.pkey] == reference[vpn], vpn


@settings(max_examples=40, deadline=None)
@given(ops)
def test_pages_with_pkey_agrees_with_reference(operations):
    table, reference = _build()
    _apply(table, reference, operations)
    for pkey in range(16):
        assert table.pages_with_pkey(pkey) == sorted(
            vpn for vpn, (_, key) in reference.items() if key == pkey)
