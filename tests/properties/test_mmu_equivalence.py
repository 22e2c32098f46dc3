"""The MMU's TLB and batching must be observationally invisible.

Random interleavings of mmap/munmap/mprotect/pkey_mprotect/pkey_set
and data accesses across two cores run against a naive eager
reference model (no TLB, PTEs applied immediately, PKRU rights as a
flat per-key map).  The model independently predicts
every byte and fault class, including the bytes a partially-faulting
write leaves behind, and the exact access ledger: how many pages the
MMU translates, and so what ``hw.mem.access`` charges and how many
TLB outcomes it records.

The op mix deliberately interleaves every cache-invalidation event the
syscall-side caches react to: mmap/munmap/split/merge (the per-process
protect-VMA cache keys on the tree version) and pkey_set's WRPKRU (the
PKRU-encode memo keys on the base register value) — so a stale hit in
either cache surfaces as an outcome or cycle divergence here.
"""

from hypothesis import example, given, settings, strategies as st

from repro.consts import (
    PAGE_SIZE,
    PKEY_DISABLE_ACCESS,
    PKEY_DISABLE_WRITE,
    PROT_NONE,
    PROT_READ,
    PROT_WRITE,
    page_number,
)
from repro.errors import MachineFault, PkeyFault, SegmentationFault
from repro.hw.machine import Machine
from repro.kernel.kcore import Kernel

RW = PROT_READ | PROT_WRITE
PROTS = [PROT_NONE, PROT_READ, RW]
KEY_RIGHTS = [0, PKEY_DISABLE_WRITE,
              PKEY_DISABLE_ACCESS | PKEY_DISABLE_WRITE]
N_SLOTS = 3
MAX_PAGES = 3
N_KEYS = 2  # allocated pkeys available to pkey_mprotect

op_strategy = st.one_of(
    st.tuples(st.just("pkey_set"), st.integers(0, N_KEYS - 1),
              st.sampled_from(KEY_RIGHTS)),
    st.tuples(st.just("mmap"), st.integers(0, N_SLOTS - 1),
              st.integers(1, MAX_PAGES)),
    st.tuples(st.just("munmap"), st.integers(0, N_SLOTS - 1)),
    st.tuples(st.just("mprotect"), st.integers(0, N_SLOTS - 1),
              st.sampled_from(PROTS)),
    st.tuples(st.just("pkey_mprotect"), st.integers(0, N_SLOTS - 1),
              st.sampled_from(PROTS), st.integers(0, N_KEYS - 1)),
    st.tuples(st.just("read"), st.integers(0, 1),
              st.integers(0, N_SLOTS - 1),
              st.integers(0, MAX_PAGES * PAGE_SIZE - 1),
              st.integers(1, 2 * PAGE_SIZE)),
    st.tuples(st.just("write"), st.integers(0, 1),
              st.integers(0, N_SLOTS - 1),
              st.integers(0, MAX_PAGES * PAGE_SIZE - 1),
              st.integers(1, 2 * PAGE_SIZE),
              st.integers(0, 255)),
)
ops_strategy = st.lists(op_strategy, max_size=30)


class Run:
    """One simulator instance executing the op sequence."""

    def __init__(self):
        self.kernel = Kernel(Machine(num_cores=2))
        self.process = self.kernel.create_process()
        self.tasks = [self.process.main_task]
        sibling = self.process.spawn_task()
        self.kernel.scheduler.schedule(sibling, charge=False)
        self.tasks.append(sibling)
        # Keys allocated by the main task: it gains full rights, the
        # sibling's PKRU keeps them denied -> pkey faults to explore.
        self.keys = [self.kernel.sys_pkey_alloc(self.tasks[0])
                     for _ in range(N_KEYS)]
        self.slots = {}  # slot -> (base, npages)

    def apply(self, op):
        """Execute one op; returns a comparable outcome token."""
        kind = op[0]
        try:
            if kind == "pkey_set":
                # Main task only: exercises the PKRU-encode memo and
                # its WRPKRU invalidation without perturbing the
                # sibling's always-denied rights.
                _, key_idx, rights = op
                self.tasks[0].pkey_set(self.keys[key_idx], rights)
                return ("rights", key_idx, rights)
            if kind == "mmap":
                _, slot, npages = op
                if slot in self.slots:
                    return "occupied"
                base = self.kernel.sys_mmap(self.tasks[0],
                                            npages * PAGE_SIZE, RW)
                self.slots[slot] = (base, npages)
                return ("mapped", npages)
            if kind == "munmap":
                _, slot = op
                if slot not in self.slots:
                    return "nothing"
                base, npages = self.slots.pop(slot)
                self.kernel.sys_munmap(self.tasks[0], base,
                                       npages * PAGE_SIZE)
                return "unmapped"
            if kind == "mprotect":
                _, slot, prot = op
                if slot not in self.slots:
                    return "nothing"
                base, npages = self.slots[slot]
                self.kernel.sys_mprotect(self.tasks[0], base,
                                         npages * PAGE_SIZE, prot)
                return "protected"
            if kind == "pkey_mprotect":
                _, slot, prot, key_idx = op
                if slot not in self.slots:
                    return "nothing"
                base, npages = self.slots[slot]
                self.kernel.sys_pkey_mprotect(self.tasks[0], base,
                                              npages * PAGE_SIZE, prot,
                                              self.keys[key_idx])
                return "keyed"
            if kind == "read":
                _, who, slot, offset, length = op
                if slot not in self.slots:
                    return "nothing"
                base, _ = self.slots[slot]
                data = self.tasks[who].read(base + offset, length)
                return ("data", data)
            _, who, slot, offset, length, byte = op
            if slot not in self.slots:
                return "nothing"
            base, _ = self.slots[slot]
            self.tasks[who].write(base + offset, bytes([byte]) * length)
            return "wrote"
        except MachineFault as fault:
            return ("fault", type(fault).__name__,
                    getattr(fault, "unmapped", False))


class Reference:
    """Eager PTE model: immediate attribute updates, flat shadow
    memory, no TLB and no demand-paging visible to the caller."""

    def __init__(self):
        self.slots = {}          # slot -> (base, npages)
        self.pages = {}          # vpn -> {"prot": int, "pkey": int}
        self.bytes = {}          # vpn -> bytearray
        self.key_rights = {}     # key_idx -> main task's rights bits
        self.next_base = None    # mirrors the simulator's mmap cursor
        # Pages data accesses translate: every page up to and including
        # a permission-faulting one; an unmapped page is never counted.
        self.translated = 0

    def _fault_for(self, vpn, who, is_write):
        page = self.pages.get(vpn)
        if page is None:
            return ("fault", "SegmentationFault", True)
        self.translated += 1
        needed = PROT_WRITE if is_write else PROT_READ
        if not page["prot"] & needed:
            return ("fault", "SegmentationFault", False)
        if page["pkey"] != 0:
            # The sibling never gains rights on non-zero keys; the
            # main task's rights follow its pkey_set history.
            if who != 0:
                return ("fault", "PkeyFault", False)
            rights = self.key_rights.get(page["pkey"] - 1, 0)
            if rights & PKEY_DISABLE_ACCESS:
                return ("fault", "PkeyFault", False)
            if is_write and rights & PKEY_DISABLE_WRITE:
                return ("fault", "PkeyFault", False)
        return None

    def read(self, who, addr, length):
        out = bytearray()
        pos = addr
        remaining = length
        while remaining > 0:
            vpn = page_number(pos)
            fault = self._fault_for(vpn, who, is_write=False)
            if fault is not None:
                return fault
            offset = pos % PAGE_SIZE
            chunk = min(remaining, PAGE_SIZE - offset)
            page_bytes = self.bytes.get(vpn)
            if page_bytes is None:
                out += b"\x00" * chunk
            else:
                out += page_bytes[offset:offset + chunk]
            pos += chunk
            remaining -= chunk
        return ("data", bytes(out))

    def write(self, who, addr, data):
        pos = addr
        cursor = 0
        while cursor < len(data):
            vpn = page_number(pos)
            fault = self._fault_for(vpn, who, is_write=True)
            if fault is not None:
                return fault  # bytes before this page stay written
            offset = pos % PAGE_SIZE
            chunk = min(len(data) - cursor, PAGE_SIZE - offset)
            page_bytes = self.bytes.setdefault(vpn,
                                               bytearray(PAGE_SIZE))
            page_bytes[offset:offset + chunk] = \
                data[cursor:cursor + chunk]
            pos += chunk
            cursor += chunk
        return "wrote"

    def apply(self, op, sim_outcome):
        """Mirror ``op``; mapping ops learn addresses from the sim."""
        kind = op[0]
        if kind == "pkey_set":
            _, key_idx, rights = op
            self.key_rights[key_idx] = rights
            return ("rights", key_idx, rights)
        if kind == "mmap":
            _, slot, npages = op
            if slot in self.slots:
                return "occupied"
            # Address choice is the simulator's (deterministic cursor);
            # adopt it rather than re-model gap placement.
            assert sim_outcome == ("mapped", npages)
            return None  # caller registers the base separately
        if kind == "munmap":
            _, slot = op
            if slot not in self.slots:
                return "nothing"
            base, npages = self.slots.pop(slot)
            for vpn in range(page_number(base),
                             page_number(base) + npages):
                self.pages.pop(vpn, None)
                self.bytes.pop(vpn, None)
            return "unmapped"
        if kind == "mprotect":
            _, slot, prot = op
            if slot not in self.slots:
                return "nothing"
            base, npages = self.slots[slot]
            for vpn in range(page_number(base),
                             page_number(base) + npages):
                self.pages[vpn]["prot"] = prot
            return "protected"
        if kind == "pkey_mprotect":
            _, slot, prot, key_idx = op
            if slot not in self.slots:
                return "nothing"
            base, npages = self.slots[slot]
            for vpn in range(page_number(base),
                             page_number(base) + npages):
                self.pages[vpn]["prot"] = prot
                self.pages[vpn]["pkey"] = key_idx + 1  # any nonzero
            return "keyed"
        if kind == "read":
            _, who, slot, offset, length = op
            if slot not in self.slots:
                return "nothing"
            base, _ = self.slots[slot]
            return self.read(who, base + offset, length)
        _, who, slot, offset, length, byte = op
        if slot not in self.slots:
            return "nothing"
        base, _ = self.slots[slot]
        return self.write(who, base + offset, bytes([byte]) * length)

    def register_mmap(self, slot, base, npages):
        self.slots[slot] = (base, npages)
        for vpn in range(page_number(base), page_number(base) + npages):
            self.pages[vpn] = {"prot": RW, "pkey": 0}


@settings(max_examples=25, deadline=None)
@given(ops_strategy)
@example([
    ("mmap", 0, 3),
    ("write", 0, 0, PAGE_SIZE - 8, PAGE_SIZE + 16, 7),  # 3 pages, misses
    ("read", 0, 0, 4, 2 * PAGE_SIZE),                   # 3 pages, hits
    ("pkey_mprotect", 0, RW, 0),
    ("read", 1, 0, 5, 1),              # single-page pkey fault (sibling)
    ("read", 1, 0, PAGE_SIZE - 1, 2),  # multi-page pkey fault
    ("mprotect", 0, PROT_NONE),
    ("read", 0, 0, 5, 1),              # single-page page-bit fault
    ("mmap", 1, 1),
    ("read", 0, 1, PAGE_SIZE - 4, 8),  # runs into an unmapped page
])
def test_fast_path_is_observationally_invisible(operations):
    run = Run()
    reference = Reference()
    for op in operations:
        out = run.apply(op)
        # The reference has no pkey-fault/segfault *ordering*
        # subtleties to hide: the simulator checks page bits before
        # PKRU, and so does Reference._fault_for.
        ref_out = reference.apply(op, out)
        if op[0] == "mmap" and ref_out is None:
            if out != "occupied":
                base, npages = run.slots[op[1]]
                reference.register_mmap(op[1], base, npages)
        else:
            assert ref_out == out, f"reference diverges on {op}"
    # The exact access ledger: one access, one mem_access and one TLB
    # outcome per translated page; one walk per miss.
    machine = run.kernel.machine
    costs = machine.costs
    cycles = machine.obs.aggregator.cycles
    count = reference.translated
    hits = sum(core.tlb.stats.hits for core in machine.cores)
    misses = sum(core.tlb.stats.misses for core in machine.cores)
    assert sum(core.data_accesses for core in machine.cores) == count
    assert cycles.get("hw.mem.access", 0.0) == count * costs.mem_access
    assert hits + misses == count
    assert cycles.get("hw.tlb.walk", 0.0) == misses * costs.tlb_miss_walk
    # The conservation audit (cycles + MMU counters) holds.
    assert machine.obs.audit()[0]


@settings(max_examples=10, deadline=None)
@given(ops_strategy)
def test_fault_classes_match_reference(operations):
    """Focused re-run asserting only fault classification, with the
    sibling task doing all accesses (maximum pkey-fault exposure)."""
    run = Run()
    reference = Reference()
    for op in operations:
        if op[0] in ("read", "write"):
            op = (op[0], 1, *op[2:])  # force the sibling
        out = run.apply(op)
        ref_out = reference.apply(op, out)
        if op[0] == "mmap" and ref_out is None:
            if out != "occupied":
                base, npages = run.slots[op[1]]
                reference.register_mmap(op[1], base, npages)
            continue
        assert ref_out == out, f"reference diverges on {op}"
        if isinstance(out, tuple) and out[0] == "fault":
            assert out[1] in (SegmentationFault.__name__,
                              PkeyFault.__name__)
