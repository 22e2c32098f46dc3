"""VmaTree + MM against a naive list-of-VMAs reference model.

A seeded sequence of mmap/protect/munmap runs on both.  After every
call the two must agree on the VMA list (bounds, prot, pkey) and on the
call's ``vmas_found``/``splits``/``merges``, and the tree's ``version``
must have moved whenever the list's structure (its set of bounds)
changed, since the mprotect VMA cache trusts a cached VMA only while the
version holds.
"""

from __future__ import annotations

import random

import pytest

from repro.consts import PAGE_SIZE, PROT_NONE, PROT_READ, PROT_WRITE
from repro.hw.machine import Machine
from repro.kernel.mm import MM

PROTS = (PROT_NONE, PROT_READ, PROT_READ | PROT_WRITE)
#: The address window the sequence works in, in pages.
WINDOW = 48
BASE = 0x10_0000


class ReferenceModel:
    """Sorted ``[start, end, prot, pkey]`` lists; every operation is
    written from the definition, with no tree and no in-place surgery."""

    def __init__(self) -> None:
        self.vmas: list[list[int]] = []

    def overlapping(self, start: int, end: int) -> list[list[int]]:
        return [v for v in self.vmas if v[0] < end and start < v[1]]

    def mmap(self, addr: int, end: int, prot: int) -> None:
        self.vmas = sorted(self.vmas + [[addr, end, prot, 0]])

    def _cut(self, addr: int, end: int, new=None) -> tuple[int, int]:
        """Replace the part of every VMA inside ``[addr, end)`` with
        ``new(vma)`` pieces (dropped when ``new`` is None).  Returns
        (vmas found, splits)."""
        hit = self.overlapping(addr, end)
        splits = ((hit[0][0] < addr) + (hit[-1][1] > end)) if hit else 0
        pieces = []
        for start, stop, prot, pkey in self.vmas:
            if stop <= addr or end <= start:
                pieces.append([start, stop, prot, pkey])
                continue
            if start < addr:
                pieces.append([start, addr, prot, pkey])
            if new is not None:
                pieces.append([max(start, addr), min(stop, end),
                               *new(prot, pkey)])
            if stop > end:
                pieces.append([end, stop, prot, pkey])
        self.vmas = pieces
        return len(hit), splits

    def protect(self, addr: int, end: int, prot: int,
                pkey: int | None) -> tuple[int, int, int]:
        found, splits = self._cut(
            addr, end, lambda _, old: (prot, old if pkey is None else pkey))
        # Merge adjacent, identical neighbours among the VMAs touching
        # the range widened by one page on each side.
        lo, hi = max(0, addr - PAGE_SIZE), end + PAGE_SIZE
        merges = 0
        merged: list[list[int]] = []
        for vma in self.vmas:
            last = merged[-1] if merged else None
            if (last is not None and last[1] == vma[0]
                    and last[2:] == vma[2:]
                    and last[0] < hi and lo < last[1]
                    and vma[0] < hi and lo < vma[1]):
                last[1] = vma[1]
                merges += 1
            else:
                merged.append(list(vma))
        self.vmas = merged
        return found, splits, merges

    def munmap(self, addr: int, end: int) -> tuple[int, int]:
        return self._cut(addr, end)

    def free_runs(self) -> list[tuple[int, int]]:
        """Maximal unmapped page runs inside the window."""
        mapped = {page for start, stop, _, _ in self.vmas
                  for page in range((start - BASE) // PAGE_SIZE,
                                    (stop - BASE) // PAGE_SIZE)}
        runs, page = [], 0
        while page < WINDOW:
            if page in mapped:
                page += 1
                continue
            first = page
            while page < WINDOW and page not in mapped:
                page += 1
            runs.append((first, page))
        return runs

    def mapped_runs(self) -> list[tuple[int, int]]:
        """Maximal contiguously mapped page runs."""
        runs: list[list[int]] = []
        for start, stop, _, _ in self.vmas:
            if runs and runs[-1][1] == start:
                runs[-1][1] = stop
            else:
                runs.append([start, stop])
        return [(start, stop) for start, stop in runs]


def _page(n: int) -> int:
    return BASE + n * PAGE_SIZE


def _bounds(vmas) -> list[tuple[int, int]]:
    return [(v[0], v[1]) for v in vmas]


@pytest.mark.parametrize("seed", range(8))
def test_tree_matches_reference_model(seed):
    rng = random.Random(seed)
    mm = MM(Machine(num_cores=1, memory_bytes=1 << 24))
    model = ReferenceModel()
    for step in range(400):
        before_bounds = _bounds(model.vmas)
        before_version = mm.vmas.version
        op = rng.random()
        free = model.free_runs()
        if (op < 0.3 or not model.vmas) and free:
            first, stop = rng.choice(free)
            start = rng.randrange(first, stop)
            pages = rng.randint(1, min(4, stop - start))
            prot = rng.choice(PROTS)
            mm.mmap(pages * PAGE_SIZE, prot, addr=_page(start))
            model.mmap(_page(start), _page(start + pages), prot)
            expected = actual = None
        elif op < 0.85 and model.vmas:
            run_start, run_end = rng.choice(model.mapped_runs())
            addr = rng.randrange(run_start, run_end, PAGE_SIZE)
            end = rng.randrange(addr + PAGE_SIZE, run_end + PAGE_SIZE,
                                PAGE_SIZE)
            prot = rng.choice(PROTS)
            pkey = rng.choice((None, 0, 1, 2))
            stats = mm.protect(addr, end - addr, prot, pkey=pkey)
            expected = model.protect(addr, end, prot, pkey)
            actual = (stats.vmas_found, stats.splits, stats.merges)
        elif model.vmas:
            addr = _page(rng.randrange(WINDOW))
            end = addr + rng.randint(1, 6) * PAGE_SIZE
            stats = mm.munmap(addr, end - addr)
            expected = model.munmap(addr, end)
            actual = (stats.vmas_found, stats.splits)
        else:
            continue
        assert actual == expected, (seed, step)
        tree = [[v.start, v.end, v.prot, v.pkey] for v in mm.vmas]
        assert tree == model.vmas, (seed, step)
        assert len(mm.vmas) == len(model.vmas)
        if _bounds(model.vmas) != before_bounds:
            assert mm.vmas.version != before_version, (seed, step)
        assert mm.protect_cache_consistency() is None
