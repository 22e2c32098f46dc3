"""Deliberately broken stand-ins that tests install to show a check
catches what it is there for."""

from __future__ import annotations

import itertools

from repro.hw.paging import PageTable


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
