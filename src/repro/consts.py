"""Architectural and POSIX-style constants shared across all layers.

The values mirror Linux/x86-64 where the paper depends on them: a 4 KiB
page, ``PROT_*``/``MAP_*`` flag encodings, and the MPK limit of 16
hardware protection keys (4 PTE bits, key 0 reserved as the default).
"""

from __future__ import annotations

PAGE_SHIFT = 12
PAGE_SIZE = 1 << PAGE_SHIFT
PAGE_MASK = ~(PAGE_SIZE - 1)

# Memory protection flags (match Linux mman.h values).
PROT_NONE = 0x0
PROT_READ = 0x1
PROT_WRITE = 0x2
PROT_EXEC = 0x4

# mmap flags (subset the paper's APIs use).
MAP_SHARED = 0x01
MAP_PRIVATE = 0x02
MAP_FIXED = 0x10
MAP_ANONYMOUS = 0x20

# Intel MPK provides 4 bits of protection key per PTE: 16 keys, with key 0
# being the default key newly mapped pages receive.
NUM_PKEYS = 16
DEFAULT_PKEY = 0

# pkey_alloc() access-rights argument bits (Linux uapi values).
PKEY_DISABLE_ACCESS = 0x1
PKEY_DISABLE_WRITE = 0x2

# Core frequency of the paper's testbed (Xeon Gold 5115, 2.4 GHz):
# converts simulated cycles to seconds where workloads need wall time.
CLOCK_HZ = 2.4e9

# Canonical start of the simulated user mmap area.
MMAP_BASE = 0x7F00_0000_0000
# Kernel's private alias area for dual-mapped libmpk metadata pages.
KERNEL_ALIAS_BASE = 0xFFFF_8000_0000


def page_align_up(addr: int) -> int:
    """Round ``addr`` up to the next page boundary."""
    return (addr + PAGE_SIZE - 1) & PAGE_MASK


def page_number(addr: int) -> int:
    """Virtual page number containing ``addr``."""
    return addr >> PAGE_SHIFT
