"""The PKRU register: per-protection-key access/write-disable rights.

PKRU is a 32-bit register holding two bits per protection key: *access
disable* (AD, bit ``2*key``) and *write disable* (WD, bit ``2*key + 1``).
A thread's effective right to a page is the intersection of the page's
permission bits and the PKRU rights for the page's key (Figure 1 of the
paper); instruction fetches bypass PKRU entirely.

Every simulated register (``Core.pkru``, ``Task.pkru``,
``Siginfo.saved_pkru``) holds the plain 32-bit int, as the hardware
does: WRPKRU replaces the whole value.  :func:`with_key_rights` is the
one encoder of a key's rights field; :class:`PKRU` only decodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.consts import (
    NUM_PKEYS,
    PKEY_DISABLE_ACCESS,
    PKEY_DISABLE_WRITE,
    PROT_READ,
    PROT_WRITE,
)

# Per-key rights values (the (AD, WD) pair packed as AD | WD<<1).
KEY_RIGHTS_ALL = 0x0                    # read/write
KEY_RIGHTS_READ = PKEY_DISABLE_WRITE    # read-only
KEY_RIGHTS_NONE = PKEY_DISABLE_ACCESS   # no access (WD irrelevant)


def check_key(key: int) -> None:
    """``ValueError`` unless ``key`` is a protection key (0..15)."""
    if not 0 <= key < NUM_PKEYS:
        raise ValueError(f"protection key out of range: {key}")


def with_key_rights(value: int, key: int, rights: int) -> int:
    """The register value ``value`` with ``key``'s two-bit rights field
    replaced by ``rights``; ``ValueError`` for a bad key or bad rights
    bits.  The one encoder of a key's rights field: :meth:`PKRU.with_rights`,
    glibc ``pkey_set`` (``Task.pkey_set``), libmpk's gated switch
    (``Task.trusted_pkey_set``), the kernel's xstate edit
    (``Task.set_pkru_rights_from_kernel``) and ``do_pkey_sync``'s
    task_work all go through it."""
    if not 0 <= key < NUM_PKEYS:
        check_key(key)  # raises
    if rights & ~(PKEY_DISABLE_ACCESS | PKEY_DISABLE_WRITE):
        raise ValueError(f"invalid pkey rights bits: {rights:#x}")
    shift = 2 * key
    return value & ~(0x3 << shift) | rights << shift


@dataclass(frozen=True)
class PKRU:
    """A decoded PKRU value (registers hold the int itself).

    ``value`` packs 16 two-bit fields; key *k*'s AD bit is ``2k`` and its
    WD bit is ``2k + 1``, matching the hardware encoding.
    """

    value: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.value < (1 << 32):
            raise ValueError(f"PKRU value out of 32-bit range: {self.value:#x}")

    # ---- Constructors. ----

    @classmethod
    def allow_all(cls) -> "PKRU":
        """Every key readable/writable (PKRU = 0)."""
        return cls(0)

    @classmethod
    def deny_all_but_default(cls) -> "PKRU":
        """Linux's initial PKRU: key 0 full access, keys 1-15 denied.

        (The x86 init value 0x55555554: AD set for keys 1..15.)
        """
        value = 0
        for key in range(1, NUM_PKEYS):
            value |= PKEY_DISABLE_ACCESS << (2 * key)
        return cls(value)

    # ---- Queries. ----

    def rights(self, key: int) -> int:
        """The two-bit (AD | WD<<1) rights field for ``key``."""
        check_key(key)
        return (self.value >> (2 * key)) & 0x3

    def can_read(self, key: int) -> bool:
        return not self.rights(key) & PKEY_DISABLE_ACCESS

    def can_write(self, key: int) -> bool:
        rights = self.rights(key)
        return not rights & (PKEY_DISABLE_ACCESS | PKEY_DISABLE_WRITE)

    # ---- Functional updates. ----

    def with_rights(self, key: int, rights: int) -> "PKRU":
        """A copy with ``key``'s rights replaced by ``rights``."""
        return PKRU(with_key_rights(self.value, key, rights))


def rights_for_prot(prot: int) -> int:
    """Translate ``PROT_*`` bits into the closest PKRU rights value.

    PKRU can express read/write, read-only, and no-access; PROT_EXEC is
    orthogonal (instruction fetch ignores PKRU), so only the read/write
    bits matter here.
    """
    if prot & PROT_WRITE:
        return KEY_RIGHTS_ALL
    if prot & PROT_READ:
        return KEY_RIGHTS_READ
    return KEY_RIGHTS_NONE
