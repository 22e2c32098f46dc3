"""The PKRU register: per-protection-key access/write-disable rights.

PKRU is a 32-bit register holding two bits per protection key: *access
disable* (AD, bit ``2*key``) and *write disable* (WD, bit ``2*key + 1``).
A thread's effective right to a page is the intersection of the page's
permission bits and the PKRU rights for the page's key (Figure 1 of the
paper); instruction fetches bypass PKRU entirely.

The value type here is immutable: WRPKRU replaces the whole register, so
callers build a new :class:`PKRU` and install it on a core.
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


def _check_key(key: int) -> None:
    if not 0 <= key < NUM_PKEYS:
        raise ValueError(f"protection key out of range: {key}")


def with_key_rights(value: int, key: int, rights: int) -> int:
    """The register value ``value`` with ``key``'s two-bit rights field
    replaced by ``rights``; ``ValueError`` for a bad key or bad rights
    bits.  The one encoder of a key's rights field: :meth:`PKRU.with_rights`
    and glibc ``pkey_set`` (``Task.pkey_set``) both go through it."""
    _check_key(key)
    if rights & ~(PKEY_DISABLE_ACCESS | PKEY_DISABLE_WRITE):
        raise ValueError(f"invalid pkey rights bits: {rights:#x}")
    shift = 2 * key
    return value & ~(0x3 << shift) | rights << shift


@dataclass(frozen=True)
class PKRU:
    """Immutable PKRU register value.

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
        _check_key(key)
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

    def __str__(self) -> str:
        denied = [k for k in range(NUM_PKEYS) if not self.can_read(k)]
        read_only = [k for k in range(NUM_PKEYS)
                     if self.can_read(k) and not self.can_write(k)]
        return (f"PKRU({self.value:#010x}, no-access={denied},"
                f" read-only={read_only})")


class PkruEncodeMemo:
    """Per-task memo for the kernel-side PKRU right-insertion encode.

    ``encode(base, key, rights)`` is a pure function of the base
    register *value* and the ``(key, rights)`` pair, but
    :meth:`PKRU.with_rights` re-validates and re-allocates a frozen
    value object on every call — measurable on the syscall side, where
    ``pkey_alloc``'s initial-rights install
    (``Task.set_pkru_rights_from_kernel``, the memo's one user) encodes
    against a base that rarely changes.  glibc ``pkey_set`` does not use
    it: the WRPKRU that follows every ``pkey_set`` would invalidate it
    each time, so ``Task.pkey_set`` does the bit arithmetic itself.
    The memo caches results for exactly one base value; the stamp is
    compared on every encode, so any write that lands a *different*
    PKRU on the task — WRPKRU, ``pkey_set``, a context-switch restore,
    a signal-frame restore — lazily invalidates the whole memo at the
    next use.  A stale hit is impossible by construction: a cached
    result is only ever served for the base value it was computed from.

    Counters (``hits``, ``misses``, ``invalidations``, ``encodes``)
    are registered as an obs invariant per process and checked by
    ``audit()``: every encode is exactly one hit or one miss, and every
    cached result must re-derive from the stamped base.
    """

    __slots__ = ("_base_value", "_results", "hits", "misses",
                 "invalidations", "encodes")

    def __init__(self) -> None:
        self._base_value = -1
        self._results: dict[tuple[int, int], PKRU] = {}
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.encodes = 0

    def invalidate(self) -> None:
        """Drop every cached result (the base PKRU changed)."""
        if self._results:
            self.invalidations += 1
            self._results.clear()
        self._base_value = -1

    def note_pkru_write(self, value: int) -> None:
        """Eager invalidation hook for the architectural write sites
        (WRPKRU and therefore ``pkey_set``): drop every cached result
        when the register takes a value other than the stamped base.
        The lazy stamp check in :meth:`encode` covers writes that
        bypass this hook (context-switch restore, signal-frame
        restore, lazy cross-thread sync).  Free when nothing is
        stamped (an unstamped memo holds no results)."""
        if value != self._base_value and self._base_value >= 0:
            self.invalidate()

    def encode(self, base: PKRU, key: int, rights: int) -> PKRU:
        """``base.with_rights(key, rights)``, memoized against
        ``base.value``.  Invalid ``key``/``rights`` always take the
        miss path and raise exactly as ``with_rights`` would (they are
        never cached)."""
        self.encodes += 1
        value = base.value
        if value != self._base_value:
            self.invalidate()
            self._base_value = value
        result = self._results.get((key, rights))
        if result is not None:
            self.hits += 1
            return result
        self.misses += 1
        result = base.with_rights(key, rights)
        self._results[(key, rights)] = result
        return result

    def check_consistency(self, base_of=PKRU) -> str | None:
        """Audit hook: counters must reconcile and every cached result
        must re-derive from the stamped base.  Returns a failure
        description or None."""
        if self.hits + self.misses != self.encodes:
            return (f"pkru memo counters leak: hits {self.hits} + "
                    f"misses {self.misses} != encodes {self.encodes}")
        if self._base_value >= 0:
            base = base_of(self._base_value)
            for (key, rights), result in self._results.items():
                expected = base.with_rights(key, rights)
                if result.value != expected.value:
                    return (f"stale pkru memo entry for key {key} "
                            f"rights {rights:#x}: cached "
                            f"{result.value:#010x}, expected "
                            f"{expected.value:#010x}")
        return None


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
