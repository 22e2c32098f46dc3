"""Exception hierarchy for the simulated machine, kernel, and libmpk.

Faults raised by the simulated MMU subclass :class:`MachineFault`; kernel
syscall failures subclass :class:`KernelError` and carry an errno-style
code; libmpk API misuse subclasses :class:`MpkError`.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this package."""


# --------------------------------------------------------------------------
# Hardware faults (delivered by the simulated MMU / CPU).
# --------------------------------------------------------------------------

class MachineFault(ReproError):
    """An access violation detected by the simulated hardware."""

    def __init__(self, message: str, *, addr: int | None = None,
                 access: str | None = None) -> None:
        super().__init__(message)
        self.addr = addr
        self.access = access


class SegmentationFault(MachineFault):
    """Page-permission (or unmapped-page) violation — SIGSEGV.

    ``unmapped`` distinguishes the two SIGSEGV ``si_code`` flavours:
    True means no mapping existed (SEGV_MAPERR), False means the page
    bits denied the access (SEGV_ACCERR).
    """

    def __init__(self, message: str, *, addr: int | None = None,
                 access: str | None = None, unmapped: bool = False) -> None:
        super().__init__(message, addr=addr, access=access)
        self.unmapped = unmapped


class PkeyFault(SegmentationFault):
    """Access denied by PKRU rights for the page's protection key.

    Linux reports these as SIGSEGV with ``si_code = SEGV_PKUERR``; we keep
    a distinct subclass so tests can tell page faults from pkey faults.
    """

    def __init__(self, message: str, *, addr: int | None = None,
                 access: str | None = None, pkey: int | None = None) -> None:
        super().__init__(message, addr=addr, access=access)
        self.pkey = pkey


class GeneralProtectionFault(MachineFault):
    """Malformed privileged/special instruction execution (e.g. WRPKRU
    with non-zero ECX/EDX)."""


# --------------------------------------------------------------------------
# Kernel errors (syscall failures).
# --------------------------------------------------------------------------

class KernelError(ReproError):
    """A syscall failed; ``errno`` mirrors the Linux error code name."""

    def __init__(self, errno: str, message: str) -> None:
        super().__init__(f"[{errno}] {message}")
        self.errno = errno


class InvalidArgument(KernelError):
    def __init__(self, message: str) -> None:
        super().__init__("EINVAL", message)


class OutOfMemory(KernelError):
    def __init__(self, message: str) -> None:
        super().__init__("ENOMEM", message)


class NoSpace(KernelError):
    """All hardware protection keys are allocated (ENOSPC)."""

    def __init__(self, message: str) -> None:
        super().__init__("ENOSPC", message)


# --------------------------------------------------------------------------
# libmpk errors.
# --------------------------------------------------------------------------

class MpkError(ReproError):
    """libmpk API misuse or unsatisfiable request."""


class MpkKeyExhaustion(MpkError):
    """mpk_begin() could not map a hardware key: every key is pinned.

    The paper specifies that mpk_begin() raises an exception in this case
    and lets the calling thread handle it (e.g. sleep until a key frees).
    """


class MpkTimeout(MpkError):
    """A bounded key wait expired before a hardware key freed.

    A timed ``Libmpk.begin_blocking`` wait raises this (the ETIMEDOUT
    analogue of a ``futex(FUTEX_WAIT, ..., timeout)`` expiry), thrown
    by its driver (the serving engine or ``mpk_begin_wait``) after
    removing the waiter from the key wait queue; the caller decides
    whether to shed the request, retry, or escalate.
    """

    errno = "ETIMEDOUT"

    def __init__(self, message: str, *, vkey: int | None = None,
                 waited_cycles: float | None = None) -> None:
        super().__init__(message)
        self.vkey = vkey
        self.waited_cycles = waited_cycles


class MpkUnknownVkey(MpkError):
    """The virtual key has no page group (not created via mpk_mmap())."""


class MpkVkeyInUse(MpkError):
    """mpk_mmap() was called with a virtual key that already has a group."""


class MpkMetadataTampering(MpkError):
    """Load-time/call-site verification rejected a libmpk invocation."""


# --------------------------------------------------------------------------
# Fault plane (repro.faults).
# --------------------------------------------------------------------------

class InjectedFault(ReproError):
    """A failure fired by the deterministic fault injector.

    Carries the charge-site label and the 1-based occurrence count at
    which the injection plan triggered, so a failing campaign run can be
    replayed exactly by re-arming the same (site, occurrence) pair.
    """

    def __init__(self, message: str, *, site: str | None = None,
                 occurrence: int | None = None) -> None:
        super().__init__(message)
        self.site = site
        self.occurrence = occurrence


class InjectionError(ReproError):
    """The fault injector itself was misused (as opposed to
    :class:`InjectedFault`, which is an injected *failure*).

    Raised when an armed action cannot possibly do what the script
    asked — e.g. a ``kill_task`` plan whose victim resolves to a task
    that is already dead, or to a task belonging to a different kernel
    than the one the action was armed against.  Surfacing these loudly
    keeps chaos scripts honest: a plan that silently fizzles because it
    named the wrong victim would report a survived storm that never
    actually landed.
    """

    def __init__(self, message: str, *, site: str | None = None,
                 occurrence: int | None = None) -> None:
        super().__init__(message)
        self.site = site
        self.occurrence = occurrence


class TaskKilled(ReproError):
    """A task died from an unhandled (or doubly-faulting) signal.

    The process stays usable: sibling tasks keep running, and libmpk's
    task-death hook has already unpinned the dead thread's page groups.
    """

    def __init__(self, message: str, *, tid: int | None = None,
                 siginfo=None) -> None:
        super().__init__(message)
        self.tid = tid
        self.siginfo = siginfo


class SandboxViolation(ReproError):
    """A WRPKRU executed outside a trusted call gate.

    Models the §7 mitigation for control-flow hijacking: ERIM-style
    binary scanning guarantees the only reachable WRPKRU instructions
    sit behind libmpk's call gates, so a hijacked control flow cannot
    mint itself pkey rights.
    """
