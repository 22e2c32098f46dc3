"""Simulated POSIX signals for MMU faults (the fault plane's front half).

Real MPK systems do not treat a pkey violation as fatal: ERIM and
friends install a SIGSEGV handler, inspect ``si_code``/``si_pkey``, and
either recover or shut the offending component down.  The simulator
mirrors that contract: when a task has signal handling enabled, the
kernel converts a :class:`~repro.errors.MachineFault` raised by the MMU
into a :class:`Siginfo` and delivers it through the ordinary task_work
machinery (:meth:`~repro.kernel.kcore.Kernel.deliver_fault`).

Faithful details worth knowing:

* ``si_code`` distinguishes unmapped pages (``SEGV_MAPERR``), page-bit
  denials (``SEGV_ACCERR``), and PKRU denials (``SEGV_PKUERR``, which
  also fills ``si_pkey``) — exactly Linux's taxonomy.
* The kernel snapshots the faulting thread's PKRU into
  ``siginfo.saved_pkru`` (the sigframe's xstate area) before the handler
  runs, and *sigreturn restores it*.  A handler that WRPKRUs itself new
  rights loses them at sigreturn — just like Linux ≥ 4.9.  Recovery
  handlers must instead edit ``siginfo.saved_pkru`` (the sigcontext
  patch pattern) or unwind past the faulting access by raising.
* An unhandled signal, or a second fault while a handler runs, kills
  the task cleanly: :class:`~repro.errors.TaskKilled` propagates, the
  process survives, and registered death hooks (libmpk unpinning) run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import MachineFault, PkeyFault, SegmentationFault

# Signal numbers (the subset the simulator delivers).  SIGKILL is only
# synthesized for machine power-off teardown (no handler may catch it).
SIGKILL = 9
SIGSEGV = 11

# SIGSEGV si_code values, matching <asm-generic/siginfo.h>.
SEGV_MAPERR = 1   # address not mapped to object
SEGV_ACCERR = 2   # invalid permissions for mapped object
SEGV_PKUERR = 4   # failed protection-key check


@dataclass
class Siginfo:
    """The simulated ``siginfo_t`` handed to a signal handler.

    ``saved_pkru`` is the 32-bit PKRU value the kernel saved in the
    sigframe; handlers may *reassign* it (``info.saved_pkru =
    with_key_rights(info.saved_pkru, key, rights)``) to change the
    rights the task resumes with — the user-space analogue of patching
    ``uc_mcontext``.  Sigreturn rejects a value outside [0, 2**32) with
    ``ValueError`` and resumes the task with the PKRU it was delivered
    with.
    """

    signo: int
    si_code: int
    si_addr: int | None = None
    si_pkey: int | None = None
    fault: MachineFault | None = None
    saved_pkru: int | None = None

    @property
    def is_pkey_fault(self) -> bool:
        return self.si_code == SEGV_PKUERR

    def describe(self) -> str:
        if self.signo == SIGKILL:
            return "SIGKILL"
        code = {SEGV_MAPERR: "SEGV_MAPERR", SEGV_ACCERR: "SEGV_ACCERR",
                SEGV_PKUERR: "SEGV_PKUERR"}.get(self.si_code,
                                                str(self.si_code))
        addr = "?" if self.si_addr is None else f"{self.si_addr:#x}"
        extra = "" if self.si_pkey is None else f" pkey={self.si_pkey}"
        return f"SIGSEGV {code} at {addr}{extra}"


def siginfo_from_fault(fault: MachineFault) -> Siginfo:
    """Map an MMU fault onto the siginfo Linux would deliver for it."""
    if isinstance(fault, PkeyFault):
        return Siginfo(signo=SIGSEGV, si_code=SEGV_PKUERR,
                       si_addr=fault.addr, si_pkey=fault.pkey,
                       fault=fault)
    if isinstance(fault, SegmentationFault) and fault.unmapped:
        return Siginfo(signo=SIGSEGV, si_code=SEGV_MAPERR,
                       si_addr=fault.addr, fault=fault)
    return Siginfo(signo=SIGSEGV, si_code=SEGV_ACCERR,
                   si_addr=fault.addr, fault=fault)
