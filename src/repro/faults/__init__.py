"""The fault plane: simulated signals, failure injection, auditing.

Four coupled pieces (each in its own module):

* :mod:`repro.faults.signals` — POSIX-shaped siginfo for MMU and pkey
  faults; the kernel delivers them through the task_work spine.
* :mod:`repro.faults.inject` — a :class:`~repro.obs.ChargeSink` that
  fires scripted failures at exact (site, occurrence) points.
* :mod:`repro.faults.script` — the one fault-script shape: a
  :class:`~repro.faults.script.FaultEvent` tuple, its JSON codec, and
  :func:`~repro.faults.script.arm_script`, which arms a script through
  a caller's kind → action-factory table.
* :mod:`repro.faults.audit` / :mod:`repro.faults.campaign` — the
  crash-consistency auditor and the exhaustive sweep driving it.
"""

from repro.faults.audit import AuditReport, audit_libmpk
from repro.faults.campaign import (
    CampaignReport,
    RunRecord,
    Table1Workload,
    run_campaign,
)
from repro.faults.inject import (
    FaultInjector,
    InjectionEvent,
    InjectionPlan,
    delay,
    raise_error,
)
from repro.faults.script import FaultEvent, arm_script
from repro.faults.signals import (
    SEGV_ACCERR,
    SEGV_MAPERR,
    SEGV_PKUERR,
    SIGSEGV,
    Siginfo,
    siginfo_from_fault,
)

__all__ = [
    "AuditReport",
    "CampaignReport",
    "FaultEvent",
    "FaultInjector",
    "InjectionEvent",
    "InjectionPlan",
    "RunRecord",
    "SEGV_ACCERR",
    "SEGV_MAPERR",
    "SEGV_PKUERR",
    "SIGSEGV",
    "Siginfo",
    "Table1Workload",
    "arm_script",
    "audit_libmpk",
    "delay",
    "raise_error",
    "run_campaign",
    "siginfo_from_fault",
]
