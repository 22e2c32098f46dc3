"""Inter-thread PKRU synchronization: do_pkey_sync (§4.4, Figure 7).

``mpk_mprotect`` must make a permission change *globally* visible —
mprotect semantics — even though PKRU is a per-thread register.  The
naive approach (synchronously message every thread and wait for each to
WRPKRU and acknowledge) is expensive; libmpk instead synchronizes
*lazily*:

1. the caller enters the kernel (``do_pkey_sync``),
2. the kernel queues a task_work callback on every sibling task that
   will rewrite that task's PKRU on its next return to userspace,
3. it sends rescheduling IPIs to the cores currently running those
   siblings, forcing them through the kernel-exit path *now*,
4. it returns: every running sibling has the new PKRU, and any sleeping
   sibling will pick it up before it can execute another user
   instruction.

The cost therefore scales with the number of sibling threads (one
task_work enqueue each, plus an IPI + ack wait for the running ones),
not with the number of pages — the crux of Figure 10.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:
    from repro.kernel.kcore import Kernel
    from repro.kernel.task import Task


def do_pkey_sync(kernel: "Kernel", caller: "Task", pkey: int,
                 rights: int, eager: bool = False) -> int:
    """Install ``rights`` for ``pkey`` in every thread of the caller's
    process.  Returns the number of sibling threads synchronized.

    The caller's own PKRU must already be updated (userspace WRPKRU);
    this function handles the siblings.  It charges one syscall round
    trip plus per-sibling task_work/IPI costs.

    ``eager=True`` selects the strawman the paper argues against: a
    synchronous rendezvous where the caller messages each sibling and
    *waits* for it to acknowledge after updating its PKRU.  Semantics
    are identical; only the cost differs (used by the sync ablation
    benchmark).
    """
    process = caller.process
    siblings = [t for t in process.live_tasks() if t is not caller]
    if not siblings:
        return 0

    with kernel.machine.obs.span("kernel.do_pkey_sync"):
        kernel.clock.charge(kernel.costs.syscall_overhead(),
                            site="kernel.pkey_sync.entry_exit")

        def update_pkru(task: "Task") -> None:
            task.pkru = task.pkru.with_rights(pkey, rights)

        for sibling in siblings:
            kernel.ktask_work_add(sibling, update_pkru)
        for sibling in siblings:
            kernel.kick(sibling)
            if eager:
                # Synchronous handshake: wait for the sibling to enter
                # the kernel, run the update, and send an explicit ack.
                kernel.clock.charge(kernel.costs.eager_sync_wait,
                                    site="kernel.pkey_sync.eager_wait")
                if not sibling.running:
                    # A sleeping thread must be woken and scheduled
                    # before it can acknowledge.
                    kernel.clock.charge(kernel.costs.context_switch,
                                        site="kernel.pkey_sync.wake_sleeper")
                    sibling.run_task_works()
    return len(siblings)

