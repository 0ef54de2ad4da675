"""Live scheduler service: the wall-clock driver over the mapping core.

The discrete-event simulator (:mod:`repro.sim.engine`) and this package
are two drivers over one shared mapping stack (admission → allocator →
pruner → Eq.-2 estimator → control plane):

* the **replay driver** builds a :class:`~repro.system.serverless.
  ServerlessSystem` over a :class:`~repro.sim.engine.Simulator` and
  calls ``run()`` — time jumps event-to-event;
* the **live driver** builds the same system over an
  :class:`~repro.service.timeline.AsyncTimeline` — a ``Simulator``
  subclass — and lets a :class:`~repro.service.clock.Clock` advance it:
  wall clock in production, :class:`~repro.service.clock.VirtualClock`
  in tests.

Because both drivers share one heap (identical entry ordering, identical
``now`` at every callback under exact virtual advances) and one Eq.-2
admission gate (:class:`~repro.system.admission.AdmissionController`,
covering offers, replayed arrivals and churn requeues), a golden trace
replayed through the service under virtual time produces
*byte-identical* per-task outcomes to the sim engine — asserted by
``tests/test_golden.py``.
"""

from .clock import Clock, VirtualClock, WallClock, Wake
from .service import IngressDecision, SchedulerService, run_until_quiescent
from .snapshot import restore_service, snapshot_service
from .timeline import AsyncTimeline

__all__ = [
    "AsyncTimeline",
    "Clock",
    "IngressDecision",
    "SchedulerService",
    "VirtualClock",
    "WallClock",
    "Wake",
    "restore_service",
    "snapshot_service",
    "run_until_quiescent",
]
