"""Deterministic fault injection for the serving stack (``repro.faults``).

The paper's core runs always-on RRM inference at 0.65 V near-threshold —
the regime where weight-SRAM bit flips and transient failures are facts
of life, not corner cases.  This package provides the seeded,
scriptable fault layer the serving engine is hardened against:

* :mod:`repro.faults.plans` — :class:`FaultSpec`/:class:`FaultPlan`,
  the declarative chaos-scenario script (fault kind, target network,
  activation window in request-sequence space), the two injected
  exception types and :func:`default_scenario`, the standard script
  ``chaos-bench`` runs.
* :mod:`repro.faults.injector` — :class:`FaultInjector`, the engine's
  execution-time chokepoint: SEU bit flips into quantized weights,
  transient/persistent crashes, latency spikes, input corruption,
  poison requests and worker kills, all keyed on
  ``(seed, spec, request seq)`` so the injected fault sequence is
  bit-identical across runs.
"""

from .injector import FaultInjector, flip_bit16
from .plans import (FAULT_KINDS, FaultPlan, FaultSpec, InjectedCrash,
                    InjectedWorkerDeath, default_scenario)

__all__ = [
    "FAULT_KINDS",
    "FaultInjector",
    "FaultPlan",
    "FaultSpec",
    "InjectedCrash",
    "InjectedWorkerDeath",
    "default_scenario",
    "flip_bit16",
]
