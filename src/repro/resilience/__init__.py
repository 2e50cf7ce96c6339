"""Resilience layer: hedged retries, adaptive failure detection,
ABFT compute-integrity, IPC fault injection, and post-run invariants.

The serving stack's earlier defenses (PR 2/6) stop at weight CRCs and
crash detection.  This package closes the remaining gaps:

- :mod:`repro.resilience.abft` — the integer column-checksum identity
  the compiled plan verifies on its matvec hot path, detecting silent
  data corruption in *compute/activations* (weight flips are the CRC
  guard's job), and the measurement of its cost.
- :mod:`repro.resilience.detector` — phi-accrual failure detector over
  worker heartbeats, replacing fixed-interval liveness assumptions and
  penalizing suspect replicas in routing.
- :mod:`repro.resilience.hedging` — hedged-retry policy and a
  deterministic token-bucket retry budget for the cluster router.
- :mod:`repro.resilience.channel` — seeded message-level fault
  injection (drop/duplicate/reorder/corrupt/delay) over router↔worker
  pipes, with per-item CRC framing so receivers detect corruption.
- :mod:`repro.resilience.invariants` — post-run checker asserting
  exactly-once settlement, deadline discipline after stop, and legal
  breaker transitions.

Modules here import from :mod:`repro.serve`; the serve/cluster layers
import from here only lazily (function level) to avoid cycles.
"""

from .abft import SdcDetected, measure_abft_overhead
from .channel import ChannelFaultLog, ChannelFaultPlan, FaultyChannel
from .detector import PhiAccrualDetector
from .hedging import HedgePolicy, RetryBudget
from .invariants import (
    InvariantReport,
    RouterAudit,
    check_breaker_transitions,
    check_requests,
    check_router_invariants,
)

__all__ = [
    "ChannelFaultLog",
    "ChannelFaultPlan",
    "FaultyChannel",
    "HedgePolicy",
    "InvariantReport",
    "PhiAccrualDetector",
    "RetryBudget",
    "RouterAudit",
    "SdcDetected",
    "check_breaker_transitions",
    "check_requests",
    "check_router_invariants",
    "measure_abft_overhead",
]
