"""RRM benchmark suite, workload generators and classical baselines.

``repro.rrm.suite`` is the suite-runner module; the ``suite(scale)``
function that lists the networks lives in :mod:`repro.rrm.networks`.
"""

from .basestation import BaseStationSim, TtiReport
from .dqn import DqnAgent, ReplayBuffer, evaluate_policy, train_dsa_agent
from .networks import FULL_SUITE, NETWORK_ORDER, default_scale, scale_network
from .scenarios import InterferenceChannel, SpectrumAccessEnv
from .suite import (LEVEL_KEYS, SuiteRunner, network_speedups, network_trace,
                    plan_for, suite_speedups, suite_trace)
from .trainer import MLPTrainer, make_wmmse_dataset, train_power_allocator
from .wmmse import sum_rate, wmmse_power_allocation

__all__ = [
    "FULL_SUITE", "NETWORK_ORDER", "scale_network", "default_scale",
    "InterferenceChannel", "SpectrumAccessEnv",
    "DqnAgent", "ReplayBuffer", "train_dsa_agent", "evaluate_policy",
    "BaseStationSim", "TtiReport",
    "LEVEL_KEYS", "SuiteRunner", "plan_for", "network_trace", "suite_trace",
    "network_speedups", "suite_speedups",
    "MLPTrainer", "make_wmmse_dataset", "train_power_allocator",
    "sum_rate", "wmmse_power_allocation",
]
