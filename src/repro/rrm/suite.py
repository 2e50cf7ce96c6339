"""Suite-level execution and aggregation (the data behind Table I / Fig. 3).

Two paths produce per-network, per-level instruction/cycle histograms:

* :func:`network_trace` / :func:`suite_trace` — the exact static model
  (builder counts x timesteps), used at paper scale.  Plans are cached.
* :class:`SuiteRunner` — ISS execution with random Q3.12 parameters,
  bit-checked against the golden model; used at the default reduced scale
  to validate the static model end-to-end.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..core.tracer import Trace
from ..kernels.runner import NetworkPlan, NetworkProgram
from ..nn.network import Network, init_params, quantize_params
from .networks import FULL_SUITE, default_scale, suite

__all__ = ["plan_for", "network_trace", "suite_trace", "network_speedups",
           "suite_speedups", "SuiteRunner", "LEVEL_KEYS", "resolve_engine"]

LEVEL_KEYS = ("a", "b", "c", "d", "e")


def resolve_engine(engine: str, scale: int | None = None) -> str:
    """Resolve the ``"auto"`` engine choice for a validation run.

    Paper-scale runs (``scale == 1``, i.e. ``REPRO_SCALE=1``) execute
    orders of magnitude more instructions, so ``auto`` picks the turbo
    engine there and the interpreter at reduced scales, where turbo's
    compile time would dominate.  Explicit choices pass through.
    """
    if engine != "auto":
        return engine
    resolved = scale if scale is not None else default_scale()
    return "turbo" if resolved == 1 else "interp"


@lru_cache(maxsize=256)
def plan_for(network: Network, level_key: str) -> NetworkPlan:
    """Cached placement + codegen for (network, level)."""
    return NetworkPlan(network, level_key)


def network_trace(network: Network, level_key: str) -> Trace:
    """Exact per-inference histogram (one step x timesteps)."""
    step = plan_for(network, level_key).trace
    return step.scaled(network.timesteps)


def suite_trace(level_key: str, networks=FULL_SUITE) -> Trace:
    """Whole-suite histogram at one optimization level."""
    total = Trace()
    for network in networks:
        total.merge(network_trace(network, level_key))
    return total


def network_speedups(network: Network, baseline: str = "a") -> dict:
    """Cycle speedup of each level relative to ``baseline``."""
    base = network_trace(network, baseline).total_cycles
    return {key: base / network_trace(network, key).total_cycles
            for key in LEVEL_KEYS}


def suite_speedups(networks=FULL_SUITE, baseline: str = "a") -> dict:
    """Whole-suite cycle speedups per level relative to ``baseline``."""
    base = suite_trace(baseline, networks).total_cycles
    return {key: base / suite_trace(key, networks).total_cycles
            for key in LEVEL_KEYS}


class SuiteRunner:
    """ISS execution of the (scaled) suite with golden-model checking."""

    def __init__(self, scale: int | None = None, seed: int = 2020,
                 check: bool = True, engine: str = "auto"):
        self.networks = suite(scale)
        self.seed = seed
        self.check = check
        self.engine = resolve_engine(engine, scale)
        self._rng = np.random.default_rng(seed)

    def _random_input(self, network: Network) -> np.ndarray:
        floats = self._rng.uniform(-1.0, 1.0, network.input_size)
        return np.asarray(floats * 4096, dtype=np.int64)

    def run_network(self, network: Network, level_key: str) -> Trace:
        """Run one inference on the ISS; returns the execution histogram."""
        params = quantize_params(
            init_params(network, np.random.default_rng(self.seed)))
        program = NetworkProgram(network, params, level_key,
                                 engine=self.engine)
        xs = [self._random_input(network) for _ in range(network.timesteps)]
        self._run(program, xs)
        return program.trace

    def _run(self, program: NetworkProgram, xs) -> None:
        if self.check:
            program.run_and_check(xs)
        else:
            program.forward(xs)

    def run_suite(self, level_key: str) -> Trace:
        total = Trace()
        for network in self.networks:
            total.merge(self.run_network(network, level_key))
        return total

    def run_all_levels(self) -> dict:
        return {key: self.run_suite(key) for key in LEVEL_KEYS}
