"""The ``SIM(p0 .. pM, A)`` facade.

The paper views the simulator as a nonlinear function from a parameter
configuration and an application to a performance result.  This module
provides that function with a pluggable engine:

* ``"interval"`` — the fast first-order model
  (:class:`repro.cpu.interval.IntervalSimulator`); used for full-space
  ground truth, exactly as the paper used its SESC cluster runs.
* ``"cycle"`` — the detailed scoreboard simulator
  (:class:`repro.cpu.ooo.CycleSimulator`); used for validation, examples
  and small sweeps.

Application profiles and interval simulators are memoized per benchmark so
sweeps pay the profiling cost once.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ..core.context import default_cache_dir
from ..obs.atomicio import atomic_write_arrays, load_cached_arrays
from ..workloads.generator import generate_trace
from ..workloads.spec import get_workload
from .config import MachineConfig
from .interval import ApplicationProfile, IntervalSimulator
from .ooo import CycleSimulator, SimulationResult

ENGINES = ("interval", "cycle")

#: bump when profile contents or the generator change incompatibly
PROFILE_VERSION = 1

_PROFILE_CACHE: Dict[Tuple[str, int], ApplicationProfile] = {}
_INTERVAL_CACHE: Dict[Tuple[str, int], IntervalSimulator] = {}


def get_application_profile(
    benchmark: str, trace_length: Optional[int] = None
) -> ApplicationProfile:
    """Build (and memoize, in memory and on disk) the measured profile for
    ``benchmark``.  Profile construction costs about two seconds (full-length
    ``mcf`` on a 2-core Xeon: 1.5-1.8 s, of which the dataflow ILP curve
    is 0.65 s, the branch-predictor simulations 0.55 s, stack-distance
    profiling 0.35 s and the BTB 0.07 s); reading the ``.npz`` disk cache
    back costs about 6 ms and everything that consumes profiles
    microseconds, so caching dominates total cost for repeated studies."""
    trace = generate_trace(benchmark, trace_length)
    key = (benchmark, len(trace))
    if key in _PROFILE_CACHE:
        return _PROFILE_CACHE[key]
    seed = get_workload(benchmark).seed
    cache_dir = default_cache_dir()
    cache_path = (
        cache_dir / f"profile-v{PROFILE_VERSION}-{benchmark}-{len(trace)}-{seed}.npz"
        if cache_dir
        else None
    )
    profile = (
        load_cached_arrays(cache_path, ApplicationProfile.from_arrays)
        if cache_path
        else None
    )
    if profile is None:
        profile = ApplicationProfile.from_trace(trace)
        if cache_path:
            try:
                atomic_write_arrays(cache_path, profile.to_arrays())
            except OSError:
                pass  # caching is best-effort
    _PROFILE_CACHE[key] = profile
    return profile


def get_interval_simulator(
    benchmark: str, trace_length: Optional[int] = None
) -> IntervalSimulator:
    """Build (and memoize) the interval evaluator for ``benchmark``."""
    profile = get_application_profile(benchmark, trace_length)
    key = (benchmark, profile.n_instructions)
    if key not in _INTERVAL_CACHE:
        _INTERVAL_CACHE[key] = IntervalSimulator(profile)
    return _INTERVAL_CACHE[key]


def clear_simulator_caches() -> None:
    """Drop memoized profiles and evaluators (used by tests)."""
    _PROFILE_CACHE.clear()
    _INTERVAL_CACHE.clear()


class Simulator:
    """Callable design-point evaluator for one engine.

    Parameters
    ----------
    engine:
        ``"interval"`` (default) or ``"cycle"``.
    trace_length:
        Optional trace-length override, mainly for fast tests.
    """

    def __init__(self, engine: str = "interval", trace_length: Optional[int] = None):
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; choices: {ENGINES}")
        self.engine = engine
        self.trace_length = trace_length

    def simulate_ipc(self, config: MachineConfig, benchmark: str) -> float:
        """Return the IPC of ``benchmark`` at design point ``config``."""
        if self.engine == "interval":
            return get_interval_simulator(
                benchmark, self.trace_length
            ).evaluate_ipc(config)
        result = self.simulate_detailed(config, benchmark)
        return result.ipc

    def simulate_detailed(
        self, config: MachineConfig, benchmark: str
    ) -> SimulationResult:
        """Run the detailed cycle engine regardless of the default engine."""
        trace = generate_trace(benchmark, self.trace_length)
        return CycleSimulator(config).run(trace)

    def __call__(self, config: MachineConfig, benchmark: str) -> float:
        return self.simulate_ipc(config, benchmark)
