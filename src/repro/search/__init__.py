"""Pluggable search over a simulator-backed environment (ArchGym-style).

The exploration loop of Section 3.3 decomposes into an
:class:`Environment` (owns the evaluation backend, encoder, per-round
cross-validation fitting and checkpointing) and an :class:`Agent`
protocol (proposes each round's batch from an :class:`Observation`).
:meth:`Environment.run` drives the two — it is the loop behind
``repro.api.explore``, the package's one exploration entry point.
Strategies are selected by name through ``repro.api.explore(agent=...)``
or the CLI's ``--agent`` flag and compete in
``benchmarks/test_bench_strategies.py`` on the paper's metric,
simulations-to-error.

See ``docs/architecture.md`` (search layer) for the import layering:
``protocol``/``result``/``agents`` never import ``repro.core``;
``environment`` is the single bridge into it.
"""

from .agents import (
    AGENTS,
    BayesOptAgent,
    CommitteeAgent,
    EvolutionaryAgent,
    RandomAgent,
    SearchAgent,
    SimulatedAnnealingAgent,
    committee_select,
    make_agent,
)
from .environment import Environment
from .protocol import (
    AGENT_STATE_VERSION,
    DEFAULT_BATCH_SIZE,
    Agent,
    Observation,
    SearchError,
)
from .result import ExplorationResult, ExplorationRound

__all__ = [
    "AGENTS",
    "AGENT_STATE_VERSION",
    "Agent",
    "BayesOptAgent",
    "CommitteeAgent",
    "DEFAULT_BATCH_SIZE",
    "Environment",
    "EvolutionaryAgent",
    "ExplorationResult",
    "ExplorationRound",
    "Observation",
    "RandomAgent",
    "SearchAgent",
    "SearchError",
    "SimulatedAnnealingAgent",
    "committee_select",
    "make_agent",
]
