"""The stochastic superoptimizer: cost function, transforms, and search."""

from repro.core.backends import (
    Backend,
    known_backends,
    resolve_backend,
)
from repro.core.cost import CostConfig, CostFunction, CostResult
from repro.core.mcmc import acceptance_probability, metropolis_accept
from repro.core.perf import LatencyPerf, speedup
from repro.core.result import SearchResult, SearchStats
from repro.core.runner import Runner, resolve_locations
from repro.core.parallel import (
    StokeSpec,
    default_jobs,
    run_chains,
)
from repro.core.restarts import RestartResult, run_restarts
from repro.core.search import SearchConfig, Stoke
from repro.core.slowcheck import (
    SlowCheckStats,
    counting,
    uf_slow_check,
    validation_slow_check,
)
from repro.core.strategies import (
    AnnealStrategy,
    HillClimbStrategy,
    McmcStrategy,
    RandomStrategy,
    Strategy,
    make_strategy,
)
from repro.core.transforms import OperandPool, Transforms, default_opcode_pool

__all__ = [
    "Backend",
    "known_backends",
    "resolve_backend",
    "CostConfig",
    "CostFunction",
    "CostResult",
    "acceptance_probability",
    "metropolis_accept",
    "LatencyPerf",
    "speedup",
    "SearchResult",
    "SearchStats",
    "Runner",
    "resolve_locations",
    "StokeSpec",
    "default_jobs",
    "run_chains",
    "RestartResult",
    "run_restarts",
    "SearchConfig",
    "Stoke",
    "SlowCheckStats",
    "counting",
    "uf_slow_check",
    "validation_slow_check",
    "AnnealStrategy",
    "HillClimbStrategy",
    "McmcStrategy",
    "RandomStrategy",
    "Strategy",
    "make_strategy",
    "OperandPool",
    "Transforms",
    "default_opcode_pool",
]
