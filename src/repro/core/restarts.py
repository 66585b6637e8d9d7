"""Multi-chain search: independent seeded restarts.

The paper runs 16 search threads per benchmark and keeps the best result;
with Python's GIL the equivalent is independent chains fanned out over
worker processes (see :mod:`repro.core.parallel`; ``jobs=1`` runs them
in-process).  Chains are fully deterministic given their
seeds and are always aggregated in seed order, so a restart run produces
bit-identical results for any worker count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.core.result import SearchResult
from repro.core.search import SearchConfig, Stoke
from repro.core.strategies import Strategy


@dataclass
class RestartResult:
    """Best-of-N chains, with the per-chain results retained.

    ``jobs`` records the worker count the run actually used, so harness
    output and benchmark baselines can report it.
    """

    best: SearchResult
    chains: List[SearchResult] = field(default_factory=list)
    jobs: int = 1

    @property
    def chains_with_correct(self) -> int:
        return sum(1 for c in self.chains if c.found_correct)

    @property
    def telemetry(self) -> List[dict]:
        """Per-chain debugging summary (seed, rates, best-cost trace)."""
        return [c.telemetry for c in self.chains]

    def to_dict(self) -> dict:
        """Versioned JSON-safe document (see :mod:`repro.core.serialize`)."""
        from repro.core.serialize import restart_result_to_dict

        return restart_result_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RestartResult":
        from repro.core.serialize import restart_result_from_dict

        return restart_result_from_dict(data)


def _better(a: SearchResult, b: SearchResult) -> SearchResult:
    """Prefer a correct rewrite; among correct ones, the fastest."""
    if a.found_correct != b.found_correct:
        return a if a.found_correct else b
    if a.found_correct:
        return a if a.best_correct_latency <= b.best_correct_latency else b
    return a if a.best_cost <= b.best_cost else b


def aggregate(chains: List[SearchResult], jobs: int = 1) -> RestartResult:
    """Fold per-chain results (in seed order) into a RestartResult."""
    if not chains:
        raise ValueError("need at least one chain result")
    best = chains[0]
    for result in chains[1:]:
        best = _better(best, result)
    return RestartResult(best=best, chains=list(chains), jobs=jobs)


def run_restarts(stoke: Stoke, config: SearchConfig, chains: int,
                 strategy: Optional[Strategy] = None,
                 jobs: Optional[int] = 1,
                 spec=None) -> RestartResult:
    """Run ``chains`` independent searches with derived seeds.

    Seeds are ``config.seed, config.seed + 1, ...`` so a restart run is
    reproducible and any individual chain can be re-run in isolation.

    ``jobs`` selects the worker count: ``1`` (the default) runs the
    chains in-process on ``stoke`` itself; ``None`` or ``0`` auto-sizes
    to the CPU count; ``>1`` fans chains out over worker processes, each
    of which rebuilds its own optimizer from ``spec`` (derived from
    ``stoke`` when not given — a ``Stoke`` with a ``slow_check`` needs
    an explicit picklable spec or factory).  Aggregate results are
    bit-identical across worker counts for a fixed seed list.
    """
    from repro.core.parallel import (StokeSpec, chain_configs,
                                     resolve_jobs, run_chains)

    configs = chain_configs(config, chains)
    jobs = resolve_jobs(jobs, chains)
    if jobs == 1:
        spec = lambda: stoke  # noqa: E731 - an inline pool never pickles
    elif spec is None:
        spec = StokeSpec.from_stoke(stoke)
    results = run_chains(spec, configs, jobs=jobs, strategy=strategy)
    return aggregate(results, jobs=jobs)
