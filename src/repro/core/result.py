"""Search results and cost traces."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.x86.program import Program


@dataclass
class SearchStats:
    """Aggregate statistics of one search run."""

    proposals: int = 0
    accepted: int = 0
    invalid_proposals: int = 0
    elapsed_seconds: float = 0.0
    moves_proposed: dict = field(default_factory=dict)
    moves_accepted: dict = field(default_factory=dict)
    # JIT compile-cache hit/miss/eviction deltas attributable to this
    # chain (zero deltas when the search ran on the emulator backend).
    jit_cache: dict = field(default_factory=dict)
    # Always empty: the search has no incremental evaluator.  The field
    # keeps the serialized result shape that e2ebench/ reads.
    incremental: dict = field(default_factory=dict)
    # DCE memoization hit/miss deltas (Stoke._dce).
    dce_cache: dict = field(default_factory=dict)
    # Adaptive test-ordering promotions: actual reorders vs. skipped
    # stable-window promotions.
    test_ordering: dict = field(default_factory=dict)

    @property
    def acceptance_rate(self) -> float:
        evaluated = self.proposals - self.invalid_proposals
        return self.accepted / evaluated if evaluated else 0.0

    @property
    def proposals_per_second(self) -> float:
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.proposals / self.elapsed_seconds


@dataclass
class SearchResult:
    """Outcome of a STOKE search.

    ``best_correct`` is the lowest-latency rewrite whose equivalence cost
    was exactly zero (every test case within ``eta``); ``best_program`` is
    the lowest-total-cost sample seen regardless of correctness.  The
    ``trace`` records ``(iteration, best_cost_so_far)`` pairs for the
    Figure 10 convergence plots.  ``seed`` is the chain's RNG seed, so an
    individual chain of a multi-chain run can be re-run in isolation.
    """

    target: Program
    best_program: Program
    best_cost: float
    best_correct: Optional[Program]
    best_correct_latency: Optional[int]
    stats: SearchStats
    trace: List[Tuple[int, float]] = field(default_factory=list)
    seed: Optional[int] = None

    @property
    def found_correct(self) -> bool:
        return self.best_correct is not None

    @property
    def telemetry(self) -> dict:
        """JSON-friendly per-chain debugging summary."""
        return {
            "seed": self.seed,
            "proposals": self.stats.proposals,
            "proposals_per_second": self.stats.proposals_per_second,
            "acceptance_rate": self.stats.acceptance_rate,
            "invalid_proposals": self.stats.invalid_proposals,
            "elapsed_seconds": self.stats.elapsed_seconds,
            "best_cost": self.best_cost,
            "found_correct": self.found_correct,
            "best_correct_latency": self.best_correct_latency,
            "jit_compile_cache": dict(self.stats.jit_cache),
            "incremental": dict(self.stats.incremental),
            "dce_cache": dict(self.stats.dce_cache),
            "test_ordering": dict(self.stats.test_ordering),
            "best_cost_trace": list(self.trace),
        }

    def speedup(self) -> float:
        """Latency-model speedup of the best correct rewrite."""
        if self.best_correct is None:
            return 1.0
        latency = self.best_correct.latency
        return float("inf") if latency == 0 else self.target.latency / latency

    def to_dict(self) -> dict:
        """Versioned JSON-safe document (see :mod:`repro.core.serialize`)."""
        from repro.core.serialize import search_result_to_dict

        return search_result_to_dict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SearchResult":
        from repro.core.serialize import search_result_from_dict

        return search_result_from_dict(data)
