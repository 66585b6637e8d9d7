"""The STOKE search driver.

Runs the Metropolis-Hastings chain of Section 2.2 (or one of the
Section 6.4 alternates) over programs: propose a transform, evaluate the
cost function, accept or reject, and remember both the best-cost sample
and the best *correct* rewrite seen.  ``k = 0`` in the cost config puts
the search in synthesis mode; any other value is optimization mode.
"""

from __future__ import annotations

import random
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

from repro.x86.instruction import UNUSED
from repro.x86.jit import compile_cache_stats
from repro.x86.liveness import dead_code_eliminate
from repro.x86.program import Program

from repro.core.cost import CostConfig, CostFunction
from repro.core.mcmc import rejection_threshold
from repro.core.result import SearchResult, SearchStats
from repro.core.runner import Location
from repro.core.strategies import McmcStrategy, Strategy
from repro.core.transforms import Transforms


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of one search run.

    The paper runs 10M proposals across 16 threads; pure-Python defaults
    are scaled down and every harness documents its choice.
    """

    proposals: int = 20_000
    seed: int = 0
    init: str = "target"  # 'target' | 'empty'
    extra_slots: int = 0  # UNUSED padding appended to the target
    trace_points: int = 64
    early_reject: bool = True


@dataclass
class SearchCheckpoint:
    """Exact mid-chain state: resuming reproduces the uninterrupted run.

    Everything the chain's future depends on is captured — the RNG
    state, the current/best programs, and the cumulative counters — so
    ``search(config, resume=cp)`` emits the bit-identical remainder of
    the chain (programs, costs, trace, counters; wall-clock timings and
    evaluator-cache telemetry are measured per call and excluded from
    the identity).  The config echo guards against resuming a
    checkpoint under a different search.
    """

    iteration: int
    rng_state: tuple
    current: Program
    best_program: Program
    best_cost: float
    best_correct: Optional[Program]
    best_correct_latency: Optional[int]
    proposals: int
    accepted: int
    invalid_proposals: int
    moves_proposed: dict
    moves_accepted: dict
    trace: list
    elapsed_seconds: float
    # Config echo checked by resume.
    seed: int = 0
    total_proposals: int = 0
    init: str = "target"
    extra_slots: int = 0

    def to_dict(self) -> dict:
        from repro.core import serialize as S

        return {
            "version": S.SCHEMA_VERSION,
            "kind": "search_checkpoint",
            "iteration": self.iteration,
            "rng_state": S.enc_rng_state(self.rng_state),
            "current": S.program_to_dict(self.current),
            "best_program": S.program_to_dict(self.best_program),
            "best_cost": S.enc_float(self.best_cost),
            "best_correct": S.program_to_dict(self.best_correct),
            "best_correct_latency": self.best_correct_latency,
            "proposals": self.proposals,
            "accepted": self.accepted,
            "invalid_proposals": self.invalid_proposals,
            "moves_proposed": dict(self.moves_proposed),
            "moves_accepted": dict(self.moves_accepted),
            "trace": [[i, S.enc_float(c)] for i, c in self.trace],
            "elapsed_seconds": self.elapsed_seconds,
            "seed": self.seed,
            "total_proposals": self.total_proposals,
            "init": self.init,
            "extra_slots": self.extra_slots,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchCheckpoint":
        from repro.core import serialize as S

        S.check_version(data, "SearchCheckpoint")
        latency = data["best_correct_latency"]
        return cls(
            iteration=int(data["iteration"]),
            rng_state=S.dec_rng_state(data["rng_state"]),
            current=S.program_from_dict(data["current"]),
            best_program=S.program_from_dict(data["best_program"]),
            best_cost=S.dec_float(data["best_cost"]),
            best_correct=S.program_from_dict(data["best_correct"]),
            best_correct_latency=None if latency is None else int(latency),
            proposals=int(data["proposals"]),
            accepted=int(data["accepted"]),
            invalid_proposals=int(data["invalid_proposals"]),
            moves_proposed=dict(data["moves_proposed"]),
            moves_accepted=dict(data["moves_accepted"]),
            trace=[(int(i), S.dec_float(c)) for i, c in data["trace"]],
            elapsed_seconds=float(data["elapsed_seconds"]),
            seed=int(data["seed"]),
            total_proposals=int(data["total_proposals"]),
            init=data["init"],
            extra_slots=int(data["extra_slots"]),
        )


class Stoke:
    """A configured stochastic optimizer for one target program."""

    # Remembered slow-check failures are bounded: a long chain can push
    # an unbounded stream of distinct near-correct candidates through the
    # slow check, and remembering every one of them forever leaked memory
    # on multi-hour searches.  LRU eviction keeps the candidates the
    # chain is actually revisiting.
    SLOW_CHECK_FAILURE_CAP = 1024
    # Memoized dead-code elimination results (chains sit on and revisit
    # the same correct programs for long stretches).
    DCE_CACHE_CAP = 4096

    def __init__(
        self,
        target: Program,
        tests: Sequence,
        live_outs: Sequence[Union[str, Location]],
        cost_config: CostConfig = CostConfig(),
        transforms: Optional[Transforms] = None,
        backend: str = "emulator",
        slow_check=None,
    ):
        """``slow_check`` is the second tier of Equation 5: a callable
        ``Program -> bool`` run on candidate best rewrites after they pass
        the fast test-case check (see :mod:`repro.core.slowcheck`).

        Every proposal is a program never seen before that runs on a
        handful of tests, so translating it to a compiled backend never
        pays off: search interprets each proposal in full on the
        emulator.  ``backend`` exists for differential tests."""
        self.target = target
        self.cost_fn = CostFunction(target, tests, live_outs,
                                    config=cost_config, backend=backend)
        self.transforms = transforms if transforms is not None \
            else Transforms(target)
        self.slow_check = slow_check
        self._slow_check_failures: "OrderedDict[Program, None]" = \
            OrderedDict()
        self._dce_cache: "OrderedDict[Program, Program]" = OrderedDict()
        self._dce_hits = 0
        self._dce_misses = 0
        self.live_out_names = {
            getattr(loc, "reg", "mem") for loc in self.cost_fn.runner.live_outs
        }

    def _dce(self, program: Program) -> Program:
        """Memoized :func:`dead_code_eliminate` over this search's
        live-outs (bounded LRU; chains revisit correct candidates)."""
        cached = self._dce_cache.get(program)
        if cached is not None:
            self._dce_cache.move_to_end(program)
            self._dce_hits += 1
            return cached
        self._dce_misses += 1
        cleaned = dead_code_eliminate(program, self.live_out_names)
        while len(self._dce_cache) >= self.DCE_CACHE_CAP:
            self._dce_cache.popitem(last=False)
        self._dce_cache[program] = cleaned
        return cleaned

    def _record_correct(self, program: Program,
                        best: Optional[Program],
                        best_latency: Optional[int]):
        """Fold a correct program into the best-correct pair.

        The DCE-cleaned form is preferred when the conservative cleaning
        is confirmed still correct on the test set; comparing cleaned
        latencies (cleaned <= raw always) means a rewrite whose raw form
        loses but whose cleaned form wins is not missed.
        """
        cleaned = self._dce(program)
        if best is not None and cleaned.latency >= best_latency:
            return best, best_latency
        candidate = program
        if cleaned != program and self.cost_fn.eq_fast(cleaned)[0] == 0.0:
            candidate = cleaned
        if (best is None or candidate.latency < best_latency) \
                and self._passes_slow_check(candidate):
            return candidate, candidate.latency
        return best, best_latency

    def _passes_slow_check(self, program: Program) -> bool:
        if self.slow_check is None:
            return True
        failures = self._slow_check_failures
        if program in failures:
            failures.move_to_end(program)
            return False
        if self.slow_check(program):
            return True
        while len(failures) >= self.SLOW_CHECK_FAILURE_CAP:
            failures.popitem(last=False)
        failures[program] = None
        return False

    def _initial(self, config: SearchConfig) -> Program:
        padded = self.target.padded(len(self.target.slots) + config.extra_slots)
        if config.init == "target":
            return padded
        if config.init == "empty":
            return Program([UNUSED] * len(padded.slots))
        raise ValueError(f"unknown init: {config.init!r}")

    def _step(self, rng, strategy, beta: float, config: SearchConfig,
              stats: SearchStats, iteration: int, current: Program,
              current_cost):
        """One propose -> evaluate -> accept step of the chain.

        Returns ``(current, current_cost, proposal, result)`` with
        ``proposal``/``result`` None for invalid moves.
        """
        proposal, move = self.transforms.propose(rng, current)
        stats.moves_proposed[move] = stats.moves_proposed.get(move, 0) + 1
        if proposal is None:
            stats.invalid_proposals += 1
            return current, current_cost, None, None
        threshold = None
        if config.early_reject and isinstance(strategy, McmcStrategy):
            threshold = rejection_threshold(current_cost.total, beta)
        result = self.cost_fn.cost(proposal, early_reject_above=threshold)
        if strategy.accept(rng, current_cost.total, result.total,
                           iteration, config.proposals):
            stats.accepted += 1
            stats.moves_accepted[move] = stats.moves_accepted.get(move, 0) + 1
            current, current_cost = proposal, result
        return current, current_cost, proposal, result

    def search(self, config: SearchConfig = SearchConfig(),
               strategy: Optional[Strategy] = None,
               checkpoint_every: int = 0,
               on_checkpoint: Optional[Callable[[SearchCheckpoint], None]]
               = None,
               resume: Optional[SearchCheckpoint] = None) -> SearchResult:
        """Run one chain and return the results.

        ``checkpoint_every`` > 0 calls ``on_checkpoint`` with an exact
        :class:`SearchCheckpoint` every that-many iterations; ``resume``
        continues a chain from such a checkpoint and produces the
        bit-identical remainder of the uninterrupted run (wall-clock
        timings and evaluator-cache telemetry excepted — those are
        measured per call).
        """
        strategy = strategy if strategy is not None else McmcStrategy()
        rng = random.Random(config.seed)
        stats = SearchStats()
        beta = getattr(strategy, "beta", 1.0)
        jit_cache_before = compile_cache_stats()
        dce_before = (self._dce_hits, self._dce_misses)
        ordering_before = (self.cost_fn.promote_moves,
                           self.cost_fn.promote_skips)

        elapsed_base = 0.0
        if resume is not None:
            echo = (resume.seed, resume.total_proposals, resume.init,
                    resume.extra_slots)
            want = (config.seed, config.proposals, config.init,
                    config.extra_slots)
            if echo != want:
                raise ValueError(
                    f"checkpoint was taken under config {echo} "
                    f"(seed, proposals, init, extra_slots); "
                    f"resuming under {want}")
            rng.setstate(resume.rng_state)
            current = resume.current
            current_cost = self.cost_fn.cost(current)
            best_program, best_cost = resume.best_program, resume.best_cost
            best_correct = resume.best_correct
            best_correct_latency = resume.best_correct_latency
            stats.proposals = resume.proposals
            stats.accepted = resume.accepted
            stats.invalid_proposals = resume.invalid_proposals
            stats.moves_proposed = dict(resume.moves_proposed)
            stats.moves_accepted = dict(resume.moves_accepted)
            trace = list(resume.trace)
            elapsed_base = resume.elapsed_seconds
            first_iteration = resume.iteration + 1
        else:
            current = self._initial(config)
            current_cost = self.cost_fn.cost(current)
            best_program, best_cost = current, current_cost.total
            best_correct = None
            best_correct_latency = None
            if current_cost.correct:
                best_correct, best_correct_latency = \
                    self._record_correct(current, None, None)
            trace = [(0, best_cost)]
            first_iteration = 1

        trace_stride = max(1, config.proposals // max(1, config.trace_points))
        started = time.perf_counter()

        for iteration in range(first_iteration, config.proposals + 1):
            stats.proposals += 1
            current, current_cost, proposal, result = self._step(
                rng, strategy, beta, config, stats, iteration,
                current, current_cost)
            if result is not None:
                if result.correct:
                    best_correct, best_correct_latency = \
                        self._record_correct(proposal, best_correct,
                                             best_correct_latency)
                if result.total < best_cost:
                    best_program, best_cost = proposal, result.total
            if iteration % trace_stride == 0 or iteration == config.proposals:
                trace.append((iteration, best_cost))
            if (checkpoint_every and on_checkpoint is not None
                    and iteration % checkpoint_every == 0
                    and iteration < config.proposals):
                on_checkpoint(SearchCheckpoint(
                    iteration=iteration,
                    rng_state=rng.getstate(),
                    current=current,
                    best_program=best_program,
                    best_cost=best_cost,
                    best_correct=best_correct,
                    best_correct_latency=best_correct_latency,
                    proposals=stats.proposals,
                    accepted=stats.accepted,
                    invalid_proposals=stats.invalid_proposals,
                    moves_proposed=dict(stats.moves_proposed),
                    moves_accepted=dict(stats.moves_accepted),
                    trace=list(trace),
                    elapsed_seconds=elapsed_base
                    + (time.perf_counter() - started),
                    seed=config.seed,
                    total_proposals=config.proposals,
                    init=config.init,
                    extra_slots=config.extra_slots,
                ))

        stats.elapsed_seconds = elapsed_base + (time.perf_counter() - started)
        jit_cache_after = compile_cache_stats()
        stats.jit_cache = {
            key: jit_cache_after[key] - jit_cache_before[key]
            for key in ("hits", "misses", "evictions")
        }
        stats.jit_cache["size"] = jit_cache_after["size"]
        stats.dce_cache = {
            "hits": self._dce_hits - dce_before[0],
            "misses": self._dce_misses - dce_before[1],
        }
        stats.test_ordering = {
            "moves": self.cost_fn.promote_moves - ordering_before[0],
            "skips": self.cost_fn.promote_skips - ordering_before[1],
        }
        return SearchResult(
            target=self.target,
            best_program=best_program,
            best_cost=best_cost,
            best_correct=best_correct,
            best_correct_latency=best_correct_latency,
            stats=stats,
            trace=trace,
            seed=config.seed,
        )

    def optimize(self, config: SearchConfig = SearchConfig()) -> SearchResult:
        """MCMC optimization with the default strategy."""
        return self.search(config, McmcStrategy())
