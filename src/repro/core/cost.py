"""The floating-point cost function (Equations 9-11 and Section 5.2).

``eq_fast`` measures, per test case, the ULP' distance between each
live-out location of the rewrite and of the target, discards anything at
or below the minimum acceptable rounding error ``eta``, adds a penalty for
divergent signal behaviour, and reduces over the test set with ``⊕``
(``max`` by default, per Section 5.2, so correctness cost cannot overflow
no matter how many test cases are used).

Two knobs the paper leaves implicit are exposed explicitly (and covered by
ablation benchmarks):

* ``compress`` — ULP excesses span ~19 orders of magnitude; with raw
  values a unit annealing constant reduces MCMC to hill climbing.  The
  default ``"log2"`` compresses each location's excess to its bit length,
  keeping acceptance probabilities meaningful across the whole range.
* ``reduction`` — ``"max"`` (the paper's choice) or ``"sum"`` (original
  STOKE) over test cases.
"""

from __future__ import annotations

import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.fp.ieee754 import DOUBLE, SINGLE
from repro.fp.ulp import ulp_distance_bits
from repro.x86.locations import MemLoc
from repro.x86.program import Program
from repro.x86.testcase import TestCase

from repro.core.perf import LatencyPerf
from repro.core.runner import Location, Runner

# Placeholders for the two names e2ebench/phases.py::_shim_search wraps.
compile_program = None
bound_steps = None

# Penalty used when the rewrite signals and the target does not; chosen to
# dominate any achievable per-location error cost.
_SIG_DEFAULT = 256.0


@dataclass(frozen=True)
class CostConfig:
    """Weights and shape of the cost function.

    Attributes:
        eta: Minimum unacceptable ULP rounding error (Equation 10); errors
            at or below ``eta`` are free.
        k: Weight of the performance term (Equation 2); ``k = 0`` is
            synthesis mode.
        wr / wm / ws: Register / memory / signal error weights (Eq 9).
        reduction: ``"max"`` (Section 5.2) or ``"sum"`` over test cases.
        compress: ``"log2"`` or ``"none"`` compression of ULP excesses.
        perf_scale: Exchange rate passed to :class:`LatencyPerf`.
    """

    eta: float = 0.0
    k: float = 1.0
    wr: float = 1.0
    wm: float = 1.0
    ws: float = _SIG_DEFAULT
    reduction: str = "max"
    compress: str = "log2"
    perf_scale: float = 20.0

    def __post_init__(self) -> None:
        if self.reduction not in ("max", "sum"):
            raise ValueError(f"bad reduction: {self.reduction!r}")
        if self.compress not in ("log2", "none"):
            raise ValueError(f"bad compress: {self.compress!r}")
        if self.eta < 0:
            raise ValueError("eta must be non-negative")


@dataclass(frozen=True)
class CostResult:
    """Breakdown of one cost evaluation."""

    total: float
    eq: float
    perf: float
    signalled: bool

    @property
    def correct(self) -> bool:
        """True when the rewrite met the eta bound on every test case."""
        return self.eq == 0.0


def location_ulp_distance(loc: Location, bits_a: int, bits_b: int) -> float:
    """ULP' distance for FP locations; Hamming distance for fixed-point.

    Using Hamming distance for integer locations matches the original
    STOKE cost, and keeps mixed fixed/floating kernels well-behaved.
    """
    if loc.ftype == "f64":
        return float(ulp_distance_bits(bits_a, bits_b, DOUBLE))
    if loc.ftype == "f32":
        return float(ulp_distance_bits(bits_a, bits_b, SINGLE))
    return float(bin(bits_a ^ bits_b).count("1"))


class CostFunction:
    """``c(R; T) = eq(R; T) + k * perf(R; T)`` bound to a target."""

    def __init__(
        self,
        target: Program,
        tests: Sequence[TestCase],
        live_outs: Sequence[Union[str, Location]],
        config: CostConfig = CostConfig(),
        backend: str = "emulator",
        cache_size: int = 8192,
    ):
        if not tests:
            raise ValueError("at least one test case is required")
        if cache_size < 1:
            raise ValueError("cache_size must be positive")
        self.config = config
        self.runner = Runner(live_outs, backend=backend)
        self.target = target
        # Test order is adaptive: when a proposal is early-rejected, the
        # test that rejected it moves to the front (STOKE's fast-out
        # heuristic), so the next doomed proposal usually dies on its
        # first execution.  tests / target_outputs / _expected are
        # permuted in lockstep; every cost value is order-independent.
        self.tests = list(tests)
        self.perf = LatencyPerf(target.latency, scale=config.perf_scale)
        # The target must run cleanly on every test case.
        self.target_outputs = self.runner.outputs_for(target, self.tests)
        # Hot-path views of the expected outputs: one bits tuple per test
        # in runner.live_outs order, plus per-location weights, so the
        # inner loop never touches a dict.
        locs = self.runner.live_outs
        self._expected = [tuple(outs[loc] for loc in locs)
                          for outs in self.target_outputs]
        self._weights = tuple(
            config.wm if isinstance(loc, MemLoc) else config.wr
            for loc in locs)
        # Full (non-early-terminated) evaluations are memoized in a
        # bounded LRU: MCMC proposals frequently revisit recently seen
        # programs, and evicting one-at-a-time avoids the cold-cache
        # stall that wiping the whole memo mid-search used to cause.
        self._cache: "OrderedDict[Program, CostResult]" = OrderedDict()
        self._cache_max = cache_size
        self.cache_hits = 0
        self.cache_misses = 0
        # Adaptive-ordering stability window: identities of recently
        # promoted tests.  A promotion of a test already in this window
        # that sits within the window of the front is skipped — the
        # order is effectively stable and the list surgery is wasted.
        self._recent_promotes: deque = deque(maxlen=self._PROMOTE_WINDOW)
        self.promote_moves = 0
        self.promote_skips = 0

    # -- equivalence -----------------------------------------------------

    def _excess(self, ulps: float) -> float:
        """max(0, ulps - eta), optionally log2-compressed."""
        excess = ulps - self.config.eta
        if excess <= 0.0:
            return 0.0
        if self.config.compress == "log2":
            return math.log2(1.0 + excess)
        return excess

    def err_fast(self, outputs: Optional[Dict[Location, int]],
                 expected: Dict[Location, int],
                 signalled: bool) -> float:
        """Per-test-case error (Equation 9) against precomputed outputs."""
        cfg = self.config
        if signalled or outputs is None:
            return cfg.ws
        total = 0.0
        for loc, want in expected.items():
            if loc not in outputs:
                raise KeyError(
                    f"live-out location {loc} is missing from the outputs "
                    f"of the {self.runner.backend!r} backend run; outputs "
                    f"cover [{', '.join(str(k) for k in outputs)}]. The "
                    "rewrite was likely executed through a Runner with "
                    "different live-outs than this cost function's.")
            ulps = location_ulp_distance(loc, outputs[loc], want)
            weight = cfg.wm if isinstance(loc, MemLoc) else cfg.wr
            total += weight * self._excess(ulps)
        return total

    def _err_values(self, values: Tuple[int, ...],
                    expected: Tuple[int, ...]) -> float:
        """Equation 9 over aligned live-out bits tuples (hot path)."""
        total = 0.0
        for loc, weight, got, want in zip(self.runner.live_outs,
                                          self._weights, values, expected):
            total += weight * self._excess(
                location_ulp_distance(loc, got, want))
        return total

    # Batch chunk ladder: the first chunk is a single test case (with
    # adaptive ordering it alone kills most doomed proposals), then chunk
    # sizes grow geometrically so surviving proposals approach one
    # compiled-function call per test set.
    _CHUNK_GROWTH = 8
    _FIRST_CHUNK = 1
    _PROMOTE_WINDOW = 4

    def _eq_loop(self, run_chunk, early_reject_above: Optional[float],
                 perf_term: float) -> Tuple[float, bool, bool]:
        """The shared chunk-ladder reduction over the test set.

        ``run_chunk(index, end)`` executes tests ``[index, end)`` and
        returns one ``(values, signal)`` pair per test.  It is the one
        seam every test execution passes through, so the chunk schedule,
        ⊕-reduction, early-reject bound and promotion behaviour are the
        same whichever backend executes the chunks.

        Returns ``(eq, any_signal, completed)``.  When
        ``early_reject_above`` is given and the running lower bound on
        the total cost passes it, evaluation stops (``completed`` False)
        and the worst test seen so far is promoted to the front of the
        test order.
        """
        cfg = self.config
        is_max = cfg.reduction == "max"
        expected = self._expected
        count = len(self.tests)
        eq = 0.0
        signalled = False
        worst_index = 0
        worst_err = -1.0
        index = 0
        chunk = self._FIRST_CHUNK
        while index < count:
            end = min(count, index + chunk)
            results = run_chunk(index, end)
            for offset, (values, signal) in enumerate(results):
                if signal is not None:
                    err = cfg.ws
                    signalled = True
                else:
                    err = self._err_values(values, expected[index + offset])
                if err > worst_err:
                    worst_err, worst_index = err, index + offset
                if is_max:
                    if err > eq:
                        eq = err
                else:
                    eq += err
            index = end
            if (early_reject_above is not None and index < count
                    and eq + perf_term > early_reject_above):
                self._promote(worst_index)
                return eq, signalled, False
            chunk *= self._CHUNK_GROWTH
        return eq, signalled, True

    def _eq(self, prepared, early_reject_above: Optional[float] = None,
            perf_term: float = 0.0) -> Tuple[float, bool, bool]:
        """Evaluate the ⊕-reduced test error with batched dispatch."""
        tests = self.tests
        runner = self.runner

        def run_chunk(index: int, end: int):
            if end - index == 1:
                # A one-test chunk goes through the scalar entry point:
                # proposals that die on the (adaptively fronted) first
                # test never pay for compiling the batched entry point.
                return (runner.run_values(prepared, tests[index]),)
            return runner.run_batch(prepared, tests[index:end])

        return self._eq_loop(run_chunk, early_reject_above, perf_term)

    def _promote(self, index: int) -> None:
        """Move the test at ``index`` to the front of the test order.

        Promotions of a recently promoted test that already sits within
        the stability window are skipped: the order the ladder sees is
        effectively unchanged, and the triple list surgery on the hot
        path is pure waste (``promote_skips`` counts them).
        """
        if index == 0:
            self.promote_skips += 1
            return
        recent = self._recent_promotes
        ident = id(self.tests[index])
        if index < self._PROMOTE_WINDOW and ident in recent:
            self.promote_skips += 1
            return
        self.promote_moves += 1
        recent.append(ident)
        for seq in (self.tests, self.target_outputs, self._expected):
            seq.insert(0, seq.pop(index))

    def eq_fast(self, rewrite: Program) -> Tuple[float, bool]:
        """Reduce per-test errors with ⊕; returns (eq, any_signal)."""
        prepared = self.runner.prepare(rewrite)
        eq, signalled, _ = self._eq(prepared)
        return eq, signalled

    # -- full cost -------------------------------------------------------

    def cost(self, rewrite: Program,
             early_reject_above: Optional[float] = None) -> CostResult:
        """Evaluate ``c(R; T)``.

        ``early_reject_above``: if the running lower bound on the total
        cost exceeds this threshold, evaluation stops early and returns an
        upper-bound-ish result; the search only uses this for proposals
        it would reject with near certainty anyway.
        """
        cached = self._cache.get(rewrite)
        if cached is not None:
            self._cache.move_to_end(rewrite)
            self.cache_hits += 1
            return cached
        self.cache_misses += 1
        cfg = self.config
        perf = self.perf(rewrite) if cfg.k != 0.0 else 0.0
        prepared = self.runner.prepare(rewrite)
        eq, signalled, completed = self._eq(
            prepared, early_reject_above=early_reject_above,
            perf_term=cfg.k * perf)
        total = eq + cfg.k * perf
        result = CostResult(total=total, eq=eq, perf=perf, signalled=signalled)
        if completed:
            while len(self._cache) >= self._cache_max:
                self._cache.popitem(last=False)
            self._cache[rewrite] = result
        return result

    def __call__(self, rewrite: Program) -> CostResult:
        return self.cost(rewrite)
