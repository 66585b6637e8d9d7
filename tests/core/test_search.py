"""Tests for the search driver, MCMC machinery, and strategies."""

import math
import random

import pytest

from repro.x86.assembler import assemble
from repro.x86.jit import compile_cache_stats
from repro.x86.testcase import uniform_testcases

from repro.core.cost import CostConfig
from repro.core.mcmc import (
    acceptance_probability,
    metropolis_accept,
    rejection_threshold,
)
from repro.core.perf import LatencyPerf, speedup
from repro.core.search import SearchConfig, Stoke
from repro.core.strategies import (
    AnnealStrategy,
    HillClimbStrategy,
    McmcStrategy,
    RandomStrategy,
    make_strategy,
)

from tests.conftest import random_program


class TestMetropolis:
    def test_downhill_always_accepted(self):
        assert acceptance_probability(10.0, 5.0) == 1.0

    def test_uphill_probability(self):
        assert acceptance_probability(0.0, 1.0, beta=1.0) == \
            pytest.approx(math.exp(-1.0))

    def test_beta_scales(self):
        assert acceptance_probability(0.0, 1.0, beta=2.0) == \
            pytest.approx(math.exp(-2.0))

    def test_underflow_guard(self):
        assert acceptance_probability(0.0, 1e6) == 0.0

    def test_metropolis_accept_statistics(self):
        rng = random.Random(0)
        accepts = sum(metropolis_accept(rng, 0.0, 1.0) for _ in range(5000))
        assert abs(accepts / 5000 - math.exp(-1.0)) < 0.03

    def test_rejection_threshold(self):
        assert rejection_threshold(10.0, beta=1.0) == 56.0
        assert rejection_threshold(10.0, beta=0.0) == math.inf


class TestStrategies:
    def test_factory(self):
        assert isinstance(make_strategy("mcmc"), McmcStrategy)
        assert isinstance(make_strategy("hill"), HillClimbStrategy)
        assert isinstance(make_strategy("rand"), RandomStrategy)
        assert isinstance(make_strategy("anneal"), AnnealStrategy)
        with pytest.raises(ValueError):
            make_strategy("quantum")

    def test_hill_rejects_uphill(self):
        strategy = HillClimbStrategy()
        rng = random.Random(0)
        assert strategy.accept(rng, 1.0, 1.0, 0, 10)
        assert not strategy.accept(rng, 1.0, 1.01, 0, 10)

    def test_random_accepts_everything(self):
        strategy = RandomStrategy()
        assert strategy.accept(random.Random(0), 0.0, 1e9, 0, 10)

    def test_anneal_cools(self):
        strategy = AnnealStrategy(t_start=64.0, t_end=0.05)
        assert strategy.temperature(0, 100) == pytest.approx(64.0)
        assert strategy.temperature(99, 100) == pytest.approx(0.05)
        mid = strategy.temperature(50, 100)
        assert 0.05 < mid < 64.0

    def test_anneal_early_behaves_like_random(self):
        strategy = AnnealStrategy(t_start=1e6)
        rng = random.Random(0)
        accepted = sum(strategy.accept(rng, 0.0, 10.0, 0, 100)
                       for _ in range(200))
        assert accepted > 190


class TestPerf:
    def test_latency_perf_normalized(self):
        target = assemble("mulsd xmm1, xmm0\naddsd xmm1, xmm0")
        perf = LatencyPerf(target.latency, scale=20.0)
        assert perf(target) == pytest.approx(20.0)
        half = assemble("addsd xmm1, xmm0")
        assert perf(half) < 20.0

    def test_speedup(self):
        target = assemble("mulsd xmm1, xmm0\nmulsd xmm1, xmm0")
        rewrite = assemble("mulsd xmm1, xmm0")
        assert speedup(target, rewrite) == pytest.approx(2.0)


class TestSearch:
    def make_stoke(self, tiny_target, eta=0.0):
        tests = uniform_testcases(random.Random(0), 16,
                                  {"xmm0": (-50.0, 50.0)})
        return Stoke(tiny_target, tests, ["xmm0"],
                     CostConfig(eta=eta, k=1.0))

    def test_finds_faster_correct_rewrite(self, tiny_target):
        stoke = self.make_stoke(tiny_target)
        result = stoke.optimize(SearchConfig(proposals=4000, seed=3))
        assert result.found_correct
        assert result.best_correct_latency < tiny_target.latency
        assert result.speedup() > 1.0

    def test_best_correct_is_actually_correct(self, tiny_target):
        stoke = self.make_stoke(tiny_target)
        result = stoke.optimize(SearchConfig(proposals=2000, seed=5))
        eq, _ = stoke.cost_fn.eq_fast(result.best_correct)
        assert eq == 0.0

    def test_trace_is_monotone_nonincreasing(self, tiny_target):
        stoke = self.make_stoke(tiny_target)
        result = stoke.optimize(SearchConfig(proposals=1000, seed=1))
        costs = [cost for _, cost in result.trace]
        assert all(a >= b for a, b in zip(costs, costs[1:]))

    def test_deterministic_given_seed(self, tiny_target):
        stoke = self.make_stoke(tiny_target)
        r1 = stoke.optimize(SearchConfig(proposals=500, seed=9))
        stoke2 = self.make_stoke(tiny_target)
        r2 = stoke2.optimize(SearchConfig(proposals=500, seed=9))
        assert r1.best_cost == r2.best_cost
        assert r1.best_correct == r2.best_correct

    def test_extra_slots_allow_growth(self, tiny_target):
        stoke = self.make_stoke(tiny_target)
        result = stoke.search(SearchConfig(proposals=100, seed=2,
                                           extra_slots=4))
        assert len(result.best_program) == len(tiny_target) + 4

    def test_random_strategy_rarely_improves(self, tiny_target):
        stoke = self.make_stoke(tiny_target)
        result = stoke.search(SearchConfig(proposals=2000, seed=4),
                              strategy=RandomStrategy())
        mcmc = self.make_stoke(tiny_target).search(
            SearchConfig(proposals=2000, seed=4), strategy=McmcStrategy())
        # The paper's Figure 10a: random walk does not track correctness.
        assert mcmc.best_cost <= result.best_cost

    def test_stats_populated(self, tiny_target):
        stoke = self.make_stoke(tiny_target)
        result = stoke.optimize(SearchConfig(proposals=300, seed=6))
        assert result.stats.proposals == 300
        assert 0.0 <= result.stats.acceptance_rate <= 1.0
        assert result.stats.proposals_per_second > 0
        assert sum(result.stats.moves_proposed.values()) == 300

    def test_init_empty_synthesis(self, tiny_target):
        tests = uniform_testcases(random.Random(0), 8,
                                  {"xmm0": (-5.0, 5.0)})
        stoke = Stoke(tiny_target, tests, ["xmm0"],
                      CostConfig(eta=0.0, k=0.0))
        result = stoke.search(SearchConfig(proposals=200, seed=0,
                                           init="empty"))
        assert result.best_program is not None

    def test_bad_init_rejected(self, tiny_target):
        stoke = self.make_stoke(tiny_target)
        with pytest.raises(ValueError):
            stoke.search(SearchConfig(proposals=1, init="garbage"))


class TestEvaluator:
    """Search interprets every proposal in full on the emulator."""

    def test_default_search_does_no_jit_compiles(self, tiny_target):
        tests = uniform_testcases(random.Random(0), 16,
                                  {"xmm0": (-50.0, 50.0)})
        stoke = Stoke(tiny_target, tests, ["xmm0"], CostConfig(eta=1e6))
        assert stoke.cost_fn.runner.backend == "emulator"
        before = compile_cache_stats()["misses"]
        result = stoke.optimize(SearchConfig(proposals=400, seed=2))
        assert compile_cache_stats()["misses"] - before == 0
        assert result.stats.jit_cache["misses"] == 0
        assert result.stats.incremental == {}

    @pytest.mark.parametrize("backend", ("jit", "vector"))
    def test_backends_give_identical_searches(self, tiny_target, backend):
        tests = uniform_testcases(random.Random(0), 12,
                                  {"xmm0": (-4.0, 4.0)})
        config = SearchConfig(proposals=500, seed=21, extra_slots=4)
        results = [Stoke(tiny_target, tests, ["xmm0"],
                         CostConfig(eta=1e12), backend=name).optimize(config)
                   for name in ("emulator", backend)]
        default, other = results
        assert other.best_cost == default.best_cost
        assert other.trace == default.trace
        assert other.stats.accepted == default.stats.accepted
        assert other.stats.moves_accepted == default.stats.moves_accepted
        assert other.best_correct == default.best_correct

    def test_telemetry_sections(self, tiny_target):
        tests = uniform_testcases(random.Random(0), 6, {"xmm0": (-4.0, 4.0)})
        stoke = Stoke(tiny_target, tests, ["xmm0"], CostConfig(eta=1e12))
        tele = stoke.optimize(SearchConfig(proposals=300, seed=1)).telemetry
        assert tele["incremental"] == {}
        assert set(tele["dce_cache"]) == {"hits", "misses"}
        assert set(tele["test_ordering"]) == {"moves", "skips"}


class TestDceMemoization:
    def test_dce_cache_counts_hits(self, tiny_target):
        tests = uniform_testcases(random.Random(0), 8, {"xmm0": (-4.0, 4.0)})
        stoke = Stoke(tiny_target, tests, ["xmm0"], CostConfig())
        cleaned = stoke._dce(tiny_target)
        assert stoke._dce_misses == 1 and stoke._dce_hits == 0
        assert stoke._dce(tiny_target) is cleaned
        assert stoke._dce_hits == 1

    def test_dce_cache_is_bounded(self, tiny_target):
        tests = uniform_testcases(random.Random(0), 8, {"xmm0": (-4.0, 4.0)})
        stoke = Stoke(tiny_target, tests, ["xmm0"], CostConfig())
        stoke.DCE_CACHE_CAP = 4
        for seed in range(10):
            stoke._dce(random_program(seed, 5))
        assert len(stoke._dce_cache) <= 4
