"""Tests for the process-parallel multi-chain search engine."""

import pickle
import random

import pytest

from repro.x86.assembler import assemble
from repro.x86.testcase import uniform_testcases

from repro.core import (
    CostConfig,
    SearchConfig,
    Stoke,
    StokeSpec,
    run_restarts,
)
from repro.core.parallel import (
    build_stoke,
    chain_configs,
    default_jobs,
    resolve_jobs,
    run_chains,
    run_seeded_chains,
)
from repro.core.restarts import RestartResult


def _tests():
    return uniform_testcases(random.Random(0), 16, {"xmm0": (-50.0, 50.0)})


def _spec(tiny_target):
    return StokeSpec(target=tiny_target, tests=tuple(_tests()),
                     live_outs=("xmm0",),
                     cost_config=CostConfig(eta=0.0, k=1.0))


def _chain_fingerprint(result):
    return (result.seed, result.best_cost, result.best_program,
            result.best_correct, result.best_correct_latency,
            result.stats.accepted, result.stats.invalid_proposals,
            result.stats.moves_proposed, result.stats.moves_accepted,
            tuple(result.trace))


class TestStokeSpec:
    def test_spec_is_picklable_and_builds(self, tiny_target):
        spec = _spec(tiny_target)
        rebuilt = pickle.loads(pickle.dumps(spec))
        stoke = build_stoke(rebuilt)
        assert isinstance(stoke, Stoke)
        assert stoke.target == tiny_target

    def test_from_stoke_roundtrip(self, tiny_target):
        stoke = Stoke(tiny_target, _tests(), ["xmm0"],
                      CostConfig(eta=0.0, k=1.0))
        spec = StokeSpec.from_stoke(stoke)
        clone = spec.build()
        config = SearchConfig(proposals=200, seed=3)
        assert _chain_fingerprint(stoke.search(config)) == \
            _chain_fingerprint(clone.search(config))

    def test_from_stoke_rejects_slow_check(self, tiny_target):
        stoke = Stoke(tiny_target, _tests(), ["xmm0"],
                      CostConfig(eta=0.0, k=1.0),
                      slow_check=lambda program: True)
        with pytest.raises(ValueError):
            StokeSpec.from_stoke(stoke)

    def test_factory_spec(self, tiny_target):
        calls = []

        def factory():
            calls.append(1)
            return Stoke(tiny_target, _tests(), ["xmm0"],
                         CostConfig(eta=0.0, k=1.0))

        results = run_chains(factory, chain_configs(
            SearchConfig(proposals=100, seed=0), 2), jobs=1)
        assert len(results) == 2
        assert calls == [1]  # one worker (in-process) -> one build


class TestJobResolution:
    def test_default_jobs_positive(self):
        assert default_jobs() >= 1
        assert default_jobs(chains=1) == 1

    def test_resolve_auto(self):
        assert resolve_jobs(None, 8) == default_jobs(8)
        assert resolve_jobs(0, 8) == default_jobs(8)

    def test_resolve_caps_at_chains(self):
        assert resolve_jobs(16, 3) == 3

    def test_resolve_rejects_negative(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1, 4)

    def test_chain_configs_seeds(self):
        configs = chain_configs(SearchConfig(proposals=10, seed=7), 3)
        assert [c.seed for c in configs] == [7, 8, 9]

    def test_chain_configs_rejects_zero(self):
        with pytest.raises(ValueError):
            chain_configs(SearchConfig(), 0)


class TestDeterminism:
    """Same seeds => bit-identical results for any worker count."""

    def test_serial_vs_parallel_chains(self, tiny_target):
        spec = _spec(tiny_target)
        config = SearchConfig(proposals=400, seed=5)
        serial = run_seeded_chains(spec, config, chains=4, jobs=1)
        parallel = run_seeded_chains(spec, config, chains=4, jobs=2)
        assert [_chain_fingerprint(r) for r in serial] == \
            [_chain_fingerprint(r) for r in parallel]

    def test_run_restarts_jobs_equivalence(self, tiny_target):
        def mk():
            return Stoke(tiny_target, _tests(), ["xmm0"],
                         CostConfig(eta=0.0, k=1.0))

        config = SearchConfig(proposals=400, seed=0)
        serial = run_restarts(mk(), config, chains=3, jobs=1)
        parallel = run_restarts(mk(), config, chains=3, jobs=3)
        assert serial.jobs == 1 and parallel.jobs == 3
        assert _chain_fingerprint(serial.best) == \
            _chain_fingerprint(parallel.best)
        assert [_chain_fingerprint(c) for c in serial.chains] == \
            [_chain_fingerprint(c) for c in parallel.chains]

    def test_run_restarts_after_parent_executed_programs(self, tiny_target):
        # The parent runs the target (and a search) on the emulator
        # before fanning out, so the programs it ships to the workers
        # carry cached bound steps, which must not travel.
        def mk():
            return Stoke(tiny_target, _tests(), ["xmm0"],
                         CostConfig(eta=0.0, k=1.0))

        config = SearchConfig(proposals=300, seed=2)
        stoke = mk()
        stoke.search(config)
        assert stoke.target._steps is not None  # cached by the runs above
        parallel = run_restarts(stoke, config, chains=2, jobs=2)
        serial = run_restarts(mk(), config, chains=2, jobs=1)
        assert parallel.jobs == 2
        assert [_chain_fingerprint(c) for c in parallel.chains] == \
            [_chain_fingerprint(c) for c in serial.chains]

    def test_results_in_seed_order(self, tiny_target):
        spec = _spec(tiny_target)
        results = run_seeded_chains(spec, SearchConfig(proposals=150, seed=9),
                                    chains=3, jobs=2)
        assert [r.seed for r in results] == [9, 10, 11]


class TestStreaming:
    def test_on_result_fires_per_chain(self, tiny_target):
        spec = _spec(tiny_target)
        seen = []
        results = run_seeded_chains(spec, SearchConfig(proposals=150, seed=0),
                                    chains=3, jobs=2,
                                    on_result=lambda r: seen.append(r.seed))
        assert sorted(seen) == [0, 1, 2]
        assert len(results) == 3

    def test_empty_configs(self, tiny_target):
        assert run_chains(_spec(tiny_target), [], jobs=2) == []


class TestTelemetry:
    def test_restart_telemetry(self, tiny_target):
        stoke = Stoke(tiny_target, _tests(), ["xmm0"],
                      CostConfig(eta=0.0, k=1.0))
        result = run_restarts(stoke, SearchConfig(proposals=200, seed=4),
                              chains=2, jobs=1)
        assert isinstance(result, RestartResult)
        telemetry = result.telemetry
        assert [t["seed"] for t in telemetry] == [4, 5]
        for t in telemetry:
            assert t["proposals"] == 200
            assert t["proposals_per_second"] > 0
            assert 0.0 <= t["acceptance_rate"] <= 1.0
            iterations = [i for i, _ in t["best_cost_trace"]]
            assert iterations[0] == 0 and iterations[-1] == 200
            # The trace is monotone non-increasing in best cost.
            costs = [c for _, c in t["best_cost_trace"]]
            assert all(a >= b for a, b in zip(costs, costs[1:]))


# ---------------------------------------------------------------------------
# TaskPool hardening: crash recovery, deadlines, streaming dispatch.
# Task functions must be module-level (pickled by reference into workers).


def _pool_context(spec):
    return {"spec": spec}


def _pool_task(context, item):
    import os as _os
    import signal as _signal
    import time as _time

    kind, value = item
    if kind == "square":
        return value * value
    if kind == "raise":
        raise ValueError(f"bad item {value}")
    if kind == "die":
        # Simulate a segfault/OOM: the worker vanishes mid-task.
        _os.kill(_os.getpid(), _signal.SIGKILL)
    if kind == "sleep":
        _time.sleep(value)
        return value
    raise AssertionError(f"unknown kind {kind}")


class TestTaskPool:
    def _pool(self, jobs=2, **kwargs):
        from repro.core.parallel import TaskPool

        return TaskPool(_pool_context, None, _pool_task, jobs=jobs,
                        **kwargs)

    def test_map_inline(self):
        with self._pool(jobs=1) as pool:
            assert pool.inline
            assert pool.map([("square", i) for i in range(5)]) == \
                [0, 1, 4, 9, 16]

    def test_map_subprocess(self):
        with self._pool(jobs=2) as pool:
            assert not pool.inline
            assert pool.map([("square", i) for i in range(8)]) == \
                [i * i for i in range(8)]

    def test_task_error_propagates(self):
        from repro.core.parallel import TaskError

        with self._pool(jobs=2) as pool:
            with pytest.raises(TaskError, match="bad item 3"):
                pool.map([("square", 1), ("raise", 3), ("square", 2)])

    def test_worker_killed_mid_task_is_reported_and_pool_survives(self):
        # Regression test: a worker SIGKILLed mid-task must be detected,
        # its task reported as a crash, and the pool must keep serving.
        with self._pool(jobs=2) as pool:
            outcomes = pool.run([("square", 1), ("die", 0), ("square", 2)])
            by_key = {o.key: o for o in outcomes}
            assert by_key[0].ok and by_key[0].value == 1
            assert by_key[2].ok and by_key[2].value == 4
            assert not by_key[1].ok
            assert by_key[1].kind == "crash"
            # The pool respawned the dead worker and still works.
            assert pool.map([("square", 6)]) == [36]

    def test_per_task_timeout(self):
        from repro.core.parallel import TaskTimeout

        with self._pool(jobs=2, task_timeout=0.5) as pool:
            outcomes = pool.run([("sleep", 30.0), ("square", 3)])
            by_key = {o.key: o for o in outcomes}
            assert not by_key[0].ok and by_key[0].kind == "timeout"
            assert by_key[1].ok and by_key[1].value == 9
            with pytest.raises(TaskTimeout):
                pool.map([("sleep", 30.0)])

    def test_streaming_submit_poll(self):
        with self._pool(jobs=2) as pool:
            pool.submit("a", ("square", 2))
            pool.submit("b", ("square", 3))
            got = {}
            while len(got) < 2:
                for outcome in pool.poll(timeout=10.0):
                    got[outcome.key] = outcome.value
            assert got == {"a": 4, "b": 9}
            assert pool.in_flight == 0

    def test_submit_after_close_rejected(self):
        pool = self._pool(jobs=1)
        pool.close()
        with pytest.raises(RuntimeError):
            pool.submit("x", ("square", 1))

    def test_close_kills_workers(self):
        pool = self._pool(jobs=2)
        procs = [w.proc for w in pool._workers]
        assert all(p.is_alive() for p in procs)
        pool.close()
        assert all(not p.is_alive() for p in procs)
