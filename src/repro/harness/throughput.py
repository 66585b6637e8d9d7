"""E1: test-case dispatch throughput, emulator vs JIT (Section 5.1).

The paper's JIT-assembler evaluator outperforms the emulator-based
original STOKE by up to two orders of magnitude and dispatches almost one
million test cases per second.  This driver measures both backends of our
simulator on the libimf kernels and reports the ratio (the absolute
numbers are Python-scale; the *gap* is the reproduced result).

It also measures whole-chain throughput at a configurable worker count
(``--jobs``), the quantity the paper's 16-thread restart parallelism
buys; ``benchmarks/bench_parallel.py`` tracks the same number as a
regression baseline.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import List

from repro.x86.emulator import Emulator
from repro.x86.jit import compile_program

from repro.core import CostConfig, SearchConfig, StokeSpec
from repro.core.parallel import chain_configs, resolve_jobs, run_chains
from repro.harness.report import format_table
from repro.kernels.libimf import LIBIMF_KERNELS


@dataclass
class ThroughputResult:
    kernel: str
    emulator_tests_per_sec: float
    jit_tests_per_sec: float
    jit_batched_tests_per_sec: float

    @property
    def ratio(self) -> float:
        """Batched JIT over emulator — the Section 5.1 gap."""
        if self.emulator_tests_per_sec == 0:
            return float("inf")
        return self.jit_batched_tests_per_sec / self.emulator_tests_per_sec

    @property
    def batch_speedup(self) -> float:
        """Batched over per-test JIT dispatch (the evaluator-batching win)."""
        if self.jit_tests_per_sec == 0:
            return float("inf")
        return self.jit_batched_tests_per_sec / self.jit_tests_per_sec


def measure_kernel(name: str, tests: int = 300, seed: int = 0,
                   repeats: int = 3) -> ThroughputResult:
    """Dispatch ``tests`` test cases through both backends.

    All timed loops reset each test case's pooled machine state in place
    (``pooled_state``) rather than copying a template, matching how the
    search's cost function dispatches tests.
    """
    spec = LIBIMF_KERNELS[name]()
    rng = random.Random(seed)
    cases = spec.testcases(rng, tests)

    emulator = Emulator()
    best_emu = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for tc in cases:
            emulator.run(spec.program, tc.pooled_state())
        best_emu = min(best_emu, time.perf_counter() - start)

    compiled = compile_program(spec.program)
    best_jit = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for tc in cases:
            compiled.run(tc.pooled_state(compiled.writes))
        best_jit = min(best_jit, time.perf_counter() - start)

    compiled.specialize_batch()
    best_batched = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        compiled.run_batch(
            [tc.pooled_state(compiled.writes) for tc in cases])
        best_batched = min(best_batched, time.perf_counter() - start)

    return ThroughputResult(
        kernel=name,
        emulator_tests_per_sec=tests / best_emu,
        jit_tests_per_sec=tests / best_jit,
        jit_batched_tests_per_sec=tests / best_batched,
    )


@dataclass
class ChainThroughputResult:
    """Whole search chains dispatched per second at a worker count."""

    kernel: str
    chains: int
    jobs: int
    proposals: int
    chains_per_sec: float
    proposals_per_sec: float


def measure_chain_throughput(name: str = "exp", chains: int = 4,
                             jobs: int = 1, proposals: int = 1_000,
                             seed: int = 0,
                             testcases: int = 16) -> ChainThroughputResult:
    """Run ``chains`` independent searches and report chains/sec."""
    spec_kernel = LIBIMF_KERNELS[name]()
    tests = spec_kernel.testcases(random.Random(seed), testcases)
    spec = StokeSpec(target=spec_kernel.program, tests=tuple(tests),
                     live_outs=tuple(spec_kernel.live_outs),
                     cost_config=CostConfig(eta=1.0e12, k=1.0))
    jobs = resolve_jobs(jobs, chains)
    start = time.perf_counter()
    results = run_chains(spec, chain_configs(
        SearchConfig(proposals=proposals, seed=seed), chains), jobs=jobs)
    elapsed = time.perf_counter() - start
    return ChainThroughputResult(
        kernel=name,
        chains=chains,
        jobs=jobs,
        proposals=proposals,
        chains_per_sec=len(results) / elapsed,
        proposals_per_sec=sum(r.stats.proposals for r in results) / elapsed,
    )


def run(tests: int = 300, seed: int = 0) -> List[ThroughputResult]:
    return [measure_kernel(name, tests=tests, seed=seed)
            for name in LIBIMF_KERNELS]


def report(results: List[ThroughputResult]) -> str:
    rows = [(r.kernel, f"{r.emulator_tests_per_sec:,.0f}",
             f"{r.jit_tests_per_sec:,.0f}",
             f"{r.jit_batched_tests_per_sec:,.0f}",
             f"{r.ratio:.1f}x", f"{r.batch_speedup:.2f}x")
            for r in results]
    return format_table(
        ("kernel", "emulator tests/s", "JIT tests/s", "JIT batched tests/s",
         "batched/emulator", "batched/JIT"),
        rows,
        title="E1 (Section 5.1): test-case dispatch throughput",
    )


def report_chains(result: ChainThroughputResult) -> str:
    rows = [(result.kernel, result.chains, result.jobs, result.proposals,
             f"{result.chains_per_sec:.2f}",
             f"{result.proposals_per_sec:,.0f}")]
    return format_table(
        ("kernel", "chains", "jobs", "proposals/chain", "chains/s",
         "proposals/s"),
        rows,
        title="Multi-chain search throughput",
    )


def main() -> None:
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=0,
                        help="worker processes for the chain-throughput "
                             "measurement; 0 = auto (cpu count)")
    parser.add_argument("--chains", type=int, default=4)
    parser.add_argument("--proposals", type=int, default=1_000)
    args = parser.parse_args()
    print(report(run()))
    print()
    print(report_chains(measure_chain_throughput(
        chains=args.chains, jobs=args.jobs, proposals=args.proposals)))


if __name__ == "__main__":
    main()
