"""Multi-chain search scaling: chains/sec at 1/2/4 worker processes.

The paper spreads each search over 16 threads (Section 6); our
process-parallel engine (``repro.core.parallel``) reproduces that restart
parallelism.  This benchmark measures whole-chain throughput at worker
counts 1, 2, and 4, checks that the aggregate results stay bit-identical
across worker counts, and — when run as a script — writes the
``BENCH_parallel.json`` baseline consumed by CI::

    PYTHONPATH=src python benchmarks/bench_parallel.py \\
        --out BENCH_parallel.json

Under pytest it doubles as a pytest-benchmark suite
(``pytest benchmarks/bench_parallel.py --benchmark-only``).
"""

import json
import random
import time

import pytest

from repro.core import CostConfig, SearchConfig, StokeSpec
from repro.core.parallel import chain_configs, run_chains
from repro.kernels.libimf import LIBIMF_KERNELS

from _util import TESTCASES, one_shot

JOB_COUNTS = (1, 2, 4)
CHAINS = 4
PROPOSALS = 1_000
KERNEL = "exp"


def _spec(kernel=KERNEL, seed=0, testcases=TESTCASES):
    spec_kernel = LIBIMF_KERNELS[kernel]()
    tests = spec_kernel.testcases(random.Random(seed), testcases)
    return StokeSpec(target=spec_kernel.program, tests=tuple(tests),
                     live_outs=tuple(spec_kernel.live_outs),
                     cost_config=CostConfig(eta=1.0e12, k=1.0))


def _measure(jobs, chains=CHAINS, proposals=PROPOSALS, seed=0):
    """One timed multi-chain run; returns (elapsed, results)."""
    spec = _spec(seed=seed)
    config = SearchConfig(proposals=proposals, seed=seed)
    start = time.perf_counter()
    results = run_chains(spec, chain_configs(config, chains), jobs=jobs)
    return time.perf_counter() - start, results


@pytest.mark.parametrize("jobs", JOB_COUNTS)
def test_chain_scaling(benchmark, jobs):
    spec = _spec()
    config = SearchConfig(proposals=PROPOSALS, seed=0)
    results = one_shot(benchmark, run_chains, spec,
                       chain_configs(config, CHAINS), jobs=jobs)
    benchmark.extra_info["jobs"] = jobs
    benchmark.extra_info["chains"] = CHAINS
    benchmark.extra_info["proposals_per_chain"] = PROPOSALS
    benchmark.extra_info["best_costs"] = [r.best_cost for r in results]


def test_results_identical_across_worker_counts():
    """The scaling benchmark is only meaningful if every worker count
    computes the same thing; compare full per-chain outcomes."""
    baseline = None
    for jobs in JOB_COUNTS:
        _, results = _measure(jobs, proposals=200)
        outcome = [(r.seed, r.best_cost, r.best_program, r.best_correct)
                   for r in results]
        if baseline is None:
            baseline = outcome
        else:
            assert outcome == baseline, f"jobs={jobs} diverged"


def run_baseline(chains=CHAINS, proposals=PROPOSALS, seed=0):
    """Measure all worker counts and return the JSON-ready baseline."""
    rows = []
    baseline_costs = None
    for jobs in JOB_COUNTS:
        elapsed, results = _measure(jobs, chains=chains,
                                    proposals=proposals, seed=seed)
        costs = [r.best_cost for r in results]
        if baseline_costs is None:
            baseline_costs = costs
        elif costs != baseline_costs:
            raise AssertionError(
                f"jobs={jobs} produced different best costs: "
                f"{costs} != {baseline_costs}")
        rows.append({
            "jobs": jobs,
            "chains": chains,
            "proposals_per_chain": proposals,
            "elapsed_seconds": elapsed,
            "chains_per_sec": chains / elapsed,
            "proposals_per_sec": chains * proposals / elapsed,
            "telemetry": [
                {key: value for key, value in r.telemetry.items()
                 if key != "best_cost_trace"}
                for r in results
            ],
        })
    serial = rows[0]["elapsed_seconds"]
    for row in rows:
        row["speedup_vs_jobs1"] = serial / row["elapsed_seconds"]
    return {
        "benchmark": "parallel_chain_scaling",
        "kernel": KERNEL,
        "seed": seed,
        "best_costs": baseline_costs,
        "results": rows,
    }


def main():
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--chains", type=int, default=CHAINS)
    parser.add_argument("--proposals", type=int, default=PROPOSALS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="BENCH_parallel.json")
    args = parser.parse_args()
    baseline = run_baseline(chains=args.chains, proposals=args.proposals,
                            seed=args.seed)
    with open(args.out, "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    for row in baseline["results"]:
        print(f"jobs={row['jobs']}: {row['chains_per_sec']:.2f} chains/s "
              f"({row['speedup_vs_jobs1']:.2f}x vs jobs=1)")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
