"""Batched BnB verifier throughput vs the reference engine.

The batched engine (``BnBConfig(engine='batched')``) runs the serial
sound branch-and-bound search through translate-once compiled transfers
with prefix sharing between split children.  The reference engine runs
the same refinement loop through the interpretive transfer, one box at
a time; it is kept as the identity oracle and as this benchmark's
baseline.

Before anything is timed a differential guard asserts the two engines
produce the identical leaf partition and certified bound on every
measured kernel; a throughput number for a wrong answer would be
meaningless.

As a script it writes the ``BENCH_verify.json`` baseline consumed by
CI and fails if fewer than ``--min-kernels`` kernels reach the
``--min-ratio`` batched/reference floor::

    PYTHONPATH=src python benchmarks/bench_verify.py \\
        --out BENCH_verify.json --min-ratio 1.5 --min-kernels 3
"""

import json
import sys
import time

from repro.kernels.libimf import LIBIMF_KERNELS
from repro.verify.bnb import BnBConfig, BnBVerifier

KERNELS = tuple(sorted(LIBIMF_KERNELS))
# Degree-reduced rewrites give a real, nonzero approximation error.
REDUCED_DEGREE = {"sin": 9, "cos": 8, "tan": 9, "log": 12, "exp": 8}
BUDGET = 512
REPEATS = 3


def _verifier(name):
    factory = LIBIMF_KERNELS[name]
    spec = factory()
    rewrite = factory(REDUCED_DEGREE[name]).program
    return BnBVerifier(spec.program, rewrite, spec.live_outs,
                       dict(spec.ranges))


def _partition(result):
    return (result.bound_ulps, tuple(result.leaf_bounds),
            tuple(box.bounds for box in result.leaves))


def _best_rate(verifier, config, repeats):
    """Best-of boxes/sec over ``repeats`` runs of one configuration."""
    best = 0.0
    for _ in range(repeats):
        start = time.perf_counter()
        result = verifier.run(config)
        elapsed = time.perf_counter() - start
        best = max(best, result.boxes_explored / elapsed)
    return best


def measure_kernel(name, budget=BUDGET, repeats=REPEATS):
    """Engine-vs-engine boxes/sec for one kernel."""
    verifier = _verifier(name)

    # Identity guard: identical partition and bound before any timing.
    reference = verifier.run(BnBConfig(max_boxes=budget,
                                       engine="reference"))
    batched = verifier.run(BnBConfig(max_boxes=budget, engine="batched"))
    assert _partition(batched) == _partition(reference), \
        f"batched engine diverged from reference on {name}"

    ref = _best_rate(verifier, BnBConfig(max_boxes=budget,
                                         engine="reference"), repeats)
    bat = _best_rate(verifier, BnBConfig(max_boxes=budget,
                                         engine="batched"), repeats)
    return {"kernel": name, "budget": budget,
            "boxes_explored": batched.boxes_explored,
            "bound_ulps": batched.bound_ulps,
            "reference_boxes_per_sec": ref,
            "batched_boxes_per_sec": bat,
            "ratio": bat / ref if ref > 0 else float("inf")}


def run_baseline(kernels=KERNELS, budget=BUDGET, repeats=REPEATS):
    rows = [measure_kernel(name, budget=budget, repeats=repeats)
            for name in kernels]
    ratios = sorted((r["ratio"] for r in rows), reverse=True)
    return {
        "benchmark": "bnb_verify_throughput",
        "budget": budget,
        "repeats": repeats,
        "note": "boxes/sec through BnBVerifier.run end to end; ratios "
                "compare the batched engine (compiled transfers, prefix "
                "sharing) against the reference engine on identical "
                "partitions (asserted before timing).",
        "results": rows,
        "min_ratio": ratios[-1],
        "median_ratio": ratios[len(ratios) // 2],
    }


def main():
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kernels", nargs="*", default=list(KERNELS))
    parser.add_argument("--budget", type=int, default=BUDGET)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--out", default="BENCH_verify.json")
    parser.add_argument("--min-ratio", type=float, default=0.0,
                        help="the batched/reference floor a "
                             "kernel must reach to count toward "
                             "--min-kernels")
    parser.add_argument("--min-kernels", type=int, default=3,
                        help="fail unless at least this many kernels "
                             "reach the --min-ratio floor (CI "
                             "regression gate)")
    args = parser.parse_args()
    baseline = run_baseline(kernels=tuple(args.kernels),
                            budget=args.budget,
                            repeats=args.repeats)
    with open(args.out, "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    for row in baseline["results"]:
        print(f"{row['kernel']}: reference "
              f"{row['reference_boxes_per_sec']:,.0f} | batched "
              f"{row['batched_boxes_per_sec']:,.0f} boxes/s "
              f"({row['ratio']:.2f}x)")
    print(f"wrote {args.out}")
    if args.min_ratio > 0.0:
        reached = [row["kernel"] for row in baseline["results"]
                   if row["ratio"] >= args.min_ratio]
        print(f"{len(reached)}/{len(baseline['results'])} kernels at or "
              f"above {args.min_ratio:.2f}x: {', '.join(reached)}")
        if len(reached) < args.min_kernels:
            print(f"FAIL: only {len(reached)} kernels reached the "
                  f"{args.min_ratio:.2f}x batched/reference floor "
                  f"(need {args.min_kernels})", file=sys.stderr)
            sys.exit(1)


if __name__ == "__main__":
    main()
