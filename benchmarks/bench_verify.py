"""BnB verifier throughput, calibrated against concrete execution.

The verifier (``BnBVerifier.run``) refines serially through
translate-once compiled transfers with prefix sharing between split
children.  Its boxes/sec is reported against a calibration measured in
the same process on the same machine: emulator tests/sec, where one
test runs both the target and the rewrite on one of 512 of the
kernel's own test cases (``KernelSpec.testcases``).  The ratio
``boxes/s / tests/s`` cancels most of the host's speed and frequency
drift, so a fixed floor on it is a meaningful regression gate: a box
costs a handful of concrete runs' worth of work, and a transfer that
fell back to per-instruction dispatch would sink below the floor.

Before anything is timed a guard checks the run's certificate with
the independent checker; a throughput number for a certificate that
does not check would be meaningless.

As a script it writes the ``BENCH_verify.json`` baseline consumed by
CI and fails if fewer than ``--min-kernels`` kernels reach the
``--min-ratio`` floor::

    PYTHONPATH=src python benchmarks/bench_verify.py \\
        --out BENCH_verify.json --min-ratio 0.22 --min-kernels 3
"""

import json
import random
import sys
import time

from repro.core.runner import Runner
from repro.kernels.libimf import LIBIMF_KERNELS
from repro.verify import checker
from repro.verify.bnb import BnBConfig, BnBVerifier

KERNELS = tuple(sorted(LIBIMF_KERNELS))
# Degree-reduced rewrites give a real, nonzero approximation error.
REDUCED_DEGREE = {"sin": 9, "cos": 8, "tan": 9, "log": 12, "exp": 8}
BUDGET = 512
REPEATS = 3
CALIBRATION_TESTS = 512


def _boxes_rate(verifier, config):
    """Boxes/sec of one verifier run."""
    start = time.perf_counter()
    result = verifier.run(config)
    return result.boxes_explored / (time.perf_counter() - start)


def _tests_rate(runner, target, rewrite, tests):
    """Emulator tests/sec, one test = a target run plus a rewrite run."""
    start = time.perf_counter()
    runner.run_batch(target, tests)
    runner.run_batch(rewrite, tests)
    return len(tests) / (time.perf_counter() - start)


def measure_kernel(name, budget=BUDGET, repeats=REPEATS):
    """Verifier boxes/sec over same-run emulator tests/sec for one
    kernel."""
    factory = LIBIMF_KERNELS[name]
    spec = factory()
    rewrite = factory(REDUCED_DEGREE[name]).program
    verifier = BnBVerifier(spec.program, rewrite, spec.live_outs,
                           dict(spec.ranges))
    config = BnBConfig(max_boxes=budget)

    # Soundness guard: the measured run's certificate must check.
    result = verifier.run(config)
    report = checker.check(verifier.certificate(result, config=config),
                           spec.program, rewrite)
    assert report.ok, f"certificate for {name} does not check: " \
        f"{report.failures}"

    runner = Runner(spec.live_outs, backend="emulator")
    prepared_t = runner.prepare(spec.program)
    prepared_r = runner.prepare(rewrite)
    tests = spec.testcases(random.Random(0), CALIBRATION_TESTS)
    # Best of ``repeats``, interleaved so drift hits both rates alike.
    boxes = tests_rate = 0.0
    for _ in range(repeats):
        boxes = max(boxes, _boxes_rate(verifier, config))
        tests_rate = max(tests_rate, _tests_rate(runner, prepared_t,
                                                 prepared_r, tests))
    return {"kernel": name, "budget": budget,
            "boxes_explored": result.boxes_explored,
            "bound_ulps": result.bound_ulps,
            "certificate": "VALID",
            "boxes_per_sec": boxes,
            "emulator_tests_per_sec": tests_rate,
            "ratio": boxes / tests_rate if tests_rate > 0
            else float("inf")}


def run_baseline(kernels=KERNELS, budget=BUDGET, repeats=REPEATS):
    rows = [measure_kernel(name, budget=budget, repeats=repeats)
            for name in kernels]
    ratios = sorted((r["ratio"] for r in rows), reverse=True)
    return {
        "benchmark": "bnb_verify_throughput",
        "budget": budget,
        "repeats": repeats,
        "calibration_tests": CALIBRATION_TESTS,
        "note": "boxes/sec through BnBVerifier.run end to end, divided "
                "by same-process emulator tests/sec (one test = target "
                "+ rewrite) on the kernel's own test cases; every "
                "measured run's certificate is checked before timing.",
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
                        help="the boxes/s over emulator tests/s floor a "
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
        print(f"{row['kernel']}: {row['boxes_per_sec']:,.0f} boxes/s | "
              f"emulator {row['emulator_tests_per_sec']:,.0f} tests/s "
              f"({row['ratio']:.2f})")
    print(f"wrote {args.out}")
    if args.min_ratio > 0.0:
        reached = [row["kernel"] for row in baseline["results"]
                   if row["ratio"] >= args.min_ratio]
        print(f"{len(reached)}/{len(baseline['results'])} kernels at or "
              f"above {args.min_ratio:.2f}: {', '.join(reached)}")
        if len(reached) < args.min_kernels:
            print(f"FAIL: only {len(reached)} kernels reached the "
                  f"{args.min_ratio:.2f} boxes/tests floor "
                  f"(need {args.min_kernels})", file=sys.stderr)
            sys.exit(1)


if __name__ == "__main__":
    main()
