"""Search throughput of the default evaluator against the compiled backends.

Search interprets every proposal in full on the emulator: a proposal is a
program never seen before that runs on at most a few dozen tests, so
translating it for the JIT or the vector backend never pays off (the
STOKE cost model; DESIGN.md §8).  This benchmark pins that decision.  It
runs one cold subprocess per (kernel, backend) -- the JIT compile and
vectorize caches are process-global, so in-process repeats would hand
the compiled backends every translation for free -- and compares the
default ``Stoke`` with ``Stoke(backend="jit")`` and
``Stoke(backend="vector")`` at the same seed.

Before any rate is reported, the three searches of each kernel must agree
on best cost, accept count and best-cost trace.  Runs are interleaved
round-robin over backends and the best rate per backend is kept, so CPU
frequency drift cannot masquerade as a win.  As a script it writes
``BENCH_search_backends.json`` and fails unless the default reaches
``--min-ratio`` of the best compiled backend's proposals/s on at least
``--min-kernels`` kernels::

    PYTHONPATH=src python benchmarks/bench_search_backends.py \\
        --proposals 600 --tests 16 --out BENCH_search_backends.json \\
        --min-ratio 0.9 --min-kernels 4

The ratio gate holds on any machine: all three backends run on the same
host in the same interleaved schedule.
"""

import json
import os
import random
import subprocess
import sys

PROPOSALS = 600
TESTS = 16
REPEATS = 3
ETA = 1e6
SEED = 1
COMPILED = ("jit", "vector")
DEFAULT = "default"


def child(kernel, backend, proposals, tests):
    """One cold search; prints its rate and result identity as JSON."""
    from repro.core.cost import CostConfig
    from repro.core.search import SearchConfig, Stoke
    from repro.kernels.libimf import LIBIMF_KERNELS

    spec = LIBIMF_KERNELS[kernel]()
    cases = spec.testcases(random.Random(f"{SEED}:{kernel}"), tests)
    kwargs = {} if backend == DEFAULT else {"backend": backend}
    stoke = Stoke(spec.program, cases, spec.live_outs, CostConfig(eta=ETA),
                  **kwargs)
    result = stoke.optimize(SearchConfig(proposals=proposals, seed=SEED))
    print(json.dumps({
        "backend": stoke.cost_fn.runner.backend,
        "proposals_per_sec": result.stats.proposals_per_second,
        "best_cost": result.best_cost,
        "accepted": result.stats.accepted,
        "trace": result.trace,
    }))


def _spawn(kernel, backend, proposals, tests):
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       os.pardir, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--child", kernel,
         backend, "--proposals", str(proposals), "--tests", str(tests)],
        env=env, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure_kernel(name, proposals=PROPOSALS, tests=TESTS,
                   repeats=REPEATS):
    """Best-of rates per backend for one kernel, identity-checked."""
    best = {}
    reference = None
    for _ in range(repeats):
        for backend in (DEFAULT,) + COMPILED:
            run = _spawn(name, backend, proposals, tests)
            best[backend] = max(best.get(backend, 0.0),
                                run["proposals_per_sec"])
            reference = reference or run
            for key in ("best_cost", "accepted", "trace"):
                assert run[key] == reference[key], \
                    f"{name}: {backend} search diverged from default ({key})"
    best_compiled = max(best[b] for b in COMPILED)
    return {
        "kernel": name,
        "default_backend": reference["backend"],
        "proposals_per_sec": {b: best[b] for b in (DEFAULT,) + COMPILED},
        "ratio_vs_best_compiled": best[DEFAULT] / best_compiled,
        "best_cost": reference["best_cost"],
        "accepted": reference["accepted"],
    }


def run_baseline(proposals=PROPOSALS, tests=TESTS, repeats=REPEATS,
                 kernels=None):
    from repro.kernels.libimf import LIBIMF_KERNELS

    rows = [measure_kernel(name, proposals, tests, repeats)
            for name in (kernels or sorted(LIBIMF_KERNELS))]
    return {
        "benchmark": "search_backends",
        "proposals": proposals,
        "tests_per_kernel": tests,
        "eta": ETA,
        "seed": SEED,
        "repeats": repeats,
        "note": "one cold subprocess per (kernel, backend, repeat), "
                "interleaved round-robin, best-of rates; the three "
                "searches per kernel are asserted identical (best cost, "
                "accepts, trace) before rates are reported.",
        "results": rows,
    }


def main():
    import argparse

    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", nargs=2, metavar=("KERNEL", "BACKEND"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--proposals", type=int, default=PROPOSALS)
    parser.add_argument("--tests", type=int, default=TESTS)
    parser.add_argument("--repeats", type=int, default=REPEATS)
    parser.add_argument("--kernels", nargs="*", default=None)
    parser.add_argument("--out", default="BENCH_search_backends.json")
    parser.add_argument("--min-ratio", type=float, default=0.0,
                        help="per-kernel floor on default / best compiled "
                             "proposals/s")
    parser.add_argument("--min-kernels", type=int, default=0,
                        help="fail unless at least this many kernels "
                             "reach --min-ratio (CI gate)")
    args = parser.parse_args()
    if args.child:
        child(*args.child, args.proposals, args.tests)
        return
    baseline = run_baseline(args.proposals, args.tests, args.repeats,
                            args.kernels)
    with open(args.out, "w") as fh:
        json.dump(baseline, fh, indent=2)
        fh.write("\n")
    for row in baseline["results"]:
        rates = row["proposals_per_sec"]
        print(f"{row['kernel']:>4}: default ({row['default_backend']}) "
              f"{rates[DEFAULT]:,.0f} | jit {rates['jit']:,.0f} | "
              f"vector {rates['vector']:,.0f} p/s "
              f"({row['ratio_vs_best_compiled']:.2f}x best compiled)")
    print(f"wrote {args.out}")
    reached = sum(r["ratio_vs_best_compiled"] >= args.min_ratio
                  for r in baseline["results"])
    if reached < args.min_kernels:
        print(f"FAIL: only {reached} kernel(s) reached "
              f"{args.min_ratio:.2f}x (need {args.min_kernels})",
              file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
