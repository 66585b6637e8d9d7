"""Self-test of the benchmark at tiny sizes.

Runs every workload untraced and traced with every phase shrunk, and
asserts that each metric BENCHMARK.json declares is emitted with its
unit, that end-to-end values are finite and nonzero, and that the
output checks pass.  Then it forges a certificate (its largest leaf
bound set to 0) and asserts that the checker's rejection shows up as a
failed check, i.e. ``failed / attempted`` above 0.  Run it from the
root of a source checkout (about a minute)::

    python3 e2ebench/selftest.py
"""

from __future__ import annotations

import math
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

TINY = {
    "search": {
        "focus": {"proposals": 150, "per_kernel": True},
        "background": {"proposals": 100, "per_kernel": False},
    },
    "certify": {
        "focus": {"validate_samples": 1_000, "budget": 6},
        "background": {"validate_samples": 500, "budget": 4},
    },
    "campaign": {
        "focus": {"proposals": 120, "validate_proposals": 50,
                  "budget": 4, "warm_repeats": 2},
        "background": {"proposals": 100, "validate_proposals": 50,
                       "budget": 4, "warm_repeats": 1},
    },
}


def check_result(workload, trace, doc, units):
    where = f"{workload} --trace {trace}"
    assert doc["correct"] and doc["failed"] == 0, \
        f"{where}: output checks failed"
    assert doc["attempted"] >= 1, f"{where}: nothing attempted"
    emitted = doc["metrics"]
    assert set(emitted) == set(units), \
        f"{where}: metrics differ from BENCHMARK.json: " \
        f"{sorted(set(emitted) ^ set(units))}"
    for name, unit in units.items():
        value = emitted[name]["value"]
        assert emitted[name]["unit"] == unit, f"{where}: {name} unit"
        assert isinstance(value, (int, float)) and math.isfinite(value), \
            f"{where}: {name} = {value!r}"
        if not trace:
            assert value != 0, f"{where}: end-to-end {name} is 0"


def main():
    shutil.rmtree(run.WORKDIR, ignore_errors=True)
    os.makedirs(run.WORKDIR)
    try:
        for workload in run.WORKLOADS:
            for trace in (0, 1):
                units = run.declared_metrics(trace)
                session, metrics = run.run_workload(
                    workload, seed=5, seconds=0, trace=trace, sizes=TINY)
                check_result(workload, trace,
                             run.result(session, metrics, units), units)
                print(f"ok  {workload} --trace {trace}: "
                      f"{len(units)} metrics, {session.attempted} checks")
        session, metrics = run.run_workload(
            "certify-libimf", seed=5, seconds=0, trace=0, sizes=TINY,
            tamper=True)
        doc = run.result(session, metrics, run.declared_metrics(0))
        assert not doc["correct"] and doc["failed"] / doc["attempted"] > 0, \
            "a forged certificate passed every check"
        assert any("checker rejected" in f for f in session.failures)
        print(f"ok  forged certificate: failed_frac "
              f"{doc['failed'] / doc['attempted']:.3g}")
    finally:
        shutil.rmtree(run.WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
