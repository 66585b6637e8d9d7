"""End-to-end benchmark: cold-process search, certify and campaign runs.

Run from the root of a source checkout::

    python3 e2ebench/run.py --workload search-libimf --seed 1 \\
        --seconds 30 --trace 0

Every run executes the three phases a user goes through -- ``search``
(a default-flag ``Stoke`` search per libimf kernel), ``certify``
(validate, then sound BnB in both domains, then the independent
checker) and ``campaign`` (submit, serve, catalog, then warm
resubmissions) -- each in a fresh interpreter (``phases.py``).  A round
runs every phase once: the workload's focus phase at full size, the
other two smaller.  Rounds repeat until ``--seconds`` is spent, at least
three times, and every metric is the median over rounds.  Times are
reported at a nominal host speed (``hostspeed.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced rounds and prints the per-layer metrics of the
traced ones, plus the tracing overhead (median traced round wall over
median untraced round wall).  The spans themselves go to
``.e2ebench/spans.jsonl``.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKDIR = os.path.join(ROOT, ".e2ebench")

KERNELS = ("cos", "exp", "log", "sin", "tan")
CAMPAIGN_CELLS = (("dot", 0.0), ("dot", 1e5), ("exp", 0.0), ("exp", 1e5))
# Each child must finish well inside the run's 180 s limit.
CHILD_TIMEOUT = 150.0

# Phase sizes: "focus" for the phase the workload stresses, "background"
# for the other two, which run at a smaller size in every round so that
# every run reports every end-to-end metric.
SIZES = {
    "search": {
        "focus": {"proposals": 600, "per_kernel": True},
        "background": {"proposals": 400, "per_kernel": False},
    },
    "certify": {
        "focus": {"validate_samples": 4_000, "budget": 64},
        "background": {"validate_samples": 1_500, "budget": 16},
    },
    "campaign": {
        "focus": {"proposals": 600, "validate_proposals": 150,
                  "budget": 32, "warm_repeats": 20},
        "background": {"proposals": 450, "validate_proposals": 100,
                       "budget": 16, "warm_repeats": 20},
    },
}
WORKLOADS = {
    "search-libimf": "search",
    "certify-libimf": "certify",
    "campaign-dot-exp": "campaign",
}
PHASES = ("search", "certify", "campaign")
# Each kernel's time is its median over rounds.
MIN_ROUNDS = 3


class ChildFailed(RuntimeError):
    pass


class Session:
    """Spawns phase processes and keeps what they report."""

    def __init__(self, seed, sizes=SIZES, tamper=False):
        self.seed = seed
        self.sizes = sizes
        self.tamper = tamper
        self.setups = {}  # phase -> set-up times of its processes
        self.rss_kb = []
        self.attempted = 0
        self.failures = []
        self.heldout = {}  # kernel -> (held-out tests over eta, tests)

    def spawn(self, job, traced):
        job = dict(job, src=SRC, seed=self.seed, trace=int(traced),
                   spans=os.path.join(WORKDIR, "spans.jsonl"))
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        job["spawned_at"] = time.time()
        # A session of its own, so a timeout stops everything it started.
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "phases.py"),
             json.dumps(job)],
            cwd=ROOT, env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            stdout, stderr = proc.communicate(timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise ChildFailed(f"{job['phase']} phase timed out after "
                              f"{CHILD_TIMEOUT:g} s")
        if proc.returncode != 0:
            raise ChildFailed(f"{job['phase']} phase exited "
                              f"{proc.returncode}:\n{stderr[-4000:]}")
        out = json.loads(stdout.strip().splitlines()[-1])
        self.setups.setdefault(job["phase"], []).append(out["setup_s"])
        self.rss_kb.append(out["rss_kb"])
        self.attempted += out["attempted"]
        self.failures.extend(out["failures"])
        if job["phase"] == "search":
            for row in out["kernels"]:
                self.heldout[row["kernel"]] = (row.get("heldout_over_eta"),
                                               job["heldout"])
        return out

    def phase(self, phase, role, traced):
        """One repeat of a phase; returns the list of child outputs."""
        size = self.sizes[phase][role]
        if phase == "search":
            base = {"phase": "search", "tests": 16, "eta": 1e6,
                    "heldout": 64, "chain_seed": 1,
                    "proposals": size["proposals"]}
            groups = ([[k] for k in KERNELS] if size["per_kernel"]
                      else [list(KERNELS)])
            return [self.spawn(dict(base, kernels=group), traced)
                    for group in groups]
        if phase == "certify":
            return [self.spawn(dict(size, phase="certify",
                                    kernels=list(KERNELS),
                                    tamper=self.tamper), traced)]
        # One inline worker: on two shared cores, two busy workers lose
        # half their speed to any third tenant, which no probe shows.
        return [self.spawn(dict(size, phase="campaign",
                                cells=[list(c) for c in CAMPAIGN_CELLS],
                                chains=2, testcases=8, jobs=1,
                                select_budget=1e6,
                                store=os.path.join(WORKDIR, "store")),
                           traced)]


def phase_wall(phase, outs):
    """Timed wall of one phase repeat (set-up excluded)."""
    if phase == "campaign":
        return sum(out["cold_s"] + sum(out["warm_s"]) for out in outs)
    return sum(row["wall_s"] for out in outs for row in out["kernels"])


def round_wall(round_):
    return sum(phase_wall(phase, outs) for phase, outs in round_.items())


def _by_kernel(rounds, phase):
    """``{kernel: [row of round 0, row of round 1, ...]}``."""
    rows = {}
    for round_ in rounds:
        for out in round_[phase]:
            for row in out["kernels"]:
                rows.setdefault(row["kernel"], []).append(row)
    return rows


def _median(rows, *keys):
    """The median of ``row[keys[0]][keys[1]]...`` over rounds."""
    values = []
    for row in rows:
        for key in keys:
            row = row[key]
        values.append(row)
    return statistics.median(values)


def end_to_end(rounds, setups):
    """End-to-end metrics over a run's untraced rounds.

    Times arrive at the nominal host speed (hostspeed.py).  Each
    kernel's time is its median over rounds before kernels are summed.
    """
    search = _by_kernel(rounds, "search")
    certify = _by_kernel(rounds, "certify")
    m = {
        "search.proposals_per_s":
            sum(rows[0]["proposals"] for rows in search.values())
            / sum(_median(rows, "wall_s") for rows in search.values()),
        # Deterministic per seed (check_rounds holds every round to it).
        "search.speedup_geomean": math.exp(statistics.fmean(
            math.log(rows[0]["speedup"]) for rows in search.values())),
        "validate.samples_per_s":
            sum(rows[0]["samples"] for rows in certify.values())
            / sum(_median(rows, "validate_s")
                  for rows in certify.values()),
        "verify.relational.bound_log2": statistics.fmean(
            math.log2(rows[0]["relational"]["bound_ulps"])
            for rows in certify.values()),
        "certify.wall_s": sum(_median(rows, "wall_s")
                              for rows in certify.values()),
        "campaign.wall_s": statistics.median(
            r["campaign"][0]["cold_s"] for r in rounds),
        "campaign.warm_s": statistics.median(
            s for r in rounds for s in r["campaign"][0]["warm_s"]),
        # Set-up differs by phase (imports, construction); each phase's
        # median over its processes, averaged over the three phases.
        "setup_s": statistics.fmean(statistics.median(times)
                                    for times in setups.values()),
    }
    for domain in ("separate", "relational"):
        m[f"verify.{domain}.boxes_per_s"] = \
            sum(rows[0][domain]["boxes"] for rows in certify.values()) \
            / sum(_median(rows, domain, "run_s")
                  for rows in certify.values())
    return m


def check_rounds(session, rounds):
    """Same seed, same results: search outcomes, certified bounds and
    catalog digests repeat exactly in every round."""
    def same(what, key):
        session.attempted += 1
        if len({json.dumps(key(r)) for r in rounds}) != 1:
            session.failures.append(f"{what} differ between rounds of "
                                    f"one seed")

    same("search results", lambda r: [
        (row["kernel"], row["best_cost"], row["accepted"])
        for out in r["search"] for row in out["kernels"]])
    same("certified bounds", lambda r: [
        (row["kernel"], row["separate"]["bound_ulps"],
         row["relational"]["bound_ulps"])
        for out in r["certify"] for row in out["kernels"]])
    same("cold catalog digests", lambda r: r["campaign"][0]["digest"])


def run_workload(workload, seed, seconds, trace, sizes=SIZES, tamper=False):
    """Run one workload; returns ``(session, metrics)``.

    A round runs every phase once, the focus phase at its full size.
    Rounds repeat until ``seconds`` is spent, at least ``MIN_ROUNDS``
    times; under ``trace`` they alternate untraced and traced, so the
    overhead ratio compares like with like.
    """
    focus = WORKLOADS[workload]
    session = Session(seed, sizes=sizes, tamper=tamper)
    start = time.monotonic()
    plain, traced = [], []
    while True:
        with_trace = bool(trace) and len(plain) > len(traced)
        began = time.monotonic()
        (traced if with_trace else plain).append({
            phase: session.phase(
                phase, "focus" if phase == focus else "background",
                with_trace)
            for phase in PHASES})
        took = time.monotonic() - began
        enough = (len(traced) >= 1 and len(plain) >= 1) if trace \
            else len(plain) >= MIN_ROUNDS
        if enough and time.monotonic() - start + took > seconds:
            break
    check_rounds(session, plain + traced)
    if trace:
        metrics = layer_metrics(traced)
        metrics["trace.overhead_x"] = \
            statistics.median(round_wall(r) for r in traced) \
            / statistics.median(round_wall(r) for r in plain)
        return session, metrics
    metrics = end_to_end(plain, session.setups)
    metrics["peak_rss_mb"] = max(session.rss_kb) / 1024.0
    return session, metrics


# -- per-layer metrics -------------------------------------------------------


def _merged_layers(outs):
    merged = {}
    for out in outs:
        for name, row in out.get("layers", {}).items():
            into = merged.setdefault(name, {"calls": 0, "total_s": 0.0,
                                            "self_s": 0.0, "items": 0})
            for key in into:
                into[key] += row[key]
    return merged


def _frac(num, den):
    return num / den if den else 0.0


def _percentile(values, q):
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# Metrics that are ratios or percentiles; every other per-layer metric is
# a time or a count, reported per traced round.
_SHARES = ("_frac", "_us", "_p50_s", "_p90_s", "_per_job")


def layer_metrics(rounds):
    """Per-layer metrics from a run's traced rounds."""
    outs = {phase: [out for r in rounds for out in r[phase]]
            for phase in PHASES}
    layers = _merged_layers(out for phase in PHASES for out in outs[phase])

    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return layers.get(name, {}).get("total_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    def items(name):
        return layers.get(name, {}).get("items", 0)

    rows = [row for out in outs["search"] for row in out["kernels"]]
    cost_us = [us for out in outs["search"] for us in out["cost_us"]]

    def total(key, sub):
        return sum(row[key].get(sub, 0) for row in rows)

    proposals = sum(row["proposals"] for row in rows)
    invalid = sum(row["invalid"] for row in rows)
    m = {
        "core.transforms.propose_s": self_s("core.transforms.propose"),
        "core.transforms.invalid_frac": _frac(invalid, proposals),
        "core.cost.cost_s": self_s("core.cost.cost"),
        "core.cost.cost_p50_us": _percentile(cost_us, 0.50),
        "core.cost.cost_p99_us": _percentile(cost_us, 0.99),
        "core.cost.calls": calls("core.cost.cost"),
        "core.runner.prepare_s": self_s("core.runner.prepare"),
        "core.runner.prepare_calls": calls("core.runner.prepare"),
        "x86.jit.compiles": total("jit_cache", "misses"),
        "x86.jit.compile_hit_frac": _frac(
            total("jit_cache", "hits"),
            total("jit_cache", "hits") + total("jit_cache", "misses")),
        "core.runner.exec_s": self_s("core.runner.exec"),
        "core.runner.tests_executed": items("core.runner.exec"),
        "core.cost.incremental_hit_frac": _frac(
            total("incremental", "hits"),
            total("incremental", "hits")
            + total("incremental", "fallbacks")),
        "core.cost.incremental_captures": total("incremental", "captures"),
        "core.search.accept_frac": _frac(
            sum(row["accepted"] for row in rows), proposals - invalid),
        "core.search.dce_hit_frac": _frac(
            total("dce_cache", "hits"),
            total("dce_cache", "hits") + total("dce_cache", "misses")),
        "core.search.unattributed_s": self_s("core.search"),
    }

    certs = [row for out in outs["certify"] for row in out["kernels"]]
    m.update({
        "validation.err_block_s": self_s("validation.err_block"),
        "validation.samples": sum(r["samples"] for r in certs),
        "validation.wasted_frac": _frac(sum(r["wasted"] for r in certs),
                                        sum(r["evaluations"] for r in certs)),
        "validation.unattributed_s": self_s("validation.validate"),
        "verify.unattributed_s": self_s("verify.certify"),
    })
    for domain in ("separate", "relational"):
        run_s = total_s(f"verify.{domain}.run")
        transfer = sum(r[domain]["transfer_s"] for r in certs)
        m.update({
            f"verify.{domain}.build_s": total_s(f"verify.{domain}.build"),
            f"verify.{domain}.run_s": run_s,
            f"verify.{domain}.transfer_s": transfer,
            f"verify.{domain}.overhead_s": run_s - transfer,
            f"verify.{domain}.pruned_frac": _frac(
                sum(r[domain]["pruned"] for r in certs),
                sum(r[domain]["boxes"] for r in certs)),
            f"verify.{domain}.check_s": total_s(f"verify.{domain}.check"),
        })

    camps = outs["campaign"]
    waits = [w for out in camps for w in out["ledger"]["queue_waits"]]
    stage = {}
    for out in camps:
        for kind, secs in out["ledger"]["stage_s"].items():
            stage[kind] = stage.get(kind, 0.0) + secs
    m.update({
        "service.submit_s": self_s("service.submit"),
        "service.serve_s": self_s("service.serve"),
        "service.queue_wait_p50_s": _percentile(waits, 0.50),
        "service.queue_wait_p90_s": _percentile(waits, 0.90),
        "service.attempts_per_job": _frac(
            sum(out["ledger"]["attempts"] for out in camps),
            sum(out["jobs"] for out in camps)),
        "service.worker_busy_frac": _frac(
            sum(out["ledger"]["busy_s"] for out in camps),
            sum(out["workers"] * out["serve_s"] for out in camps)),
        "service.artifact.put_s": self_s("service.artifact.put"),
        "service.artifact.put_bytes": items("service.artifact.put"),
        "service.artifact.get_s": self_s("service.artifact.get"),
        "catalog.build_s": self_s("catalog.build"),
        "catalog.select_s": self_s("catalog.select"),
        "service.unattributed_s": self_s("service.campaign")
        + self_s("service.warm"),
    })
    for kind in ("search", "select", "validate", "verify", "catalog"):
        m[f"service.stage.{kind}_s"] = stage.get(kind, 0.0)
    return {name: value if name.endswith(_SHARES) else value / len(rounds)
            for name, value in m.items()}


# -- entry point -------------------------------------------------------------


def declared_metrics(trace):
    """``{name: unit}`` of the metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def result(session, metrics, units):
    """The benchmark's result line: checks plus the declared metrics."""
    failed = len(session.failures)
    return {
        "correct": failed == 0,
        "attempted": session.attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"e2ebench: no program sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    try:
        session, metrics = run_workload(args.workload, args.seed,
                                       args.seconds, args.trace)
    except ChildFailed as exc:
        print(f"e2ebench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(WORKDIR, "store"), ignore_errors=True)
    failed = len(session.failures)
    for failure in session.failures:
        print(f"FAILED CHECK: {failure}", file=sys.stderr)
    print(f"failed_frac {failed / session.attempted:.6g} "
          f"({failed}/{session.attempted})", file=sys.stderr)
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"e2ebench: metrics not measured: {missing}", file=sys.stderr)
        return 1
    print("held-out tests above eta (counted, not failed): " + ", ".join(
        f"{kernel} {over}/{total}"
        for kernel, (over, total) in sorted(session.heldout.items())),
        file=sys.stderr)
    for name, unit in units.items():
        print(f"{name:36s} {metrics[name]:12.6g} {unit}", file=sys.stderr)
    print(json.dumps(result(session, metrics, units)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
