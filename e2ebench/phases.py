"""One benchmark phase in a fresh interpreter.

``run.py`` starts this file once per phase repeat (and, for the focus
search, once per kernel) so every measurement sees the program's
process-global caches -- JIT compile, vectorize, checkpoint store --
empty, as a user's process does::

    python3 e2ebench/phases.py '<json job>'

The job names the phase (``search``, ``certify`` or ``campaign``), its
sizes, the workload seed and whether to trace.  The last line of
standard output is one JSON object with the phase's measurements, the
outcome of its output checks and, when traced, its layer summary.

Only the standard library is imported at module level: importing the
program is part of the set-up time the phase reports (``setup_s`` runs
from the parent's spawn stamp to the first timed operation).
"""

from __future__ import annotations

import json
import math
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from hostspeed import HostSpeed  # noqa: E402
from tracing import Tracer, span  # noqa: E402

# The degree-reduced rewrites benchmarks/bench_relational.py certifies:
# a real, nonzero approximation error for the bounds to enclose.
REDUCED_DEGREE = {"sin": 9, "cos": 8, "tan": 9, "log": 12, "exp": 8}


class Checks:
    """Output checks of one phase: each one attempted, some failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def expect(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)


# -- search ----------------------------------------------------------------


def _shim_search(tracer):
    """Spans on every layer a proposal passes through."""
    import repro.core.cost as cost_mod
    from repro.core.cost import CostFunction
    from repro.core.runner import Runner
    from repro.core.search import Stoke
    from repro.core.transforms import Transforms

    tracer.wrap(Stoke, "optimize", "core.search")
    tracer.wrap(Transforms, "propose", "core.transforms.propose")
    tracer.wrap(CostFunction, "cost", "core.cost.cost")
    # Translation: the full path prepares through the Runner; the
    # incremental path compiles the shared prefix and binds the
    # suffix's interpreter steps itself.
    tracer.wrap(Runner, "prepare", "core.runner.prepare")
    tracer.wrap(cost_mod, "compile_program", "core.runner.prepare")
    tracer.wrap(cost_mod, "bound_steps", "core.runner.prepare")
    # Execution: both evaluation paths hand their per-chunk executor
    # to the chunk ladder, which is the one seam they share.  A chunk
    # returns one (values, signal) pair per test it executed.
    eq_loop = CostFunction._eq_loop
    begin, end, items = tracer.begin, tracer.end, tracer.items

    def traced_eq_loop(self, run_chunk, *args, **kwargs):
        def traced_chunk(index, stop):
            begin("core.runner.exec")
            try:
                out = run_chunk(index, stop)
            finally:
                end()
            items["core.runner.exec"] = \
                items.get("core.runner.exec", 0) + len(out)
            return out
        return eq_loop(self, traced_chunk, *args, **kwargs)

    tracer.patch(CostFunction, "_eq_loop", traced_eq_loop)


def search_phase(job, checks, tracer, marks, speed):
    from repro.core.cost import CostConfig, CostFunction
    from repro.core.search import SearchConfig, Stoke
    from repro.kernels.libimf import LIBIMF_KERNELS

    eta = float(job["eta"])
    kernels = []
    for name in job["kernels"]:
        spec = LIBIMF_KERNELS[name]()
        rng = random.Random(f"{job['seed']}:{name}")
        tests = spec.testcases(rng, job["tests"])
        heldout = spec.testcases(rng, job["heldout"])
        # Construction runs the target on every test (CostFunction), so
        # it is part of set-up, not of the search.
        stoke = Stoke(spec.program, tests, spec.live_outs,
                      CostConfig(eta=eta))
        kernels.append((name, spec, tests, heldout, stoke))
    marks["first_op"] = time.time()
    rows = []
    cost_us = []
    for name, spec, tests, heldout, stoke in kernels:
        if tracer is not None:
            _shim_search(tracer)
            first_span = len(tracer.spans)
        with speed.window() as timed:
            result = stoke.optimize(SearchConfig(
                proposals=job["proposals"], seed=job["chain_seed"]))
        if tracer is not None:
            tracer.restore()
            cost_us.extend(1e6 * (end - begin) for n, begin, end, _
                           in tracer.spans[first_span:]
                           if n == "core.cost.cost")
        stats = result.stats
        best = result.best_correct
        row = {
            "kernel": name,
            "wall_s": timed.seconds,
            "raw_wall_s": timed.raw,
            "proposals": stats.proposals,
            "invalid": stats.invalid_proposals,
            "accepted": stats.accepted,
            "best_cost": result.best_cost,
            "speedup": (spec.program.latency / result.best_correct_latency
                        if best is not None else 0.0),
            "jit_cache": dict(stats.jit_cache),
            "incremental": dict(stats.incremental),
            "dce_cache": dict(stats.dce_cache),
        }
        checks.expect(best is not None, f"search {name}: no correct rewrite")
        if best is not None:
            # The search's correctness claim (every test within eta),
            # re-derived on the reference emulator.
            reference = CostFunction(spec.program, tests, spec.live_outs,
                                     CostConfig(eta=eta), backend="emulator")
            checks.expect(reference.eq_fast(best)[0] == 0.0,
                          f"search {name}: best-correct rewrite exceeds "
                          f"eta on its tests under the emulator")
            row.update(_heldout(spec, best, heldout, eta,
                                stoke.cost_fn.runner.backend, checks, name))
        rows.append(row)
    return {"kernels": rows, "cost_us": cost_us}


def _heldout(spec, rewrite, tests, eta, backend, checks, name):
    """Re-run a rewrite on held-out tests under the search's backend and
    the emulator: live-outs must agree bit for bit.  Held-out error above
    eta is counted, not failed -- the default search never claims it."""
    from repro.core.cost import location_ulp_distance
    from repro.core.runner import Runner

    fast = Runner(spec.live_outs, backend=backend)
    slow = Runner(spec.live_outs, backend="emulator")
    fast_rw = fast.prepare(rewrite)
    over = 0
    worst = 0.0
    for test in tests:
        got = fast.run_values(fast_rw, test)
        want = slow.run_values(rewrite, test)
        checks.expect(got == want, f"search {name}: {backend} and emulator "
                      f"disagree on a held-out test")
        target, _ = slow.run_values(spec.program, test)
        values, signal = want
        err = math.inf if signal is not None else max(
            location_ulp_distance(loc, a, b)
            for loc, a, b in zip(slow.live_outs, values, target))
        worst = max(worst, err)
        over += err > eta
    return {"heldout_over_eta": over, "heldout_worst_ulps": worst}


# -- certify ---------------------------------------------------------------


def certify_phase(job, checks, tracer, marks, speed):
    from repro.core.runner import Runner
    from repro.kernels.libimf import LIBIMF_KERNELS
    from repro.validation.validator import Validator
    from repro.verify.bnb import BnBConfig, BnBVerifier

    domains = ("separate", "relational")
    pairs = []
    for name in job["kernels"]:
        factory = LIBIMF_KERNELS[name]
        spec = factory()
        rewrite = factory(REDUCED_DEGREE[name]).program
        validator = Validator(spec.program, rewrite, spec.live_outs,
                              dict(spec.ranges), spec.base_testcase)
        verifiers = {}
        for domain in domains:
            # Construction compiles both programs into transfer plans.
            with span(tracer, f"verify.{domain}.build"):
                verifiers[domain] = BnBVerifier(
                    spec.program, rewrite, spec.live_outs,
                    dict(spec.ranges), domain=domain)
        pairs.append((name, spec, rewrite, validator, verifiers))
    if tracer is not None:
        # Equation 13 evaluation: per sample (err, the default chain
        # strategy) or per speculative block (err_block).
        tracer.wrap(Validator, "err", "validation.err_block")
        tracer.wrap(Validator, "err_block", "validation.err_block")
        tracer.wrap(Runner, "run_values", "core.runner.exec",
                    on_result=lambda out, args: 1)
        tracer.wrap(Runner, "execute_batch_from", "core.runner.exec",
                    on_result=lambda out, args: len(out))
    marks["first_op"] = time.time()
    # The separate domain explores boxes ~15x faster than the relational
    # one, so it gets 4x the budget to run for a comparable time.
    configs = {"separate": BnBConfig(max_boxes=4 * job["budget"]),
               "relational": BnBConfig(max_boxes=job["budget"])}
    rows = []
    for pair in pairs:
        with span(tracer, "verify.certify"):
            rows.append(_certify_kernel(pair, configs, job, checks,
                                        tracer, speed))
    return {"kernels": rows}


def _certify_kernel(pair, configs, job, checks, tracer, speed):
    """Validate, then verify in each domain, then check: one kernel."""
    from repro.validation.validator import ValidationConfig
    from repro.verify.checker import check

    name, spec, rewrite, validator, verifiers = pair
    samples = job["validate_samples"]
    # A fixed sample count (no early Geweke stop) keeps the work
    # independent of the seed.
    with speed.window() as validating, \
            span(tracer, "validation.validate"):
        vres = validator.validate(ValidationConfig(
            max_proposals=samples, min_samples=samples, seed=job["seed"]))
    row = {"kernel": name, "validate_s": validating.seconds,
           "samples": vres.samples, "evaluations": vres.evaluations,
           "wasted": vres.wasted, "max_err": vres.max_err}
    wall = validating.seconds
    for domain, verifier in verifiers.items():
        config = configs[domain]
        with speed.window() as running, span(tracer, f"verify.{domain}.run"):
            result = verifier.run(config)
        with speed.window() as checking, \
                span(tracer, f"verify.{domain}.check"):
            cert = verifier.certificate(result, config=config)
            if job.get("tamper"):
                cert = _tampered(cert)
            report = check(cert, spec.program, rewrite)
        wall += running.seconds + checking.seconds
        row[domain] = {
            "run_s": running.seconds,
            "check_s": checking.seconds,
            "boxes": result.boxes_explored,
            "pruned": result.boxes_pruned,
            "transfer_s": result.stats.transfer_seconds,
            "bound_ulps": result.bound_ulps,
        }
        checks.expect(report.ok, f"certify {name}/{domain}: checker "
                      f"rejected the certificate: {report.failures[:2]}")
        # A sound bound encloses every error validation observed.
        checks.expect(vres.max_err <= result.bound_ulps,
                      f"certify {name}/{domain}: observed error "
                      f"{vres.max_err:g} above the certified bound "
                      f"{result.bound_ulps:g}")
    row["wall_s"] = wall
    return row


def _tampered(cert):
    """The certificate with its largest leaf bound forged down to 0."""
    import dataclasses

    bounds = list(cert.leaf_bounds)
    worst = max(range(len(bounds)), key=bounds.__getitem__)
    bounds[worst] = 0.0
    return dataclasses.replace(cert, leaf_bounds=tuple(bounds))


# -- campaign --------------------------------------------------------------


def campaign_phase(job, checks, tracer, marks, speed):
    import shutil

    from repro.catalog import (CatalogError, build_catalog,
                               load_catalog_bytes, parse_workload_spec,
                               resolve_catalog, select_for_budget,
                               store_catalog)
    from repro.service import Ledger, Scheduler, submit_campaign
    from repro.service.campaign import ALL_STAGES, CampaignSpec

    spec = CampaignSpec(
        kernels=tuple((name, float(eta)) for name, eta in job["cells"]),
        chains=job["chains"], proposals=job["proposals"],
        testcases=job["testcases"], seed=job["seed"],
        validate_proposals=job["validate_proposals"],
        verify_budget=job["budget"], stages=ALL_STAGES)
    workload = parse_workload_spec(",".join(sorted(
        {name for name, _ in job["cells"]})))
    store = job["store"]
    shutil.rmtree(store, ignore_errors=True)
    if tracer is not None:
        tracer.wrap(Ledger, "put_artifact", "service.artifact.put",
                    on_result=lambda out, args: len(args[1]))
        tracer.wrap(Ledger, "get_artifact", "service.artifact.get")

    marks["first_op"] = time.time()
    with speed.window() as cold, span(tracer, "service.campaign"), \
            Ledger(store) as ledger:
        with span(tracer, "service.submit"):
            cid, submitted = submit_campaign(ledger, spec, name="e2ebench")
        serve_start = time.perf_counter()
        with span(tracer, "service.serve"):
            counts = Scheduler(ledger, jobs=job["jobs"]).run()
        serve_s = time.perf_counter() - serve_start
        with span(tracer, "catalog.build"):
            try:
                digest = store_catalog(ledger, build_catalog(ledger, cid),
                                       campaign=cid)
            except CatalogError as exc:
                digest = None
                checks.expect(False, f"campaign: catalog build: {exc}")
    cold_slowdown = cold.raw / cold.seconds
    with Ledger(store) as ledger:
        jobs = ledger.jobs()
        attempts = {row["digest"]: ledger.attempts_of(row["digest"])
                    for row in jobs}
        deps = {row["digest"]: ledger.deps_of(row["digest"]) for row in jobs}
        # The catalog stage stores its body as canonical JSON, so its
        # result artifact's address is the catalog digest.
        staged = [ledger.artifacts_of(row["digest"]).get("result.json")
                  for row in jobs if row["kind"] == "catalog"]
    checks.expect(submitted["reused"] == 0,
                  "campaign: cold submission reused jobs")
    for row in jobs:
        # Every job runs once and succeeds: a failed or retried job is a
        # failed operation.
        tries = attempts[row["digest"]]
        checks.expect(row["state"] == "done" and len(tries) == 1,
                      f"campaign: {row['kind']} job {row['digest'][:12]} "
                      f"ended {row['state']} after {len(tries)} attempt(s): "
                      f"{[(t['outcome'], t['error']) for t in tries]}")
    checks.expect(staged == [digest],
                  "campaign: catalog stage and catalog build disagree")

    warm, warm_raw = [], []
    selections = set()
    for _ in range(job["warm_repeats"]):
        # A warm pass is a few milliseconds of SQLite and file I/O.
        with speed.window(bracket=True) as passed, \
                span(tracer, "service.warm"), Ledger(store) as ledger:
            with span(tracer, "service.submit"):
                _cid, again = submit_campaign(ledger, spec, name="e2ebench")
            # Nothing is left to run: serving finds that out from the
            # ledger's read path.
            with span(tracer, "service.serve"):
                recount = Scheduler(ledger, jobs=1).run()
            with span(tracer, "catalog.select"):
                served = resolve_catalog(ledger, cid)
                answer = served and select_for_budget(
                    load_catalog_bytes(ledger.get_artifact(served)),
                    workload, job["select_budget"])
        warm.append(passed.seconds)
        warm_raw.append(passed.raw)
        checks.expect(again["new"] == 0, "campaign: warm submission "
                      "created jobs")
        checks.expect(recount == counts, f"campaign: warm serve changed "
                      f"the ledger: {recount}")
        checks.expect(served == digest, "campaign: warm catalog differs "
                      "from cold")
        selections.add(json.dumps(answer, sort_keys=True))
    checks.expect(len(selections) == 1,
                  "campaign: warm selections disagree")
    shutil.rmtree(store, ignore_errors=True)
    return {
        "cold_s": cold.seconds, "raw_cold_s": cold.raw,
        "serve_s": serve_s / cold_slowdown,
        "warm_s": warm, "raw_warm_s": warm_raw,
        "digest": digest, "jobs": len(jobs), "workers": job["jobs"],
        "ledger": _ledger_timings(jobs, attempts, deps, cold_slowdown),
    }


def _ledger_timings(jobs, attempts, deps, slowdown):
    """Queue wait, attempt counts and per-stage run time from the ledger,
    at the nominal host speed.

    A job is ready when it was created and every dependency finished; its
    queue wait runs from then to its first attempt's start.
    """
    finished = {}
    for digest, rows in attempts.items():
        ends = [row["finished_at"] for row in rows if row["finished_at"]]
        finished[digest] = max(ends) if ends else None
    waits = []
    stage = {}
    runs = 0
    busy = 0.0
    for row in jobs:
        rows = attempts[row["digest"]]
        runs += len(rows)
        ready = max([row["created_at"]] + [finished[d] or row["created_at"]
                                           for d in deps[row["digest"]]])
        if rows:
            waits.append(max(0.0, rows[0]["started_at"] - ready))
        for attempt in rows:
            if attempt["finished_at"]:
                took = attempt["finished_at"] - attempt["started_at"]
                stage[row["kind"]] = stage.get(row["kind"], 0.0) + took
                busy += took
    return {"queue_waits": [w / slowdown for w in waits], "attempts": runs,
            "stage_s": {kind: secs / slowdown for kind, secs in stage.items()},
            "busy_s": busy / slowdown}


PHASES = {"search": search_phase, "certify": certify_phase,
          "campaign": campaign_phase}


def main():
    job = json.loads(sys.argv[1])
    sys.path.insert(0, job["src"])
    speed = HostSpeed()
    speed.start()
    tracer = Tracer() if job["trace"] else None
    checks = Checks()
    marks = {}
    out = PHASES[job["phase"]](job, checks, tracer, marks, speed)
    speed.stop()
    first_op = marks["first_op"]
    # Set-up runs from the parent's spawn stamp to the first timed
    # operation; everything after it is the phase's measured part.
    setup = first_op - job["spawned_at"]
    measured = speed.slowdown(first_op, time.time())
    out.update({
        "phase": job["phase"],
        "setup_s": setup / speed.slowdown(job["spawned_at"], first_op),
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "attempted": checks.attempted,
        "failures": checks.failures,
    })
    if tracer is not None:
        tracer.restore()
        out["layers"] = {
            name: dict(row, total_s=row["total_s"] / measured,
                       self_s=row["self_s"] / measured)
            for name, row in tracer.summary().items()}
        out["cost_us"] = [us / measured for us in out.get("cost_us", ())]
        tracer.dump(job["spans"], job["phase"])
    print(json.dumps(out))


if __name__ == "__main__":
    main()
