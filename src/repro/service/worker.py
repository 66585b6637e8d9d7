"""Job execution: one job kind -> one deterministic result document.

Runs inside :class:`~repro.core.parallel.TaskPool` workers (or inline
for ``jobs=1``).  Workers never open the ledger database — they receive
their payload and dependency result documents over the pipe and write
only their own per-job checkpoint file (atomic tmp + rename), so the
single-writer discipline of the store holds no matter how workers die.

Every executor is a pure function of ``(payload, dep docs)``: re-running
a job — fresh or resumed from its checkpoint — produces byte-identical
``result.json`` content (wall-clock telemetry is scrubbed from the
canonical document before it is stored).
"""

from __future__ import annotations

import hashlib
import os
from typing import Callable, Dict, Optional

from repro.core import serialize as S
from repro.service.jobs import resolve_kernel, verify_environment
from repro.service.store import _atomic_write

# Fields that record wall-clock or cache behaviour, not results; they
# differ between interrupted and uninterrupted runs, so the canonical
# stored documents zero them (raw values travel via telemetry instead).
_SEARCH_STATS_SCRUB = ("elapsed_seconds",)


class JobFailed(RuntimeError):
    """The job ran to completion but its outcome is a failure."""


def worker_context(store_root: str) -> Dict:
    """Per-worker context: where checkpoints live, plus a kernel cache."""
    return {"root": store_root, "kernels": {}}


def _checkpoint_path(context: Dict, digest: str) -> str:
    return os.path.join(context["root"], "checkpoints", f"{digest}.json")


def _load_checkpoint(context: Dict, digest: str, kind: str,
                     decode: Callable) -> Optional[object]:
    """Best-effort checkpoint load; anything unreadable means a fresh
    start (a checkpoint is an optimization, never a correctness input).
    """
    import json

    path = _checkpoint_path(context, digest)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (FileNotFoundError, ValueError):
        return None
    if doc.get("job_kind") != kind:
        return None
    try:
        return decode(doc["state"])
    except (KeyError, ValueError):
        return None


def _saver(context: Dict, digest: str, kind: str) -> Callable:
    path = _checkpoint_path(context, digest)

    def save(checkpoint) -> None:
        doc = {"job_kind": kind, "state": checkpoint.to_dict()}
        _atomic_write(path, S.canonical_json(doc).encode("utf-8"))

    return save


def _kernel(context: Dict, name: str):
    cache = context.setdefault("kernels", {})
    if name not in cache:
        cache[name] = resolve_kernel(name)
    return cache[name]


# ---------------------------------------------------------------------------
# Executors


def _run_search(context: Dict, digest: str, payload: Dict,
                deps: Dict, policy: Dict) -> Dict:
    import random

    from repro.core import CostConfig, SearchConfig, Stoke
    from repro.core.search import SearchCheckpoint

    spec = _kernel(context, payload["kernel"])
    tests = spec.testcases(random.Random(payload["tests_seed"]),
                           payload["testcases"])
    stoke = Stoke(spec.program, tests, spec.live_outs,
                  CostConfig(eta=payload["eta"], k=payload["k"]))
    config = SearchConfig(proposals=payload["proposals"],
                          seed=payload["seed"])
    resume = _load_checkpoint(context, digest, "search",
                              SearchCheckpoint.from_dict)
    result = stoke.search(
        config,
        checkpoint_every=int(policy.get("checkpoint_every", 0)),
        on_checkpoint=_saver(context, digest, "search"),
        resume=resume)
    doc = result.to_dict()
    for key in _SEARCH_STATS_SCRUB:
        doc["stats"][key] = 0.0
    # Cache/ordering telemetry depends on where the run was interrupted;
    # it is observability, not a result.
    for key in ("jit_cache", "incremental", "dce_cache", "test_ordering"):
        doc["stats"][key] = {}
    return {"doc": doc, "files": {},
            "telemetry": {"elapsed_seconds": result.stats.elapsed_seconds,
                          "resumed_at": resume.iteration if resume else 0}}


def _run_select(context: Dict, digest: str, payload: Dict,
                deps: Dict, policy: Dict) -> Dict:
    from repro.core.restarts import aggregate
    from repro.core.serialize import search_result_from_dict

    chains = []
    for dep in payload["searches"]:
        if dep not in deps:
            raise JobFailed(f"missing search result {dep[:12]}")
        chains.append(search_result_from_dict(deps[dep]))
    restart = aggregate(chains, jobs=len(chains))
    best = restart.best
    if best.best_correct is None:
        raise JobFailed(
            f"no chain found a correct rewrite "
            f"({len(chains)} chain(s), best cost {best.best_cost:g})")
    spec = _kernel(context, payload["kernel"])
    doc = {
        "version": S.SCHEMA_VERSION,
        "kind": "select_result",
        "kernel": payload["kernel"],
        "eta": S.enc_float(payload["eta"]),
        "best_seed": best.seed,
        "best_correct": S.program_to_dict(best.best_correct),
        "latency": best.best_correct_latency,
        "target_latency": spec.program.latency,
        "speedup": (spec.program.latency / best.best_correct_latency
                    if best.best_correct_latency else None),
        "chains_with_correct": restart.chains_with_correct,
        "chains": len(chains),
    }
    return {"doc": doc,
            "files": {"rewrite.s": best.best_correct.to_text()},
            "telemetry": {"chains_with_correct":
                          restart.chains_with_correct}}


def _rewrite_of(deps: Dict, select_digest: str):
    if select_digest not in deps:
        raise JobFailed(f"missing select result {select_digest[:12]}")
    return S.program_from_dict(deps[select_digest]["best_correct"])


def _run_validate(context: Dict, digest: str, payload: Dict,
                  deps: Dict, policy: Dict) -> Dict:
    from repro.validation.validator import (ValidationCheckpoint,
                                            ValidationConfig, Validator)

    spec = _kernel(context, payload["kernel"])
    rewrite = _rewrite_of(deps, payload["select"])
    validator = Validator(spec.program, rewrite, spec.live_outs,
                          dict(spec.ranges), spec.base_testcase)
    config = ValidationConfig(eta=payload["eta"],
                              max_proposals=payload["max_proposals"],
                              seed=payload["seed"])
    resume = _load_checkpoint(context, digest, "validate",
                              ValidationCheckpoint.from_dict)
    result = validator.validate(
        config,
        checkpoint_every=int(policy.get("checkpoint_every", 0)),
        on_checkpoint=_saver(context, digest, "validate"),
        resume=resume)
    doc = S.validation_result_to_dict(result)
    doc["kernel"] = payload["kernel"]
    doc["eta"] = S.enc_float(payload["eta"])
    return {"doc": doc, "files": {},
            "telemetry": {"samples": result.samples,
                          "evaluations": result.evaluations,
                          "resumed_at": resume.iteration if resume else 0}}


def _run_verify(context: Dict, digest: str, payload: Dict,
                deps: Dict, policy: Dict) -> Dict:
    from repro.verify.certificate import program_digest

    spec = _kernel(context, payload["kernel"])
    rewrite = _rewrite_of(deps, payload["select"])
    # Program identities ride in the result document so downstream
    # consumers (the catalog job foremost) can pin what was verified
    # without re-resolving the kernel or re-reading dep artifacts.
    identity = {
        "target_digest": program_digest(spec.program),
        "rewrite_digest": program_digest(rewrite),
    }

    if payload["engine"] == "uf":
        from repro.verify import check_equivalent_uf

        memory, concrete_gp, _ = verify_environment(payload["kernel"])
        outcome = check_equivalent_uf(spec.program, rewrite,
                                      spec.live_outs, memory=memory,
                                      concrete_gp=concrete_gp)
        doc = {
            "version": S.SCHEMA_VERSION,
            "kind": "verify_result",
            "engine": "uf",
            "kernel": payload["kernel"],
            "eta": S.enc_float(payload["eta"]),
            "proved": bool(outcome.proved),
            **identity,
        }
        return {"doc": doc, "files": {},
                "telemetry": {"proved": bool(outcome.proved)}}

    from repro.verify.bnb import BnBCheckpoint, BnBConfig, BnBVerifier

    memory, concrete_gp, ranges = verify_environment(payload["kernel"])
    domain = payload.get("domain", "separate")
    verifier = BnBVerifier(spec.program, rewrite, spec.live_outs, ranges,
                           memory=memory, concrete_gp=concrete_gp,
                           domain=domain)
    # Refinement is serial; campaign parallelism comes from running many
    # verify jobs at once.
    config = BnBConfig(max_boxes=payload["max_boxes"])
    resume = _load_checkpoint(context, digest, "verify",
                              BnBCheckpoint.from_dict)
    if resume is not None and resume.domain != domain:
        # A stale checkpoint from a different domain cannot seed this
        # search; start fresh rather than mixing leaf partitions.
        resume = None
    result = verifier.run(
        config, resume=resume,
        checkpoint_rounds=int(policy.get("checkpoint_rounds", 0)),
        on_checkpoint=_saver(context, digest, "verify"),
        checkpoint_seconds=float(policy.get("checkpoint_seconds", 0.0)))
    cert = verifier.certificate(result, config=config)
    cert_doc = cert.to_dict()
    # Wall time is telemetry; scrub it so certificates are reproducible
    # byte-for-byte across interrupted and uninterrupted runs.
    cert_doc.get("stats", {})["wall_time"] = 0.0
    cert_bytes = S.canonical_json(cert_doc)
    doc = {
        "version": S.SCHEMA_VERSION,
        "kind": "verify_result",
        "engine": "bnb",
        "domain": domain,
        "kernel": payload["kernel"],
        "eta": S.enc_float(payload["eta"]),
        "bound_ulps": S.enc_float(result.bound_ulps),
        "lower_bound": S.enc_float(result.lower_bound),
        "complete": bool(result.complete),
        "termination": result.termination,
        "boxes_explored": result.boxes_explored,
        "boxes_pruned": result.boxes_pruned,
        "leaves": len(result.leaves),
        # The certificate is deterministic (wall time scrubbed above),
        # so its content address belongs in the canonical result: it is
        # how catalog entries pin the exact proof they cite.
        "certificate_digest": hashlib.sha256(
            cert_bytes.encode("utf-8")).hexdigest(),
        **identity,
    }
    return {"doc": doc,
            "files": {"certificate.json": cert_bytes},
            "telemetry": {"wall_time": result.wall_time,
                          "boxes_explored": result.boxes_explored,
                          "boxes_per_second": result.boxes_per_second,
                          "transfer_seconds":
                              result.stats.transfer_seconds,
                          "resumed": resume is not None}}


def _run_catalog(context: Dict, digest: str, payload: Dict,
                 deps: Dict, policy: Dict) -> Dict:
    from repro.catalog.frontier import (CatalogError, assemble_catalog,
                                        catalog_digest)

    cells = [(kernel, S.dec_float(eta), select, verify)
             for kernel, eta, select, verify in payload["cells"]]
    try:
        body = assemble_catalog(cells, deps)
    except CatalogError as exc:
        raise JobFailed(str(exc))
    summary = {
        "digest": catalog_digest(body),
        "kernels": len(body["kernels"]),
        "entries": sum(len(k["entries"])
                       for k in body["kernels"].values()),
        "skipped": len(body["skipped"]),
    }
    # The body IS the result document: the scheduler stores it as
    # canonical JSON, so the result artifact's content address equals
    # catalog_digest(body) and rebuilds dedupe in the artifact store.
    return {"doc": body, "files": {}, "telemetry": summary}


_EXECUTORS = {
    "search": _run_search,
    "select": _run_select,
    "validate": _run_validate,
    "verify": _run_verify,
    "catalog": _run_catalog,
}


def execute_job(context: Dict, item: Dict) -> Dict:
    """TaskPool entry point.  ``item`` carries everything the job needs:
    ``{digest, kind, payload, deps: {digest: result doc}, policy}``.
    Returns ``{doc, files, telemetry}``; raises on failure (the pool
    forwards the error string to the scheduler).
    """
    executor = _EXECUTORS.get(item["kind"])
    if executor is None:
        raise JobFailed(f"unknown job kind {item['kind']!r}")
    return executor(context, item["digest"], item["payload"],
                    item.get("deps", {}), item.get("policy", {}))
