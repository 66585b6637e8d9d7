"""Job kinds, payload schemas, and content-addressed job identity.

A job is a *pure function* of its payload plus the result documents of
its dependencies: running it twice produces bit-identical result
documents (wall-clock telemetry excluded, and scrubbed before anything
is stored).  Its identity is therefore the SHA-256 digest of the
canonical JSON rendering of ``{kind, payload}`` — the ledger dedupes on
it, the artifact store keys checkpoints by it, and a re-submitted
campaign collapses onto whatever jobs already ran.

Payloads contain only JSON scalars.  Runtime *policy* — checkpoint
cadence, worker counts, retry budgets — is deliberately excluded from
the payload (and hence the digest): by the resume bit-identity
guarantees of the search/validate/verify layers, policy cannot change a
job's result, only how it gets there.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.core.serialize import content_digest

JOB_KINDS = ("search", "select", "validate", "verify", "catalog")


def job_digest(kind: str, payload: Dict) -> str:
    """SHA-256 identity of a job: kind + canonical payload."""
    if kind not in JOB_KINDS:
        raise ValueError(f"unknown job kind {kind!r} (known: {JOB_KINDS})")
    return content_digest({"kind": kind, "payload": payload})


@dataclass(frozen=True)
class JobSpec:
    """One job: what to run (payload) and what it waits for (deps)."""

    kind: str
    payload: Dict
    deps: Tuple[str, ...] = ()
    role: str = ""  # campaign-facing label, e.g. 'dot/eta=0/search[2]'

    @property
    def digest(self) -> str:
        return job_digest(self.kind, self.payload)


def resolve_kernel(name: str):
    """Kernel spec by name, across the aek and libimf families."""
    from repro.kernels.aek.vector import AEK_KERNELS
    from repro.kernels.libimf import LIBIMF_KERNELS

    if name in AEK_KERNELS:
        return AEK_KERNELS[name]()
    if name in LIBIMF_KERNELS:
        return LIBIMF_KERNELS[name]()
    known = sorted(AEK_KERNELS) + sorted(LIBIMF_KERNELS)
    raise KeyError(f"unknown kernel {name!r} (known: {', '.join(known)})")


def verify_environment(name: str):
    """(memory, concrete_gp, verify_ranges) for the sound verifier.

    The aek kernels execute against a fixed sandbox image and pinned
    general-purpose registers; ``delta`` additionally widens its ranges
    over the memory operands it reads (mirrors ``repro verify
    --kernel``).  The libimf kernels are register-pure.
    """
    from repro.kernels.aek import vector as V

    spec = resolve_kernel(name)
    ranges = dict(spec.ranges)
    if name == "delta":
        from repro.x86.memory import Memory

        ranges.update(V.delta_mem_ranges())
        return Memory(V.aek_segments()), dict(V.CONCRETE_GP_INDICES), ranges
    if name in ("scale", "dot", "add"):
        from repro.x86.memory import Memory

        return Memory(V.aek_segments()), dict(V.CONCRETE_GP_INDICES), ranges
    return None, None, ranges


# ---------------------------------------------------------------------------
# Payload constructors (the only places payload schemas are spelled out)


def search_payload(kernel: str, eta: float, seed: int, proposals: int,
                   testcases: int, tests_seed: int, k: float = 1.0) -> Dict:
    return {
        "kernel": kernel,
        "eta": float(eta),
        "seed": int(seed),
        "proposals": int(proposals),
        "testcases": int(testcases),
        "tests_seed": int(tests_seed),
        "k": float(k),
    }


def select_payload(kernel: str, eta: float,
                   search_digests: List[str]) -> Dict:
    return {
        "kernel": kernel,
        "eta": float(eta),
        "searches": list(search_digests),
    }


def validate_payload(kernel: str, eta: float, select_digest: str,
                     max_proposals: int, seed: int) -> Dict:
    return {
        "kernel": kernel,
        "eta": float(eta),
        "select": select_digest,
        "max_proposals": int(max_proposals),
        "seed": int(seed),
    }


def verify_payload(kernel: str, eta: float, select_digest: str,
                   engine: str, max_boxes: int = 256,
                   domain: str = "separate") -> Dict:
    if engine not in ("uf", "bnb"):
        raise ValueError(f"unknown verify engine {engine!r}")
    if domain not in ("separate", "relational"):
        raise ValueError(f"unknown verify domain {domain!r}")
    payload = {
        "kernel": kernel,
        "eta": float(eta),
        "select": select_digest,
        "engine": engine,
        "max_boxes": int(max_boxes),
    }
    # Sparse encoding: the default domain is omitted so pre-existing
    # campaigns keep their content-addressed job digests.
    if domain != "separate":
        payload["domain"] = domain
    return payload


def catalog_payload(cells: List[Tuple[str, float, str, str]]) -> Dict:
    """A catalog job: join ``(kernel, eta, select, verify)`` cells into
    the campaign's certified Pareto catalog.  Pure function of the dep
    result documents, so the same finished cells always produce the
    same catalog bytes regardless of which campaign asked."""
    return {
        "cells": [[kernel, float(eta), select, verify]
                  for kernel, eta, select, verify in cells],
    }
