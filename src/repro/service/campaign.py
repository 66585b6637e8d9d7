"""Campaign planner: eta-sweep x restart matrix -> job DAG.

A campaign names a set of ``(kernel, eta)`` cells; each cell expands to::

    search[0..chains-1]  ->  select  ->  validate  ->  verify
         (independent)       (best-of)    (MCMC bound)  (uf / bnb + cert)

with downstream jobs gated on their upstream's *job-level* success (a
validate job that measures a large error still succeeds — the verdict
lives in its result document; only a crashed or exhausted job blocks
the verify stage).  The verify engine is picked per cell: ``uf``
(equivalence proof) for bit-wise cells (eta == 0), ``bnb`` (sound bound
+ certificate) otherwise.

Job identities are content digests, so submitting an overlapping
campaign — same kernel, more etas; same sweep, higher budget elsewhere —
reuses every job that already exists in the ledger, in whatever state
it is.  Only genuinely new work is added.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.serialize import content_digest, enc_float

from repro.service import jobs as J
from repro.service.store import Ledger

# The per-cell pipeline; every campaign runs these.
DEFAULT_STAGES = ("search", "select", "validate", "verify")
# Plus the optional campaign-wide terminal stage: one catalog job that
# joins every cell's (select, verify) pair into the certified Pareto
# catalog (opt-in — ``--catalog`` — because it gates on *all* cells).
ALL_STAGES = DEFAULT_STAGES + ("catalog",)


@dataclass(frozen=True)
class CampaignSpec:
    """Everything a campaign's jobs are derived from (pure data)."""

    kernels: Tuple[Tuple[str, float], ...]  # ((name, eta), ...)
    chains: int = 1
    proposals: int = 2_000
    testcases: int = 16
    seed: int = 0
    k: float = 1.0
    stages: Tuple[str, ...] = DEFAULT_STAGES
    validate_proposals: int = 2_000
    verify_budget: int = 128
    # Abstract domain for bnb verify cells ('separate' | 'relational').
    verify_domain: str = "separate"

    def __post_init__(self):
        if self.verify_domain not in ("separate", "relational"):
            raise ValueError(
                f"unknown verify domain {self.verify_domain!r}")
        if not self.kernels:
            raise ValueError("campaign needs at least one (kernel, eta)")
        if self.chains < 1:
            raise ValueError("campaign needs at least one chain")
        unknown = [s for s in self.stages if s not in ALL_STAGES]
        if unknown:
            raise ValueError(f"unknown stages {unknown} "
                             f"(known: {ALL_STAGES})")
        for stage in self.stages:
            upstream = ALL_STAGES[:ALL_STAGES.index(stage)]
            missing = [u for u in upstream if u not in self.stages]
            if missing:
                raise ValueError(
                    f"stage {stage!r} needs upstream stage(s) {missing}")

    def to_dict(self) -> Dict:
        data = {
            "kernels": [[name, enc_float(eta)] for name, eta in
                        self.kernels],
            "chains": self.chains,
            "proposals": self.proposals,
            "testcases": self.testcases,
            "seed": self.seed,
            "k": self.k,
            "stages": list(self.stages),
            "validate_proposals": self.validate_proposals,
            "verify_budget": self.verify_budget,
        }
        # Sparse: the default domain is omitted so existing campaign
        # ids (content digests of this dict) are unchanged.
        if self.verify_domain != "separate":
            data["verify_domain"] = self.verify_domain
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "CampaignSpec":
        from repro.core.serialize import dec_float

        return cls(
            kernels=tuple((name, dec_float(eta))
                          for name, eta in data["kernels"]),
            chains=int(data["chains"]),
            proposals=int(data["proposals"]),
            testcases=int(data["testcases"]),
            seed=int(data["seed"]),
            k=float(data["k"]),
            stages=tuple(data["stages"]),
            validate_proposals=int(data["validate_proposals"]),
            verify_budget=int(data["verify_budget"]),
            verify_domain=str(data.get("verify_domain", "separate")),
        )


def campaign_id(spec: CampaignSpec, name: str = "campaign") -> str:
    return content_digest({"name": name, "spec": spec.to_dict()})[:16]


def plan_campaign(spec: CampaignSpec) -> List[J.JobSpec]:
    """Expand the campaign into its job DAG (deterministic order:
    upstream before downstream, cells in declaration order)."""
    plan: List[J.JobSpec] = []
    catalog_cells: List[Tuple[str, float, str, str]] = []
    for name, eta in spec.kernels:
        cell = f"{name}/eta={eta:g}"
        search_digests: List[str] = []
        for i in range(spec.chains):
            job = J.JobSpec(
                "search",
                J.search_payload(name, eta, seed=spec.seed + 1 + i,
                                 proposals=spec.proposals,
                                 testcases=spec.testcases,
                                 tests_seed=spec.seed, k=spec.k),
                role=f"{cell}/search[{i}]")
            plan.append(job)
            search_digests.append(job.digest)
        if "select" not in spec.stages:
            continue
        select = J.JobSpec(
            "select", J.select_payload(name, eta, search_digests),
            deps=tuple(search_digests), role=f"{cell}/select")
        plan.append(select)
        validate = None
        if "validate" in spec.stages:
            validate = J.JobSpec(
                "validate",
                J.validate_payload(name, eta, select.digest,
                                   max_proposals=spec.validate_proposals,
                                   seed=spec.seed),
                deps=(select.digest,), role=f"{cell}/validate")
            plan.append(validate)
        if "verify" in spec.stages:
            engine = "uf" if eta == 0.0 else "bnb"
            deps = [select.digest]
            if validate is not None:
                deps.append(validate.digest)
            verify = J.JobSpec(
                "verify",
                J.verify_payload(name, eta, select.digest, engine,
                                 max_boxes=spec.verify_budget,
                                 domain=(spec.verify_domain
                                         if engine == "bnb"
                                         else "separate")),
                deps=tuple(deps), role=f"{cell}/verify")
            plan.append(verify)
            catalog_cells.append((name, eta, select.digest,
                                  verify.digest))
    if "catalog" in spec.stages and catalog_cells:
        # One campaign-wide terminal job: depends on every cell's
        # select (for the rewrite + latency) and verify (for the sound
        # bound), so it runs exactly when the sweep is fully certified.
        deps = tuple(d for _, _, sel, ver in catalog_cells
                     for d in (sel, ver))
        plan.append(J.JobSpec(
            "catalog", J.catalog_payload(catalog_cells),
            deps=deps, role="campaign/catalog"))
    return plan


def submit_campaign(ledger: Ledger, spec: CampaignSpec,
                    name: str = "campaign",
                    max_attempts: int = 3) -> Tuple[str, Dict[str, int]]:
    """Plan + record a campaign; returns ``(campaign id, counts)``.

    ``counts['new']`` is how many jobs were actually added;
    ``counts['reused']`` is how many already existed (dedupe hits).
    """
    cid = campaign_id(spec, name)
    ledger.add_campaign(cid, name, spec.to_dict())
    new = reused = 0
    for job in plan_campaign(spec):
        if ledger.add_job(job, max_attempts=max_attempts):
            new += 1
        else:
            reused += 1
        ledger.link_campaign(cid, job.digest, role=job.role)
    return cid, {"jobs": new + reused, "new": new, "reused": reused}


def campaign_cells(ledger: Ledger, cid: str) -> Dict[str, Dict[str, Dict]]:
    """Job rows of one campaign grouped by cell and stage (for status
    displays and harnesses): ``{cell: {stage: job row}}`` where search
    rows appear as ``search[i]``.

    One indexed query (:meth:`Ledger.campaign_jobs` joins membership to
    job rows over the ``campaign_jobs`` primary key), not a per-job
    lookup — status polls against a million-job ledger stay O(campaign).
    """
    cells: Dict[str, Dict[str, Dict]] = {}
    for job in ledger.campaign_jobs(cid):
        cell, _, stage = job["role"].rpartition("/")
        cells.setdefault(cell, {})[stage] = job
    return cells
