"""Serializable verification certificates.

A :class:`Certificate` is the branch-and-bound verifier's *checkable*
output: the leaf-box partition of the input domain (inclusive ordered
bit-index ranges per dimension), one sound ULP bound per leaf, digests
pinning the two programs and the memory image the bounds were derived
against, and the search configuration for provenance.  Soundness of a
claimed bound then reduces to three obligations an independent checker
can discharge without trusting the search loop
(:mod:`repro.verify.checker`):

1. the digests match the programs/memory being certified,
2. the leaves tile the root box exactly (no gaps, no overlaps — exact
   integer arithmetic in bit space), and
3. every leaf's recorded bound is reproduced by a fresh run of the
   interval transfer functions.

Infinite per-leaf bounds (``complete = False`` certificates, from
unsplittable boxes the analysis cannot reach) are serialized as JSON
``null`` so certificates stay strict-JSON round-trippable.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.x86.memory import Memory
from repro.x86.program import Program

from repro.verify.partition import BitBox, Dim

CERT_VERSION = 1

# Abstract domains a certificate's leaf bounds may be derived in; the
# checker rebuilds the same domain's transfer to re-derive them.
KNOWN_DOMAINS = ("separate", "relational")


def program_digest(program: Program) -> str:
    """SHA-256 over the program's full textual rendering."""
    text = program.to_text(include_unused=True)
    return hashlib.sha256(text.encode()).hexdigest()


def memory_digest(memory: Optional[Memory]) -> str:
    """SHA-256 over every segment's (name, base, writability, bytes)."""
    h = hashlib.sha256()
    if memory is not None:
        for seg in sorted(memory.segments, key=lambda s: s.name):
            h.update(f"{seg.name}:{seg.base}:{int(seg.writable)}:".encode())
            h.update(bytes(seg.data))
            h.update(b";")
    return h.hexdigest()


def _encode_bound(bound: float) -> Optional[float]:
    return None if math.isinf(bound) else bound


def _decode_bound(raw: Optional[float]) -> float:
    return math.inf if raw is None else float(raw)


@dataclass(frozen=True)
class Certificate:
    """A checkable record of one verification run."""

    version: int
    target_digest: str
    rewrite_digest: str
    memory_digest: str
    concrete_gp: Tuple[Tuple[int, int], ...]
    live_outs: Tuple[str, ...]
    # (location string, ftype, lo_index, hi_index) per dimension.
    dims: Tuple[Tuple[str, str, int, int], ...]
    # Leaf boxes as per-dimension inclusive index ranges, parallel to
    # leaf_bounds (math.inf for analysis-unreachable leaves).
    leaves: Tuple[Tuple[Tuple[int, int], ...], ...]
    leaf_bounds: Tuple[float, ...]
    bound_ulps: float
    lower_bound: float
    complete: bool
    termination: str
    config: Dict[str, object]
    stats: Dict[str, float]
    # Abstract domain the leaf bounds were derived in ('separate' =
    # independent output hulls, 'relational' = product program).
    domain: str = "separate"

    # -- construction ---------------------------------------------------

    @classmethod
    def from_run(cls, spec, dims: Sequence[Dim], result,
                 config=None) -> "Certificate":
        """Package a :class:`~repro.verify.bnb.BnBResult`.

        ``spec`` is the verifier's :class:`~repro.verify.bnb.TransferSpec`
        (programs + environment); ``result`` the finished run.
        """
        config_dict: Dict[str, object] = {}
        if config is not None:
            config_dict = {
                "max_boxes": config.max_boxes,
                "deadline": config.deadline,
                "target_gap": config.target_gap,
                "seeds": len(config.seeds),
            }
        return cls(
            version=CERT_VERSION,
            target_digest=program_digest(spec.target),
            rewrite_digest=program_digest(spec.rewrite),
            memory_digest=memory_digest(spec.memory),
            concrete_gp=tuple(sorted(spec.concrete_gp)),
            live_outs=tuple(spec.live_outs),
            dims=tuple((str(d.loc), d.ftype, d.lo_index, d.hi_index)
                       for d in dims),
            leaves=tuple(leaf.bounds for leaf in result.leaves),
            leaf_bounds=tuple(result.leaf_bounds),
            bound_ulps=result.bound_ulps,
            lower_bound=result.lower_bound,
            complete=result.complete,
            termination=result.termination,
            config=config_dict,
            stats={
                "boxes_explored": result.boxes_explored,
                "boxes_pruned": result.boxes_pruned,
                "rounds": result.rounds,
                "max_frontier": result.max_frontier,
                "wall_time": result.wall_time,
                "concrete_bit_ops": result.stats.concrete_bit_ops,
                "widened_bit_ops": result.stats.widened_bit_ops,
            },
            domain=getattr(spec, "domain", "separate"),
        )

    # -- derived views --------------------------------------------------

    def root_box(self) -> BitBox:
        return BitBox(tuple((lo, hi) for _, _, lo, hi in self.dims))

    def leaf_boxes(self) -> List[BitBox]:
        return [BitBox(tuple(tuple(b) for b in leaf))
                for leaf in self.leaves]

    def dim_objects(self) -> Tuple[Dim, ...]:
        from repro.x86.locations import parse_loc

        return tuple(Dim(parse_loc(loc), ftype, lo, hi)
                     for loc, ftype, lo, hi in self.dims)

    def value_ranges(self) -> Dict[str, Tuple[float, float]]:
        """The certified domain as user-facing value ranges."""
        from repro.verify.partition import value_of

        return {loc: (value_of(lo, ftype), value_of(hi, ftype))
                for loc, ftype, lo, hi in self.dims}

    # -- serialization --------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        data = asdict(self)
        data["leaf_bounds"] = [_encode_bound(b) for b in self.leaf_bounds]
        data["bound_ulps"] = _encode_bound(self.bound_ulps)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Certificate":
        if data.get("version") != CERT_VERSION:
            raise ValueError(
                f"unsupported certificate version {data.get('version')!r}")
        domain = data.get("domain", "separate")
        if domain not in KNOWN_DOMAINS:
            raise ValueError(
                f"unknown certificate domain {domain!r} (expected one of "
                f"{', '.join(KNOWN_DOMAINS)})")
        return cls(
            version=CERT_VERSION,
            target_digest=data["target_digest"],
            rewrite_digest=data["rewrite_digest"],
            memory_digest=data["memory_digest"],
            concrete_gp=tuple((int(i), int(v))
                              for i, v in data["concrete_gp"]),
            live_outs=tuple(data["live_outs"]),
            dims=tuple((loc, ftype, int(lo), int(hi))
                       for loc, ftype, lo, hi in data["dims"]),
            leaves=tuple(tuple((int(lo), int(hi)) for lo, hi in leaf)
                         for leaf in data["leaves"]),
            leaf_bounds=tuple(_decode_bound(b)
                              for b in data["leaf_bounds"]),
            bound_ulps=_decode_bound(data["bound_ulps"]),
            lower_bound=float(data["lower_bound"]),
            complete=bool(data["complete"]),
            termination=data["termination"],
            config=dict(data.get("config", {})),
            stats=dict(data.get("stats", {})),
            domain=str(domain),
        )

    def to_json(self, indent: Optional[int] = None) -> str:
        return json.dumps(self.to_dict(), indent=indent, allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            fh.write(self.to_json(indent=None))
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Certificate":
        with open(path) as fh:
            return cls.from_json(fh.read())

    @property
    def size_bytes(self) -> int:
        return len(self.to_json().encode())
