"""Conservative write sets of programs and program slices.

A write set is a ``(gp_indices, xmm_lo_indices, xmm_hi_indices,
writes_mem)`` tuple naming the machine-state slots an execution can
modify.  :meth:`~repro.x86.testcase.TestCase.pooled_state` uses it to
reset only those slots between runs: the JIT reports exact sets from
codegen, and the vector backend and the validator use the liveness-based
over-approximation computed here.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.x86.program import Program


def union_writes(a: tuple, b: tuple) -> tuple:
    """Union of two ``(gp, xmm_lo, xmm_hi, mem)`` write sets."""
    return (tuple(sorted(set(a[0]) | set(b[0]))),
            tuple(sorted(set(a[1]) | set(b[1]))),
            tuple(sorted(set(a[2]) | set(b[2]))),
            a[3] or b[3])


# Per-instruction def-set contributions, memoized: program_writes runs
# once per vectorized program, and recomputing uses_and_defs for ~n
# slots dwarfed the work it was sizing.  Novel
# instructions (fresh immediates) accumulate, so the cache is capped and
# dropped wholesale when full — refilling is cheap.
_INSTR_WRITES_CACHE: Dict[object, tuple] = {}
_INSTR_WRITES_CACHE_CAP = 65536


def _instr_writes(instr) -> tuple:
    """``(gp_indices, xmm_indices, writes_mem)`` defs of one instruction."""
    cached = _INSTR_WRITES_CACHE.get(instr)
    if cached is not None:
        return cached
    from repro.x86.liveness import uses_and_defs
    from repro.x86.registers import GP64_NAMES, XMM_NAMES

    gp_index = {name: i for i, name in enumerate(GP64_NAMES)}
    xmm_index = {name: i for i, name in enumerate(XMM_NAMES)}
    gp, xmm = set(), set()
    mem = False
    _uses, defs = uses_and_defs(instr)
    for name in defs:
        if name == "mem":
            mem = True
        elif name in gp_index:
            gp.add(gp_index[name])
        elif name in xmm_index:
            xmm.add(xmm_index[name])
    entry = (frozenset(gp), frozenset(xmm), mem)
    if len(_INSTR_WRITES_CACHE) >= _INSTR_WRITES_CACHE_CAP:
        _INSTR_WRITES_CACHE.clear()
    _INSTR_WRITES_CACHE[instr] = entry
    return entry


def program_writes(program: Program, start: int = 0,
                   stop: Optional[int] = None) -> tuple:
    """Conservative ``(gp, xmm_lo, xmm_hi, mem)`` write set of a slice.

    The JIT reports exact write sets from codegen; this liveness-based
    over-approximation (XMM defs count both halves) serves the vector
    backend and the validator, where any superset is safe for the
    pooled-state reset.
    """
    gp, xmm = set(), set()
    mem = False
    for instr in program.slots[start:stop]:
        if instr.is_unused:
            continue
        gp_ids, xmm_ids, instr_mem = _instr_writes(instr)
        gp |= gp_ids
        xmm |= xmm_ids
        mem = mem or instr_mem
    xmm_sorted = tuple(sorted(xmm))
    return tuple(sorted(gp)), xmm_sorted, xmm_sorted, mem
