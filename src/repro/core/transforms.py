"""The proposal distribution ``q(·)``: STOKE's four program transforms.

Opcode, Operand, Swap, and Instruction moves (Section 2.2), proposed with
equal probability.  Together the four moves are ergodic: any program can
reach any other through a finite sequence of proposals.

On symmetry: the Opcode, Operand, and Swap moves are exactly symmetric
(``q(x -> x*) = q(x* -> x)``).  The Instruction move is not — deleting a
line (proposing UNUSED) and re-inserting the exact instruction it
replaced have different probabilities — but, following both STOKE
(ASPLOS 2013) and this paper, the acceptance rule treats the proposal
distribution as symmetric and applies the plain Metropolis ratio of
Equation 4.  What matters in practice is that the *occupancy drift* of
the instruction move is balanced: with a fixed small probability of
proposing UNUSED, an accept-everything walk saturates at full occupancy
and the chain never explores shorter programs.  The move therefore
scales its deletion probability with slot occupancy (see
:meth:`Transforms.delete_probability`): on an empty program it almost
always inserts, on a full program it deletes with probability
``1 - unused_probability``, and the zero-drift point sits at half
occupancy, so length-reducing rewrites stay reachable.

Random operands are drawn from an :class:`OperandPool` seeded from the
target — the registers, memory references, and immediates the target
mentions, plus a small default register set — mirroring how STOKE keeps
its proposal space anchored to the code being optimized.

Sampling is deterministic given the ``random.Random`` instance: candidate
operands are always enumerated in a sorted order (never raw ``set`` /
``frozenset`` iteration order, which varies with per-process string-hash
randomization), so a seeded chain replays bit-identically across
interpreter invocations and across the worker processes of
:mod:`repro.core.parallel`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.x86.instruction import UNUSED, Instruction
from repro.x86.opcodes import OPCODES
from repro.x86.operands import Imm, Kind, Mem, Operand, Reg32, Reg64, Xmm
from repro.x86.program import Program

MOVE_KINDS = ("opcode", "operand", "swap", "instruction")

_DEFAULT_IMMS = (0, 1, 2, 3, 4, 8, 16, 31, 32, 52, 63)


class OperandPool:
    """Candidate operands for random proposals, grouped by kind."""

    def __init__(self, target: Program,
                 extra_xmm: int = 8, extra_gp: int = 4,
                 extra_imms: Sequence[int] = _DEFAULT_IMMS):
        xmm: Set[int] = set(range(extra_xmm))
        gp: Set[int] = set()
        imms: Set[int] = set(extra_imms)
        mems: Set[Mem] = set()
        for instr in target.code:
            for op in instr.operands:
                if isinstance(op, Xmm):
                    xmm.add(op.index)
                elif isinstance(op, (Reg64, Reg32)):
                    gp.add(op.index)
                elif isinstance(op, Imm):
                    imms.add(op.value)
                elif isinstance(op, Mem):
                    mems.add(op)
                    gp.add(op.base)
                    if op.index is not None:
                        gp.add(op.index)
        # A few scratch GP registers beyond what the target uses
        # (avoiding rsp, which anchors the stack segment).
        for idx in (0, 1, 2, 3):  # rax, rcx, rdx, rbx
            if len(gp) >= extra_gp:
                break
            gp.add(idx)

        self.by_kind: Dict[Kind, List[Operand]] = {
            Kind.XMM: [Xmm(i) for i in sorted(xmm)],
            Kind.R64: [Reg64(i) for i in sorted(gp)],
            Kind.R32: [Reg32(i) for i in sorted(gp)],
            Kind.IMM: [Imm(v) for v in sorted(imms)],
            Kind.M32: sorted((m for m in mems if m.size == 4), key=str),
            Kind.M64: sorted((m for m in mems if m.size == 8), key=str),
            Kind.M128: sorted((m for m in mems if m.size == 16), key=str),
        }

    def sample(self, rng: random.Random, kinds: frozenset) -> Optional[Operand]:
        """Draw a random operand matching one of ``kinds``.

        Kinds are visited in sorted order: ``frozenset`` iteration order
        depends on string-hash randomization (``Kind`` hashes by member
        name), which would make seeded chains diverge across processes.
        """
        candidates: List[Operand] = []
        for kind in sorted(kinds, key=lambda k: k.value):
            candidates.extend(self.by_kind.get(kind, ()))
        if not candidates:
            return None
        return rng.choice(candidates)


def default_opcode_pool(target: Program,
                        include_flavors: Tuple[str, ...] = ("float", "int",
                                                            "move", "cmp"),
                        ) -> List[str]:
    """Opcodes eligible for proposals: everything in the registry except
    the UNUSED token (inserted explicitly by the Instruction move)."""
    del target  # the pool is currently target-independent
    return [name for name, spec in sorted(OPCODES.items())
            if spec.flavor in include_flavors]


class Transforms:
    """Samples random program modifications."""

    def __init__(self, target: Program,
                 opcode_pool: Optional[Sequence[str]] = None,
                 operand_pool: Optional[OperandPool] = None,
                 unused_probability: float = 0.20,
                 max_tries: int = 16,
                 move_kinds: Optional[Sequence[str]] = None):
        """``move_kinds`` restricts proposals to a subset of
        :data:`MOVE_KINDS` (used by the move-mix ablation); the default is
        all four moves with equal probability."""
        self.opcode_pool = list(opcode_pool) if opcode_pool is not None \
            else default_opcode_pool(target)
        self.operand_pool = operand_pool if operand_pool is not None \
            else OperandPool(target)
        self.unused_probability = unused_probability
        self.max_tries = max_tries
        kinds = tuple(move_kinds) if move_kinds is not None else MOVE_KINDS
        unknown = [k for k in kinds if k not in MOVE_KINDS]
        if unknown or not kinds:
            raise ValueError(f"bad move kinds: {unknown or kinds!r}")
        self.move_kinds = kinds

    # -- individual moves -------------------------------------------------

    def propose_opcode(self, rng: random.Random, program: Program
                       ) -> Optional[Program]:
        """Replace one instruction's opcode, keeping its operands."""
        slots = [i for i, ins in enumerate(program.slots) if not ins.is_unused]
        if not slots:
            return None
        index = rng.choice(slots)
        instr = program.slots[index]
        compatible = [name for name in self.opcode_pool
                      if name != instr.opcode
                      and OPCODES[name].accepts(instr.operands)]
        if not compatible:
            return None
        return program.with_slot(
            index, Instruction(rng.choice(compatible), instr.operands))

    def propose_operand(self, rng: random.Random, program: Program
                        ) -> Optional[Program]:
        """Replace one operand of one instruction."""
        slots = [i for i, ins in enumerate(program.slots)
                 if not ins.is_unused and ins.operands]
        if not slots:
            return None
        index = rng.choice(slots)
        instr = program.slots[index]
        spec = instr.spec
        pos = rng.randrange(len(instr.operands))
        for _ in range(self.max_tries):
            op = self.operand_pool.sample(rng, spec.slots[pos].kinds)
            if op is None:
                return None
            operands = tuple(op if i == pos else old
                             for i, old in enumerate(instr.operands))
            if spec.accepts(operands):
                return program.with_slot(index, Instruction(instr.opcode,
                                                            operands))
        return None

    def propose_swap(self, rng: random.Random, program: Program
                     ) -> Optional[Program]:
        """Interchange two lines of code."""
        n = len(program.slots)
        if n < 2:
            return None
        i = rng.randrange(n)
        j = rng.randrange(n - 1)
        if j >= i:
            j += 1
        return program.with_swap(i, j)

    def random_instruction(self, rng: random.Random) -> Optional[Instruction]:
        """A uniformly random valid instruction from the pools."""
        for _ in range(self.max_tries):
            name = rng.choice(self.opcode_pool)
            spec = OPCODES[name]
            operands = []
            ok = True
            for sl in spec.slots:
                op = self.operand_pool.sample(rng, sl.kinds)
                if op is None:
                    ok = False
                    break
                operands.append(op)
            if ok and spec.accepts(tuple(operands)):
                return Instruction(name, tuple(operands))
        return None

    def delete_probability(self, program: Program) -> float:
        """Probability that the instruction move proposes UNUSED.

        Interpolates with slot occupancy between ``unused_probability``
        (empty program) and ``1 - unused_probability`` (full program).
        Writing ``p`` for this value and ``o`` for the occupied fraction,
        an accept-everything walk deletes at rate ``o * p`` and inserts at
        rate ``(1 - o) * (1 - p)``; these balance at half occupancy, so
        the raw walk drifts toward ``slots / 2`` instead of saturating at
        full occupancy the way a fixed ``p < 0.5`` does.
        """
        n = len(program.slots)
        if n == 0:
            return self.unused_probability
        used = sum(1 for ins in program.slots if not ins.is_unused)
        lo = self.unused_probability
        return lo + (1.0 - 2.0 * lo) * (used / n)

    def propose_instruction(self, rng: random.Random, program: Program
                            ) -> Optional[Program]:
        """Replace a slot with UNUSED or with a random instruction."""
        if not program.slots:
            return None
        index = rng.randrange(len(program.slots))
        if rng.random() < self.delete_probability(program):
            return program.with_slot(index, UNUSED)
        instr = self.random_instruction(rng)
        if instr is None:
            return None
        return program.with_slot(index, instr)

    # -- combined proposal -------------------------------------------------

    def propose(self, rng: random.Random, program: Program
                ) -> Tuple[Optional[Program], str]:
        """One move drawn uniformly from the enabled move kinds.

        Returns ``(proposal, kind)``; the proposal is None when the move
        found nothing valid to do.
        """
        kind = rng.choice(self.move_kinds)
        return getattr(self, f"propose_{kind}")(rng, program), kind
