"""Interpretive emulator backend.

The reference evaluator, architecturally equivalent to the x86-64
emulator the original STOKE used, and the backend search runs every
proposal on.  Each instruction is bound once into a step with its
operands already resolved (:attr:`Instruction.step`, built by the
opcode's ``bind_fn``); a program caches the tuple of its non-UNUSED
steps (:attr:`Program.steps`), and execution is a loop of step calls
over a :class:`MachineState`.  Nothing is translated per proposal: a
proposal changes one slot, so every other step is a cache hit.  The JIT
backend (:mod:`repro.x86.jit`) compiles whole programs and wins when one
program runs on many tests (Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.x86.program import Program
from repro.x86.signals import Signal, SignalError
from repro.x86.state import MachineState


@dataclass(frozen=True)
class Outcome:
    """The result of executing a program on a machine state."""

    signal: Optional[Signal] = None

    @property
    def ok(self) -> bool:
        return self.signal is None


def _run_steps(steps: tuple, states: "Sequence[MachineState]") -> list:
    signals = [None] * len(states)
    for i, state in enumerate(states):
        try:
            for step in steps:
                step(state)
        except SignalError as exc:
            signals[i] = exc.signal
    return signals


class Emulator:
    """Interpretive execution of loop-free programs."""

    def run(self, program: Program, state: MachineState) -> Outcome:
        """Execute ``program`` on ``state`` in place."""
        try:
            for step in program.steps:
                step(state)
        except SignalError as exc:
            return Outcome(signal=exc.signal)
        return Outcome()

    def run_batch(self, program: Program,
                  states: "Sequence[MachineState]") -> list:
        """Execute on every state; returns per-state signals (None = ok)."""
        return _run_steps(program.steps, states)

    def run_batch_from(self, program: Program,
                       states: "Sequence[MachineState]", start: int) -> list:
        """Execute slots ``[start, end)`` only, on states that already
        hold the effects of ``[0, start)``; per-state signals (None =
        ok)."""
        steps = tuple(instr.step for instr in program.slots[start:]
                      if not instr.is_unused)
        return _run_steps(steps, states)
