"""Instruction-level execution tracing.

A debugging aid over the emulator backend: runs a program one instruction
at a time and records which locations changed at each step, with values
rendered in both hex and floating-point form.  Used by the examples when
inspecting discovered rewrites and by tests that pin down individual
instruction behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.fp.ieee754 import bits_to_double
from repro.x86.program import Program
from repro.x86.registers import GP64_NAMES, XMM_NAMES
from repro.x86.signals import Signal, SignalError
from repro.x86.state import MachineState


@dataclass
class TraceStep:
    """One executed instruction and the locations it changed."""

    index: int
    text: str
    # location name -> (old bits, new bits)
    changes: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    signal: Optional[Signal] = None

    def render(self) -> str:
        parts = [f"[{self.index:3d}] {self.text}"]
        if self.signal is not None:
            parts.append(f"  !! {self.signal.value}")
        for name, (old, new) in self.changes.items():
            line = f"  {name}: 0x{old:x} -> 0x{new:x}"
            if name.startswith("xmm"):
                line += f"  ({bits_to_double(old)!r} -> {bits_to_double(new)!r})"
            parts.append(line)
        return "\n".join(parts)


@dataclass
class Trace:
    """A full program trace."""

    steps: List[TraceStep] = field(default_factory=list)

    @property
    def signal(self) -> Optional[Signal]:
        return self.steps[-1].signal if self.steps else None

    def render(self) -> str:
        return "\n".join(step.render() for step in self.steps)


def _snapshot(state: MachineState) -> Dict[str, int]:
    snap: Dict[str, int] = {}
    for i, name in enumerate(GP64_NAMES):
        snap[name] = state.gp[i]
    for i, name in enumerate(XMM_NAMES):
        snap[name] = state.xmm_lo[i]
        snap[f"{name}:hd"] = state.xmm_hi[i]
    return snap


def trace_program(program: Program, state: MachineState) -> Trace:
    """Execute on the emulator, recording per-instruction changes.

    The state is mutated in place, exactly as :class:`Emulator` would.
    """
    trace = Trace()
    before = _snapshot(state)
    for index, instr in enumerate(program.slots):
        if instr.is_unused:
            continue
        step = TraceStep(index=index, text=str(instr))
        try:
            instr.step(state)
        except SignalError as exc:
            step.signal = exc.signal
            trace.steps.append(step)
            return trace
        after = _snapshot(state)
        for name, old in before.items():
            if after[name] != old:
                step.changes[name] = (old, after[name])
        before = after
        trace.steps.append(step)
    return trace
