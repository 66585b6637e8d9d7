"""The execution backends: one source of truth for backend names.

Every seam that accepts a backend choice — :class:`repro.core.runner.Runner`
(and through it the cost function and the validator), the CLI's
``validate --backend``, ``verify --backend`` and ``catalog build
--measure-backend`` flags — validates against :data:`BACKENDS`, so a typo
gets one helpful error listing the valid choices.

Each consumer has its own default, chosen from end-to-end measurements:
search interprets every proposal on the emulator, validation runs one
program pair many times on the JIT, and bulk fixed-program measurement
(exhaustive checks, catalog latency probes) runs on the vector backend.

A backend is either *compiled* (``prepare`` translates the program once
into an object exposing the ``CompiledProgram`` execution surface —
``writes``, ``run``, ``run_batch``, ``run_batch_from``) or
*interpreted* (``prepare`` is the identity and execution goes through an
:class:`~repro.x86.emulator.Emulator`).  Interpreting still translates
nothing per program: each instruction binds its emulator step once and
caches it (``Instruction.step``), so a proposal that changes one slot
reuses every other slot's step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.x86.jit import compile_program
from repro.x86.program import Program
from repro.x86.vector import vectorize_program


@dataclass(frozen=True)
class Backend:
    """A named execution strategy.

    ``compiled`` tells the Runner which dispatch shape to use: compiled
    backends execute through the prepared object itself and report a
    ``writes`` promise for pooled-state reuse; interpreted backends keep
    the program as-is and run it through an Emulator.
    """

    name: str
    compiled: bool
    prepare: Callable[[Program], object]


BACKENDS: Dict[str, Backend] = {
    backend.name: backend for backend in (
        Backend("emulator", compiled=False, prepare=lambda program: program),
        Backend("jit", compiled=True, prepare=compile_program),
        Backend("vector", compiled=True, prepare=vectorize_program),
    )
}


def known_backends() -> Tuple[str, ...]:
    """Backend names, sorted for stable display."""
    return tuple(sorted(BACKENDS))


def resolve_backend(name: str) -> Backend:
    """Look up a backend by name; unknown names list the valid choices."""
    try:
        return BACKENDS[name]
    except KeyError:
        choices = ", ".join(known_backends())
        raise ValueError(
            f"unknown backend: {name!r} (known backends: {choices})"
        ) from None
