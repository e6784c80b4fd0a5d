"""Static tensor-arena planning (TFLM's greedy memory planner).

TFLM never mallocs at inference time: all activation tensors live in one
caller-provided arena, with offsets planned from tensor lifetimes.  The
planner here reproduces that: size-descending greedy first-fit over
lifetime-overlapping tensors — and its peak usage number is what the
enclave uses to size its heap allocation for the interpreter.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InterpreterError
from repro.tflm.model import Model

__all__ = ["ArenaPlan", "plan_arena"]

_ALIGN = 16


@dataclass(frozen=True)
class ArenaPlan:
    """Result of planning: per-tensor offsets and the arena size."""

    offsets: dict[str, int]
    arena_bytes: int


def _lifetimes(model: Model) -> dict[str, tuple[int, int]]:
    """First-def .. last-use operator index per non-constant tensor."""
    spans: dict[str, tuple[int, int]] = {}
    num_ops = len(model.operators)
    for name in model.inputs:
        spans[name] = (0, 0)
    for index, op in enumerate(model.operators):
        for name in op.inputs:
            if name in model.constants:
                continue
            if name not in spans:
                raise InterpreterError("tensor used before it is produced")
            first, _ = spans[name]
            spans[name] = (first, index)
        for name in op.outputs:
            if name not in spans:
                spans[name] = (index, index)
    # Model outputs must survive to the end.
    for name in model.outputs:
        if name in spans:
            first, _ = spans[name]
            spans[name] = (first, num_ops)
    return spans


def plan_arena(model: Model) -> ArenaPlan:
    """Greedy first-fit offsets for all activation tensors."""
    spans = _lifetimes(model)
    sizes = {
        name: (model.tensors[name].num_bytes + _ALIGN - 1) // _ALIGN * _ALIGN
        for name in spans
    }
    placed: list[tuple[str, int]] = []  # (name, offset)
    offsets: dict[str, int] = {}
    for name in sorted(spans, key=lambda n: (-sizes[n], n)):
        first, last = spans[name]
        # Collect busy intervals from already-placed overlapping tensors.
        busy = sorted(
            (offsets[other], offsets[other] + sizes[other])
            for other, _ in placed
            if not (spans[other][1] < first or last < spans[other][0])
        )
        candidate = 0
        for lo, hi in busy:
            if candidate + sizes[name] <= lo:
                break
            candidate = max(candidate, hi)
        offsets[name] = candidate
        placed.append((name, candidate))
    arena_bytes = max(
        (offsets[name] + sizes[name] for name in offsets), default=0)
    return ArenaPlan(offsets=offsets, arena_bytes=arena_bytes)

