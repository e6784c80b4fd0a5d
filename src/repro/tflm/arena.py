"""Static tensor-arena planning (TFLM's greedy memory planner).

TFLM never mallocs at inference time: all activation tensors live in one
caller-provided arena, with offsets planned from tensor lifetimes.  The
planner here reproduces that: size-descending greedy first-fit over
lifetime-overlapping tensors — and its peak usage number is what the
enclave uses to size its heap allocation for the interpreter.

With ``fused_ops`` the planner becomes *fusion-aware*: lifetimes are
computed over the fused op sequence (each chain is one step, so a freed
intermediate can be reused by the very next chain) and tensors a chain
never materializes (``FusedChain.fused_away``) get no slot at all.  The
resulting ``arena_bytes`` is the fused plan's true working set, which
:func:`cache_fit` checks against the ``repro.hw`` cache geometry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import InterpreterError
from repro.tflm.model import Model

__all__ = ["ArenaPlan", "plan_arena", "cache_fit"]

_ALIGN = 16


@dataclass(frozen=True)
class ArenaPlan:
    """Result of planning: per-tensor offsets and the arena size."""

    offsets: dict[str, int]
    arena_bytes: int


def _lifetimes(model: Model, operators, skip: set[str]
               ) -> dict[str, tuple[int, int]]:
    """First-def .. last-use operator index per non-constant tensor."""
    spans: dict[str, tuple[int, int]] = {}
    num_ops = len(operators)
    for name in model.inputs:
        spans[name] = (0, 0)
    for index, op in enumerate(operators):
        for name in op.inputs:
            if name in model.constants or name in skip:
                continue
            if name not in spans:
                raise InterpreterError("tensor used before it is produced")
            first, _ = spans[name]
            spans[name] = (first, index)
        for name in op.outputs:
            if name in skip:
                continue
            if name not in spans:
                spans[name] = (index, index)
        for name in getattr(op, "transient", ()):
            if name not in skip:
                spans.setdefault(name, (index, index))
    # Model outputs must survive to the end.
    for name in model.outputs:
        if name in spans:
            first, _ = spans[name]
            spans[name] = (first, num_ops)
    return spans


def plan_arena(model: Model, fused_ops=None) -> ArenaPlan:
    """Greedy first-fit offsets for all activation tensors.

    ``fused_ops`` (optional) is the post-fusion op sequence — e.g. the
    interpreter's invoke-plan ops, where each ``FusedChain`` stands in
    for its constituents.  Tensors listed in a chain's ``fused_away``
    are skipped entirely; the remaining lifetimes are measured in fused
    steps, which shortens them and lets freed intermediates be reused
    sooner.
    """
    operators = model.operators if fused_ops is None else list(fused_ops)
    skip: set[str] = set()
    if fused_ops is not None:
        for op in operators:
            skip.update(getattr(op, "fused_away", ()))
        skip.difference_update(model.outputs)
    spans = _lifetimes(model, operators, skip)
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


def cache_fit(plan: ArenaPlan, l1_bytes: int, l2_bytes: int) -> dict:
    """Where the arena working set lands in the cache hierarchy.

    Returns ``{"arena_bytes", "fits_l1", "fits_l2"}`` — the check the
    fused plan is sized against (see ``repro.hw.cache.CacheConfig``).
    """
    return {
        "arena_bytes": plan.arena_bytes,
        "fits_l1": plan.arena_bytes <= l1_bytes,
        "fits_l2": plan.arena_bytes <= l2_bytes,
    }
