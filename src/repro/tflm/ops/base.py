"""Operator base class and registry for the TFLM-like engine."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InterpreterError
from repro.tflm.tensor import TensorSpec

__all__ = ["OpCost", "Op", "register_op", "op_class", "REGISTRY"]

REGISTRY: dict[str, type["Op"]] = {}


@dataclass(frozen=True)
class OpCost:
    """Work estimate for the timing model (see TimingProfile)."""

    macs: int = 0
    elements: int = 0

    def __add__(self, other: "OpCost") -> "OpCost":
        return OpCost(self.macs + other.macs, self.elements + other.elements)


class Op:
    """One operator instance in a model graph.

    Subclasses define ``opcode`` and implement :meth:`run` (writing
    every output tensor) and :meth:`cost`.  Tensors are addressed by
    name in the interpreter's tensor map.  ``run`` takes the op's
    :meth:`plan` result as ``plan``; with ``None`` it works out what it
    needs itself.

    ``run`` treats the leading axis of every activation as the batch:
    constants arrive at their declared shapes, activations as
    ``(batch,) + spec.shape[1:]``, and each output row must equal what
    the same kernel writes for that sample alone.  A single invoke is a
    batch of one, whose activations are exactly their spec shapes.
    """

    opcode = "op"

    def __init__(self, inputs: list[str], outputs: list[str],
                 params: dict | None = None) -> None:
        self.inputs = list(inputs)
        self.outputs = list(outputs)
        self.params = dict(params or {})

    def validate(self, specs: dict[str, TensorSpec]) -> None:
        """Graph-construction-time shape/dtype checks (override)."""
        for name in self.inputs + self.outputs:
            if name not in specs:
                raise InterpreterError(
                    f"{self.opcode}: unknown tensor"
                )

    def run(self, tensors: dict[str, np.ndarray],
            specs: dict[str, TensorSpec], plan=None) -> None:
        raise NotImplementedError

    def run_reference(self, tensors: dict[str, np.ndarray],
                      specs: dict[str, TensorSpec]) -> None:
        """Reference (scalar/loop) implementation, when one exists.

        Kernels with a vectorized fast path override this with the
        original loop implementation; the default just runs :meth:`run`.
        The interpreter's ``reference_kernels`` mode and the equivalence
        tests call it — nothing on the hot path does.
        """
        self.run(tensors, specs)

    def plan(self, tensors: dict[str, np.ndarray],
             specs: dict[str, TensorSpec]):
        """Precompute static per-op state for repeated invokes.

        Called once at interpreter construction with the constant
        tensors; whatever it returns is passed back to :meth:`run` as
        the ``plan`` keyword on every invoke.  Shapes, padding geometry
        and weight layouts are all static, so kernels can pre-resolve
        them here and keep ``run`` pure dispatch + GEMM.  Returning
        ``None`` (the default) means the op has nothing to precompute.
        """
        return None

    def cost(self, specs: dict[str, TensorSpec]) -> OpCost:
        return OpCost()

    def to_dict(self) -> dict:
        """Serializable description (used by the model format)."""
        return {
            "opcode": self.opcode,
            "inputs": self.inputs,
            "outputs": self.outputs,
            "params": self.params,
        }

    def __repr__(self) -> str:
        return (f"{type(self).__name__}({self.inputs} -> {self.outputs}"
                f"{', ' + repr(self.params) if self.params else ''})")


def register_op(cls: type[Op]) -> type[Op]:
    """Class decorator: add an Op subclass to the registry."""
    if cls.opcode in REGISTRY:
        raise InterpreterError(f"duplicate opcode {cls.opcode!r}")
    REGISTRY[cls.opcode] = cls
    return cls


def op_class(opcode: str) -> type[Op]:
    if opcode not in REGISTRY:
        # The opcode string comes straight out of the model stream —
        # decrypted vendor IP on the enclave path — so it stays out of
        # the exception text.
        raise InterpreterError("no operator registered for opcode")
    return REGISTRY[opcode]
