"""Plan-time operator fusion: producer + elementwise follower chains.

The interpreter's fusion pass (see ``repro.tflm.interpreter``) rewrites
runs of ``conv/fc -> relu[6] -> ...`` into one :class:`FusedChain` per
chain.  For int8 graphs the follower clamps are *folded* into the
producer's requantization clip window — ``clip(clip(v, a, b), c, d) ==
clip(v, max(a, c), min(b, d))`` whenever ``c <= b`` and ``a <= d``,
which the int8 bounds always satisfy — so the whole chain is a single
GEMM + epilogue pass and the intermediate tensor never materializes.
Followers that cannot be folded (float clamps, ``quantize``) still run,
but inside the chain, so the interpreter dispatches once per chain.

Simulated cycle accounting is unchanged by fusion: a chain's cost is
the sum of its members' costs and it reports ``len(members)`` dispatch
charges (see ``FusedChain.n_ops``), keeping ``invoke()`` cycle counts
bit-identical to the unfused plan.
"""

from __future__ import annotations

from repro.tflm.model import Model
from repro.tflm.ops.activations import _Clamp
from repro.tflm.ops.base import Op, OpCost

__all__ = ["FusedChain", "fuse_operators", "FUSABLE_PRODUCERS"]

FUSABLE_PRODUCERS = ("conv_2d", "depthwise_conv_2d", "fully_connected")


def _clamp_bounds(op: _Clamp, spec) -> tuple[int, int]:
    """The int8 clip window a standalone clamp applies (mirrors
    ``_Clamp.run``)."""
    quant = spec.quant
    qmin = max(int(round(op.real_min / quant.scale)) + quant.zero_point, -128)
    qmax = 127
    if op.real_max is not None:
        qmax = min(int(round(op.real_max / quant.scale)) + quant.zero_point,
                   127)
    return qmin, qmax


class FusedChain(Op):
    """One producer op plus a chain of elementwise followers.

    Not registered in the opcode registry: chains are synthesized by the
    fusion pass at interpreter construction, never serialized.
    """

    opcode = "fused_chain"

    def __init__(self, members: list[Op], specs) -> None:
        producer = members[0]
        super().__init__(producer.inputs, members[-1].outputs,
                         producer.params)
        self.members = list(members)
        self.producer = producer
        # Split followers into a folded prefix (int8 clamps with
        # quant-preserving specs, absorbed into the producer's clip
        # window) and an executed suffix.
        folded: list[Op] = []
        rest = list(members[1:])
        out_spec = specs[producer.outputs[0]]
        lo, hi = -129, 128  # sentinel wider than any int8 window
        if out_spec.dtype == "int8":
            lo, hi = -128, 127
            while rest and isinstance(rest[0], _Clamp):
                qmin, qmax = _clamp_bounds(rest[0], specs[rest[0].inputs[0]])
                lo, hi = max(lo, qmin), min(hi, qmax)
                folded.append(rest.pop(0))
        self.folded = folded
        self.extra = rest
        self._fold_bounds = (lo, hi) if folded else None
        # After the producer (with folded clamps absorbed) runs, its
        # result is handed to the first unfolded follower under the name
        # that follower expects.
        self._handoff = folded[-1].outputs[0] if folded else \
            producer.outputs[0]
        # Tensors that exist in the unfused graph but are never
        # materialized by the chain (the arena planner skips them).
        live = {self.outputs[0]}
        for follower in rest:
            live.add(follower.inputs[0])
            live.add(follower.outputs[0])
        if rest:
            live.add(self._handoff)
        self.fused_away = [
            m.outputs[0] for m in [producer] + folded
            if m.outputs[0] not in live
        ]
        # Names that materialize briefly inside the chain (unfolded
        # follower plumbing) — the arena planner gives them slots
        # spanning just this chain's step.
        self.transient = sorted(live - {self.outputs[0]})

    @property
    def n_ops(self) -> int:
        return len(self.members)

    def cost(self, specs) -> OpCost:
        total = OpCost()
        for member in self.members:
            total = total + member.cost(specs)
        return total

    def plan(self, tensors, specs):
        inner = self.producer.plan(tensors, specs)
        if (self._fold_bounds is not None and inner is not None
                and "clip" in inner):
            lo, hi = inner["clip"]
            flo, fhi = self._fold_bounds
            inner = dict(inner)
            inner["clip"] = (max(lo, flo), min(hi, fhi))
        return inner

    def _finish(self, tensors, specs) -> None:
        """Run unfolded followers, then surface the chain output under
        its final name and drop intermediates."""
        name = self.producer.outputs[0]
        if name != self._handoff:
            tensors[self._handoff] = tensors.pop(name)
            name = self._handoff
        for follower in self.extra:
            follower.run(tensors, specs)
            if name != self.outputs[0]:
                del tensors[name]
            name = follower.outputs[0]
        if name != self.outputs[0]:
            tensors[self.outputs[0]] = tensors.pop(name)

    def run(self, tensors, specs, plan=None):
        self.producer.run(tensors, specs, plan=plan)
        self._finish(tensors, specs)

    def run_reference(self, tensors, specs):
        for member in self.members:
            member.run_reference(tensors, specs)

    def run_batch(self, tensors, specs, batch, batched, plan=None,
                  reference=False):
        if reference or self.extra:
            # Followers have no batch-aware fast path; fall back to the
            # generic per-sample loop over the whole chain.
            return super().run_batch(tensors, specs, batch, batched,
                                     plan=plan, reference=reference)
        self.producer.run_batch(tensors, specs, batch, batched, plan=plan)
        name = self.producer.outputs[0]
        if name != self.outputs[0]:
            tensors[self.outputs[0]] = tensors.pop(name)
            batched.discard(name)
            batched.add(self.outputs[0])

    def validate(self, specs):
        for member in self.members:
            member.validate(specs)


def fuse_operators(model: Model) -> list[list[Op]]:
    """Partition the op list into fusable chains and singletons.

    A follower joins the producer's chain when it is elementwise
    (``relu``/``relu6``), consumes exactly the producer's output, that
    output has no other consumer and is not a model output, and — for
    int8 folding — the clamp preserves quantization (same scale and
    zero point in and out).
    """
    consumers: dict[str, int] = {}
    for op in model.operators:
        for name in op.inputs:
            consumers[name] = consumers.get(name, 0) + 1

    def quant_preserving(op: Op) -> bool:
        in_spec = model.tensors[op.inputs[0]]
        out_spec = model.tensors[op.outputs[0]]
        if in_spec.dtype == "float32":
            return True
        return (in_spec.quant.scale == out_spec.quant.scale
                and in_spec.quant.zero_point == out_spec.quant.zero_point)

    groups: list[list[Op]] = []
    ops = list(model.operators)
    index = 0
    while index < len(ops):
        op = ops[index]
        group = [op]
        if op.opcode in FUSABLE_PRODUCERS:
            while index + len(group) < len(ops):
                tail = group[-1].outputs[0]
                follower = ops[index + len(group)]
                if not isinstance(follower, _Clamp):
                    break
                if (follower.inputs[0] != tail
                        or consumers.get(tail, 0) != 1
                        or tail in model.outputs
                        or not quant_preserving(follower)):
                    break
                group.append(follower)
        groups.append(group)
        index += len(group)
    return groups
