"""The TFLM-like interpreter: arena allocation + ordered kernel dispatch.

Functionally it executes the graph with numpy kernels; for the
evaluation it also *accounts time*: each op's (MACs, elements) cost is
converted to cycles via the :class:`TimingProfile` and charged to an
attached virtual clock at the executing core's frequency, with the L2
exclusion penalty applied when the enclave runs cache-partitioned.

Construction builds a precomputed *invoke plan*: per-op static cost
(shapes never change between invokes), plus whatever each kernel
pre-resolves via :meth:`Op.plan` (flattened/cast weight matrices,
padding geometry).  ``invoke()`` is then pure dispatch + GEMM, and
``op.cost()`` runs exactly once per op per interpreter lifetime.
``invoke()`` and ``invoke_batch()`` share one executor: every kernel
takes a leading batch axis, and a single invoke is a batch of one.  The
host wall-clock speed of all this is deliberately decoupled from the
*simulated* cycle accounting, which uses the same arithmetic as before
and stays bit-identical.  ``reference_kernels=True`` restores the
original per-invoke behavior (loop kernels, costs recomputed every
time) and exists for the wall-clock benchmark baseline.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import InterpreterError
from repro.hw.timing import DEFAULT_PROFILE, TimingProfile, VirtualClock
from repro.obs import hooks as _obs
from repro.tflm.arena import ArenaPlan, plan_arena
from repro.tflm.model import Model
from repro.tflm.ops.base import Op, OpCost

__all__ = ["InvokeStats", "Interpreter"]


@dataclass
class InvokeStats:
    """Accounting for the most recent :meth:`Interpreter.invoke`."""

    macs: int = 0
    elements: int = 0
    ops: int = 0
    cycles: int = 0
    simulated_ms: float = 0.0


class Interpreter:
    """Executes one model; owns tensor buffers planned into an arena."""

    def __init__(self, model: Model, arena_limit_bytes: int | None = None,
                 reference_kernels: bool = False) -> None:
        model.validate()
        self.model = model
        self.plan: ArenaPlan = plan_arena(model)
        self._tensors: dict[str, np.ndarray] = dict(model.constants)
        self._inputs_set: set[str] = set()
        self._invoked = False
        # The invoke plan: per op, its cached cost and kernel-specific
        # precomputed state.  Shapes are static, so both are computed
        # exactly once here.
        if reference_kernels:
            self._invoke_plan = None
        else:
            self._invoke_plan = [
                (op, op.cost(model.tensors),
                 op.plan(self._tensors, model.tensors))
                for op in model.operators]
        if (arena_limit_bytes is not None
                and self.plan.arena_bytes > arena_limit_bytes):
            raise InterpreterError(
                f"arena needs {self.plan.arena_bytes} bytes, "
                f"limit is {arena_limit_bytes}"
            )
        # Timing attachment (optional).
        self._clock: VirtualClock | None = None
        self._freq_hz = 0.0
        self._profile: TimingProfile = DEFAULT_PROFILE
        self._l2_excluded = False
        self.last_stats = InvokeStats()
        self.total_invokes = 0
        self._batch_outputs: dict[str, np.ndarray] | None = None
        # invoke_batch stacks samples along each activation's leading
        # dim, so that dim must be 1 throughout the graph.
        self._batchable = all(
            spec.shape[:1] == (1,) for name, spec in model.tensors.items()
            if name not in model.constants)

    # --- timing --------------------------------------------------------

    def attach_timing(self, clock: VirtualClock, freq_hz: float,
                      profile: TimingProfile | None = None,
                      l2_excluded: bool = False) -> None:
        """Charge future invokes to ``clock`` at ``freq_hz``."""
        if freq_hz <= 0:
            raise InterpreterError("core frequency must be positive")
        self._clock = clock
        self._freq_hz = freq_hz
        if profile is not None:
            self._profile = profile
        self._l2_excluded = l2_excluded

    def _is_float_graph(self) -> bool:
        return self.model.tensors[self.model.inputs[0]].dtype == "float32"

    @staticmethod
    def _op_profiler():
        """The tracer for per-op spans, or ``None``.

        Per-op spans are the one instrumentation hot enough to sit
        behind its own flag (``Telemetry(op_profiling=True)``): they
        wrap every kernel dispatch, so the plain loops below stay
        untouched unless explicitly asked for.
        """
        telemetry = _obs.TELEMETRY
        if telemetry is None or not telemetry.op_profiling:
            return None
        return telemetry.tracer

    def _entries(self) -> list[tuple[Op, OpCost, object]]:
        """(op, cost, plan) per dispatch.  Reference mode recomputes
        every operator's cost on each call, as the original per-invoke
        loop did."""
        if self._invoke_plan is not None:
            return self._invoke_plan
        return [(op, op.cost(self.model.tensors), None)
                for op in self.model.operators]

    def estimate_cycles(self) -> int:
        """Cycles one invoke will cost under the attached profile."""
        profile = self._profile
        mac_cycles = profile.cycles_per_mac
        if self._is_float_graph():
            mac_cycles *= profile.float_mac_multiplier
        total = 0.0
        for _, cost, _ in self._entries():
            total += (cost.macs * mac_cycles
                      + cost.elements * profile.cycles_per_element
                      + profile.cycles_per_op_dispatch)
        if self._l2_excluded:
            total *= 1.0 + profile.l2_exclusion_penalty
        return int(total)

    # --- execution -----------------------------------------------------

    def set_input(self, name: str, array: np.ndarray) -> None:
        if name not in self.model.inputs:
            raise InterpreterError(f"{name!r} is not a model input")
        # Copy on ingest: np.asarray would keep a view of the caller's
        # buffer, so later caller-side mutation would corrupt the next
        # invoke.
        array = np.array(array, copy=True)
        self.model.tensors[name].validate_array(array)
        self._tensors[name] = array
        self._inputs_set.add(name)

    def _execute(self, tensors: dict[str, np.ndarray],
                 batch: int) -> InvokeStats:
        """Run every operator over ``tensors`` and charge the work.

        Every activation in ``tensors`` carries a leading batch axis of
        ``batch``; a single invoke is a batch of one.  Fast kernels take
        the whole batch in one call.  Reference kernels run one sample
        at a time, each in its own tensor map, and their outputs are
        stacked back into ``tensors``.  MAC/element work scales with
        ``batch``; dispatch is charged once per op, whatever the batch —
        the simulated face of the amortization batching gives the host.
        """
        specs = self.model.tensors
        frames = [tensors]
        if self._invoke_plan is not None:
            def run(op, plan):
                op.run(tensors, specs, plan=plan)
        else:
            if batch > 1:
                frames = [{**tensors, **{name: tensors[name][n:n + 1]
                                         for name in self.model.inputs}}
                          for n in range(batch)]

            def run(op, plan):
                for frame in frames:
                    op.run_reference(frame, specs)
        stats = InvokeStats()
        tracer = self._op_profiler()
        for op, cost, op_plan in self._entries():
            if tracer is None:
                run(op, op_plan)
            else:
                with tracer.span(f"op.{type(op).__name__}", batch=batch,
                                 macs=cost.macs * batch,
                                 elements=cost.elements * batch):
                    run(op, op_plan)
            stats.macs += cost.macs * batch
            stats.elements += cost.elements * batch
            stats.ops += 1
        if len(frames) > 1:
            for name in self.model.outputs:
                tensors[name] = np.concatenate(
                    [frame[name] for frame in frames])
        profile = self._profile
        mac_cycles = profile.cycles_per_mac
        if self._is_float_graph():
            mac_cycles *= profile.float_mac_multiplier
        cycles = (stats.macs * mac_cycles
                  + stats.elements * profile.cycles_per_element
                  + stats.ops * profile.cycles_per_op_dispatch)
        if self._l2_excluded:
            cycles *= 1.0 + profile.l2_exclusion_penalty
        stats.cycles = int(cycles)
        if self._clock is not None:
            before = self._clock.now_ms
            self._clock.advance_cycles(stats.cycles, self._freq_hz)
            stats.simulated_ms = self._clock.now_ms - before
        elif self._freq_hz:
            stats.simulated_ms = stats.cycles / self._freq_hz * 1e3
        self.last_stats = stats
        self.total_invokes += batch
        return stats

    def invoke(self) -> InvokeStats:
        """Run all operators in order; returns the cost accounting.

        The inputs from :meth:`set_input` are a batch of one, run in the
        interpreter's persistent tensor map.
        """
        missing = set(self.model.inputs) - self._inputs_set
        if missing:
            raise InterpreterError(f"inputs not set: {sorted(missing)}")
        stats = self._execute(self._tensors, 1)
        self._invoked = True
        return stats

    # --- batched execution (multi-session serving) ---------------------

    def invoke_batch(self, inputs: dict[str, np.ndarray]) -> InvokeStats:
        """Run the graph once across a leading batch axis.

        ``inputs`` maps every model input to an array of shape
        ``(batch,) + spec.shape[1:]``; every activation spec in the
        graph must carry a unit leading dim, which the batch replaces.
        Outputs land in :meth:`get_output_batch` with the same
        convention.  Results are bit-exact against ``batch`` sequential
        :meth:`invoke` calls: every kernel computes each row as it
        would that sample alone (see :class:`Op`).  Cycles are charged
        as in :meth:`_execute`.
        """
        missing = set(self.model.inputs) - set(inputs)
        if missing:
            raise InterpreterError(f"inputs not set: {sorted(missing)}")
        if not self._batchable:
            raise InterpreterError(
                "batching needs a unit leading dim on every activation")
        batch = None
        tensors: dict[str, np.ndarray] = dict(self.model.constants)
        for name, array in inputs.items():
            if name not in self.model.inputs:
                raise InterpreterError(f"{name!r} is not a model input")
            spec = self.model.tensors[name]
            array = np.array(array, copy=True)
            if array.ndim != len(spec.shape) or array.shape[1:] != spec.shape[1:]:
                raise InterpreterError(
                    f"batched input {name!r} must be (batch,) + "
                    f"{spec.shape[1:]}, got {array.shape}")
            if array.dtype != np.dtype(spec.dtype):
                raise InterpreterError(
                    f"batched input {name!r} must be {spec.dtype}, "
                    f"got {array.dtype}")
            if batch is None:
                batch = array.shape[0]
            elif array.shape[0] != batch:
                raise InterpreterError("batched inputs disagree on batch size")
            tensors[name] = array
        if not batch:
            raise InterpreterError("batch must be at least 1")
        stats = self._execute(tensors, batch)
        self._batch_outputs = {name: tensors[name]
                               for name in self.model.outputs}
        return stats

    def get_output_batch(self, name: str) -> np.ndarray:
        if name not in self.model.outputs:
            raise InterpreterError(f"{name!r} is not a model output")
        if self._batch_outputs is None:
            raise InterpreterError("invoke_batch() has not been called yet")
        return self._batch_outputs[name]

    def classify_batch(self, batch_array: np.ndarray
                       ) -> tuple[np.ndarray, np.ndarray]:
        """Batched :meth:`classify`: argmax indices + score rows."""
        if len(self.model.inputs) != 1 or len(self.model.outputs) != 1:
            raise InterpreterError(
                "classify_batch() needs a single-input/output model")
        self.invoke_batch({self.model.inputs[0]: batch_array})
        scores = self.get_output_batch(self.model.outputs[0])
        scores = scores.reshape(scores.shape[0], -1)
        return np.argmax(scores, axis=1), scores

    def get_output(self, name: str) -> np.ndarray:
        if name not in self.model.outputs:
            raise InterpreterError(f"{name!r} is not a model output")
        if not self._invoked:
            raise InterpreterError("invoke() has not been called yet")
        return self._tensors[name]

    def classify(self, input_array: np.ndarray) -> tuple[int, np.ndarray]:
        """Convenience: set the single input, invoke, argmax the output."""
        if len(self.model.inputs) != 1 or len(self.model.outputs) != 1:
            raise InterpreterError("classify() needs a single-input/output model")
        self.set_input(self.model.inputs[0], input_array)
        self.invoke()
        scores = self.get_output(self.model.outputs[0]).reshape(-1)
        return int(np.argmax(scores)), scores
