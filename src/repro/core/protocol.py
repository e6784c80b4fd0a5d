"""Protocol transcript: the numbered steps of paper Fig. 2.

Every OMG run records which step happened when, over which kind of I/O
(trusted vs untrusted), and how many bytes moved.  The Fig. 2 benchmark
regenerates the protocol diagram as a table from this transcript.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.errors import ChannelTimeout

__all__ = ["Phase", "StepIo", "ProtocolStep", "ProtocolTranscript",
           "StepTimeouts", "DEFAULT_STEP_TIMEOUTS"]


class Phase(enum.Enum):
    PREPARATION = "I. preparation"
    INITIALIZATION = "II. initialization"
    OPERATION = "III. operation"


class StepIo(enum.Enum):
    TRUSTED = "trusted"
    UNTRUSTED = "untrusted"
    INTERNAL = "internal"


# The canonical step catalogue of Fig. 2.
FIG2_STEPS = {
    1: "attest(M, SK), PK -> U",
    2: "attest(M, SK), PK -> V",
    3: "Enc(model, K_U) -> enclave",
    4: "store encrypted model",
    5: "K_U -> enclave",
    6: "Dec(model)",
    7: "trusted audio input",
    8: "output to user",
}


@dataclass(frozen=True)
class ProtocolStep:
    """One executed protocol step."""

    number: int
    name: str
    phase: Phase
    io: StepIo
    bytes_moved: int
    start_ms: float
    end_ms: float

    @property
    def duration_ms(self) -> float:
        return self.end_ms - self.start_ms


@dataclass(frozen=True)
class StepTimeouts:
    """Per-step virtual-clock budgets for the Fig. 2 protocol.

    ``budgets_ms`` maps a step number to the maximum simulated duration
    allowed for that step (retries and backoff included — both advance
    the virtual clock); ``default_ms`` applies to unlisted steps, and
    ``None`` means unlimited.  Budget violations surface as
    :class:`~repro.errors.ChannelTimeout`, the typed liveness bound the
    chaos harness asserts on.
    """

    budgets_ms: dict[int, float] = field(default_factory=dict)
    default_ms: float | None = None

    def budget_for(self, number: int) -> float | None:
        return self.budgets_ms.get(number, self.default_ms)

    def check(self, number: int, start_ms: float, end_ms: float) -> None:
        budget = self.budget_for(number)
        if budget is not None and end_ms - start_ms > budget:
            raise ChannelTimeout(
                f"protocol step {number} took {end_ms - start_ms:.1f} ms, "
                f"budget is {budget:.1f} ms")


# Generous simulated budgets: far above the healthy-path Fig. 2 costs,
# tight enough that a fault storm fails typed instead of spinning.
DEFAULT_STEP_TIMEOUTS = StepTimeouts(
    budgets_ms={
        2: 60_000.0,   # attestation to the vendor
        3: 120_000.0,  # encrypted model transfer
        4: 60_000.0,   # flash install
        5: 60_000.0,   # key release
        6: 120_000.0,  # in-enclave decrypt
    },
)


@dataclass
class ProtocolTranscript:
    """Ordered record of executed steps."""

    steps: list[ProtocolStep] = field(default_factory=list)
    timeouts: StepTimeouts | None = None

    def record(self, number: int, phase: Phase, io: StepIo,
               bytes_moved: int, start_ms: float, end_ms: float,
               name: str | None = None) -> ProtocolStep:
        if self.timeouts is not None:
            self.timeouts.check(number, start_ms, end_ms)
        step = ProtocolStep(
            number=number,
            name=name or FIG2_STEPS.get(number, f"step {number}"),
            phase=phase, io=io, bytes_moved=bytes_moved,
            start_ms=start_ms, end_ms=end_ms,
        )
        self.steps.append(step)
        return step

    def phase_duration_ms(self, phase: Phase) -> float:
        return sum(s.duration_ms for s in self.steps if s.phase is phase)

    def step_numbers(self) -> list[int]:
        return [s.number for s in self.steps]

    def format_table(self) -> str:
        """Human-readable rendering (the Fig. 2 bench prints this)."""
        lines = [
            f"{'#':>2}  {'phase':<20} {'step':<28} {'io':<10} "
            f"{'bytes':>9}  {'ms':>9}"
        ]
        for s in self.steps:
            lines.append(
                f"{s.number:>2}  {s.phase.value:<20} {s.name:<28} "
                f"{s.io.value:<10} {s.bytes_moved:>9}  {s.duration_ms:>9.3f}"
            )
        return "\n".join(lines)
