"""Scheduler "explain": why the four-step scheduler chose what it chose.

The adaptive scheduler makes four kinds of top-down decisions
(Section 3 of the paper): the query's total thread count, the split
over chains, the split over a chain's operators, and each operator's
consumption strategy.  When a :class:`ScheduleExplanation` is passed
to :meth:`repro.scheduler.adaptive.AdaptiveScheduler.schedule`, every
decision is recorded together with the numeric inputs that drove it —
estimated complexities, skew ratios, thresholds — so a surprising
schedule can be debugged instead of guessed at.

Recording is strictly passive: the scheduler computes the identical
schedule with or without an explanation attached.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The four decision steps, in top-down order.
STEP_THREAD_COUNT = "thread_count"       # step 1: query degree of parallelism
STEP_CHAIN_SPLIT = "chain_split"         # step 2: threads per chain
STEP_OPERATION_SPLIT = "operation_split" # step 3: threads per operator
STEP_STRATEGY = "strategy"               # step 4: consumption strategy

#: Mid-flight decisions of the adaptive controller (:mod:`repro
#: .adapt`): recorded per wave while the query runs, after the static
#: steps above were already taken at submit time.
STEP_RESPLIT = "resplit"                 # wave grant re-split by blame
STEP_SWITCH = "strategy_switch"          # Random->LPT mid-flight

#: The four per-query steps (what one ``schedule()`` call records).
STEPS = (STEP_THREAD_COUNT, STEP_CHAIN_SPLIT,
         STEP_OPERATION_SPLIT, STEP_STRATEGY)

#: All steps including the adaptive controller's mid-flight
#: decisions (render order).
ALL_STEPS = STEPS + (STEP_RESPLIT, STEP_SWITCH)


@dataclass(frozen=True)
class Decision:
    """One recorded scheduler decision.

    Attributes:
        step: One of :data:`STEPS`.
        target: What the decision applies to (``"query"``, a chain id
            rendered as ``chain:N``, or an operation name).
        chosen: The decided value (a thread count or strategy name).
        reason: One-line human-readable justification.
        inputs: The numeric inputs the decision was derived from.
    """

    step: str
    target: str
    chosen: object
    reason: str
    inputs: dict[str, object] = field(default_factory=dict)

    def to_json(self) -> dict:
        """JSON-ready record (for the JSONL exporter)."""
        return {"step": self.step, "target": self.target,
                "chosen": self.chosen, "reason": self.reason,
                "inputs": dict(self.inputs)}


@dataclass
class ScheduleExplanation:
    """All decisions of one scheduling run, in the order they were made."""

    decisions: list[Decision] = field(default_factory=list)

    def record(self, step: str, target: str, chosen: object,
               reason: str, **inputs) -> None:
        """Append one decision (called by the scheduler)."""
        self.decisions.append(Decision(step, target, chosen, reason, inputs))

    def __len__(self) -> int:
        return len(self.decisions)

    def for_step(self, step: str) -> list[Decision]:
        """Decisions of one step, in recording order."""
        return [d for d in self.decisions if d.step == step]

    def to_json(self) -> list[dict]:
        """JSON-ready list of all decisions."""
        return [d.to_json() for d in self.decisions]

    def render(self) -> str:
        """Human-readable report, one block per step."""
        titles = {
            STEP_THREAD_COUNT: "step 1 — query thread count",
            STEP_CHAIN_SPLIT: "step 2 — threads per chain",
            STEP_OPERATION_SPLIT: "step 3 — threads per operator",
            STEP_STRATEGY: "step 4 — consumption strategy",
            STEP_RESPLIT: "mid-flight — wave grant re-split",
            STEP_SWITCH: "mid-flight — consumption strategy switch",
        }
        lines = ["schedule explanation:"]
        for step in ALL_STEPS:
            decisions = self.for_step(step)
            if not decisions:
                continue
            lines.append(f"  {titles[step]}")
            for decision in decisions:
                inputs = ", ".join(
                    f"{key}={_fmt(value)}"
                    for key, value in decision.inputs.items())
                lines.append(f"    {decision.target:<14} -> "
                             f"{decision.chosen!s:<8} {decision.reason}"
                             + (f"  [{inputs}]" if inputs else ""))
        if len(lines) == 1:
            lines.append("  (no decisions recorded)")
        return "\n".join(lines)


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)
