"""Activations: Lera-par's unit of sequential work.

"An activator denotes either a tuple (data activation) or a control
message (control activation).  In either case, when an operator
receives an activation, the corresponding sequential operation is
executed."  (Section 2.)

A *triggered* operator instance receives exactly one control
activation that starts it on its whole fragment; a *pipelined*
operator instance receives one data activation per tuple flowing
through the pipeline.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.storage.tuples import Row

#: Activation kinds.
CONTROL = "control"
DATA = "data"

#: Operator trigger modes (what kind of queue feeds the operator).
TRIGGERED = "triggered"
PIPELINED = "pipelined"


class Activation(NamedTuple):
    """One activation bound for one operator instance.

    A tuple, as one is built per pipelined tuple routed: its fields
    read through C-level accessors and equality, hashing and
    immutability are the tuple's (see DESIGN.md).

    Attributes:
        kind: ``CONTROL`` (trigger) or ``DATA`` (one tuple).
        instance: Target operator-instance number.
        row: The carried tuple for data activations; ``None`` for
            control activations.
        chunk: Sub-activation index for *chunked* triggered operators
            (the grain-of-parallelism extension sketched in the
            paper's conclusion); ``None`` for classic whole-fragment
            triggers.
    """

    kind: str
    instance: int
    row: Row | None = None
    chunk: int | None = None


def trigger(instance: int) -> Activation:
    """The control activation that starts a triggered instance."""
    return Activation(CONTROL, instance)


def chunk_trigger(instance: int, chunk: int) -> Activation:
    """One of several control activations covering a fragment slice."""
    return Activation(CONTROL, instance, None, chunk)
