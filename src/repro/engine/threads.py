"""Worker threads of the virtual-time engine.

DBS3 "allocates a pool of threads for the entire operation,
independent of the operation instances"; every thread can serve any of
the operation's queues, with a statically assigned subset marked as
its *main* queues (Section 3).  Here a thread is a simulated actor
with a private virtual clock; the discrete-event simulator advances
the thread whose clock is smallest.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.engine.queues import ActivationQueue

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.engine.operation import OperationRuntime

#: Thread states.
RUNNABLE = "runnable"
WAITING = "waiting"      # no work available, operation input still open
BLOCKED = "blocked"      # back-pressure: a downstream queue is full
FINISHED = "finished"


class WorkerThread:
    """One simulated worker thread of an operation's pool.

    Attributes:
        thread_id: Globally unique id (doubles as the local-cache
            owner id for the Allcache model).
        pool_index: Index within the owning operation's pool; main
            queues are the operation queues whose instance number is
            congruent to this index modulo the pool size.
        clock: Private virtual time.
        busy_time / idle_time: Accounting split of elapsed time.
    """

    __slots__ = ("thread_id", "pool_index", "operation", "clock", "state",
                 "main_queues", "main_queue_set", "busy_time", "idle_time",
                 "stalled_time", "started_at", "finished_at")

    def __init__(self, thread_id: int, pool_index: int,
                 operation: "OperationRuntime", start_time: float) -> None:
        self.thread_id = thread_id
        self.pool_index = pool_index
        self.operation = operation
        self.clock = start_time
        self.started_at = start_time
        self.state = RUNNABLE
        self.main_queues: list[ActivationQueue] = []
        self.main_queue_set: set[int] = set()
        self.busy_time = 0.0
        self.idle_time = 0.0
        self.stalled_time = 0.0
        self.finished_at: float | None = None

    def __repr__(self) -> str:
        return (f"WorkerThread(#{self.thread_id} of {self.operation.name!r}, "
                f"clock={self.clock:.6f}, {self.state})")

    def assign_main_queues(self, queues: list[ActivationQueue]) -> None:
        """Record this thread's main queues (set once at pool build)."""
        self.main_queues = queues
        self.main_queue_set = {q.instance for q in queues}

    def advance(self, seconds: float, busy: bool) -> None:
        """Move the clock forward, attributing the time."""
        self.clock += seconds
        if busy:
            self.busy_time += seconds
        else:
            self.idle_time += seconds

    def wait_until(self, instant: float) -> None:
        """Idle-advance the clock to *instant* (no-op if in the past)."""
        if instant > self.clock:
            self.idle_time += instant - self.clock
            self.clock = instant

    def advance_then_wait(self, seconds: float, instant: float) -> None:
        """``advance(seconds, busy=True)`` then ``wait_until(instant)``
        in one frame: the same three additions in the same order."""
        clock = self.clock + seconds
        self.busy_time += seconds
        if instant > clock:
            self.idle_time += instant - clock
            clock = instant
        self.clock = clock

    def stall(self, instant: float) -> None:
        """Freeze under an injected stall window until *instant*.

        Counts as idle time but is additionally tracked as stalled, so
        the chaos harness can separate injected freezes from ordinary
        waiting.
        """
        if instant > self.clock:
            self.stalled_time += instant - self.clock
            self.idle_time += instant - self.clock
            self.clock = instant

    @property
    def utilization(self) -> float:
        """Busy fraction of this thread's lifetime (0 when unstarted)."""
        end = self.finished_at if self.finished_at is not None else self.clock
        lifetime = end - self.started_at
        if lifetime <= 0:
            return 0.0
        return self.busy_time / lifetime
