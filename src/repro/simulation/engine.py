"""A small process-based discrete-event simulation kernel.

Three primitives are enough for the proxy experiments:

- :class:`Engine` -- the event heap and clock.  Processes are plain
  generators driven by the engine; a process may ``yield`` either a
  float (sleep that many simulated seconds) or a :class:`Signal`
  (park until the signal fires; the fired value is returned by the
  ``yield``).
- :class:`Signal` -- a one-shot wakeup channel, the DES analogue of a
  future.
- :class:`Resource` -- a non-preemptive FIFO server (we use one per
  proxy CPU).  ``resource.serve(t)`` returns a signal that fires when
  the resource has dedicated *t* seconds to the job; total busy time is
  tracked for utilization/CPU accounting.

The kernel is deterministic: ties in time are broken by scheduling
order.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Callable, Deque, Generator, List, Optional, Tuple

from repro.errors import SimulationError

Process = Generator[Any, Any, None]


class Signal:
    """A one-shot wakeup channel.

    A process that ``yield``\\ s an unfired signal parks until
    :meth:`fire` is called; the value passed to ``fire`` becomes the
    result of the ``yield``.  Firing an already-fired signal raises
    :class:`~repro.errors.SimulationError`; yielding an already-fired
    signal resumes immediately with the stored value.
    """

    __slots__ = ("_engine", "_fired", "_value", "_waiters")

    def __init__(self, engine: "Engine") -> None:
        self._engine = engine
        self._fired = False
        self._value: Any = None
        self._waiters: List[Process] = []

    @property
    def fired(self) -> bool:
        """Whether :meth:`fire` has been called."""
        return self._fired

    @property
    def value(self) -> Any:
        """The fired value (``None`` before firing)."""
        return self._value

    def fire(self, value: Any = None) -> None:
        """Fire the signal, waking every parked process at the current time."""
        if self._fired:
            raise SimulationError("signal fired twice")
        self._fired = True
        self._value = value
        waiters, self._waiters = self._waiters, []
        for process in waiters:
            self._engine._resume(process, value)

    def _park(self, process: Process) -> bool:
        """Park *process* on this signal; returns False if already fired."""
        if self._fired:
            return False
        self._waiters.append(process)
        return True


class Resource:
    """A non-preemptive FIFO server with busy-time accounting."""

    __slots__ = ("_engine", "name", "_busy", "_queue", "busy_time", "jobs")

    def __init__(self, engine: "Engine", name: str = "resource") -> None:
        self._engine = engine
        self.name = name
        self._busy = False
        self._queue: Deque[Tuple[float, Signal]] = deque()
        #: Total seconds this resource has spent serving jobs.
        self.busy_time = 0.0
        #: Total jobs served (or started).
        self.jobs = 0

    def serve(self, service_time: float) -> Signal:
        """Enqueue a job needing *service_time* seconds; returns its
        completion signal."""
        if service_time < 0:
            raise SimulationError(
                f"negative service time {service_time} on {self.name}"
            )
        done = Signal(self._engine)
        self._queue.append((service_time, done))
        if not self._busy:
            self._start_next()
        return done

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        service_time, done = self._queue.popleft()
        self.busy_time += service_time
        self.jobs += 1
        self._engine.call_later(service_time, self._finish, done)

    def _finish(self, done: Signal) -> None:
        done.fire()
        self._start_next()


class Engine:
    """The event heap, clock, and process driver."""

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Callable, tuple]] = []
        self._now = 0.0
        self._seq = 0

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def call_later(self, delay: float, callback: Callable, *args) -> None:
        """Schedule *callback* to run after *delay* simulated seconds."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq += 1
        heapq.heappush(
            self._heap, (self._now + delay, self._seq, callback, args)
        )

    def signal(self) -> Signal:
        """Create a fresh signal bound to this engine."""
        return Signal(self)

    def resource(self, name: str = "resource") -> Resource:
        """Create a FIFO resource bound to this engine."""
        return Resource(self, name)

    def spawn(self, process: Process) -> None:
        """Start driving a generator process at the current time."""
        self.call_later(0.0, self._resume, process, None)

    def _resume(self, process: Process, value: Any) -> None:
        try:
            yielded = process.send(value)
        except StopIteration:
            return
        if isinstance(yielded, Signal):
            if not yielded._park(process):
                # Already fired: resume immediately with its value.
                self.call_later(0.0, self._resume, process, yielded.value)
        elif isinstance(yielded, (int, float)):
            self.call_later(float(yielded), self._resume, process, None)
        else:
            raise SimulationError(
                f"process yielded {type(yielded).__name__}; expected a "
                "Signal or a number of seconds"
            )

    def run(self, until: Optional[float] = None) -> float:
        """Run events until the heap drains or the clock passes *until*.

        Returns the final simulated time.
        """
        while self._heap:
            time, _seq, callback, args = self._heap[0]
            if until is not None and time > until:
                self._now = until
                return self._now
            heapq.heappop(self._heap)
            self._now = time
            callback(*args)
        return self._now
