"""The sanitizer core: sequencing, violation detection, perturbation.

All bookkeeping is synchronous and allocation-light: one global
sequence counter, one read marker per ``(object key, task)``, and the
last write per object key.  The detection rule mirrors SC007 exactly:

    task A reads K          -> marker (A, K, seq_r)
    task B writes K         -> last_write[K] = (B, seq_w), seq_w > seq_r
    task A writes K         -> VIOLATION: A's write acts on the value
                               it read before B's mutation

Under asyncio's cooperative model step 2 can only land between steps 1
and 3 if A awaited in between, so every violation is a real
interleaving window -- there are no false positives from parallelism
(there is no parallelism).  A fresh read re-arms the marker, which is
also how code *fixes* a window (re-validate after the await).
"""

from __future__ import annotations

import asyncio
import os
import random
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

#: Environment flag enabling the process-wide sanitizer.
ENV_FLAG = "SC_SANITIZE"
#: Environment override for the perturbation seed (default 0).
ENV_SEED = "SC_SANITIZE_SEED"
#: Environment override for the perturbation rate (default 0.5).
ENV_RATE = "SC_SANITIZE_RATE"

#: Trace attribution: the formatted trace id of the request the current
#: task is serving (set by the proxy when tracing and sanitizing are
#: both on), so a violation names the two traces that interleaved.
_trace_ctx: ContextVar[str] = ContextVar("sc_sanitize_trace", default="")


def _task_name() -> str:
    try:
        task = asyncio.current_task()
    except RuntimeError:
        task = None
    return task.get_name() if task is not None else "<no-task>"


@dataclass(frozen=True)
class Violation:
    """One detected interleaving: a stale read acted upon by a write."""

    #: Guarded object key, e.g. ``"proxy-0.placement"``.
    key: str
    #: The acting task (the one whose read went stale).
    task: str
    #: The operation that performed the stale read.
    read_op: str
    #: The foreign task whose mutation interleaved.
    interleaver: str
    #: The foreign mutation's operation name.
    interleaved_op: str
    #: The acting task's final write operation.
    write_op: str
    #: Global sequence numbers: read < interleaved < write.
    read_seq: int
    interleaved_seq: int
    write_seq: int
    #: Trace ids (8-hex or empty) of the acting / interleaving request.
    trace: str = ""
    interleaved_trace: str = ""

    def render(self) -> str:
        where = f" trace={self.trace}" if self.trace else ""
        other = (
            f" trace={self.interleaved_trace}"
            if self.interleaved_trace
            else ""
        )
        return (
            f"{self.key}: {self.task}{where} read via {self.read_op} "
            f"(seq {self.read_seq}), {self.interleaver}{other} wrote "
            f"via {self.interleaved_op} (seq {self.interleaved_seq}), "
            f"then {self.task} wrote via {self.write_op} "
            f"(seq {self.write_seq}) acting on the stale read"
        )


@dataclass
class _LastWrite:
    seq: int
    task: str
    op: str
    trace: str


class Sanitizer:
    """Owner-task tracking plus deterministic interleaving perturbation.

    Parameters
    ----------
    seed:
        Seed for the perturbation RNG; a fixed seed makes the inserted
        yields -- and therefore the explored schedule -- reproducible.
    rate:
        Probability that :meth:`perturb` actually yields.  ``0``
        disables perturbation (detection still runs).
    """

    def __init__(self, seed: int = 0, rate: float = 0.5) -> None:
        self.seed = seed
        self.rate = rate
        self.violations: List[Violation] = []
        self._rng = random.Random(seed)
        self._seq = 0
        #: ``(key, task) -> (seq, op, trace)`` -- the latest read.
        self._reads: Dict[Tuple[str, str], Tuple[int, str, str]] = {}
        self._last_write: Dict[str, _LastWrite] = {}
        self._listeners: List[Callable[[Violation], None]] = []
        #: Total perturbation yields actually inserted.
        self.yields = 0

    # -- wiring --------------------------------------------------------

    def add_listener(self, listener: Callable[[Violation], None]) -> None:
        """Call *listener* on every violation (metrics wiring)."""
        self._listeners.append(listener)

    def begin_request(self, trace: str = "") -> None:
        """Open a fresh logical scope for the current task.

        Drops the task's read markers: a keep-alive handler task
        serves many requests back to back, and a read from request N
        paired with a write from request N+1 is serial request
        handling, not a check-then-act window.  Also records *trace*
        for attribution.
        """
        _trace_ctx.set(trace)
        task = _task_name()
        for key in [k for k in self._reads if k[1] == task]:
            del self._reads[key]

    # -- recording -----------------------------------------------------

    def record_read(self, key: str, op: str) -> None:
        """The current task observed *key* via *op*.

        Re-arms the task's read marker: a later read supersedes an
        earlier one, mirroring SC007's "a fresh direct read
        re-validates the window".
        """
        self._seq += 1
        self._reads[(key, _task_name())] = (
            self._seq, op, _trace_ctx.get()
        )

    def record_write(self, key: str, op: str) -> None:
        """The current task mutated *key* via *op*; detect staleness."""
        self._seq += 1
        seq = self._seq
        task = _task_name()
        trace = _trace_ctx.get()
        marker = self._reads.pop((key, task), None)
        last = self._last_write.get(key)
        if (
            marker is not None
            and last is not None
            and last.task != task
            and last.seq > marker[0]
        ):
            violation = Violation(
                key=key,
                task=task,
                read_op=marker[1],
                interleaver=last.task,
                interleaved_op=last.op,
                write_op=op,
                read_seq=marker[0],
                interleaved_seq=last.seq,
                write_seq=seq,
                trace=marker[2],
                interleaved_trace=last.trace,
            )
            self.violations.append(violation)
            for listener in self._listeners:
                listener(violation)
        self._last_write[key] = _LastWrite(
            seq=seq, task=task, op=op, trace=trace
        )

    # -- perturbation --------------------------------------------------

    async def perturb(self, label: str = "") -> None:
        """Maybe insert one extra yield point (seeded, deterministic).

        Guarded async operations call this so that schedules which
        *could* interleave, do -- the dynamic analogue of SC007
        assuming every await is a preemption point.
        """
        if self.rate > 0 and self._rng.random() < self.rate:
            self.yields += 1
            await asyncio.sleep(0)

    # -- reporting -----------------------------------------------------

    def drain(self) -> List[Violation]:
        """Return and clear the accumulated violations."""
        out = self.violations
        self.violations = []
        return out


# ----------------------------------------------------------------------
# Process-wide default (environment opt-in)
# ----------------------------------------------------------------------

_default: Optional[Sanitizer] = None


def sanitize_requested() -> bool:
    """Whether ``SC_SANITIZE`` asks for sanitizing in this process."""
    return os.environ.get(ENV_FLAG, "") not in ("", "0")


def default_sanitizer() -> Optional[Sanitizer]:
    """The process-wide sanitizer, created on first use when
    ``SC_SANITIZE=1`` (seed/rate from ``SC_SANITIZE_SEED`` /
    ``SC_SANITIZE_RATE``); ``None`` when sanitizing is off.

    Every proxy in the process shares this instance, so cross-proxy
    test suites aggregate violations in one place (the pytest plugin
    and ``summary-cache sanitize-run`` read it).
    """
    global _default
    if not sanitize_requested():
        return None
    if _default is None:
        seed = int(os.environ.get(ENV_SEED, "0") or "0")
        rate = float(os.environ.get(ENV_RATE, "0.5") or "0.5")
        _default = Sanitizer(seed=seed, rate=rate)
    return _default
