"""Runtime interleaving sanitizer for the proxy data plane.

The static rule SC007 proves the *shape* of asyncio races;
this package catches the ones that actually happen.  It wraps the
proxy's shared mutable state -- :class:`~repro.summaries.backend.SummaryNode`,
:class:`~repro.placement.live.Placement`,
:class:`~repro.proxy.pool.ConnectionPool` -- in opt-in guard proxies
that record which task read and wrote what, in loop-global sequence
order.  A **violation** is the dynamic form of the SC007 window: task
A read a guarded object, a *different* task mutated it afterwards, and
A then wrote it anyway -- under cooperative scheduling that exact
sequence is only possible when A held its read across an ``await``.

Two activation paths:

- ``SC_SANITIZE=1`` in the environment (optionally with
  ``SC_SANITIZE_SEED=<int>``): every proxy constructed in the process
  wraps its shared state and registers with the process-wide sanitizer
  (:func:`default_sanitizer`).  The pytest plugin
  (``repro.sanitizer.pytest_plugin``) then fails any test that
  produced violations -- that is the CI ``sanitizer-smoke`` job.
- Programmatic: build a :class:`Sanitizer` and pass it to
  ``SummaryCacheProxy(sanitizer=...)``.

The sanitizer also *provokes* interleavings: guarded async operations
call :meth:`Sanitizer.perturb`, which inserts a seeded
``await asyncio.sleep(0)`` with probability ``rate`` -- deterministic
for a fixed seed, so a failing schedule replays.
"""

from repro.sanitizer.core import ENV_FLAG, ENV_SEED, Sanitizer, default_sanitizer
from repro.sanitizer.guards import (
    GuardedConnectionPool,
    GuardedPlacement,
    GuardedSummaryNode,
)

__all__ = [
    "ENV_FLAG",
    "ENV_SEED",
    "Sanitizer",
    "default_sanitizer",
    "GuardedConnectionPool",
    "GuardedPlacement",
    "GuardedSummaryNode",
]
