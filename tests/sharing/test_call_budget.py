"""A deterministic cost gate: Python calls per replayed record.

Timing on a shared host cannot resolve a few per cent; call counts do
not move with the host at all.  This replays a fixed 5 000-record
``dec`` trace through the sharing simulator under cProfile and bounds
how many Python-level calls per record land in the Bloom/bit-array
primitives (``repro/core/`` without the hashing modules), in
``repro/summaries/`` and in the document caches (``repro/cache/``).

Before peers were probed all at once the same replay made 56 calls per
record into the primitives and 15 into the summaries (one
``contains_key`` per peer per miss, a six-call chain per counter touch).
One-pass counter updates and reading peer directories in place then
took the primitives from 6.09 to 5.52 and the caches from 11.25 to 6.07
(a ``probe`` and an ``is_fresh_for`` per peer asked are gone).  A change
that puts a per-peer or per-bit call back on the miss path breaks the
bounds at once.  A short replay is mostly cold start -- small caches
publish on nearly every insert -- so these figures sit *above* the
steady state ``bench/`` reports.
"""

from __future__ import annotations

import cProfile
from collections import Counter

from repro.sharing.summary_sharing import (
    SummarySharingConfig,
    simulate_summary_sharing,
)
from repro.summaries import SummaryConfig, ThresholdUpdatePolicy
from repro.traces.workloads import make_workload

RECORDS = 5_000
#: Calls per record allowed into each layer.
BUDGET = {"core.bloom": 6.3, "summaries": 6.0, "cache": 7.0}


def layer_of(filename: str) -> str:
    """The ``bench/layers.py`` buckets this gate cares about."""
    path = filename.replace("\\", "/")
    at = path.rfind("/repro/")
    if at < 0:
        return "outside"
    module = path[at + len("/repro/"):]
    if module in ("core/hashing.py", "core/position_cache.py"):
        return "core.hashing"
    if module.startswith("core/"):
        return "core.bloom"
    return module.split("/")[0]


def test_calls_per_record_stay_within_budget():
    trace, proxies = make_workload("dec", scale=RECORDS / 60_000, seed=1)
    assert len(trace) == RECORDS and proxies == 16
    config = SummarySharingConfig(
        summary=SummaryConfig(kind="bloom", load_factor=8),
        update_policy=ThresholdUpdatePolicy(0.01),
        expected_doc_size=2048,
    )
    profile = cProfile.Profile()
    profile.enable()
    result = simulate_summary_sharing(trace, proxies, 256 * 1024, config)
    profile.disable()

    calls: Counter = Counter()
    for entry in profile.getstats():
        if not isinstance(entry.code, str):  # built-ins have no file
            calls[layer_of(entry.code.co_filename)] += entry.callcount
    per_record = {layer: calls[layer] / RECORDS for layer in BUDGET}

    # The replay did the work the budget is about: misses that probe
    # peers, inserts and evictions that move counters, updates shipped.
    assert result.requests == RECORDS
    assert result.remote_hits > 1_000 and result.false_hits > 100
    assert result.messages.update_messages > 0
    for layer, budget in BUDGET.items():
        assert 0 < per_record[layer] <= budget, (layer, per_record)
