"""A deterministic cost gate: Python calls per replayed record.

Timing on a shared host cannot resolve a few per cent; call counts do
not move with the host at all.  This replays a fixed 5 000-record
``dec`` trace through the sharing simulator under cProfile, once with
Bloom summaries and once with exact directories, and bounds how many
Python-level calls per record land in the Bloom/bit-array primitives
(``repro/core/`` without the hashing modules), in the hashing modules,
in ``repro/summaries/``, in the document caches (``repro/cache/``) and
in the replay loop itself (``repro/sharing/``).
Each replay starts from an empty hash-position cache, so the counts do
not depend on which tests ran before.

Before peers were probed all at once the Bloom replay made 56 calls per
record into the primitives and 15 into the summaries (one
``contains_key`` per peer per miss, a six-call chain per counter touch).
One-pass counter updates and reading peer directories in place then
took the primitives from 6.09 to 5.52 and the caches from 11.25 to 6.07
(a ``probe`` and an ``is_fresh_for`` per peer asked are gone).  Carrying
each URL's summary key into insert and evict, and a direct
``WebCache`` request path, then took, per record (the first figure is
the code before that change, measured the way this test measures):

===============  ===============  =================
layer            Bloom            exact directory
===============  ===============  =================
``cache``        6.07 -> 2.65     6.07 -> 2.65
``core.bloom``   5.97 -> 3.98     0 -> 0
``core.hashing`` 6.40 -> 4.40     4.05 -> 2.05
``summaries``    5.86 -> 5.87     5.85 -> 5.85
``sharing``      2.34             1.89
===============  ===============  =================

Folding every scheme into one replay loop left each figure as it was;
``sharing`` counts that loop's cache hooks, its key-memo fills and its
update pricing, and joined the gate then.  The cache hooks then handed
each key straight to the local summary's key writer (the counting
filter's own ``add_at``/``remove_at`` for Bloom), and an update policy
became one positional call that reads only its own counter:

===============  ===============  =================
layer            Bloom            exact directory
===============  ===============  =================
``core.bloom``   3.94 -> 3.35     0 -> 0
``summaries``    5.87 -> 3.35     5.85 -> 4.00
``sharing``      1.88 -> 1.89     1.88 -> 1.89
===============  ===============  =================

The Bloom summary then became the counting filter itself: its hooks
are the counter array's own ``add_at``/``remove_at``, which keep the
flip journal, and ``key_of`` is one call into the hash family.  The
replay also reads the directory size for the threshold check through
the cache dict's own ``__len__``, with no ``WebCache.__len__`` frame:

===============  ===============  =================
layer            Bloom            exact directory
===============  ===============  =================
``cache``        2.65 -> 2.06     2.65 -> 2.06
``core.bloom``   3.35 -> 1.59     0 -> 0
===============  ===============  =================

Built-in calls (``len``, ``min``, ``dict.get``, ...) are no Python
frame, so the budgets above do not see them; each replay now also
bounds them per record, charged to the layer whose code makes them.
The counter array then came to hold one counter per byte, and its walk
checks each index in the loop instead of calling ``min`` and ``max`` on
the key (and ``remove_at`` no longer takes ``len`` of the journal):

===============  ===============  =================
built-ins from   Bloom            exact directory
===============  ===============  =================
``core.bloom``   4.23 -> 2.82     0 -> 0
``cache``        2.61             2.61
``core.hashing`` 3.22             2.05
``summaries``    1.99             4.90
``sharing``      8.36             7.50
===============  ===============  =================

Most of ``core.bloom``'s 2.82 is the flip journal's drain, one
``list.append`` per shipped flip.

The bounds below sit about 15 % above the latest figures.  A change
that puts a per-peer or per-bit call back on the miss path, re-derives
a key on insert or evict, routes a hook or a policy check back through
an extra frame, makes the loop call out to a scheme strategy per
miss, or puts ``min``/``max`` back on the counter walk breaks them at
once.  A short replay is mostly cold start -- small
caches publish on nearly every insert -- so these figures sit *above*
the steady state ``bench/`` reports.

The packed trace reader has a gate of its own: iterating a
``BinaryTraceReader`` costs one generator resume per record and no
other Python frame (no ``<lambda>`` from ``Request``'s generated
``__new__``).
"""

from __future__ import annotations

import cProfile
from collections import Counter

from repro.core.position_cache import get_position_cache
from repro.sharing.summary_sharing import (
    SummarySharingConfig,
    simulate_summary_sharing,
)
from repro.summaries import SummaryConfig, ThresholdUpdatePolicy
from repro.traces.binary import BinaryTraceReader, pack_trace
from repro.traces.workloads import make_workload

RECORDS = 5_000
#: Python calls per record while iterating a packed trace.
READER_BUDGET = 1.01
#: Calls per record allowed into each layer; 0 means none at all.
BUDGETS = {
    "bloom": {
        "cache": 2.35,
        "core.bloom": 1.85,
        "core.hashing": 5.0,
        "summaries": 3.9,
        "sharing": 2.7,
    },
    "exact-directory": {
        "cache": 2.35,
        "core.bloom": 0.0,
        "core.hashing": 2.4,
        "summaries": 4.6,
        "sharing": 2.2,
    },
}
#: Built-in calls per record allowed from each layer's code.
BUILTIN_BUDGETS = {
    "bloom": {
        "cache": 3.0,
        "core.bloom": 3.25,
        "core.hashing": 3.7,
        "summaries": 2.3,
        "sharing": 9.6,
    },
    "exact-directory": {
        "cache": 3.0,
        "core.bloom": 0.0,
        "core.hashing": 2.35,
        "summaries": 5.65,
        "sharing": 8.65,
    },
}


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
    check_budget("bloom")


def test_exact_directory_calls_stay_within_budget():
    check_budget("exact-directory")


def check_budget(kind: str) -> None:
    trace, proxies = make_workload("dec", scale=RECORDS / 60_000, seed=1)
    assert len(trace) == RECORDS and proxies == 16
    config = SummarySharingConfig(
        summary=SummaryConfig(kind=kind, load_factor=8),
        update_policy=ThresholdUpdatePolicy(0.01),
        expected_doc_size=2048,
    )
    profile = cProfile.Profile()
    get_position_cache().clear()  # every URL hashes once, as in a fresh run
    profile.enable()
    result = simulate_summary_sharing(trace, proxies, 256 * 1024, config)
    profile.disable()

    calls: Counter = Counter()
    builtins: Counter = Counter()
    for entry in profile.getstats():
        if isinstance(entry.code, str):  # built-ins have no file
            continue
        layer = layer_of(entry.code.co_filename)
        calls[layer] += entry.callcount
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                builtins[layer] += sub.callcount

    # The replay did the work the budget is about: misses that probe
    # peers, inserts and evictions that move counters, updates shipped.
    assert result.requests == RECORDS
    assert result.remote_hits > 1_000
    assert result.messages.update_messages > 0
    if kind == "bloom":
        assert result.false_hits > 100
    for counts, budget in (
        (calls, BUDGETS[kind]),
        (builtins, BUILTIN_BUDGETS[kind]),
    ):
        per_record = {layer: counts[layer] / RECORDS for layer in budget}
        for layer, allowed in budget.items():
            assert per_record[layer] <= allowed, (layer, per_record)
            assert (per_record[layer] > 0) == (allowed > 0), (
                layer, per_record,
            )


def test_reader_iteration_is_one_resume_per_record(tmp_path):
    trace, _ = make_workload("dec", scale=RECORDS / 60_000, seed=1)
    path = str(tmp_path / "dec.sctr")
    assert pack_trace(trace, path) == RECORDS
    with BinaryTraceReader(path) as reader:
        count = 0
        profile = cProfile.Profile()
        profile.enable()
        for _ in reader:
            count += 1
        profile.disable()
    assert count == RECORDS

    calls: Counter = Counter()
    for entry in profile.getstats():
        if not isinstance(entry.code, str):
            calls[entry.code.co_name] += entry.callcount
    assert "<lambda>" not in calls, calls
    # One resume per record, plus the first entry and the final exit.
    assert calls["iter_range"] <= RECORDS + 2, calls
    assert sum(calls.values()) / RECORDS <= READER_BUDGET, calls
