"""The process under test: one replay, or one live cluster on command.

``run.py`` starts this in a fresh interpreter per repetition and talks
to it in JSON lines over stdin/stdout, so the program's CPU, memory and
profile are this process's alone and the load generator's are the
parent's.

- ``replay``: pack the trace (the set-up), then one timed
  ``simulate_summary_sharing`` over the packed file.
- ``live``: boot a ``ProxyCluster`` on ``boot``; ``begin`` and ``end``
  bracket the timed phase and snapshot every registry series; ``mark``
  is a slice boundary.

At every slice boundary the child takes a *mark*: both clocks, then a
fixed pure-Python kernel (the yardstick), then both clocks again.  How
long the yardstick took says how fast this host was running just then,
which ``run.py`` uses to express every slice in quiet-host seconds.

With ``--traced`` the timed phase runs under ``cProfile`` and the reply
carries the per-layer aggregate from :mod:`layers`.
"""

from __future__ import annotations

import argparse
import asyncio
import cProfile
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Dict, Iterator, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import layers  # noqa: E402
from repro.core.position_cache import get_position_cache  # noqa: E402
from repro.proxy.cluster import ProxyCluster  # noqa: E402
from repro.proxy.config import ProxyMode  # noqa: E402
from repro.sharing.summary_sharing import (  # noqa: E402
    SummarySharingConfig,
    simulate_summary_sharing,
)
from repro.summaries import SummaryConfig, ThresholdUpdatePolicy  # noqa: E402
from repro.traces import BinaryTraceReader, pack_workload  # noqa: E402

#: Records between two replay marks: the engine's replay chunk today,
#: so a mark falls between two chunks and never inside one.
MARK_EVERY = 2048

#: ``(wall, cpu)`` when the work before ended, seconds the yardstick
#: took, ``(wall, cpu)`` when the work after began.
Mark = Tuple[float, float, float, float, float]


def yardstick() -> float:
    """Seconds a fixed dict-and-integer kernel takes right now.

    Pure interpreter work of the kind the program does (dict probes,
    small-int arithmetic, method calls) on data that fits in cache, so
    it slows down when the core does and not otherwise.
    """
    start = perf_counter()
    table: Dict[int, int] = {}
    for i in range(3000):
        table[i & 255] = table.get(i & 255, 0) + i
    total = 0
    for value in table.values():
        total += value
    return perf_counter() - start


def take_mark() -> Mark:
    ended = (perf_counter(), process_time())
    return (*ended, yardstick(), perf_counter(), process_time())


def say(message: Dict[str, Any]) -> None:
    sys.stdout.write(json.dumps(message) + "\n")
    sys.stdout.flush()


def peak_rss_mib() -> float:
    """This process's high-water RSS.

    ``ru_maxrss`` would do, but across fork+exec it starts from the
    parent's size, and the parent holds the generated request streams.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def hash_cache_counts() -> Dict[str, int]:
    cache = get_position_cache()
    if cache is None:
        return {"hash_cache_hits": 0, "hash_cache_misses": 0}
    return {"hash_cache_hits": cache.hits, "hash_cache_misses": cache.misses}


def profile_summary(profile: Optional[cProfile.Profile]) -> Optional[dict]:
    if profile is None:
        return None
    return layers.summarise(profile.getstats(), harness_dir=str(BENCH_DIR))


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------


def marked(reader: BinaryTraceReader, marks: List[Mark]) -> Iterator:
    """Yield *reader*'s records, taking a mark every MARK_EVERY."""
    for start in range(0, len(reader), MARK_EVERY):
        marks.append(take_mark())
        yield from reader[start : start + MARK_EVERY]


def replay(args: argparse.Namespace) -> None:
    say({"ready": True})
    path = Path(args.trace_file)
    try:
        setup_marks = [take_mark()]
        records, groups = pack_workload(
            "dec", path, seed=args.seed, num_requests=args.records
        )
        setup_marks.append(take_mark())
        scan_s = 0.0
        if args.scan:
            with BinaryTraceReader(path) as reader:
                start = perf_counter()
                for _ in reader:
                    pass
                scan_s = perf_counter() - start

        config = SummarySharingConfig(
            summary=(
                SummaryConfig(kind="bloom", load_factor=8)
                if args.summary == "bloom"
                else SummaryConfig(kind=args.summary)
            ),
            update_policy=ThresholdUpdatePolicy(0.01),
            expected_doc_size=2048,
        )
        profile = cProfile.Profile() if args.traced else None
        marks: List[Mark] = []
        with BinaryTraceReader(path) as reader:
            hash_before = hash_cache_counts()
            if profile is not None:
                profile.enable()
            result = simulate_summary_sharing(
                marked(reader, marks), groups, 512 * 1024, config
            )
            if profile is not None:
                profile.disable()
            marks.append(take_mark())
    finally:
        path.unlink(missing_ok=True)

    counters = {
        name: getattr(result, name)
        for name in (
            "requests", "local_hits", "remote_hits", "false_hits",
            "false_misses", "remote_stale_hits", "local_stale_hits",
            "bytes_requested", "bytes_hit", "summary_memory_bytes",
        )
    }
    counters.update(vars(result.messages))
    counters.update(
        {
            key: value - hash_before[key]
            for key, value in hash_cache_counts().items()
        }
    )
    say(
        {
            "proxies": groups,
            "setup_marks": setup_marks,
            "scan_s": scan_s,
            "marks": marks,
            "mark_every": MARK_EVERY,
            "peak_rss_mib": peak_rss_mib(),
            "counters": counters,
            "profile": profile_summary(profile),
        }
    )


# ----------------------------------------------------------------------
# live
# ----------------------------------------------------------------------


def cluster_counters(cluster: ProxyCluster) -> Dict[str, float]:
    """Every registry series summed over the proxies, plus the origin.

    Histograms contribute ``name:phase:sum`` and ``name:phase:count``;
    other labels (the summary representation) are dropped.
    """
    out: Dict[str, float] = {}

    def add(key: str, value: float) -> None:
        out[key] = out.get(key, 0.0) + value

    for proxy in cluster.proxies:
        for sample in proxy.registry.snapshot():
            if sample["kind"] == "histogram":
                stem = f"{sample['name']}:{sample['labels'].get('phase', '')}"
                add(stem + ":sum", sample["sum"])
                add(stem + ":count", sample["count"])
            else:
                add(sample["name"], sample["value"])
    out["origin_requests"] = cluster.origin.stats.requests
    out["origin_bytes"] = cluster.origin.stats.bytes_served
    out["origin_errors"] = cluster.origin.stats.errors
    out.update(hash_cache_counts())
    return out


async def settle_udp(cluster: ProxyCluster) -> None:
    """Let datagrams still queued on loopback reach their counters."""
    for _ in range(100):
        counts = cluster_counters(cluster)
        if counts["proxy_udp_sent_total"] == counts["proxy_udp_received_total"]:
            return
        await asyncio.sleep(0.01)


async def live(args: argparse.Namespace) -> None:
    loop = asyncio.get_running_loop()
    profile = cProfile.Profile() if args.traced else None
    cluster: Optional[ProxyCluster] = None
    before: Dict[str, float] = {}
    marks: List[Mark] = []
    say({"ready": True})
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            command = line.strip()
            if command == "boot":
                cluster = ProxyCluster(
                    args.proxies, ProxyMode.SC_ICP, args.cache_bytes
                )
                await cluster.start()
                say({"ports": [p.http_port for p in cluster.proxies]})
            elif command == "mark":  # a slice boundary; no reply
                marks.append(take_mark())
            elif command == "begin" and cluster is not None:
                await settle_udp(cluster)
                before = cluster_counters(cluster)
                say({"setup_marks": marks})
                marks = [take_mark()]
                if profile is not None:
                    profile.enable()
            elif command == "end" and cluster is not None:
                if profile is not None:
                    profile.disable()
                await settle_udp(cluster)
                after = cluster_counters(cluster)
                say(
                    {
                        "marks": marks,
                        "peak_rss_mib": peak_rss_mib(),
                        "counters": {
                            key: value - before.get(key, 0.0)
                            for key, value in after.items()
                        },
                        "profile": profile_summary(profile),
                    }
                )
            else:  # EOF (the parent is done, or died) or out of order
                return
    finally:
        if cluster is not None:
            await cluster.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--traced", action="store_true")
    modes = parser.add_subparsers(dest="mode", required=True)
    rp = modes.add_parser("replay")
    rp.add_argument("--summary", required=True)
    rp.add_argument("--records", type=int, required=True)
    rp.add_argument("--seed", type=int, required=True)
    rp.add_argument("--trace-file", required=True)
    rp.add_argument("--scan", action="store_true")
    lv = modes.add_parser("live")
    lv.add_argument("--proxies", type=int, required=True)
    lv.add_argument("--cache-bytes", type=int, required=True)
    args = parser.parse_args()
    if args.mode == "replay":
        replay(args)
    else:
        asyncio.run(live(args))


if __name__ == "__main__":
    main()
