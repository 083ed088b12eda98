"""The repo's benchmark: four workloads, one command, one record shape.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload in fresh child interpreters (``child.py``), checks
its outputs, prints every metric by name with its unit, and ends with
one JSON line (``correct``, ``attempted``, ``failed``, ``metrics``).
Without ``--workload`` it runs all four.  ``--out FILE`` appends the
runs to a record that ``compare.py`` reads.

``--trace 0`` measures the end-to-end metrics over REPEATS repetitions
of identical inputs.  ``--trace 1`` runs the first half of one
repetition's inputs twice -- bare, then under cProfile -- and reports
the per-layer metrics; the two walls give the tracing overhead.
Metric names, units and bounds live in ``BENCHMARK.json``.

Run length is an operation count, ``--seconds`` times the rate this
host sustains when quiet, so counters repeat exactly and both sides of
an A/B do identical work.  README.md has the definitions.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Dict, List, Sequence, Tuple, Union

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from repro.benchmarkkit.wisconsin import (  # noqa: E402
    WisconsinConfig,
    generate_client_streams,
)
from repro.errors import ReproError  # noqa: E402
from repro.proxy.client import ClientDriver  # noqa: E402
from repro.proxy.http import synth_body  # noqa: E402
from repro.traces.model import Request  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
RESULTS_DIR = BENCH_DIR / "results"

#: Client connections, all driven from this one process: the host's
#: core count, so the generator never outnumbers the cores.
CONNECTIONS = 2
#: A request that fails is recorded at its timeout, not dropped.
REQUEST_TIMEOUT_S = 30.0
#: Fresh-process repetitions of one end-to-end run, all on identical
#: inputs.  Each slice of the work is timed in every repetition and
#: the quietest timing kept, so a neighbour's burst has to hit the same
#: slice every time to show; each repetition also sets up once, and
#: the median set-up is reported.
REPEATS = 3
#: Seconds the child's yardstick kernel takes on this host class with
#: nothing else running.  A slice's time is multiplied by this over what
#: the yardstick took at the slice's two ends, which cancels a slowdown
#: the host imposes on program and yardstick alike (this VM runs the
#: same code up to 1.8x slower for minutes at a time).  On another
#: machine every timing scales by one constant; comparisons hold.
YARDSTICK_QUIET_S = 265e-6
#: Equal-count slices a live timed phase is cut into (a replay is cut
#: at every stamp the child takes).
SLICES = 32
#: Share of one repetition's operations a traced run replays.
TRACED_SHARE = 0.5
#: One body in this many is compared byte for byte; all are measured.
BODY_CHECK_EVERY = 64


@dataclass(frozen=True)
class Replay:
    """A trace-driven run of the sharing simulator."""

    summary: str
    #: Both replays read the identical trace, sized by the slower one.
    records_per_second: int = 34_000

    def operations(self, seconds: float) -> int:
        """Trace records in one repetition."""
        return max(SLICES, round(self.records_per_second * seconds / REPEATS))


@dataclass(frozen=True)
class Live:
    """A closed-loop Wisconsin run against a live cluster."""

    proxies: int
    cache_bytes: int
    hit_ratio: float
    shared_fraction: float
    shared_docs: int
    mean_size: int
    max_size: int
    #: Requests per connection before timing starts.
    warmup: int
    #: Per connection, on this host when quiet.
    requests_per_second: int

    def operations(self, seconds: float) -> int:
        """Timed requests per connection in one repetition, a whole
        number of slices."""
        per_slice = self.requests_per_second * seconds / REPEATS / SLICES
        return SLICES * max(1, round(per_slice))


WORKLOADS: Dict[str, Union[Replay, Live]] = {
    "live-hit": Live(
        proxies=2, cache_bytes=4 << 20, hit_ratio=0.9, shared_fraction=0.0,
        shared_docs=1, mean_size=1024, max_size=4096, warmup=5000,
        requests_per_second=3000,
    ),
    "live-coop": Live(
        proxies=4, cache_bytes=2 << 20, hit_ratio=0.2, shared_fraction=0.4,
        shared_docs=512, mean_size=8192, max_size=256 << 10, warmup=2000,
        requests_per_second=1400,
    ),
    "replay-bloom": Replay(summary="bloom"),
    "replay-exact": Replay(summary="exact-directory"),
}


def quantile(ordered: Sequence[float], q: float) -> float:
    """Exact nearest-rank q-quantile of pre-sorted samples."""
    return ordered[min(len(ordered) - 1, round(q * (len(ordered) - 1)))]


class Child:
    """The process under test, spoken to in JSON lines."""

    def __init__(self, arguments: Sequence[str]) -> None:
        started = perf_counter()
        self._process = subprocess.Popen(
            [sys.executable, str(BENCH_DIR / "child.py"), *arguments],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self.read()  # "ready": interpreter up, program imported
        self.import_s = perf_counter() - started

    def read(self) -> Dict[str, Any]:
        assert self._process.stdout is not None
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"benchmark child exited with code {self._process.wait()}"
            )
        return json.loads(line)

    def tell(self, command: str) -> None:
        assert self._process.stdin is not None
        self._process.stdin.write(command + "\n")
        self._process.stdin.flush()

    def ask(self, command: str) -> Dict[str, Any]:
        self.tell(command)
        return self.read()

    def close(self) -> None:
        """End the child (closing stdin tells it to quit) and reap it."""
        assert self._process.stdin is not None
        assert self._process.stdout is not None
        self._process.stdin.close()
        try:
            self._process.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self._process.kill()
            self._process.wait()
        self._process.stdout.close()


def slices_between(marks: Sequence[Sequence[float]]) -> Dict[str, Any]:
    """The work between consecutive child marks.

    A mark is ``(wall, cpu)`` before the yardstick, the seconds it took,
    ``(wall, cpu)`` after it.  ``speed`` is the factor that turns a
    slice's seconds into quiet-host seconds.
    """
    pairs = list(zip(marks, marks[1:]))
    raw_walls = [after[0] - before[3] for before, after in pairs]
    speed = [
        YARDSTICK_QUIET_S / ((before[2] + after[2]) / 2)
        for before, after in pairs
    ]
    return {
        "speed": speed,
        "yardstick_s": statistics.median(mark[2] for mark in marks),
        "elapsed_s": sum(raw_walls),
        "walls": [w * f for w, f in zip(raw_walls, speed)],
        "cpus": [
            (after[1] - before[4]) * f
            for (before, after), f in zip(pairs, speed)
        ],
    }


# ----------------------------------------------------------------------
# replay
# ----------------------------------------------------------------------


def replay_once(
    name: str, spec: Replay, seed: int, records: int,
    traced: bool = False, scan: bool = False,
) -> Dict[str, Any]:
    """One child: pack the trace, replay it; returns raw measurements."""
    RESULTS_DIR.mkdir(exist_ok=True)
    arguments = ["--traced"] if traced else []
    arguments += [
        "replay", "--summary", spec.summary, "--records", str(records),
        "--seed", str(seed),
        "--trace-file", str(RESULTS_DIR / f"{name}-{os.getpid()}.sctr"),
    ]
    if scan:
        arguments.append("--scan")
    child = Child(arguments)
    try:
        raw = child.read()
    finally:
        child.close()
    setup = slices_between(raw.pop("setup_marks"))
    raw.update(slices_between(raw.pop("marks")))
    walls = raw["walls"]
    slice_ops = [raw["mark_every"]] * (len(walls) - 1)
    slice_ops.append(records - sum(slice_ops))
    raw.update(
        ops=records,
        pack_s=setup["elapsed_s"],
        setup_s=(child.import_s + setup["elapsed_s"]) * setup["speed"][0],
        # "Latency" of a replay: wall milliseconds per 1 000 records,
        # one sample per slice.
        latencies_ms=[w / n * 1e6 for w, n in zip(walls, slice_ops)],
        mean_latency_s=0.0,
        failed=0,
        answered=records,
        loadgen_cpu_s=0.0,
    )
    return raw


def replay_facts(counters: Dict[str, float]) -> Dict[str, float]:
    """The protocol's own counts, in the vocabulary `live_facts` shares."""
    c = counters
    rounds = c["remote_hits"] + c["false_hits"] + c["remote_stale_hits"]
    return {
        "ops": c["requests"],
        "local_hits": c["local_hits"],
        "remote_hits": c["remote_hits"],
        "false_hits": c["false_hits"],
        "query_rounds": rounds,
        "bytes_requested": c["bytes_requested"],
        "bytes_from_origin": c["bytes_requested"] - c["bytes_hit"],
        "messages": (
            c["query_messages"] + c["reply_messages"] + c["update_messages"]
        ),
        "updates": c["update_messages"],
        "hash_hits": c["hash_cache_hits"],
        "hash_misses": c["hash_cache_misses"],
    }


# ----------------------------------------------------------------------
# live
# ----------------------------------------------------------------------


@dataclass
class Phase:
    """What the load generator saw over one phase."""

    child: Child
    #: Every this many completions the child is told to take a mark:
    #: the slice boundaries.
    mark_every: int
    #: ``(seconds, slice)`` per request, one list per connection, in
    #: request order.
    samples: List[List[Tuple[float, int]]] = field(default_factory=list)
    failed: int = 0
    wrong_body: int = 0
    bytes_requested: int = 0
    done: int = 0

    def completed(self) -> int:
        """Count one request done; returns the slice it fell in."""
        index = self.done // self.mark_every
        self.done += 1
        if self.done % self.mark_every == 0:
            self.child.tell("mark")
        return index


async def drive(
    driver: ClientDriver, requests: Sequence[Request], phase: Phase
) -> None:
    """One serial no-think-time client: the paper's Wisconsin process."""
    samples: List[Tuple[float, int]] = []
    phase.samples.append(samples)
    for index, request in enumerate(requests):
        phase.bytes_requested += request.size
        start = perf_counter()
        try:
            body = await driver.fetch(request.url, size=request.size)
        except (ReproError, OSError):
            phase.failed += 1
            samples.append((REQUEST_TIMEOUT_S, phase.completed()))
            continue
        samples.append((perf_counter() - start, phase.completed()))
        if len(body) != request.size or (
            index % BODY_CHECK_EVERY == 0
            and body != synth_body(request.url, request.size)
        ):
            phase.wrong_body += 1


async def drive_all(
    child: Child,
    drivers: Sequence[ClientDriver],
    streams: Sequence[Sequence[Request]],
    slices: int,
) -> Phase:
    """Replay ``streams[i]`` on ``drivers[i]`` concurrently, in *slices*."""
    ops = sum(len(stream) for stream in streams)
    phase = Phase(child, mark_every=max(1, ops // slices))
    await asyncio.gather(
        *(drive(d, stream, phase) for d, stream in zip(drivers, streams))
    )
    return phase


async def live_once(
    spec: Live, seed: int, timed: int, traced: bool = False
) -> Dict[str, Any]:
    """One child cluster: boot, warm, load; returns raw measurements."""
    streams = generate_client_streams(
        WisconsinConfig(
            num_clients=spec.proxies,
            requests_per_client=spec.warmup + timed,
            target_hit_ratio=spec.hit_ratio,
            mean_size=spec.mean_size,
            max_size=spec.max_size,
            seed=seed,
            shared_fraction=spec.shared_fraction,
            shared_docs=spec.shared_docs,
        )
    )
    warm = [stream[: spec.warmup] for stream in streams]
    arguments = ["--traced"] if traced else []
    arguments += [
        "live", "--proxies", str(spec.proxies),
        "--cache-bytes", str(spec.cache_bytes),
    ]
    child = Child(arguments)
    drivers: List[ClientDriver] = []
    try:
        begun = perf_counter()
        drivers = [
            ClientDriver("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
            for port in child.ask("boot")["ports"]
        ]
        # Proxies no timed client talks to are warmed first, so every
        # summary a timed miss probes is populated.
        for some in (slice(CONNECTIONS, None), slice(CONNECTIONS)):
            warmed = await drive_all(child, drivers[some], warm[some], 8)
            if warmed.failed or warmed.wrong_body:
                raise RuntimeError("a warm-up request failed")
        setup_s = child.import_s + perf_counter() - begun
        yardsticks = [mark[2] for mark in child.ask("begin")["setup_marks"]]

        cpu_before = process_time()
        phase = await drive_all(
            child,
            drivers[:CONNECTIONS],
            [stream[spec.warmup :] for stream in streams[:CONNECTIONS]],
            SLICES,
        )
        loadgen_cpu_s = process_time() - cpu_before
        raw = child.ask("end")
        answered = sum(
            sum(driver.report.cache_sources.values())
            for driver in drivers[:CONNECTIONS]
        )
    finally:
        for driver in drivers:
            await driver.close()
        child.close()
    raw.update(slices_between(raw.pop("marks")))
    speed = raw["speed"]
    raw.update(
        ops=CONNECTIONS * timed,
        setup_s=setup_s * YARDSTICK_QUIET_S / statistics.fmean(yardsticks),
        latencies_ms=[
            seconds * speed[index] * 1e3
            for connection in phase.samples
            for seconds, index in connection
        ],
        mean_latency_s=statistics.fmean(
            seconds for connection in phase.samples for seconds, _ in connection
        ),
        failed=phase.failed + phase.wrong_body,
        loadgen_cpu_s=loadgen_cpu_s,
        # Responses that named their X-Cache source, warm-up aside.
        answered=answered - CONNECTIONS * spec.warmup,
        proxies=spec.proxies,
        pack_s=0.0,
        scan_s=0.0,
    )
    raw["counters"]["bytes_requested"] = phase.bytes_requested
    return raw


def live_facts(counters: Dict[str, float]) -> Dict[str, float]:
    c = counters
    return {
        "ops": c["proxy_http_requests_total"],
        "local_hits": c["proxy_local_hits_total"],
        "remote_hits": c["proxy_remote_hits_total"],
        "false_hits": c["proxy_icp_false_hits_total"],
        "query_rounds": c["proxy_request_phase_seconds:icp_round:count"],
        "bytes_requested": c["bytes_requested"],
        "bytes_from_origin": c["origin_bytes"],
        "messages": c["proxy_udp_sent_total"],
        "updates": c["proxy_dirupdates_sent_total"],
        "hash_hits": c["hash_cache_hits"],
        "hash_misses": c["hash_cache_misses"],
    }


# ----------------------------------------------------------------------
# metrics and checks
# ----------------------------------------------------------------------


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def fuse(reps: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold repetitions on identical inputs into one run.

    Slice *k* did the same work in every repetition, so the least of
    its timings is the one least disturbed; a request's latency is
    likewise the least it showed.  Counts are summed, set-up and
    memory take the median.
    """

    def quietest(key: str) -> List[float]:
        return [min(column) for column in zip(*(rep[key] for rep in reps))]

    def total(key: str) -> float:
        return sum(rep[key] for rep in reps)

    first = reps[0]
    return {
        "ops": first["ops"],
        "repeats": len(reps),
        "proxies": first["proxies"],
        "setup_s": statistics.median(rep["setup_s"] for rep in reps),
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in reps),
        "wall_s": sum(quietest("walls")),
        "cpu_s": sum(quietest("cpus")),
        "latencies_ms": sorted(quietest("latencies_ms")),
        "elapsed_s": total("elapsed_s"),
        "mean_latency_s": total("mean_latency_s") / len(reps),
        "yardstick_s": statistics.median(r["yardstick_s"] for r in reps),
        "loadgen_cpu_s": total("loadgen_cpu_s"),
        "failed": total("failed"),
        "answered": total("answered"),
        "pack_s": first["pack_s"],
        "scan_s": first["scan_s"],
        "counters": {
            key: sum(rep["counters"][key] for rep in reps)
            for key in first["counters"]
        },
        "counters_once": first["counters"],
        "repeatable": all(
            rep["counters"] == first["counters"] for rep in reps
        ),
    }


def end_to_end(run: Dict[str, Any], facts: Dict[str, float]) -> Dict[str, float]:
    ops = run["ops"]
    return {
        "setup_s": run["setup_s"],
        "throughput_ops_s": ops / run["wall_s"],
        "cpu_us_per_op": run["cpu_s"] / ops * 1e6,
        "latency_p50_ms": quantile(run["latencies_ms"], 0.50),
        "latency_p99_ms": quantile(run["latencies_ms"], 0.99),
        "peak_rss_mib": run["peak_rss_mib"],
        "hit_ratio": ratio(
            facts["local_hits"] + facts["remote_hits"], facts["ops"]
        ),
        "origin_byte_share": ratio(
            facts["bytes_from_origin"], facts["bytes_requested"]
        ),
        "msgs_per_op": ratio(facts["messages"], facts["ops"]),
    }


def per_layer(
    live: bool,
    bare: Dict[str, Any],
    traced: Dict[str, Any],
    facts: Dict[str, float],
) -> Dict[str, float]:
    """Per-layer metrics: the profile from the traced run, every count
    and wall-clock figure from the bare run over the same inputs."""
    ops = bare["ops"]
    profile = traced["profile"]
    out: Dict[str, float] = {}
    for layer in layers.LAYERS:
        entry = profile["layers"][layer]
        out[f"{layer}.self_us_per_op"] = entry["self_s"] / ops * 1e6
        out[f"{layer}.calls_per_op"] = entry["calls"] / ops
    out["runtime.idle_us_per_op"] = profile["idle_s"] / ops * 1e6
    out["loadgen.cpu_us_per_op"] = bare["loadgen_cpu_s"] / ops * 1e6
    out["loadgen.busy_share"] = ratio(bare["loadgen_cpu_s"], bare["elapsed_s"])

    c = bare["counters"]
    phase = "proxy_request_phase_seconds:{}:sum"
    total_us = c.get(phase.format("total"), 0.0) / ops * 1e6
    out["proxy.server.total_us_per_op"] = total_us
    for metric, key in (
        ("icp_wait", "icp_round"),
        ("peer_fetch", "peer_fetch"),
        ("origin_fetch", "origin_fetch"),
    ):
        out[f"proxy.server.{metric}_us_per_op"] = (
            c.get(phase.format(key), 0.0) / ops * 1e6
        )
    out["proxy.client_gap_us_per_op"] = (
        bare["mean_latency_s"] * 1e6 - total_us if live else 0.0
    )
    out["proxy.pool.reuse_share"] = ratio(
        c.get("proxy_connections_reused_total", 0.0),
        c.get("proxy_origin_fetches_total", 0.0)
        + c.get("proxy_remote_hits_total", 0.0)
        + c.get("proxy_remote_fetch_failures_total", 0.0),
    )
    out["cache.local_hit_share"] = ratio(facts["local_hits"], ops)
    out["cache.evictions_per_op"] = (
        ratio(c["proxy_cache_evictions"], ops)
        if live
        # The replay engine keeps its caches to itself; count the
        # eviction callbacks its cache layer made under the profile.
        else ratio(profile["evict_callbacks"], ops)
    )
    out["summaries.probes_per_op"] = ratio(
        (ops - facts["local_hits"]) * (bare["proxies"] - 1), ops
    )
    out["summaries.probe_useful_share"] = ratio(
        facts["remote_hits"], facts["query_rounds"]
    )
    out["summaries.false_hit_share"] = ratio(facts["false_hits"], ops)
    out["summaries.updates_per_op"] = ratio(facts["updates"], ops)
    out["core.hashing.cache_hit_share"] = ratio(
        facts["hash_hits"], facts["hash_hits"] + facts["hash_misses"]
    )
    out["traces.scan_records_s"] = ratio(ops, bare["scan_s"])
    out["traces.pack_records_s"] = ratio(ops, bare["pack_s"])
    out["trace.overhead_ratio"] = ratio(traced["elapsed_s"], bare["elapsed_s"])
    out["host.yardstick_us"] = bare["yardstick_s"] * 1e6
    return out


#: Layers the interaction table in README.md predicts idle: asserted
#: at exactly zero calls, so a prediction that stops holding is seen.
IDLE_LAYERS = {
    "live-hit": ("traces", "sharing"),
    "live-coop": ("traces", "sharing"),
    "replay-bloom": ("proxy.http", "proxy.pool", "proxy.origin",
                     "proxy.server", "protocol"),
    "replay-exact": ("core.bloom", "proxy.http", "proxy.pool",
                     "proxy.origin", "proxy.server", "protocol"),
}
#: Ceiling on the share of busy self time in modules no layer names.
OTHER_SHARE_LIMIT = 0.02
#: Above this the generator, not the program, was what ran flat out.
LOADGEN_BUSY_LIMIT = 0.9


def check_outputs(
    name: str, seed: int, run: Dict[str, Any], facts: Dict[str, float]
) -> List[str]:
    """Output checks every run makes; returns what failed."""
    problems = []
    attempted = run["ops"] * run["repeats"]
    if run["failed"]:
        problems.append(f"{run['failed']} requests failed or had a wrong body")
    if facts["ops"] != attempted:
        problems.append(
            f"program counted {facts['ops']} ops, {attempted} were sent"
        )
    counters = run["counters"]
    if isinstance(WORKLOADS[name], Live):
        if run["answered"] != attempted:
            problems.append("sum of X-Cache sources != requests")
        if counters["proxy_udp_sent_total"] != counters["proxy_udp_received_total"]:
            problems.append("udp sent != received on loopback")
        if counters["origin_errors"]:
            problems.append("origin reported errors")
        busy = ratio(run["loadgen_cpu_s"], run["elapsed_s"])
        if busy > LOADGEN_BUSY_LIMIT:
            problems.append(f"load generator {busy:.0%} busy: run invalid")
        return problems
    if not run["repeatable"]:
        problems.append("repetitions on one trace disagree on a counter")
    expected = json.loads((BENCH_DIR / "expected.json").read_text())
    pinned = expected.get(name, {})
    if seed == expected["seed"] and run["ops"] == pinned.get("requests"):
        for key, want in pinned.items():
            if run["counters_once"][key] != want:
                problems.append(
                    f"{key}: {run['counters_once'][key]}, expected {want}"
                )
    return problems


def check_profile(name: str, metrics: Dict[str, float]) -> List[str]:
    """Profile hygiene: nothing hides, predicted-idle layers are idle."""
    problems = []
    busy = sum(metrics[f"{layer}.self_us_per_op"] for layer in layers.LAYERS)
    other = metrics["other.self_us_per_op"]
    if busy and other / busy >= OTHER_SHARE_LIMIT:
        problems.append(
            f"{other / busy:.1%} of busy self time is in unmapped modules"
        )
    for layer in IDLE_LAYERS[name]:
        if metrics[f"{layer}.calls_per_op"] != 0:
            problems.append(f"layer {layer} predicted idle but was called")
    return problems


# ----------------------------------------------------------------------
# one workload, start to finish
# ----------------------------------------------------------------------


def once(
    name: str, seed: int, ops: int, traced: bool = False, scan: bool = False
) -> Dict[str, Any]:
    """One repetition of *name* in a fresh child."""
    spec = WORKLOADS[name]
    if isinstance(spec, Live):
        return asyncio.run(live_once(spec, seed, ops, traced))
    return replay_once(name, spec, seed, ops, traced, scan)


def run_workload(
    name: str, seed: int, seconds: float, trace: bool
) -> Dict[str, Any]:
    """Run *name*; returns the result object, failed checks, counters."""
    spec = WORKLOADS[name]
    live = isinstance(spec, Live)
    facts_of = live_facts if live else replay_facts
    ops = spec.operations(seconds)
    if not trace:
        run = fuse([once(name, seed, ops) for _ in range(REPEATS)])
        facts = facts_of(run["counters"])
        values = end_to_end(run, facts)
        problems = check_outputs(name, seed, run, facts)
        declared = SPEC["end_to_end"]
    else:
        ops = max(SLICES, round(ops * TRACED_SHARE / SLICES) * SLICES)
        run = fuse([once(name, seed, ops, scan=True)])
        profiled = once(name, seed, ops, traced=True)
        facts = facts_of(run["counters"])
        values = per_layer(live, run, profiled, facts)
        problems = check_outputs(name, seed, run, facts)
        problems += check_profile(name, values)
        declared = SPEC["per_layer"]
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"trace-{name}.json").write_text(
            json.dumps(
                {
                    "workload": name, "seed": seed, "ops": ops,
                    "metrics": values, "counters": run["counters"],
                    **profiled["profile"],
                },
                indent=1,
            )
        )
    metrics = {}
    for metric in declared:
        value = values[metric["name"]]
        if not math.isfinite(value):
            problems.append(f"{metric['name']} is not finite")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    return {
        "result": {
            "correct": not problems,
            "attempted": run["ops"] * run["repeats"],
            "failed": run["failed"],
            "metrics": metrics,
        },
        "problems": problems,
        "counters": run["counters"],
    }


def host_facts() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "link": "loopback",
        "loop": f"closed, {CONNECTIONS} connections, one generator process",
    }


def append_record(path: Path, runs: List[Dict[str, Any]]) -> None:
    record = (
        json.loads(path.read_text())
        if path.exists()
        else {"host": host_facts(), "runs": []}
    )
    record["runs"].extend(runs)
    path.write_text(json.dumps(record, indent=1))


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=SPEC["run_seconds"],
        help="nominal length of the timed phase (sets the op count)",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append runs to this record")
    args = parser.parse_args()

    names = [args.workload] if args.workload else list(WORKLOADS)
    runs = []
    ok = True
    for name in names:
        outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
        result = outcome["result"]
        ok = ok and result["correct"]
        print(f"# {name}  seed={args.seed}  ops={result['attempted']}")
        for metric, entry in result["metrics"].items():
            print(f"{metric:40s} {entry['value']:16.6f} {entry['unit']}")
        for problem in outcome["problems"]:
            print(f"CHECK FAILED: {problem}")
        runs.append(
            {
                "workload": name, "seed": args.seed,
                "seconds": args.seconds, "trace": args.trace,
                "counters": outcome["counters"], **result,
            }
        )
        print(json.dumps(result), flush=True)
    if args.out:
        append_record(args.out, runs)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
