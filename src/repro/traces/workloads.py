"""Workload presets mirroring the paper's five traces (Table I).

Each preset is a synthetic stand-in for one of the paper's trace sets,
reproducing its *structure* -- the number of proxy groups, the relative
scale of clients and documents, and qualitative properties the paper
describes -- at laptop scale:

- ``dec`` -- large corporate population, 16 proxy groups.
- ``ucb`` -- dial-IP user population, 8 groups, smaller documents.
- ``upisa`` -- one CS department, 8 groups, strong locality (this is the
  trace the paper replays in experiments 3 and 4).
- ``questnet`` -- 12 child proxies of a regional network; the trace
  records only the children's *misses*, so per-client temporal locality
  is largely filtered out (the child caches absorbed it) and the stream
  has weak locality.
- ``nlanr`` -- 4 top-level parent proxies; client ids map directly to
  proxies.

Request counts are scaled down ~100x from the paper's (full-scale DEC is
3.5M requests); pass ``scale`` to grow or shrink them together.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigurationError
from repro.traces.model import Trace
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    generate_trace,
    iter_records,
)


@dataclass(frozen=True)
class WorkloadPreset:
    """A named trace configuration plus its proxy-group count."""

    config: SyntheticTraceConfig
    num_groups: int


WORKLOAD_PRESETS: Dict[str, WorkloadPreset] = {
    "dec": WorkloadPreset(
        config=SyntheticTraceConfig(
            name="dec",
            num_requests=60_000,
            num_clients=800,
            num_documents=40_000,
            zipf_alpha=0.77,
            locality_probability=0.30,
            mean_size=2 * 1024,
            max_size=1024 * 1024,
            mod_probability=0.006,
            request_rate=40.0,
            seed=101,
        ),
        num_groups=16,
    ),
    "ucb": WorkloadPreset(
        config=SyntheticTraceConfig(
            name="ucb",
            num_requests=45_000,
            num_clients=500,
            num_documents=30_000,
            zipf_alpha=0.75,
            locality_probability=0.35,
            mean_size=2 * 1024,
            max_size=1024 * 1024,
            mod_probability=0.005,
            request_rate=30.0,
            seed=102,
        ),
        num_groups=8,
    ),
    "upisa": WorkloadPreset(
        config=SyntheticTraceConfig(
            name="upisa",
            num_requests=30_000,
            num_clients=150,
            num_documents=13_000,
            zipf_alpha=0.8,
            locality_probability=0.45,
            mean_size=2 * 1024,
            max_size=1024 * 1024,
            mod_probability=0.004,
            request_rate=10.0,
            seed=103,
        ),
        num_groups=8,
    ),
    "questnet": WorkloadPreset(
        config=SyntheticTraceConfig(
            name="questnet",
            num_requests=40_000,
            num_clients=12,
            client_alpha=0.2,
            num_documents=30_000,
            zipf_alpha=0.7,
            # Children's caches absorbed most re-references: the parent
            # sees a stream with little per-client temporal locality.
            locality_probability=0.10,
            locality_stack_depth=16,
            mean_size=2 * 1024,
            max_size=1024 * 1024,
            mod_probability=0.007,
            request_rate=25.0,
            seed=104,
        ),
        num_groups=12,
    ),
    "nlanr": WorkloadPreset(
        config=SyntheticTraceConfig(
            name="nlanr",
            num_requests=35_000,
            num_clients=4,
            client_alpha=0.1,
            num_documents=24_000,
            zipf_alpha=0.72,
            locality_probability=0.20,
            locality_stack_depth=32,
            mean_size=2 * 1024,
            max_size=1024 * 1024,
            mod_probability=0.006,
            request_rate=35.0,
            seed=105,
        ),
        num_groups=4,
    ),
}


def workload_config(
    name: str,
    scale: float = 1.0,
    seed: Optional[int] = None,
    num_requests: Optional[int] = None,
) -> Tuple[SyntheticTraceConfig, int]:
    """Resolve preset *name* into ``(config, num_groups)``.

    Applies the same scale/seed adjustments :func:`make_workload` does
    without generating anything -- the streaming/packing paths build
    their own request source from the config.  *num_requests* overrides
    the request count alone (clients and documents untouched), the knob
    the bounded-memory benchmarks turn to grow trace length while the
    working set stays fixed.
    """
    try:
        preset = WORKLOAD_PRESETS[name.lower()]
    except KeyError:
        raise ConfigurationError(
            f"unknown workload {name!r}; expected one of "
            f"{sorted(WORKLOAD_PRESETS)}"
        ) from None
    config = preset.config
    if scale != 1.0:
        config = config.scaled(scale)
        if config.num_clients < preset.num_groups:
            config = replace(config, num_clients=preset.num_groups)
    if seed is not None:
        config = replace(config, seed=seed)
    if num_requests is not None:
        if num_requests < 1:
            raise ConfigurationError("num_requests must be >= 1")
        config = replace(config, num_requests=num_requests)
    return config, preset.num_groups


def make_workload(
    name: str, scale: float = 1.0, seed: Optional[int] = None
) -> Tuple[Trace, int]:
    """Generate the preset workload *name* at the given *scale*.

    Returns ``(trace, num_groups)``.  ``scale`` multiplies request,
    client, and document counts together (client counts never scale below
    the group count, so every proxy still receives traffic).  ``seed``
    overrides the preset's fixed generator seed; generation is fully
    deterministic either way, so the same ``(name, scale, seed)`` yields
    an identical trace in any process -- the property the parallel
    experiment runner relies on to keep worker results bit-exact with a
    serial run.
    """
    config, num_groups = workload_config(name, scale=scale, seed=seed)
    return generate_trace(config), num_groups


def pack_workload(
    name: str,
    path,
    scale: float = 1.0,
    seed: Optional[int] = None,
    num_requests: Optional[int] = None,
) -> Tuple[int, int]:
    """Stream preset workload *name* into a packed binary trace at *path*.

    Returns ``(records_written, num_groups)``.  The generator core's
    records go straight to the writer's packer as URL ids, with no
    :class:`~repro.traces.model.Request` in between, so memory stays
    O(clients + documents + distinct URLs) however large *num_requests*
    is.  The packed file is byte-identical with
    ``pack_trace(iter_requests(config))`` and replays bit-exact with
    ``make_workload(name, scale, seed)[0]`` (same config, same stream).
    """
    from repro.traces.binary import BinaryTraceWriter

    config, num_groups = workload_config(
        name, scale=scale, seed=seed, num_requests=num_requests
    )
    urls: List[str] = []
    with BinaryTraceWriter(path, name=config.name) as writer:
        writer.pack_records(iter_records(config, urls), urls)
    return writer.count, num_groups
