"""Squid ``access.log`` reader and writer: the one foreign trace input.

The package's own trace file is the packed ``.sctr`` of
:mod:`repro.traces.binary`.  This module lets users feed real proxy
logs into the simulators; the common native format is::

    time.millis elapsed client action/code size method URL ident hier/from content-type

Only the fields the simulators need (time, client, URL, size) are
interpreted; the version validator defaults to 0 for real logs, i.e.
perfect freshness, matching a consistency-oblivious replay.
"""

from __future__ import annotations

import ipaddress
from pathlib import Path
from typing import Dict, Union

from repro.errors import TraceFormatError
from repro.traces.model import Request, Trace

PathLike = Union[str, Path]


def write_squid_log(trace: Trace, path: PathLike) -> None:
    """Write *trace* in Squid native ``access.log`` format.

    Client id ``n`` is written as the IPv4 address whose integer value
    is ``n``; an id of 2**32 or more has no address and raises
    :class:`~repro.errors.TraceFormatError` (the ``.sctr`` client field
    is a u32 too).
    """
    with open(path, "w", encoding="utf-8") as fh:
        for req in trace:
            try:
                addr = ipaddress.IPv4Address(req.client_id)
            except ipaddress.AddressValueError as exc:
                raise TraceFormatError(
                    f"client id {req.client_id} has no IPv4 address"
                ) from exc
            fh.write(
                f"{req.timestamp:.3f}    120 {addr} TCP_MISS/200 "
                f"{req.size} GET {req.url} - DIRECT/origin text/html\n"
            )


def read_squid_log(path: PathLike, name: str = "") -> Trace:
    """Read a Squid native ``access.log`` into a trace.

    Non-GET lines are skipped.  Each distinct client field (address or
    host name) gets the next integer id in order of first appearance.
    """
    requests = []
    client_ids: Dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if len(parts) < 7:
                if line.strip():
                    raise TraceFormatError(
                        f"{path}:{lineno}: squid log line has "
                        f"{len(parts)} fields, expected >= 7"
                    )
                continue
            method = parts[5]
            if method != "GET":
                continue
            try:
                timestamp = float(parts[0])
                size = int(parts[4])
            except ValueError as exc:
                raise TraceFormatError(
                    f"{path}:{lineno}: bad squid log field: {exc}"
                ) from exc
            requests.append(
                Request(
                    timestamp=timestamp,
                    client_id=client_ids.setdefault(
                        parts[2], len(client_ids)
                    ),
                    url=parts[6],
                    size=size,
                    version=0,
                )
            )
    return Trace(requests=requests, name=name or Path(path).stem)
