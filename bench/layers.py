"""Bucket a cProfile run into layers named after this repo's modules.

A profiled call is a span, ``inlinetime`` is its self time, and a call
edge whose two ends map to different layers is a layer boundary.  The
map is by module-path prefix only -- nothing in ``src/`` is patched or
named function by function -- so it survives file splits: a module this
table has never seen falls into its package's bucket, and a package it
has never seen falls into ``other``.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Tuple

#: ``(path prefix under src/repro/, layer)``; the longest match wins.
LAYER_PREFIXES: Tuple[Tuple[str, str], ...] = (
    ("traces/", "traces"),
    ("sharing/", "sharing"),
    ("cache/", "cache"),
    ("summaries/", "summaries"),
    ("core/hashing.py", "core.hashing"),
    ("core/position_cache.py", "core.hashing"),
    ("core/", "core.bloom"),
    ("protocol/", "protocol"),
    ("proxy/http.py", "proxy.http"),
    ("proxy/pool.py", "proxy.pool"),
    ("proxy/origin.py", "proxy.origin"),
    ("proxy/", "proxy.server"),
    ("placement/", "placement"),
    ("obs/", "obs"),
    ("", "other"),
)

#: Everything outside ``repro/``: asyncio, selectors, sockets, ...
RUNTIME = "runtime"
#: The benchmark's own child-side code; never reported as a layer.
HARNESS = "harness"
LAYERS: Tuple[str, ...] = tuple(
    dict.fromkeys(layer for _, layer in LAYER_PREFIXES)
) + (RUNTIME,)

_REPRO = "/repro/"


def layer_of(filename: str, harness_dir: str = "") -> str:
    """The layer owning Python source file *filename*."""
    path = filename.replace("\\", "/")
    if harness_dir and path.startswith(harness_dir):
        return HARNESS
    at = path.rfind(_REPRO)
    if at < 0:
        return RUNTIME
    module = path[at + len(_REPRO):]
    best = max(
        (p for p in LAYER_PREFIXES if module.startswith(p[0])),
        key=lambda p: len(p[0]),
    )
    return best[1]


def _is_poll(code: Any) -> bool:
    # "<method 'poll' of 'select.epoll' objects>" and its kin: the event
    # loop waiting, not working.
    return isinstance(code, str) and "'poll'" in code and "select." in code


def _label(code: Any) -> str:
    if isinstance(code, str):
        return code
    return f"{code.co_filename}:{code.co_firstlineno}({code.co_name})"


def summarise(
    stats: Iterable[Any], harness_dir: str = "", hottest: int = 40
) -> Dict[str, Any]:
    """Aggregate ``cProfile.Profile.getstats()`` entries per layer.

    A built-in has no file, so its self time goes to the layer of the
    Python function that called it (``hashlib.md5`` called from
    ``core/hashing.py`` is hashing cost); built-in time with no
    profiled Python caller goes to ``runtime``.

    Returns ``layers`` (``{layer: {"self_s", "calls"}}``), ``idle_s``,
    ``edges`` (cross-layer caller->callee, by total time) and
    ``hottest`` (functions by self time).
    """
    entries = list(stats)
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    edges: Dict[Tuple[str, str], List[float]] = {}
    evict_callbacks = 0
    idle = 0.0
    attributed: Dict[Any, float] = {}
    functions: List[Tuple[float, int, str, str]] = []

    def add(layer: str, seconds: float) -> None:
        self_s[layer] = self_s.get(layer, 0.0) + seconds

    for entry in entries:
        builtin = isinstance(entry.code, str)
        layer = (
            RUNTIME
            if builtin
            else layer_of(entry.code.co_filename, harness_dir)
        )
        if not builtin:
            add(layer, entry.inlinetime)
            calls[layer] = calls.get(layer, 0) + entry.callcount
            functions.append(
                (entry.inlinetime, entry.callcount, layer, _label(entry.code))
            )
        for sub in entry.calls or ():
            if isinstance(sub.code, str):
                attributed[sub.code] = (
                    attributed.get(sub.code, 0.0) + sub.inlinetime
                )
                if _is_poll(sub.code):
                    idle += sub.inlinetime
                else:
                    add(layer, sub.inlinetime)
                continue
            callee = layer_of(sub.code.co_filename, harness_dir)
            if builtin or callee == layer:
                continue
            edge = edges.setdefault((layer, callee), [0, 0.0])
            edge[0] += sub.callcount
            edge[1] += sub.totaltime
            if layer == "cache" and "evict" in sub.code.co_name:
                evict_callbacks += sub.callcount
    for entry in entries:
        if not isinstance(entry.code, str):
            continue
        functions.append(
            (entry.inlinetime, entry.callcount, "builtin", entry.code)
        )
        # Called from frames that were already running when profiling
        # began, so no caller entry carries this time.
        rest = entry.inlinetime - attributed.get(entry.code, 0.0)
        if rest > 0.0:
            if _is_poll(entry.code):
                idle += rest
            else:
                add(RUNTIME, rest)

    functions.sort(key=lambda f: f[0], reverse=True)
    return {
        "layers": {
            layer: {
                "self_s": self_s.get(layer, 0.0),
                "calls": calls.get(layer, 0),
            }
            for layer in LAYERS + (HARNESS,)
        },
        "idle_s": idle,
        "evict_callbacks": evict_callbacks,
        "edges": [
            {"from": a, "to": b, "calls": n, "total_s": t}
            for (a, b), (n, t) in sorted(
                edges.items(), key=lambda kv: kv[1][1], reverse=True
            )
        ],
        "hottest": [
            {"self_s": s, "calls": n, "layer": layer, "function": name}
            for s, n, layer, name in functions[:hottest]
        ],
    }
