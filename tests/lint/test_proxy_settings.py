"""The live proxy's settable values, pinned.

Every ``ProxyConfig`` field and ``ProxyCluster`` parameter is a knob an
operator can turn and a reader must understand.  A knob earns its place
only when a caller outside the tests sets it (the CLI, an example, the
benchmark harness) and it says something no other field says.  Adding
one needs that second caller and a line in CHANGES.md; then update the
sets below.  Removing one is always welcome.
"""

from __future__ import annotations

import dataclasses
import inspect

from repro.proxy import ProxyCluster, ProxyConfig

PROXY_CONFIG_FIELDS = {
    "name",
    "host",
    "http_port",
    "icp_port",
    "mode",
    "cache_capacity",
    "max_object_size",
    "summary",
    "expected_doc_size",
    "update_policy",
    "icp_timeout",
    "idle_timeout",
    "pool_size",
    "pool_idle_timeout",
    "trace_capacity",
    "trace_enabled",
    "cooperation",
    "replication",
}

#: Positional order matters: the benchmark harness calls
#: ``ProxyCluster(num_proxies, mode, cache_capacity)``.
PROXY_CLUSTER_PARAMETERS = [
    "num_proxies",
    "mode",
    "cache_capacity",
    "origin_delay",
    "base_config",
]


def test_proxy_config_fields_are_pinned():
    fields = {field.name for field in dataclasses.fields(ProxyConfig)}
    assert fields == PROXY_CONFIG_FIELDS


def test_proxy_cluster_parameters_are_pinned():
    parameters = list(inspect.signature(ProxyCluster).parameters)
    assert parameters == PROXY_CLUSTER_PARAMETERS
