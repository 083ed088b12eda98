"""Tests for the five Table-I-style workload presets."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.traces.binary import BinaryTraceReader, BinaryTraceWriter, pack_trace
from repro.traces.synthetic import (
    SyntheticTraceConfig,
    iter_records,
    iter_requests,
)
from repro.traces.workloads import WORKLOAD_PRESETS, make_workload


class TestPresets:
    def test_all_five_paper_traces_present(self):
        assert set(WORKLOAD_PRESETS) == {
            "dec",
            "ucb",
            "upisa",
            "questnet",
            "nlanr",
        }

    def test_group_counts_match_paper(self):
        # "We set the number of groups in DEC, UCB and UPisa traces to
        # 16, 8, and 8"; Questnet has 12 child proxies; NLANR has 4.
        assert WORKLOAD_PRESETS["dec"].num_groups == 16
        assert WORKLOAD_PRESETS["ucb"].num_groups == 8
        assert WORKLOAD_PRESETS["upisa"].num_groups == 8
        assert WORKLOAD_PRESETS["questnet"].num_groups == 12
        assert WORKLOAD_PRESETS["nlanr"].num_groups == 4

    @pytest.mark.parametrize("name", sorted(WORKLOAD_PRESETS))
    def test_each_preset_generates(self, name):
        trace, groups = make_workload(name, scale=0.05)
        assert len(trace) > 0
        assert groups == WORKLOAD_PRESETS[name].num_groups
        # Every group receives at least one request (no idle proxies).
        seen = {r.client_id % groups for r in trace}
        assert seen == set(range(groups))

    def test_scale_grows_requests(self):
        small, _ = make_workload("upisa", scale=0.1)
        large, _ = make_workload("upisa", scale=0.2)
        assert len(large) == 2 * len(small)

    def test_scale_never_drops_clients_below_groups(self):
        trace, groups = make_workload("dec", scale=0.01)
        assert len({r.client_id for r in trace}) >= 1
        assert groups == 16

    def test_unknown_workload(self):
        with pytest.raises(ConfigurationError):
            make_workload("aol")

    def test_case_insensitive(self):
        trace, _ = make_workload("UPisa", scale=0.05)
        assert len(trace) > 0


class TestWorkloadConfig:
    def test_matches_make_workload_geometry(self):
        from repro.traces.workloads import workload_config

        config, groups = workload_config("upisa", scale=0.5)
        trace, groups_made = make_workload("upisa", scale=0.5)
        assert groups == groups_made
        assert config.num_requests == len(trace)

    def test_num_requests_overrides_count_only(self):
        from repro.traces.workloads import workload_config

        base, _ = workload_config("nlanr")
        grown, _ = workload_config("nlanr", num_requests=123_456)
        assert grown.num_requests == 123_456
        assert grown.num_clients == base.num_clients
        assert grown.num_documents == base.num_documents

    def test_rejects_bad_num_requests(self):
        from repro.traces.workloads import workload_config

        with pytest.raises(ConfigurationError):
            workload_config("nlanr", num_requests=0)


class TestPackWorkload:
    def test_packed_file_replays_bit_exact(self, tmp_path):
        from repro.traces.workloads import pack_workload

        path = str(tmp_path / "nlanr.sctr")
        records, groups = pack_workload("nlanr", path, scale=0.1)
        trace, groups_made = make_workload("nlanr", scale=0.1)
        assert (records, groups) == (len(trace), groups_made)
        with BinaryTraceReader(path) as reader:
            assert reader.name == "nlanr"
            assert list(reader) == trace.requests

    def test_num_requests_knob(self, tmp_path):
        from repro.traces.workloads import pack_workload

        path = str(tmp_path / "short.sctr")
        records, _ = pack_workload("nlanr", path, num_requests=500)
        assert records == 500
        with BinaryTraceReader(path) as reader:
            assert len(reader) == 500


_configs = st.builds(
    SyntheticTraceConfig,
    num_requests=st.integers(min_value=1, max_value=400),
    num_clients=st.integers(min_value=1, max_value=12),
    num_documents=st.integers(min_value=1, max_value=300),
    locality_probability=st.floats(min_value=0.0, max_value=1.0),
    server_locality=st.floats(min_value=0.0, max_value=1.0),
    mod_probability=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


class TestPackPaths:
    """The id path ``pack_workload`` takes writes what the Request path
    writes, for any configuration and block size."""

    # tmp_path is reused across examples on purpose: each example
    # overwrites the same files, so the health check is a false alarm.
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(config=_configs, block_size=st.integers(min_value=1, max_value=64))
    def test_id_path_writes_the_request_path_bytes(
        self, config, block_size, tmp_path
    ):
        by_ids = tmp_path / "ids.sctr"
        urls = []
        with BinaryTraceWriter(by_ids, name=config.name) as writer:
            writer.pack_records(iter_records(config, urls, block_size), urls)
        by_requests = tmp_path / "requests.sctr"
        pack_trace(iter_requests(config), by_requests, name=config.name)
        assert by_ids.read_bytes() == by_requests.read_bytes()
        with BinaryTraceReader(by_ids) as reader:
            assert list(reader) == list(iter_requests(config))
