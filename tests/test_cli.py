"""Tests for the command-line interface."""

from __future__ import annotations

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main

CATALOGUE = Path(__file__).resolve().parents[1] / "docs" / "observability.md"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig1", "--workload", "aol"])


class TestCommands:
    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out
        assert "bits/entry" in out

    def test_scalability(self, capsys):
        assert main(["scalability"]) == 0
        out = capsys.readouterr().out
        assert "Section V-F" in out
        assert "100" in out

    def test_fig1_small(self, capsys):
        assert main(["fig1", "--workload", "upisa", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "no-sharing" in out

    def test_fig2_small(self, capsys):
        assert main(["fig2", "--workload", "upisa", "--scale", "0.1"]) == 0
        assert "threshold" in capsys.readouterr().out

    def test_representations_small(self, capsys):
        assert (
            main(
                [
                    "representations",
                    "--workload",
                    "upisa",
                    "--scale",
                    "0.1",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bloom-16" in out
        assert "icp" in out

    def test_table2_small(self, capsys):
        assert (
            main(
                [
                    "table2",
                    "--clients-per-proxy",
                    "2",
                    "--requests-per-client",
                    "30",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "sc-icp" in out
        assert "overhead" in out

    def test_loadgen_small(self, capsys):
        assert (
            main(
                [
                    "loadgen",
                    "--proxies",
                    "1",
                    "--clients",
                    "2",
                    "--requests",
                    "8",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "keepalive_pooled: 16 requests (0 errors)" in out
        assert "; 2 connections; " in out
        assert "origin bytes" in out
        assert "peer fetches" in out

    def test_loadgen_exits_1_when_clients_see_errors(self, capsys, monkeypatch):
        from dataclasses import replace

        from repro.benchmarkkit import loadgen

        measured = loadgen.run_loadgen

        async def with_errors(*args, **kwargs):
            return replace(await measured(*args, **kwargs), errors=3)

        monkeypatch.setattr(loadgen, "run_loadgen", with_errors)
        argv = ["loadgen", "--proxies", "1", "--clients", "1", "--requests", "4"]
        assert main(argv) == 1
        assert "4 requests (3 errors)" in capsys.readouterr().out


class TestExtensionCommands:
    def test_hierarchy(self, capsys):
        assert (
            main(["hierarchy", "--workload", "questnet", "--scale", "0.1"])
            == 0
        )
        out = capsys.readouterr().out
        assert "Section VIII" in out
        assert "parent-load" in out

    def test_alternatives(self, capsys):
        assert (
            main(["alternatives", "--workload", "ucb", "--scale", "0.1"])
            == 0
        )
        out = capsys.readouterr().out
        assert "carp" in out
        assert "directory-server" in out


class TestScaledTableCommands:
    def test_table1_scaled(self, capsys):
        assert main(["table1", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "nlanr" in out

    def test_table3_scaled(self, capsys):
        assert main(["table3", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "bloom-16" in out


class TestMetricsCommand:
    """``summary-cache metrics`` writes each run's result, nothing else."""

    @pytest.fixture(scope="class")
    def series(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(
                [
                    "metrics", "--workload", "upisa", "--scale", "0.05",
                    "--format", "json",
                ]
            ) == 0
        return json.loads(out.getvalue())["metrics"]

    @pytest.fixture(scope="class")
    def direct(self):
        from repro.experiments import DEFAULT_CACHE_FRACTION
        from repro.sharing.summary_sharing import (
            SummarySharingConfig,
            simulate_icp,
            simulate_summary_sharing,
        )
        from repro.summaries import SummaryConfig, ThresholdUpdatePolicy
        from repro.traces.stats import compute_stats, mean_cacheable_size
        from repro.traces.workloads import make_workload

        trace, groups = make_workload("upisa", scale=0.05)
        capacity = int(
            compute_stats(trace).infinite_cache_bytes
            * DEFAULT_CACHE_FRACTION
            / groups
        )
        cfg = SummarySharingConfig(
            summary=SummaryConfig(kind="bloom", load_factor=8),
            update_policy=ThresholdUpdatePolicy(0.01),
            expected_doc_size=mean_cacheable_size(trace),
        )
        return {
            "summary": simulate_summary_sharing(trace, groups, capacity, cfg),
            "icp": simulate_icp(trace, groups, capacity),
        }

    @pytest.mark.parametrize("scheme", ["summary", "icp"])
    def test_series_equal_direct_run(self, series, direct, scheme):
        result = direct[scheme]
        msgs = result.messages
        expected = {
            "sharing_requests_total": result.requests,
            "sharing_local_hits_total": result.local_hits,
            "sharing_remote_hits_total": result.remote_hits,
            "sharing_false_hits_total": result.false_hits,
            "sharing_false_misses_total": result.false_misses,
            "sharing_query_messages_total": msgs.query_messages,
            "sharing_query_bytes_total": msgs.query_bytes,
            # One drain ships one update message to each of n-1 peers.
            "sharing_update_drains_total": (
                msgs.update_messages // (result.num_proxies - 1)
            ),
            "sharing_update_messages_total": msgs.update_messages,
            "sharing_update_bytes_total": msgs.update_bytes,
        }
        labels = {"scheme": result.scheme}
        got = {
            s["name"]: s["value"]
            for s in series
            if s["labels"] == labels and s["kind"] == "counter"
        }
        assert got == expected
        (timing,) = [
            s for s in series
            if s["name"] == "sharing_simulation_seconds"
            and s["labels"] == labels
        ]
        assert timing["count"] == 1
        assert msgs.query_messages > 0

    def test_series_are_the_catalogued_sharing_rows(self, series):
        rows = re.findall(
            r"^\|\s*`(sharing_[a-z_]+)`\s*\|", CATALOGUE.read_text(), re.M
        )
        assert {s["name"] for s in series} == set(rows)


class TestObsCommands:
    def test_obs_cluster_booted(self, tmp_path, capsys):
        out_path = tmp_path / "snapshot.json"
        assert (
            main(
                [
                    "obs",
                    "cluster",
                    "--boot",
                    "2",
                    "--clients",
                    "2",
                    "--requests",
                    "10",
                    "--json",
                    str(out_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "proxy0" in out
        assert "traces:" in out
        doc = json.loads(out_path.read_text())
        assert set(doc["proxies"]) == {"proxy0", "proxy1"}
        assert doc["totals"]["proxy_http_requests_total"] > 0
        assert doc["false_hit_attribution"][0]["representation"] == "bloom"

    def test_obs_trace_requires_targets(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["obs", "trace", "deadbeef"])

    def test_obs_bad_target_spec(self):
        from repro.cli import _parse_targets
        from repro.errors import ConfigurationError

        assert _parse_targets(["127.0.0.1:8081", ":9000"]) == [
            ("127.0.0.1", 8081),
            ("127.0.0.1", 9000),
        ]
        with pytest.raises(ConfigurationError):
            _parse_targets(["no-port-here"])

    def test_serve_trace_flags_parse(self):
        args = build_parser().parse_args(
            ["serve", "--trace-capacity", "64", "--no-trace"]
        )
        assert args.trace_capacity == 64
        assert args.no_trace is True


class TestTraceCommands:
    @pytest.fixture
    def packed(self, tmp_path, capsys):
        path = tmp_path / "nlanr.sctr"
        assert (
            main(
                [
                    "trace",
                    "pack",
                    "--workload",
                    "nlanr",
                    "--scale",
                    "0.1",
                    "--out",
                    str(path),
                ]
            )
            == 0
        )
        assert "packed" in capsys.readouterr().out
        return path

    def test_pack_then_info(self, packed, capsys):
        assert main(["trace", "info", str(packed)]) == 0
        out = capsys.readouterr().out
        assert "nlanr" in out
        assert "records" in out

    def test_verify_ok(self, packed, capsys):
        assert (
            main(
                [
                    "trace",
                    "verify",
                    str(packed),
                    "--workload",
                    "nlanr",
                    "--scale",
                    "0.1",
                    "--proxies",
                    "4",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "bit-exact" in out

    def test_verify_replays_with_the_requested_proxy_count(
        self, packed, capsys
    ):
        assert (
            main(
                [
                    "trace",
                    "verify",
                    str(packed),
                    "--workload",
                    "nlanr",
                    "--scale",
                    "0.1",
                    "--proxies",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        # A replay over the preset's own 4 groups reads 0.660571.
        assert "OK: 2-proxy summary-sharing replay bit-exact" in out
        assert "hit ratio 0.660857" in out

    def test_verify_detects_wrong_workload(self, packed, capsys):
        assert (
            main(
                [
                    "trace",
                    "verify",
                    str(packed),
                    "--workload",
                    "nlanr",
                    "--scale",
                    "0.1",
                    "--seed",
                    "9999",
                ]
            )
            == 1
        )
        assert "MISMATCH" in capsys.readouterr().out

    def test_requests_override(self, tmp_path, capsys):
        path = tmp_path / "short.sctr"
        assert (
            main(
                [
                    "trace",
                    "pack",
                    "--workload",
                    "nlanr",
                    "--requests",
                    "300",
                    "--out",
                    str(path),
                ]
            )
            == 0
        )
        assert "300" in capsys.readouterr().out

    def test_trace_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["trace"])


class TestDisseminationCommand:
    def test_small_cluster_both_policies(self, capsys):
        assert (
            main(
                [
                    "dissemination",
                    "--workload",
                    "nlanr",
                    "--scale",
                    "0.1",
                    "--requests",
                    "1500",
                    "--proxies",
                    "4",
                    "--cache-mb",
                    "0.5",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "Section V-F measured" in out
        assert "unicast" in out
        assert "hierarchy" in out
        assert "extrapolation check" in out

    def test_single_policy_selection(self, capsys):
        assert (
            main(
                [
                    "dissemination",
                    "--workload",
                    "nlanr",
                    "--scale",
                    "0.1",
                    "--requests",
                    "800",
                    "--proxies",
                    "4",
                    "--cache-mb",
                    "0.5",
                    "--policies",
                    "hierarchy",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "hierarchy" in out
        assert not any(
            line.startswith("unicast")
            for line in out.splitlines()
        )
