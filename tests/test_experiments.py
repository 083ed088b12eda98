"""Smoke tests for the experiment runners (one per table/figure)."""

from __future__ import annotations

import pytest

from repro import experiments
from repro.analysis.scalability import ScalabilityEstimate


class TestTable1:
    def test_rows_for_all_workloads(self):
        headers, rows = experiments.table1(scale=0.05)
        assert len(rows) == 5
        assert headers[0] == "trace"
        names = [row[0] for row in rows]
        assert names == list(experiments.ALL_WORKLOADS)


class TestFig1:
    def test_sharing_dominates_no_sharing(self):
        headers, rows = experiments.fig1(
            "upisa", scale=0.2, cache_fractions=(0.05, 0.10)
        )
        assert len(rows) == 2
        for row in rows:
            no_sharing = float(row[1])
            simple = float(row[2])
            global_cache = float(row[4])
            assert simple > no_sharing
            assert global_cache > no_sharing

    def test_hit_ratio_grows_with_cache_size(self):
        _headers, rows = experiments.fig1(
            "upisa", scale=0.2, cache_fractions=(0.01, 0.10)
        )
        assert float(rows[1][1]) > float(rows[0][1])


class TestFig2:
    def test_threshold_zero_is_best(self):
        _headers, rows = experiments.fig2(
            "upisa", scale=0.2, thresholds=(0.0, 0.01, 0.10)
        )
        hit_ratios = [float(row[1]) for row in rows]
        assert hit_ratios[0] >= hit_ratios[1] >= hit_ratios[2] - 1e-9
        # False misses are zero without delay.
        assert float(rows[0][2]) == 0.0


class TestTable3:
    def test_bloom_is_an_order_cheaper_than_exact(self):
        _headers, rows = experiments.table3(
            workloads=("upisa",), scale=0.2
        )
        (row,) = rows

        def pct(cell: str) -> float:
            return float(cell.rstrip("%"))

        exact, server, b8, b16, b32 = map(pct, row[1:])
        assert b8 < exact / 4
        assert b8 < b16 < b32


class TestFig4:
    def test_table_spans_axis(self):
        headers, rows = experiments.fig4()
        assert rows[0][0] == 2
        assert rows[-1][0] == 32


class TestRepresentations:
    @pytest.fixture(scope="class")
    def results(self):
        # A 5% threshold keeps update traffic in proportion at test
        # scale (tiny caches hold ~100 documents, so 1% would fire
        # every few requests); benches use the paper's 1% at full scale.
        return experiments.representations(
            "upisa", scale=0.3, threshold=0.05
        )

    def test_all_six_configs_present(self, results):
        assert set(results) == {
            "exact-directory",
            "server-name",
            "bloom-8",
            "bloom-16",
            "bloom-32",
            "icp",
        }

    def test_fig5_hit_ratios_close(self, results):
        ratios = [
            results[k].total_hit_ratio
            for k in ("exact-directory", "bloom-8", "bloom-16", "bloom-32")
        ]
        assert max(ratios) - min(ratios) < 0.02

    def test_fig6_false_hit_ordering(self, results):
        assert (
            results["server-name"].false_hit_ratio
            > results["bloom-8"].false_hit_ratio
            >= results["bloom-32"].false_hit_ratio
        )

    def test_fig7_icp_sends_most_messages(self, results):
        icp = results["icp"].messages_per_request
        for key in ("exact-directory", "bloom-16", "bloom-32"):
            assert results[key].messages_per_request < icp

    def test_fig8_bloom_bytes_below_icp(self, results):
        assert (
            results["bloom-16"].message_bytes_per_request
            < results["icp"].message_bytes_per_request
        )

    def test_rows_render(self, results):
        headers, rows = experiments.representation_rows(results)
        assert len(rows) == 6
        assert headers[0] == "summary"


class TestHierarchy:
    def test_returns_one_result_per_configuration(self):
        results = experiments.hierarchy("questnet", scale=0.1)
        plain = results["hierarchy only"]
        with_siblings = results["hierarchy + SC-ICP siblings"]
        assert plain.sibling_hits == 0
        assert with_siblings.parent_requests < plain.parent_requests
        headers, rows = experiments.hierarchy_rows(results)
        assert headers == (
            "configuration",
            "child-HR",
            "sibling-HR",
            "parent-load",
            "total-HR",
            "origin-traffic",
        )
        assert [row[0] for row in rows] == list(results)


class TestAlternatives:
    def test_returns_each_protocols_result(self):
        result = experiments.alternatives("ucb", scale=0.1)
        assert result.icp.scheme == "icp"
        assert result.bloom.scheme.startswith("summary/bloom-16/")
        assert result.carp.requests == result.icp.requests
        assert result.directory_load.per_request(
            result.directory_server.requests
        ) > 0
        headers, rows = experiments.alternative_rows(result)
        assert headers == (
            "protocol",
            "hit-ratio",
            "interproxy-msgs/req",
            "wide-area-routed",
            "central-msgs/req",
        )
        assert [row[0] for row in rows] == [
            "icp",
            "carp",
            "directory-server",
            "summary-cache (bloom-16)",
        ]
        assert rows[0][1] == f"{result.icp.total_hit_ratio:.3f}"


class TestTable2:
    def test_rows_and_overheads(self):
        results = experiments.table2(
            target_hit_ratio=0.25,
            clients_per_proxy=3,
            requests_per_client=40,
        )
        modes = [r.mode for r in results.values()]
        assert modes == ["no-icp", "icp", "sc-icp"]
        _headers, rows = experiments.table2_rows(results)
        assert "icp overhead" in rows[3][0]
        # All three modes show the same hit ratio (no remote hits).
        no_icp, icp, sc = (round(r.hit_ratio, 3) for r in results.values())
        assert no_icp == icp == sc


class TestTable45:
    def test_client_bound_replay(self):
        results = experiments.table45(
            assignment="client-bound",
            workload="upisa",
            scale=0.1,
            num_requests=1200,
            clients_per_proxy=4,
        )
        modes = [r.mode for r in results.values()]
        assert modes == ["no-icp", "icp", "sc-icp"]
        # ICP and SC-ICP find remote hits; no-ICP cannot.
        no_icp, icp, _sc = results.values()
        assert round(no_icp.remote_hit_ratio, 3) == 0.0
        assert round(icp.remote_hit_ratio, 3) > 0.0


class TestDissemination:
    def test_cell_attaches_the_extrapolation(self):
        results = experiments.dissemination(
            "nlanr",
            scale=0.1,
            num_requests=800,
            num_proxies=4,
            policies=("unicast",),
            cache_capacity=512 * 1024,
        )
        (result,) = results.values()
        assert isinstance(result.predicted, ScalabilityEstimate)
        assert result.predicted.num_proxies == 4
        headers, rows = experiments.dissemination_rows(results)
        assert headers[0] == "policy"
        assert rows[0][0] == "unicast"


class TestScalability:
    def test_headline_row(self):
        _headers, rows = experiments.scalability(proxy_counts=(100,))
        (row,) = rows
        assert row[0] == 100
        assert float(row[5]) < 0.06
