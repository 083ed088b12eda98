"""Tests for the Squid access-log reader and writer."""

from __future__ import annotations

import pytest

from repro.errors import TraceFormatError
from repro.traces.model import Request, Trace
from repro.traces.readers import read_squid_log, write_squid_log


def _log_line(timestamp: float, client: str, url: str, size: object = 10) -> str:
    return (
        f"{timestamp} 5 {client} TCP_MISS/200 {size} GET {url} - DIRECT/o -\n"
    )


@pytest.fixture
def versioned_trace() -> Trace:
    return Trace(
        name="versioned",
        requests=[
            Request(0.25, 3, "http://a.com/x", 1234, version=0),
            Request(1.75, 70000, "http://b.org/y?q=1", 99, version=2),
        ],
    )


class TestSquidLog:
    def test_roundtrip_preserves_core_fields(self, versioned_trace, tmp_path):
        path = tmp_path / "access.log"
        write_squid_log(versioned_trace, path)
        loaded = read_squid_log(path)
        assert [r.url for r in loaded] == [
            r.url for r in versioned_trace
        ]
        assert [r.size for r in loaded] == [
            r.size for r in versioned_trace
        ]
        # Each distinct client gets the next id in first-appearance order.
        assert [r.client_id for r in loaded] == [0, 1]
        # Versions are not representable in squid logs.
        assert all(r.version == 0 for r in loaded)

    def test_non_get_lines_skipped(self, tmp_path):
        path = tmp_path / "access.log"
        path.write_text(
            "1.0 5 10.0.0.1 TCP_MISS/200 100 POST http://a.com/x - DIRECT/o text/html\n"
            "2.0 5 10.0.0.1 TCP_MISS/200 100 GET http://a.com/y - DIRECT/o text/html\n"
        )
        loaded = read_squid_log(path)
        assert len(loaded) == 1
        assert loaded[0].url == "http://a.com/y"

    def test_named_hosts_hash_to_stable_ids(self, tmp_path):
        path = tmp_path / "access.log"
        path.write_text(
            "1.0 5 host-a TCP_MISS/200 10 GET http://x.com/1 - DIRECT/o -\n"
            "2.0 5 host-b TCP_MISS/200 10 GET http://x.com/2 - DIRECT/o -\n"
            "3.0 5 host-a TCP_MISS/200 10 GET http://x.com/3 - DIRECT/o -\n"
        )
        loaded = read_squid_log(path)
        assert loaded[0].client_id == loaded[2].client_id
        assert loaded[0].client_id != loaded[1].client_id

    def test_short_line_raises(self, tmp_path):
        path = tmp_path / "access.log"
        path.write_text("garbage line\n")
        with pytest.raises(TraceFormatError, match="access.log:1"):
            read_squid_log(path)

    def test_bad_number_raises(self, tmp_path):
        path = tmp_path / "access.log"
        path.write_text(
            "xxx 5 10.0.0.1 TCP_MISS/200 10 GET http://x.com/1 - DIRECT/o -\n"
        )
        with pytest.raises(TraceFormatError):
            read_squid_log(path)

    def test_malformed_line_raises_with_location(self, tmp_path):
        path = tmp_path / "bad.log"
        path.write_text(
            _log_line(1.0, "10.0.0.1", "http://x.com/1")
            + _log_line(2.0, "10.0.0.1", "http://x.com/2", size="big")
        )
        with pytest.raises(TraceFormatError, match="bad.log:2"):
            read_squid_log(path)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "access.log"
        path.write_text(
            _log_line(1.0, "10.0.0.1", "http://x.com/1") + "\n   \n"
        )
        assert len(read_squid_log(path)) == 1

    def test_name_defaults_to_stem(self, versioned_trace, tmp_path):
        path = tmp_path / "mytrace.log"
        write_squid_log(versioned_trace, path)
        assert read_squid_log(path).name == "mytrace"
        assert read_squid_log(path, name="other").name == "other"

    def test_distinct_clients_get_distinct_ids(self, tmp_path):
        # Addresses sharing their last three octets, and a host name
        # next to addresses, are four different clients.
        path = tmp_path / "access.log"
        path.write_text(
            "".join(
                _log_line(float(i), client, f"http://x.com/{i}")
                for i, client in enumerate(
                    ["10.0.0.1", "192.0.0.1", "host-a", "10.0.0.0"]
                )
            )
        )
        assert [r.client_id for r in read_squid_log(path)] == [0, 1, 2, 3]

    def test_ids_follow_first_appearance(self, tmp_path):
        path = tmp_path / "access.log"
        path.write_text(
            "".join(
                _log_line(float(i), client, f"http://x.com/{i}")
                for i, client in enumerate(
                    ["10.9.9.9", "host-b", "10.9.9.9", "10.0.0.7", "host-b"]
                )
            )
        )
        assert [r.client_id for r in read_squid_log(path)] == [0, 1, 0, 2, 1]

    def test_writer_keeps_ids_above_24_bits_apart(self, tmp_path):
        trace = Trace(
            name="wide",
            requests=[
                Request(1.0, 0, "http://x.com/1", 10),
                Request(2.0, 2**24, "http://x.com/2", 10),
                Request(3.0, 2**32 - 1, "http://x.com/3", 10),
            ],
        )
        path = tmp_path / "access.log"
        write_squid_log(trace, path)
        addresses = [line.split()[2] for line in path.read_text().splitlines()]
        assert addresses == ["0.0.0.0", "1.0.0.0", "255.255.255.255"]
        assert [r.client_id for r in read_squid_log(path)] == [0, 1, 2]

    def test_writer_rejects_ids_beyond_u32(self, tmp_path):
        trace = Trace(
            name="too-wide",
            requests=[Request(1.0, 2**32, "http://x.com/1", 10)],
        )
        with pytest.raises(TraceFormatError, match="4294967296"):
            write_squid_log(trace, tmp_path / "access.log")
