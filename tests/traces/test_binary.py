"""Tests for the packed binary trace format (.sctr)."""

from __future__ import annotations

import mmap
import struct

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TraceFormatError, TraceIndexError
from repro.traces import binary
from repro.traces.binary import (
    TRACE_HEADER_SIZE,
    TRACE_MAGIC,
    TRACE_RECORD_SIZE,
    BinaryTraceReader,
    BinaryTraceWriter,
    TraceWindow,
    pack_trace,
)
from repro.traces.model import Request, Trace


@pytest.fixture
def trace() -> Trace:
    return Trace(
        name="bin-test",
        requests=[
            Request(0.0, 0, "http://a.com/1", 100, 0),
            Request(0.5, 1, "http://b.com/2", 2048, 3),
            Request(1.5, 0, "http://a.com/1", 100, 0),
            Request(2.0, 7, "http://c.com/3?q=1", 64, 1),
            Request(9.0, 1, "http://a.com/1", 100, 0),
        ],
    )


@pytest.fixture
def packed(trace, tmp_path) -> str:
    path = str(tmp_path / "t.sctr")
    pack_trace(trace, path)
    return path


class TestRoundTrip:
    def test_materialize_equals_original(self, trace, packed):
        with BinaryTraceReader(packed) as reader:
            assert reader.materialize() == trace

    def test_name_preserved(self, trace, packed):
        with BinaryTraceReader(packed) as reader:
            assert reader.name == "bin-test"

    def test_empty_trace(self, tmp_path):
        path = str(tmp_path / "empty.sctr")
        assert pack_trace(Trace(name="none"), path) == 0
        with BinaryTraceReader(path) as reader:
            assert len(reader) == 0
            assert list(reader) == []
            assert reader.duration == 0.0
            assert reader.clients() == []

    def test_pack_from_generator(self, trace, tmp_path):
        path = str(tmp_path / "gen.sctr")
        count = pack_trace((r for r in trace.requests), path, name="gen")
        assert count == len(trace)
        with BinaryTraceReader(path) as reader:
            assert list(reader) == trace.requests

    def test_duplicate_urls_stored_once(self, trace, packed):
        with BinaryTraceReader(packed) as reader:
            urls = reader.urls()
            assert len(urls) == 3
            assert sorted(urls) == sorted(
                {r.url for r in trace.requests}
            )


class TestReaderAccess:
    def test_len_and_getitem(self, trace, packed):
        with BinaryTraceReader(packed) as reader:
            assert len(reader) == 5
            for i, req in enumerate(trace.requests):
                assert reader[i] == req
            assert reader[-1] == trace.requests[-1]

    def test_out_of_range_raises_index_error(self, packed):
        with BinaryTraceReader(packed) as reader:
            with pytest.raises(IndexError):
                reader[5]
            with pytest.raises(TraceIndexError):
                reader[-6]

    def test_duration_is_o1_and_matches_trace(self, trace, packed):
        with BinaryTraceReader(packed) as reader:
            assert reader.duration == trace.duration == 9.0

    def test_clients_sorted_and_cached(self, trace, packed):
        with BinaryTraceReader(packed) as reader:
            clients = reader.clients()
            assert clients == trace.clients() == [0, 1, 7]
            assert reader.clients() is clients

    def test_iter_range(self, trace, packed):
        with BinaryTraceReader(packed) as reader:
            assert list(reader.iter_range(1, 4)) == trace.requests[1:4]

    def test_small_advise_window_scans_whole_trace(self, tmp_path):
        # A window below one page exercises the madvise trimming path.
        requests = [
            Request(float(i), i % 5, f"http://s/{i % 50}", 10, 0)
            for i in range(2000)
        ]
        path = str(tmp_path / "adv.sctr")
        pack_trace(requests, path)
        with BinaryTraceReader(path, advise_window=4096) as reader:
            assert list(reader) == requests


class TestWindows:
    def test_slice_matches_trace_slice(self, trace, packed):
        with BinaryTraceReader(packed) as reader:
            window = reader[1:4]
            assert isinstance(window, TraceWindow)
            assert len(window) == 3
            assert list(window) == trace.requests[1:4]
            assert window.materialize().requests == trace.requests[1:4]

    def test_sub_slicing_and_negative_index(self, trace, packed):
        with BinaryTraceReader(packed) as reader:
            window = reader[1:5][1:3]
            assert list(window) == trace.requests[2:4]
            assert window[-1] == trace.requests[3]

    def test_head(self, trace, packed):
        with BinaryTraceReader(packed) as reader:
            head = reader.head(2)
            assert list(head) == trace.requests[:2]
            assert "[0:2]" in head.name

    def test_window_clients_and_duration(self, trace, packed):
        with BinaryTraceReader(packed) as reader:
            window = reader[0:3]
            assert window.clients() == [0, 1]
            assert window.duration == 1.5

    def test_window_out_of_range(self, packed):
        with BinaryTraceReader(packed) as reader:
            window = reader[1:3]
            with pytest.raises(TraceIndexError):
                window[2]

    def test_step_slicing_rejected(self, packed):
        with BinaryTraceReader(packed) as reader:
            with pytest.raises(TraceFormatError):
                reader[::2]


class TestWriterLimits:
    def test_oversized_url_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="URL"):
            pack_trace(
                [Request(0.0, 0, "x" * 70_000, 1, 0)],
                str(tmp_path / "big.sctr"),
            )

    def test_unencodable_url_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError, match="UTF-8"):
            pack_trace(
                [Request(0.0, 0, "\ud800", 1, 0)],
                str(tmp_path / "surrogate.sctr"),
            )

    def test_field_overflow_rejected(self, tmp_path):
        with pytest.raises(TraceFormatError):
            pack_trace(
                [Request(0.0, 2**32, "u", 1, 0)],
                str(tmp_path / "over.sctr"),
            )

    def test_rejected_record_keeps_the_ones_before_it(self, tmp_path):
        path = str(tmp_path / "partial.sctr")
        good = Request(0.0, 1, "http://u/", 1, 0)
        with BinaryTraceWriter(path, name="partial") as writer:
            with pytest.raises(TraceFormatError):
                writer.extend([good, Request(1.0, 2**32, "http://u/", 1, 0)])
            assert writer.count == 1
        with BinaryTraceReader(path) as reader:
            assert list(reader) == [good]

    def test_rejected_record_adds_no_url(self, tmp_path):
        path = str(tmp_path / "orphan.sctr")
        good = Request(0.0, 1, "http://u/", 1, 0)
        with BinaryTraceWriter(path, name="orphan") as writer:
            with pytest.raises(TraceFormatError):
                writer.extend([good, Request(1.0, 2**33, "http://v/", 1, 0)])
            assert writer.count == 1
        with BinaryTraceReader(path) as reader:
            assert list(reader) == [good]
            assert list(reader.urls()) == ["http://u/"]

    def test_rejected_url_can_come_back_valid(self, tmp_path):
        # The URL of a rejected record is not learned, so its next
        # record adds it to the table as if it were new.
        path = str(tmp_path / "again.sctr")
        retried = Request(2.0, 3, "http://v/", 1, 0)
        with BinaryTraceWriter(path, name="again") as writer:
            with pytest.raises(TraceFormatError):
                writer.append(Request(1.0, 2**33, "http://v/", 1, 0))
            writer.append(retried)
        with BinaryTraceReader(path) as reader:
            assert list(reader) == [retried]
            assert list(reader.urls()) == ["http://v/"]

    def test_failed_pack_leaves_no_file(self, tmp_path):
        path = tmp_path / "cut.sctr"

        def requests():
            yield Request(0.0, 1, "http://u/1", 1, 0)
            yield Request(1.0, 1, "http://u/2", 1, 0)
            raise RuntimeError("source failed")

        with pytest.raises(RuntimeError, match="source failed"):
            pack_trace(requests(), path)
        assert not path.exists()

    def test_out_of_order_url_id_rejected(self, tmp_path):
        path = str(tmp_path / "ids.sctr")
        with BinaryTraceWriter(path, name="ids") as writer:
            with pytest.raises(TraceFormatError, match="skips"):
                writer.pack_records([(0.0, 1, 1, 1, 0)], ["http://u/", "x"])
            writer.pack_records([(0.0, 1, 0, 1, 0)], ["http://u/"])
        with BinaryTraceReader(path) as reader:
            assert list(reader) == [Request(0.0, 1, "http://u/", 1, 0)]

    def test_writer_context_manager(self, tmp_path):
        path = str(tmp_path / "cm.sctr")
        with BinaryTraceWriter(path, name="cm") as writer:
            writer.append(Request(1.0, 2, "http://u/", 3, 4))
            assert writer.count == 1
        with BinaryTraceReader(path) as reader:
            assert reader[0] == Request(1.0, 2, "http://u/", 3, 4)


class TestCorruptFiles:
    def test_bad_magic(self, packed, tmp_path):
        data = bytearray(open(packed, "rb").read())
        data[:4] = b"NOPE"
        bad = tmp_path / "bad.sctr"
        bad.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="magic"):
            BinaryTraceReader(bad)

    def test_bad_version(self, packed, tmp_path):
        data = bytearray(open(packed, "rb").read())
        data[4:6] = struct.pack("!H", 99)
        bad = tmp_path / "bad.sctr"
        bad.write_bytes(bytes(data))
        with pytest.raises(TraceFormatError, match="version"):
            BinaryTraceReader(bad)

    def test_truncated_records(self, packed, tmp_path):
        data = open(packed, "rb").read()
        bad = tmp_path / "bad.sctr"
        bad.write_bytes(data[: TRACE_HEADER_SIZE + TRACE_RECORD_SIZE // 2])
        with pytest.raises(TraceFormatError):
            BinaryTraceReader(bad)

    def test_header_shorter_than_header_size(self, tmp_path):
        bad = tmp_path / "tiny.sctr"
        bad.write_bytes(TRACE_MAGIC)
        with pytest.raises(TraceFormatError):
            BinaryTraceReader(bad)

    @pytest.fixture
    def bad_url_id(self, packed, tmp_path):
        """*packed* with record 3's URL id past the string table."""
        with open(packed, "rb") as fh:
            data = bytearray(fh.read())
        name_len = struct.unpack_from("!H", data, 6)[0]
        # The URL id is the u32 at byte 12 of a record; its high byte
        # set puts it far past the table's three entries.
        data[TRACE_HEADER_SIZE + name_len + 3 * TRACE_RECORD_SIZE + 12] = 0xFF
        bad = tmp_path / "bad.sctr"
        bad.write_bytes(bytes(data))
        return bad

    def test_bad_url_id_when_iterating(self, bad_url_id):
        with BinaryTraceReader(bad_url_id) as reader:
            with pytest.raises(TraceFormatError, match="URL id"):
                list(reader)

    def test_bad_url_id_when_indexing(self, bad_url_id):
        with BinaryTraceReader(bad_url_id) as reader:
            assert reader[2].url == "http://a.com/1"
            with pytest.raises(TraceFormatError, match="URL id"):
                reader[3]

    def test_bad_url_id_in_a_window(self, bad_url_id):
        with BinaryTraceReader(bad_url_id) as reader:
            window = reader[2:5]
            with pytest.raises(TraceFormatError, match="URL id"):
                window[1]
            with pytest.raises(TraceFormatError, match="URL id"):
                list(window)

    @pytest.mark.parametrize(
        "byte, what", [("first name", "name"), ("last URL", "string entry 0")]
    )
    def test_non_utf8_text_raises_format_error_and_closes(
        self, byte, what, tmp_path, monkeypatch
    ):
        path = tmp_path / "one.sctr"
        pack_trace([Request(0.0, 1, "http://u/x", 1, 0)], path, name="one")
        data = bytearray(path.read_bytes())
        data[TRACE_HEADER_SIZE if byte == "first name" else -1] = 0xFF
        path.write_bytes(bytes(data))
        opened, mapped = [], []
        real_mmap = mmap.mmap

        def spy_open(*args, **kwargs):
            opened.append(open(*args, **kwargs))
            return opened[-1]

        def spy_mmap(*args, **kwargs):
            mapped.append(real_mmap(*args, **kwargs))
            return mapped[-1]

        monkeypatch.setattr(binary, "open", spy_open, raising=False)
        monkeypatch.setattr(binary.mmap, "mmap", spy_mmap)
        with pytest.raises(TraceFormatError, match=f"{what} is not UTF-8"):
            BinaryTraceReader(path)
        assert len(opened) == len(mapped) == 1
        assert opened[0].closed
        assert mapped[0].closed


@pytest.fixture(scope="module")
def small(tmp_path_factory) -> bytes:
    """A small ``.sctr`` file's bytes: a name, three URLs, four records."""
    path = tmp_path_factory.mktemp("small") / "small.sctr"
    requests = [
        Request(0.0, 0, "http://a.com/1", 100, 0),
        Request(0.5, 1, "http://b.com/é", 2048, 3),
        Request(1.5, 0, "http://a.com/1", 100, 0),
        Request(2.0, 7, "http://c.com/3?q=1", 64, 1),
    ]
    pack_trace(requests, path, name="small")
    return path.read_bytes()


def _open_and_iterate(data: bytes, path) -> None:
    """Write *data* to *path*, open it and read every record; any
    failure must be a :class:`TraceFormatError`."""
    path.write_bytes(data)
    try:
        with BinaryTraceReader(path) as reader:
            list(reader)
    except TraceFormatError:
        pass


class TestDamagedFiles:
    """One changed byte or a cut anywhere: open and iterate either
    succeed or raise ``TraceFormatError``, never anything else."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_any_one_byte_changed(self, data, small, tmp_path):
        damaged = bytearray(small)
        index = data.draw(st.integers(min_value=0, max_value=len(small) - 1))
        damaged[index] = data.draw(st.integers(min_value=0, max_value=255))
        _open_and_iterate(bytes(damaged), tmp_path / "changed.sctr")

    @settings(
        max_examples=100,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_truncated_anywhere(self, data, small, tmp_path):
        length = data.draw(st.integers(min_value=0, max_value=len(small) - 1))
        _open_and_iterate(small[:length], tmp_path / "cut.sctr")


# Surrogates (category Cs) are not encodable as UTF-8; the writer
# rejects them with TraceFormatError (covered in TestWriterLimits).
_urls = st.text(
    alphabet=st.characters(
        min_codepoint=32, max_codepoint=0x10FFFF, exclude_categories=("Cs",)
    ),
    min_size=1,
    max_size=40,
)
_requests = st.builds(
    Request,
    timestamp=st.floats(
        min_value=0.0, max_value=1e12, allow_nan=False, allow_infinity=False
    ),
    client_id=st.integers(min_value=0, max_value=2**32 - 1),
    url=_urls,
    size=st.integers(min_value=0, max_value=2**32 - 1),
    version=st.integers(min_value=0, max_value=2**32 - 1),
)


class TestProperties:
    # tmp_path is reused across examples on purpose: each example
    # overwrites the same file, so the health check is a false alarm.
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(requests=st.lists(_requests, max_size=60))
    def test_round_trip_preserves_every_field(self, requests, tmp_path):
        path = str(tmp_path / "prop.sctr")
        pack_trace(requests, path, name="prop")
        with BinaryTraceReader(path) as reader:
            assert list(reader) == requests

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        requests=st.lists(_requests, min_size=1, max_size=40),
        data=st.data(),
    )
    def test_random_slices_match_list_slices(
        self, requests, data, tmp_path
    ):
        path = str(tmp_path / "slice.sctr")
        pack_trace(requests, path)
        start = data.draw(
            st.integers(min_value=0, max_value=len(requests))
        )
        stop = data.draw(
            st.integers(min_value=start, max_value=len(requests))
        )
        with BinaryTraceReader(path) as reader:
            assert list(reader[start:stop]) == requests[start:stop]
