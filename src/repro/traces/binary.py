"""Binary mmap trace format: pack once, replay in bounded memory.

This module defines the package's one trace file and its *streaming*
container.  An in-memory :class:`~repro.traces.model.Trace` holds a full
``List[Request]``, which caps traces at what fits in RAM (a
10^8-request trace is unrepresentable).  A ``.sctr`` file is
struct-packed and its request records are fixed width, so
an ``mmap``-backed reader can yield :class:`Request` objects lazily,
slice in O(1), and seek to any chunk without parsing what precedes it.

File layout (all integers network byte order; see ``docs/traces.md``)::

    offset  size        field
    0       4           magic ``SCTR``
    4       2           format version (currently 1)
    6       2           trace-name length in bytes
    8       8           record count
    16      8           string-table offset (from file start)
    24      8           string-table entry count
    32      8           reserved (zero)
    40      name_len    trace name, UTF-8
    ...     count*24    request records
    ...                 string table: per URL a u16 length + UTF-8 bytes

Each record is 24 bytes -- ``!dIIII``: timestamp (f64 seconds),
client id (u32), URL id (u32, an index into the string table), body
size (u32), and document version (u32).  URLs are deduplicated into the
string table, so a trace's on-disk cost is ~24 bytes/request plus its
*distinct* URL bytes.

Memory model: :class:`BinaryTraceWriter` holds the string table and,
for :class:`Request` input, the URL-dedup dict (O(distinct URLs)); a
source that hands out URL ids itself needs no dict
(:meth:`BinaryTraceWriter.pack_records`).  :class:`BinaryTraceReader`
maps the file and decodes
records on the fly, advising consumed pages away (``MADV_DONTNEED``)
during sequential scans so peak RSS stays flat in the trace length.
"""

from __future__ import annotations

import mmap
import struct
from pathlib import Path
from types import TracebackType
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Type,
    Union,
)

from repro.errors import TraceFormatError, TraceIndexError
from repro.traces.model import Request, Trace

PathLike = Union[str, Path]

#: File magic of the binary trace format.
TRACE_MAGIC = b"SCTR"
#: Current format version; bumped on any layout change.
TRACE_FORMAT_VERSION = 1

_TRACE_HEADER = struct.Struct("!4sHHQQQQ")
TRACE_HEADER_SIZE = 40

_TRACE_RECORD = struct.Struct("!dIIII")
TRACE_RECORD_SIZE = 24

_STRING_ENTRY = struct.Struct("!H")
STRING_ENTRY_SIZE = 2

#: A u16 length prefix caps string-table entries (URLs) at 64 KiB - 1.
MAX_URL_BYTES = 0xFFFF

#: Writer buffer: packed records accumulate and flush at about this size.
_WRITE_BUFFER_BYTES = 1 << 20
#: Sequential reads advise consumed pages away once this many bytes of
#: the mapping are behind the iterator (multiple of the page size).
DEFAULT_ADVISE_WINDOW = 8 * 1024 * 1024


def _encode_url(url: str) -> bytes:
    """*url* as a string-table entry's bytes, checked against the format."""
    try:
        encoded = url.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise TraceFormatError(f"URL is not encodable as UTF-8: {exc}") from exc
    if len(encoded) > MAX_URL_BYTES:
        raise TraceFormatError(
            f"URL is {len(encoded)} bytes; the string table's u16 "
            f"length prefix caps entries at {MAX_URL_BYTES}"
        )
    return encoded


class BinaryTraceWriter:
    """Streaming writer: append requests one at a time, O(distinct URLs).

    The header's record count and string-table offset are back-patched
    on :meth:`close`, so the request count need not be known up front --
    a generator can be drained straight into the file::

        with BinaryTraceWriter(path, name="dec") as writer:
            for request in iter_requests(config):
                writer.append(request)

    An exception that leaves the ``with`` block removes the file
    instead: a pack cut short never reads as a complete trace.
    """

    def __init__(self, path: PathLike, name: str = "unnamed") -> None:
        name_bytes = name.encode("utf-8")
        if len(name_bytes) > MAX_URL_BYTES:
            raise TraceFormatError(
                f"trace name is {len(name_bytes)} bytes; max {MAX_URL_BYTES}"
            )
        self._path = Path(path)
        self._name = name
        self._name_bytes = name_bytes
        self._fh = open(self._path, "wb")
        self._url_ids: Dict[str, int] = {}
        self._url_bytes: List[bytes] = []
        self._count = 0
        self._buffer = bytearray()
        self._closed = False
        # Placeholder header; patched with real counts on close.
        self._fh.write(
            _TRACE_HEADER.pack(
                TRACE_MAGIC, TRACE_FORMAT_VERSION, len(name_bytes), 0, 0, 0, 0
            )
        )
        self._fh.write(name_bytes)

    @property
    def count(self) -> int:
        """Records appended so far."""
        return self._count

    def append(self, request: Request) -> None:
        """Append one request record."""
        self.extend((request,))

    def extend(self, requests: Iterable[Request]) -> None:
        """Append every request from an iterable.

        Each URL is looked up in the writer's URL -> id dict and the
        records go to :meth:`pack_records`.  A URL the table lacks gets
        the table's next id; the dict learns it only once its record has
        packed (the lookup resumes after the packer took the record), so
        a rejected record leaves no trace in either.
        """
        url_ids = self._url_ids
        table = self._url_bytes
        new_urls: Dict[int, str] = {}

        def records() -> Iterator[Tuple[float, int, int, int, int]]:
            for timestamp, client_id, url, size, version in requests:
                url_id = url_ids.get(url)
                fresh = url_id is None
                if url_id is None:
                    url_id = len(table)
                    new_urls[url_id] = url
                yield timestamp, client_id, url_id, size, version
                if fresh:
                    url_ids[url] = url_id
                    del new_urls[url_id]

        self.pack_records(records(), new_urls)

    def pack_records(
        self,
        records: Iterable[Tuple[float, int, int, int, int]],
        urls: Union[Sequence[str], Mapping[int, str]],
    ) -> None:
        """Append ``(timestamp, client_id, url_id, size, version)`` records.

        The writer's one record packer.  URL ids must appear in
        first-use order: an id equal to the string table's length adds
        ``urls[url_id]`` to the table, once its record has packed (UTF-8,
        the u16 length prefix and every u32 field checked), and an id
        past it is rejected.  A rejected record leaves the ones before it.
        """
        buffer = self._buffer
        table = self._url_bytes
        next_id = len(table)
        pack = _TRACE_RECORD.pack
        count = self._count
        flush_at = count + max(
            1, (_WRITE_BUFFER_BYTES - len(buffer)) // TRACE_RECORD_SIZE
        )
        try:
            for timestamp, client_id, url_id, size, version in records:
                try:
                    record = pack(timestamp, client_id, url_id, size, version)
                except struct.error as exc:
                    raise TraceFormatError(
                        f"request field out of range for u32 record layout: "
                        f"client_id={client_id} url_id={url_id} size={size} "
                        f"version={version}: {exc}"
                    ) from exc
                if url_id >= next_id:
                    if url_id > next_id:
                        raise TraceFormatError(
                            f"URL id {url_id} skips the string table's next "
                            f"id {next_id}"
                        )
                    table.append(_encode_url(urls[url_id]))
                    next_id += 1
                buffer += record
                count += 1
                if count == flush_at:
                    self._fh.write(buffer)
                    buffer.clear()
                    flush_at = count + _WRITE_BUFFER_BYTES // TRACE_RECORD_SIZE
        finally:
            self._count = count

    def close(self) -> None:
        """Flush records, write the string table, back-patch the header."""
        if self._closed:
            return
        self._closed = True
        try:
            if self._buffer:
                self._fh.write(self._buffer)
                self._buffer.clear()
            strings_offset = self._fh.tell()
            for encoded in self._url_bytes:
                self._fh.write(_STRING_ENTRY.pack(len(encoded)))
                self._fh.write(encoded)
            self._fh.seek(0)
            self._fh.write(
                _TRACE_HEADER.pack(
                    TRACE_MAGIC,
                    TRACE_FORMAT_VERSION,
                    len(self._name_bytes),
                    self._count,
                    strings_offset,
                    len(self._url_bytes),
                    0,
                )
            )
        finally:
            self._fh.close()

    def __enter__(self) -> "BinaryTraceWriter":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        if exc_type is None:
            self.close()
        elif not self._closed:
            # No back-patch: a pack that raised leaves no file that
            # reads as a whole, shorter trace.
            self._closed = True
            self._fh.close()
            self._path.unlink(missing_ok=True)


def pack_trace(requests, path: PathLike, name: str = "unnamed") -> int:
    """Pack an iterable of requests (or a :class:`Trace`) into *path*.

    Returns the number of records written.  Memory stays bounded by the
    distinct-URL table, so a generator of 10^8 requests packs fine.
    """
    if isinstance(requests, Trace):
        name = requests.name if name == "unnamed" else name
    with BinaryTraceWriter(path, name=name) as writer:
        writer.extend(requests)
        return writer.count


class BinaryTraceReader:
    """mmap-backed lazy reader for a packed ``.sctr`` trace.

    Supports the read-only :class:`Trace` surface the replay consumers
    use -- ``__iter__``/``__len__``/``__getitem__``/``name``/
    ``duration``/``clients()``/``head(n)`` -- without ever building a
    request list.  Integer indexing decodes one record; slicing returns
    an O(1) :class:`TraceWindow` view over the same mapping.

    ``advise_window`` bounds sequential-scan RSS: after that many bytes
    of records are consumed, the pages behind the iterator are advised
    away with ``MADV_DONTNEED`` (where the platform supports it).  Pass
    ``None`` to keep pages resident (e.g. many interleaved iterators).
    """

    def __init__(
        self, path: PathLike, advise_window: Optional[int] = DEFAULT_ADVISE_WINDOW
    ) -> None:
        self._path = Path(path)
        self._advise_window = advise_window
        self._fh = open(self._path, "rb")
        try:
            try:
                self._mm = mmap.mmap(
                    self._fh.fileno(), 0, access=mmap.ACCESS_READ
                )
            except ValueError as exc:
                raise TraceFormatError(f"{path}: cannot map: {exc}") from exc
            self._parse_header()
        except BaseException:
            # Any header failure leaves neither the mapping nor the
            # file open behind it.
            self.close()
            raise

    def _parse_header(self) -> None:
        mm = self._mm
        if len(mm) < TRACE_HEADER_SIZE:
            raise TraceFormatError(
                f"{self._path}: truncated header "
                f"({len(mm)} < {TRACE_HEADER_SIZE} bytes)"
            )
        (
            magic,
            version,
            name_len,
            count,
            strings_offset,
            strings_count,
            _reserved,
        ) = _TRACE_HEADER.unpack_from(mm, 0)
        if magic != TRACE_MAGIC:
            raise TraceFormatError(
                f"{self._path}: bad magic {magic!r} (not a .sctr trace)"
            )
        if version != TRACE_FORMAT_VERSION:
            raise TraceFormatError(
                f"{self._path}: format version {version}; this reader "
                f"understands {TRACE_FORMAT_VERSION}"
            )
        self._records_offset = TRACE_HEADER_SIZE + name_len
        records_end = self._records_offset + count * TRACE_RECORD_SIZE
        if strings_offset != records_end or strings_offset > len(mm):
            raise TraceFormatError(
                f"{self._path}: string table offset {strings_offset} does "
                f"not follow {count} records ending at {records_end}"
            )
        try:
            self.name = mm[TRACE_HEADER_SIZE : self._records_offset].decode("utf-8")
        except UnicodeDecodeError as exc:
            raise TraceFormatError(f"{self._path}: name is not UTF-8: {exc}") from exc
        self._count = count
        self._urls = self._parse_strings(strings_offset, strings_count)
        self._clients: Optional[List[int]] = None

    def _parse_strings(self, offset: int, count: int) -> List[str]:
        mm = self._mm
        urls: List[str] = []
        pos = offset
        for index in range(count):
            if pos + STRING_ENTRY_SIZE > len(mm):
                raise TraceFormatError(
                    f"{self._path}: string table truncated at entry {index}"
                )
            (length,) = _STRING_ENTRY.unpack_from(mm, pos)
            pos += STRING_ENTRY_SIZE
            if pos + length > len(mm):
                raise TraceFormatError(
                    f"{self._path}: string entry {index} overruns the file"
                )
            try:
                urls.append(mm[pos : pos + length].decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise TraceFormatError(
                    f"{self._path}: string entry {index} is not UTF-8: {exc}"
                ) from exc
            pos += length
        return urls

    # -- Trace-compatible read surface ---------------------------------

    def __len__(self) -> int:
        return self._count

    def __iter__(self) -> Iterator[Request]:
        return self.iter_range(0, self._count)

    def __getitem__(self, index):
        if isinstance(index, slice):
            start, stop, step = index.indices(self._count)
            if step != 1:
                raise TraceFormatError(
                    "binary trace slices must have step 1 (contiguous "
                    "records); materialize via list() for strided access"
                )
            return TraceWindow(self, start, max(start, stop))
        if index < 0:
            index += self._count
        if not 0 <= index < self._count:
            raise TraceIndexError(index)
        return self._decode(index)

    @property
    def duration(self) -> float:
        """Seconds between the first and last request -- O(1)."""
        if self._count < 2:
            return 0.0
        return self[self._count - 1].timestamp - self[0].timestamp

    def clients(self) -> Sequence[int]:
        """Sorted distinct client ids (one scan, cached thereafter)."""
        if self._clients is None:
            distinct = set()
            start = self._records_offset
            stop = start + self._count * TRACE_RECORD_SIZE
            view = memoryview(self._mm)[start:stop]
            try:
                for fields in _TRACE_RECORD.iter_unpack(view):
                    distinct.add(fields[1])
            finally:
                view.release()
            self._clients = sorted(distinct)
        return self._clients

    def head(self, n: int) -> "TraceWindow":
        """O(1) view of the first *n* requests."""
        return self[:n]

    def urls(self) -> Sequence[str]:
        """The deduplicated string table (index = on-disk URL id)."""
        return self._urls

    def materialize(self) -> Trace:
        """Decode the whole trace into an in-memory :class:`Trace`."""
        return Trace(requests=list(self), name=self.name)

    def iter_range(self, start: int, stop: int) -> Iterator[Request]:
        """Yield records ``start <= i < stop`` lazily, advising consumed
        pages away every ``advise_window`` bytes during the scan."""
        start = max(0, start)
        stop = min(self._count, stop)
        if stop <= start:
            return
        mm = self._mm
        urls = self._urls
        base = self._records_offset
        lo = base + start * TRACE_RECORD_SIZE
        hi = base + stop * TRACE_RECORD_SIZE
        window = self._advise_window
        can_advise = window is not None and hasattr(mm, "madvise")
        advised = lo - (lo % mmap.PAGESIZE)
        # iter_unpack needs buffers that are whole multiples of the
        # record size; round the block step down to a record boundary.
        block_bytes = (_WRITE_BUFFER_BYTES // TRACE_RECORD_SIZE) * TRACE_RECORD_SIZE
        new = tuple.__new__  # Request._make without its frame
        pos = lo
        while pos < hi:
            block_end = min(hi, pos + block_bytes)
            view = memoryview(mm)[pos:block_end]
            try:
                for ts, client_id, url_id, size, version in (
                    _TRACE_RECORD.iter_unpack(view)
                ):
                    yield new(
                        Request, (ts, client_id, urls[url_id], size, version)
                    )
            except IndexError:
                raise self._bad_url_id(url_id) from None
            finally:
                view.release()
            pos = block_end
            if can_advise and pos - advised >= window:
                # Page-align downward; pages before `edge` are consumed.
                edge = pos - (pos % mmap.PAGESIZE)
                if edge > advised:
                    mm.madvise(mmap.MADV_DONTNEED, advised, edge - advised)
                    advised = edge

    def _decode(self, index: int) -> Request:
        offset = self._records_offset + index * TRACE_RECORD_SIZE
        ts, client_id, url_id, size, version = _TRACE_RECORD.unpack_from(
            self._mm, offset
        )
        try:
            url = self._urls[url_id]
        except IndexError:
            raise self._bad_url_id(url_id) from None
        return tuple.__new__(Request, (ts, client_id, url, size, version))

    def _bad_url_id(self, url_id: int) -> TraceFormatError:
        return TraceFormatError(
            f"{self._path}: a record's URL id {url_id} is past the "
            f"string table's {len(self._urls)} entries"
        )

    def close(self) -> None:
        """Unmap the file; the reader is unusable afterwards."""
        mm = getattr(self, "_mm", None)
        if mm is not None and not mm.closed:
            mm.close()
        fh = getattr(self, "_fh", None)
        if fh is not None and not fh.closed:
            fh.close()

    def __enter__(self) -> "BinaryTraceReader":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    def __repr__(self) -> str:
        return (
            f"BinaryTraceReader({str(self._path)!r}, name={self.name!r}, "
            f"records={self._count}, urls={len(self._urls)})"
        )


class TraceWindow:
    """O(1) contiguous view into a :class:`BinaryTraceReader`.

    Carries the same read surface as a trace (iteration, length, O(1)
    sub-slicing, ``name``/``duration``/``clients()``/``head``), backed by
    the parent mapping -- no records are decoded until iterated.
    """

    __slots__ = ("_reader", "_start", "_stop", "name")

    def __init__(self, reader: BinaryTraceReader, start: int, stop: int) -> None:
        self._reader = reader
        self._start = start
        self._stop = stop
        self.name = f"{reader.name}[{start}:{stop}]"

    def __len__(self) -> int:
        return self._stop - self._start

    def __iter__(self) -> Iterator[Request]:
        return self._reader.iter_range(self._start, self._stop)

    def __getitem__(self, index):
        n = len(self)
        if isinstance(index, slice):
            start, stop, step = index.indices(n)
            if step != 1:
                raise TraceFormatError(
                    "binary trace slices must have step 1 (contiguous "
                    "records); materialize via list() for strided access"
                )
            return TraceWindow(
                self._reader,
                self._start + start,
                self._start + max(start, stop),
            )
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise TraceIndexError(index)
        return self._reader[self._start + index]

    @property
    def duration(self) -> float:
        if len(self) < 2:
            return 0.0
        return self[len(self) - 1].timestamp - self[0].timestamp

    def clients(self) -> Sequence[int]:
        return sorted({req.client_id for req in self})

    def head(self, n: int) -> "TraceWindow":
        return self[:n]

    def materialize(self) -> Trace:
        return Trace(requests=list(self), name=self.name)
