"""Positive/negative fixtures for every SC rule.

Each test builds a minimal fake project (see ``conftest.LintProject``)
and asserts the rule fires on the violating idiom and stays silent on
the compliant one, including the scope/exempt boundaries.
"""

from __future__ import annotations

from tests.lint.conftest import LintProject


class TestSC001Blocking:
    def test_time_sleep_in_async_def(self, project: LintProject) -> None:
        project.write(
            "src/repro/proxy/mod.py",
            """\
            import time

            async def handler():
                time.sleep(1)
            """,
        )
        findings = project.lint(select="SC001")
        assert len(findings) == 1
        assert findings[0].rule == "SC001"
        assert "time.sleep" in findings[0].message
        assert findings[0].line == 4

    def test_from_import_alias_resolves(self, project: LintProject) -> None:
        project.write(
            "src/repro/proxy/mod.py",
            """\
            from time import sleep as snooze

            async def handler():
                snooze(1)
            """,
        )
        assert project.rule_counts(select="SC001") == {"SC001": 1}

    def test_module_prefix_call(self, project: LintProject) -> None:
        project.write(
            "src/repro/proxy/mod.py",
            """\
            import socket

            async def handler():
                socket.socket()
            """,
        )
        assert project.rule_counts(select="SC001") == {"SC001": 1}

    def test_bare_open_in_async(self, project: LintProject) -> None:
        project.write(
            "src/repro/proxy/mod.py",
            """\
            async def handler(path):
                with open(path) as fh:
                    return fh.read()
            """,
        )
        assert project.rule_counts(select="SC001") == {"SC001": 1}

    def test_sync_def_is_fine(self, project: LintProject) -> None:
        project.write(
            "src/repro/proxy/mod.py",
            """\
            import time

            def setup():
                time.sleep(1)
            """,
        )
        assert project.lint(select="SC001") == []

    def test_nested_sync_def_inherits_async_scope(
        self, project: LintProject
    ) -> None:
        # A helper defined inside a coroutine runs on the event loop
        # whenever the coroutine (or anything it hands the helper to)
        # calls it -- the blocking call is still a loop stall.
        project.write(
            "src/repro/proxy/mod.py",
            """\
            import time

            async def handler():
                def sync_helper():
                    time.sleep(1)
                return sync_helper
            """,
        )
        assert project.rule_counts(select="SC001") == {"SC001": 1}

    def test_await_asyncio_sleep_is_fine(self, project: LintProject) -> None:
        project.write(
            "src/repro/proxy/mod.py",
            """\
            import asyncio

            async def handler():
                await asyncio.sleep(1)
            """,
        )
        assert project.lint(select="SC001") == []

    def test_outside_proxy_scope_not_checked(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/simulation/mod.py",
            """\
            import time

            async def handler():
                time.sleep(1)
            """,
        )
        assert project.lint(select="SC001") == []

    def test_wait_for_in_async_def_flagged(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/proxy/mod.py",
            """\
            from asyncio import wait_for

            async def handler(reader):
                return await wait_for(reader.read(4096), timeout=5.0)
            """,
        )
        findings = project.lint(select="SC001")
        assert len(findings) == 1
        assert "wait_for" in findings[0].message
        assert "Deadline" in findings[0].message

    def test_deadline_stamp_and_sync_wait_for_not_flagged(
        self, project: LintProject
    ) -> None:
        # The shared deadline is two attribute stores per request; a
        # module-level sync def that merely builds a wait_for coroutine
        # is outside async scope.
        project.write(
            "src/repro/proxy/mod.py",
            """\
            import asyncio

            from repro.proxy.http import Deadline

            async def handler(reader):
                deadline = Deadline(5.0)
                deadline.since = asyncio.get_running_loop().time()
                try:
                    return await reader.read(4096)
                finally:
                    deadline.since = None
                    deadline.cancel()

            def bounded(awaitable):
                return asyncio.wait_for(awaitable, timeout=5.0)
            """,
        )
        assert project.lint(select="SC001") == []


class TestSC002Wire:
    def test_host_order_format_flagged(self, project: LintProject) -> None:
        project.write(
            "src/repro/protocol/mod.py",
            """\
            import struct

            def encode(value):
                return struct.pack("<I", value)
            """,
        )
        findings = project.lint(select="SC002")
        assert len(findings) == 1
        assert "network byte order" in findings[0].message

    def test_non_literal_format_flagged(self, project: LintProject) -> None:
        project.write(
            "src/repro/protocol/mod.py",
            """\
            import struct

            def encode(fmt, value):
                return struct.pack(fmt, value)
            """,
        )
        findings = project.lint(select="SC002")
        assert len(findings) == 1
        assert "statically verifiable" in findings[0].message

    def test_counted_fstring_format(self, project: LintProject) -> None:
        # A computed repeat count after a literal "!" keeps the byte
        # order static; a computed lead does not.
        project.write(
            "src/repro/protocol/mod.py",
            """\
            import struct

            def encode(values):
                return struct.pack(f"!{len(values)}I", *values)

            def decode(data, count):
                return struct.unpack(f"<{count}I", data)

            def anything(fmt, data):
                return struct.unpack(f"{fmt}I", data)
            """,
        )
        findings = project.lint(select="SC002")
        assert [f.line for f in findings] == [7, 10]
        assert "network byte order" in findings[0].message
        assert "statically verifiable" in findings[1].message

    def test_size_constant_mismatch(self, project: LintProject) -> None:
        project.write(
            "src/repro/protocol/mod.py",
            """\
            import struct

            FOO_HEADER_SIZE = 9
            _FOO_HEADER = struct.Struct("!II")
            """,
        )
        findings = project.lint(select="SC002")
        assert len(findings) == 1
        assert "packs 8 bytes" in findings[0].message
        assert "FOO_HEADER_SIZE declares 9" in findings[0].message

    def test_annotated_size_constant_still_seen(
        self, project: LintProject
    ) -> None:
        # Regression: a type annotation must not hide the constant.
        project.write(
            "src/repro/protocol/mod.py",
            """\
            import struct

            FOO_HEADER_SIZE: int = 9
            _FOO_HEADER = struct.Struct("!II")
            """,
        )
        assert project.rule_counts(select="SC002") == {"SC002": 1}

    def test_header_alias_maps_to_icp_header_size(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/protocol/mod.py",
            """\
            import struct

            ICP_HEADER_SIZE = 4
            _HEADER = struct.Struct("!II")
            """,
        )
        findings = project.lint(select="SC002")
        assert len(findings) == 1
        assert "ICP_HEADER_SIZE declares 4" in findings[0].message

    def test_matching_format_and_size_clean(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/protocol/mod.py",
            """\
            import struct

            FOO_HEADER_SIZE = 8
            _FOO_HEADER = struct.Struct("!II")

            def encode(a, b):
                return struct.pack("!II", a, b)
            """,
        )
        assert project.lint(select="SC002") == []

    def test_trace_record_layout_clean(self, project: LintProject) -> None:
        # The binary trace module's exact shape: header, record, and
        # string-table entry formats with their *_SIZE constants.
        project.write(
            "src/repro/traces/mod.py",
            """\
            import struct

            TRACE_HEADER_SIZE = 40
            _TRACE_HEADER = struct.Struct("!4sHHQQQQ")

            TRACE_RECORD_SIZE = 24
            _TRACE_RECORD = struct.Struct("!dIIII")

            STRING_ENTRY_SIZE = 2
            _STRING_ENTRY = struct.Struct("!H")
            """,
        )
        assert project.lint(select="SC002") == []

    def test_trace_record_size_drift_flagged(
        self, project: LintProject
    ) -> None:
        # Regression guard for the failure SC002 exists to catch: a
        # record format grows a field but the size constant is stale.
        project.write(
            "src/repro/traces/mod.py",
            """\
            import struct

            TRACE_RECORD_SIZE = 24
            _TRACE_RECORD = struct.Struct("!dIIIII")
            """,
        )
        findings = project.lint(select="SC002")
        assert len(findings) == 1
        assert "packs 28 bytes" in findings[0].message
        assert "TRACE_RECORD_SIZE declares 24" in findings[0].message

    def test_host_order_trace_record_flagged(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/traces/mod.py",
            """\
            import struct

            TRACE_RECORD_SIZE = 24
            _TRACE_RECORD = struct.Struct("=dIIII")
            """,
        )
        findings = project.lint(select="SC002")
        assert len(findings) == 1
        assert "network byte order" in findings[0].message


class TestSC003Metrics:
    def test_non_snake_case_name(self, project: LintProject) -> None:
        project.write(
            "src/repro/obs/mod.py",
            """\
            def setup(registry):
                registry.counter("Bad-Name")
            """,
        )
        findings = project.lint(select="SC003")
        assert len(findings) == 1
        assert "not snake_case" in findings[0].message

    def test_counter_without_total_suffix(self, project: LintProject) -> None:
        project.write(
            "src/repro/obs/mod.py",
            """\
            def setup(registry):
                registry.counter("requests")
            """,
        )
        findings = project.lint(select="SC003")
        assert len(findings) == 1
        assert "_total" in findings[0].message

    def test_gauge_with_total_suffix(self, project: LintProject) -> None:
        project.write(
            "src/repro/obs/mod.py",
            """\
            def setup(registry):
                registry.gauge("entries_total")
            """,
        )
        findings = project.lint(select="SC003")
        assert len(findings) == 1
        assert "must not end in '_total'" in findings[0].message

    def test_histogram_without_unit_suffix(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/obs/mod.py",
            """\
            def setup(registry):
                registry.histogram("latency")
            """,
        )
        findings = project.lint(select="SC003")
        assert len(findings) == 1
        assert "base-unit suffix" in findings[0].message

    def test_bound_method_alias_recognised(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/obs/mod.py",
            """\
            def setup(registry):
                c = registry.counter
                c("requests")
            """,
        )
        assert project.rule_counts(select="SC003") == {"SC003": 1}

    def test_kind_conflict_across_files(self, project: LintProject) -> None:
        project.write(
            "src/repro/obs/a.py",
            """\
            def setup(registry):
                registry.gauge("queue_depth")
            """,
        )
        project.write(
            "src/repro/obs/b.py",
            """\
            def setup(registry):
                registry.histogram("queue_depth")
            """,
        )
        findings = project.lint(select="SC003")
        conflict = [f for f in findings if "registered as" in f.message]
        assert len(conflict) == 1

    def test_doc_catalogue_two_way_check(self, project: LintProject) -> None:
        project.write(
            "src/repro/obs/mod.py",
            """\
            def setup(registry):
                registry.counter("hits_total")
                registry.gauge("entries")
            """,
        )
        project.write(
            "docs/observability.md",
            """\
            | name | kind | help |
            | --- | --- | --- |
            | `hits_total` | counter | cache hits |
            | `misses_total` | counter | cache misses |
            """,
        )
        findings = project.lint(select="SC003")
        messages = sorted(f.message for f in findings)
        assert len(findings) == 2
        assert any(
            "'entries' is not documented" in m for m in messages
        )
        assert any(
            "'misses_total' is not registered" in m for m in messages
        )

    def test_doc_kind_mismatch(self, project: LintProject) -> None:
        project.write(
            "src/repro/obs/mod.py",
            """\
            def setup(registry):
                registry.gauge("queue_depth")
            """,
        )
        project.write(
            "docs/observability.md",
            """\
            | `queue_depth` | histogram | queued work |
            """,
        )
        findings = project.lint(select="SC003")
        assert len(findings) == 1
        assert "documented as histogram" in findings[0].message

    def test_consistent_code_and_doc_clean(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/obs/mod.py",
            """\
            def setup(registry):
                registry.counter("hits_total")
                registry.histogram("latency_seconds")
            """,
        )
        project.write(
            "docs/observability.md",
            """\
            | `hits_total` | counter | cache hits |
            | `latency_seconds` | histogram | request latency |
            """,
        )
        assert project.lint(select="SC003") == []

    def test_no_docs_dir_skips_doc_check(self, project: LintProject) -> None:
        project.write(
            "src/repro/obs/mod.py",
            """\
            def setup(registry):
                registry.counter("hits_total")
            """,
        )
        assert project.lint(select="SC003") == []


class TestSC004Encapsulation:
    def test_direct_bit_mutation_outside_core(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/sharing/mod.py",
            """\
            def poke(remote):
                remote.bits.set(1)
            """,
        )
        findings = project.lint(select="SC004")
        assert len(findings) == 1
        assert "remote.bits.set(...)" in findings[0].message

    def test_private_storage_access(self, project: LintProject) -> None:
        project.write(
            "src/repro/sharing/mod.py",
            """\
            def peek(array):
                return array._buf[0]
            """,
        )
        findings = project.lint(select="SC004")
        assert len(findings) == 1
        assert "._buf" in findings[0].message

    def test_self_private_access_allowed(self, project: LintProject) -> None:
        project.write(
            "src/repro/sharing/mod.py",
            """\
            class Wrapper:
                def peek(self):
                    return self._buf[0]
            """,
        )
        assert project.lint(select="SC004") == []

    def test_core_and_summaries_exempt(self, project: LintProject) -> None:
        source = """\
        def poke(remote):
            remote.bits.set(1)
        """
        project.write("src/repro/core/mod.py", source)
        project.write("src/repro/summaries/mod.py", source)
        assert project.lint(select="SC004") == []

    def test_non_storage_receiver_ignored(self, project: LintProject) -> None:
        project.write(
            "src/repro/sharing/mod.py",
            """\
            def ok(flags):
                flags.set(1)
                seen = set()
                seen.add(2)
            """,
        )
        assert project.lint(select="SC004") == []

    def test_placement_internals_outside_placement(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/proxy/mod.py",
            """\
            def hijack(placement, member):
                placement._ring = placement._ring.with_member(member)
            """,
        )
        findings = project.lint(select="SC004")
        assert len(findings) == 2
        assert all("._ring" in f.message for f in findings)
        assert all("repro.placement" in f.message for f in findings)

    def test_ring_points_outside_placement(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/sharing/mod.py",
            """\
            def peek(ring, name):
                return ring._points[name]
            """,
        )
        assert project.rule_counts(select="SC004") == {"SC004": 1}

    def test_placement_package_reaches_in_only_through_self(
        self, project: LintProject
    ) -> None:
        # No placement code touches another object's internals, so the
        # package gets no carve-out beyond the self access below.
        project.write(
            "src/repro/placement/mod.py",
            """\
            def swap(placement, ring):
                placement._ring = ring
                return placement._self_name
            """,
        )
        assert project.rule_counts(select="SC004") == {"SC004": 2}

    def test_placement_self_access_allowed(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/proxy/mod.py",
            """\
            class Holder:
                def view(self):
                    return self._ring.members
            """,
        )
        assert project.lint(select="SC004") == []


class TestSC005Exceptions:
    def test_builtin_raise_flagged(self, project: LintProject) -> None:
        project.write(
            "src/repro/core/mod.py",
            """\
            def check(x):
                if x < 0:
                    raise ValueError("negative")
            """,
        )
        findings = project.lint(select="SC005")
        assert len(findings) == 1
        assert "builtin ValueError" in findings[0].message

    def test_bare_except_flagged(self, project: LintProject) -> None:
        project.write(
            "src/repro/core/mod.py",
            """\
            def swallow(fn):
                try:
                    fn()
                except:
                    pass
            """,
        )
        findings = project.lint(select="SC005")
        assert len(findings) == 1
        assert "bare 'except:'" in findings[0].message

    def test_domain_raise_and_reraise_clean(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/core/mod.py",
            """\
            from repro.errors import ConfigurationError

            def check(x):
                if x < 0:
                    raise ConfigurationError("negative")
                try:
                    return 1 / x
                except ZeroDivisionError:
                    raise
            """,
        )
        assert project.lint(select="SC005") == []

    def test_not_implemented_error_allowed(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/core/mod.py",
            """\
            def todo():
                raise NotImplementedError
            """,
        )
        assert project.lint(select="SC005") == []


_WIRE = """\
REPR_BLOOM = 0
REPR_EXACT = 1
"""

_CODEC_OK = """\
KIND_TO_REPRESENTATION = {
    "bloom": REPR_BLOOM,
    "exact": REPR_EXACT,
}
"""

_DOC_OK = """\
| id | constant | payload |
| --- | --- | --- |
| 0 | `REPR_BLOOM` | bit flips |
| 1 | `REPR_EXACT` | URL records |
"""


class TestSC006CodecSync:
    def test_consistent_trio_clean(self, project: LintProject) -> None:
        project.write("src/repro/protocol/wire.py", _WIRE)
        project.write("src/repro/summaries/codec.py", _CODEC_OK)
        project.write("docs/wire-protocol.md", _DOC_OK)
        assert project.lint(select="SC006") == []

    def test_annotated_mapping_still_found(
        self, project: LintProject
    ) -> None:
        # Regression: KIND_TO_REPRESENTATION carries a type annotation in
        # the real codec; the rule must still find the AnnAssign literal.
        project.write("src/repro/protocol/wire.py", _WIRE)
        project.write(
            "src/repro/summaries/codec.py",
            """\
            from typing import Dict

            KIND_TO_REPRESENTATION: Dict[str, int] = {
                "bloom": REPR_BLOOM,
                "exact": REPR_EXACT,
            }
            """,
        )
        project.write("docs/wire-protocol.md", _DOC_OK)
        assert project.lint(select="SC006") == []

    def test_missing_mapping_flagged(self, project: LintProject) -> None:
        project.write("src/repro/protocol/wire.py", _WIRE)
        project.write(
            "src/repro/summaries/codec.py", "OTHER = {}\n"
        )
        findings = project.lint(select="SC006")
        assert len(findings) == 1
        assert "no KIND_TO_REPRESENTATION" in findings[0].message

    def test_kind_maps_to_undefined_constant(
        self, project: LintProject
    ) -> None:
        project.write("src/repro/protocol/wire.py", _WIRE)
        project.write(
            "src/repro/summaries/codec.py",
            """\
            KIND_TO_REPRESENTATION = {
                "bloom": REPR_BLOOM,
                "exact": REPR_EXACT,
                "delta": REPR_DELTA,
            }
            """,
        )
        project.write("docs/wire-protocol.md", _DOC_OK)
        findings = project.lint(select="SC006")
        assert len(findings) == 1
        assert "REPR_DELTA" in findings[0].message
        assert "does not define" in findings[0].message

    def test_wire_constant_without_mapping_entry(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/protocol/wire.py",
            _WIRE + "REPR_SERVER_NAME = 2\n",
        )
        project.write("src/repro/summaries/codec.py", _CODEC_OK)
        project.write(
            "docs/wire-protocol.md",
            _DOC_OK + "| 2 | `REPR_SERVER_NAME` | server names |\n",
        )
        findings = project.lint(select="SC006")
        assert len(findings) == 1
        assert "REPR_SERVER_NAME" in findings[0].message
        assert "no KIND_TO_REPRESENTATION entry" in findings[0].message

    def test_doc_id_mismatch(self, project: LintProject) -> None:
        project.write("src/repro/protocol/wire.py", _WIRE)
        project.write("src/repro/summaries/codec.py", _CODEC_OK)
        project.write(
            "docs/wire-protocol.md",
            """\
            | 0 | `REPR_BLOOM` | bit flips |
            | 7 | `REPR_EXACT` | URL records |
            """,
        )
        findings = project.lint(select="SC006")
        assert len(findings) == 1
        assert "documented as id 7" in findings[0].message
        assert findings[0].path == "docs/wire-protocol.md"

    def test_doc_missing_constant(self, project: LintProject) -> None:
        project.write("src/repro/protocol/wire.py", _WIRE)
        project.write("src/repro/summaries/codec.py", _CODEC_OK)
        project.write(
            "docs/wire-protocol.md",
            "| 0 | `REPR_BLOOM` | bit flips |\n",
        )
        findings = project.lint(select="SC006")
        assert len(findings) == 1
        assert "REPR_EXACT" in findings[0].message
        assert "missing" in findings[0].message

    def test_doc_documents_undefined_constant(
        self, project: LintProject
    ) -> None:
        project.write("src/repro/protocol/wire.py", _WIRE)
        project.write("src/repro/summaries/codec.py", _CODEC_OK)
        project.write(
            "docs/wire-protocol.md",
            _DOC_OK + "| 9 | `REPR_GHOST` | never existed |\n",
        )
        findings = project.lint(select="SC006")
        assert len(findings) == 1
        assert "REPR_GHOST" in findings[0].message
        assert "not defined" in findings[0].message

    def test_doc_without_table_flagged(self, project: LintProject) -> None:
        project.write("src/repro/protocol/wire.py", _WIRE)
        project.write("src/repro/summaries/codec.py", _CODEC_OK)
        project.write(
            "docs/wire-protocol.md", "Prose only, no table here.\n"
        )
        findings = project.lint(select="SC006")
        assert len(findings) == 2
        assert all("missing" in f.message for f in findings)


class TestSC001NestedScopes:
    def test_blocking_call_in_lambda_inside_async(
        self, project: LintProject
    ) -> None:
        # A sort key runs on the loop when the coroutine calls sorted().
        project.write(
            "src/repro/proxy/mod.py",
            """\
            import time

            async def handler(urls):
                return sorted(urls, key=lambda u: time.sleep(1))
            """,
        )
        assert project.rule_counts(select="SC001") == {"SC001": 1}

    def test_blocking_call_in_nested_sync_def_inside_async(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/proxy/mod.py",
            """\
            import time

            async def handler():
                def helper():
                    time.sleep(1)
                helper()
            """,
        )
        assert project.rule_counts(select="SC001") == {"SC001": 1}

    def test_blocking_call_in_comprehension_inside_async(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/proxy/mod.py",
            """\
            import socket

            async def handler(hosts):
                return [socket.gethostbyname(h) for h in hosts]
            """,
        )
        assert project.rule_counts(select="SC001") == {"SC001": 1}

    def test_module_level_sync_def_stays_exempt(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/proxy/mod.py",
            """\
            import time

            def sync_helper():
                time.sleep(1)
            """,
        )
        assert project.rule_counts(select="SC001") == {}


class TestSC007Races:
    def test_read_await_write_window_flagged(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/proxy/server.py",
            """\
            import asyncio

            class Proxy:
                async def handler(self):
                    n = len(self._cache)
                    await asyncio.sleep(0)
                    self._cache = {}
            """,
        )
        findings = project.lint(select="SC007")
        assert len(findings) == 1
        assert "_cache" in findings[0].message
        assert "stale" in findings[0].message

    def test_write_hidden_behind_helper_is_seen(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/proxy/server.py",
            """\
            import asyncio

            class Proxy:
                def _clear(self):
                    self._cache = {}

                async def handler(self):
                    n = len(self._cache)
                    await asyncio.sleep(0)
                    self._clear()
            """,
        )
        assert project.rule_counts(select="SC007") == {"SC007": 1}

    def test_fresh_read_after_await_revalidates(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/proxy/server.py",
            """\
            import asyncio

            class Proxy:
                async def handler(self):
                    n = len(self._cache)
                    await asyncio.sleep(0)
                    if self._cache:
                        self._cache = {}
            """,
        )
        assert project.rule_counts(select="SC007") == {}

    def test_lock_section_does_not_hide_a_window(
        self, project: LintProject
    ) -> None:
        # No src/ code holds an asyncio lock, so the rule knows no lock
        # escape: a read..await..write window inside one is a finding.
        project.write(
            "src/repro/proxy/server.py",
            """\
            import asyncio

            class Proxy:
                async def handler(self):
                    async with self._lock:
                        n = len(self._cache)
                        await asyncio.sleep(0)
                        self._cache = {}
            """,
        )
        assert project.rule_counts(select="SC007") == {"SC007": 1}

    def test_no_await_between_read_and_write_is_atomic(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/proxy/server.py",
            """\
            class Proxy:
                async def handler(self):
                    n = len(self._cache)
                    self._cache = {}
            """,
        )
        assert project.rule_counts(select="SC007") == {}


class TestSC008Lifecycle:
    def test_span_leaks_across_await(self, project: LintProject) -> None:
        project.write(
            "src/repro/proxy/mod.py",
            """\
            async def handler(self, url):
                span = self.spans.start_span("fetch")
                body = await self._fetch(url)
                span.end("ok")
                return body
            """,
        )
        findings = project.lint(select="SC008")
        assert len(findings) == 1
        assert "the span can leak" in findings[0].message
        assert "cancellation" in findings[0].message

    def test_record_alone_is_safe_and_start_span_still_fires(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/proxy/mod.py",
            """\
            async def handler(self, url):
                self.spans.record("lookup", 0, 0, 0.0, 0.0, ("url", url))
                span = self.spans.start_span("fetch")
                body = await self._fetch(url)
                span.end("ok")
                return body

            async def finished(self, url):
                self.spans.record("fetch", 0, 0, 0.0, 0.0, ("url", url))
                return await self._fetch(url)
            """,
        )
        findings = project.lint(select="SC008")
        assert len(findings) == 1
        assert "the span can leak" in findings[0].message
        assert "ring.record(...)" in findings[0].message

    def test_span_in_with_statement_is_safe(
        self, project: LintProject
    ) -> None:
        project.write(
            "src/repro/proxy/mod.py",
            """\
            async def handler(self, url):
                with self.spans.start_span("fetch") as span:
                    body = await self._fetch(url)
                    span.end("ok")
                return body
            """,
        )
        assert project.rule_counts(select="SC008") == {}

    def test_span_ended_in_finally_is_still_flagged(
        self, project: LintProject
    ) -> None:
        # The with statement is the one accepted shape: no src/ code
        # ends a started span by hand, so no other shape is learned.
        project.write(
            "src/repro/proxy/mod.py",
            """\
            async def handler(self, url):
                span = self.spans.start_span("fetch")
                try:
                    return await self._fetch(url)
                finally:
                    span.end("ok")
            """,
        )
        assert project.rule_counts(select="SC008") == {"SC008": 1}

