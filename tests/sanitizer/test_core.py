"""Unit tests for the interleaving sanitizer core and guards."""

from __future__ import annotations

import asyncio
from typing import Any, List

from repro.placement.live import Placement
from repro.sanitizer.core import Sanitizer, Violation
from repro.sanitizer.guards import GuardedPlacement, GuardedSummaryNode
from repro.summaries.backend import SummaryNode


def _run(coro: Any) -> Any:
    return asyncio.run(coro)


class TestViolationDetection:
    def test_read_foreign_write_write_is_a_violation(self) -> None:
        async def scenario(san: Sanitizer) -> None:
            gate_a = asyncio.Event()
            gate_b = asyncio.Event()

            async def task_a() -> None:
                san.record_read("k", "check")
                gate_b.set()  # let B mutate inside our window
                await gate_a.wait()
                san.record_write("k", "act")

            async def task_b() -> None:
                await gate_b.wait()
                san.record_write("k", "mutate")
                gate_a.set()

            await asyncio.gather(
                asyncio.create_task(task_a(), name="A"),
                asyncio.create_task(task_b(), name="B"),
            )

        san = Sanitizer()
        heard: List[Violation] = []
        san.add_listener(heard.append)
        _run(scenario(san))
        assert len(san.violations) == 1
        violation = san.violations[0]
        assert violation.key == "k"
        assert violation.task == "A"
        assert violation.interleaver == "B"
        assert violation.read_op == "check"
        assert violation.interleaved_op == "mutate"
        assert violation.write_op == "act"
        assert (
            violation.read_seq
            < violation.interleaved_seq
            < violation.write_seq
        )
        assert heard == [violation]
        assert "acting on the stale read" in violation.render()

    def test_fresh_read_after_foreign_write_revalidates(self) -> None:
        async def scenario(san: Sanitizer) -> None:
            gate_a = asyncio.Event()
            gate_b = asyncio.Event()

            async def task_a() -> None:
                san.record_read("k", "check")
                gate_b.set()
                await gate_a.wait()
                san.record_read("k", "recheck")  # re-validate
                san.record_write("k", "act")

            async def task_b() -> None:
                await gate_b.wait()
                san.record_write("k", "mutate")
                gate_a.set()

            await asyncio.gather(
                asyncio.create_task(task_a(), name="A"),
                asyncio.create_task(task_b(), name="B"),
            )

        san = Sanitizer()
        _run(scenario(san))
        assert san.violations == []

    def test_same_task_write_is_not_a_violation(self) -> None:
        async def scenario(san: Sanitizer) -> None:
            san.record_read("k", "check")
            san.record_write("k", "first")
            san.record_read("k", "check")
            san.record_write("k", "second")

        san = Sanitizer()
        _run(scenario(san))
        assert san.violations == []

    def test_begin_request_clears_only_current_task_markers(self) -> None:
        async def scenario(san: Sanitizer) -> None:
            gate_a = asyncio.Event()
            gate_b = asyncio.Event()

            async def task_a() -> None:
                san.record_read("k", "old-request-check")
                gate_b.set()
                await gate_a.wait()
                # New request on the same keep-alive task: the stale
                # marker from the previous request must not pair with
                # the write below.
                san.begin_request("trace-2")
                san.record_write("k", "act")

            async def task_b() -> None:
                await gate_b.wait()
                san.record_write("k", "mutate")
                gate_a.set()

            await asyncio.gather(
                asyncio.create_task(task_a(), name="A"),
                asyncio.create_task(task_b(), name="B"),
            )

        san = Sanitizer()
        _run(scenario(san))
        assert san.violations == []

    def test_trace_ids_attributed_to_both_sides(self) -> None:
        async def scenario(san: Sanitizer) -> None:
            gate_a = asyncio.Event()
            gate_b = asyncio.Event()

            async def task_a() -> None:
                san.begin_request("aaaa1111")
                san.record_read("k", "check")
                gate_b.set()
                await gate_a.wait()
                san.record_write("k", "act")

            async def task_b() -> None:
                san.begin_request("bbbb2222")
                await gate_b.wait()
                san.record_write("k", "mutate")
                gate_a.set()

            await asyncio.gather(
                asyncio.create_task(task_a(), name="A"),
                asyncio.create_task(task_b(), name="B"),
            )

        san = Sanitizer()
        _run(scenario(san))
        (violation,) = san.violations
        assert violation.trace == "aaaa1111"
        assert violation.interleaved_trace == "bbbb2222"

    def test_drain_returns_and_clears(self) -> None:
        san = Sanitizer()

        async def scenario() -> None:
            gate_a = asyncio.Event()
            gate_b = asyncio.Event()

            async def task_a() -> None:
                san.record_read("k", "check")
                gate_b.set()
                await gate_a.wait()
                san.record_write("k", "act")

            async def task_b() -> None:
                await gate_b.wait()
                san.record_write("k", "mutate")
                gate_a.set()

            await asyncio.gather(
                asyncio.create_task(task_a(), name="A"),
                asyncio.create_task(task_b(), name="B"),
            )

        _run(scenario())
        drained = san.drain()
        assert len(drained) == 1
        assert san.drain() == []


class TestPerturbation:
    def test_same_seed_same_yield_schedule(self) -> None:
        async def count_yields(san: Sanitizer, n: int) -> int:
            for _ in range(n):
                await san.perturb()
            return san.yields

        a = _run(count_yields(Sanitizer(seed=7, rate=0.5), 200))
        b = _run(count_yields(Sanitizer(seed=7, rate=0.5), 200))
        assert a == b
        assert 0 < a < 200

    def test_rate_zero_never_yields(self) -> None:
        async def scenario() -> int:
            san = Sanitizer(seed=7, rate=0.0)
            for _ in range(50):
                await san.perturb()
            return san.yields

        assert _run(scenario()) == 0


class TestGuards:
    def test_guarded_placement_records_reads_and_writes(self) -> None:
        async def scenario() -> Sanitizer:
            san = Sanitizer()
            placement = GuardedPlacement(
                Placement("p0", ("p1",)), san, "p0"
            )
            digest = b"\x12" * 16
            gate_a = asyncio.Event()
            gate_b = asyncio.Event()

            async def route() -> None:
                placement.owner(digest)  # recorded read
                gate_b.set()
                await gate_a.wait()
                placement.remove_member("p1")  # acts on the stale route

            async def churn() -> None:
                await gate_b.wait()
                placement.add_member("p2")
                gate_a.set()

            await asyncio.gather(
                asyncio.create_task(route(), name="route"),
                asyncio.create_task(churn(), name="churn"),
            )
            return san

        san = _run(scenario())
        (violation,) = san.violations
        assert violation.key == "p0.placement"
        assert violation.read_op == "owner"
        assert violation.interleaved_op == "add_member"
        assert violation.write_op == "remove_member"

    def test_guarded_placement_passthrough_fields(self) -> None:
        san = Sanitizer()
        inner = Placement("p0", ("p1",))
        guarded = GuardedPlacement(inner, san, "p0")
        assert guarded.self_name == "p0"
        assert guarded.members == inner.members
        assert guarded.version == inner.version

    def test_guarded_summary_node_attribute_passthrough(self) -> None:
        from repro.summaries.backend import SummaryConfig

        san = Sanitizer()
        node = SummaryNode(SummaryConfig(), 1 << 16)
        guarded = GuardedSummaryNode(node, san, "p0")
        assert guarded.local is node.local
        guarded.on_insert("http://a.com/1")
        assert [v.key for v in san.violations] == []
        assert san._last_write["p0.summary"].op == "on_insert"

    def test_guarded_summary_node_records_growth_as_a_write(self) -> None:
        from repro.summaries.backend import SummaryConfig

        san = Sanitizer()
        node = SummaryNode(SummaryConfig(), 16 * 1024)
        guarded = GuardedSummaryNode(node, san, "p0")
        urls = [f"http://a.com/{i}" for i in range(5)]
        for url in urls:
            guarded.on_insert(url)
        before = node.local.num_bits
        assert guarded.grow(urls, 1.0) is True
        assert node.local.num_bits == 2 * before
        assert san._last_write["p0.summary"].op == "grow"
        # Deciding is part of the write: one that does not grow counts too.
        san._last_write.clear()
        assert guarded.grow(urls[:1], 2.0) is False
        assert san._last_write["p0.summary"].op == "grow"
