"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.simulation.engine import Engine


class TestEventOrdering:
    def test_callbacks_run_in_time_order(self):
        engine = Engine()
        order = []
        engine.call_later(2.0, order.append, "late")
        engine.call_later(1.0, order.append, "early")
        engine.call_later(3.0, order.append, "latest")
        engine.run()
        assert order == ["early", "late", "latest"]

    def test_ties_broken_by_scheduling_order(self):
        engine = Engine()
        order = []
        engine.call_later(1.0, order.append, "first")
        engine.call_later(1.0, order.append, "second")
        engine.run()
        assert order == ["first", "second"]

    def test_clock_advances(self):
        engine = Engine()
        times = []
        engine.call_later(5.0, lambda: times.append(engine.now))
        assert engine.run() == 5.0
        assert times == [5.0]

    def test_run_until(self):
        engine = Engine()
        fired = []
        engine.call_later(1.0, fired.append, 1)
        engine.call_later(10.0, fired.append, 10)
        assert engine.run(until=5.0) == 5.0
        assert fired == [1]
        # Remaining events still run on resume.
        engine.run()
        assert fired == [1, 10]

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().call_later(-1, lambda: None)


class TestProcesses:
    def test_yield_number_sleeps(self):
        engine = Engine()
        trace = []

        def process():
            trace.append(engine.now)
            yield 2.5
            trace.append(engine.now)

        engine.spawn(process())
        engine.run()
        assert trace == [0.0, 2.5]

    def test_yield_signal_parks_until_fire(self):
        engine = Engine()
        signal = engine.signal()
        trace = []

        def waiter():
            value = yield signal
            trace.append((engine.now, value))

        engine.spawn(waiter())
        engine.call_later(4.0, signal.fire, "payload")
        engine.run()
        assert trace == [(4.0, "payload")]

    def test_yield_fired_signal_resumes_immediately(self):
        engine = Engine()
        signal = engine.signal()
        signal.fire("early")
        result = []

        def process():
            value = yield signal
            result.append(value)

        engine.spawn(process())
        engine.run()
        assert result == ["early"]

    def test_yield_garbage_raises(self):
        engine = Engine()

        def process():
            yield "not-a-signal"

        engine.spawn(process())
        with pytest.raises(SimulationError):
            engine.run()

    def test_multiple_waiters_all_wake(self):
        engine = Engine()
        signal = engine.signal()
        woken = []

        def make(name):
            def process():
                yield signal
                woken.append(name)

            return process()

        engine.spawn(make("a"))
        engine.spawn(make("b"))
        engine.call_later(1.0, signal.fire)
        engine.run()
        assert sorted(woken) == ["a", "b"]


class TestSignal:
    def test_double_fire_raises(self):
        engine = Engine()
        signal = engine.signal()
        signal.fire()
        with pytest.raises(SimulationError):
            signal.fire()

    def test_value_property(self):
        engine = Engine()
        signal = engine.signal()
        assert not signal.fired
        signal.fire(42)
        assert signal.fired
        assert signal.value == 42


class TestResource:
    def test_fifo_service(self):
        engine = Engine()
        cpu = engine.resource("cpu")
        completions = []

        def job(name, service):
            def process():
                yield cpu.serve(service)
                completions.append((name, engine.now))

            return process()

        engine.spawn(job("a", 2.0))
        engine.spawn(job("b", 1.0))
        engine.run()
        # FIFO: "a" (first spawned) serves first; "b" queues behind it.
        assert completions == [("a", 2.0), ("b", 3.0)]

    def test_busy_time_accumulates(self):
        engine = Engine()
        cpu = engine.resource()

        def process():
            yield cpu.serve(1.5)
            yield cpu.serve(0.5)

        engine.spawn(process())
        engine.run()
        assert cpu.busy_time == pytest.approx(2.0)
        assert cpu.jobs == 2

    def test_idle_resource_starts_immediately(self):
        engine = Engine()
        cpu = engine.resource()
        done_at = []

        def process():
            yield 10.0
            yield cpu.serve(1.0)
            done_at.append(engine.now)

        engine.spawn(process())
        engine.run()
        assert done_at == [11.0]

    def test_negative_service_time_raises(self):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.resource().serve(-0.1)
