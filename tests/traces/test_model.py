"""Tests for request/trace containers."""

from __future__ import annotations

import pickle

from repro.traces.model import Request, Trace


class TestRequest:
    def test_server_property(self):
        req = Request(0.0, 1, "http://www.Example.com:8080/a/b", 10)
        assert req.server == "www.example.com:8080"

    def test_immutable(self):
        req = Request(0.0, 1, "http://a.com/x", 10)
        try:
            req.size = 20  # type: ignore[misc]
        except AttributeError:
            pass
        else:  # pragma: no cover
            raise AssertionError("Request should be immutable")

    def test_equal_requests_hash_equal(self):
        a = Request(1.5, 2, "http://a.com/x", 10, version=3)
        b = Request(
            timestamp=1.5, client_id=2, url="http://a.com/x", size=10, version=3
        )
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Request(1.5, 2, "http://a.com/x", 10, version=4)
        # A record is a tuple: it equals the plain tuple of its fields.
        assert a == (1.5, 2, "http://a.com/x", 10, 3)

    def test_version_defaults_to_zero(self):
        assert Request(0.0, 1, "http://a.com/x", 10).version == 0

    def test_pickle_round_trip(self):
        req = Request(1.5, 2, "http://a.com/x", 10, version=3)
        back = pickle.loads(pickle.dumps(req))
        assert back == req
        assert type(back) is Request
        assert back.server == "a.com"


class TestTrace:
    def test_len_iter_getitem(self, tiny_trace):
        assert len(tiny_trace) == 6
        assert list(tiny_trace)[0].url == "http://a.com/1"
        assert tiny_trace[2].url == "http://b.com/2"

    def test_duration(self, tiny_trace):
        assert tiny_trace.duration == 5.0

    def test_duration_of_short_traces(self):
        assert Trace().duration == 0.0
        assert (
            Trace(requests=[Request(9.0, 0, "u", 1)]).duration == 0.0
        )

    def test_clients(self, tiny_trace):
        assert tiny_trace.clients() == [0, 1]

    def test_head(self, tiny_trace):
        head = tiny_trace.head(2)
        assert len(head) == 2
        assert head.name == "tiny[:2]"


class TestCachedAccessors:
    def test_clients_cached_and_stable(self, tiny_trace):
        first = tiny_trace.clients()
        assert first == [0, 1]
        # Regression: clients() scans once and caches; repeated calls
        # must return the identical list object, not a fresh scan.
        assert tiny_trace.clients() is first

    def test_duration_cached(self, tiny_trace):
        assert tiny_trace.duration == 5.0
        # cached_property materializes into the instance dict.
        assert "duration" in tiny_trace.__dict__
        assert tiny_trace.duration == 5.0

    def test_fresh_traces_have_independent_caches(self):
        a = Trace(requests=[Request(0.0, 3, "u", 1)])
        b = Trace(requests=[Request(0.0, 9, "u", 1)])
        assert a.clients() == [3]
        assert b.clients() == [9]
