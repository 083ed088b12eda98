"""An asyncio prototype of the summary-cache enhanced proxy (Section VI-B).

The prototype runs real sockets on localhost:

- :mod:`repro.proxy.origin` -- an origin HTTP server with configurable
  reply delay (the paper's benchmark servers "wait for one second before
  sending the reply to simulate the network latency");
- :mod:`repro.proxy.server` -- the proxy itself: a TCP HTTP front end, a
  UDP ICP endpoint, a local cache with a counting Bloom filter summary,
  and three cooperation modes (``no-icp``, ``icp``, ``sc-icp``);
- :mod:`repro.proxy.client` -- a trace-replaying client driver with a
  persistent keep-alive connection per driver;
- :mod:`repro.proxy.pool` -- health-checked connection pooling, and
  the one request/response exchange that the proxy's origin and peer
  fetches and the client driver share;
- :mod:`repro.proxy.cluster` -- one-call construction of an
  origin + N proxies + clients experiment, used by the prototype
  benchmarks (Tables II, IV, V analogues) and the examples.

The HTTP spoken is a keep-alive streaming subset of HTTP/1.1 (GET
only, ``Content-Length``-framed, pipelined requests answered in
order, memoryview body streaming with write backpressure) -- enough to
push the data plane to benchmark scale without reimplementing an RFC
7230 stack.  Proxies and the origin serve it through one
:class:`~repro.proxy.http.HttpConnection` per accepted socket, which
reads heads in place and answers a local hit inside its read callback;
every client side (the driver, and a proxy's fetches from peers and the
origin) reads responses through its twin,
:class:`~repro.proxy.http.HttpClient`.  See :mod:`repro.proxy.http` and
``docs/wire-protocol.md``.
"""

from repro.proxy.client import ClientDriver
from repro.proxy.cluster import ProxyCluster
from repro.proxy.config import ProxyConfig, ProxyMode

__all__ = ["ClientDriver", "ProxyCluster", "ProxyConfig", "ProxyMode"]
