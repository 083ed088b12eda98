"""Discrete-event simulation of proxy clusters (Tables II, IV, V).

The paper measures ICP's overhead on real hardware: 4 Squid proxies on
SPARC-20s, 120 benchmark clients, origin servers that delay replies by
one second, with ``netstat`` counting UDP/TCP traffic and ``time``
counting CPU.  This subpackage rebuilds that testbed as a discrete-event
simulation:

- :mod:`repro.simulation.engine` -- a small process-based DES kernel
  (event heap, generator processes, FIFO resources, signals);
- :mod:`repro.simulation.network` -- message latency/bandwidth and
  netstat-style per-node packet counters;
- :mod:`repro.simulation.costs` -- the CPU cost model (per-request,
  per-ICP-message, per-MD5, per-byte service times);
- :mod:`repro.simulation.nodes` -- client, proxy, and origin processes
  implementing the no-ICP / ICP / SC-ICP protocols;
- :mod:`repro.simulation.experiment` -- harnesses producing the paper's
  table rows;
- :mod:`repro.simulation.parallel` -- fans independent experiment cells
  (trace x scheme x load factor x threshold) across worker processes;
- :mod:`repro.simulation.scale` -- the measured Section V-F run: the
  100-proxy cluster in the DES with a streamed trace feed and the
  summary dissemination policy as an experimental axis.
"""
