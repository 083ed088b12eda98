"""Trace-driven cache-sharing simulators.

This subpackage reproduces the paper's simulation studies:

- :mod:`repro.sharing.schemes` -- the four cooperation schemes of
  Section III (no sharing, simple sharing, single-copy sharing, global
  cache) behind Fig. 1;
- :mod:`repro.sharing.summary_sharing` -- the summary cache simulator of
  Section V, parameterized by update policy and summary representation
  (Figs. 2, 5, 6, 7, 8; Table III), plus the ICP message baseline;
- :mod:`repro.sharing.hierarchy` -- the Section VIII parent/child
  hierarchy;
- :mod:`repro.sharing.carp` and :mod:`repro.sharing.directory_server`
  -- the CARP and central-directory baselines of the related work;
- :mod:`repro.sharing.engine` -- the one replay loop all of the above
  are settings of;
- :mod:`repro.sharing.messages` -- the paper's message-size accounting
  (Section V-D);
- :mod:`repro.sharing.results` -- result records shared by all
  simulators.
"""

from repro.sharing.carp import simulate_carp
from repro.sharing.schemes import (
    simulate_global_cache,
    simulate_no_sharing,
    simulate_simple_sharing,
    simulate_single_copy_sharing,
)
from repro.sharing.summary_sharing import (
    SummarySharingConfig,
    simulate_icp,
    simulate_summary_sharing,
)

__all__ = [
    "SummarySharingConfig",
    "simulate_carp",
    "simulate_global_cache",
    "simulate_icp",
    "simulate_no_sharing",
    "simulate_simple_sharing",
    "simulate_single_copy_sharing",
    "simulate_summary_sharing",
]
