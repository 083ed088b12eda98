"""Cache-consistency substrate.

The paper sidesteps consistency: "we assume that cache consistency
mechanism is perfect.  In practice, there are a variety of protocols
for Web cache consistency" (Section II, citing TTL- and
invalidation-based schemes).  This subpackage implements those
protocols so the perfect-consistency assumption can be quantified:

- :class:`~repro.consistency.policies.OracleConsistency` -- the paper's
  model: a version change is detected for free (0 validations, 0 stale
  documents served);
- :class:`~repro.consistency.policies.NeverValidate` -- serve whatever
  is cached (maximum staleness, zero validation traffic);
- :class:`~repro.consistency.policies.PollEveryTime` -- revalidate on
  every hit (zero staleness, maximum validation traffic);
- :class:`~repro.consistency.policies.FixedTTL` -- a copy is trusted
  for a fixed lifetime;
- :class:`~repro.consistency.policies.AdaptiveTTL` -- the Alex-protocol
  heuristic: trust a copy for a fraction of its age at fetch time.

:func:`~repro.consistency.simulate.simulate_consistency` runs a trace
through one cache under a policy and reports the trade-off the
protocols navigate: validation messages per request vs stale documents
served.
"""

from repro.consistency.policies import (
    AdaptiveTTL,
    FixedTTL,
    NeverValidate,
    OracleConsistency,
    PollEveryTime,
)
from repro.consistency.simulate import simulate_consistency

__all__ = [
    "AdaptiveTTL",
    "FixedTTL",
    "NeverValidate",
    "OracleConsistency",
    "PollEveryTime",
    "simulate_consistency",
]
