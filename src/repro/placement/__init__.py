"""Object placement shared by the simulator and the live proxy.

The paper's Fig. 1 frames cooperative caching's upper bound as the
"global cache": all proxies behaving as one logical cache.  This
package holds the placement math both halves of the reproduction
consume:

- :mod:`repro.placement.ring` -- the rendezvous (highest-random-weight)
  hash ring over peer identities.  Scores derive from the interned MD5
  digests of :mod:`repro.core.position_cache`, so the simulator's CARP
  scheme and a live proxy cluster route every URL to the *same* owner
  without ever re-hashing the URL string.
- :mod:`repro.placement.policy` -- the cooperation policy axis
  (``summary`` / ``carp`` / ``single-copy``): who stores a fetched
  document, and whether misses route to a deterministic owner or
  through summary-directed discovery.
- :mod:`repro.placement.live` -- :class:`Placement`, the mutable
  membership wrapper the live proxy holds.  All ring mutation happens
  here (enforced by sc-lint SC004): membership changes rebuild the
  immutable ring and report which locally held keys were displaced so
  the owner can migrate or invalidate them.

:mod:`repro.sharing.carp` routes through :func:`carp_owner`, so
simulator results and placement decisions come from one implementation.
"""

from repro.placement.live import Placement, displaced_keys
from repro.placement.policy import CooperationPolicy
from repro.placement.ring import (
    HashRing,
    carp_owner,
    key_value,
    member_point,
    rendezvous_score,
)

__all__ = [
    "CooperationPolicy",
    "HashRing",
    "Placement",
    "carp_owner",
    "displaced_keys",
    "key_value",
    "member_point",
    "rendezvous_score",
]
