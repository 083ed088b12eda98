"""Helpers shared by the proxy tests."""

from __future__ import annotations

from typing import Tuple


def copy_holds(seeker, holder: Tuple[str, int], url: str) -> bool:
    """Does *seeker*'s copy of the summary of the peer at ICP address
    *holder* say *url* may be there?  (Asked the way a miss asks.)"""
    return any(
        state.address.icp_addr == holder
        for state in seeker._candidate_peers(url)
    )
