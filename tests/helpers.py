"""Structures that only the tests build."""

from stonelab import MeetSemilattice


def meet_chain(n: int) -> MeetSemilattice:
    """The n-element chain 0 < 1 < ... < n-1, meet the minimum."""
    return MeetSemilattice([[min(i, j) for j in range(n)] for i in range(n)])
