"""Structures that only the tests build."""

import random

from stonelab import FinitePoset, MeetSemilattice, Member, PointedSystem, PointSet, SeparatingFamily
from stonelab.bits import points


def meet_chain(n: int) -> MeetSemilattice:
    """The n-element chain 0 < 1 < ... < n-1, meet the minimum."""
    return MeetSemilattice([[min(i, j) for j in range(n)] for i in range(n)])


def antichain_with_bottom(k: int) -> MeetSemilattice:
    """k pairwise-incomparable elements over a common bottom 0."""
    n = k + 1
    return MeetSemilattice([[i if i == j else 0 for j in range(n)] for i in range(n)])


def intersection_meet_table(rng: random.Random, most: int) -> list[list[int]]:
    """The meet table of the closure under intersection of 1-3 random
    subsets of 4 points; drawn again until it has at most ``most``
    elements."""
    while True:
        sets = {rng.randrange(16) for _ in range(rng.randint(1, 3))}
        while any(a & b not in sets for a in sets for b in sets):
            sets |= {a & b for a in sets for b in sets}
        if len(sets) <= most:
            elems = sorted(sets)
            index = {m: i for i, m in enumerate(elems)}
            return [[index[a & b] for b in elems] for a in elems]


def antichain(n: int) -> FinitePoset:
    """n pairwise-incomparable points."""
    return poset_from_rows(tuple(1 << i for i in range(n)))


def poset_from_rows(up) -> FinitePoset:
    """The poset whose up-set rows are ``up`` (an oracle's output, say),
    built from the p <= q pairs the rows list."""
    return FinitePoset(len(up), [(p, q) for p, row in enumerate(up) for q in points(row)])


def family_from_sets(points: PointSet, sets) -> SeparatingFamily:
    """A family from raw masks or iterables of points, member i labeled
    ``U`` + i."""
    members = []
    for i, s in enumerate(sets):
        if isinstance(s, int):
            mask = s
        else:
            mask = 0
            for p in s:
                mask |= 1 << p
        members.append(Member(f"U{i}", mask))
    return SeparatingFamily(points, tuple(members))


def system_from_sets(size: int, sets) -> PointedSystem:
    """The system over ``size`` unlabeled points whose family is
    ``family_from_sets`` of ``sets``."""
    return PointedSystem(family_from_sets(PointSet(size), sets))


def singleton_system(size: int) -> PointedSystem:
    """The discrete system whose family is all singletons."""
    members = tuple(Member(f"pt{i}", 1 << i) for i in range(size))
    return PointedSystem(SeparatingFamily(PointSet(size), members))
