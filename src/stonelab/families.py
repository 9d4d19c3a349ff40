"""Order analytics for labeled families of subsets over a finite point set.

The point order ord(x, F) counts the members containing x; a family is
T0-separating when every pair of distinct points is split by some member.
Over the atoms of a finite Boolean algebra the latter is equivalent to the
family generating the whole algebra.  A pointed system is a family with an
optional base point, the form the combinators take and return.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional

from .bits import set_label, supersets, transpose, unseparated_pair, upper_covers
from .errors import LintWarning, ValidationError


@dataclass(frozen=True)
class PointSet:
    size: int
    labels: Optional[tuple[str, ...]] = None

    def __post_init__(self):
        if self.size < 1:
            raise ValidationError("point set must have size >= 1")
        if self.labels is not None and len(self.labels) != self.size:
            raise ValidationError("labels length must equal size")

    def label(self, point: int) -> str:
        if self.labels is not None:
            return self.labels[point]
        return str(point)


@dataclass(frozen=True)
class Member:
    """One labeled member of a family; ``bits`` is a subset of the points."""

    label: str
    bits: int


@dataclass(frozen=True)
class SeparatingFamily:
    """Ordered, labeled list of subsets of a point set.

    Duplicate member sets are allowed (combinator outputs may collide) and
    count multiply toward point orders; a LintWarning flags them.
    """

    points: PointSet
    members: tuple[Member, ...]

    def __post_init__(self):
        full = (1 << self.points.size) - 1
        seen: dict[int, str] = {}
        dups = []
        for m in self.members:
            if not 0 <= m.bits <= full:
                raise ValidationError(f"member {m.label!r} is not a subset of the points")
            if m.bits in seen:
                dups.append((seen[m.bits], m.label))
            else:
                seen[m.bits] = m.label
        if dups:
            warnings.warn(
                f"family has {len(dups)} duplicate member set(s), e.g. "
                f"{dups[0][0]!r} == {dups[0][1]!r}; duplicates count multiply toward ord",
                LintWarning,
                stacklevel=3,
            )

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def signatures(self) -> tuple[int, ...]:
        """Per-point membership pattern, one bit per member; computed once."""
        return tuple(transpose([m.bits for m in self.members], self.points.size))


@dataclass(frozen=True)
class PointedSystem:
    """A family, which holds its point set, and an optional base point:
    the new point of a one-point sum, carried through products and
    duplications."""

    family: SeparatingFamily
    base_point: Optional[int] = None

    def __post_init__(self):
        if self.base_point is not None and not 0 <= self.base_point < self.size:
            raise ValidationError("base point out of range")

    @property
    def points(self) -> PointSet:
        return self.family.points

    @property
    def size(self) -> int:
        return self.family.points.size


@dataclass(frozen=True)
class SetSpace:
    """A dual point set, such as FS(P), Fil(M) or a path space: sorted
    masks over a base of ``width`` elements, one per point.  Its canonical
    family is a_e = {u : e in u}, one member per base element.  Each view
    is computed once, on first use.
    """

    width: int
    sets: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.sets)

    @cached_property
    def labels(self) -> tuple[str, ...]:
        """``{0,2,5}``-style text of each point's set."""
        return tuple(map(set_label, self.sets))

    @cached_property
    def points(self) -> PointSet:
        """The points, unlabeled: no report prints a set space's point
        labels, and ``labels`` holds their text."""
        return PointSet(self.size)

    @cached_property
    def generators(self) -> tuple[int, ...]:
        """a_e for each base element e: the mask of the points holding e."""
        return tuple(transpose(self.sets, self.width))

    @cached_property
    def up(self) -> tuple[int, ...]:
        """Per point i, the mask of the points whose set contains ``sets[i]``."""
        return tuple(supersets(self.sets))

    @cached_property
    def covers(self) -> tuple[int, ...]:
        """Per point i, the mask of the points covering it under inclusion,
        as ``bits.upper_covers`` finds them."""
        return tuple(upper_covers(self.sets))

    def family(self, prefix: str) -> SeparatingFamily:
        """The canonical family {a_e}, member e labeled ``prefix`` + e.

        It is T0-separating: two sets that differ at e are split by a_e.
        Over FS(P) and Fil(M), p <= q holds exactly when a_p is a subset
        of a_q.
        """
        members = tuple(Member(f"{prefix}{e}", mask) for e, mask in enumerate(self.generators))
        return SeparatingFamily(self.points, members)


@dataclass(frozen=True)
class OrderProfile:
    per_point: tuple[int, ...]
    max_order: int
    argmax_points: tuple[int, ...]


class T0Result(NamedTuple):
    separating: bool
    witness: Optional[tuple[int, int]]  # one unseparated pair on failure


# The warning of a selection whose generators leave two atoms unseparated.
NOT_GENERATING = "generator set does not generate the whole algebra; selection value computed anyway"


def family_from_sets(points: PointSet, sets) -> SeparatingFamily:
    """Build a family from raw masks or iterables of points, member i
    labeled ``U`` + i."""
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


def is_t0_separating(family: SeparatingFamily) -> T0Result:
    """Exact pairwise separation check via per-point membership patterns.

    Two points are separated by some member iff their patterns differ.
    Deterministic: the witness is the least unseparated pair x < y, as
    ``bits.unseparated_pair`` picks it.
    """
    pair = unseparated_pair(family.signatures)
    return T0Result(pair is None, pair)


def order_profile(family: SeparatingFamily) -> OrderProfile:
    per_point = tuple(sig.bit_count() for sig in family.signatures)
    max_order = max(per_point)
    argmax = tuple(p for p, o in enumerate(per_point) if o == max_order)
    return OrderProfile(per_point, max_order, argmax)
