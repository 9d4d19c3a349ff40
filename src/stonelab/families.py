"""Order analytics for labeled families of subsets over a finite point set.

The point order ord(x, F) counts the members containing x; a family is
T0-separating when every pair of distinct points is split by some member.
Over the atoms of a finite Boolean algebra the latter is equivalent to the
family generating the whole algebra.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple, Optional, Sequence

from .algebra import Element, FiniteBooleanAlgebra, Ultrafilter, generates_whole
from .bits import iter_bits, signature_classes, transpose
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

    def member_sets(self) -> tuple[int, ...]:
        return tuple(m.bits for m in self.members)

    def labels(self) -> tuple[str, ...]:
        return tuple(m.label for m in self.members)


@dataclass(frozen=True)
class OrderProfile:
    per_point: tuple[int, ...]
    max_order: int
    argmax_points: tuple[int, ...]


class T0Result(NamedTuple):
    separating: bool
    witness: Optional[tuple[int, int]]  # one unseparated pair on failure


class SelectionResult(NamedTuple):
    value: int
    witness: Ultrafilter


def family_from_sets(points: PointSet, sets, prefix: str = "U") -> SeparatingFamily:
    """Build a family from raw masks or iterables of points, auto-labeled."""
    members = []
    for i, s in enumerate(sets):
        if isinstance(s, Member):
            members.append(s)
            continue
        if isinstance(s, int):
            mask = s
        else:
            mask = 0
            for p in s:
                mask |= 1 << p
        members.append(Member(f"{prefix}{i}", mask))
    return SeparatingFamily(points, tuple(members))


def family_from_elements(algebra: FiniteBooleanAlgebra, elements: Sequence[Element],
                         labels=None) -> SeparatingFamily:
    """View algebra elements as a family over the atom point set."""
    points = PointSet(algebra.atom_count)
    if labels is None:
        labels = [f"g{i}" for i in range(len(elements))]
    members = tuple(
        Member(lab, e.bits) for lab, e in zip(labels, elements)
    )
    return SeparatingFamily(points, members)


def order_at(family: SeparatingFamily, point: int) -> int:
    """ord(point, family): number of members containing the point."""
    if not 0 <= point < family.points.size:
        raise ValidationError(f"point {point} out of range")
    bit = 1 << point
    return sum(1 for m in family.members if m.bits & bit)


def point_signatures(family: SeparatingFamily) -> list[int]:
    """Per-point membership pattern, one bit per member."""
    return transpose(family.member_sets(), family.points.size)


def is_t0_separating(family: SeparatingFamily) -> T0Result:
    """Exact pairwise separation check via per-point membership patterns.

    Two points are separated by some member iff their patterns differ, so a
    class of equal patterns with two points yields a witness pair.
    Deterministic: the witness is the first colliding pair in point order,
    the two least points of the class whose second point is least.
    """
    sigs = point_signatures(family)
    if len(set(sigs)) == len(sigs):
        return T0Result(True, None)
    pairs = [
        tuple(islice(iter_bits(cls), 2))
        for cls in signature_classes(sigs)
        if cls & (cls - 1)
    ]
    return T0Result(False, min(pairs, key=lambda pair: pair[1]))


def order_profile(family: SeparatingFamily) -> OrderProfile:
    per_point = tuple(sig.bit_count() for sig in point_signatures(family))
    max_order = max(per_point)
    argmax = tuple(p for p, o in enumerate(per_point) if o == max_order)
    return OrderProfile(per_point, max_order, argmax)


def selection_value(algebra: FiniteBooleanAlgebra, generators: Sequence[Element]) -> SelectionResult:
    """max over ultrafilters p of |p & G|, with one maximizing ultrafilter.

    Equals the maximum point order of G viewed as a family over the atoms.
    Warns when G does not generate the algebra.
    """
    if not generates_whole(algebra, generators):
        warnings.warn(
            "generator set does not generate the whole algebra; "
            "selection value computed anyway",
            LintWarning,
            stacklevel=2,
        )
    patterns = transpose([g.bits for g in generators], algebra.atom_count)
    orders = [sig.bit_count() for sig in patterns]
    best_value = max(orders)
    return SelectionResult(best_value, Ultrafilter(algebra, orders.index(best_value)))


def point_finiteness_bound(family: SeparatingFamily) -> int:
    """Largest point order; the point-finiteness measure of the family."""
    return order_profile(family).max_order


def is_point_finite(family: SeparatingFamily) -> bool:
    """Always true: every family over a finite point set is point-finite."""
    return True
