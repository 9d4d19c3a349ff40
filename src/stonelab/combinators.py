"""Family-building combinators on (point set, family) systems.

Products, one-point sums, Alexandrov duplication and porcupine gluings,
each with verifiable order arithmetic.  Member labels record provenance so
combined families can be traced back to their inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

from .bits import iter_bits
from .errors import CapExceededError, LintWarning, ValidationError
from .families import Member, PointSet, SeparatingFamily, is_t0_separating

DEFAULT_PRODUCT_CAP = 4096


@dataclass(frozen=True)
class PointedSystem:
    """A point set together with a witnessing family and an optional base point."""

    points: PointSet
    family: SeparatingFamily
    base_point: Optional[int] = None

    def __post_init__(self):
        if self.family.points != self.points:
            raise ValidationError("family must be over the system's point set")
        if self.base_point is not None and not 0 <= self.base_point < self.points.size:
            raise ValidationError("base point out of range")

    @property
    def size(self) -> int:
        return self.points.size


def system_from_sets(size: int, sets, labels=None, member_labels=None,
                     base_point=None) -> PointedSystem:
    pts = PointSet(size, tuple(labels) if labels else None)
    members = []
    for i, s in enumerate(sets):
        mask = s if isinstance(s, int) else sum(1 << p for p in set(s))
        lab = member_labels[i] if member_labels else f"U{i}"
        members.append(Member(lab, mask))
    return PointedSystem(pts, SeparatingFamily(pts, tuple(members)), base_point)


def singleton_system(size: int) -> PointedSystem:
    """The discrete system whose family is all singletons."""
    pts = PointSet(size)
    members = tuple(Member(f"pt{i}", 1 << i) for i in range(size))
    return PointedSystem(pts, SeparatingFamily(pts, members))


def _warn_if_not_t0(system: PointedSystem, role: str):
    res = is_t0_separating(system.family)
    if not res.separating:
        warnings.warn(
            f"{role} family is not T0-separating (unseparated pair {res.witness}); "
            "output guarantees degrade",
            LintWarning,
            stacklevel=3,
        )


def product_system(s1: PointedSystem, s2: PointedSystem,
                   cap: int = DEFAULT_PRODUCT_CAP) -> PointedSystem:
    """Cartesian product; members lift through the two projections.

    Point (x, y) gets index x * |S2| + y, and its order is the sum of the
    factor orders.
    """
    n1, n2 = s1.size, s2.size
    if n1 * n2 > cap:
        raise CapExceededError(f"product would have {n1 * n2} points, cap is {cap}")
    _warn_if_not_t0(s1, "left")
    _warn_if_not_t0(s2, "right")
    labels = tuple(
        f"({s1.points.label(i)},{s2.points.label(j)})"
        for i in range(n1) for j in range(n2)
    )
    pts = PointSet(n1 * n2, labels)
    row = (1 << n2) - 1  # all (i, *) for fixed i
    members = []
    for m in s1.family.members:
        mask = 0
        for x in iter_bits(m.bits):
            mask |= row << (x * n2)
        members.append(Member(f"lift:L:{m.label}", mask))
    col = 0
    for i in range(n1):
        col |= 1 << (i * n2)
    for m in s2.family.members:
        mask = 0
        for y in iter_bits(m.bits):
            mask |= col << y
        members.append(Member(f"lift:R:{m.label}", mask))
    base = None
    if s1.base_point is not None and s2.base_point is not None:
        base = s1.base_point * n2 + s2.base_point
    return PointedSystem(pts, SeparatingFamily(pts, tuple(members)), base)


def sum_with_point(systems) -> PointedSystem:
    """Disjoint union plus one new point with empty pattern.

    Each component's members are lifted into its summand; the new point
    lies in none of them, so its order is 0 and component orders are
    unchanged.  T0-separation of the output additionally needs every
    component point to lie in at least one member (otherwise it collides
    with the new point).
    """
    systems = list(systems)
    offsets = []
    total = 0
    for s in systems:
        offsets.append(total)
        total += s.size
    inf_index = total
    labels = []
    for k, s in enumerate(systems):
        labels.extend(f"{k}.{s.points.label(i)}" for i in range(s.size))
    labels.append("inf")
    pts = PointSet(total + 1, tuple(labels))
    members = []
    for k, s in enumerate(systems):
        for m in s.family.members:
            members.append(Member(f"sum:{k}:{m.label}", m.bits << offsets[k]))
    return PointedSystem(pts, SeparatingFamily(pts, tuple(members)), inf_index)


def alexandrov_duplication(system: PointedSystem, dup_points) -> PointedSystem:
    """Duplicate the points of D as isolated points.

    Output points are (x, 0) for every x plus (x, 1) for x in D; the family
    is the singletons of the duplicated points together with every input
    member lifted to both levels.  ord((x,0)) = ord(x) and
    ord((x,1)) = ord(x) + 1.
    """
    n = system.size
    dup = sorted(set(dup_points))
    for x in dup:
        if not 0 <= x < n:
            raise ValidationError(f"duplicated point {x} out of range")
    dup_index = {x: n + i for i, x in enumerate(dup)}
    labels = [f"({system.points.label(i)},0)" for i in range(n)]
    labels += [f"({system.points.label(x)},1)" for x in dup]
    pts = PointSet(n + len(dup), tuple(labels))
    members = [
        Member(f"dup:pt:{system.points.label(x)}", 1 << dup_index[x]) for x in dup
    ]
    for m in system.family.members:
        mask = m.bits
        for x in dup:
            if m.bits >> x & 1:
                mask |= 1 << dup_index[x]
        members.append(Member(f"dup:lift:{m.label}", mask))
    base = system.base_point
    return PointedSystem(pts, SeparatingFamily(pts, tuple(members)), base)


@dataclass(frozen=True)
class PorcupineSpec:
    """Index system X, one fiber system per index point, and a section.

    ``section[x]`` is a point index local to fiber x.  Fibers are made
    disjoint by construction (tagged union), so callers need not relabel.
    """

    index: PointedSystem
    fibers: tuple[PointedSystem, ...]
    section: tuple[int, ...]

    def __post_init__(self):
        if len(self.fibers) != self.index.size:
            raise ValidationError("need exactly one fiber per index point")
        if len(self.section) != self.index.size:
            raise ValidationError("section must pick one point per fiber")
        for x, s in enumerate(self.section):
            if not 0 <= s < self.fibers[x].size:
                raise ValidationError(
                    f"section point {s} out of range for fiber {x}"
                )


@dataclass(frozen=True)
class PorcupinePointOrders:
    """Order decomposition of one output point.

    v0        members drawn from the point's own fiber avoiding its section point
    v_minus   members built from the point's own fiber around its section point
    v_star    whole-fiber-union members (one per index member containing the fiber)
    v_star2   members built around other fibers' section points
    """

    point: int
    v0: int
    v_minus: int
    v_star: int
    v_star2: int

    @property
    def total(self) -> int:
        return self.v0 + self.v_minus + self.v_star + self.v_star2


@dataclass(frozen=True)
class PorcupineResult:
    system: PointedSystem
    decomposition: tuple[PorcupinePointOrders, ...]
    split_fibers: tuple[int, ...]  # index points whose fiber family splits around the section


def porcupine(spec: PorcupineSpec) -> PorcupineResult:
    """Glue the fibers over the index system along the section.

    The output family has three member kinds:

    * V0: a fiber member not containing its section point, embedded;
    * V1 full: the union of all fibers over an index member W;
    * V1: the union of fibers over W minus fiber x, plus a member U of
      fiber x that contains the section point s(x), for each x in W.

    The result is T0-separating whenever the inputs are and every index
    point lies in some index member (the full-union members separate
    section points, and the around-section members split a fiber at its
    section point only when some W contains the fiber's index).
    """
    X = spec.index
    _warn_if_not_t0(X, "index")
    for x, f in enumerate(spec.fibers):
        _warn_if_not_t0(f, f"fiber {x}")
    covered = 0
    for m in X.family.members:
        covered |= m.bits
    if covered != (1 << X.size) - 1:
        warnings.warn(
            "index family does not cover every index point; "
            "T0-separation of the porcupine output is not guaranteed",
            LintWarning,
            stacklevel=2,
        )

    offsets = []
    total = 0
    for f in spec.fibers:
        offsets.append(total)
        total += f.size
    fiber_mask = [
        ((1 << f.size) - 1) << offsets[x] for x, f in enumerate(spec.fibers)
    ]
    labels = []
    for x, f in enumerate(spec.fibers):
        labels.extend(f"{x}.{f.points.label(i)}" for i in range(f.size))
    pts = PointSet(total, tuple(labels))

    members = []
    kinds = []  # parallel provenance: ("V0", x) | ("V1full",) | ("V1", x)
    for x, f in enumerate(spec.fibers):
        sbit = 1 << spec.section[x]
        for m in f.family.members:
            if not m.bits & sbit:
                members.append(
                    Member(f"porc:V0:x={x}:{m.label}", m.bits << offsets[x])
                )
                kinds.append(("V0", x))
    unions = []  # per index member W: the union of the fibers over W
    for w in X.family.members:
        mask = 0
        for x in iter_bits(w.bits):
            mask |= fiber_mask[x]
        unions.append(mask)
        members.append(Member(f"porc:V1:full:W={w.label}", mask))
        kinds.append(("V1full",))
    for w, union in zip(X.family.members, unions):
        for x in iter_bits(w.bits):
            others = union & ~fiber_mask[x]
            sbit = 1 << spec.section[x]
            for u in spec.fibers[x].family.members:
                if u.bits & sbit:
                    members.append(
                        Member(
                            f"porc:V1:x={x}:W={w.label}:U={u.label}",
                            others | (u.bits << offsets[x]),
                        )
                    )
                    kinds.append(("V1", x))

    family = SeparatingFamily(pts, tuple(members))
    system = PointedSystem(pts, family)

    # fiber index of each output point
    owner = []
    for x, f in enumerate(spec.fibers):
        owner.extend([x] * f.size)
    decomposition = []
    for p in range(total):
        pbit = 1 << p
        v0 = vm = vs = vs2 = 0
        for m, kind in zip(members, kinds):
            if not m.bits & pbit:
                continue
            if kind[0] == "V0":
                v0 += 1
            elif kind[0] == "V1full":
                vs += 1
            elif kind[1] == owner[p]:
                vm += 1
            else:
                vs2 += 1
        decomposition.append(PorcupinePointOrders(p, v0, vm, vs, vs2))

    split = tuple(
        x
        for x, f in enumerate(spec.fibers)
        if any(
            m.bits >> spec.section[x] & 1 and m.bits != (1 << f.size) - 1
            for m in f.family.members
        )
    )
    return PorcupineResult(system, tuple(decomposition), split)
