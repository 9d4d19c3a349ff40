"""Family-building combinators on pointed systems.

Products, one-point sums, Alexandrov duplication and porcupine gluings,
each with verifiable order arithmetic.  Member labels record provenance so
combined families can be traced back to their inputs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .bits import points, transpose
from .errors import PRODUCT_POINTS, LintWarning, ValidationError
from .families import Member, PointedSystem, PointSet, SeparatingFamily, is_t0_separating


def _warn_if_not_t0(system: PointedSystem, role: str):
    res = is_t0_separating(system.family)
    if not res.separating:
        warnings.warn(
            f"{role} family is not T0-separating (unseparated pair {res.witness}); "
            "output guarantees degrade",
            LintWarning,
            stacklevel=3,
        )


def product_system(s1: PointedSystem, s2: PointedSystem) -> PointedSystem:
    """Cartesian product; members lift through the two projections.

    Point (x, y) gets index x * |S2| + y, and its order is the sum of the
    factor orders.
    """
    n1, n2 = s1.size, s2.size
    PRODUCT_POINTS.check(n1 * n2)
    _warn_if_not_t0(s1, "left")
    _warn_if_not_t0(s2, "right")
    label1, label2 = s1.points.label, s2.points.label
    labels = tuple(f"({label1(i)},{label2(j)})" for i in range(n1) for j in range(n2))
    pts = PointSet(n1 * n2, labels)
    row = (1 << n2) - 1  # all (i, *) for fixed i
    members = []
    for m in s1.family.members:
        mask = 0
        for x in points(m.bits):
            mask |= row << (x * n2)
        members.append(Member(f"lift:L:{m.label}", mask))
    col = 0
    for i in range(n1):
        col |= 1 << (i * n2)
    for m in s2.family.members:
        mask = 0
        for y in points(m.bits):
            mask |= col << y
        members.append(Member(f"lift:R:{m.label}", mask))
    base = None
    if s1.base_point is not None and s2.base_point is not None:
        base = s1.base_point * n2 + s2.base_point
    return PointedSystem(SeparatingFamily(pts, tuple(members)), base)


def _tagged_union(systems) -> tuple[list[int], list[str]]:
    """The systems' points laid side by side: each system's offset, and
    every point's label tagged with its system's index, ``k.label``."""
    offsets, labels = [], []
    for k, s in enumerate(systems):
        offsets.append(len(labels))
        labels.extend(f"{k}.{label}" for label in map(s.points.label, range(s.size)))
    return offsets, labels


def sum_with_point(systems) -> PointedSystem:
    """Disjoint union plus one new point with empty pattern.

    Each component's members are lifted into its summand; the new point
    lies in none of them, so its order is 0 and component orders are
    unchanged.  T0-separation of the output additionally needs every
    component point to lie in at least one member (otherwise it collides
    with the new point).
    """
    systems = list(systems)
    offsets, labels = _tagged_union(systems)
    inf_index = len(labels)
    labels.append("inf")
    pts = PointSet(inf_index + 1, tuple(labels))
    members = []
    for k, s in enumerate(systems):
        for m in s.family.members:
            members.append(Member(f"sum:{k}:{m.label}", m.bits << offsets[k]))
    return PointedSystem(SeparatingFamily(pts, tuple(members)), inf_index)


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
    label = system.points.label
    labels = [f"({label(i)},0)" for i in range(n)]
    labels += [f"({label(x)},1)" for x in dup]
    pts = PointSet(n + len(dup), tuple(labels))
    members = [Member(f"dup:pt:{label(x)}", 1 << dup_index[x]) for x in dup]
    for m in system.family.members:
        mask = m.bits
        for x in dup:
            if m.bits >> x & 1:
                mask |= 1 << dup_index[x]
        members.append(Member(f"dup:lift:{m.label}", mask))
    return PointedSystem(SeparatingFamily(pts, tuple(members)), system.base_point)


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


def porcupine(index: PointedSystem, fibers, section) -> PorcupineResult:
    """Glue the fibers, one system per point of the index system, over it
    along the section: ``section[x]`` is a point local to fiber x.  The
    fibers are made disjoint by a tagged union, so callers need not
    relabel.

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
    if len(fibers) != index.size:
        raise ValidationError("need exactly one fiber per index point")
    if len(section) != index.size:
        raise ValidationError("section must pick one point per fiber")
    for x, s in enumerate(section):
        if not 0 <= s < fibers[x].size:
            raise ValidationError(f"section point {s} out of range for fiber {x}")
    _warn_if_not_t0(index, "index")
    for x, f in enumerate(fibers):
        _warn_if_not_t0(f, f"fiber {x}")
    covered = 0
    for m in index.family.members:
        covered |= m.bits
    if covered != (1 << index.size) - 1:
        warnings.warn(
            "index family does not cover every index point; "
            "T0-separation of the porcupine output is not guaranteed",
            LintWarning,
            stacklevel=2,
        )

    offsets, labels = _tagged_union(fibers)
    fiber_mask = [((1 << f.size) - 1) << offsets[x] for x, f in enumerate(fibers)]
    pts = PointSet(len(labels), tuple(labels))

    # per fiber x: its members avoiding s(x) (the V0 members) and those
    # holding s(x) (each W containing x builds one V1 member around each)
    v0_local, around = [], []
    for x, f in enumerate(fibers):
        sbit = 1 << section[x]
        v0_local.append([m for m in f.family.members if not m.bits & sbit])
        around.append([m for m in f.family.members if m.bits & sbit])

    members = [
        Member(f"porc:V0:x={x}:{m.label}", m.bits << offsets[x])
        for x, fiber_v0 in enumerate(v0_local) for m in fiber_v0
    ]
    unions = []  # per index member W: the union of the fibers over W
    for w in index.family.members:
        mask = 0
        for x in points(w.bits):
            mask |= fiber_mask[x]
        unions.append(mask)
        members.append(Member(f"porc:V1:full:W={w.label}", mask))
    for w, union in zip(index.family.members, unions):
        for x in points(w.bits):
            others = union & ~fiber_mask[x]
            members.extend(
                Member(f"porc:V1:x={x}:W={w.label}:U={u.label}", others | (u.bits << offsets[x]))
                for u in around[x]
            )

    system = PointedSystem(SeparatingFamily(pts, tuple(members)))

    # A point i of fiber x lies in the V0 members of fiber x that hold i; in
    # the full union over each W containing x (v_star of them); in the V1
    # members built around s(x) whose U holds i, v_star times over; and in
    # every V1 member built around s(y) for another y of such a W, since that
    # member holds all of fiber x.
    index_cols = transpose([w.bits for w in index.family.members], index.size)
    around_count = [len(a) for a in around]
    around_sum = [sum(around_count[y] for y in points(w.bits)) for w in index.family.members]
    decomposition = []
    for x, f in enumerate(fibers):
        v_star = index_cols[x].bit_count()
        v_star2 = sum(around_sum[k] for k in points(index_cols[x])) - v_star * around_count[x]
        v0_cols = transpose([m.bits for m in v0_local[x]], f.size)
        around_cols = transpose([u.bits for u in around[x]], f.size)
        decomposition.extend(
            PorcupinePointOrders(offsets[x] + i, v0_cols[i].bit_count(),
                                 v_star * around_cols[i].bit_count(), v_star, v_star2)
            for i in range(f.size)
        )

    split = tuple(
        x
        for x, f in enumerate(fibers)
        if any(u.bits != (1 << f.size) - 1 for u in around[x])
    )
    return PorcupineResult(system, tuple(decomposition), split)
