"""The constrained min-max-order optimization.

Given a point set and a labeled pool of candidate subsets, find a
T0-separating subfamily minimizing the maximum point order.  Every mode
works on one kernel: the partition of the points into classes of equal
trace under the chosen members, refined by each choice.

Exact mode takes greedy's value U as an upper bound and descends: it
decides "is there a separating subfamily with every order <= k?" for
k = U - 1, then for one less than the max order of each family found,
until a decision is refuted.  The last family found is the certified
witness.  A decision node scans each open class from its least point's
row, applies the counting bound, then scans the remaining pairs; greedy
keeps every candidate's score and updates it only for the classes that
its last choice split.

Preset pools realize the structured examples: all subsets of an
algebra's atoms, interval tails of a chain, the canonical up-set
generators over a poset's segment lattice, the node sets over a tree's
path space, and the clopen filters over a semilattice's filter lattice.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import cached_property
from operator import mul

from .algebra import FiniteBooleanAlgebra
from .bits import points, set_label, transpose, unseparated_pair
from .errors import (EXACT_CANDIDATES, EXACT_POINTS, FREE_POOL_ATOMS, SYSTEM_POINTS,
                     PoolInsufficientError, ValidationError)
from .families import (
    Member,
    PointSet,
    SeparatingFamily,
    order_profile,
)
from .orders import (
    FinitePoset,
    MeetSemilattice,
    clopen_filter_family,
    final_segments,
    filters as semilattice_filters,
)
from .trees import FiniteForest, sigma_system


@dataclass(frozen=True)
class GeneratorPool:
    points: PointSet
    candidates: tuple[Member, ...]
    preset_tag: str = "custom"

    def __post_init__(self):
        full = (1 << self.points.size) - 1
        for c in self.candidates:
            if not 0 <= c.bits <= full:
                raise ValidationError(f"candidate {c.label!r} not a subset of the points")
        if self.points.size > 1 and not self.candidates:
            raise ValidationError("empty candidate pool cannot separate points")

    @property
    def size(self) -> int:
        return len(self.candidates)

    @cached_property
    def _kernel(self) -> _Kernel:
        # Kept on the immutable pool: the pool check, the greedy bound and
        # every decision run of one solve share it.
        return _Kernel(self)


@dataclass(frozen=True)
class DecisionResult:
    achievable: bool
    family: SeparatingFamily | None
    nodes_explored: int


@dataclass(frozen=True)
class SolveResult:
    value: int
    family: SeparatingFamily
    exact: bool
    nodes_explored: int


# struct codes of the little-endian score fields, by their size in bytes
_FIELDS = ((1, "B"), (2, "H"), (4, "I"), (8, "Q"))
# bin() digits of a candidate mask to 1 for each candidate it leaves out
_MISSES = bytes.maketrans(b"01", b"\1\0")


class _Kernel:
    """Bitmask view of a pool, built once per pool.

    Candidates are renumbered 0..m-1 in pool order, keeping the first of
    each distinct mask that splits the points at all; ``index[j]`` is the
    pool index of candidate j.  ``cov[x][y]`` is the mask of candidates
    separating points x and y.  A partition is a list of ``(class, order)``
    pairs: the points of a class have equal traces under the chosen
    candidates, so they share one order.  ``decide`` reads a class's points
    with ``bits.points`` and its pairs from ``cov``; ``greedy`` never builds
    ``cov``.  Nothing else is kept between calls: each run's tables live
    in its own frame.
    """

    def __init__(self, pool: GeneratorPool):
        n = pool.points.size
        self.full = (1 << n) - 1
        self.index: list[int] = []
        self.bits: list[int] = []
        seen = {0, self.full}
        for i, c in enumerate(pool.candidates):
            if c.bits not in seen:
                seen.add(c.bits)
                self.index.append(i)
                self.bits.append(c.bits)
        # per point: mask of the candidates containing it
        self.contains = transpose(self.bits, n)
        self.unseparated = unseparated_pair(self.contains)

    @cached_property
    def cov(self) -> list[list[int]]:
        # n^2 masks: built for the capped exact search only, never by greedy
        return [[cx ^ cy for cy in self.contains] for cx in self.contains]

    def check(self) -> None:
        """Fail fast when some pair is covered by no candidate at all."""
        if self.unseparated is not None:
            x, y = self.unseparated
            raise PoolInsufficientError(f"pool cannot separate points {x} and {y}")

    def decide(self, k: int) -> tuple[list[int] | None, int]:
        """Depth-first search for a T0 family with max order <= k.

        Returns the chosen candidates (None when refuted) and the nodes
        explored.  A candidate is feasible when it contains no point of
        order k; each branch also excludes its earlier, refuted siblings.

        A node branches on the free candidates covering its open pair with
        the fewest free covers, the first such pair in class order, then
        lexicographic.  Each open class is scanned from its least point
        x0: x0's row first, whose covers together are the free candidates
        splitting the class; then the counting bound, since the c points
        of a class of order o need distinct traces over its t free
        splitters, each of weight at most k - o, so ``capacity[t][k - o]
        < c`` refutes the node; then the remaining pairs.  A pair with no
        free cover refutes the node too.
        """
        bits, contains, cov = self.bits, self.contains, self.cov
        m = len(bits)
        everything = (1 << m) - 1
        # capacity[t][r]: 0/1 vectors of length t and weight <= r
        capacity = [[1] * (k + 1)]
        for _ in range(m):
            prev = capacity[-1]
            capacity.append([1] + [prev[r] + prev[r - 1] for r in range(1, k + 1)])
        classes = [(self.full, 0)]
        blocked = excluded = 0  # candidates touching a point of order k; refuted
        stack = []  # per depth: [classes, blocked, excluded, untried, chosen]
        nodes = 0
        while True:
            nodes += 1
            free = everything & ~(blocked | excluded)
            untried = None  # None: every class is one point; 0: refuted
            fewest = m + 1  # 0 once some pair has no free cover
            for cls, o in classes:
                if not cls & (cls - 1):
                    continue
                pts = points(cls)
                row = cov[pts[0]]
                splitters = 0
                for y in pts[1:]:
                    cover = row[y] & free
                    splitters |= cover
                    count = cover.bit_count()
                    if count < fewest:
                        untried, fewest = cover, count
                if not fewest or capacity[splitters.bit_count()][k - o] < len(pts):
                    untried = 0
                    break
                for a in range(1, len(pts) - 1):
                    row = cov[pts[a]]
                    for y in pts[a + 1:]:
                        cover = row[y] & free
                        count = cover.bit_count()
                        if count < fewest:
                            untried, fewest = cover, count
                    if not fewest:
                        break
                if not fewest:
                    break
            if untried is None:
                return [frame[4] for frame in stack], nodes
            if untried:
                stack.append([classes, blocked, excluded, untried, -1])
            while stack and not stack[-1][3]:
                stack.pop()
            if not stack:
                return None, nodes
            frame = stack[-1]
            low = frame[3] & -frame[3]
            frame[3] ^= low
            frame[2] |= low  # later siblings exclude this one
            frame[4] = j = low.bit_length() - 1
            c = bits[j]
            blocked, excluded = frame[1], frame[2]
            classes = []  # each class split by c; the part inside gains one order
            for cls, o in frame[0]:
                inside = cls & c
                if not inside:
                    classes.append((cls, o))
                    continue
                if inside != cls:
                    classes.append((cls ^ inside, o))
                classes.append((inside, o + 1))
                if o + 1 == k:
                    for p in points(inside):
                        blocked |= contains[p]

    def greedy(self) -> list[int]:
        """Repeatedly take the candidate separating the most open pairs,
        the sum of |C & c| * |C - c| over the classes C; ties go to the
        least new maximum order, then to pool order.

        Scores are kept up to date, not recounted.  A candidate of w points
        starts at w * (n - w); when the chosen c splits a class C into A
        and B, each candidate d loses the pairs across the cut that it
        separates, |A & d| * |B - d| + |B & d| * |A - d|.  Only the classes
        c splits change a score.  The scores share one int, a field per
        candidate, so a split costs a few wide sums over its smaller part
        A: ``rows[p]`` holds 1 in the field of each candidate containing
        point p, an open class carries the sum of its rows (field d is
        |C & d|), and the fieldwise |A & d| * |B & d| is the sum over p in
        A of B's sums masked to p's fields.
        """
        bits, contains = self.bits, self.contains
        n, m = self.full.bit_length(), len(bits)
        # field bytes: a split subtracts at most 2|A||B| <= n*n/2 per field
        size, code = next((s, c) for s, c in _FIELDS if n * n < 2 << 8 * s)
        fmt = f"<{m}{code}"

        def pack(values) -> int:
            return int.from_bytes(struct.pack(fmt, *values), "little")

        spread = {ord("0"): "\0" * size, ord("1"): "\1" + "\0" * (size - 1)}
        rows = [int.from_bytes(bin(row | 1 << m)[:2:-1].translate(spread).encode("latin-1"),
                               "little") for row in contains]
        ones = (1 << 8 * size) - 1  # one field full
        weights = list(map(int.bit_count, bits))
        scores_int = pack([w * (n - w) for w in weights])
        # open classes of two or more points, with the sums of their rows
        opened = [(self.full, pack(weights))] if n > 1 else []
        levels = [self.full]  # levels[o]: the points of order o
        top = 0
        chosen = []
        while opened:
            scores = struct.unpack(fmt, scores_int.to_bytes(m * size, "little"))
            best = max(scores)
            j = scores.index(best)
            if bits[j] & levels[top]:  # the first best missing the top order, if any
                meets = 0
                for p in points(levels[top]):
                    meets |= contains[p]
                misses = bin(meets | 1 << m)[:2:-1].encode().translate(_MISSES)
                lower = list(map(mul, scores, misses))
                if best in lower:
                    j = lower.index(best)
                else:
                    top += 1
                    levels.append(0)
            chosen.append(j)
            c = bits[j]
            for o in range(top - 1, -1, -1):
                moving = levels[o] & c
                if moving:
                    levels[o] ^= moving
                    levels[o + 1] |= moving
            out = []
            for cls, sums in opened:
                inside = cls & c
                if not inside or inside == cls:
                    out.append((cls, sums))
                    continue
                small, large = cls ^ inside, inside
                if small.bit_count() > large.bit_count():
                    small, large = large, small
                pts = points(small)
                x = 0
                for p in pts:
                    x += rows[p]
                y = sums - x
                xy = 0
                for p in pts:
                    xy += y & rows[p] * ones
                scores_int -= large.bit_count() * x + len(pts) * y - 2 * xy
                if len(pts) > 1:
                    out.append((small, x))
                if large & (large - 1):
                    out.append((large, y))
            opened = out
        return chosen


def _family_of(pool: GeneratorPool, chosen) -> SeparatingFamily:
    kern = pool._kernel
    members = tuple(pool.candidates[i] for i in sorted(kern.index[j] for j in chosen))
    return SeparatingFamily(pool.points, members)


def decision_max_order_at_most(pool: GeneratorPool, k: int) -> DecisionResult:
    """Exact depth-first search over signature classes.

    Each node branches on the open pair (two points of one class) with the
    fewest feasible covering candidates, trying them in pool order; a
    candidate is feasible when it contains no point whose order is already
    k.  A counting bound per class prunes nodes whose classes cannot be
    split within the budget.  The witness is the first family found, not
    necessarily of max order exactly k.
    """
    if k < 0:
        raise ValidationError("budget k must be >= 0")
    kern = pool._kernel
    kern.check()
    chosen, nodes = kern.decide(k)
    family = _family_of(pool, chosen) if chosen is not None else None
    return DecisionResult(chosen is not None, family, nodes)


def min_max_order(pool: GeneratorPool, mode: str = "exact",
                  max_points: int = EXACT_POINTS.default,
                  max_pool: int = EXACT_CANDIDATES.default) -> SolveResult:
    """Minimum achievable maximum order over T0-separating subfamilies.

    Greedy mode repeatedly takes the candidate separating the most open
    pairs (ties: least increase to the current maximum order, then pool
    order) and reports an upper bound flagged inexact.  Exact mode starts
    from that bound U and decides budgets U - 1, then one less than each
    found family's max order, until a budget is refuted; nodes_explored
    counts the nodes of those decision runs.
    """
    if mode == "exact":
        EXACT_POINTS.check(pool.points.size, max_points)
        EXACT_CANDIDATES.check(pool.size, max_pool)
    elif mode != "greedy":
        raise ValidationError(f"unknown mode {mode!r}")
    kern = pool._kernel
    kern.check()
    chosen = kern.greedy()
    family = _family_of(pool, chosen)
    value = order_profile(family).max_order if chosen else 0
    if mode == "greedy":
        return SolveResult(value, family, False, len(chosen))
    nodes = 0
    while value > 0:
        res = decision_max_order_at_most(pool, value - 1)
        nodes += res.nodes_explored
        if not res.achievable:
            break
        family = res.family
        order = order_profile(family).max_order
        if order >= value:  # a broken budget would stall the descent
            raise AssertionError(f"decision at budget {value - 1} gave max order {order}")
        value = order
    return SolveResult(value, family, True, nodes)


def preset_pool(kind: str, structure) -> GeneratorPool:
    """Labeled candidate pools over the structured point sets.

    kind="free"      all subsets of the atoms of a FiniteBooleanAlgebra
    kind="intervals" the tails [a, ->) of a chain, over its atoms
    kind="upsets"    the principal up-sets of the segment lattice FS(P)
    kind="tree"      the node sets V_t over the path space of a forest
    kind="filters"   the clopen filters over the filter lattice Fil(M)
    """
    if kind == "free":
        if not isinstance(structure, FiniteBooleanAlgebra):
            raise ValidationError("free pool needs a FiniteBooleanAlgebra")
        FREE_POOL_ATOMS.check(structure.atom_count)
        pts = PointSet(structure.atom_count)
        cands = tuple(
            Member(set_label(m), m) for m in range(1 << structure.atom_count)
        )
        return GeneratorPool(pts, cands, "free")
    if kind == "intervals":
        if not isinstance(structure, int) or structure < 1:
            raise ValidationError("intervals pool needs a positive chain length")
        n = structure
        pts = PointSet(n)
        full = (1 << n) - 1
        cands = tuple(
            Member(f"[{a},->)", full & ~((1 << a) - 1)) for a in range(n)
        )
        return GeneratorPool(pts, cands, "intervals")
    if kind == "upsets":
        if not isinstance(structure, FinitePoset):
            raise ValidationError("upsets pool needs a FinitePoset")
        lattice = final_segments(structure)
        SYSTEM_POINTS.check(lattice.size)  # a pool is a system; before its m x m up-sets
        cands = tuple(
            Member(f"up:{label}", mask) for label, mask in zip(lattice.labels, lattice.up)
        )
        return GeneratorPool(lattice.points, cands, "upsets")
    if kind == "tree":
        if not isinstance(structure, FiniteForest):
            raise ValidationError("tree pool needs a FiniteForest")
        system = sigma_system(structure)
        return GeneratorPool(system.points, system.family.members, "tree")
    if kind == "filters":
        if not isinstance(structure, MeetSemilattice):
            raise ValidationError("filters pool needs a MeetSemilattice")
        fam = clopen_filter_family(semilattice_filters(structure))
        return GeneratorPool(fam.points, fam.members, "filters")
    raise ValidationError(f"unknown pool preset {kind!r}")
