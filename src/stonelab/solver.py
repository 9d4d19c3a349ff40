"""The constrained min-max-order optimization.

Given a point set and a labeled pool of candidate subsets, find a
T0-separating subfamily minimizing the maximum point order.  Every mode
works on one kernel: the partition of the points into classes of equal
trace under the chosen members, refined by each choice.

Exact mode takes greedy's value U as an upper bound and descends: it
decides "is there a separating subfamily with every order <= k?" for
k = U - 1, then for one less than the max order of each family found,
until a decision is refuted.  The last family found is the certified
witness.  Preset pools realize the structured examples: all subsets of an
algebra's atoms, interval tails of a chain, the canonical up-set
generators over a poset's segment lattice, the node sets over a tree's
path space, and the clopen filters over a semilattice's filter lattice.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from itertools import islice

from .algebra import FiniteBooleanAlgebra
from .bits import iter_bits, set_label, signature_classes, supersets, transpose
from .errors import CapExceededError, PoolInsufficientError, ValidationError
from .families import (
    Member,
    PointSet,
    SeparatingFamily,
    order_profile,
)
from .orders import (
    FilterLattice,
    FinalSegmentLattice,
    FinitePoset,
    MeetSemilattice,
    final_segments,
    filters as semilattice_filters,
    modest_analysis,
)
from .trees import FiniteForest, sigma_system

DEFAULT_EXACT_POINT_CAP = 12
DEFAULT_EXACT_POOL_CAP = 32


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
    elapsed: float  # wall seconds; excluded from canonical reports


class _Kernel:
    """Bitmask view of a pool, built once per pool.

    Candidates are renumbered 0..m-1 in pool order, keeping the first of
    each distinct mask that splits the points at all; ``index[j]`` is the
    pool index of candidate j.  ``cov[x][y]`` is the mask of candidates
    separating points x and y.  A partition is a list of ``(class, order)``
    pairs: the points of a class have equal traces under the chosen
    candidates, so they share one order.
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
        # The classes of the partition under every candidate, by least
        # point; the first one left unsplit gives the least unseparated pair.
        self.unseparated = next(
            (tuple(islice(iter_bits(cls), 2))
             for cls in signature_classes(self.contains) if cls & (cls - 1)),
            None,
        )

    @cached_property
    def cov(self) -> list[list[int]]:
        # n^2 masks: built for the capped exact search only, never by greedy
        return [[cx ^ cy for cy in self.contains] for cx in self.contains]

    def check(self) -> None:
        """Fail fast when some pair is covered by no candidate at all."""
        if self.unseparated is not None:
            x, y = self.unseparated
            raise PoolInsufficientError(
                f"pool cannot separate points {x} and {y}", witness=(x, y)
            )

    @staticmethod
    def refine(classes, c: int):
        """Split every class by candidate mask c; the part inside c gains
        one order."""
        out = []
        for cls, o in classes:
            inside = cls & c
            if not inside:
                out.append((cls, o))
                continue
            if inside != cls:
                out.append((cls ^ inside, o))
            out.append((inside, o + 1))
        return out

    def branch(self, classes, free: int, k: int, capacity) -> int | None:
        """Candidates to branch on at one search node, given the ``free``
        candidates: those covering the open pair with the fewest free
        covering candidates.  0 when the node is refuted, None when every
        class is a single point.

        Counting bound: the c points of a class of order o need distinct
        traces over its t free splitting candidates, each of weight at
        most k - o, so ``capacity[t][k - o] < c`` refutes the node.
        """
        best = None
        fewest = len(self.bits) + 1
        for cls, o in classes:
            if not cls & (cls - 1):
                continue
            pts = list(iter_bits(cls))
            splitters = 0
            for a, x in enumerate(pts):
                row = self.cov[x]
                for y in pts[a + 1:]:
                    cover = row[y] & free
                    count = cover.bit_count()
                    if count < fewest:
                        if not count:
                            return 0
                        best, fewest = cover, count
                    if not a:
                        splitters |= cover
            if capacity[splitters.bit_count()][k - o] < len(pts):
                return 0
        return best

    def decide(self, k: int) -> tuple[list[int] | None, int]:
        """Depth-first search for a T0 family with max order <= k.

        Returns the chosen candidates (None when refuted) and the nodes
        explored.  A candidate is feasible when it contains no point of
        order k; each branch also excludes its earlier, refuted siblings.
        """
        m = len(self.bits)
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
            untried = self.branch(classes, everything & ~(blocked | excluded), k, capacity)
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
            c = self.bits[j]
            classes, blocked, excluded = self.refine(frame[0], c), frame[1], frame[2]
            for cls, o in classes:
                if o == k and cls & c:
                    for p in iter_bits(cls):
                        blocked |= self.contains[p]

    def greedy(self) -> list[int]:
        """Repeatedly take the candidate separating the most open pairs,
        the sum of |C & c| * |C - c| over the classes C; ties go to the
        least new maximum order, then to pool order."""
        classes = [(self.full, 0)]
        top = 0
        chosen = []
        while True:
            split = [cls for cls, _ in classes if cls & (cls - 1)]
            if not split:
                return chosen
            at_top = sum(cls for cls, o in classes if o == top)
            best = (0, 0, -1)  # gain, new max order, candidate
            for j, c in enumerate(self.bits):
                gain = 0
                for cls in split:
                    inside = cls & c
                    if inside and inside != cls:
                        gain += inside.bit_count() * (cls ^ inside).bit_count()
                if gain and gain >= best[0]:
                    new_max = top + 1 if c & at_top else top
                    if gain > best[0] or new_max < best[1]:
                        best = (gain, new_max, j)
            _, top, j = best
            chosen.append(j)
            classes = self.refine(classes, self.bits[j])


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
                  max_points: int = DEFAULT_EXACT_POINT_CAP,
                  max_pool: int = DEFAULT_EXACT_POOL_CAP) -> SolveResult:
    """Minimum achievable maximum order over T0-separating subfamilies.

    Greedy mode repeatedly takes the candidate separating the most open
    pairs (ties: least increase to the current maximum order, then pool
    order) and reports an upper bound flagged inexact.  Exact mode starts
    from that bound U and decides budgets U - 1, then one less than each
    found family's max order, until a budget is refuted; nodes_explored
    counts the nodes of those decision runs.
    """
    start = time.perf_counter()
    if mode == "exact":
        if pool.points.size > max_points or pool.size > max_pool:
            raise CapExceededError(
                f"exact mode capped at {max_points} points / {max_pool} candidates; "
                "use greedy mode or raise the caps"
            )
    elif mode != "greedy":
        raise ValidationError(f"unknown mode {mode!r}")
    kern = pool._kernel
    kern.check()
    chosen = kern.greedy()
    family = _family_of(pool, chosen)
    value = order_profile(family).max_order if chosen else 0
    if mode == "greedy":
        return SolveResult(value, family, False, len(chosen), time.perf_counter() - start)
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
    return SolveResult(value, family, True, nodes, time.perf_counter() - start)


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
        if structure.atom_count > 12:
            raise CapExceededError("free pool enumerates all subsets; atoms capped at 12")
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
        if isinstance(structure, FinitePoset):
            lattice = final_segments(structure)
        elif isinstance(structure, FinalSegmentLattice):
            lattice = structure
        else:
            raise ValidationError("upsets pool needs a FinitePoset")
        pts = PointSet(
            lattice.size, tuple(lattice.label(i) for i in range(lattice.size))
        )
        cands = tuple(
            Member(f"up:{lattice.label(i)}", mask)
            for i, mask in enumerate(supersets(lattice.segments))
        )
        return GeneratorPool(pts, cands, "upsets")
    if kind == "tree":
        if not isinstance(structure, FiniteForest):
            raise ValidationError("tree pool needs a FiniteForest")
        system = sigma_system(structure)
        return GeneratorPool(system.points, system.family.members, "tree")
    if kind == "filters":
        if isinstance(structure, MeetSemilattice):
            lattice = semilattice_filters(structure)
        elif isinstance(structure, FilterLattice):
            lattice = structure
        else:
            raise ValidationError("filters pool needs a MeetSemilattice")
        report = modest_analysis(lattice)
        fam = report.clopen_filter_family
        return GeneratorPool(fam.points, fam.members, "filters")
    raise ValidationError(f"unknown pool preset {kind!r}")
