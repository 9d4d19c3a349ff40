"""Finite posets and meet-semilattices with their dual point sets.

A poset is built one way, ``FinitePoset(size, pairs)``, as the closure
of its p <= q pairs.  The final segments FS(P) of a poset and the filters
Fil(M) of a meet-semilattice serve as Stone-dual point sets; the
canonical generating families are the sets a_p = {u : p in u}.
``filters`` returns Fil(M) as a plain ``SetSpace``, while FS(P) keeps P
to read its Hasse covers off.  ``prime_clopen_filters`` returns the
prime filters of FS(P) as masks in P's order, each filter's minimum its
lowest set bit; ``discrete_witness`` returns the set tau_p;
``modest_analysis`` reports the compact elements and immediate
predecessors of a filter lattice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .bits import points, supersets, transpose
from .errors import (POSET_POINTS, SEMILATTICE_POINTS, UPSETS, CapExceededError,
                     OracleMismatchError, ValidationError)
from .families import Member, SeparatingFamily, SetSpace


class FinitePoset:
    """Partial order on {0, ..., n-1}, the reflexive-transitive closure of
    the given p <= q pairs, as a bit matrix: ``up[i]`` is the mask of
    {j : i <= j} and ``down``, its transpose, the mask of {j : j <= i}.

    Rows are closed in reverse topological order of the pair graph, so
    each row is its own bit or'ed with the finished rows of its direct
    successors: reflexive and transitive by construction, and
    antisymmetric since pairs that close a cycle are refused.
    """

    __slots__ = ("size", "up", "down")

    def __init__(self, size: int, pairs):
        succ = [0] * size
        for p, q in pairs:
            if not (0 <= p < size and 0 <= q < size):
                raise ValidationError(f"pair ({p},{q}) out of range")
            if p != q:
                succ[p] |= 1 << q
        if size < 1:
            raise ValidationError("poset must be nonempty")
        preds = transpose(succ, size)
        waiting = [s.bit_count() for s in succ]  # successors not yet closed
        up = [0] * size
        ready = [i for i in range(size) if not succ[i]]
        while ready:
            i = ready.pop()
            row = 1 << i
            for j in points(succ[i]):
                row |= up[j]
            up[i] = row
            for k in points(preds[i]):
                waiting[k] -= 1
                if not waiting[k]:
                    ready.append(k)
        if not all(up):
            raise ValidationError("pairs contain a cycle, so they define no partial order")
        self.size = size
        self.up = tuple(up)
        self.down = tuple(transpose(up, size))

    @classmethod
    def chain(cls, n: int) -> "FinitePoset":
        return cls(n, [(i, i + 1) for i in range(n - 1)])

    def strict_down(self, p: int) -> int:
        return self.down[p] & ~(1 << p)

    def immediate_predecessors(self, p: int) -> tuple[int, ...]:
        """Maximal elements of the strict down-set of p (lower covers)."""
        below = self.strict_down(p)
        return tuple(q for q in points(below) if self.up[q] & below == 1 << q)

    def __repr__(self):
        pairs = [(i, j) for i, m in enumerate(self.up) for j in points(m & ~(1 << i))]
        return f"FinitePoset(n={self.size}, le={pairs})"


def _upset_masks(n: int, up, max_count: int) -> list[int]:
    """All up-closed subsets of an n-point order, level by level.

    Takes the points along a linear extension, maximal elements first, so
    a point e joins an up-set u exactly when e's strict up-set lies in u,
    and every set of the next level is an old set with or without e.
    Deterministic output order.  Raises once a level holds more than
    ``max_count`` sets; the failing level can hold up to twice
    ``max_count``.
    """
    order = sorted(range(n), key=lambda i: (up[i].bit_count(), i))
    sets = [0]
    for e in order:
        bit = 1 << e
        above = up[e] & ~bit
        sets += [u | bit for u in sets if not above & ~u]
        if len(sets) > max_count:
            raise CapExceededError(UPSETS, len(sets), max_count)
    return sets


@dataclass(frozen=True)
class FinalSegmentLattice(SetSpace):
    """All final segments (up-sets) of a poset, ordered by inclusion."""

    poset: FinitePoset

    @cached_property
    def covers(self) -> tuple[int, ...]:
        """Per segment U, the mask of the segments covering it, read off P:
        V covers U exactly when V = U with a point p outside U added whose
        strict up-set lies in U.  One narrow test per segment and point,
        instead of ``bits.upper_covers``' wide OR per comparable pair.
        """
        up = self.poset.up
        strict = [m & ~(1 << p) for p, m in enumerate(up)]
        index = {u: i for i, u in enumerate(self.sets)}
        full = (1 << self.width) - 1
        out = []
        for u in self.sets:
            above = 0
            for p in points(full & ~u):
                if not strict[p] & ~u:
                    above |= 1 << index[u | 1 << p]
            out.append(above)
        return tuple(out)


def final_segments(poset: FinitePoset, cap: int = POSET_POINTS.default,
                   max_count: int = UPSETS.default) -> FinalSegmentLattice:
    """Enumerate FS(P).  |FS(P)| can be exponential, hence the caps."""
    POSET_POINTS.check(poset.size, cap)
    masks = _upset_masks(poset.size, poset.up, max_count)
    masks.sort(key=lambda m: (m.bit_count(), m))
    return FinalSegmentLattice(poset.size, tuple(masks), poset)


def generator_orientation(lattice: FinalSegmentLattice) -> str:
    """Which global orientation relates p <= q to the inclusion of a_p, a_q.

    Returns "preserving" (p <= q iff a_p subset a_q) or "reversing"; raises
    if neither direction holds globally.
    """
    contained_in = tuple(supersets(lattice.generators))  # q with a_p subset a_q
    preserving = contained_in == lattice.poset.up
    reversing = contained_in == lattice.poset.down
    if preserving and not reversing:
        return "preserving"
    if reversing and not preserving:
        return "reversing"
    if preserving and reversing:
        return "degenerate"  # antichains: both directions hold vacuously
    raise OracleMismatchError("generator map has no global orientation")


def prime_clopen_filters(lattice: FinalSegmentLattice) -> tuple[int, ...]:
    """All prime filters of the lattice FS(P), one per point p of P in P's
    order: the principal filter at the segment [p, ->), as the mask of the
    segments in it.  Its lowest set bit is [p, ->) itself, which sorts
    first among its supersets.

    In a finite lattice every filter F is principal, F = up(meet F), and
    up(a) is prime exactly when a is join-prime: a is not below the join
    of the elements x with a not below x.  A segment with two minimal
    points p and q is the union of itself without p and itself without q,
    so the only candidates are the segments with one minimal point, the
    [p, ->).  Joins in FS(P) are unions, so [p, ->) is join-prime exactly
    when some point e of it lies only in segments containing it.  Raises
    when some [p, ->) fails that test: the prime filters do not biject
    with P.
    """
    holders = lattice.generators  # holders[e]: segments holding e
    primes = []
    for seg in lattice.poset.up:
        elements = points(seg)
        fmask = -1  # the segments containing seg: those holding each e in it
        for e in elements:
            fmask &= holders[e]
        if not any(holders[e] & ~fmask == 0 for e in elements):
            raise OracleMismatchError("prime filters do not biject with the poset")
        primes.append(fmask)
    return tuple(primes)


def discrete_witness(poset: FinitePoset, p: int) -> tuple[int, ...]:
    """tau_p, a finite set isolating the generator a_p among all a_q: the
    witness that the canonical generators form a discrete set.

    a_q corresponds to the point [q, ->) of FS(P); the slab
    {u : p in u and u does not meet tau_p} contains [q, ->) only for q = p.
    tau_p is the set of immediate predecessors of p.  Uniqueness is
    verified on the rows: the q <= p below no element of tau_p must be p
    alone.
    """
    if not 0 <= p < poset.size:
        raise ValidationError(f"poset element {p} out of range")
    tau = poset.immediate_predecessors(p)
    shadow = 0
    for t in tau:
        shadow |= poset.down[t]
    hits = poset.down[p] & ~shadow
    if hits != 1 << p:
        raise OracleMismatchError(
            f"tau_{p} does not isolate a_{p}: hits {list(points(hits))}"
        )
    return tau


class MeetSemilattice:
    """Meet table on {0, ..., n-1}; validated idempotent, commutative, associative.

    ``up[i]`` is the mask of {j : i <= j}, read off row i of the table.
    """

    __slots__ = ("size", "up")

    def __init__(self, table):
        rows = [tuple(r) for r in table]
        n = len(rows)
        if n < 1:
            raise ValidationError("semilattice must be nonempty")
        for i, r in enumerate(rows):
            if len(r) != n:
                raise ValidationError("meet table must be square")
            for v in r:
                if not 0 <= v < n:
                    raise ValidationError("meet table entry out of range")
            if r[i] != i:
                raise ValidationError(f"meet not idempotent at {i}")
        for i in range(n):
            for j in range(n):
                if rows[i][j] != rows[j][i]:
                    raise ValidationError(f"meet not commutative at ({i},{j})")
        up = [0] * n
        for i, r in enumerate(rows):
            for j, m in enumerate(r):
                if m == i:
                    up[i] |= 1 << j
        # Given idempotence and commutativity, associativity holds exactly
        # when every meet is the greatest lower bound on the down-sets.
        down = transpose(up, n)
        for i, r in enumerate(rows):
            for j, m in enumerate(r):
                if down[m] != down[i] & down[j]:
                    raise ValidationError(f"meet not associative: meet({i},{j}) = {m} "
                                          f"is not the greatest lower bound of {i} and {j}")
        self.size = n
        self.up = tuple(up)


def filters(sl: MeetSemilattice, cap: int = SEMILATTICE_POINTS.default) -> SetSpace:
    """Fil(M): the empty set plus every meet-closed up-set, over the n
    elements of M.

    A nonempty filter F of a finite meet-semilattice holds the meet a of
    its elements, so F = up(a); each up(a) is a filter.  Fil(M) is thus the
    empty filter plus the principal filters, one per element.
    """
    SEMILATTICE_POINTS.check(sl.size, cap)
    out = [0, *sl.up]
    out.sort(key=lambda m: (m.bit_count(), m))
    return SetSpace(sl.size, tuple(out))


@dataclass(frozen=True)
class ModestReport:
    """Compact-element and predecessor bookkeeping for a filter lattice."""

    compact_elements: tuple[int, ...]
    immediate_predecessor_counts: tuple[int, ...]  # aligned with compact_elements
    max_elements: tuple[int, ...]
    witness_point: int
    witness_compact_below: int


def compact_elements_clopen(lattice: SetSpace) -> tuple[int, ...]:
    """Compact elements via the clopen characterization: in a finite
    (discrete) lattice every up-set is clopen, so all non-minimum elements
    qualify.  The minimum, the empty filter, sorts first."""
    return tuple(range(1, lattice.size))


def clopen_filter_family(lattice: SetSpace) -> SeparatingFamily:
    """The family G over Fil(M): the empty filter of the lattice plus the
    principal up-set of each compact element (the improper filter, the
    whole lattice, is excluded)."""
    labels, up = lattice.labels, lattice.up
    members = [Member("G:empty", 0)]
    members += [Member(f"G:up:{labels[a]}", up[a]) for a in compact_elements_clopen(lattice)]
    return SeparatingFamily(lattice.points, tuple(members))


def modest_analysis(lattice: SetSpace) -> ModestReport:
    """Compact elements, immediate-predecessor counts, maximal elements, and
    the witness data for the closed-discrete generator family.

    The witness point is a maximal element p maximizing the number of
    compact elements below it.  That count is also the order of p in the
    family G, ``clopen_filter_family``: G's members holding p are the
    up-sets of the compact elements below p.
    """
    compact = compact_elements_clopen(lattice)
    covers = lattice.covers
    lower_covers = transpose(covers, lattice.size)
    pred_counts = tuple(lower_covers[i].bit_count() for i in compact)
    maxima = tuple(i for i in range(lattice.size) if not covers[i])

    up = lattice.up  # a is below p exactly when up[a] holds p
    below = [sum(up[a] >> p & 1 for a in compact) for p in maxima]
    best_count = max(below)
    best_point = maxima[below.index(best_count)]
    return ModestReport(
        compact_elements=compact,
        immediate_predecessor_counts=pred_counts,
        max_elements=maxima,
        witness_point=best_point,
        witness_compact_below=best_count,
    )
