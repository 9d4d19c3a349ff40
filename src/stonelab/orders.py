"""Finite posets and meet-semilattices with their dual point sets.

The final segments FS(P) of a poset and the filters Fil(M) of a
meet-semilattice serve as Stone-dual point sets; the canonical generating
families are the sets a_p = {u : p in u}.  Includes the prime-filter
characterization, discrete-generator witnesses, and the analysis of
compact elements and immediate predecessors in filter lattices.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .bits import iter_bits, set_label, supersets, transpose, upper_covers
from .errors import CapExceededError, OracleMismatchError, ValidationError
from .families import Member, PointSet, SeparatingFamily
from .combinators import PointedSystem

DEFAULT_POSET_CAP = 20
DEFAULT_SEGMENT_CAP = 1 << 20


class FinitePoset:
    """Partial order on {0, ..., n-1}; ``up[i]`` is the mask of {j : i <= j}."""

    __slots__ = ("size", "up")

    def __init__(self, up_masks):
        up = tuple(up_masks)
        n = len(up)
        if n < 1:
            raise ValidationError("poset must be nonempty")
        full = (1 << n) - 1
        for i, m in enumerate(up):
            if not 0 <= m <= full:
                raise ValidationError("relation mask out of range")
            if not m >> i & 1:
                raise ValidationError(f"relation not reflexive at {i}")
        for i in range(n):
            for j in range(n):
                if up[i] >> j & 1:
                    if i != j and up[j] >> i & 1:
                        raise ValidationError(f"relation not antisymmetric at ({i},{j})")
                    if up[j] & ~up[i]:
                        raise ValidationError(f"relation not transitive at ({i},{j})")
        self.size = n
        self.up = up

    @classmethod
    def from_pairs(cls, size: int, pairs) -> "FinitePoset":
        """Reflexive-transitive closure of the given p <= q pairs."""
        up = [1 << i for i in range(size)]
        for p, q in pairs:
            if not (0 <= p < size and 0 <= q < size):
                raise ValidationError(f"pair ({p},{q}) out of range")
            up[p] |= 1 << q
        changed = True
        while changed:
            changed = False
            for i in range(size):
                m = up[i]
                for j in iter_bits(m):
                    m |= up[j]
                if m != up[i]:
                    up[i] = m
                    changed = True
        return cls(up)

    @classmethod
    def chain(cls, n: int) -> "FinitePoset":
        return cls(tuple(((1 << n) - 1) & ~((1 << i) - 1) for i in range(n)))

    @classmethod
    def antichain(cls, n: int) -> "FinitePoset":
        return cls(tuple(1 << i for i in range(n)))

    def leq(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def strict_down(self, p: int) -> int:
        mask = 0
        for q in range(self.size):
            if q != p and self.leq(q, p):
                mask |= 1 << q
        return mask

    def immediate_predecessors(self, p: int) -> tuple[int, ...]:
        """Maximal elements of the strict down-set of p (lower covers)."""
        below = self.strict_down(p)
        preds = []
        for q in range(self.size):
            if below >> q & 1:
                dominated = self.up[q] & below & ~(1 << q)
                if not dominated:
                    preds.append(q)
        return tuple(preds)

    def __repr__(self):
        pairs = [
            (i, j)
            for i in range(self.size)
            for j in range(self.size)
            if i != j and self.leq(i, j)
        ]
        return f"FinitePoset(n={self.size}, le={pairs})"


def _upset_masks(n: int, up, max_count: int) -> list[int]:
    """All up-closed subsets of an n-point order, by depth-first extension.

    Processes points along a linear extension, maximal elements first, so
    putting a point in only needs its already-decided strict successors to
    be in.  Deterministic output order; raises when more than ``max_count``
    sets would be produced.
    """
    order = sorted(range(n), key=lambda i: (up[i].bit_count(), i))
    results: list[int] = []

    def extend(pos: int, mask: int):
        if pos == n:
            if len(results) >= max_count:
                raise CapExceededError(
                    f"more than {max_count} up-sets; raise the enumeration cap"
                )
            results.append(mask)
            return
        e = order[pos]
        extend(pos + 1, mask)  # leave e out
        strict_up = up[e] & ~(1 << e)
        if strict_up & ~mask == 0:
            extend(pos + 1, mask | (1 << e))

    extend(0, 0)
    return results


@dataclass(frozen=True)
class FinalSegmentLattice:
    """All final segments (up-sets) of a poset, ordered by inclusion."""

    poset: FinitePoset
    segments: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.segments)

    def index_of(self, mask: int) -> int:
        return self.segments.index(mask)

    def label(self, idx: int) -> str:
        return set_label(self.segments[idx])

    def leq(self, i: int, j: int) -> bool:
        return self.segments[i] & ~self.segments[j] == 0


def final_segments(poset: FinitePoset, cap: int = DEFAULT_POSET_CAP,
                   max_count: int = DEFAULT_SEGMENT_CAP) -> FinalSegmentLattice:
    """Enumerate FS(P).  |FS(P)| can be exponential, hence the caps."""
    if poset.size > cap:
        raise CapExceededError(
            f"poset has {poset.size} points (cap {cap}); "
            f"|FS(P)| could reach 2^{poset.size}"
        )
    masks = _upset_masks(poset.size, poset.up, max_count)
    masks.sort(key=lambda m: (m.bit_count(), m))
    return FinalSegmentLattice(poset, tuple(masks))


def generator_mask(lattice: FinalSegmentLattice, p: int) -> int:
    """a_p over FS(P): the segments containing p, as a point mask."""
    return transpose(lattice.segments, lattice.poset.size)[p]


def poset_system(lattice: FinalSegmentLattice) -> PointedSystem:
    """Points FS(P) with the canonical family {a_p : p in P}.

    The family is T0-separating (segments differing at p are split by a_p),
    and p <= q in P holds exactly when a_p is a subset of a_q.
    """
    pts = PointSet(lattice.size, tuple(lattice.label(i) for i in range(lattice.size)))
    members = tuple(
        Member(f"a_{p}", mask)
        for p, mask in enumerate(transpose(lattice.segments, lattice.poset.size))
    )
    return PointedSystem(pts, SeparatingFamily(pts, members))


def generator_orientation(lattice: FinalSegmentLattice) -> str:
    """Which global orientation relates p <= q to the inclusion of a_p, a_q.

    Returns "preserving" (p <= q iff a_p subset a_q) or "reversing"; raises
    if neither direction holds globally.
    """
    P = lattice.poset
    masks = transpose(lattice.segments, P.size)
    preserving = all(
        P.leq(p, q) == (masks[p] & ~masks[q] == 0)
        for p in range(P.size)
        for q in range(P.size)
    )
    reversing = all(
        P.leq(p, q) == (masks[q] & ~masks[p] == 0)
        for p in range(P.size)
        for q in range(P.size)
    )
    if preserving and not reversing:
        return "preserving"
    if reversing and not preserving:
        return "reversing"
    if preserving and reversing:
        return "degenerate"  # antichains: both directions hold vacuously
    raise OracleMismatchError("generator map has no global orientation")


@dataclass(frozen=True)
class PrimeFilterInfo:
    """A prime filter of the segment lattice with its minimum and base element."""

    filter_indices: tuple[int, ...]  # indices into lattice.segments
    minimum_index: int
    poset_element: int


def prime_clopen_filters(lattice: FinalSegmentLattice) -> tuple[PrimeFilterInfo, ...]:
    """All prime filters of the lattice FS(P), by exhaustive enumeration.

    Enumerates every nonempty proper up-set of the inclusion order, keeps
    those closed under intersection, and tests primality literally
    (x | y in F implies x in F or y in F).  Asserts that each prime filter
    is principal with minimum of the form [p, ->) and that the collection
    is in bijection with P.
    """
    segs = lattice.segments
    m = len(segs)
    candidates = _upset_masks(m, supersets(segs), max_count=1 << 22)
    full = (1 << m) - 1
    union_index = {seg: i for i, seg in enumerate(segs)}

    primes = []
    for fmask in candidates:
        if fmask == 0 or fmask == full:
            continue
        idxs = [i for i in range(m) if fmask >> i & 1]
        if any(
            not fmask >> union_index[segs[i] & segs[j]] & 1
            for i in idxs
            for j in idxs
        ):
            continue
        prime = True
        for i in range(m):
            for j in range(m):
                ui = union_index[segs[i] | segs[j]]
                if fmask >> ui & 1 and not (fmask >> i & 1 or fmask >> j & 1):
                    prime = False
                    break
            if not prime:
                break
        if not prime:
            continue
        acc = segs[idxs[0]]
        for i in idxs[1:]:
            acc &= segs[i]
        if acc not in union_index or not fmask >> union_index[acc] & 1:
            raise OracleMismatchError("prime filter without a minimum")
        min_idx = union_index[acc]
        base = None
        for p in range(lattice.poset.size):
            if lattice.poset.up[p] == acc:
                base = p
                break
        if base is None:
            raise OracleMismatchError(
                f"prime filter minimum {set_label(acc)} is not of the form [p,->)"
            )
        primes.append(PrimeFilterInfo(tuple(idxs), min_idx, base))

    bases = sorted(pf.poset_element for pf in primes)
    if bases != list(range(lattice.poset.size)):
        raise OracleMismatchError("prime filters do not biject with the poset")
    primes.sort(key=lambda pf: pf.poset_element)
    return tuple(primes)


@dataclass(frozen=True)
class DiscreteWitness:
    """tau_p, a finite set isolating the generator a_p among all a_q.

    a_q corresponds to the point [q, ->) of FS(P); the slab
    {u : p in u and u does not meet tau_p} contains [q, ->) only for q = p.
    """

    poset_element: int
    tau: tuple[int, ...]


def discrete_witness(poset: FinitePoset, p: int) -> DiscreteWitness:
    """Witness that the canonical generators form a discrete set.

    tau_p is the set of immediate predecessors of p; uniqueness is verified
    by enumeration over all q.
    """
    if not 0 <= p < poset.size:
        raise ValidationError(f"poset element {p} out of range")
    tau = poset.immediate_predecessors(p)
    tau_mask = 0
    for t in tau:
        tau_mask |= 1 << t
    hits = [
        q
        for q in range(poset.size)
        if poset.up[q] >> p & 1 and poset.up[q] & tau_mask == 0
    ]
    if hits != [p]:
        raise OracleMismatchError(f"tau_{p} does not isolate a_{p}: hits {hits}")
    return DiscreteWitness(p, tau)


class MeetSemilattice:
    """Meet table on {0, ..., n-1}; validated idempotent, commutative, associative."""

    __slots__ = ("size", "table")

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
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if rows[rows[i][j]][k] != rows[i][rows[j][k]]:
                        raise ValidationError(
                            f"meet not associative at ({i},{j},{k})"
                        )
        self.size = n
        self.table = tuple(rows)

    @classmethod
    def chain(cls, n: int) -> "MeetSemilattice":
        return cls([[min(i, j) for j in range(n)] for i in range(n)])

    @classmethod
    def antichain_with_bottom(cls, k: int) -> "MeetSemilattice":
        """k pairwise-incomparable elements over a common bottom 0."""
        n = k + 1
        return cls(
            [[i if i == j else 0 for j in range(n)] for i in range(n)]
        )

    def meet(self, i: int, j: int) -> int:
        return self.table[i][j]

    def leq(self, i: int, j: int) -> bool:
        return self.table[i][j] == i

    def up_mask(self, i: int) -> int:
        mask = 0
        for j in range(self.size):
            if self.leq(i, j):
                mask |= 1 << j
        return mask


@dataclass(frozen=True)
class FilterLattice:
    """All filters of a meet-semilattice, including the empty one."""

    semilattice: MeetSemilattice
    filters: tuple[int, ...]  # masks over the semilattice, 0 = empty filter

    @property
    def size(self) -> int:
        return len(self.filters)

    def index_of(self, mask: int) -> int:
        return self.filters.index(mask)

    def label(self, idx: int) -> str:
        return set_label(self.filters[idx])

    def minimum_index(self) -> int:
        return self.filters.index(0)


def _is_meet_closed(sl: MeetSemilattice, mask: int) -> bool:
    elems = [i for i in range(sl.size) if mask >> i & 1]
    return all(mask >> sl.meet(i, j) & 1 for i in elems for j in elems)


def filters(sl: MeetSemilattice, cap: int = DEFAULT_POSET_CAP,
            max_count: int = DEFAULT_SEGMENT_CAP) -> FilterLattice:
    """Enumerate Fil(M): the empty set plus every meet-closed up-set."""
    if sl.size > cap:
        raise CapExceededError(
            f"semilattice has {sl.size} points (cap {cap})"
        )
    up = [sl.up_mask(i) for i in range(sl.size)]
    upsets = _upset_masks(sl.size, up, max_count)
    out = [m for m in upsets if m == 0 or _is_meet_closed(sl, m)]
    out.sort(key=lambda m: (m.bit_count(), m))
    return FilterLattice(sl, tuple(out))


def semilattice_system(lattice: FilterLattice) -> PointedSystem:
    """Points Fil(M) with the canonical family {a_p : p in M}; T0-separating."""
    pts = PointSet(lattice.size, tuple(lattice.label(i) for i in range(lattice.size)))
    members = tuple(
        Member(f"a_{p}", mask)
        for p, mask in enumerate(transpose(lattice.filters, lattice.semilattice.size))
    )
    return PointedSystem(pts, SeparatingFamily(pts, members))


def _filter_generated(sl: MeetSemilattice, mask: int) -> int:
    """Smallest filter of M containing the given subset."""
    elems = [i for i in range(sl.size) if mask >> i & 1]
    closed = set(elems)
    frontier = list(elems)
    while frontier:
        x = frontier.pop()
        for y in list(closed):
            m = sl.meet(x, y)
            if m not in closed:
                closed.add(m)
                frontier.append(m)
    out = 0
    for x in closed:
        out |= sl.up_mask(x)
    return out


def lattice_sup(lattice: FilterLattice, member_indices) -> int:
    """Supremum in Fil(M) of a set of filters: the filter their union generates."""
    union = 0
    for i in member_indices:
        union |= lattice.filters[i]
    if union == 0:
        return lattice.minimum_index()
    return lattice.index_of(_filter_generated(lattice.semilattice, union))


@dataclass(frozen=True)
class ModestReport:
    """Compact-element and predecessor bookkeeping for a filter lattice."""

    compact_elements: tuple[int, ...]
    immediate_predecessor_counts: tuple[int, ...]  # aligned with compact_elements
    is_modest: bool
    max_elements: tuple[int, ...]
    witness_point: int
    witness_compact_below: int
    witness_family_order: int
    clopen_filter_family: SeparatingFamily
    sup_definition_agrees: Optional[bool]  # None when the literal check is capped out


def compact_elements_clopen(lattice: FilterLattice) -> tuple[int, ...]:
    """Compact elements via the clopen characterization: in a finite
    (discrete) lattice every up-set is clopen, so all non-minimum elements
    qualify."""
    m = lattice.minimum_index()
    return tuple(i for i in range(lattice.size) if i != m)


def compact_elements_by_sup(lattice: FilterLattice,
                            exhaustive_cap: int = 10) -> tuple[int, ...]:
    """Compact elements from the literal definition: a > 0 such that every
    subset with supremum a admits a finite subfamily with the same supremum.

    For each subset S the witnessing subfamily is searched in order of
    increasing cardinality (F = S always terminates the search, every set
    here being finite).  Quadratic-exponential, hence the low cap.
    """
    if lattice.size > exhaustive_cap:
        raise CapExceededError(
            f"literal sup-definition check capped at {exhaustive_cap} lattice points"
        )
    from itertools import combinations

    n = lattice.size
    minimum = lattice.minimum_index()
    ok = [True] * n
    for smask in range(1 << n):
        idxs = [i for i in range(n) if smask >> i & 1]
        a = lattice_sup(lattice, idxs)
        if a == minimum:
            continue
        witnessed = False
        for size in range(len(idxs) + 1):
            for sub in combinations(idxs, size):
                if lattice_sup(lattice, sub) == a:
                    witnessed = True
                    break
            if witnessed:
                break
        if not witnessed:
            ok[a] = False
    return tuple(i for i in range(n) if i != minimum and ok[i])


def modest_analysis(lattice: FilterLattice) -> ModestReport:
    """Compact elements, immediate-predecessor counts, maximal elements, and
    the witness data for the closed-discrete generator family.

    The family G consists of the empty filter of the lattice plus the
    principal up-set of each compact element (the improper filter, the
    whole lattice, is excluded).  The witness point is a maximal element p
    maximizing the number of compact elements below it; the order of p in
    G equals that count.
    """
    compact = compact_elements_clopen(lattice)
    try:
        by_sup = compact_elements_by_sup(lattice)
        sup_agrees = by_sup == compact
    except CapExceededError:
        sup_agrees = None  # literal check skipped above the cap
    lower_covers = transpose(upper_covers(lattice.filters), lattice.size)
    pred_counts = tuple(lower_covers[i].bit_count() for i in compact)
    is_modest = True  # every immediate-predecessor set is finite here; counts reported
    up = supersets(lattice.filters)
    maxima = tuple(i for i in range(lattice.size) if up[i] == 1 << i)
    members = [Member("G:empty", 0)]
    members += [Member(f"G:up:{lattice.label(a)}", up[a]) for a in compact]
    pts = PointSet(lattice.size, tuple(lattice.label(i) for i in range(lattice.size)))
    family = SeparatingFamily(pts, tuple(members))

    best_point = maxima[0]
    best_count = -1
    for p in maxima:
        fp = lattice.filters[p]
        count = sum(1 for a in compact if lattice.filters[a] & ~fp == 0)
        if count > best_count:
            best_count = count
            best_point = p
    pbit = 1 << best_point
    family_order = sum(1 for m in members if m.bits & pbit)
    return ModestReport(
        compact_elements=compact,
        immediate_predecessor_counts=pred_counts,
        is_modest=is_modest,
        max_elements=maxima,
        witness_point=best_point,
        witness_compact_below=best_count,
        witness_family_order=family_order,
        clopen_filter_family=family,
        sup_definition_agrees=sup_agrees,
    )
