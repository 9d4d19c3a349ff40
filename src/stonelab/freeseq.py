"""Free sequences in finite Boolean algebras.

A sequence (a_0, ..., a_{k-1}) is free when every front/back split has a
nonzero product of front terms and back complements.  The reduced check
only tests the k+1 maximal splits: products shrink as the index sets grow,
so an arbitrary pair (S, T) with S wholly below T dominates the maximal
split at max(S)+1.  The naive all-pairs check is kept as an oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import Element, FiniteBooleanAlgebra
from .bits import is_free
from .combinators import PointedSystem
from .errors import CapExceededError, ValidationError
from .trees import FiniteForest, sigma_system

NAIVE_LENGTH_CAP = 12
DEFAULT_POOL_ATOM_CAP = 5
DEFAULT_NODE_CAP = 100_000


@dataclass(frozen=True)
class FreeSequence:
    algebra: FiniteBooleanAlgebra
    terms: tuple[Element, ...]

    @property
    def length(self) -> int:
        return len(self.terms)


def _check_terms(algebra: FiniteBooleanAlgebra, terms):
    for t in terms:
        if t.algebra != algebra:
            raise ValidationError("algebra mismatch")


def is_free_sequence(algebra: FiniteBooleanAlgebra, terms: Sequence[Element]) -> bool:
    """Freeness via the maximal splits only; equivalent to the all-pairs
    definition (asserted against the naive oracle in tests)."""
    _check_terms(algebra, terms)
    return is_free([t.bits for t in terms], algebra.full_mask)


def is_free_sequence_naive(algebra: FiniteBooleanAlgebra, terms: Sequence[Element],
                           cap: int = NAIVE_LENGTH_CAP) -> bool:
    """Literal definition: every pair of finite sets S, T with each element
    of S below each element of T gives a nonzero split product.  Empty S
    and T are included.  Exponential; test oracle only."""
    _check_terms(algebra, terms)
    k = len(terms)
    if k > cap:
        raise CapExceededError(f"naive check capped at length {cap}")
    masks = [t.bits for t in terms]
    full = algebra.full_mask
    for s_mask in range(1 << k):
        prod_s = full
        for i in range(k):
            if s_mask >> i & 1:
                prod_s &= masks[i]
        # T ranges over subsets strictly above max(S); empty S allows any T
        positions = range(s_mask.bit_length(), k)
        for t_mask in _submasks(positions):
            prod = prod_s
            tm = t_mask
            while tm:
                low = tm & -tm
                prod &= masks[low.bit_length() - 1] ^ full
                tm ^= low
            if prod == 0:
                return False
    return True


def _submasks(positions):
    pos = list(positions)
    for choice in range(1 << len(pos)):
        mask = 0
        for idx, p in enumerate(pos):
            if choice >> idx & 1:
                mask |= 1 << p
        yield mask


def _default_pool(algebra: FiniteBooleanAlgebra):
    if algebra.atom_count > DEFAULT_POOL_ATOM_CAP:
        raise ValidationError(
            f"default pool only available for atom_count <= {DEFAULT_POOL_ATOM_CAP}; "
            "pass an explicit pool"
        )
    return [
        Element(algebra, m)
        for m in range(1, algebra.full_mask)  # nonconstant elements
    ]


def longest_free_sequence(algebra: FiniteBooleanAlgebra,
                          pool: Optional[Sequence[Element]] = None,
                          stop_at_bound: bool = True) -> FreeSequence:
    """Maximum-length free sequence over the pool, by exhaustive DFS.

    Candidates are tried in popcount-descending order (earlier terms must
    stay jointly large).  A free sequence of length k yields k+1 pairwise
    disjoint nonzero split cells, so k <= atom_count - 1; with
    ``stop_at_bound`` the search stops as soon as that bound is attained.
    """
    if pool is None:
        pool = _default_pool(algebra)
    else:
        pool = list(pool)
    _check_terms(algebra, pool)
    candidates = sorted(
        {e.bits for e in pool}, key=lambda m: (-m.bit_count(), m)
    )
    n = algebra.atom_count
    full = algebra.full_mask
    bound = min(n - 1, len(candidates))
    best: list[int] = []
    current: list[int] = []

    def search():
        nonlocal best
        if len(current) > len(best):
            best = list(current)
        if stop_at_bound and len(best) >= bound:
            return True
        for c in candidates:
            if c in current:
                continue
            current.append(c)
            if is_free(current, full) and search():
                return True
            current.pop()
        return False

    search()
    return FreeSequence(algebra, tuple(Element(algebra, m) for m in best))


def longest_free_point_sequence(algebra: FiniteBooleanAlgebra) -> int:
    """Length of the longest free sequence of points of the Stone space.

    The Stone space of a finite algebra is discrete: closures are the sets
    themselves, so any injective enumeration of the atoms has disjoint
    initial/terminal closures and the answer is the atom count.  Paired
    with ``longest_free_sequence`` this exhibits the n versus n-1 asymmetry
    between point and algebra sequences.
    """
    return algebra.atom_count


@dataclass(frozen=True)
class SigmaTree:
    """End-extension tree of pool-restricted free sequences.

    Nodes are tuples of pool indices; the root is the empty sequence and a
    child extends its parent by one term.
    """

    algebra: FiniteBooleanAlgebra
    pool_labels: tuple[str, ...]
    pool_bits: tuple[int, ...]
    nodes: tuple[tuple[int, ...], ...]
    depth_bound: Optional[int]

    @property
    def size(self) -> int:
        return len(self.nodes)

    def height(self) -> int:
        return 1 + max(len(n) for n in self.nodes)

    def to_forest(self) -> FiniteForest:
        index = {node: i for i, node in enumerate(self.nodes)}
        return FiniteForest(
            [None if not node else index[node[:-1]] for node in self.nodes]
        )


def sigma_tree(algebra: FiniteBooleanAlgebra, pool: Sequence[Element],
               depth_bound: Optional[int] = None,
               node_cap: int = DEFAULT_NODE_CAP,
               labels=None) -> SigmaTree:
    """Build the tree of all free sequences with terms from the pool."""
    pool = list(pool)
    _check_terms(algebra, pool)
    if labels is None:
        labels = [f"g{i}" for i in range(len(pool))]
    seen = set()
    bits = []
    kept_labels = []
    for e, lab in zip(pool, labels):  # equal elements give the same sequences
        if e.bits not in seen:
            seen.add(e.bits)
            bits.append(e.bits)
            kept_labels.append(lab)
    labels = kept_labels
    full = algebra.full_mask
    limit = depth_bound if depth_bound is not None else algebra.atom_count - 1
    nodes: list[tuple[int, ...]] = []

    def grow(node: tuple[int, ...], masks: list[int]):
        if len(nodes) >= node_cap:
            raise CapExceededError(f"sigma tree exceeds {node_cap} nodes")
        nodes.append(node)
        if len(node) >= limit:
            return
        for i, b in enumerate(bits):
            masks.append(b)
            if is_free(masks, full):
                grow(node + (i,), masks)
            masks.pop()

    grow((), [])
    return SigmaTree(algebra, tuple(labels), tuple(bits), tuple(nodes), depth_bound)


def sigma_squared(tree: SigmaTree) -> PointedSystem:
    """Path space of the free-sequence tree with its canonical family.

    The maximal order equals the tree height, i.e. one more than the
    longest free sequence in the pool (the empty path is included, matching
    the path-space convention).
    """
    return sigma_system(tree.to_forest())
