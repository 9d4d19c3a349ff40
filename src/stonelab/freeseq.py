"""Free sequences in finite Boolean algebras.

A sequence (a_0, ..., a_{k-1}) is free when every front/back split has a
nonzero product of front terms and back complements.  Only the k+1 maximal
splits matter: products shrink as the index sets grow, so an arbitrary pair
(S, T) with S wholly below T dominates the maximal split at max(S)+1.  The
naive all-pairs check is kept apart as an oracle,
``oracles.is_free_sequence_naive``, and ``selftest`` compares the two.

The maximal splits give the split cells D_beta = a_0 & ... & a_{beta-1} &
~a_beta & ... & ~a_{k-1}, pairwise disjoint, and the invariant of every
search here is that a free sequence carries its cells, all nonzero.
Appending b keeps the sequence free exactly when every D_beta & ~b and
D_k & b are nonzero, and those are the new cells (``bits.extend_cells``).
So the searches extend cells down the tree instead of checking each
sequence from scratch, and find all the terms that extend a node at once:
term i extends it when it meets D_k and contains no D_beta.

``longest_free_sequence`` returns the terms of a longest free sequence,
and ``sigma_tree`` the tree of all of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional, Sequence

from .algebra import Element, FiniteBooleanAlgebra
from .bits import extend_cells, is_free, points, transpose
from .errors import FREE_POOL_ATOMS, SIGMA_NODES, AlgebraMismatchError
from .families import PointedSystem
from .trees import FiniteForest, sigma_system


def _check_terms(algebra: FiniteBooleanAlgebra, terms):
    for t in terms:
        if t.algebra != algebra:
            raise AlgebraMismatchError("algebra mismatch")


def is_free_sequence(algebra: FiniteBooleanAlgebra, terms: Sequence[Element]) -> bool:
    """Freeness via the maximal splits only; equivalent to the all-pairs
    definition (asserted against the naive oracle in tests)."""
    _check_terms(algebra, terms)
    return is_free([t.bits for t in terms], algebra.full_mask)


def _extensions(terms, full: int):
    """A function from the split cells of a free sequence over ``terms`` to
    the mask of the indices i such that appending ``terms[i]`` keeps it free.

    That is ``meets[D_k] & AND(misses[D_beta])``, where ``meets[c]`` holds
    the terms meeting the cell c and ``misses[c]`` the terms not containing
    it.  Both are filled per cell on first use, from the atom columns of the
    terms; the same cells recur all over a search.
    """
    holders = transpose(terms, full.bit_length())  # holders[e]: the i with e in terms[i]
    everything = (1 << len(terms)) - 1
    meets: dict[int, int] = {}
    misses: dict[int, int] = {}

    def extensions(cells) -> int:
        last = cells[-1]
        fit = meets.get(last)
        if fit is None:
            fit = 0
            for e in points(last):
                fit |= holders[e]
            meets[last] = fit
        for d in cells:
            miss = misses.get(d)
            if miss is None:
                inside = everything
                for e in points(d):
                    inside &= holders[e]
                miss = misses[d] = everything ^ inside
            fit &= miss
            if not fit:
                break
        return fit

    return extensions


def _free_sequences(terms, full: int, limit: int):
    """Every free sequence of terms from ``terms`` of length at most
    ``limit``, as a tuple of indices, in preorder: a sequence, then its
    extensions by increasing index, each followed by its own.

    An explicit stack of (sequence, cells, extensions not yet visited), so
    no recursion depth grows with the input.
    """
    extensions = _extensions(terms, full)
    yield ()
    if limit <= 0:
        return
    stack = [((), (full,), extensions((full,)))]
    while stack:
        node, cells, todo = stack[-1]
        if not todo:
            stack.pop()
            continue
        low = todo & -todo
        stack[-1] = (node, cells, todo ^ low)
        i = low.bit_length() - 1
        child = node + (i,)
        yield child
        if len(child) < limit:
            child_cells = extend_cells(cells, terms[i])
            stack.append((child, child_cells, extensions(child_cells)))


def longest_free_sequence(algebra: FiniteBooleanAlgebra,
                          pool: Optional[Sequence[Element]] = None) -> tuple[Element, ...]:
    """The terms of a maximum-length free sequence over the pool, by
    exhaustive DFS.

    The default pool is every nonconstant element, under the free pool's
    atom cap.  Candidates are tried in popcount-descending order (earlier
    terms must stay jointly large), and the first longest sequence in that
    order is returned.  A free sequence of length k yields k+1 pairwise
    disjoint nonzero split cells and repeats no term, so k is at most
    min(atom_count - 1, |candidates|); the search stops as soon as that
    bound is attained, since no later sequence is longer.
    """
    if pool is None:
        FREE_POOL_ATOMS.check(algebra.atom_count)
        masks = range(1, algebra.full_mask)  # nonconstant elements
    else:
        pool = list(pool)
        _check_terms(algebra, pool)
        masks = {e.bits for e in pool}
    candidates = sorted(masks, key=lambda m: (-m.bit_count(), m))
    bound = min(algebra.atom_count - 1, len(candidates))
    best: tuple[int, ...] = ()
    for node in _free_sequences(candidates, algebra.full_mask, len(candidates)):
        if len(node) > len(best):
            best = node
        if len(best) >= bound:
            break
    return tuple(Element(algebra, candidates[i]) for i in best)


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

    pool_bits: tuple[int, ...]
    nodes: tuple[tuple[int, ...], ...]

    @property
    def size(self) -> int:
        return len(self.nodes)

    def to_forest(self) -> FiniteForest:
        index = {node: i for i, node in enumerate(self.nodes)}
        return FiniteForest(
            [None if not node else index[node[:-1]] for node in self.nodes]
        )


def sigma_tree(algebra: FiniteBooleanAlgebra, pool: Sequence[Element],
               node_cap: int = SIGMA_NODES.default) -> SigmaTree:
    """Build the tree of all free sequences with terms from the pool, each
    at most atom_count - 1 long.

    Nodes come in preorder, children by increasing pool index.  Each node
    carries its split cells, all nonzero; a child's cells are its parent's
    cells minus the new term, plus the parent's last cell inside it, and
    the children of a node are exactly the terms that meet its last cell
    and contain none of its cells.
    """
    pool = list(pool)
    _check_terms(algebra, pool)
    bits = list(dict.fromkeys(e.bits for e in pool))  # equal elements give the same sequences
    limit = algebra.atom_count - 1
    nodes = list(islice(_free_sequences(bits, algebra.full_mask, limit), node_cap + 1))
    SIGMA_NODES.check(len(nodes), node_cap)
    return SigmaTree(tuple(bits), tuple(nodes))


def sigma_squared(tree: SigmaTree) -> PointedSystem:
    """Path space of the free-sequence tree with its canonical family.

    The maximal order equals the tree height, i.e. one more than the
    longest free sequence in the pool (the empty path is included, matching
    the path-space convention).
    """
    return sigma_system(tree.to_forest())
