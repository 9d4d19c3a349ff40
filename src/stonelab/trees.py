"""Finite forests, their path spaces, and the initial chain algebra.

A path is a downward-closed chain of nodes; the path space consists of the
empty path plus the ancestor-closure of each node, so it has one more
point than the forest has nodes.  The subsets V_t = {paths containing t}
form the canonical generating family, and the order of a path equals its
length, so the maximal order is the height of the forest.  ``paths``
returns the path space as a plain ``SetSpace`` over the nodes, and
``initial_chain_algebra`` the atom partition of the subalgebra that the
strict-ancestor sets generate.
"""

from __future__ import annotations

from .algebra import Element, FiniteBooleanAlgebra, SubalgebraPartition, generated_subalgebra
from .errors import ATOMS, ValidationError
from .families import PointedSystem, SetSpace


class FiniteForest:
    """Nodes 0..n-1 with an optional parent each; ancestors of a node form a chain."""

    __slots__ = ("size", "parent", "ancestors")

    def __init__(self, parents):
        parent = []
        for p in parents:  # a root is None or the int -1, never -1.0
            if p is not None and (not isinstance(p, int) or isinstance(p, bool)):
                raise ValidationError(f"bad parent entry {p!r}")
            parent.append(None if p is None or p == -1 else p)
        n = len(parent)
        for i, p in enumerate(parent):
            if p is not None and not 0 <= p < n:
                raise ValidationError(f"parent of node {i} out of range")
            if p == i:
                raise ValidationError(f"node {i} is its own parent")
        ancestors = [None] * n
        for i in range(n):
            # Walk up only to the first node already resolved (or past a
            # root), then fill the walked chain top-down, so each node is
            # walked once.  A walk that meets itself loops: i is then the
            # first node in index order whose chain has a cycle.
            chain = {}  # the unresolved nodes from i up, in order
            t = i
            while t is not None and ancestors[t] is None:
                if t in chain:
                    raise ValidationError(f"parent chain of node {i} has a cycle")
                chain[t] = None
                t = parent[t]
            mask = 0 if t is None else ancestors[t] | 1 << t
            for s in reversed(chain):
                ancestors[s] = mask
                mask |= 1 << s
        self.size = n
        self.parent = tuple(parent)
        self.ancestors = tuple(ancestors)  # strict ancestor masks

    def depth(self, t: int) -> int:
        """Number of nodes on the path from the root to t, inclusive."""
        return self.ancestors[t].bit_count() + 1

    def height(self) -> int:
        """Nodes on a longest root-to-leaf path; 0 for the empty forest."""
        if self.size == 0:
            return 0
        return max(self.depth(t) for t in range(self.size))

    def __repr__(self):
        return f"FiniteForest(parents={list(self.parent)})"


def paths(forest: FiniteForest) -> SetSpace:
    """Enumerate the path space: all downward-closed chains of the forest
    as node masks, the empty path first, then the ancestor-closure of each
    node (every nonempty path is determined by its maximum).  Its
    generators are the V_t, one per node t."""
    masks = [0]
    for t in range(forest.size):
        masks.append(forest.ancestors[t] | (1 << t))
    return SetSpace(forest.size, tuple(masks))


def sigma_system(forest: FiniteForest) -> PointedSystem:
    """Points = path space, family = {V_t : t a node}.

    ord(A) = |A| for every path A, so the maximal order is the height.
    """
    return PointedSystem(paths(forest).family("V+"))


def initial_chain_algebra(forest: FiniteForest) -> SubalgebraPartition:
    """Subalgebra of the powerset of the node set generated by the
    strict-ancestor sets a_t, reported as an atom partition; it is the
    whole powerset when the partition ``is_full``."""
    if forest.size == 0:
        raise ValidationError("initial chain algebra needs at least one node")
    algebra = FiniteBooleanAlgebra(forest.size, cap=ATOMS.maximum)
    gens = tuple(Element(algebra, forest.ancestors[t]) for t in range(forest.size))
    return generated_subalgebra(algebra, gens)
