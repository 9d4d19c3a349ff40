"""Finite forests, their path spaces, and the initial chain algebra.

A path is a downward-closed chain of nodes; the path space consists of the
empty path plus the ancestor-closure of each node, so it has one more
point than the forest has nodes.  The subsets V_t = {paths containing t}
form the canonical generating family, and the order of a path equals its
length, so the maximal order is the height of the forest.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import Element, FiniteBooleanAlgebra, SubalgebraPartition, generated_subalgebra
from .bits import set_label, transpose
from .combinators import PointedSystem
from .errors import ValidationError
from .families import Member, PointSet, SeparatingFamily


class FiniteForest:
    """Nodes 0..n-1 with an optional parent each; ancestors of a node form a chain."""

    __slots__ = ("size", "parent", "ancestors")

    def __init__(self, parents):
        parent = []
        for p in parents:
            if p is None or p == -1:
                parent.append(None)
            elif isinstance(p, int) and not isinstance(p, bool):
                parent.append(p)
            else:
                raise ValidationError(f"bad parent entry {p!r}")
        n = len(parent)
        for i, p in enumerate(parent):
            if p is not None and not 0 <= p < n:
                raise ValidationError(f"parent of node {i} out of range")
            if p == i:
                raise ValidationError(f"node {i} is its own parent")
        ancestors = [None] * n
        for i in range(n):
            seen = 0
            mask = 0
            t = parent[i]
            while t is not None:
                bit = 1 << t
                if seen & bit or t == i:
                    raise ValidationError(f"parent chain of node {i} has a cycle")
                seen |= bit
                mask |= bit
                t = parent[t]
            ancestors[i] = mask
        self.size = n
        self.parent = tuple(parent)
        self.ancestors = tuple(ancestors)  # strict ancestor masks

    @classmethod
    def chain(cls, n: int) -> "FiniteForest":
        return cls([None] + list(range(n - 1)) if n else [])

    def roots(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.parent) if p is None)

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


@dataclass(frozen=True)
class PathSpace:
    """All downward-closed chains of a forest, the empty path included."""

    forest: FiniteForest
    paths: tuple[int, ...]  # node masks; paths[0] == 0

    @property
    def size(self) -> int:
        return len(self.paths)


def paths(forest: FiniteForest) -> PathSpace:
    """Enumerate the path space: the empty path, then the ancestor-closure
    of each node (every nonempty path is determined by its maximum)."""
    masks = [0]
    for t in range(forest.size):
        masks.append(forest.ancestors[t] | (1 << t))
    return PathSpace(forest, tuple(masks))


def sigma_system(forest: FiniteForest) -> PointedSystem:
    """Points = path space, family = {V_t : t a node}.

    ord(A) = |A| for every path A, so the maximal order is the height.
    """
    space = paths(forest)
    labels = tuple(set_label(m) for m in space.paths)
    pts = PointSet(space.size, labels)
    members = tuple(
        Member(f"V+{t}", mask) for t, mask in enumerate(transpose(space.paths, forest.size))
    )
    return PointedSystem(pts, SeparatingFamily(pts, members))


@dataclass(frozen=True)
class ChainAlgebraResult:
    algebra: FiniteBooleanAlgebra
    generators: tuple[Element, ...]  # strict-ancestor sets a_t
    partition: SubalgebraPartition
    generates_whole: bool


def initial_chain_algebra(forest: FiniteForest) -> ChainAlgebraResult:
    """Subalgebra of the powerset of the node set generated by the
    strict-ancestor sets, reported as an atom partition."""
    if forest.size == 0:
        raise ValidationError("initial chain algebra needs at least one node")
    algebra = FiniteBooleanAlgebra(forest.size, cap=max(64, forest.size))
    gens = tuple(Element(algebra, forest.ancestors[t]) for t in range(forest.size))
    part = generated_subalgebra(algebra, gens)
    return ChainAlgebraResult(algebra, gens, part, part.is_full())
