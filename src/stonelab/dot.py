"""DOT (graphviz) renderings of the package's order structures.

Hasse diagrams for segment and filter lattices, an inclusion diagram for
path spaces, and a bipartite membership graph for families.  Output is
deterministic text.
"""

from __future__ import annotations

from .bits import iter_bits, upper_covers
from .families import SeparatingFamily


def _escape(s: str) -> str:
    return s.replace('"', '\\"')


def hasse_dot(labels, subset_masks, name: str = "hasse") -> str:
    """Hasse diagram of a collection of sets ordered by inclusion.

    ``subset_masks[i]`` is the underlying set of node i; edges are the
    covering inclusions, drawn bottom to top; equal sets get no edge.
    """
    lines = [f"digraph {name} {{", "  rankdir=BT;", '  node [shape=box];']
    for i in range(len(subset_masks)):
        lines.append(f'  n{i} [label="{_escape(labels[i])}"];')
    for i, above in enumerate(upper_covers(subset_masks)):
        lines.extend(f"  n{i} -> n{j};" for j in iter_bits(above))
    lines.append("}")
    return "\n".join(lines) + "\n"


def forest_dot(forest, name: str = "forest") -> str:
    """Parent edges of a forest, roots at the top."""
    lines = [f"digraph {name} {{", "  rankdir=TB;"]
    for t in range(forest.size):
        lines.append(f'  n{t} [label="{t}"];')
    for t, p in enumerate(forest.parent):
        if p is not None:
            lines.append(f"  n{p} -> n{t};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def bipartite_dot(family: SeparatingFamily, name: str = "membership") -> str:
    """Generator-membership bipartite graph of a family over its points."""
    lines = [f"graph {name} {{", "  rankdir=LR;"]
    for p in range(family.points.size):
        lines.append(
            f'  p{p} [label="{_escape(family.points.label(p))}", shape=circle];'
        )
    for i, m in enumerate(family.members):
        lines.append(f'  m{i} [label="{_escape(m.label)}", shape=box];')
    for i, m in enumerate(family.members):
        lines.extend(f"  m{i} -- p{p};" for p in iter_bits(m.bits))
    lines.append("}")
    return "\n".join(lines) + "\n"
