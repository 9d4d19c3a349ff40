"""DOT (graphviz) renderings of the package's order structures.

Hasse diagrams for segment and filter lattices, an inclusion diagram for
path spaces, and a bipartite membership graph for families.  Output is
deterministic text.
"""

from __future__ import annotations

from .bits import points
from .families import SeparatingFamily, SetSpace


def _escape(s: str) -> str:
    return s.replace('"', '\\"')


def hasse_dot(space: SetSpace, name: str = "hasse") -> str:
    """Hasse diagram of a set space ordered by inclusion.

    Node i is the point ``space.sets[i]``; edges are the covering
    inclusions, drawn bottom to top; equal sets get no edge.
    """
    lines = [f"digraph {name} {{", "  rankdir=BT;", '  node [shape=box];']
    lines.extend(f'  n{i} [label="{_escape(label)}"];' for i, label in enumerate(space.labels))
    for i, above in enumerate(space.covers):
        lines.extend(f"  n{i} -> n{j};" for j in points(above))
    lines.append("}")
    return "\n".join(lines) + "\n"


def forest_dot(forest) -> str:
    """Parent edges of a forest, roots at the top."""
    lines = ["digraph forest {", "  rankdir=TB;"]
    for t in range(forest.size):
        lines.append(f'  n{t} [label="{t}"];')
    for t, p in enumerate(forest.parent):
        if p is not None:
            lines.append(f"  n{p} -> n{t};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def bipartite_dot(family: SeparatingFamily) -> str:
    """Generator-membership bipartite graph of a family over its points."""
    lines = ["graph membership {", "  rankdir=LR;"]
    for p in range(family.points.size):
        lines.append(
            f'  p{p} [label="{_escape(family.points.label(p))}", shape=circle];'
        )
    for i, m in enumerate(family.members):
        lines.append(f'  m{i} [label="{_escape(m.label)}", shape=box];')
    for i, m in enumerate(family.members):
        lines.extend(f"  m{i} -- p{p};" for p in points(m.bits))
    lines.append("}")
    return "\n".join(lines) + "\n"
