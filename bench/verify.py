"""Independent answer checks for the benchmark.

Everything here is recomputed from raw bit masks with plain loops.  Nothing
imports ``stonelab``: a check that reused the code it checks would pass
whenever that code is wrong in the same way twice.
"""

from __future__ import annotations

import hashlib
import json


class CheckError(Exception):
    """An answer disagrees with an independent recomputation or a reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def bits(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def set_label(mask: int) -> str:
    return "{" + ",".join(str(i) for i in bits(mask)) + "}"


def by_size(masks) -> list[int]:
    return sorted(masks, key=lambda m: (bin(m).count("1"), m))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# ------------------------------------------------------------- certificates

def orders_of(n: int, masks) -> list[int]:
    orders = [0] * n
    for m in masks:
        for p in bits(m):
            orders[p] += 1
    return orders


def is_t0(n: int, masks) -> bool:
    """Every pair of distinct points is split by some member, i.e. no two
    points lie in exactly the same members."""
    patterns = [0] * n
    for i, m in enumerate(masks):
        for p in bits(m):
            patterns[p] |= 1 << i
    return len(set(patterns)) == n


def check_witness(n: int, pool: dict, labels, value: int) -> list[int]:
    """A solver witness is a T0 subfamily of the pool with max order ``value``.

    ``pool`` maps candidate labels to masks built by this module.  Returns
    the per-point orders so callers can compare them with a report.
    """
    expect(len(set(labels)) == len(labels), "witness repeats a candidate")
    for lab in labels:
        expect(lab in pool, f"witness member {lab!r} is not in the pool")
    masks = [pool[lab] for lab in labels]
    expect(is_t0(n, masks), "witness family is not T0-separating")
    orders = orders_of(n, masks)
    expect(max(orders, default=0) == value,
           f"witness max order {max(orders, default=0)} != reported {value}")
    return orders


# -------------------------------------------------------------------- posets

def closure(size: int, pairs) -> list[int]:
    """Up-masks of the reflexive-transitive closure of p <= q pairs."""
    up = [1 << i for i in range(size)]
    for p, q in pairs:
        up[p] |= 1 << q
    for k in range(size):  # Warshall
        for i in range(size):
            if up[i] >> k & 1:
                up[i] |= up[k]
    return up


def upsets(up) -> list[int]:
    """All up-sets, as unions of the principal up-sets of an antichain."""
    n = len(up)
    out = []
    stack = [(0, 0, 0)]  # (next point, antichain mask, up-set)
    while stack:
        start, chosen, union = stack.pop()
        out.append(union)
        for p in range(start, n):
            if any(up[p] >> q & 1 or up[q] >> p & 1 for q in bits(chosen)):
                continue
            stack.append((p + 1, chosen | 1 << p, union | up[p]))
    return by_size(out)


def lower_covers(up, p: int) -> list[int]:
    below = [q for q in range(len(up)) if q != p and up[q] >> p & 1]
    return [q for q in below
            if not any(r != q and up[q] >> r & 1 for r in below)]


def cover_count(sets) -> int:
    """Covering pairs of a family of distinct sets under inclusion."""
    sets = list(sets)
    count = 0
    for a in sets:
        above = [b for b in sets if b != a and a & ~b == 0]
        count += sum(
            1 for b in above
            if not any(c != b and c & ~b == 0 for c in above)
        )
    return count


def principal_pool(generators, points, prefix: str) -> dict:
    """Member ``prefix + label(a)`` = the indices of the points (sets) containing a."""
    return {
        prefix + set_label(a): sum(1 << j for j, b in enumerate(points) if a & ~b == 0)
        for a in generators
    }


# ------------------------------------------------------------------- presets

def intervals_pool(n: int) -> tuple[int, dict]:
    full = (1 << n) - 1
    return n, {f"[{a},->)": full & ~((1 << a) - 1) for a in range(n)}


def upsets_pool(up) -> tuple[int, dict]:
    segs = upsets(up)
    return len(segs), principal_pool(segs, segs, "up:")


def free_pool(n: int) -> tuple[int, dict]:
    return n, {set_label(m): m for m in range(1 << n)}


def forest_paths(parents) -> list[int]:
    paths = [0]
    for t in range(len(parents)):
        mask, s = 0, t
        while s is not None and s >= 0:
            mask |= 1 << s
            s = parents[s]
        paths.append(mask)
    return paths


def forest_height(parents) -> int:
    return max((bin(m).count("1") for m in forest_paths(parents)), default=0)


def tree_pool(parents) -> tuple[int, dict]:
    paths = forest_paths(parents)
    pool = {}
    for t in range(len(parents)):
        pool[f"V+{t}"] = sum(1 << i for i, pm in enumerate(paths) if pm >> t & 1)
    return len(paths), pool


def semilattice_filters(meet) -> list[int]:
    """The empty set plus every meet-closed up-set, by brute force."""
    n = len(meet)
    up = [sum(1 << j for j in range(n) if meet[i][j] == i) for i in range(n)]
    out = []
    for mask in range(1 << n):
        members = bits(mask)
        if all(up[i] & ~mask == 0 for i in members) and all(
            mask >> meet[i][j] & 1 for i in members for j in members
        ):
            out.append(mask)
    return by_size(out)


def filters_pool(meet) -> tuple[int, dict]:
    """Empty member plus the principal up-set of each non-minimum filter."""
    fils = semilattice_filters(meet)
    pool = {"G:empty": 0}
    pool.update(principal_pool(fils[1:], fils, "G:up:"))
    return len(fils), pool


# --------------------------------------------------------- free sequences

def is_free(n: int, masks) -> bool:
    """Literal definition: every front/back split has a nonzero cell."""
    full = (1 << n) - 1
    k = len(masks)
    for s in range(1 << k):
        front = full
        for i in bits(s):
            front &= masks[i]
        for t in range(1 << k):
            if t & ((1 << s.bit_length()) - 1):
                continue  # back terms must come after every front term
            cell = front
            for i in bits(t):
                cell &= full ^ masks[i]
            if cell == 0:
                return False
    return True


def eval_formula(node, assignment: int) -> bool:
    """Evaluate a formula tree: ("g", i) | ("!", f) | ("&"|"|", f, g)."""
    op = node[0]
    if op == "g":
        return bool(assignment >> node[1] & 1)
    if op == "!":
        return not eval_formula(node[1], assignment)
    left = eval_formula(node[1], assignment)
    right = eval_formula(node[2], assignment)
    return left and right if op == "&" else left or right
