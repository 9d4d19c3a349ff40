"""Bitmask kernels shared by every layer.

A set over indices 0..n-1 is an int whose bit i marks index i.  Every
layer works on the same matrix of points against members, one mask per
row; these are the jobs on it that more than one module needs.  The
oracles in ``stonelab.oracles`` deliberately recompute the same answers
without this module.
"""

from __future__ import annotations


def iter_bits(mask: int):
    """The indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_label(mask: int) -> str:
    """``{0,2,5}``-style label of a set mask."""
    return "{" + ",".join(map(str, iter_bits(mask))) + "}"


def transpose(rows, width: int) -> list[int]:
    """Columns of a bit matrix: bit r of column c is bit c of ``rows[r]``.

    ``width`` is the number of columns; every row must fit in it.
    """
    cols = [0] * width
    for r, row in enumerate(rows):
        bit = 1 << r
        while row:  # iter_bits inlined: the generator costs 20-40% here
            low = row & -row
            cols[low.bit_length() - 1] |= bit
            row ^= low
    return cols


def supersets(sets) -> list[int]:
    """Per set i, the mask of the indices j with ``sets[i]`` a subset of
    ``sets[j]`` (i itself included): the principal up-set of i under
    inclusion.

    The AND of the holder columns of the elements of ``sets[i]``, so it
    costs one wide AND per element instead of one subset test per pair.
    """
    sets = list(sets)
    width = max((s.bit_length() for s in sets), default=0)
    holders = transpose(sets, width)  # holders[e]: the j with e in sets[j]
    everything = (1 << len(sets)) - 1
    out = []
    for s in sets:
        up = everything
        for e in iter_bits(s):
            up &= holders[e]
        out.append(up)
    return out


def upper_covers(sets) -> list[int]:
    """Per set i, the mask of the indices j covering it under inclusion:
    ``sets[i]`` is a proper subset of ``sets[j]`` and no set lies strictly
    between them.  Equal sets never cover each other.

    The strict up-set of i minus the strict up-sets of its members.
    """
    sets = list(sets)
    same: dict[int, int] = {}
    for j, s in enumerate(sets):
        same[s] = same.get(s, 0) | 1 << j
    strict = [up & ~same[s] for up, s in zip(supersets(sets), sets)]
    out = []
    for above in strict:
        beyond = 0
        for j in iter_bits(above):
            beyond |= strict[j]
        out.append(above & ~beyond)
    return out


def signature_classes(signatures) -> list[int]:
    """Partition of the indices by equal signature.

    ``signatures[p]`` is index p's row, for example the mask of the members
    containing point p; two indices share a class exactly when no member
    separates them.  Classes are masks, ordered by their least index.
    """
    classes: dict[int, int] = {}
    for p, sig in enumerate(signatures):
        if sig in classes:
            classes[sig] |= 1 << p
        else:
            classes[sig] = 1 << p
    return list(classes.values())


def is_free(masks, full: int) -> bool:
    """Whether the sequence of sets ``masks`` inside ``full`` is free.

    Every maximal front/back split must leave a nonzero product of the
    front terms and the complements of the back terms; the other splits
    are dominated by these.
    """
    k = len(masks)
    suffix = [full] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] & (masks[i] ^ full)
    prefix = full
    for beta in range(k + 1):
        if prefix & suffix[beta] == 0:
            return False
        if beta < k:
            prefix &= masks[beta]
    return True
