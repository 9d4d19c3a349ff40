"""Bitmask kernels shared by every layer.

A set over indices 0..n-1 is an int whose bit i marks index i.  Every
layer works on the same matrix of points against members, one mask per
row; these are the jobs on it that more than one module needs.  The
oracles in ``stonelab.oracles`` deliberately recompute the same answers
without this module.

Wide masks are cheaper to read through their ``bin()`` digits than bit by
bit, because the bit loop copies the whole int once per set bit.  Where each
kernel switches:

* ``points``: a mask of up to 64 bits is joined from per-byte index tables;
  a wider one takes the bit loop when sparse, with fewer than one bit in
  eight set, and picks its indices with ``itertools.compress`` when dense.
* ``index_text`` (and ``set_label``): density is judged on the mask's span,
  from its lowest to its highest set bit, and a single index is written
  alone.  A sparse mask takes the bit loop; a dense one with few runs, at
  least 16 set bits per run of ones, is sliced run by run out of a
  per-separator text of every index; any other dense mask picks its
  decimals over the span out of a table with ``itertools.compress``.
* ``transpose``: a matrix of at least 4,096 cells with one bit in eight set
  is padded to the width as digits and read back column by column; smaller
  or sparser ones take the bit loop.
"""

from __future__ import annotations

from itertools import accumulate, compress

# bin() digits to the 0/1 bytes compress() takes as selectors
_DIGIT_FLAGS = bytes.maketrans(b"01", b"\0\1")
# str(i) for i below the widest dense mask written so far; replaced by a
# longer tuple, never mutated, so a concurrent reader sees a whole table
_DECIMALS: tuple[str, ...] = ()
# Per byte position p below the widest mask ``points`` has read (two at
# least), the index tuple of each byte value with 8 * p added; grown like
# _DECIMALS
_POINT_TABLES: tuple[tuple[tuple[int, ...], ...], ...] = ()
_POINT_TABLE_BYTES = 8  # masks past 64 bits take the bit loop or compress
# Per separator, the text "0{sep}1{sep}..." up to the widest run-path mask
# written with it so far, and where each str(i) starts in it (one start past
# the last index too); grown like _DECIMALS
_RUN_TEXTS: dict[str, tuple[str, tuple[int, ...]]] = {}
# Set bits per run of ones from which slicing runs beats compress: a run costs
# a few Python steps, an index a C-level step; at half density and 576 bits,
# runs of 8 were 1.6 times slower by runs, of 12 about even, of 16 and 24
# 0.8 and 0.66 times the compress time
_RUN_ONES = 16
# Below this many cells the bit loop costs about what the digits do, one bit
# in eight set or not: a 32 x 24 matrix of singletons and halves (one bit in
# six) takes 26 us looped and 52 us by digits, a 64 x 64 one at 13% about
# 100 us either way
_DIGIT_CELLS = 4096


def iter_bits(mask: int):
    """The indices of the set bits of ``mask``, in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def points(mask: int) -> tuple[int, ...]:
    """``tuple(iter_bits(mask))``, joined from per-byte index tables: the
    index lister every other module calls.

    The bit loop copies the whole int once per set bit; the tables make a
    mask of up to 64 bits a handful of tuple joins, and a wider dense mask
    is read once through its ``bin()`` digits.
    """
    tables = _POINT_TABLES or _point_tables(2)
    if mask < 0x10000:
        return tables[0][mask & 255] + tables[1][mask >> 8]
    size = (mask.bit_length() + 7) >> 3
    if size > _POINT_TABLE_BYTES:
        if mask.bit_count() * 8 < mask.bit_length():
            return tuple(iter_bits(mask))
        flags = bin(mask)[:1:-1].encode().translate(_DIGIT_FLAGS)
        return tuple(compress(range(len(flags)), flags))
    if len(tables) < size:
        tables = _point_tables(size)
    return sum(map(tuple.__getitem__, tables, mask.to_bytes(size, "little")), ())


def _point_tables(size: int):
    """_POINT_TABLES grown to ``size`` byte positions: a longer copy."""
    global _POINT_TABLES
    held = _POINT_TABLES
    _POINT_TABLES = held + tuple(
        tuple(tuple(8 * p + i for i in range(8) if byte >> i & 1) for byte in range(256))
        for p in range(len(held), size))
    return _POINT_TABLES


def index_text(mask: int, sep: str = ",") -> str:
    """``sep.join(map(str, iter_bits(mask)))``: the indices of ``mask`` as
    decimal text, without building an int per index when the mask is dense."""
    low = (mask & -mask).bit_length() - 1
    if not mask & (mask - 1):  # no index, or one
        return str(low) if mask else ""
    top = mask.bit_length()
    ones = mask.bit_count()
    if ones * 8 < top - low:
        return sep.join(map(str, iter_bits(mask)))
    if (mask & ~(mask << 1)).bit_count() * _RUN_ONES <= ones:
        return _run_text(bin(mask)[:1:-1], sep)
    decimals = _DECIMALS
    if len(decimals) < top:
        decimals = _decimals(top)
    digits = bin(mask)[-1 - low:1:-1]  # bits low..top-1, lowest first
    return sep.join(compress(decimals[low:top], digits.encode().translate(_DIGIT_FLAGS)))


def _decimals(width: int) -> tuple[str, ...]:
    """_DECIMALS, grown to ``width`` entries at least."""
    global _DECIMALS
    decimals = _DECIMALS
    if len(decimals) < width:
        decimals = _DECIMALS = decimals + tuple(map(str, range(len(decimals), width)))
    return decimals


def _run_text(digits: str, sep: str) -> str:
    """``index_text`` of the mask whose reversed ``bin()`` digits are
    ``digits``, one slice of the separator's run text per run of ones."""
    text, starts = _RUN_TEXTS.get(sep, ("", (0,)))
    if len(starts) <= len(digits):
        decimals = _decimals(len(digits))[:len(digits)]
        text = sep.join(decimals)
        starts = tuple(accumulate((len(d) + len(sep) for d in decimals), initial=0))
        _RUN_TEXTS[sep] = text, starts
    cut = len(sep)
    runs = []
    find = digits.find
    first = find("1")
    while first >= 0:
        stop = find("0", first)
        if stop < 0:
            stop = len(digits)
        runs.append(text[starts[first]:starts[stop] - cut])
        first = find("1", stop)
    return sep.join(runs)


def set_label(mask: int) -> str:
    """``{0,2,5}``-style label of a set mask."""
    return "{" + index_text(mask) + "}"


def transpose(rows, width: int) -> list[int]:
    """Columns of a bit matrix: bit r of column c is bit c of ``rows[r]``.

    ``width`` is the number of columns; every row must fit in it.
    """
    cells = len(rows) * width
    if cells >= _DIGIT_CELLS and sum(map(int.bit_count, rows)) * 8 >= cells:
        # Dense: column c's digits, last row first, sit at place width-1-c of
        # the rows' padded texts, so the columns come out in reverse.
        texts = [format(row, f"0{width}b") for row in reversed(rows)]
        cols = [int("".join(digits), 2) for digits in zip(*texts)]
        cols.reverse()
        return cols
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
        for e in points(s):
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
        for j in points(above):
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


def unseparated_pair(signatures) -> tuple[int, int] | None:
    """The least pair x < y of indices with equal signatures, or None when
    all differ: the two least indices of the first class of
    ``signature_classes`` with two or more."""
    if len(set(signatures)) == len(signatures):
        return None
    cls = next(cls for cls in signature_classes(signatures) if cls & (cls - 1))
    rest = cls & (cls - 1)
    return (cls ^ rest).bit_length() - 1, (rest & -rest).bit_length() - 1


def extend_cells(cells, b: int):
    """The split cells of a free sequence extended by the term ``b``, or
    None when the extension is not free.

    The split cells of a_0..a_{k-1} inside ``full`` are the k+1 products
    D_beta = a_0 & ... & a_{beta-1} & ~a_beta & ... & ~a_{k-1}; the sequence
    is free exactly when every one of them is nonzero (the other front/back
    splits are dominated by these).  Appending b puts b at the back of every
    split and opens one more, so the new cells are
    ``[D_0 & ~b, ..., D_k & ~b, D_k & b]``.  The empty sequence has the one
    cell ``(full,)``.
    """
    last = cells[-1] & b
    if not last:
        return None
    out = []
    for d in cells:
        d &= ~b
        if not d:
            return None
        out.append(d)
    out.append(last)
    return tuple(out)


def is_free(masks, full: int) -> bool:
    """Whether the sequence of sets ``masks`` inside ``full`` is free: the
    fold of ``extend_cells`` from the empty sequence's cell ``(full,)``.
    """
    if not full:
        return False
    cells = (full,)
    for b in masks:
        cells = extend_cells(cells, b)
        if cells is None:
            return False
    return True
