"""Independent brute-force oracles used by the self-test suite and the tests.

Each oracle recomputes a quantity by a different route than the main
implementation: fixpoint closure instead of pattern partitions, full
subfamily enumeration or pair-branching backtracking over budgets
0, 1, 2, ... instead of the solver's signature-class descent, raw subset
scans instead of structured DFS.
"""

from __future__ import annotations

from itertools import permutations

from .errors import NAIVE_LENGTH, OracleMismatchError, ValidationError


def closure_generates(atom_count: int, masks) -> bool:
    """Close the generators under meet, join and complement to a fixpoint
    and report whether the result is the whole powerset."""
    full = (1 << atom_count) - 1
    target = 1 << atom_count
    closed = {0, full}
    work = [m for m in set(masks) if m not in closed]
    closed.update(work)
    while work:
        if len(closed) == target:
            return True
        x = work.pop()
        new = {x & y for y in closed}
        new |= {x | y for y in closed}
        new.add(x ^ full)
        new -= closed
        closed |= new
        work.extend(new)
    return len(closed) == target


def exhaustive_min_max_order(pool: GeneratorPool, max_points: int = 6,
                             max_pool: int = 12):
    """Minimum max-order over all separating subfamilies, by enumerating
    every subfamily mask.  Returns None when no subfamily separates."""
    n = pool.points.size
    m = pool.size
    if n > max_points or m > max_pool:
        raise ValidationError(
            f"exhaustive oracle capped at {max_points} points / {max_pool} candidates"
        )
    contains = []  # per point: mask of candidates containing it
    for p in range(n):
        cmask = 0
        for i, c in enumerate(pool.candidates):
            if c.bits >> p & 1:
                cmask |= 1 << i
        contains.append(cmask)
    best = None
    for sub in range(1 << m):
        sigs = [contains[p] & sub for p in range(n)]
        if len(set(sigs)) != n:
            continue
        value = max(s.bit_count() for s in sigs)
        if best is None or value < best:
            best = value
    return best


def backtracking_min_max_order(pool: GeneratorPool):
    """Minimum max-order by pair-branching backtracking, for pools past the
    exhaustive oracle's caps.

    Decides budgets k = 0, 1, 2, ... from scratch.  Each decision run
    tracks per-point orders and branches on the unseparated pair with the
    fewest feasible covering candidates, trying them in pool order.
    Returns None when no subfamily separates.
    """
    n = pool.points.size
    bits = [c.bits for c in pool.candidates]
    pairs = [(x, y) for x in range(n) for y in range(x + 1, n)]
    covers = {
        (x, y): [i for i, b in enumerate(bits) if (b >> x & 1) != (b >> y & 1)]
        for (x, y) in pairs
    }
    if any(not covers[p] for p in pairs):
        return None
    members = [[p for p in range(n) if b >> p & 1] for b in bits]

    def decide(k):
        orders = [0] * n
        chosen: list[int] = []

        def separated(x, y):
            return any((bits[i] >> x & 1) != (bits[i] >> y & 1) for i in chosen)

        def solve():
            open_pairs = [p for p in pairs if not separated(*p)]
            if not open_pairs:
                return True
            best = None
            for p in open_pairs:
                feasible = [
                    i for i in covers[p]
                    if i not in chosen and all(orders[q] < k for q in members[i])
                ]
                if best is None or len(feasible) < len(best):
                    best = feasible
                    if not feasible:
                        break
            for i in best:
                chosen.append(i)
                for q in members[i]:
                    orders[q] += 1
                if solve():
                    return True
                for q in members[i]:
                    orders[q] -= 1
                chosen.pop()
            return False

        return solve()

    for k in range(len(bits) + 1):
        if decide(k):
            return k
    raise AssertionError("a separating pool succeeds at k = pool size")


def upsets_bruteforce(size: int, up_masks) -> set[int]:
    """All up-closed subsets by scanning every subset mask."""
    out = set()
    for mask in range(1 << size):
        ok = True
        for i in range(size):
            if mask >> i & 1 and up_masks[i] & ~mask:
                ok = False
                break
        if ok:
            out.add(mask)
    return out


def prime_filters_by_enumeration(lattice):
    """All prime filters of a segment lattice FS(P), by enumerating every
    up-set of its inclusion order with ``upsets_bruteforce``.

    Keeps the nonempty proper up-sets closed under intersection, tests
    primality literally (x | y in F implies x in F or y in F), and reads off
    each filter's minimum, which must be some [p, ->).  Returns the filter
    masks ordered by that p.
    """
    segs = lattice.sets
    m = len(segs)
    if m > 16:
        raise ValidationError("prime-filter oracle capped at 16 lattice elements")
    index = {seg: i for i, seg in enumerate(segs)}
    up = [sum(1 << j for j in range(m) if segs[i] & ~segs[j] == 0) for i in range(m)]
    full = (1 << m) - 1
    primes = []
    for fmask in upsets_bruteforce(m, up):
        if fmask == 0 or fmask == full:
            continue
        idxs = [i for i in range(m) if fmask >> i & 1]
        if any(not fmask >> index[segs[i] & segs[j]] & 1 for i in idxs for j in idxs):
            continue
        if any(
            fmask >> index[segs[i] | segs[j]] & 1 and not (fmask >> i & 1 or fmask >> j & 1)
            for i in range(m)
            for j in range(m)
        ):
            continue
        minimum = full
        for i in idxs:
            minimum &= segs[i]
        base = [p for p in range(lattice.poset.size) if lattice.poset.up[p] == minimum]
        if not base:
            raise OracleMismatchError(f"prime filter minimum {minimum:b} is not some [p,->)")
        primes.append((base[0], fmask))
    return tuple(fmask for _, fmask in sorted(primes))


def paths_bruteforce(forest) -> set[int]:
    """All downward-closed chains of a forest by scanning every subset."""
    out = set()
    for mask in range(1 << forest.size):
        nodes = [t for t in range(forest.size) if mask >> t & 1]
        closed = all(forest.ancestors[t] & ~mask == 0 for t in nodes)
        chain = all(
            forest.ancestors[a] >> b & 1 or forest.ancestors[b] >> a & 1
            for i, a in enumerate(nodes)
            for b in nodes[i + 1 :]
        )
        if closed and chain:
            out.add(mask)
    return out


def strict_orders(n: int):
    """All labeled strict partial orders on n points, as tuples of up-masks
    (reflexive closure included)."""
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for choice in range(1 << len(pairs)):
        rel = [[False] * n for _ in range(n)]
        ok = True
        for idx, (i, j) in enumerate(pairs):
            if choice >> idx & 1:
                rel[i][j] = True
        for i, j in pairs:
            if rel[i][j] and rel[j][i]:
                ok = False
                break
        if ok:
            for i in range(n):
                for j in range(n):
                    if rel[i][j]:
                        for k in range(n):
                            if rel[j][k] and not rel[i][k]:
                                ok = False
            if ok:
                up = []
                for i in range(n):
                    m = 1 << i
                    for j in range(n):
                        if rel[i][j]:
                            m |= 1 << j
                    up.append(m)
                out.append(tuple(up))
    return out


def posets_up_to_iso(n: int):
    """Representatives of the isomorphism classes of posets on n points."""
    seen = set()
    reps = []
    for up in strict_orders(n):
        canon = None
        for perm in permutations(range(n)):
            img = [0] * n
            for i in range(n):
                m = 0
                for j in range(n):
                    if up[i] >> j & 1:
                        m |= 1 << perm[j]
                img[perm[i]] = m
            key = tuple(img)
            if canon is None or key < canon:
                canon = key
        if canon not in seen:
            seen.add(canon)
            reps.append(up)
    return reps


def rooted_tree_shapes(n: int):
    """Parent arrays for all rooted trees on n nodes, up to isomorphism.

    Shapes are canonical forms: a tree is the sorted tuple of its subtree
    shapes.  Counts follow 1, 1, 2, 4, 9, 20, ...
    """
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def tree_shapes(k: int):
        if k == 1:
            return frozenset({()})
        out = set()
        for forest in forest_shapes(k - 1):
            out.add(forest)
        return frozenset(out)

    @lru_cache(maxsize=None)
    def forest_shapes(total: int, max_part: int = None):
        """Multisets (sorted tuples) of tree shapes with sizes summing to total."""
        if max_part is None:
            max_part = total
        if total == 0:
            return frozenset({()})
        out = set()
        for part in range(min(total, max_part), 0, -1):
            for t in tree_shapes(part):
                for rest in forest_shapes(total - part, part):
                    candidate = tuple(sorted((t,) + rest))
                    out.add(candidate)
        return frozenset(out)

    def to_parents(shape):
        parents = [None]
        def attach(children, parent_idx):
            for c in children:
                idx = len(parents)
                parents.append(parent_idx)
                attach(c, idx)
        attach(shape, 0)
        return parents

    return [to_parents(s) for s in sorted(tree_shapes(n))]


def ultrafilter_closure(atom_count: int, atoms: int) -> int:
    """The closure of a set A of ultrafilters of the ``atom_count``-atom
    algebra, each named by its atom and A given as a mask of atoms, from
    the membership formula: p is in cl(A) iff every element holding p
    meets A.  Evaluated literally over all 2^n elements, not through the
    space being discrete, so ``closure(A) == A`` is a genuine check."""
    out = 0
    for p in range(atom_count):
        pbit = 1 << p
        if all(mask & atoms for mask in range(1 << atom_count) if mask & pbit):
            out |= pbit
    return out


def point_sequence_is_free_by_closure(algebra, atoms) -> bool:
    """Check a point sequence's freeness literally via the closure formula:
    every front/back split must have disjoint closures."""
    atoms = list(atoms)

    def closure(part):
        return ultrafilter_closure(algebra.atom_count, sum({1 << a for a in part}))

    return not any(closure(atoms[:beta]) & closure(atoms[beta:])
                   for beta in range(len(atoms) + 1))


def clopen_table_by_assignments(generator_count: int, sigma, tau) -> int:
    """Truth table of the conjunction of the generators in sigma and the
    negations of those in tau, by evaluating it at every assignment.
    Generator i alone is ``sigma = {i}``, ``tau = {}``."""
    table = 0
    for a in range(1 << generator_count):
        if all(a >> i & 1 for i in sigma) and not any(a >> i & 1 for i in tau):
            table |= 1 << a
    return table


def sigma_tree_by_enumeration(full: int, pool_bits, limit: int):
    """Nodes of the free-sequence tree over a pool, from the definitions.

    Equal pool entries are merged (first occurrence kept).  Every injective
    tuple of pool indices of length at most ``limit`` is kept when each pair
    of index sets S, T with every position of S before every position of T
    has a nonzero product of the S terms and the T complements; the kept
    tuples are sorted, which is preorder with children by increasing index.
    """
    terms = list(dict.fromkeys(pool_bits))
    tuples = [
        seq for length in range(max(limit, 0) + 1)
        for seq in permutations(range(len(terms)), length)
    ]
    return tuple(sorted(seq for seq in tuples
                        if _free_by_all_pairs(full, [terms[i] for i in seq])))


def is_free_sequence_naive(algebra, terms, cap: int = NAIVE_LENGTH.default) -> bool:
    """Literal definition of a free sequence of algebra elements: every
    pair of finite sets S, T with each element of S below each element of
    T gives a nonzero split product.  Empty S and T are included.
    Exponential; test oracle only."""
    if any(t.algebra != algebra for t in terms):
        raise ValidationError("algebra mismatch")
    NAIVE_LENGTH.check(len(terms), cap)
    return _free_by_all_pairs(algebra.full_mask, [t.bits for t in terms])


def _free_by_all_pairs(full: int, masks) -> bool:
    k = len(masks)
    for s in range(1 << k):
        front = full
        for i in range(k):
            if s >> i & 1:
                front &= masks[i]
        above = s.bit_length()  # T may use only the positions after max(S)
        for t in range(1 << (k - above)):
            prod = front
            for j in range(k - above):
                if t >> j & 1:
                    prod &= full ^ masks[above + j]
            if prod == 0:
                return False
    return True
