import random

import pytest

from stonelab import (
    CapExceededError,
    FiniteBooleanAlgebra,
    FiniteForest,
    FinitePoset,
    GeneratorPool,
    PoolInsufficientError,
    ValidationError,
    decision_max_order_at_most,
    min_max_order,
    preset_pool,
)
from stonelab.bits import iter_bits
from stonelab.families import Member, PointSet, is_t0_separating, order_profile
from stonelab.oracles import backtracking_min_max_order, exhaustive_min_max_order
from stonelab.solver import _Kernel

from helpers import meet_chain


def pool_from_masks(npts, masks, tag="custom"):
    pts = PointSet(npts)
    return GeneratorPool(pts, tuple(Member(f"c{i}", m) for i, m in enumerate(masks)), tag)


def random_pool(rng, max_points=6, with_singletons=True):
    n = rng.randint(2, max_points)
    masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 12 - n))]
    if with_singletons:
        masks += [1 << p for p in range(n)]
    else:
        while True:  # repair separation to a fixpoint
            sigs = {}
            dup = None
            for p in range(n):
                sig = tuple(m >> p & 1 for m in masks)
                if sig in sigs:
                    dup = p
                    break
                sigs[sig] = p
            if dup is None:
                break
            masks.append(1 << dup)
    return pool_from_masks(n, masks)


class TestDecision:
    def test_all_subsets_budget_one(self):
        pool = preset_pool("free", FiniteBooleanAlgebra(4))
        res = decision_max_order_at_most(pool, 1)
        assert res.achievable
        assert order_profile(res.family).max_order <= 1
        assert is_t0_separating(res.family).separating

    def test_chain_upsets_budget_two_fails(self):
        pool = preset_pool("upsets", FinitePoset.chain(3))
        assert not decision_max_order_at_most(pool, 2).achievable

    def test_large_budget_equals_separability(self):
        rng = random.Random(4)
        for _ in range(50):
            pool = random_pool(rng)
            assert decision_max_order_at_most(pool, pool.size).achievable

    def test_insufficient_pool(self):
        pool = pool_from_masks(3, [0b011])
        with pytest.raises(PoolInsufficientError) as exc:
            decision_max_order_at_most(pool, 3)
        assert exc.value.witness == (0, 1)

    def test_insufficient_pool_least_pair(self):
        # classes {0, 3} and {1, 2} stay unsplit; (0, 3) is the least pair
        pool = pool_from_masks(4, [0b0110])
        for solve in (lambda: decision_max_order_at_most(pool, 2),
                      lambda: min_max_order(pool),
                      lambda: min_max_order(pool, mode="greedy")):
            with pytest.raises(PoolInsufficientError) as exc:
                solve()
            assert exc.value.witness == (0, 3)

    def test_negative_budget(self):
        pool = pool_from_masks(2, [0b01])
        with pytest.raises(ValidationError):
            decision_max_order_at_most(pool, -1)


class TestMinMaxOrder:
    def test_all_subsets_value_one(self):
        pool = preset_pool("free", FiniteBooleanAlgebra(5))
        res = min_max_order(pool)
        assert res.value == 1 and res.exact

    def test_upsets_over_chain(self):
        for n in range(2, 7):
            pool = preset_pool("upsets", FinitePoset.chain(n))
            assert min_max_order(pool).value == n

    def test_tree_pool_binary_seven(self):
        pool = preset_pool("tree", FiniteForest([None, 0, 0, 1, 1, 2, 2]))
        assert min_max_order(pool).value == 3

    def test_witness_invariants(self):
        rng = random.Random(21)
        for _ in range(40):
            pool = random_pool(rng, with_singletons=False)
            res = min_max_order(pool)
            assert is_t0_separating(res.family).separating
            assert order_profile(res.family).max_order == res.value

    def test_exact_matches_exhaustive(self):
        rng = random.Random(33)
        for i in range(120):
            pool = random_pool(rng, with_singletons=i % 2 == 0)
            assert min_max_order(pool).value == exhaustive_min_max_order(pool)

    def test_monotone_in_pool_extension(self):
        rng = random.Random(9)
        for _ in range(50):
            pool = random_pool(rng, max_points=5, with_singletons=False)
            bigger = GeneratorPool(
                pool.points,
                pool.candidates
                + (Member("extra", rng.randrange(1 << pool.points.size)),),
                pool.preset_tag,
            )
            assert min_max_order(bigger).value <= min_max_order(pool).value

    def test_singleton_pools_give_one(self):
        rng = random.Random(2)
        for _ in range(30):
            pool = random_pool(rng, with_singletons=True)
            assert min_max_order(pool).value == 1

    def test_greedy_upper_bounds_exact(self):
        rng = random.Random(56)
        for _ in range(60):
            pool = random_pool(rng, with_singletons=False)
            greedy = min_max_order(pool, mode="greedy")
            exact = min_max_order(pool, mode="exact")
            assert not greedy.exact and exact.exact
            assert greedy.value >= exact.value
            assert is_t0_separating(greedy.family).separating

    def test_exact_caps(self):
        pool = pool_from_masks(13, [1 << p for p in range(13)])
        with pytest.raises(CapExceededError):
            min_max_order(pool)
        res = min_max_order(pool, max_points=13)
        assert res.value == 1

    def test_determinism(self):
        rng = random.Random(64)
        for _ in range(20):
            pool = random_pool(rng)
            a = min_max_order(pool)
            b = min_max_order(pool)
            assert a.value == b.value
            assert a.nodes_explored == b.nodes_explored
            assert [m.label for m in a.family.members] == [
                m.label for m in b.family.members
            ]


class TestPresets:
    def test_intervals_chain_four(self):
        pool = preset_pool("intervals", 4)
        assert pool.size == 4
        assert pool.points.size == 4
        assert pool.candidates[0].bits == 0b1111

    def test_upsets_antichain_two(self):
        pool = preset_pool("upsets", FinitePoset.antichain(2))
        assert pool.points.size == 4
        assert pool.size == 4  # one principal up-set per segment

    def test_tree_three_nodes(self):
        pool = preset_pool("tree", FiniteForest([None, 0, 0]))
        assert pool.points.size == 4
        assert pool.size == 3

    def test_filters_preset(self):
        pool = preset_pool("filters", meet_chain(3))
        assert pool.points.size == 4
        assert pool.size == 4  # empty member plus the three compact up-sets
        assert min_max_order(pool).value == 3

    def test_free_preset_cap(self):
        with pytest.raises(CapExceededError):
            preset_pool("free", FiniteBooleanAlgebra(13))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            preset_pool("mystery", 3)

    def test_kind_structure_mismatch(self):
        with pytest.raises(ValidationError):
            preset_pool("tree", FinitePoset.chain(2))
        with pytest.raises(ValidationError):
            preset_pool("intervals", FiniteForest([None]))


def assert_certified(pool, res):
    labels = {c.label for c in pool.candidates}
    assert {m.label for m in res.family.members} <= labels
    assert is_t0_separating(res.family).separating
    assert order_profile(res.family).max_order == res.value


def assert_matches_reference(pool):
    """The descent solver agrees with the pair-branching reference method,
    on the optimum and on insufficient pools, and certifies its witness."""
    ref = backtracking_min_max_order(pool)
    caps = dict(max_points=pool.points.size, max_pool=pool.size)
    if ref is None:
        with pytest.raises(PoolInsufficientError):
            min_max_order(pool, **caps)
        return
    res = min_max_order(pool, **caps)
    assert res.exact and res.value == ref
    assert_certified(pool, res)
    greedy = min_max_order(pool, mode="greedy")
    assert greedy.value >= res.value
    assert_certified(pool, greedy)


class TestReferenceCrossCheck:
    """Past the exhaustive oracle's 6 x 12 caps, against the reference
    backtracking method of ``oracles``."""

    @pytest.mark.parametrize("singletons", [True, False])
    def test_random_pools(self, singletons):
        rng = random.Random(1104 + singletons)
        for _ in range(80 if singletons else 240):
            n = rng.randint(2, 10)
            extra = rng.randint(0, 24 - n) if singletons else rng.randint(n, 24)
            masks = [rng.randrange(1 << n) for _ in range(extra)]
            if singletons:
                masks += [1 << p for p in range(n)]
            assert_matches_reference(pool_from_masks(n, masks))

    @pytest.mark.parametrize("kind", ["upsets", "intervals"])
    def test_chain_presets(self, kind):
        for n in range(1, 9):
            structure = FinitePoset.chain(n) if kind == "upsets" else n
            assert_matches_reference(preset_pool(kind, structure))

    def test_random_forests(self):
        rng = random.Random(77)
        for _ in range(40):
            size = rng.randint(1, 11)
            parents = [None] + [
                None if rng.random() < 0.2 else rng.randrange(i) for i in range(1, size)
            ]
            assert_matches_reference(preset_pool("tree", FiniteForest(parents)))

    def test_decision_brackets_the_optimum(self):
        rng = random.Random(5)
        for _ in range(60):
            n = rng.randint(3, 9)
            pool = pool_from_masks(
                n, [rng.randrange(1 << n) for _ in range(rng.randint(n, 20))]
            )
            value = backtracking_min_max_order(pool)
            if value is None:
                continue
            hit = decision_max_order_at_most(pool, value)
            assert hit.achievable
            assert order_profile(hit.family).max_order <= value
            assert is_t0_separating(hit.family).separating
            assert not decision_max_order_at_most(pool, value - 1).achievable


class ReferenceKernel(_Kernel):
    """The search node and the greedy loop as they were before each node
    read its class from point tables and greedy kept its scores, copied
    verbatim: today's kernel must walk the same tree and make the same
    picks."""

    @staticmethod
    def refine(classes, c: int):
        """Split every class by candidate mask c; the part inside c gains
        one order."""
        out = []
        for cls, o in classes:
            inside = cls & c
            if not inside:
                out.append((cls, o))
                continue
            if inside != cls:
                out.append((cls ^ inside, o))
            out.append((inside, o + 1))
        return out

    def branch(self, classes, free: int, k: int, capacity) -> int | None:
        """Candidates to branch on at one search node, given the ``free``
        candidates: those covering the open pair with the fewest free
        covering candidates.  0 when the node is refuted, None when every
        class is a single point.

        Counting bound: the c points of a class of order o need distinct
        traces over its t free splitting candidates, each of weight at
        most k - o, so ``capacity[t][k - o] < c`` refutes the node.
        """
        best = None
        fewest = len(self.bits) + 1
        for cls, o in classes:
            if not cls & (cls - 1):
                continue
            pts = list(iter_bits(cls))
            splitters = 0
            for a, x in enumerate(pts):
                row = self.cov[x]
                for y in pts[a + 1:]:
                    cover = row[y] & free
                    count = cover.bit_count()
                    if count < fewest:
                        if not count:
                            return 0
                        best, fewest = cover, count
                    if not a:
                        splitters |= cover
            if capacity[splitters.bit_count()][k - o] < len(pts):
                return 0
        return best

    def decide(self, k: int) -> tuple[list[int] | None, int]:
        """Depth-first search for a T0 family with max order <= k.

        Returns the chosen candidates (None when refuted) and the nodes
        explored.  A candidate is feasible when it contains no point of
        order k; each branch also excludes its earlier, refuted siblings.
        """
        m = len(self.bits)
        everything = (1 << m) - 1
        # capacity[t][r]: 0/1 vectors of length t and weight <= r
        capacity = [[1] * (k + 1)]
        for _ in range(m):
            prev = capacity[-1]
            capacity.append([1] + [prev[r] + prev[r - 1] for r in range(1, k + 1)])
        classes = [(self.full, 0)]
        blocked = excluded = 0  # candidates touching a point of order k; refuted
        stack = []  # per depth: [classes, blocked, excluded, untried, chosen]
        nodes = 0
        while True:
            nodes += 1
            untried = self.branch(classes, everything & ~(blocked | excluded), k, capacity)
            if untried is None:
                return [frame[4] for frame in stack], nodes
            if untried:
                stack.append([classes, blocked, excluded, untried, -1])
            while stack and not stack[-1][3]:
                stack.pop()
            if not stack:
                return None, nodes
            frame = stack[-1]
            low = frame[3] & -frame[3]
            frame[3] ^= low
            frame[2] |= low  # later siblings exclude this one
            frame[4] = j = low.bit_length() - 1
            c = self.bits[j]
            classes, blocked, excluded = self.refine(frame[0], c), frame[1], frame[2]
            for cls, o in classes:
                if o == k and cls & c:
                    for p in iter_bits(cls):
                        blocked |= self.contains[p]

    def greedy(self) -> list[int]:
        """Repeatedly take the candidate separating the most open pairs,
        the sum of |C & c| * |C - c| over the classes C; ties go to the
        least new maximum order, then to pool order."""
        classes = [(self.full, 0)]
        top = 0
        chosen = []
        while True:
            split = [cls for cls, _ in classes if cls & (cls - 1)]
            if not split:
                return chosen
            at_top = sum(cls for cls, o in classes if o == top)
            best = (0, 0, -1)  # gain, new max order, candidate
            for j, c in enumerate(self.bits):
                gain = 0
                for cls in split:
                    inside = cls & c
                    if inside and inside != cls:
                        gain += inside.bit_count() * (cls ^ inside).bit_count()
                if gain and gain >= best[0]:
                    new_max = top + 1 if c & at_top else top
                    if gain > best[0] or new_max < best[1]:
                        best = (gain, new_max, j)
            _, top, j = best
            chosen.append(j)
            classes = self.refine(classes, self.bits[j])


def identity_pool(rng):
    """A seeded pool of up to 14 points and 36 candidates, with duplicate
    and constant masks now and then; a quarter get every singleton, the
    rest are made separating with random masks instead.  Half are drawn
    at the solve benchmark's sizes, 12-14 points and 20-36 candidates."""
    while True:
        wide = rng.random() < 0.5
        n = rng.randint(12, 14) if wide else rng.randint(2, 11)
        full = (1 << n) - 1
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(20 if wide else 1, 31))]
        if rng.random() < 0.3:
            masks += rng.choices(masks, k=rng.randint(1, 3))
        if rng.random() < 0.3:
            masks += rng.sample([0, full], rng.randint(1, 2))
        if rng.random() < 0.25:
            masks += [1 << p for p in range(n)]
        else:
            while (pair := pool_from_masks(n, masks)._kernel.unseparated) is not None:
                x, y = pair
                masks.append((rng.randrange(1 << n) | 1 << x) & ~(1 << y))
        if len(masks) <= 36:
            rng.shuffle(masks)
            return pool_from_masks(n, masks)


def random_forest(rng, max_nodes):
    size = rng.randint(1, max_nodes)
    return FiniteForest([None] + [None if rng.random() < 0.1 else rng.randrange(i)
                                  for i in range(1, size)])


class TestSameSearch:
    """Today's ``decide`` and ``greedy`` against the verbatim reference:
    the same chosen candidates and node counts at every budget from 0 to
    the optimum + 1, and the same greedy picks."""

    def assert_same(self, pool, decide=True):
        kern, ref = pool._kernel, ReferenceKernel(pool)
        assert kern.greedy() == ref.greedy()
        if not decide:
            return
        value = min_max_order(pool, max_points=pool.points.size, max_pool=pool.size).value
        for k in range(value + 2):
            assert kern.decide(k) == ref.decide(k), k

    def test_random_pools(self):
        rng = random.Random(1415)
        for _ in range(320):
            self.assert_same(identity_pool(rng))

    @pytest.mark.parametrize("kind", ["upsets", "intervals"])
    def test_chain_presets(self, kind):
        for n in range(1, 21):
            self.assert_same(preset_pool(kind, FinitePoset.chain(n) if kind == "upsets" else n))

    def test_random_forests(self):
        rng = random.Random(40)
        for _ in range(40):
            self.assert_same(preset_pool("tree", random_forest(rng, 40)))

    def test_greedy_on_long_chains(self):
        for n in [*range(21, 40), 64, 100, 127, 128]:
            self.assert_same(preset_pool("intervals", n), decide=False)
            chain = FiniteForest([None, *range(n - 1)])
            self.assert_same(preset_pool("tree", chain), decide=False)


def test_greedy_on_the_longest_chains():
    """Greedy on the 1,024-chain: every tail [a, ->) but the whole chain is
    the only separator of a - 1 from a, and the chain-shaped tree needs
    all of its node sets; both run in under a second."""
    res = min_max_order(preset_pool("intervals", 1024), mode="greedy")
    assert [m.label for m in res.family.members] == [f"[{a},->)" for a in range(1, 1024)]
    assert (res.value, res.nodes_explored, res.exact) == (1023, 1023, False)
    pool = preset_pool("tree", FiniteForest([None, *range(1023)]))
    res = min_max_order(pool, mode="greedy")
    assert res.family.members == pool.candidates
    assert (res.value, res.nodes_explored, res.exact) == (1024, 1024, False)
    assert is_t0_separating(res.family).separating
