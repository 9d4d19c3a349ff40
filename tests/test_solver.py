import random

import pytest

from stonelab import (
    CapExceededError,
    FiniteBooleanAlgebra,
    FiniteForest,
    FinitePoset,
    GeneratorPool,
    MeetSemilattice,
    PoolInsufficientError,
    ValidationError,
    decision_max_order_at_most,
    min_max_order,
    preset_pool,
)
from stonelab.families import Member, PointSet, is_t0_separating, order_profile
from stonelab.oracles import backtracking_min_max_order, exhaustive_min_max_order


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
        pool = preset_pool("filters", MeetSemilattice.chain(3))
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
