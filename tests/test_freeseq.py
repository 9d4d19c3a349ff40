import random

import pytest
from hypothesis import given, settings, strategies as st

from stonelab import (
    AlgebraMismatchError,
    CapExceededError,
    FiniteBooleanAlgebra,
    is_free_sequence,
    longest_free_point_sequence,
    longest_free_sequence,
    sigma_squared,
    sigma_tree,
)
from stonelab.families import order_profile
from stonelab.oracles import (
    is_free_sequence_naive,
    point_sequence_is_free_by_closure,
    sigma_tree_by_enumeration,
)


def chain_tails(B):
    n = B.atom_count
    return [B.element({a for a in range(i, n)}) for i in range(1, n)]


class TestFreenessCheck:
    def test_chain_tails_free(self):
        B = FiniteBooleanAlgebra(3)
        seq = chain_tails(B)
        assert is_free_sequence(B, seq)
        assert is_free_sequence_naive(B, seq)

    def test_repeated_term_not_free(self):
        B = FiniteBooleanAlgebra(3)
        a = B.element([0])
        assert not is_free_sequence(B, [a, a])
        assert not is_free_sequence_naive(B, [a, a])

    def test_empty_sequence_free(self):
        B = FiniteBooleanAlgebra(2)
        assert is_free_sequence(B, [])
        assert is_free_sequence_naive(B, [])

    def test_constants_never_free(self):
        B = FiniteBooleanAlgebra(3)
        assert not is_free_sequence(B, [B.element(0)])
        assert not is_free_sequence(B, [B.element(B.full_mask)])

    def test_term_of_another_algebra(self):
        B, C = FiniteBooleanAlgebra(3), FiniteBooleanAlgebra(2)
        for check in (is_free_sequence, sigma_tree):
            with pytest.raises(AlgebraMismatchError):
                check(B, [B.element([0]), C.element([1])])

    def test_naive_cap(self):
        B = FiniteBooleanAlgebra(2)
        with pytest.raises(CapExceededError):
            is_free_sequence_naive(B, [B.element(1)] * 13)

    def test_reduction_equals_naive_exhaustive_small(self):
        for n in range(1, 4):
            B = FiniteBooleanAlgebra(n)
            elements = [B.element(m) for m in range(1 << n)]
            seqs = [[]]
            for _ in range(3):
                seqs = [s + [e] for s in seqs for e in elements] + seqs
            seen = set()
            for seq in seqs:
                key = tuple(e.bits for e in seq)
                if key in seen:
                    continue
                seen.add(key)
                assert is_free_sequence(B, seq) == is_free_sequence_naive(B, seq)

    @settings(max_examples=300)
    @given(st.integers(1, 4), st.lists(st.integers(0, 15), max_size=5))
    def test_reduction_equals_naive_hypothesis(self, n, masks):
        B = FiniteBooleanAlgebra(n)
        terms = [B.element(m & B.full_mask) for m in masks]
        assert is_free_sequence(B, terms) == is_free_sequence_naive(B, terms)

    def test_reduction_equals_naive_random_longer(self):
        # 10^4 random sequences longer than the exhaustive sweep covers
        rng = random.Random(2718)
        for _ in range(10_000):
            n = rng.randint(1, 6)
            B = FiniteBooleanAlgebra(n)
            length = rng.randint(5, 12)
            terms = [B.element(rng.randrange(1 << n)) for _ in range(length)]
            assert is_free_sequence(B, terms) == is_free_sequence_naive(B, terms)

    def test_prefix_closure(self):
        rng = random.Random(3)
        for _ in range(200):
            n = rng.randint(2, 5)
            B = FiniteBooleanAlgebra(n)
            terms = [B.element(rng.randrange(1 << n)) for _ in range(rng.randint(0, 4))]
            if is_free_sequence(B, terms):
                for k in range(len(terms)):
                    assert is_free_sequence(B, terms[:k])


class TestLongestSearch:
    def test_full_pool_small(self):
        assert longest_free_sequence(FiniteBooleanAlgebra(3)).length == 2
        assert longest_free_sequence(FiniteBooleanAlgebra(2)).length == 1

    def test_chain_pool_reaches_bound(self):
        for n in range(2, 6):
            B = FiniteBooleanAlgebra(n)
            best = longest_free_sequence(B, pool=chain_tails(B))
            assert best.length == n - 1
            assert is_free_sequence(B, best.terms)

    def test_empty_pool(self):
        B = FiniteBooleanAlgebra(3)
        assert longest_free_sequence(B, pool=[]).length == 0

    def test_default_pool_cap(self):
        assert longest_free_sequence(FiniteBooleanAlgebra(12)).length == 11
        with pytest.raises(CapExceededError, match="atoms capped at 12"):
            longest_free_sequence(FiniteBooleanAlgebra(13))

    def test_result_is_free(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.randint(2, 4)
            B = FiniteBooleanAlgebra(n)
            pool = [B.element(rng.randrange(1 << n)) for _ in range(rng.randint(1, 6))]
            best = longest_free_sequence(B, pool=pool)
            assert is_free_sequence(B, best.terms)


class TestPointSequences:
    def test_value_is_atom_count(self):
        for n in range(1, 7):
            assert longest_free_point_sequence(FiniteBooleanAlgebra(n)) == n

    def test_closure_oracle_confirms(self):
        for n in range(1, 5):
            B = FiniteBooleanAlgebra(n)
            assert point_sequence_is_free_by_closure(B, list(range(n)))

    def test_asymmetry(self):
        B = FiniteBooleanAlgebra(3)
        assert longest_free_point_sequence(B) == 3
        assert longest_free_sequence(B).length == 2


class TestSigmaTree:
    def test_two_atoms_full_pool(self):
        B = FiniteBooleanAlgebra(2)
        pool = [B.element(m) for m in range(1, B.full_mask)]
        tree = sigma_tree(B, pool)
        assert tree.size == 3  # root plus the two singleton sequences
        assert tree.to_forest().height() == 2
        sys_ = sigma_squared(tree)
        assert order_profile(sys_.family).max_order == 2

    def test_empty_pool(self):
        B = FiniteBooleanAlgebra(2)
        tree = sigma_tree(B, [])
        assert tree.size == 1
        sys_ = sigma_squared(tree)
        assert sys_.points.size == 2  # the empty path and the root path

    def test_chain_pool_height(self):
        B = FiniteBooleanAlgebra(4)
        tree = sigma_tree(B, chain_tails(B))
        assert tree.to_forest().height() == 4  # 1 + longest free sequence (3)
        assert order_profile(sigma_squared(tree).family).max_order == 4

    def test_full_pool_height_matches_longest(self):
        for n in range(2, 5):
            B = FiniteBooleanAlgebra(n)
            pool = [B.element(m) for m in range(1, B.full_mask)]
            tree = sigma_tree(B, pool)
            assert tree.to_forest().height() == longest_free_sequence(B, pool=pool).length + 1

    def test_height_matches_longest_search(self):
        rng = random.Random(12)
        for _ in range(20):
            n = rng.randint(2, 4)
            B = FiniteBooleanAlgebra(n)
            pool = [B.element(rng.randrange(1 << n)) for _ in range(rng.randint(1, 5))]
            tree = sigma_tree(B, pool)
            best = longest_free_sequence(B, pool=pool)
            assert tree.to_forest().height() == best.length + 1

    def test_node_cap(self):
        B = FiniteBooleanAlgebra(4)
        pool = [B.element(m) for m in range(1, B.full_mask)]
        with pytest.raises(CapExceededError):
            sigma_tree(B, pool, node_cap=3)


def _longest_reference(algebra, pool, stop_at_bound=True):
    """``longest_free_sequence`` as it was before the cell search: recursive
    DFS checking every candidate sequence from scratch (the maximal-split
    check inlined)."""
    candidates = sorted({e.bits for e in pool}, key=lambda m: (-m.bit_count(), m))
    full = algebra.full_mask
    bound = min(algebra.atom_count - 1, len(candidates))
    best, current = [], []

    def free(masks):
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

    def search():
        nonlocal best
        if len(current) > len(best):
            best = list(current)
        if stop_at_bound and len(best) >= bound:
            return True
        for c in candidates:
            if c in current:
                continue
            current.append(c)
            if free(current) and search():
                return True
            current.pop()
        return False

    search()
    return best


class TestCellSearch:
    def test_longest_matches_reference(self):
        """The search stops at its bound; the reference's full search finds
        the same first longest sequence."""
        rng = random.Random(4242)
        cases = []
        for _ in range(300):
            n = rng.randint(1, 5)
            B = FiniteBooleanAlgebra(n)
            pool = [B.element(rng.randrange(1 << n)) for _ in range(rng.randint(0, 8))]
            cases.append((B, pool, longest_free_sequence(B, pool=pool)))
        for n in range(1, 5):
            B = FiniteBooleanAlgebra(n)
            pool = [B.element(m) for m in range(1, B.full_mask)]
            cases.append((B, pool, longest_free_sequence(B)))
        for B, pool, got in cases:
            for stop in (True, False):
                assert [t.bits for t in got.terms] == _longest_reference(B, pool, stop)

    def test_long_chain_without_recursion(self):
        B = FiniteBooleanAlgebra(1024, cap=1024)
        pool = [B.element(B.full_mask >> i << i) for i in range(1, 1024)]
        best = longest_free_sequence(B, pool=pool)
        assert best.length == 1023
        assert [t.bits for t in best.terms] == [e.bits for e in pool]

    def test_sigma_tree_every_three_atom_pool(self):
        B = FiniteBooleanAlgebra(3)
        elements = [B.element(m) for m in range(1, B.full_mask)]
        for choice in range(1 << len(elements)):
            pool = [e for j, e in enumerate(elements) if choice >> j & 1]
            expected = sigma_tree_by_enumeration(B.full_mask, [e.bits for e in pool], 2)
            assert sigma_tree(B, pool).nodes == expected

    def test_sigma_tree_seeded_pools(self):
        rng = random.Random(1717)
        for _ in range(200):
            n = rng.randint(1, 5)
            B = FiniteBooleanAlgebra(n)
            pool = [B.element(rng.randrange(1 << n)) for _ in range(rng.randint(0, 6))]
            constants = [B.element(0), B.element(B.full_mask)]
            pool += rng.sample(pool, min(len(pool), 2)) + constants[:rng.randint(0, 2)]
            rng.shuffle(pool)
            # enumerated past n - 1: no free sequence is longer
            expected = sigma_tree_by_enumeration(B.full_mask, [e.bits for e in pool], n + 1)
            assert sigma_tree(B, pool).nodes == expected

    def test_node_cap_boundary(self):
        B = FiniteBooleanAlgebra(4)
        pool = [B.element(m) for m in range(1, B.full_mask)]
        size = sigma_tree(B, pool).size
        assert sigma_tree(B, pool, node_cap=size).size == size
        with pytest.raises(CapExceededError, match=f"^sigma tree exceeds {size - 1} nodes$"):
            sigma_tree(B, pool, node_cap=size - 1)
