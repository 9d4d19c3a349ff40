import random

import pytest

from stonelab import (
    FiniteForest,
    ValidationError,
    initial_chain_algebra,
    paths,
    sigma_system,
)
from stonelab.families import is_t0_separating, order_profile
from stonelab.oracles import paths_bruteforce, rooted_tree_shapes


def chain_forest(n):
    """The n-node path: node i's parent is i - 1."""
    return FiniteForest([None] + list(range(n - 1)))


class TestForest:
    def test_cycle_rejected(self):
        with pytest.raises(ValidationError):
            FiniteForest([1, 0])

    def test_self_parent_rejected(self):
        with pytest.raises(ValidationError):
            FiniteForest([0])

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            FiniteForest([None, 7])

    def test_chain_heights(self):
        for n in range(1, 6):
            assert chain_forest(n).height() == n

    def test_empty(self):
        f = FiniteForest([])
        assert f.size == 0 and f.height() == 0

    def test_ancestors_are_chains(self):
        f = FiniteForest([None, 0, 0, 1, 1, 2, 2])
        assert f.ancestors[3] == 0b0011
        assert f.ancestors[6] == 0b0101
        assert f.depth(6) == 3


def ancestors_by_walk(parents):
    """Strict ancestor masks, each walked up from its own node."""
    out = []
    for t in parents:
        mask = 0
        while t is not None:
            mask |= 1 << t
            t = parents[t]
        out.append(mask)
    return out


def test_ancestors_against_the_walk_from_each_node():
    """200 seeded random forests: each node's parent is a lower node or
    none, then the nodes are relabeled, so chains run in any index order."""
    rng = random.Random(200)
    for _ in range(200):
        n = rng.randint(0, 40)
        parent = [None if t == 0 or rng.random() < 0.15 else rng.randrange(t) for t in range(n)]
        label = rng.sample(range(n), n)
        parents = [None] * n
        for t, p in enumerate(parent):
            parents[label[t]] = None if p is None else label[p]
        assert list(FiniteForest(parents).ancestors) == ancestors_by_walk(parents)


@pytest.mark.parametrize("parents, node", [
    ([1, 0], 0),
    ([None, 2, 3, 1], 1),  # node 0 is a root
    ([1, 2, 3, 2], 0),  # 0 leads into the loop 2 -> 3 -> 2
    ([None, 0, 4, 2, 3], 2),
])
def test_cycle_names_the_first_looping_node(parents, node):
    with pytest.raises(ValidationError, match=rf"^parent chain of node {node} has a cycle$"):
        FiniteForest(parents)


class TestPaths:
    def test_root_with_two_children(self):
        assert paths(FiniteForest([None, 0, 0])).size == 4

    def test_complete_binary_seven(self):
        assert paths(FiniteForest([None, 0, 0, 1, 1, 2, 2])).size == 8

    def test_empty_tree(self):
        space = paths(FiniteForest([]))
        assert space.size == 1 and space.sets == (0,)

    def test_count_is_nodes_plus_one(self):
        for parents in rooted_tree_shapes(5):
            assert paths(FiniteForest(parents)).size == 6
        # forests too
        assert paths(FiniteForest([None, None, 1])).size == 4

    def test_matches_bruteforce(self):
        cases = [
            [None, 0, 0],
            [None, 0, 1, 1],
            [None, None, 0, 1],
            [None, 0, 0, 2, 2],
        ]
        for parents in cases:
            f = FiniteForest(parents)
            assert set(paths(f).sets) == paths_bruteforce(f)


class TestSigmaSystem:
    def test_binary_seven_max_order(self):
        sys_ = sigma_system(FiniteForest([None, 0, 0, 1, 1, 2, 2]))
        assert order_profile(sys_.family).max_order == 3

    def test_chain_tree(self):
        for n in range(1, 7):
            sys_ = sigma_system(chain_forest(n))
            assert order_profile(sys_.family).max_order == n

    def test_empty_tree(self):
        sys_ = sigma_system(FiniteForest([]))
        assert sys_.points.size == 1
        assert sys_.family.size == 0

    def test_order_equals_path_length(self):
        for parents in rooted_tree_shapes(5):
            f = FiniteForest(parents)
            space = paths(f)
            prof = order_profile(sigma_system(f).family)
            for idx, mask in enumerate(space.sets):
                assert prof.per_point[idx] == bin(mask).count("1")

    def test_t0_separating(self):
        for parents in rooted_tree_shapes(4):
            assert is_t0_separating(sigma_system(FiniteForest(parents)).family).separating


class TestInitialChainAlgebra:
    def test_chain_three_full(self):
        forest = chain_forest(3)
        partition = initial_chain_algebra(forest)
        assert partition.is_full()
        assert partition.blocks == (1, 2, 4)
        assert forest.ancestors == (0b000, 0b001, 0b011)  # the generators a_t

    def test_two_root_antichain_trivial(self):
        partition = initial_chain_algebra(FiniteForest([None, None]))
        assert not partition.is_full()
        assert partition.block_count == 1

    def test_single_node_trivial(self):
        assert initial_chain_algebra(FiniteForest([None])).block_count == 1

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            initial_chain_algebra(FiniteForest([]))

    def test_branching_tree_not_full(self):
        # siblings share the ancestor set, so they are never separated
        assert not initial_chain_algebra(FiniteForest([None, 0, 0])).is_full()


def test_tree_shape_counts():
    assert [len(rooted_tree_shapes(n)) for n in range(1, 7)] == [1, 1, 2, 4, 9, 20]
