import itertools
import random

import pytest

from stonelab import (
    AlgebraMismatchError,
    FreeAlgebra,
    ValidationError,
    dense_small_support_check,
    min_support_ultrafilter,
)
from stonelab.oracles import clopen_table_by_assignments


class TestBasicClopen:
    def test_semantics(self):
        F = FreeAlgebra(3)
        w = F.basic_clopen({0}, {1})
        satisfying = [a for a in range(8) if w.table >> a & 1]
        assert len(satisfying) == 2
        assert all(a & 1 and not a >> 1 & 1 for a in satisfying)

    def test_empty_pair_is_one(self):
        F = FreeAlgebra(3)
        assert F.basic_clopen(set(), set()) == F.one

    def test_full_sigma_single_assignment(self):
        F = FreeAlgebra(3)
        w = F.basic_clopen({0, 1, 2}, set())
        assert bin(w.table).count("1") == 1

    def test_overlap_rejected(self):
        with pytest.raises(ValidationError):
            FreeAlgebra(3).basic_clopen({0, 1}, {1})

    def test_generator_semantics(self):
        F = FreeAlgebra(4)
        g2 = F.generator(2)
        for a in range(16):
            assert g2.table >> a & 1 == a >> 2 & 1


class TestMinSupport:
    def test_basic_example(self):
        F = FreeAlgebra(3)
        assert min_support_ultrafilter(F.basic_clopen({0}, {1})) == (0,)

    def test_one_has_empty_support(self):
        F = FreeAlgebra(4)
        assert min_support_ultrafilter(F.one) == ()

    def test_forced_full_support(self):
        F = FreeAlgebra(3)
        assert min_support_ultrafilter(F.basic_clopen({0, 1, 2}, set())) == (0, 1, 2)

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            min_support_ultrafilter(FreeAlgebra(2).zero)

    def test_exact_vs_exhaustive_random_tables(self):
        from stonelab.freealg import FreeElement

        rng = random.Random(77)
        for s in range(1, 13):
            F = FreeAlgebra(s)
            for _ in range(30):
                if s <= 4:
                    table = rng.randrange(1, 1 << (1 << s))
                else:
                    table = 0  # sparse random tables for larger s
                    for _ in range(rng.randint(1, 10)):
                        table |= 1 << rng.randrange(1 << s)
                support = min_support_ultrafilter(FreeElement(F, table))
                brute = min(
                    bin(a).count("1") for a in range(1 << s) if table >> a & 1
                )
                assert len(support) == brute

    def test_choice_against_every_satisfying_assignment(self):
        """The chosen assignment is the least in weight, then in the
        lexicographic order of supports, over all satisfying assignments."""
        rng = random.Random(1409)
        for s in range(1, 9):
            F = FreeAlgebra(s)

            def formula(depth):
                if depth == 0 or rng.random() < 0.25:
                    g = F.generator(rng.randrange(s))
                    return ~g if rng.random() < 0.4 else g
                left, right = formula(depth - 1), formula(depth - 1)
                return left & right if rng.random() < 0.7 else left | right

            def basic():  # one forced support: small weights are rare in formula()
                signs = [rng.randrange(3) for _ in range(s)]
                return F.basic_clopen([i for i in range(s) if signs[i] == 1],
                                      [i for i in range(s) if signs[i] == 2])

            sample = [formula(5) for _ in range(40)] + [basic() | basic() for _ in range(20)]
            for w in sample:
                if w.table == 0:
                    continue
                best = min(
                    (tuple(i for i in range(s) if a >> i & 1)
                     for a in range(1 << s) if w.table >> a & 1),
                    key=lambda support: (len(support), support),
                )
                assert min_support_ultrafilter(w) == best

    def test_anti_monotone_in_the_clopen_set(self):
        rng = random.Random(5)
        F = FreeAlgebra(4)
        from stonelab.freealg import FreeElement

        for _ in range(100):
            big = rng.randrange(1, 1 << 16)
            sub = big
            # random nonzero subset of the satisfying assignments
            bits = [a for a in range(16) if big >> a & 1]
            keep = rng.sample(bits, rng.randint(1, len(bits)))
            sub = 0
            for a in keep:
                sub |= 1 << a
            big_support = min_support_ultrafilter(FreeElement(F, big))
            sub_support = min_support_ultrafilter(FreeElement(F, sub))
            assert len(sub_support) >= len(big_support)


class TestDensityCheck:
    def test_exhaustive_s3(self):
        rep = dense_small_support_check(3)
        assert rep.pairs_checked == 27  # 3^3 disjoint (sigma, tau) pairs
        assert rep.failures == ()

    def test_empty_sigma_gives_zero(self):
        F = FreeAlgebra(3)
        assert min_support_ultrafilter(F.basic_clopen(set(), {2})) == ()

    def test_forced_pair(self):
        F = FreeAlgebra(2)
        assert min_support_ultrafilter(F.basic_clopen({0, 1}, set())) == (0, 1)

    def test_sampled_mode_above_cap(self):
        rep = dense_small_support_check(6)
        assert rep.pairs_checked == 500
        assert rep.failures == ()


def test_validation():
    with pytest.raises(ValidationError):
        FreeAlgebra(0)
    with pytest.raises(ValidationError):
        FreeAlgebra(17)
    with pytest.raises(ValidationError):
        FreeAlgebra(3).generator(3)


def test_elements_of_two_algebras():
    a, b = FreeAlgebra(3).generator(0), FreeAlgebra(2).generator(0)
    for op in (a.meet, a.join):
        with pytest.raises(AlgebraMismatchError):
            op(b)


class TestTablesAgainstAssignments:
    def test_every_generator(self):
        for s in range(1, 13):
            F = FreeAlgebra(s)
            for i in range(s):
                assert F.generator(i).table == clopen_table_by_assignments(s, {i}, set())

    def test_every_disjoint_pair_small(self):
        for s in range(1, 6):
            F = FreeAlgebra(s)
            for marks in itertools.product((0, 1, 2), repeat=s):
                sigma = {i for i, v in enumerate(marks) if v == 1}
                tau = {i for i, v in enumerate(marks) if v == 2}
                expected = clopen_table_by_assignments(s, sigma, tau)
                assert F.basic_clopen(sigma, tau).table == expected

    def test_seeded_pairs(self):
        rng = random.Random(1212)
        for _ in range(200):
            s = rng.randint(1, 12)
            marks = [rng.randrange(3) for _ in range(s)]
            sigma = [i for i, v in enumerate(marks) if v == 1]
            tau = [i for i, v in enumerate(marks) if v == 2]
            expected = clopen_table_by_assignments(s, sigma, tau)
            assert FreeAlgebra(s).basic_clopen(sigma, tau).table == expected
