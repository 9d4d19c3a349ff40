import random

import pytest

pytestmark = pytest.mark.filterwarnings("ignore::stonelab.errors.LintWarning")

from stonelab import (
    AlgebraMismatchError,
    CapExceededError,
    FiniteBooleanAlgebra,
    ValidationError,
    generated_subalgebra,
    generates_whole,
)
from stonelab.families import PointSet, family_from_sets, is_t0_separating
from stonelab.oracles import closure_generates, ultrafilter_closure


def alg(n):
    return FiniteBooleanAlgebra(n)


class TestElementOps:
    def test_mismatched_algebras_raise(self):
        with pytest.raises(AlgebraMismatchError):
            generated_subalgebra(alg(3), [alg(4).element(1)])


class TestGeneratedSubalgebra:
    def test_two_sets_generate_whole_n4(self):
        B = alg(4)
        part = generated_subalgebra(B, [B.element([0, 1]), B.element([1, 2])])
        assert part.block_count == 4
        assert part.is_full()

    def test_empty_generators_single_block(self):
        B = alg(3)
        part = generated_subalgebra(B, [])
        assert part.blocks == (0b111,)

    def test_single_full_set_trivial(self):
        B = alg(2)
        part = generated_subalgebra(B, [B.element([0, 1])])
        assert part.block_count == 1


class TestGeneratesWhole:
    def test_singletons_generate(self):
        for n in range(1, 8):
            B = alg(n)
            assert generates_whole(B, [B.element([a]) for a in range(n)])

    def test_pair_not_separated(self):
        B = alg(3)
        assert not generates_whole(B, [B.element([0, 1])])

    def test_two_singletons_over_three_atoms(self):
        B = alg(3)
        assert generates_whole(B, [B.element([0]), B.element([1])])

    def test_agrees_with_closure_oracle_exhaustive_n3(self):
        for n in range(1, 4):
            B = alg(n)
            for gmask in range(1 << (1 << n)):
                masks = [m for m in range(1 << n) if gmask >> m & 1]
                assert generates_whole(
                    B, [B.element(m) for m in masks]
                ) == closure_generates(n, masks)

    def test_agrees_with_t0_over_atoms(self):
        rng = random.Random(3)
        for _ in range(300):
            n = rng.randint(1, 8)
            B = alg(n)
            gens = [B.element(rng.randrange(1 << n)) for _ in range(rng.randint(0, 6))]
            fam = family_from_sets(PointSet(n), [g.bits for g in gens])
            assert generates_whole(B, gens) == is_t0_separating(fam).separating


class TestClosure:
    """The closure of a set of ultrafilters, named by their atoms, through
    the oracle that evaluates the membership formula literally."""

    def test_two_point_set(self):
        assert ultrafilter_closure(3, 0b011) == 0b011

    def test_empty_set(self):
        assert ultrafilter_closure(3, 0) == 0

    def test_all_ultrafilters(self):
        assert ultrafilter_closure(4, 0b1111) == 0b1111

    def test_identity_exhaustive_small(self):
        for n in range(1, 5):
            for amask in range(1 << n):
                assert ultrafilter_closure(n, amask) == amask


class TestValidation:
    def test_atom_count_positive(self):
        with pytest.raises(ValidationError):
            FiniteBooleanAlgebra(0)

    def test_atom_cap(self):
        with pytest.raises(CapExceededError):
            FiniteBooleanAlgebra(65)
        FiniteBooleanAlgebra(65, cap=128)  # configurable up to the hard max
        with pytest.raises(ValidationError):
            FiniteBooleanAlgebra(2000, cap=4096)

    def test_bits_out_of_range(self):
        B = alg(3)
        with pytest.raises(ValidationError):
            B.element(1 << 3)
