"""Finite Boolean algebras over an explicit atom set.

A finite Boolean algebra is the full powerset of its atoms, so elements
are fixed-width bit vectors (Python ints), ultrafilters are atoms, and a
subalgebra is described by the partition of atoms it cannot split.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import points, signature_classes, transpose
from .errors import ATOMS, AlgebraMismatchError, ValidationError


class FiniteBooleanAlgebra:
    """Powerset algebra over ``atom_count`` atoms.

    ``cap`` bounds the atom count (see ``errors.ATOMS``); the enumerative
    callers are the real bottleneck, not element width.
    """

    __slots__ = ("atom_count", "full_mask")

    def __init__(self, atom_count: int, cap: int = ATOMS.default):
        if not isinstance(atom_count, int) or isinstance(atom_count, bool):
            raise ValidationError("atom_count must be an integer")
        if atom_count < 1:
            raise ValidationError("atom_count must be >= 1")
        if cap > ATOMS.maximum:
            raise ValidationError(f"cap may not exceed {ATOMS.maximum}")
        ATOMS.check(atom_count, cap)
        self.atom_count = atom_count
        self.full_mask = (1 << atom_count) - 1

    def __eq__(self, other):
        return (
            isinstance(other, FiniteBooleanAlgebra)
            and other.atom_count == self.atom_count
        )

    def __hash__(self):
        return hash(("FiniteBooleanAlgebra", self.atom_count))

    def __repr__(self):
        return f"FiniteBooleanAlgebra({self.atom_count})"

    def element(self, mask: int) -> "Element":
        """Element whose atoms are the set bits of ``mask``."""
        return Element(self, mask)


@dataclass(frozen=True)
class Element:
    """Bit vector over the atoms of one algebra."""

    algebra: FiniteBooleanAlgebra
    bits: int

    def __post_init__(self):
        if not 0 <= self.bits <= self.algebra.full_mask:
            raise ValidationError(
                f"bits 0x{self.bits:x} out of range for "
                f"{self.algebra.atom_count} atoms"
            )

    def atoms(self) -> tuple[int, ...]:
        return points(self.bits)

    def __repr__(self):
        return f"Element({{{','.join(map(str, self.atoms()))}}}/{self.algebra.atom_count})"


@dataclass(frozen=True)
class SubalgebraPartition:
    """Partition of the atom set; the subalgebra is the unions of blocks."""

    atom_count: int
    blocks: tuple[int, ...]  # one mask per block, disjoint, covering

    def __post_init__(self):
        seen = 0
        for b in self.blocks:
            if b == 0 or b & seen:
                raise ValidationError("blocks must be nonempty and disjoint")
            seen |= b
        if seen != (1 << self.atom_count) - 1:
            raise ValidationError("blocks must cover the atom set")

    @property
    def block_count(self) -> int:
        return len(self.blocks)

    def is_full(self) -> bool:
        return len(self.blocks) == self.atom_count


def generated_subalgebra(algebra: FiniteBooleanAlgebra, generators) -> SubalgebraPartition:
    """Partition of the atoms by their membership pattern across the generators.

    Atoms with identical patterns cannot be separated by any combination of
    meet, join and complement, so the generated subalgebra is exactly the
    unions of the resulting blocks.  Empty generator list gives the single
    block, i.e. the trivial subalgebra {0, 1}.
    """
    gens = list(generators)
    for g in gens:
        if g.algebra != algebra:
            raise AlgebraMismatchError("algebra mismatch")
    patterns = transpose([g.bits for g in gens], algebra.atom_count)
    return SubalgebraPartition(algebra.atom_count, tuple(signature_classes(patterns)))


def generates_whole(algebra: FiniteBooleanAlgebra, generators) -> bool:
    """Whether the generators generate the full powerset algebra.

    Equivalent to the membership patterns separating the atoms, which is the
    T0-separation test of the family module over the atom point set.
    """
    return generated_subalgebra(algebra, generators).is_full()
