"""Finite Boolean algebras over an explicit atom set.

A finite Boolean algebra is the full powerset of its atoms, so elements
are fixed-width bit vectors (Python ints), ultrafilters are atoms, and a
subalgebra is described by the partition of atoms it cannot split.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bits import iter_bits, signature_classes, transpose
from .errors import AlgebraMismatchError, CapExceededError, ValidationError

DEFAULT_ATOM_CAP = 64
MAX_ATOM_CAP = 1024


class FiniteBooleanAlgebra:
    """Powerset algebra over ``atom_count`` atoms.

    ``cap`` bounds the atom count (default 64, hard maximum 1024); the
    enumerative callers are the real bottleneck, not element width.
    """

    __slots__ = ("atom_count", "full_mask")

    def __init__(self, atom_count: int, cap: int = DEFAULT_ATOM_CAP):
        if not isinstance(atom_count, int) or isinstance(atom_count, bool):
            raise ValidationError("atom_count must be an integer")
        if atom_count < 1:
            raise ValidationError("atom_count must be >= 1")
        if cap > MAX_ATOM_CAP:
            raise ValidationError(f"cap may not exceed {MAX_ATOM_CAP}")
        if atom_count > cap:
            raise CapExceededError(
                f"atom_count {atom_count} exceeds cap {cap}"
            )
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

    @property
    def zero(self) -> "Element":
        return Element(self, 0)

    @property
    def one(self) -> "Element":
        return Element(self, self.full_mask)

    def element(self, atoms) -> "Element":
        """Element from an int mask or an iterable of atom indices."""
        if isinstance(atoms, int):
            return Element(self, atoms)
        mask = 0
        for a in atoms:
            if not 0 <= a < self.atom_count:
                raise ValidationError(f"atom index {a} out of range")
            mask |= 1 << a
        return Element(self, mask)

    def singleton(self, atom: int) -> "Element":
        if not 0 <= atom < self.atom_count:
            raise ValidationError(f"atom index {atom} out of range")
        return Element(self, 1 << atom)

    def singletons(self) -> tuple["Element", ...]:
        return tuple(self.singleton(a) for a in range(self.atom_count))

    def elements(self):
        """Iterate all 2^n elements; refuses to run for large algebras."""
        if self.atom_count > 20:
            raise CapExceededError(
                f"enumerating 2^{self.atom_count} elements is not supported"
            )
        for mask in range(1 << self.atom_count):
            yield Element(self, mask)

    def ultrafilter(self, atom: int) -> "Ultrafilter":
        if not 0 <= atom < self.atom_count:
            raise ValidationError(f"atom index {atom} out of range")
        return Ultrafilter(self, atom)

    def ultrafilters(self) -> tuple["Ultrafilter", ...]:
        return tuple(Ultrafilter(self, a) for a in range(self.atom_count))


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

    def _check(self, other: "Element"):
        if self.algebra != other.algebra:
            raise AlgebraMismatchError("algebra mismatch")

    def meet(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, self.bits & other.bits)

    def join(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, self.bits | other.bits)

    def complement(self) -> "Element":
        return Element(self.algebra, self.bits ^ self.algebra.full_mask)

    def symdiff(self, other: "Element") -> "Element":
        self._check(other)
        return Element(self.algebra, self.bits ^ other.bits)

    def leq(self, other: "Element") -> bool:
        self._check(other)
        return self.bits & ~other.bits == 0

    __and__ = meet
    __or__ = join
    __xor__ = symdiff
    __invert__ = complement
    __le__ = leq

    def __ge__(self, other):
        return other.leq(self)

    def is_zero(self) -> bool:
        return self.bits == 0

    def is_one(self) -> bool:
        return self.bits == self.algebra.full_mask

    def atom_count(self) -> int:
        return self.bits.bit_count()

    def atoms(self) -> tuple[int, ...]:
        return tuple(iter_bits(self.bits))

    def __repr__(self):
        return f"Element({{{','.join(map(str, self.atoms()))}}}/{self.algebra.atom_count})"


@dataclass(frozen=True)
class Ultrafilter:
    """An ultrafilter of a finite algebra, i.e. a principal filter at an atom."""

    algebra: FiniteBooleanAlgebra
    atom: int

    def __post_init__(self):
        if not 0 <= self.atom < self.algebra.atom_count:
            raise ValidationError(f"atom index {self.atom} out of range")

    def __contains__(self, element: Element) -> bool:
        if element.algebra != self.algebra:
            raise AlgebraMismatchError("algebra mismatch")
        return bool(element.bits >> self.atom & 1)

    def trace(self, elements) -> tuple[Element, ...]:
        """The elements of the given collection that belong to this ultrafilter."""
        return tuple(e for e in elements if e in self)

    def __repr__(self):
        return f"Ultrafilter(atom={self.atom}/{self.algebra.atom_count})"


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

    @property
    def subalgebra_size(self) -> int:
        return 1 << len(self.blocks)

    def is_full(self) -> bool:
        return len(self.blocks) == self.atom_count

    def contains_mask(self, mask: int) -> bool:
        """Whether a subset of atoms is a union of blocks."""
        for b in self.blocks:
            inter = mask & b
            if inter and inter != b:
                return False
        return True


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


def closure_of_ultrafilter_set(algebra: FiniteBooleanAlgebra, ultrafilters) -> frozenset:
    """Topological closure of a set of ultrafilters, from the membership formula.

    An ultrafilter p lies in the closure iff every element of p belongs to
    some member of the input set.  Evaluated literally (quantifier over all
    2^(n-1) elements of p), not via the discrete-space shortcut, so the
    identity ``closure(A) == A`` is a genuine check.  Exponential in
    atom_count; intended for desk-scale algebras.
    """
    members = []
    for u in ultrafilters:
        if u.algebra != algebra:
            raise AlgebraMismatchError("algebra mismatch")
        members.append(u)
    atom_bits = [1 << u.atom for u in members]
    out = []
    for p in algebra.ultrafilters():
        pbit = 1 << p.atom
        in_closure = True
        for mask in range(1 << algebra.atom_count):
            if not mask & pbit:
                continue  # not an element of p
            if not any(mask & ab for ab in atom_bits):
                in_closure = False
                break
        if in_closure:
            out.append(p)
    return frozenset(out)
