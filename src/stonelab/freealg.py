"""Free Boolean algebras over a finite generator set.

Elements are truth tables over the 2^s assignments, stored as ints (bit a
of the table is the value at assignment a).  Ultrafilters correspond to
assignments; the support of an assignment is the set of generators it
sends to 1, and ``min_support_ultrafilter`` returns a minimal one as a
tuple of generator indices.

Generator i is true at the assignments a with bit i set: with h = 2^i its
table is blocks of h zeros and h ones, repeated 2^s / 2h times, so it is
the one block ``((1 << h) - 1) << h`` times the repunit
``table_mask // ((1 << 2h) - 1)`` (bit 2h*j set for each block j).  A basic
clopen set is the AND of generator tables and their complements.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, product
import random

from .bits import points
from .errors import AlgebraMismatchError, ValidationError

DEFAULT_GENERATOR_CAP = 16


class FreeAlgebra:
    """Free Boolean algebra on ``generator_count`` generators."""

    __slots__ = ("generator_count", "table_mask")

    def __init__(self, generator_count: int):
        if not isinstance(generator_count, int) or isinstance(generator_count, bool):
            raise ValidationError("generator_count must be an integer")
        if not 1 <= generator_count <= DEFAULT_GENERATOR_CAP:
            raise ValidationError(
                f"generator_count must be in [1, {DEFAULT_GENERATOR_CAP}]"
            )
        self.generator_count = generator_count
        self.table_mask = (1 << (1 << generator_count)) - 1

    def __eq__(self, other):
        return (
            isinstance(other, FreeAlgebra)
            and other.generator_count == self.generator_count
        )

    def __hash__(self):
        return hash(("FreeAlgebra", self.generator_count))

    def __repr__(self):
        return f"FreeAlgebra(s={self.generator_count})"

    @property
    def zero(self) -> "FreeElement":
        return FreeElement(self, 0)

    @property
    def one(self) -> "FreeElement":
        return FreeElement(self, self.table_mask)

    def _generator_table(self, i: int) -> int:
        h = 1 << i
        return (((1 << h) - 1) << h) * (self.table_mask // ((1 << 2 * h) - 1))

    def generator(self, i: int) -> "FreeElement":
        if not 0 <= i < self.generator_count:
            raise ValidationError(f"generator index {i} out of range")
        return FreeElement(self, self._generator_table(i))

    def basic_clopen(self, sigma, tau) -> "FreeElement":
        """Conjunction of the generators in sigma and the negations of tau.

        The two sets must be disjoint; the result is the basic clopen set
        of assignments extending (sigma -> 1, tau -> 0).
        """
        sset, tset = set(sigma), set(tau)
        if sset & tset:
            raise ValidationError("sigma and tau must be disjoint")
        for i in sset | tset:
            if not 0 <= i < self.generator_count:
                raise ValidationError(f"generator index {i} out of range")
        table = self.table_mask
        for i in sset:
            table &= self._generator_table(i)
        for i in tset:
            table &= ~self._generator_table(i)
        return FreeElement(self, table)


@dataclass(frozen=True)
class FreeElement:
    algebra: FreeAlgebra
    table: int

    def __post_init__(self):
        if not 0 <= self.table <= self.algebra.table_mask:
            raise ValidationError("truth table out of range")

    def _check(self, other):
        if self.algebra != other.algebra:
            raise AlgebraMismatchError("algebra mismatch")

    def meet(self, other: "FreeElement") -> "FreeElement":
        self._check(other)
        return FreeElement(self.algebra, self.table & other.table)

    def join(self, other: "FreeElement") -> "FreeElement":
        self._check(other)
        return FreeElement(self.algebra, self.table | other.table)

    def complement(self) -> "FreeElement":
        return FreeElement(self.algebra, self.table ^ self.algebra.table_mask)

    __and__ = meet
    __or__ = join
    __invert__ = complement


def min_support_ultrafilter(w: FreeElement) -> tuple[int, ...]:
    """The support of a satisfying assignment of minimal support, found
    exactly: the generators it sends to 1, in increasing order.

    Tries weight levels 0, 1, 2, ... and within a level the supports in
    lexicographic order, so the common small-support cases terminate
    immediately and the result is deterministic.
    """
    if w.table == 0:
        raise ValidationError("empty clopen set")
    s = w.algebra.generator_count
    # the table's bits read once: digits[a] is bit a, where a shift per probe
    # would copy the whole 2^s-bit table
    digits = f"{w.table:0{1 << s}b}"[::-1]
    generators = [1 << i for i in range(s)]  # in order, so supports come lexicographically
    for weight in range(s + 1):
        for support in combinations(generators, weight):
            a = sum(support)
            if digits[a] == "1":
                return points(a)
    raise AssertionError("nonzero table has a satisfying assignment")


@dataclass(frozen=True)
class DensityReport:
    pairs_checked: int
    failures: tuple


def dense_small_support_check(s: int) -> DensityReport:
    """For every nonzero basic clopen set, the minimal support inside it is
    exactly sigma.

    Exhaustive over all disjoint (sigma, tau) pairs for s <= 4, and 500
    draws seeded 0 above.
    """
    alg = FreeAlgebra(s)
    failures = []
    checked = 0

    def check(sigma, tau):
        nonlocal checked
        checked += 1
        support = min_support_ultrafilter(alg.basic_clopen(sigma, tau))
        if support != tuple(sigma):
            failures.append((tuple(sigma), tuple(tau), support))

    if s <= 4:
        for assignment in product((0, 1, 2), repeat=s):
            sigma = [i for i, v in enumerate(assignment) if v == 1]
            tau = [i for i, v in enumerate(assignment) if v == 2]
            check(sigma, tau)
    else:
        rng = random.Random(0)
        for _ in range(500):
            sigma, tau = [], []
            for i in range(s):
                r = rng.randrange(3)
                if r == 1:
                    sigma.append(i)
                elif r == 2:
                    tau.append(i)
            check(sigma, tau)
    return DensityReport(checked, tuple(failures))
