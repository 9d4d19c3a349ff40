"""The oracle cross-checks that ``stonelab selftest`` runs: a ``(name,
cases, agree)`` row of ``CHECKS`` per implementation and oracle pair, where
``cases(rng)`` yields the row's sample and ``agree(*case)`` compares the
two.  Only this module imports ``oracles``, and the CLI imports it only when
``selftest`` runs, so the oracles stay off the start-up path."""

from __future__ import annotations

import random

from . import oracles
from .algebra import FiniteBooleanAlgebra, generates_whole
from .errors import OracleMismatchError
from .families import Member, PointSet
from .freeseq import is_free_sequence
from .orders import FinitePoset, final_segments, prime_clopen_filters
from .solver import GeneratorPool, min_max_order


def _element_lists(atoms, most):
    """Cases of 300 draws: an algebra of n = 1..``atoms`` atoms and up to
    ``most(n)`` random elements of it."""
    def cases(rng):
        for _ in range(300):
            n = rng.randint(1, atoms)
            algebra = FiniteBooleanAlgebra(n)
            count = rng.randint(0, most(n))
            yield algebra, [algebra.element(rng.randrange(1 << n)) for _ in range(count)]
    return cases


def _separating_pools(rng):
    for _ in range(60):
        npts = rng.randint(2, 5)
        pool_size = rng.randint(1, 12 - npts)  # stay inside the oracle cap
        cands = tuple(Member(f"c{i}", rng.randrange(1 << npts)) for i in range(pool_size))
        singletons = tuple(Member(f"s{p}", 1 << p) for p in range(npts))  # keep pools separating
        yield (GeneratorPool(PointSet(npts), cands + singletons),)


def _segment_lattices(rng):
    """FS(P) for each poset P of 1-3 points up to isomorphism; draws nothing."""
    for n in range(1, 4):
        for up in oracles.posets_up_to_iso(n):
            yield (final_segments(FinitePoset(up)),)


# The rows draw from one generator in this order, so a seed names the same
# cases only while the rows, their order and their draws stay as they are.
CHECKS = (
    ("generation == closure-to-fixpoint oracle", _element_lists(6, lambda n: n + 2),
     lambda algebra, gens: generates_whole(algebra, gens)
     == oracles.closure_generates(algebra.atom_count, [g.bits for g in gens])),
    ("maximal-split freeness == all-pairs definition", _element_lists(4, lambda n: 4),
     lambda algebra, terms: is_free_sequence(algebra, terms)
     == oracles.is_free_sequence_naive(algebra, terms)),
    ("branch-and-bound solver == exhaustive subfamily oracle", _separating_pools,
     lambda pool: oracles.exhaustive_min_max_order(pool) == min_max_order(pool).value),
    ("prime filters of FS(P) biject with P", _segment_lattices,
     lambda lattice: prime_clopen_filters(lattice)
     == oracles.prime_filters_by_enumeration(lattice)),
)


def run(seed: int) -> int:
    """Run the rows on one ``random.Random(seed)``, printing a line per row
    and a summary; 3 on any mismatch, else 0.  A row stops drawing at its
    first disagreement, and an ``OracleMismatchError`` counts as one."""
    rng = random.Random(seed)
    agreed = 0
    for name, cases, agree in CHECKS:
        try:
            ok = all(agree(*case) for case in cases(rng))
        except OracleMismatchError:
            ok = False
        print(f"{'ok' if ok else 'MISMATCH':8s} {name}")
        agreed += ok
    print(f"selftest: {agreed}/{len(CHECKS)} oracle pairs agree (seed {seed})")
    return 3 if agreed < len(CHECKS) else 0
