import itertools
import random

import pytest

from stonelab import (
    CapExceededError,
    FiniteBooleanAlgebra,
    FinitePoset,
    MeetSemilattice,
    OracleMismatchError,
    ValidationError,
    discrete_witness,
    filters,
    final_segments,
    generated_subalgebra,
    generator_orientation,
    modest_analysis,
    prime_clopen_filters,
)
from stonelab.bits import upper_covers
from stonelab.families import is_t0_separating
from stonelab.oracles import posets_up_to_iso, prime_filters_by_enumeration, upsets_bruteforce
from stonelab.orders import compact_elements_clopen

from helpers import meet_chain


class TestPosetValidation:
    def test_not_transitive(self):
        with pytest.raises(ValidationError):
            FinitePoset((0b011, 0b110, 0b100))

    def test_not_antisymmetric(self):
        with pytest.raises(ValidationError):
            FinitePoset((0b11, 0b11))

    def test_not_reflexive(self):
        with pytest.raises(ValidationError):
            FinitePoset((0b10, 0b10))

    def test_from_pairs_closure(self):
        P = FinitePoset.from_pairs(3, [(0, 1), (1, 2)])
        assert P.up[0] >> 2 & 1

    def test_from_pairs_cycle_rejected(self):
        with pytest.raises(ValidationError):
            FinitePoset.from_pairs(2, [(0, 1), (1, 0)])

    def test_not_transitive_only_through_three_chain(self):
        # the 5-chain with 1 <= 3 dropped: 1 <= 2 <= 3 is the one failing chain
        up = [0b11111 & ~((1 << i) - 1) for i in range(5)]
        up[1] &= ~(1 << 3)
        with pytest.raises(ValidationError, match=r"not transitive at \(1,2\)"):
            FinitePoset(up)

    def test_longer_cycle_rejected_in_one_line(self):
        with pytest.raises(ValidationError) as info:
            FinitePoset.from_pairs(4, [(3, 0), (0, 1), (1, 2), (2, 0)])
        assert "cycle" in str(info.value) and "\n" not in str(info.value)


class TestFinalSegments:
    def test_antichain_two(self):
        assert final_segments(FinitePoset.antichain(2)).size == 4

    def test_chain_three_exact(self):
        L = final_segments(FinitePoset.chain(3))
        assert L.sets == (0b000, 0b100, 0b110, 0b111)

    def test_single_point(self):
        assert final_segments(FinitePoset.antichain(1)).size == 2

    def test_chain_counts(self):
        for n in range(1, 9):
            assert final_segments(FinitePoset.chain(n)).size == n + 1

    def test_matches_bruteforce_all_small_posets(self):
        for n in range(1, 5):
            for up in posets_up_to_iso(n):
                P = FinitePoset(up)
                L = final_segments(P)
                assert set(L.sets) == upsets_bruteforce(n, P.up)

    def test_matches_bruteforce_random(self):
        rng = random.Random(13)
        for _ in range(50):
            n = rng.randint(1, 7)
            pairs = [
                (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))
            ]
            try:
                P = FinitePoset.from_pairs(n, pairs)
            except ValidationError:
                continue  # random pairs may create cycles
            L = final_segments(P)
            assert set(L.sets) == upsets_bruteforce(n, P.up)

    def test_closed_under_union_intersection(self):
        for n in range(1, 5):
            for up in posets_up_to_iso(n):
                L = final_segments(FinitePoset(up))
                segs = set(L.sets)
                for a in segs:
                    for b in segs:
                        assert a | b in segs and a & b in segs

    def test_cap(self):
        with pytest.raises(CapExceededError):
            final_segments(FinitePoset.antichain(5), cap=4)


class TestPosetSystem:
    def test_chain_two(self):
        family = final_segments(FinitePoset.chain(2)).family("a_")
        assert family.points.size == 3
        sets = [m.bits for m in family.members]
        assert len(sets) == 2
        assert sets[0] & sets[1] in sets  # nested
        assert is_t0_separating(family).separating

    def test_antichain_two(self):
        family = final_segments(FinitePoset.antichain(2)).family("a_")
        assert family.points.size == 4
        assert family.size == 2
        assert is_t0_separating(family).separating

    def test_single_point(self):
        family = final_segments(FinitePoset.antichain(1)).family("a_")
        assert family.points.size == 2
        assert family.size == 1
        assert is_t0_separating(family).separating

    def test_duality_round_trip(self):
        # the generated subalgebra over the FS points is the full powerset
        for n in range(1, 5):
            for up in posets_up_to_iso(n):
                L = final_segments(FinitePoset(up))
                B = FiniteBooleanAlgebra(L.size)
                gens = [B.element(L.generators[p]) for p in range(n)]
                assert generated_subalgebra(B, gens).is_full()

    def test_orientation_is_preserving(self):
        # p <= q iff a_p subset a_q; exactly one orientation on chains
        L = final_segments(FinitePoset.chain(2))
        assert generator_orientation(L) == "preserving"
        for n in range(1, 5):
            for up in posets_up_to_iso(n):
                L = final_segments(FinitePoset(up))
                assert generator_orientation(L) in ("preserving", "degenerate")


class TestPrimeFilters:
    def test_antichain_two(self):
        assert len(prime_clopen_filters(final_segments(FinitePoset.antichain(2)))) == 2

    def test_chain_three(self):
        assert len(prime_clopen_filters(final_segments(FinitePoset.chain(3)))) == 3

    def test_single_point(self):
        assert len(prime_clopen_filters(final_segments(FinitePoset.antichain(1)))) == 1

    def test_minima_are_principal_segments(self):
        for n in range(1, 5):
            for up in posets_up_to_iso(n):
                P = FinitePoset(up)
                L = final_segments(P)
                for pf in prime_clopen_filters(L):
                    assert L.sets[pf.minimum_index] == P.up[pf.poset_element]

    def test_equals_enumeration_oracle(self):
        """Principal filters at join-prime elements = every prime filter
        found among all up-sets of FS(P)."""
        for n in range(1, 5):
            for up in posets_up_to_iso(n):
                L = final_segments(FinitePoset(up))
                assert prime_clopen_filters(L) == prime_filters_by_enumeration(L)

    def test_literal_primality_random(self):
        """The proper principal filters passing x | y in F => x in F or
        y in F are exactly the ones returned (every filter of a finite
        lattice is principal)."""
        rng = random.Random(41)
        for _ in range(200):
            n = rng.randint(1, 7)
            label = rng.sample(range(n), n)
            pairs = [(label[i], label[j]) for i in range(n) for j in range(i + 1, n)
                     if rng.random() < 0.3]
            L = final_segments(FinitePoset.from_pairs(n, pairs))
            segs = L.sets
            index = {seg: i for i, seg in enumerate(segs)}
            expected = []
            for a in range(1, L.size):  # segs[0] is the bottom; its up-set is improper
                inside = {i for i, seg in enumerate(segs) if segs[a] & ~seg == 0}
                outside = [i for i in range(L.size) if i not in inside]
                if all(index[segs[x] | segs[y]] not in inside for x in outside for y in outside):
                    expected.append(sum(1 << i for i in inside))
            got = prime_clopen_filters(L)
            assert sorted(pf.filter_mask for pf in got) == sorted(expected)


class TestDiscreteWitness:
    def test_chain_middle(self):
        w = discrete_witness(FinitePoset.chain(3), 1)
        assert w.tau == (0,)

    def test_antichain(self):
        w = discrete_witness(FinitePoset.antichain(2), 0)
        assert w.tau == ()  # minimal equivalent of {b}: nothing below a

    def test_single_point(self):
        assert discrete_witness(FinitePoset.antichain(1), 0).tau == ()

    def test_isolation_via_segment_slab(self):
        # cross-check in FS(P): the slab contains min(a_q) only for q = p
        for n in range(1, 5):
            for up in posets_up_to_iso(n):
                P = FinitePoset(up)
                L = final_segments(P)
                for p in range(n):
                    tau = discrete_witness(P, p).tau
                    tau_mask = sum(1 << t for t in tau)
                    slab = [
                        seg
                        for seg in L.sets
                        if seg >> p & 1 and seg & tau_mask == 0
                    ]
                    hits = [q for q in range(n) if P.up[q] in slab]
                    assert hits == [p]


def fixpoint_closure(n, pairs) -> set:
    """Reflexive-transitive closure of a pair list, one pair at a time."""
    rel = {(i, i) for i in range(n)} | set(pairs)
    changed = True
    while changed:
        changed = False
        for i, j in list(rel):
            for j2, k in list(rel):
                if j == j2 and (i, k) not in rel:
                    rel.add((i, k))
                    changed = True
    return rel


def small_and_random_posets():
    """Every poset of <= 4 points up to isomorphism, then 200 seeded random
    ones of <= 8 points, each with the pairs it was built from (or None)."""
    for n in range(1, 5):
        for up in posets_up_to_iso(n):
            yield FinitePoset(up), None
    rng = random.Random(59)
    for _ in range(200):
        n = rng.randint(1, 8)
        label = rng.sample(range(n), n)
        pairs = [(label[i], label[j]) for i in range(n) for j in range(n)
                 if i <= j and rng.random() < 0.3]
        yield FinitePoset.from_pairs(n, pairs), pairs


class TestPosetKernels:
    """The row-based kernels against their pairwise definitions."""

    def test_against_literal_definitions(self):
        for P, pairs in small_and_random_posets():
            n = P.size
            le = {(i, j) for i in range(n) for j in range(n) if P.up[i] >> j & 1}
            if pairs is not None:
                assert le == fixpoint_closure(n, pairs)
            covers = upper_covers(P.up)
            for p in range(n):
                below = [q for q in range(n) if (q, p) in le]
                assert P.down[p] == sum(1 << q for q in below)
                assert P.strict_down(p) == sum(1 << q for q in below if q != p)
                maximal = tuple(
                    q for q in below
                    if q != p and not any(r not in (q, p) and (q, r) in le for r in below)
                )
                assert P.immediate_predecessors(p) == maximal
                assert covers[p] == sum(1 << q for q in maximal)
                assert discrete_witness(P, p).tau == maximal

    def test_segment_covers_against_the_generic_kernel(self):
        """FS(P)'s covers read off P equal ``bits.upper_covers`` on its sets."""
        for P, _ in small_and_random_posets():
            L = final_segments(P)
            assert L.covers == tuple(upper_covers(L.sets))

    def test_orientation_against_pairwise_definition(self):
        for P, _ in small_and_random_posets():
            L = final_segments(P)
            a = [L.generators[p] for p in range(P.size)]
            pairs = [(p, q) for p in range(P.size) for q in range(P.size)]
            leq = [[bool(P.up[p] >> q & 1) for q in range(P.size)] for p in range(P.size)]
            preserving = all(leq[p][q] == (a[p] & ~a[q] == 0) for p, q in pairs)
            reversing = all(leq[p][q] == (a[q] & ~a[p] == 0) for p, q in pairs)
            if preserving and reversing:
                expected = "degenerate"
            elif preserving or reversing:
                expected = "preserving" if preserving else "reversing"
            else:
                with pytest.raises(OracleMismatchError):
                    generator_orientation(L)
                continue
            assert generator_orientation(L) == expected


class TestMeetSemilattice:
    def test_validation(self):
        with pytest.raises(ValidationError):
            MeetSemilattice([[0, 0], [0, 0]])  # not idempotent at 1
        with pytest.raises(ValidationError):
            MeetSemilattice([[0, 1], [0, 1]])  # not commutative

    def test_chain_filters(self):
        L = filters(meet_chain(3))
        assert L.size == 4
        assert L.sets == (0b000, 0b100, 0b110, 0b111)

    def test_two_element_with_bottom(self):
        assert filters(meet_chain(2)).size == 3

    def test_single_element(self):
        assert filters(meet_chain(1)).size == 2

    def test_antichain_with_bottom(self):
        M = MeetSemilattice.antichain_with_bottom(2)
        L = filters(M)
        # empty, two principal atoms, principal bottom (= everything)
        assert L.size == 4

    def test_filters_are_principal_plus_empty(self):
        rng = random.Random(29)
        for n in range(1, 6):
            M = meet_chain(n)
            L = filters(M)
            expected = {0} | {M.up[i] for i in range(n)}
            assert set(L.sets) == expected

    def test_filters_equal_meet_closed_upsets(self):
        """Random intersection-closed families of <= 6 sets, each read as a
        meet-semilattice: Fil(M) is the empty set plus every meet-closed
        up-set, found by scanning all subsets."""
        rng = random.Random(71)
        checked = 0
        while checked < 100:
            sets = {rng.randrange(16) for _ in range(rng.randint(1, 3))}
            while any(a & b not in sets for a in sets for b in sets):
                sets |= {a & b for a in sets for b in sets}
            if len(sets) > 6:
                continue
            elems = sorted(sets)
            index = {m: i for i, m in enumerate(elems)}
            M = MeetSemilattice([[index[a & b] for b in elems] for a in elems])
            n = M.size
            meet_closed = {
                u for u in upsets_bruteforce(n, M.up)
                if all(u >> M.table[i][j] & 1
                       for i in range(n) for j in range(n) if u >> i & 1 and u >> j & 1)
            }
            assert set(filters(M).sets) == {0} | meet_closed
            checked += 1

    def test_not_associative(self):
        # commutative and idempotent, but (0^1)^2 = 2 while 0^(1^2) = 0
        with pytest.raises(ValidationError, match="not associative"):
            MeetSemilattice([[0, 0, 2], [0, 1, 1], [2, 1, 2]])

    def test_row_check_equals_triple_loop(self):
        """Every commutative idempotent table of <= 4 elements: accepted
        exactly when the literal associativity law holds."""
        tables = associative = 0
        for n in range(1, 5):
            pairs = list(itertools.combinations(range(n), 2))
            for values in itertools.product(range(n), repeat=len(pairs)):
                t = [[i] * n for i in range(n)]
                for (i, j), v in zip(pairs, values):
                    t[i][j] = t[j][i] = v
                literal = all(t[t[i][j]][k] == t[i][t[j][k]]
                              for i in range(n) for j in range(n) for k in range(n))
                try:
                    MeetSemilattice(t)
                    accepted = True
                except ValidationError:
                    accepted = False
                assert accepted == literal, t
                tables += 1
                associative += literal
        assert tables == 4126
        assert 0 < associative < tables

    def test_system_t0(self):
        for M in (meet_chain(4), MeetSemilattice.antichain_with_bottom(3)):
            assert is_t0_separating(filters(M).family("a_")).separating


class TestModest:
    def test_filters_of_three_chain(self):
        L = filters(meet_chain(3))  # a 4-chain
        rep = modest_analysis(L)
        assert len(rep.compact_elements) == 3
        assert rep.witness_point == L.size - 1  # top
        assert rep.witness_compact_below == 3
        assert rep.witness_family_order == 3
        assert rep.is_modest
        assert rep.sup_definition_agrees

    def test_two_chain(self):
        L = filters(meet_chain(1))  # {empty, {0}}
        rep = modest_analysis(L)
        assert len(rep.compact_elements) == 1
        assert rep.witness_compact_below == 1

    def test_antichain_with_bottom(self):
        M = MeetSemilattice.antichain_with_bottom(2)
        L = filters(M)
        rep = modest_analysis(L)
        # four filters: empty, up(1), up(2), up(0)=everything
        assert len(rep.compact_elements) == 3
        assert rep.max_elements == (L.size - 1,)
        # chain-style counts by enumeration
        assert rep.witness_compact_below == sum(
            1
            for a in rep.compact_elements
            if L.sets[a] & ~L.sets[rep.witness_point] == 0
        )

    def test_clopen_family_is_separating(self):
        for M in (meet_chain(3), MeetSemilattice.antichain_with_bottom(3)):
            rep = modest_analysis(filters(M))
            assert is_t0_separating(rep.clopen_filter_family).separating

    def test_compact_cross_check(self):
        for M in (meet_chain(4), MeetSemilattice.antichain_with_bottom(2)):
            L = filters(M)
            nonempty = tuple(i for i, f in enumerate(L.sets) if f)
            assert compact_elements_clopen(L) == nonempty

    def test_immediate_predecessors_of_chain(self):
        L = filters(meet_chain(4))
        rep = modest_analysis(L)
        assert rep.immediate_predecessor_counts == (1, 1, 1, 1)
