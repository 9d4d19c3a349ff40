"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every expected value here is either computed by an independent oracle in
this file or fixed by an exhaustive check at desk scale.
"""

import io
import json
import random
import time
from contextlib import redirect_stdout

import pytest

from stonelab import (
    FiniteBooleanAlgebra,
    FinitePoset,
    FiniteForest,
    alexandrov_duplication,
    dense_small_support_check,
    discrete_witness,
    final_segments,
    generates_whole,
    is_free_sequence,
    longest_free_point_sequence,
    longest_free_sequence,
    min_max_order,
    porcupine,
    preset_pool,
    prime_clopen_filters,
    product_system,
    sigma_system,
)
from stonelab.cli import main as cli_main
from stonelab.families import PointSet, is_t0_separating, order_profile
from stonelab.freeseq import _free_sequences
from stonelab.oracles import (
    closure_generates,
    exhaustive_min_max_order,
    is_free_sequence_naive,
    point_sequence_is_free_by_closure,
    posets_up_to_iso,
    rooted_tree_shapes,
    ultrafilter_closure,
)

from helpers import antichain, family_from_sets, poset_from_rows, system_from_sets
from test_solver import random_pool

pytestmark = pytest.mark.filterwarnings("ignore::stonelab.errors.LintWarning")


def ok(line):
    print(f"PASS: {line}")


def test_finite_cofinite_shadow():
    start = time.perf_counter()
    for n in range(2, 11):
        fam = family_from_sets(PointSet(n), [1 << a for a in range(n)])  # the n singletons
        assert is_t0_separating(fam).separating
        assert order_profile(fam).max_order == 1  # the selection value
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    ok(f"finite-cofinite shadow: singletons give selection value 1 for n=2..10 "
       f"({elapsed * 1000:.0f} ms)")


def test_generation_equals_separation():
    checked = 0
    # exhaustive over every generator family for n <= 4
    for n in range(1, 5):
        B = FiniteBooleanAlgebra(n)
        size = 1 << n
        for gmask in range(1 << size):
            masks = [m for m in range(size) if gmask >> m & 1]
            got = generates_whole(B, [B.element(m) for m in masks])
            assert got == closure_generates(n, masks), (n, masks)
            checked += 1
    # random families until the 10^5 mark
    rng = random.Random(2024)
    while checked < 100_000:
        n = rng.randint(1, 4)
        B = FiniteBooleanAlgebra(n)
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 6))]
        assert generates_whole(B, [B.element(m) for m in masks]) == closure_generates(
            n, masks
        )
        checked += 1
    # 10^4 random families over n <= 10
    for _ in range(10_000):
        n = rng.randint(1, 10)
        B = FiniteBooleanAlgebra(n)
        masks = [rng.randrange(1 << n) for _ in range(rng.randint(0, 6))]
        assert generates_whole(B, [B.element(m) for m in masks]) == closure_generates(
            n, masks
        )
        checked += 1
    ok(f"generation == closure oracle on {checked} families, zero mismatches")


def test_closure_formula_identity():
    checked = 0
    for n in range(1, 6):
        for amask in range(1 << n):
            assert ultrafilter_closure(n, amask) == amask
            checked += 1
    ok(f"closure formula: closure(A) == A for all {checked} subsets over n<=5")


def test_poset_duality():
    start = time.perf_counter()
    poset_count = 0
    for n in range(1, 5):
        for up in posets_up_to_iso(n):
            P = poset_from_rows(up)
            lattice = final_segments(P)
            assert is_t0_separating(lattice.family("a_")).separating
            primes = prime_clopen_filters(lattice)  # raises on bijection failure
            assert len(primes) == n
            # the p-th filter's lowest bit is its least segment, [p, ->)
            assert [lattice.sets[(f & -f).bit_length() - 1] for f in primes] == list(up)
            poset_count += 1
    for n in range(1, 7):
        assert final_segments(FinitePoset.chain(n)).size == n + 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    ok(f"poset duality: T0 + prime-filter bijection on {poset_count} posets, "
       f"|FS(chain n)| = n+1 ({elapsed:.1f} s)")


def test_discrete_generator_witnesses():
    checked = 0
    for n in range(1, 5):
        for up in posets_up_to_iso(n):
            P = poset_from_rows(up)
            lattice = final_segments(P)
            for p in range(n):
                tau = discrete_witness(P, p)  # raises if not isolating
                tau_mask = sum(1 << t for t in tau)
                # independent slab check over the actual segment lattice
                slab_hits = [
                    q
                    for q in range(n)
                    if P.up[q] in lattice.sets
                    and P.up[q] >> p & 1
                    and P.up[q] & tau_mask == 0
                ]
                assert slab_hits == [p]
                checked += 1
    ok(f"discrete witnesses: tau_p isolates a_p for all {checked} (poset, p) pairs")


def _random_t0_system(rng, max_points=4, max_members=4):
    n = rng.randint(1, max_points)
    sets = [rng.randrange(1 << n) for _ in range(rng.randint(0, max_members))]
    sys_ = system_from_sets(n, sets)
    while True:
        res = is_t0_separating(sys_.family)
        if res.separating:
            break
        sets.append(1 << res.witness[0])
        sys_ = system_from_sets(n, sets)
    covered = 0
    for s in sets:
        covered |= s
    for p in range(n):
        if not covered >> p & 1:
            sets.append(1 << p)
    return system_from_sets(n, sets)


def test_combinator_order_laws():
    rng = random.Random(99)
    cases = 0
    for _ in range(334):  # product additivity
        s1, s2 = _random_t0_system(rng), _random_t0_system(rng)
        prod = product_system(s1, s2)
        p1 = order_profile(s1.family).per_point
        p2 = order_profile(s2.family).per_point
        got = order_profile(prod.family).per_point
        n2 = s2.points.size
        for i in range(s1.points.size):
            for j in range(n2):
                assert got[i * n2 + j] == p1[i] + p2[j]
        cases += 1
    for _ in range(333):  # duplication +1 law
        s = _random_t0_system(rng)
        n = s.points.size
        dup = sorted(rng.sample(range(n), rng.randint(0, n)))
        out = alexandrov_duplication(s, dup)
        base = order_profile(s.family).per_point
        got = order_profile(out.family).per_point
        assert got[:n] == base
        for k, x in enumerate(dup):
            assert got[n + k] == base[x] + 1
        assert is_t0_separating(out.family).separating
        cases += 1
    for _ in range(333):  # porcupine separation + order decomposition
        X = _random_t0_system(rng, max_points=3)
        fibers = tuple(
            _random_t0_system(rng, max_points=3) for _ in range(X.points.size)
        )
        section = tuple(rng.randrange(f.points.size) for f in fibers)
        res = porcupine(X, fibers, section)
        assert is_t0_separating(res.system.family).separating
        prof = order_profile(res.system.family)
        # independent recount of each part from the provenance labels
        members = res.system.family.members
        owner = []
        for x, f in enumerate(fibers):
            owner.extend([x] * f.points.size)
        for d in res.decomposition:
            bit = 1 << d.point
            v0 = vm = vs = vs2 = 0
            for m in members:
                if not m.bits & bit:
                    continue
                if m.label.startswith("porc:V0:"):
                    v0 += 1
                elif m.label.startswith("porc:V1:full:"):
                    vs += 1
                else:
                    x = int(m.label.split(":")[2].split("=")[1])
                    if x == owner[d.point]:
                        vm += 1
                    else:
                        vs2 += 1
            assert (v0, vm, vs, vs2) == (d.v0, d.v_minus, d.v_star, d.v_star2)
            assert d.total == prof.per_point[d.point]
        cases += 1
    assert cases == 1000
    ok("combinator order laws: product additivity, duplication +1, porcupine "
       "T0 + order decomposition on 1000 randomized instances")


def test_tree_law():
    tree_count = 0
    for n in range(1, 7):
        for parents in rooted_tree_shapes(n):
            forest = FiniteForest(parents)
            system = sigma_system(forest)
            prof = order_profile(system.family)
            assert prof.max_order == forest.height()
            assert system.points.size == n + 1
            assert is_t0_separating(system.family).separating
            tree_count += 1
    ok(f"tree law: max order of the path family equals the height on all "
       f"{tree_count} tree shapes with <= 6 nodes")


def test_free_algebra_density_shadow():
    total = 0
    for s in range(1, 5):
        report = dense_small_support_check(s)
        assert report.failures == ()
        assert report.pairs_checked == 3 ** s
        total += report.pairs_checked
    ok(f"free-algebra density shadow: min support == sigma on all {total} "
       f"basic clopen sets for s<=4")


def test_free_sequence_asymmetry():
    for n in range(1, 7):
        B = FiniteBooleanAlgebra(n)
        pool = [B.element(m) for m in range(1, B.full_mask)] if n > 1 else []
        assert len(longest_free_sequence(B, pool=pool)) == n - 1, f"n={n}"
        if n <= 5:  # exhaustive: the longest of all free sequences of the pool
            masks = [e.bits for e in pool]
            assert max(map(len, _free_sequences(masks, B.full_mask, len(masks)))) == n - 1
        points = longest_free_point_sequence(B)
        assert points == n
        assert point_sequence_is_free_by_closure(B, list(range(n)))
    # reduced check == naive definition, exhaustively
    checked = 0
    for n in range(1, 5):
        B = FiniteBooleanAlgebra(n)
        elements = [B.element(m) for m in range(1 << n)]
        stack = [()]
        while stack:
            seq = stack.pop()
            terms = [elements[i] for i in seq]
            assert is_free_sequence(B, terms) == is_free_sequence_naive(B, terms)
            checked += 1
            if len(seq) < 4:
                stack.extend(seq + (i,) for i in range(len(elements)))
    ok(f"free-sequence asymmetry: algebra max n-1 vs point max n for n<=6; "
       f"reduced == naive on {checked} sequences")


def test_solver_exactness():
    rng = random.Random(512)
    instances = 0
    for _ in range(500):
        pool = random_pool(rng, with_singletons=False)
        assert min_max_order(pool).value == exhaustive_min_max_order(pool)
        instances += 1
    # preset instances against the same oracle where the caps allow
    presets = [
        preset_pool("intervals", 4),
        preset_pool("upsets", antichain(2)),
        preset_pool("tree", FiniteForest([None, 0, 0])),
        preset_pool("upsets", FinitePoset.chain(4)),
    ]
    for pool in presets:
        assert min_max_order(pool).value == exhaustive_min_max_order(pool)
        instances += 1
    # the constrained-pool lower-bound phenomenon on chains
    for n in range(2, 7):
        assert min_max_order(preset_pool("upsets", FinitePoset.chain(n))).value == n
    # pools containing all singletons always solve at order 1
    for _ in range(50):
        assert min_max_order(random_pool(rng)).value == 1
        instances += 1
    ok(f"solver exactness: matches exhaustive enumeration on {instances} instances; "
       f"up-set pools over chains force value n; singleton pools give 1")


FIXTURES = [
    ["analyze", "--kind", "chain", "--n", "4", "--analysis", "selection",
     "--pool", "intervals"],
    ["analyze", "--kind", "poset", "--size", "3", "--pairs", "0<1,0<2",
     "--analysis", "duality"],
    ["analyze", "--kind", "semilattice", "--meet", "0,0,0;0,1,1;0,1,2",
     "--analysis", "modest"],
    ["analyze", "--kind", "tree", "--parents=-1,0,0,1", "--analysis", "sigma"],
    ["analyze", "--kind", "free", "--s", "3", "--clopen", "g0 & (g1 | !g2)",
     "--analysis", "minsupport"],
    ["analyze", "--kind", "algebra", "--n", "4", "--analysis", "freeseq"],
    ["solve", "--kind", "algebra", "--n", "4", "--pool", "all"],
    ["solve", "--kind", "chain", "--n", "5", "--pool", "upsets"],
    ["solve", "--kind", "chain", "--n", "5", "--pool", "upsets", "--mode", "greedy"],
    ["export-dot", "--kind", "poset", "--size", "3", "--pairs", "0<1"],
]


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    assert code == 0, argv
    return buf.getvalue()


def test_cli_determinism():
    for argv in FIXTURES:
        first = _run_cli(argv)
        second = _run_cli(argv)
        assert first == second, f"non-deterministic output for {argv}"
        if argv[0] != "export-dot":
            json.loads(first)  # machine-readable
    ok(f"determinism: byte-identical machine output on {len(FIXTURES)} fixture runs")
