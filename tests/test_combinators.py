import ast
import random
from pathlib import Path

import pytest

from stonelab import (
    LintWarning,
    PorcupineSpec,
    ValidationError,
    alexandrov_duplication,
    porcupine,
    product_system,
    singleton_system,
    sum_with_point,
    system_from_sets,
)
from stonelab.bits import iter_bits
from stonelab.families import is_t0_separating, order_profile

# random instances legitimately produce duplicate members; the lint is tested explicitly
pytestmark = pytest.mark.filterwarnings("ignore::stonelab.errors.LintWarning")


def random_t0_system(rng, max_points=4, max_members=4, cover=True):
    """Random system whose family is T0-separating and covers every point."""
    n = rng.randint(1, max_points)
    sets = [rng.randrange(1 << n) for _ in range(rng.randint(0, max_members))]
    sys_ = system_from_sets(n, sets)
    # repair: split unseparated pairs, then cover naked points
    while True:
        res = is_t0_separating(sys_.family)
        if res.separating:
            break
        sets.append(1 << res.witness[0])
        sys_ = system_from_sets(n, sets)
    if cover:
        covered = 0
        for s in sets:
            covered |= s
        for p in range(n):
            if not covered >> p & 1:
                sets.append(1 << p)
        sys_ = system_from_sets(n, sets)
    return sys_


class TestProduct:
    def test_sizes_and_max_order(self):
        prod = product_system(singleton_system(2), singleton_system(3))
        assert prod.points.size == 6
        assert order_profile(prod.family).max_order == 2
        assert is_t0_separating(prod.family).separating

    def test_identity_factor(self):
        s1 = singleton_system(3)
        point = system_from_sets(1, [])
        prod = product_system(s1, point)
        assert prod.points.size == 3
        assert order_profile(prod.family).per_point == order_profile(s1.family).per_point

    def test_order_additivity_random(self):
        rng = random.Random(17)
        for _ in range(100):
            s1 = random_t0_system(rng)
            s2 = random_t0_system(rng)
            prod = product_system(s1, s2)
            p1 = order_profile(s1.family).per_point
            p2 = order_profile(s2.family).per_point
            got = order_profile(prod.family).per_point
            n2 = s2.points.size
            for i in range(s1.points.size):
                for j in range(n2):
                    assert got[i * n2 + j] == p1[i] + p2[j]

    def test_non_t0_inputs_warn(self):
        flat = system_from_sets(2, [])
        with pytest.warns(LintWarning):
            product_system(flat, singleton_system(2))


class TestSum:
    def test_three_components(self):
        out = sum_with_point([singleton_system(2)] * 3)
        assert out.points.size == 7
        assert out.base_point == 6
        assert order_profile(out.family).per_point[out.base_point] == 0
        assert order_profile(out.family).max_order == 1
        assert is_t0_separating(out.family).separating

    def test_empty_list(self):
        out = sum_with_point([])
        assert out.points.size == 1
        assert out.family.size == 0

    def test_single_component(self):
        out = sum_with_point([singleton_system(3)])
        assert out.points.size == 4
        assert order_profile(out.family).per_point[out.base_point] == 0

    def test_component_orders_unchanged(self):
        rng = random.Random(23)
        for _ in range(60):
            systems = [random_t0_system(rng) for _ in range(rng.randint(0, 3))]
            out = sum_with_point(systems)
            profile = order_profile(out.family).per_point
            offset = 0
            for s in systems:
                inner = order_profile(s.family).per_point
                assert profile[offset : offset + s.points.size] == inner
                offset += s.points.size
            assert profile[-1] == 0
            # with covering T0 components the sum stays T0-separating
            assert is_t0_separating(out.family).separating


class TestSumSeparation:
    def test_not_t0_when_component_is_not(self):
        bad = system_from_sets(2, [])  # two unseparated points
        out = sum_with_point([singleton_system(2), bad])
        assert not is_t0_separating(out.family).separating

    def test_uncovered_point_collides_with_new_point(self):
        partial = system_from_sets(2, [{0}])  # point 1 has the empty pattern
        out = sum_with_point([partial])
        res = is_t0_separating(out.family)
        assert not res.separating


class TestDuplication:
    def test_full_duplication_of_singletons(self):
        out = alexandrov_duplication(singleton_system(3), [0, 1, 2])
        assert out.points.size == 6
        assert order_profile(out.family).max_order == 2
        assert is_t0_separating(out.family).separating

    def test_empty_dup_set_copies(self):
        s = singleton_system(4)
        out = alexandrov_duplication(s, [])
        assert out.points.size == 4
        assert order_profile(out.family).per_point == order_profile(s.family).per_point

    def test_plus_one_law_random(self):
        rng = random.Random(31)
        for _ in range(100):
            s = random_t0_system(rng)
            n = s.points.size
            dup = sorted(rng.sample(range(n), rng.randint(0, n)))
            out = alexandrov_duplication(s, dup)
            base = order_profile(s.family).per_point
            got = order_profile(out.family).per_point
            assert got[:n] == base
            for k, x in enumerate(dup):
                assert got[n + k] == base[x] + 1
            assert is_t0_separating(out.family).separating

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            alexandrov_duplication(singleton_system(2), [5])


class TestPorcupine:
    def test_single_point_index(self):
        # index family = the one singleton member; fiber splits around s(x)
        X = singleton_system(1)
        fiber = system_from_sets(3, [{0}, {1}, {2}])
        res = porcupine(PorcupineSpec(X, (fiber,), (0,)))
        labels = [m.label for m in res.system.family.members]
        # fiber members missing s(x) survive as V0; the full-space member
        # and the around-section members come from W
        assert any(l.startswith("porc:V0:") for l in labels)
        assert any(l.startswith("porc:V1:full:") for l in labels)
        assert any(l.startswith("porc:V1:x=0:") for l in labels)
        assert is_t0_separating(res.system.family).separating

    def test_two_point_example(self):
        X = singleton_system(2)
        fibers = (singleton_system(2), singleton_system(2))
        res = porcupine(PorcupineSpec(X, fibers, (0, 0)))
        assert is_t0_separating(res.system.family).separating
        assert order_profile(res.system.family).max_order <= 4

    def test_singleton_fibers_lift_index_profile(self):
        # every fiber is one point (its own section image)
        X = singleton_system(3)
        fibers = tuple(system_from_sets(1, [{0}]) for _ in range(3))
        res = porcupine(PorcupineSpec(X, fibers, (0, 0, 0)))
        prof = order_profile(res.system.family)
        for d in res.decomposition:
            assert d.v_star == order_profile(X.family).per_point[d.point]
            assert d.total == prof.per_point[d.point]

    def test_decomposition_sums_to_order(self):
        rng = random.Random(47)
        for _ in range(60):
            nx = rng.randint(1, 3)
            X = random_t0_system(rng, max_points=nx)
            fibers = tuple(random_t0_system(rng, max_points=3) for _ in range(X.points.size))
            section = tuple(rng.randrange(f.points.size) for f in fibers)
            res = porcupine(PorcupineSpec(X, fibers, section))
            prof = order_profile(res.system.family)
            for d in res.decomposition:
                assert d.total == prof.per_point[d.point]
            assert is_t0_separating(res.system.family).separating

    @staticmethod
    def recount(res, fibers):
        """Each part of each point's order, recounted from the member labels."""
        owner = [x for x, f in enumerate(fibers) for _ in range(f.points.size)]
        parts = {d.point: [0, 0, 0, 0] for d in res.decomposition}
        for m in res.system.family.members:
            kind = m.label.split(":")
            for p in iter_bits(m.bits):
                if kind[1] == "V0":
                    parts[p][0] += 1
                elif kind[2] == "full":
                    parts[p][2] += 1
                else:
                    parts[p][1 if int(kind[2][2:]) == owner[p] else 3] += 1
        return parts

    @pytest.mark.parametrize("index, fibers, section", [
        # duplicate fiber members
        ([[0], [0, 1]], [(2, [[0, 1], [0, 1], [1]]), (2, [[0], [1], [1]])], (0, 1)),
        # an empty index member
        ([[], [0], [0, 1], []], [(3, [[0], [1], [2]]), (2, [[0], [1]])], (2, 0)),
        # a fiber member equal to the whole fiber
        ([[0], [1], [0, 1]], [(3, [[0, 1, 2], [0], [1]]), (1, [[0]])], (1, 0)),
        # no member of fiber 0 holds its section point
        ([[0, 1], [1]], [(3, [[1], [2], [1, 2]]), (2, [[0], [0, 1]])], (0, 1)),
    ], ids=["duplicate-members", "empty-index-member", "whole-fiber-member",
            "section-point-uncovered"])
    def test_decomposition_recounts_from_labels(self, index, fibers, section):
        X = system_from_sets(len(fibers), index)
        fibers = tuple(system_from_sets(n, sets) for n, sets in fibers)
        res = porcupine(PorcupineSpec(X, fibers, section))
        parts = self.recount(res, fibers)
        assert [d.point for d in res.decomposition] == list(range(res.system.points.size))
        for d in res.decomposition:
            assert parts[d.point] == [d.v0, d.v_minus, d.v_star, d.v_star2]

    def test_decomposition_recounts_on_random_fibers(self):
        rng = random.Random(53)
        for _ in range(60):
            X = random_t0_system(rng, max_points=4, max_members=5, cover=rng.random() < 0.8)
            fibers = tuple(random_t0_system(rng, max_points=6, max_members=6)
                           for _ in range(X.points.size))
            section = tuple(rng.randrange(f.points.size) for f in fibers)
            res = porcupine(PorcupineSpec(X, fibers, section))
            parts = self.recount(res, fibers)
            prof = order_profile(res.system.family)
            for d in res.decomposition:
                assert parts[d.point] == [d.v0, d.v_minus, d.v_star, d.v_star2]
                assert d.total == prof.per_point[d.point]

    def test_separation_case_analysis(self):
        # every pair class from the gluing is separated: two non-section
        # points of one fiber, two section images, and a fiber point
        # against its own section image
        rng = random.Random(61)
        for _ in range(40):
            X = random_t0_system(rng, max_points=3)
            fibers = tuple(
                random_t0_system(rng, max_points=3) for _ in range(X.points.size)
            )
            section = tuple(rng.randrange(f.points.size) for f in fibers)
            res = porcupine(PorcupineSpec(X, fibers, section))
            members = res.system.family.members
            offsets = []
            total = 0
            for f in fibers:
                offsets.append(total)
                total += f.points.size
            s_global = [offsets[x] + section[x] for x in range(len(fibers))]

            def separated(a, b):
                return any(
                    (m.bits >> a & 1) != (m.bits >> b & 1) for m in members
                )

            for x, f in enumerate(fibers):
                pts = [offsets[x] + i for i in range(f.points.size)]
                for i, a in enumerate(pts):
                    for b in pts[i + 1 :]:
                        assert separated(a, b)  # same fiber, covers y vs s(x) too
            for i, a in enumerate(s_global):
                for b in s_global[i + 1 :]:
                    assert separated(a, b)  # section image vs section image

    def test_mismatch_errors(self):
        X = singleton_system(2)
        with pytest.raises(ValidationError):
            PorcupineSpec(X, (singleton_system(2),), (0, 0))
        with pytest.raises(ValidationError):
            PorcupineSpec(X, (singleton_system(2), singleton_system(2)), (0, 5))

    def test_uncovered_index_warns(self):
        X = system_from_sets(1, [])  # one point, empty family: T0 but no coverage
        fiber = system_from_sets(2, [{0}])
        with pytest.warns(LintWarning):
            porcupine(PorcupineSpec(X, (fiber,), (0,)))


@pytest.mark.parametrize("module", ["orders", "trees", "freeseq"])
def test_structures_do_not_import_combinators(module):
    """The dual point sets and their systems sit below the combinators:
    ``PointedSystem`` is in ``families``, so these modules import nothing
    from ``combinators``."""
    path = Path(__file__).resolve().parents[1] / "src" / "stonelab" / f"{module}.py"
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [getattr(node, "module", None) or "", *(a.name for a in node.names)]
            assert not any(n.split(".")[-1] == "combinators" for n in names), ast.dump(node)
