import json
import random
import sys

import pytest
from hypothesis import given, strategies as st

pytestmark = pytest.mark.filterwarnings("ignore::stonelab.errors.LintWarning")

from stonelab import (
    FiniteForest,
    FinitePoset,
    LintWarning,
    ValidationError,
    cli,
    filters,
    final_segments,
    paths,
    preset_pool,
    sigma_system,
    solver,
    trees,
)
from stonelab.bits import set_label
from stonelab.families import (
    NOT_GENERATING,
    Member,
    PointSet,
    SeparatingFamily,
    SetSpace,
    is_t0_separating,
    order_profile,
)
from stonelab.orders import clopen_filter_family

from helpers import family_from_sets, meet_chain


def fam(size, sets):
    return family_from_sets(PointSet(size), sets)


def singletons(n):
    return fam(n, [1 << i for i in range(n)])


class TestOrd:
    def test_direct_count(self):
        f = fam(4, [{0, 1}, {1, 2}, {2, 3}])
        assert order_profile(f).per_point[1] == 2

    def test_empty_family(self):
        f = fam(3, [])
        assert order_profile(f).per_point == (0, 0, 0)

    def test_singletons(self):
        assert order_profile(singletons(4)).per_point[2] == 1

    def test_monotone_under_member_addition(self):
        rng = random.Random(5)
        for _ in range(100):
            n = rng.randint(1, 10)
            sets = [rng.randrange(1 << n) for _ in range(rng.randint(0, 6))]
            before = order_profile(fam(n, sets)).per_point
            after = order_profile(fam(n, sets + [rng.randrange(1 << n)])).per_point
            assert all(b <= a for b, a in zip(before, after))


class TestT0:
    def test_singletons_separate(self):
        res = is_t0_separating(singletons(5))
        assert res.separating and res.witness is None

    def test_failure_with_witness(self):
        res = is_t0_separating(fam(3, [{0, 1}]))
        assert not res.separating
        assert res.witness == (0, 1)

    def test_two_singletons_over_three(self):
        # point 2 carries the empty pattern, still separated from 0 and 1
        assert is_t0_separating(fam(3, [{0}, {1}])).separating

    def test_singleton_family_every_n(self):
        for n in range(1, 12):
            f = singletons(n)
            assert is_t0_separating(f).separating
            assert order_profile(f).max_order == 1


class TestOrderProfile:
    def test_singletons(self):
        prof = order_profile(singletons(4))
        assert prof.per_point == (1, 1, 1, 1)
        assert prof.max_order == 1
        assert prof.argmax_points == (0, 1, 2, 3)

    def test_chain_upsets(self):
        f = fam(3, [{0, 1, 2}, {1, 2}, {2}])
        prof = order_profile(f)
        assert prof.per_point == (1, 2, 3)
        assert prof.max_order == 3
        assert prof.argmax_points == (2,)

    def test_empty(self):
        prof = order_profile(fam(3, []))
        assert prof.per_point == (0, 0, 0)
        assert prof.max_order == 0


class TestSelectionValue:
    """The selection value of generators G over the atoms, max over
    ultrafilters p of |p & G|, is the maximum point order of G as a family
    over the atoms; its witness is the first atom reaching it."""

    def test_singletons_value_one(self):
        prof = order_profile(singletons(4))
        assert prof.max_order == 1
        assert prof.argmax_points[0] == 0

    def test_chain_interval_generators(self):
        tails = [{a for a in range(i, 3)} for i in range(3)]
        prof = order_profile(fam(3, tails))
        assert prof.max_order == 3
        assert prof.argmax_points[0] == 2

    def test_constant_one_generator(self, tmp_path, capsys):
        f = tmp_path / "one.json"
        f.write_text(json.dumps({"kind": "system", "points": 5,
                                 "members": [{"set": [0, 1, 2, 3, 4]}]}))  # G = [1]
        assert cli.main(["analyze", "--in", str(f), "--analysis", "selection",
                         "--pool", "free"]) == 0
        captured = capsys.readouterr()
        results = json.loads(captured.out)["results"]
        assert results["selection_value"] == 1
        assert results["generates_whole"] is False
        assert captured.err == f"warning: {NOT_GENERATING}\n"

    def test_matches_order_profile_max(self):
        rng = random.Random(9)
        for _ in range(200):
            n = rng.randint(1, 9)
            gens = [rng.randrange(1 << n) for _ in range(rng.randint(1, 7))]
            prof = order_profile(fam(n, gens))
            value = max(sum(g >> a & 1 for g in gens) for a in range(n))
            assert prof.max_order == value
            assert prof.per_point[prof.argmax_points[0]] == value


class TestPointFiniteness:
    def test_singletons(self):
        assert order_profile(singletons(6)).max_order == 1

    def test_all_subsets_n3(self):
        f = fam(3, list(range(8)))
        assert order_profile(f).max_order == 4  # each point lies in 2^(n-1) members

    def test_empty(self):
        assert order_profile(fam(4, [])).max_order == 0


class TestLint:
    def test_duplicates_flagged(self):
        pts = PointSet(3)
        with pytest.warns(LintWarning):
            f = SeparatingFamily(pts, (Member("a", 3), Member("b", 3)))
        # multiset semantics: duplicates count multiply
        assert order_profile(f).per_point[0] == 2

    def test_labels_preserved(self):
        f = family_from_sets(PointSet(2, ("p", "q")), [{0}])
        assert f.members[0].label == "U0"
        assert f.points.label(1) == "q"


def test_point_set_validation():
    with pytest.raises(ValidationError):
        PointSet(0)
    with pytest.raises(ValidationError):
        PointSet(2, ("only-one",))
    with pytest.raises(ValidationError):
        SeparatingFamily(PointSet(2), (Member("m", 0b100),))


@st.composite
def set_spaces(draw):
    width = draw(st.integers(0, 6))
    sets = draw(st.lists(st.integers(0, (1 << width) - 1), min_size=1, max_size=12, unique=True))
    return SetSpace(width, tuple(sorted(sets)))


class TestSetSpace:
    """Each view of a set space against its literal definition."""

    @given(set_spaces())
    def test_labels(self, space):
        literal = tuple(
            "{" + ",".join(str(e) for e in range(space.width) if s >> e & 1) + "}"
            for s in space.sets
        )
        assert space.labels == literal
        assert space.points == PointSet(len(space.sets))  # unlabeled: labels holds the text

    @given(set_spaces())
    def test_generators(self, space):
        assert space.generators == tuple(
            sum(1 << i for i, s in enumerate(space.sets) if s >> e & 1)
            for e in range(space.width)
        )

    @given(set_spaces())
    def test_up(self, space):
        assert space.up == tuple(
            sum(1 << j for j, t in enumerate(space.sets) if s & ~t == 0)
            for s in space.sets
        )

    @given(set_spaces(), st.sampled_from(["a_", "V+", ""]))
    def test_family(self, space, prefix):
        family = space.family(prefix)
        assert family.points is space.points
        assert [(m.label, m.bits) for m in family.members] == [
            (f"{prefix}{e}", sum(1 << i for i, s in enumerate(space.sets) if s >> e & 1))
            for e in range(space.width)
        ]

    @given(set_spaces())
    def test_family_signatures(self, space):
        family = space.family("a_")
        signatures = family.signatures
        assert signatures == tuple(
            sum(1 << i for i, m in enumerate(family.members) if m.bits >> p & 1)
            for p in range(space.size)
        )
        assert family.signatures is signatures  # transposed once


def small_spaces():
    """FS(P) of a 3-point poset, Fil(M) of a 3-element chain, and the path
    space of a 3-node tree."""
    segments = final_segments(FinitePoset(3, [(0, 1)]))
    fils = filters(meet_chain(3))
    forest = FiniteForest([None, 0, 0])
    return segments, fils, forest


class TestSetSpaceReuse:
    """Systems, pools and families over a set space use its one point set,
    so no layer builds a second round of labels."""

    def test_lattice_systems_and_pools(self, monkeypatch):
        segments, fils, _ = small_spaces()
        for space in (segments, fils):
            assert space.family("a_").points is space.points
        monkeypatch.setattr(solver, "final_segments", lambda p: segments)
        monkeypatch.setattr(solver, "semilattice_filters", lambda m: fils)
        assert preset_pool("upsets", segments.poset).points is segments.points
        assert preset_pool("filters", meet_chain(3)).points is fils.points
        assert clopen_filter_family(fils).points is fils.points

    def test_path_space(self, monkeypatch):
        _, _, forest = small_spaces()
        space = paths(forest)
        monkeypatch.setattr(trees, "paths", lambda f: space)
        system = sigma_system(forest)
        assert system.points is space.points and system.family.points is space.points
        assert preset_pool("tree", forest).points is space.points

    @pytest.mark.parametrize("argv, points", [
        (["analyze", "--kind", "chain", "--n", "3", "--analysis", "duality"], 4),
        (["analyze", "--kind", "semilattice", "--meet", "0,0,0;0,1,1;0,1,2",
          "--analysis", "modest"], 4),
        # the sigma report prints no path labels, so none is built
        (["analyze", "--kind", "tree", "--parents=-1,0,0", "--analysis", "sigma"], 0),
        (["export-dot", "--kind", "chain", "--n", "3"], 4),
        (["solve", "--kind", "chain", "--n", "3", "--pool", "upsets"], 4),
    ])
    def test_one_label_per_point(self, monkeypatch, capsys, argv, points):
        calls = []

        def counting(mask):
            calls.append(mask)
            return set_label(mask)

        for name, module in list(sys.modules.items()):
            if name.startswith("stonelab") and getattr(module, "set_label", None) is set_label:
                monkeypatch.setattr(module, "set_label", counting)
        assert cli.main(argv) == 0
        capsys.readouterr()
        assert len(calls) == points
