import json
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from stonelab import FiniteBooleanAlgebra, ValidationError, cli, selftest
from stonelab.bits import iter_bits, points
from stonelab.cli import (
    _MAX_FORMULA_DEPTH,
    _MAX_JSON_DEPTH,
    build_parser,
    main,
    parse_clopen,
    system_from_json,
    system_to_json,
)
from stonelab.combinators import porcupine
from stonelab.freealg import FreeAlgebra
from stonelab.oracles import is_free_sequence_naive


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out)


class TestAnalyze:
    def test_chain_selection_intervals(self, capsys):
        code, rep = run_json(
            capsys, "analyze", "--kind", "chain", "--n", "3",
            "--analysis", "selection", "--pool", "intervals",
        )
        assert code == 0
        assert rep["results"]["selection_value"] == 3
        assert rep["results"]["witness_atom"] == 2
        assert rep["results"]["family"]["t0_separating"]

    def test_free_minsupport(self, capsys):
        code, rep = run_json(
            capsys, "analyze", "--kind", "free", "--s", "3",
            "--clopen", "g0 & !g1", "--analysis", "minsupport",
        )
        assert code == 0
        assert rep["results"]["support_size"] == 1
        assert rep["results"]["support"] == [0]

    def test_poset_duality(self, capsys):
        code, rep = run_json(
            capsys, "analyze", "--kind", "poset", "--size", "3",
            "--pairs", "0<1,1<2", "--analysis", "duality",
        )
        assert code == 0
        assert rep["results"]["segment_count"] == 4
        assert rep["results"]["prime_filter_count"] == 3
        assert rep["results"]["bijection_with_poset"]
        assert rep["results"]["generator_orientation"] == "preserving"

    def test_semilattice_modest(self, capsys):
        code, rep = run_json(
            capsys, "analyze", "--kind", "semilattice",
            "--meet", "0,0,0;0,1,1;0,1,2", "--analysis", "modest",
        )
        assert code == 0
        assert rep["results"]["filter_count"] == 4
        assert rep["results"]["witness_compact_below"] == 3

    def test_tree_sigma(self, capsys):
        code, rep = run_json(
            capsys, "analyze", "--kind", "tree", "--parents=-1,0,0,1,1,2,2",
            "--analysis", "sigma",
        )
        assert code == 0
        assert rep["results"]["path_count"] == 8
        assert rep["results"]["height"] == 3
        assert rep["results"]["max_order_equals_height"]

    def test_algebra_freeseq(self, capsys):
        code, rep = run_json(
            capsys, "analyze", "--kind", "algebra", "--n", "3",
            "--analysis", "freeseq",
        )
        assert code == 0
        assert rep["results"]["algebra_sequence_length"] == 2
        assert rep["results"]["point_sequence_length"] == 3
        assert rep["results"]["asymmetry"] == 1

    def test_algebra_freeseq_default_pool_to_its_cap(self, capsys):
        """The default pool, every nonconstant element, runs up to the free
        pool's 12 atoms and is refused above them."""
        code, rep = run_json(capsys, "analyze", "--kind", "algebra", "--n", "12",
                             "--analysis", "freeseq")
        assert code == 0
        assert rep["results"]["algebra_sequence_length"] == 11
        B = FiniteBooleanAlgebra(12)
        terms = [B.element(sum(1 << a for a in t)) for t in rep["results"]["algebra_sequence"]]
        assert is_free_sequence_naive(B, terms)
        assert main(["analyze", "--kind", "algebra", "--n", "13", "--analysis", "freeseq"]) == 2
        assert capsys.readouterr().err == \
            "cap exceeded: free pool enumerates all subsets; atoms capped at 12\n"


class TestSolve:
    def test_algebra_pool_all(self, capsys):
        code, rep = run_json(
            capsys, "solve", "--kind", "algebra", "--n", "4", "--pool", "all",
        )
        assert code == 0
        assert rep["results"]["value"] == 1
        assert rep["results"]["exact"]

    def test_chain_upsets(self, capsys):
        code, rep = run_json(
            capsys, "solve", "--kind", "chain", "--n", "4", "--pool", "upsets",
        )
        assert code == 0
        assert rep["results"]["value"] == 4

    def test_solve_custom_system_pool(self, tmp_path, capsys):
        f = tmp_path / "sys.json"
        f.write_text(json.dumps({
            "kind": "system", "points": 3,
            "members": [
                {"label": "A", "set": [0]}, {"label": "B", "set": [1]},
                {"label": "C", "set": [0, 1]},
            ],
        }))
        code, rep = run_json(capsys, "solve", "--in", str(f))
        assert code == 0
        assert rep["results"]["value"] == 1  # A and B separate all three points

    def test_solve_and_selection_name_the_same_pair(self, tmp_path, capsys):
        # points 0 and 5 share a pattern, and so do 1 and 2: the least pair is (0, 5)
        f = tmp_path / "sys.json"
        f.write_text(json.dumps({
            "kind": "system", "points": 6,
            "members": [{"set": [0, 5]}, {"set": [3]}, {"set": [4]}],
        }))
        assert main(["solve", "--in", str(f)]) == 1
        assert "pool cannot separate points 0 and 5" in capsys.readouterr().err
        code, rep = run_json(capsys, "analyze", "--in", str(f), "--analysis", "selection",
                             "--pool", "free")
        assert code == 0
        assert rep["results"]["family"]["unseparated_pair"] == [0, 5]
        assert rep["results"]["generates_whole"] is False

    def test_greedy_flagged(self, capsys):
        code, rep = run_json(
            capsys, "solve", "--kind", "chain", "--n", "3", "--pool", "upsets",
            "--mode", "greedy",
        )
        assert code == 0
        assert not rep["results"]["exact"]
        assert rep["results"]["value"] >= 3


class TestStructureFiles:
    def test_bare_int_chain_file(self, tmp_path, capsys):
        f = tmp_path / "chain.json"
        f.write_text("3")
        code, rep = run_json(
            capsys, "analyze", "--in", str(f), "--analysis", "selection",
            "--pool", "intervals",
        )
        assert code == 0
        assert rep["results"]["selection_value"] == 3

    def test_poset_file(self, tmp_path, capsys):
        f = tmp_path / "poset.json"
        f.write_text(json.dumps({"kind": "poset", "size": 2, "le": [[0, 1]]}))
        code, rep = run_json(capsys, "analyze", "--in", str(f), "--analysis", "duality")
        assert code == 0
        assert rep["results"]["segment_count"] == 3

    def test_unknown_kind_exit_one(self, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps({"kind": "widget"}))
        code, _ = run(capsys, "analyze", "--in", str(f), "--analysis", "duality")
        assert code == 1

    def test_cap_exceeded_exit_two(self, capsys):
        code, _ = run(
            capsys, "analyze", "--kind", "poset", "--size", "25",
            "--pairs", "0<1", "--analysis", "duality",
        )
        assert code == 2

    def test_missing_structure_exit_one(self, capsys):
        code, _ = run(capsys, "analyze", "--analysis", "duality")
        assert code == 1

    def test_unknown_flag_exit_one(self, capsys):
        assert main(["analyze", "--frobnicate"]) == 1

    def test_unknown_subcommand_exit_one(self, capsys):
        assert main(["launch"]) == 1

    def test_help_exit_zero(self, capsys):
        assert main(["--help"]) == 0


SYS_A = {
    "kind": "system",
    "points": 2,
    "members": [{"label": "U0", "set": [0]}, {"label": "U1", "set": [1]}],
}


class TestCombine:
    def write(self, tmp_path, name, data):
        f = tmp_path / name
        f.write_text(json.dumps(data))
        return str(f)

    def test_product(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", SYS_A)
        code, rep = run_json(capsys, "combine", "--op", "product", "--inputs", a, a)
        assert code == 0
        assert rep["points"] == 4
        assert len(rep["members"]) == 4

    def test_sum(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", SYS_A)
        code, rep = run_json(capsys, "combine", "--op", "sum", "--inputs", a, a)
        assert code == 0
        assert rep["points"] == 5
        assert rep["base_point"] == 4

    def test_duplicate(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", SYS_A)
        code, rep = run_json(
            capsys, "combine", "--op", "duplicate", "--inputs", a,
            "--dup-points", "0",
        )
        assert code == 0
        assert rep["points"] == 3

    def test_porcupine_with_decomposition(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", SYS_A)
        code, rep = run_json(
            capsys, "combine", "--op", "porcupine", "--inputs", a, a, a,
            "--section", "0,0",
        )
        assert code == 0
        assert rep["points"] == 4
        for entry in rep["porcupine_decomposition"]:
            assert entry["total"] == (
                entry["v0"] + entry["v_minus"] + entry["v_star"] + entry["v_star2"]
            )

    def test_round_trip_lossless(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", SYS_A)
        code, rep = run_json(capsys, "combine", "--op", "product", "--inputs", a, a)
        assert code == 0
        again = json.loads(json.dumps(rep))
        assert again == rep


class TestExportDot:
    def test_poset_hasse(self, tmp_path, capsys):
        out = tmp_path / "g.dot"
        code, _ = run(
            capsys, "export-dot", "--kind", "poset", "--size", "2",
            "--pairs", "", "--dot", str(out),
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("digraph")
        assert text.count("->") == 4  # diamond

    def test_tree_inclusion(self, capsys):
        code, out = run(capsys, "export-dot", "--kind", "tree", "--parents=-1,0")
        assert code == 0
        assert "digraph" in out

    def test_semilattice(self, capsys):
        code, out = run(capsys, "export-dot", "--kind", "semilattice", "--meet", "0,0;0,1")
        assert code == 0
        assert "digraph" in out


class TestSelftest:
    def test_passes(self, capsys):
        code, out = run(capsys, "selftest", "--seed", "1")
        assert code == 0
        assert "4/4" in out

    def test_mismatch_exits_three(self, monkeypatch, capsys):
        rows = list(selftest.CHECKS)
        name, cases, _ = rows[2]
        rows[2] = (name, cases, lambda *case: False)
        monkeypatch.setattr(selftest, "CHECKS", tuple(rows))
        code, out = run(capsys, "selftest", "--seed", "1")
        assert code == 3
        assert out.splitlines() == [
            "ok       generation == closure-to-fixpoint oracle",
            "ok       maximal-split freeness == all-pairs definition",
            "MISMATCH branch-and-bound solver == exhaustive subfamily oracle",
            "ok       prime filters of FS(P) biject with P",
            "selftest: 3/4 oracle pairs agree (seed 1)",
        ]

    def test_seed_flag_wins_over_environment(self, monkeypatch, capsys):
        """``--seed`` is the one seed source: no variable is read, and the
        default is 0."""
        monkeypatch.setenv("STONELAB_SEED", "abc")
        code, out = run(capsys, "selftest", "--seed", "5")
        assert code == 0 and out.endswith("(seed 5)\n")
        code, out = run(capsys, "selftest")
        assert code == 0 and out.endswith("(seed 0)\n")

    @pytest.mark.parametrize("row", selftest.CHECKS, ids=lambda row: row[0].split()[0])
    def test_rows_agree_on_ten_seeds(self, row):
        """Each row's sample under seeds 0-9 on its own generator: ten times
        what one selftest run draws for the random rows."""
        _, cases, agree = row
        for seed in range(10):
            for case in cases(random.Random(seed)):
                assert agree(*case), (seed, case)


class TestDeterminism:
    def test_repeat_runs_identical(self, capsys):
        args = ["solve", "--kind", "chain", "--n", "5", "--pool", "upsets"]
        _, first = run(capsys, *args)
        _, second = run(capsys, *args)
        assert first == second

    def test_human_view(self, capsys):
        code, out = run(
            capsys, "solve", "--kind", "chain", "--n", "3", "--pool", "upsets",
            "--human",
        )
        assert code == 0
        assert "value" in out and "3" in out

    def test_out_flag(self, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(
            ["solve", "--kind", "algebra", "--n", "3", "--pool", "all",
             "--out", str(out)]
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["results"]["value"] == 1


def test_formula_parser():
    F = FreeAlgebra(3)
    assert parse_clopen(F, "g0 & !g1").table == F.basic_clopen({0}, {1}).table
    assert parse_clopen(F, "(g0 | g1) & !g2").table == (
        (F.generator(0) | F.generator(1)) & ~F.generator(2)
    ).table
    assert parse_clopen(F, "1").table == F.one.table
    with pytest.raises(Exception):
        parse_clopen(F, "g0 &")


def test_formula_nesting():
    F = FreeAlgebra(2)
    nested = "(" * 50 + "g0 & !g1" + ")" * 50
    assert parse_clopen(F, nested).table == F.basic_clopen({0}, {1}).table
    assert parse_clopen(F, "(!" * 25 + "g0" + ")" * 25).table == (~F.generator(0)).table
    assert parse_clopen(F, "!" * _MAX_FORMULA_DEPTH + "g1").table == F.generator(1).table
    with pytest.raises(ValidationError, match="nests deeper"):
        parse_clopen(F, "!" * (_MAX_FORMULA_DEPTH + 1) + "g1")


SYS_FILE = str(Path(__file__).resolve().with_name("golden") / "sys_a.json")


class TestMalformedInput:
    """Malformed input ends with exit 1 and one stderr line, no traceback."""

    def assert_rejected(self, capsys, *argv) -> str:
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "Traceback" not in err
        return err

    @pytest.mark.parametrize("member", [
        {"label": "A"},
        {"set": [0, "x"]},
        {"set": [1.5]},
        {"set": [-1]},
        {"set": [3]},
        {"set": [999999999]},
        {"label": 5, "set": [0]},
        {"label": [1], "set": [0]},
    ])
    def test_bad_system_member(self, tmp_path, capsys, member):
        f = tmp_path / "sys.json"
        f.write_text(json.dumps({
            "kind": "system", "points": 3,
            "members": [{"label": "U0", "set": [0]}, member],
        }))
        for command in ("solve", "export-dot"):
            self.assert_rejected(capsys, command, "--in", str(f))

    # commands that take the kinds solve's default free pool refuses unread
    TAKES = {
        "free": ["analyze", "--analysis", "minsupport", "--clopen", "g0"],
        "poset": ["analyze", "--analysis", "duality"],
        "semilattice": ["analyze", "--analysis", "modest"],
        "tree": ["analyze", "--analysis", "sigma"],
    }

    @pytest.mark.parametrize("fields", [
        {"points": "x"},
        {"members": 5},
        {"labels": 5},
        {"base_point": "a"},
        {"kind": "chain", "n": "x"},
        {"kind": "chain", "n": True},
        {"kind": "algebra", "atoms": "x"},
        {"kind": "algebra", "atoms": 2.5},
        {"kind": "free", "generators": "x"},
        {"kind": "poset", "size": "x"},
        {"kind": "poset", "size": 2, "le": [[0]]},
        {"kind": "semilattice", "meet": 5},
        {"kind": "tree", "parents": 5},
    ])
    def test_bad_system_shape(self, tmp_path, capsys, fields):
        """Each kind goes through a command that takes it, and the one line
        names the bad field, the last one given."""
        f = tmp_path / "sys.json"
        f.write_text(json.dumps({"kind": "system", "points": 3, "members": [], **fields}))
        command = self.TAKES.get(fields.get("kind"), ["solve"])
        err = self.assert_rejected(capsys, *command, "--in", str(f))
        assert f"'{list(fields)[-1]}'" in err

    @pytest.mark.parametrize("parents, entry", [([-1.0, 0], "-1.0"), ([None, 0.0], "0.0")])
    def test_float_tree_parent(self, tmp_path, capsys, parents, entry):
        """Only None or the int -1 marks a root: -1.0 is refused like any
        other float parent."""
        f = tmp_path / "tree.json"
        f.write_text(json.dumps({"kind": "tree", "parents": parents}))
        assert main(["analyze", "--in", str(f), "--analysis", "sigma"]) == 1
        assert capsys.readouterr().err == f"error: bad parent entry {entry}\n"

    def test_bad_pairs_flag(self, capsys):
        self.assert_rejected(
            capsys, "analyze", "--kind", "poset", "--pairs", "0<x",
            "--analysis", "duality",
        )

    def test_bad_cap_env(self, monkeypatch, capsys):
        monkeypatch.setenv("STONELAB_CAP_ATOMS", "abc")
        code = main(["analyze", "--kind", "algebra", "--n", "3", "--analysis", "freeseq"])
        err = capsys.readouterr().err
        assert code == 1
        assert "STONELAB_CAP_ATOMS" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv", [
        ["analyze", "--kind", "tree", "--parents=x,0", "--analysis", "sigma"],
        ["analyze", "--kind", "semilattice", "--meet", "a", "--analysis", "modest"],
        ["analyze", "--kind", "poset", "--pairs", ",", "--analysis", "duality"],
        ["combine", "--op", "duplicate", "--inputs", SYS_FILE, "--dup-points", "x"],
        ["combine", "--op", "porcupine", "--inputs", SYS_FILE, SYS_FILE, SYS_FILE,
         "--section", "x"],
    ])
    def test_bad_inline_flag(self, capsys, argv):
        self.assert_rejected(capsys, *argv)

    @pytest.mark.parametrize("formula", ["!" * 3000 + "g0", "(" * 3000 + "g0" + ")" * 3000])
    def test_deeply_nested_formula(self, capsys, formula):
        self.assert_rejected(
            capsys, "analyze", "--kind", "free", "--s", "2", "--analysis", "minsupport",
            "--clopen", formula,
        )

    @pytest.mark.parametrize("command", [
        ["analyze", "--analysis", "duality", "--in"],
        ["combine", "--op", "sum", "--inputs"],
    ])
    def test_deeply_nested_json(self, tmp_path, capsys, command):
        f = tmp_path / "deep.json"
        f.write_text('{"kind": "poset", "size": 2, "le": ' + "[" * 100000 + "]" * 100000 + "}")
        self.assert_rejected(capsys, *command, str(f))

    @pytest.mark.parametrize("command", [
        ["analyze", "--analysis", "selection", "--in"],
        ["solve", "--in"],
    ])
    def test_unused_field_nested_too_deeply(self, tmp_path, capsys, command):
        """A file json.load accepts is still refused when the echoed report
        would nest past the encoders' reach."""
        f = tmp_path / "deep.json"
        f.write_text('{"kind": "chain", "n": 3, "x": ' + "[" * 900 + "]" * 900 + "}")
        assert main([*command, str(f)]) == 1
        assert capsys.readouterr().err == f"error: {f}: JSON nested too deeply\n"

    @pytest.mark.parametrize("command", [
        ["analyze", "--analysis", "selection", "--in"],
        ["combine", "--op", "sum", "--inputs"],
    ])
    def test_undecodable_file(self, tmp_path, capsys, command):
        f = tmp_path / "binary.json"
        f.write_bytes(b'\xff\xfe{"kind": "chain", "n": 3}')
        self.assert_rejected(capsys, *command, str(f))

    @pytest.mark.parametrize("command", [
        ["analyze", "--analysis", "selection", "--in"],
        ["combine", "--op", "duplicate", "--inputs"],
    ])
    def test_over_long_integer(self, tmp_path, capsys, command):
        """json.load refuses an integer literal past the interpreter's digit
        limit with a ValueError; the file is named instead."""
        f = tmp_path / "long.json"
        f.write_text('{"kind": "chain", "n": ' + "9" * 5000 + "}")
        assert main([*command, str(f)]) == 1
        limit = sys.get_int_max_str_digits()
        message = f"error: {f}: integer literal longer than {limit} digits\n"
        assert capsys.readouterr().err == message

    def test_nesting_bound(self, tmp_path, capsys):
        f = tmp_path / "nested.json"
        for depth, code in ((_MAX_JSON_DEPTH, 0), (_MAX_JSON_DEPTH + 1, 1)):
            unused = "[" * (depth - 1) + "]" * (depth - 1)  # the object is one level
            f.write_text('{"kind": "chain", "n": 3, "x": ' + unused + "}")
            assert main(["analyze", "--analysis", "selection", "--in", str(f)]) == code
        assert capsys.readouterr().err == f"error: {f}: JSON nested too deeply\n"

    @pytest.mark.parametrize("argv", [
        ["analyze", "--kind", "chain", "--n", "3", "--analysis", "selection", "--seed", "1"],
        ["solve", "--kind", "chain", "--n", "3", "--seed", "1"],
        ["export-dot", "--kind", "chain", "--n", "3", "--seed", "1"],
        ["export-dot", "--kind", "chain", "--n", "3", "--out", "chain.dot"],
        ["export-dot", "--kind", "chain", "--n", "3", "--human"],
        ["solve", "--kind", "chain", "--n", "25", "--pool", "upsets", "--cap-enum", "30"],
        ["export-dot", "--kind", "algebra", "--n", "100", "--cap-atoms", "128"],
    ])
    def test_removed_flag(self, tmp_path, monkeypatch, capsys, argv):
        """Flags that nothing read are usage errors, and write nothing."""
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and "unrecognized arguments" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["solve", "--kind", "chain", "--n", "3", "--pool", "bogus"],
        ["solve", "--in", SYS_FILE, "--pool", "bogus"],
        ["analyze", "--kind", "chain", "--n", "3", "--analysis", "selection", "--pool", "bogus"],
    ])
    def test_unknown_pool_is_usage_error(self, capsys, argv):
        self.assert_rejected(capsys, *argv)

    def test_usage_error_is_one_line(self, capsys):
        code = main(["analyze", "--kind", "tree", "--parents", "-1,0,0", "--analysis", "sigma"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "--parents" in err

    def test_points_cap(self, tmp_path, capsys):
        """A huge point count is refused before any mask of that width is built."""
        f = tmp_path / "sys.json"
        f.write_text(json.dumps({"kind": "system", "points": 10**8, "members": []}))
        tracemalloc.start()
        try:
            code = main(["solve", "--in", str(f), "--mode", "greedy"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 2
        assert err.count("\n") == 1 and "100000000" in err and "4096" in err
        assert peak < 1 << 20


class TestLargeInputs:
    """Sizes past the old recursion depth and the O(n^2) poset build."""

    def test_long_chain_duality(self, capsys):
        code, rep = run_json(
            capsys, "analyze", "--kind", "chain", "--n", "1200", "--analysis", "duality",
            "--cap-enum", "1200",
        )
        assert code == 0
        assert rep["results"]["segment_count"] == 1201

    @pytest.mark.parametrize("n", [6, 12])
    def test_antichain_duality(self, capsys, n):
        start = time.perf_counter()
        code, rep = run_json(
            capsys, "analyze", "--kind", "poset", "--size", str(n), "--analysis", "duality",
        )
        elapsed = time.perf_counter() - start
        assert code == 0
        assert rep["results"]["segment_count"] == 2 ** n
        assert rep["results"]["prime_filter_count"] == n
        if n == 6:
            assert elapsed < 1.0

    def test_antichain_hasse_covers_read_off_the_poset(self, capsys):
        """The 14-antichain's segment lattice is 2^14: its Hasse diagram
        has 14 * 2^13 edges, found without one wide OR per comparable
        pair (3^14 of them, 6.6 s end to end)."""
        start = time.perf_counter()
        code, out = run(capsys, "export-dot", "--kind", "poset", "--size", "14")
        elapsed = time.perf_counter() - start
        assert code == 0
        assert out.count(" -> ") == 14 << 13
        assert elapsed < 1.0

    def test_antichain_duality_under_memory_limit(self):
        """The 16- and 18-antichain duality in a child whose address space
        is limited (``RLIMIT_AS``, set in the child only).
        - 16 points under 256 MB: the run peaks near 36 MB resident; an
          m x m matrix over the 2^16 segments would need 512 MB alone.
        - 18 points under 128 MB: the run peaks near 90 MB resident with
          each prime filter kept as its segment mask; as 2^17 int indices
          per filter it needed about 180 MB and ended in a MemoryError."""
        import resource

        src = str(Path(cli.__file__).parents[1])
        for n, limit, seconds in ((16, 256 << 20, 3.0), (18, 128 << 20, 10.0)):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, "-m", "stonelab", "analyze", "--kind", "poset",
                 "--size", str(n), "--analysis", "duality"],
                capture_output=True, text=True, env={"PYTHONPATH": src},
                preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
            elapsed = time.perf_counter() - start
            assert proc.returncode == 0, proc.stderr[-500:]
            assert json.loads(proc.stdout)["results"]["prime_filter_count"] == n
            assert elapsed < seconds

    def test_out_of_memory_is_one_line(self):
        """A run that exhausts its address space (``RLIMIT_AS`` of 48 MB, set
        in the child only) exits 2 with one stderr line naming the command:
        the 18-antichain duality cannot build its segment lattice there."""
        import resource

        limit = 48 << 20
        proc = subprocess.run(
            [sys.executable, "-m", "stonelab", "analyze", "--kind", "poset", "--size", "18",
             "--analysis", "duality"],
            capture_output=True, text=True, env={"PYTHONPATH": str(Path(cli.__file__).parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert proc.returncode == 2
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("out of memory: analyze")

    @pytest.mark.parametrize("argv", [
        ["solve", "--pool", "upsets"],
        ["analyze", "--analysis", "selection", "--pool", "upsets"],
    ])
    def test_upsets_pool_refused_under_memory_limit(self, argv):
        """The 16-antichain's 65,536 segments are refused as a system before
        the pool builds their up-set matrix, 512 MB of masks, so the run
        ends in one cap line under a 256 MB ``RLIMIT_AS`` set in the child."""
        import resource

        limit = 256 << 20
        proc = subprocess.run(
            [sys.executable, "-m", "stonelab", *argv, "--kind", "poset", "--size", "16",
             "--pairs", ""],
            capture_output=True, text=True, env={"PYTHONPATH": str(Path(cli.__file__).parents[1])},
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)))
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "cap exceeded: system has 65536 points, cap is 4096\n"

    @pytest.mark.parametrize("command", [
        ["analyze", "--analysis", "duality"],
        ["solve", "--pool", "upsets"],
        ["export-dot"],
    ])
    @pytest.mark.parametrize("structure", [
        {"kind": "poset", "size": 100000},
        {"kind": "chain", "n": 100000},
    ])
    def test_huge_poset_capped_before_build(self, tmp_path, capsys, command, structure):
        f = tmp_path / "poset.json"
        f.write_text(json.dumps(structure))
        start = time.perf_counter()
        code = main([*command, "--in", str(f)])
        elapsed = time.perf_counter() - start
        err = capsys.readouterr().err
        assert code == 2
        assert err == "cap exceeded: poset has 100000 points (cap 20); " \
            "|FS(P)| could reach 2^100000\n"
        assert elapsed < 1.0

    @pytest.mark.parametrize("command, message", [
        (["analyze", "--analysis", "selection"], "selection analysis needs a chain or an algebra"),
        (["solve", "--pool", "free"], "free pool needs a FiniteBooleanAlgebra"),
    ])
    def test_huge_poset_refused_unbuilt(self, tmp_path, capsys, command, message):
        """A poset the command will refuse is refused before it is built,
        with the message a 3-point poset gets."""
        errs = []
        for size in (3, 100000):
            f = tmp_path / "poset.json"
            f.write_text(json.dumps({"kind": "poset", "size": size}))
            start = time.perf_counter()
            code = main([*command, "--in", str(f)])
            elapsed = time.perf_counter() - start
            assert code == 1
            assert elapsed < 1.0
            errs.append(capsys.readouterr().err)
        assert errs == [f"error: {message}\n"] * 2

    @pytest.mark.parametrize("command, code, message", [
        (["analyze", "--analysis", "modest"], 2,
         "cap exceeded: semilattice has 300 points (cap 20)"),
        (["export-dot"], 2, "cap exceeded: semilattice has 300 points (cap 20)"),
        (["solve", "--pool", "filters"], 2, "cap exceeded: semilattice has 300 points (cap 20)"),
        (["solve", "--pool", "free"], 1, "error: free pool needs a FiniteBooleanAlgebra"),
    ])
    def test_large_semilattice_refused_unbuilt(self, tmp_path, capsys, command, code, message):
        """A 300-element meet table is refused before its O(n^2) validation."""
        f = tmp_path / "meet.json"
        f.write_text(json.dumps({
            "kind": "semilattice", "meet": [[min(i, j) for j in range(300)] for i in range(300)],
        }))
        start = time.perf_counter()
        assert main([*command, "--in", str(f)]) == code
        elapsed = time.perf_counter() - start
        assert capsys.readouterr().err == message + "\n"
        assert elapsed < 1.0


class TestInputPath:
    """Every command reads its input one way: one file reader, and one
    row per target naming the kinds it takes and what a chain stands for."""

    @pytest.mark.parametrize("text", ["3", "[1, 2]", '{"kind": "chain", "n": 3}'])
    def test_combine_takes_only_systems(self, tmp_path, capsys, text):
        f = tmp_path / "in.json"
        f.write_text(text)
        assert main(["combine", "--op", "sum", "--inputs", str(f)]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err

    def test_chain_selection_meets_cap_atoms(self, capsys):
        argv = ["analyze", "--kind", "chain", "--n", "70", "--analysis", "selection"]
        code, rep = run_json(capsys, *argv, "--cap-atoms", "100")
        assert code == 0
        assert rep["results"]["selection_value"] == 70
        assert main(argv) == 2
        assert capsys.readouterr().err == "cap exceeded: atom_count 70 exceeds cap 64\n"

    @pytest.mark.parametrize("argv", [
        ["analyze", "--analysis", "selection"],
        ["analyze", "--analysis", "selection", "--pool", "intervals"],
        ["solve", "--pool", "intervals"],
        ["solve", "--pool", "intervals", "--mode", "greedy"],
    ], ids=["default", "intervals", "solve-intervals", "solve-intervals-greedy"])
    def test_huge_chain_selection_refused_before_its_pool(self, capsys, argv):
        """The intervals pool of an n-chain holds n masks of up to n bits."""
        start = time.perf_counter()
        code = main([*argv, "--kind", "chain", "--n", str(10**7)])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert capsys.readouterr().err == "cap exceeded: atom_count 10000000 exceeds cap 64\n"

    def test_greedy_intervals_solve_meets_cap_atoms(self, capsys):
        argv = ["solve", "--kind", "chain", "--n", "70", "--pool", "intervals", "--mode", "greedy"]
        code, rep = run_json(capsys, *argv, "--cap-atoms", "100")
        assert code == 0
        assert rep["results"]["point_count"] == 70
        assert main(argv) == 2
        assert capsys.readouterr().err == "cap exceeded: atom_count 70 exceeds cap 64\n"

    @pytest.mark.parametrize("argv", [
        ["solve"],
        ["analyze", "--analysis", "freeseq"],
        ["analyze", "--analysis", "selection", "--pool", "free"],
    ])
    def test_chain_read_as_atoms_meets_cap_atoms(self, capsys, argv):
        for kind in ("chain", "algebra"):
            assert main([*argv, "--kind", kind, "--n", "4", "--cap-atoms", "3"]) == 2
            assert capsys.readouterr().err == "cap exceeded: atom_count 4 exceeds cap 3\n"

    @pytest.mark.parametrize("pool", ["all", "free"])
    def test_chain_selection_free_pool(self, capsys, pool):
        _, expected = run_json(capsys, "analyze", "--kind", "algebra", "--n", "3",
                               "--analysis", "selection")
        code, rep = run_json(capsys, "analyze", "--kind", "chain", "--n", "3",
                             "--analysis", "selection", "--pool", pool)
        assert code == 0
        assert rep["results"] == expected["results"]
        assert rep["notes"] == expected["notes"]

    def test_selection_reads_a_chain_as_its_pool_does(self, capsys):
        code, rep = run_json(capsys, "analyze", "--kind", "chain", "--n", "3",
                             "--analysis", "selection", "--pool", "upsets")
        assert code == 0
        assert "pool preset: upsets" in rep["notes"]
        # the 3-chain's 4 segments, each in the up-sets of the segments inside it
        assert rep["results"]["family"]["per_point_order"] == [1, 2, 3, 4]
        assert rep["results"]["selection_value"] == 4

    def test_selection_takes_a_system_with_a_pool(self, capsys):
        code, rep = run_json(capsys, "analyze", "--in", SYS_FILE, "--analysis", "selection",
                             "--pool", "free")
        assert code == 0
        assert "pool preset: custom" in rep["notes"]
        assert main(["analyze", "--in", SYS_FILE, "--analysis", "selection"]) == 1
        assert capsys.readouterr().err == \
            "error: selection analysis needs a chain or an algebra\n"

    @pytest.mark.parametrize("argv, message", [
        (["export-dot", "--kind", "algebra", "--n", "100"],
         "export-dot supports poset, chain, semilattice, tree, system"),
        (["solve", "--kind", "algebra", "--n", "100", "--pool", "upsets"],
         "upsets pool needs a FinitePoset"),
        (["solve", "--kind", "algebra", "--n", "100", "--pool", "intervals"],
         "intervals pool needs a positive chain length"),
        (["analyze", "--kind", "algebra", "--n", "100", "--analysis", "duality"],
         "duality analysis needs a poset or chain"),
    ], ids=["export-dot", "upsets", "intervals", "duality"])
    def test_other_kinds_refused_unbuilt(self, capsys, argv, message):
        """An algebra of 100 atoms would exceed the atom cap if it were built."""
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


# a mask field: dense (any int below 2^80) or sparse (a few bits up to 600)
report_masks = (st.integers(0, (1 << 80) - 1)
                | st.lists(st.integers(0, 600), max_size=4).map(lambda ps: sum({1 << p for p in ps})))
json_scalars = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
                | st.floats() | st.text(max_size=6) | report_masks.map(cli._Mask))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.integers(-10**6, 10**6), max_size=4)
    | st.lists(st.text(max_size=3), max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=25,
)


def written(obj) -> str:
    """The report writer's text of ``obj``: its pieces, joined."""
    out = []
    cli._json(obj, out)
    return "".join(out)


def expanded(obj):
    """The payload as ``json.dumps`` takes it: each mask as its index list."""
    if type(obj) is cli._Mask:
        return [i for i in range(obj.bit_length()) if obj >> i & 1]
    if isinstance(obj, dict):
        return {k: expanded(v) for k, v in obj.items()}
    if isinstance(obj, list):
        return [expanded(v) for v in obj]
    return obj


@settings(derandomize=True, max_examples=200)
@given(st.dictionaries(st.text(max_size=4), json_values, max_size=5))
@example({"": [], "é": {}, "b": [True, False, None, 1.5, "ü\n", [1, -2], [True, 1], {}]})
@example({"set": cli._Mask(0), "s": [cli._Mask(5), cli._Mask(1 << 700)], "l": ["a", "é"]})
def test_report_encoder_matches_json_dumps(payload):
    assert written(payload) == json.dumps(expanded(payload), indent=2, sort_keys=True)


def run_mask(runs):
    """The mask of the runs of ones ``(start, length)``."""
    return sum({((1 << length) - 1) << start for start, length in runs})


# Keys that a ``%`` template or a quoting slip would mangle, and any short text.
row_keys = st.sampled_from(["%", "%s", "%%d", '"q"', "a\\b", "é", "ü\n"]) | st.text(max_size=4)


def window_mask(width, at, inside):
    """A window of ``width`` bits at offset ``at``, both ends set."""
    return ((inside | 1 | 1 << width - 1) & (1 << width) - 1) << at


column_values = [
    st.integers(-10**6, 10**6), st.text(max_size=6), st.booleans(), st.none(), st.floats(),
    st.lists(st.tuples(st.integers(0, 300), st.integers(8, 90)), max_size=3).map(run_mask)
    .map(cli._Mask),
    st.integers(0, 4095).map(lambda p: cli._Mask(1 << p)),  # one index
    st.builds(window_mask, st.integers(12, 24), st.integers(0, 4072), st.integers(0, (1 << 24) - 1))
    .map(cli._Mask),  # a dense window
    json_values,  # a column of mixed and nested values
]


@st.composite
def row_lists(draw):
    """Rows built from one key list, a column of one kind per key, each row's
    keys in its own order; now and then one row with a key more or fewer."""
    keys = draw(st.lists(row_keys, min_size=1, max_size=5, unique=True))
    count = draw(st.integers(1, 5))
    columns = [draw(st.lists(draw(st.sampled_from(column_values)), min_size=count, max_size=count))
               for _ in keys]
    rows = [dict(draw(st.permutations(list(zip(keys, values))))) for values in zip(*columns)]
    odd = draw(st.sampled_from([None, "drop", "add"]))
    if odd:
        row = rows[draw(st.integers(0, count - 1))]
        if odd == "drop":
            del row[keys[0]]
        else:
            row[draw(row_keys.filter(lambda k: k not in keys))] = draw(json_values)
    return rows


@settings(derandomize=True, max_examples=300)
@given(row_lists())
@example([{"set": cli._Mask(0), "label": "%s"}])
@example([{"v": cli._Mask(run_mask([(0, 24), (48, 24), (200, 9)]))}, {"v": cli._Mask(1)}])
@example([{"a": 1, "b": [1, 2]}, {"b": {"c": None}, "a": True}, {"a": 1.5, "b": "x"}])
@example([{"a": 1}, {"b": 1}])
@example([{"a": 1, "m": cli._Mask(255)}, {"a": "x", "m": [3]}])
def test_row_lists_match_json_dumps(rows):
    payload = {"rows": rows, "nested": [{"inner": rows}]}
    assert written(rows) == json.dumps(expanded(rows), indent=2, sort_keys=True)
    assert written(payload) == json.dumps(expanded(payload), indent=2, sort_keys=True)


def test_porcupine_report_matches_json_dumps():
    """A 24-fiber porcupine (576 points), the benchmark's largest report."""
    rng = random.Random(24)

    def system(n):
        masks = [1 << p for p in range(n)]
        masks += [sum(1 << p for p in rng.sample(range(n), n // 2)) for _ in range(8)]
        return system_from_json({"kind": "system", "points": n, "members": [
            {"label": f"U{i}", "set": list(iter_bits(m))} for i, m in enumerate(masks)]})

    fibers = tuple(system(24) for _ in range(24))
    section = tuple(rng.randrange(24) for _ in range(24))
    result = porcupine(system(24), fibers, section)
    payload = system_to_json(result.system, {"split_fibers": list(result.split_fibers)})
    assert payload["points"] == 576
    assert written(payload) == json.dumps(expanded(payload), indent=2, sort_keys=True)


def test_wide_report_bytes(tmp_path, capsys):
    """The benchmark's porcupine shape through the CLI: a 24-point index
    and 24 fibers of 24 points, each with its singletons and 8 half-size
    members, 576 output points; the report is ``json.dumps``' text."""
    rng = random.Random(576)
    paths = []
    for k in range(25):
        sets = [[p] for p in range(24)] + [sorted(rng.sample(range(24), 12)) for _ in range(8)]
        path = tmp_path / f"system{k}.json"
        path.write_text(json.dumps({"kind": "system", "points": 24, "members": [
            {"label": f"U{i}", "set": s} for i, s in enumerate(sets)]}))
        paths.append(str(path))
    section = ",".join(str(rng.randrange(24)) for _ in range(24))
    code, out = run(capsys, "combine", "--op", "porcupine", "--inputs", *paths,
                    "--section", section)
    assert code == 0
    report = json.loads(out)
    assert report["points"] == 576
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == out


class TestParserReuse:
    """main() builds its parser once per process; each call starts afresh."""

    def test_no_option_leaks_into_the_next_call(self, tmp_path, capsys):
        plain = ["solve", "--kind", "chain", "--n", "4"]
        build_parser.cache_clear()
        code, first = run(capsys, *plain)
        assert code == 0
        out = tmp_path / "report.txt"
        assert main([*plain, "--pool", "upsets", "--mode", "greedy", "--human",
                     "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert "greedy upper bound" in out.read_text()
        assert run(capsys, *plain) == (0, first)
        assert build_parser() is build_parser()

    def test_command_looked_up_when_it_runs(self, monkeypatch, capsys):
        """The benchmark's tracer rebinds cli.cmd_* after the parser exists."""
        assert main(["solve", "--kind", "chain", "--n", "3"]) == 0
        capsys.readouterr()
        seen = []
        monkeypatch.setattr(cli, "cmd_solve", lambda args: seen.append(args.n) or 7)
        assert main(["solve", "--kind", "chain", "--n", "3"]) == 7
        assert seen == [3]


def test_indices_match_iter_bits():
    """The report's point lists: text path for dense masks, bit loop for sparse."""
    rng = random.Random(7)
    masks = [0, 1, 1 << 4095] + [(1 << w) - 1 for w in range(1, 71)]
    for width in (64, 576, 4096):
        for ones in (width // 8 - 1, width // 8, width // 8 + 1, width // 2, width):
            masks += [sum(1 << p for p in rng.sample(range(width), ones)) for _ in range(3)]
    for mask in masks:
        assert points(mask) == tuple(iter_bits(mask))


class TestLintNotes:
    """LintWarnings raised while a command runs are printed once each, as
    ``warning:`` lines after a successful run, and not at all after a
    failing one, whose stderr stays its one error line."""

    DUPLICATED = {"kind": "system", "points": 3,
                  "members": [{"set": [0]}, {"set": [0]}, {"set": [1]}]}
    NOTES = ["warning: family has 1 duplicate member set(s), e.g. 'U0' == 'U1'; "
             "duplicates count multiply toward ord",
             "warning: family has 1 duplicate member set(s), e.g. 'dup:lift:U0' == "
             "'dup:lift:U1'; duplicates count multiply toward ord"]

    def cli(self, *argv):
        """The CLI in a fresh interpreter, with the real stderr and the
        default warning filters."""
        src = str(Path(cli.__file__).parents[1])
        return subprocess.run([sys.executable, "-m", "stonelab", *argv], capture_output=True,
                              text=True, env={"PYTHONPATH": src})

    def test_failing_run_prints_one_line(self, tmp_path):
        f = tmp_path / "sys.json"
        f.write_text(json.dumps({**self.DUPLICATED, "points": 2, "base_point": 5}))
        proc = self.cli("combine", "--op", "duplicate", "--inputs", str(f))
        assert proc.returncode == 1
        assert proc.stderr == "error: base point out of range\n"

    def test_successful_run_prints_each_note_once(self, tmp_path):
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(self.DUPLICATED))
        proc = self.cli("combine", "--op", "duplicate", "--inputs", str(f), "--dup-points", "0")
        assert proc.returncode == 0
        assert proc.stderr.splitlines() == self.NOTES
        json.loads(proc.stdout)

    def test_selection_notes(self, tmp_path, capsys):
        """A selection pool with a duplicate member that leaves two points
        unseparated: the duplicate note, then the non-generating one."""
        f = tmp_path / "sys.json"
        f.write_text(json.dumps({"kind": "system", "points": 3,
                                 "members": [{"set": [0]}, {"set": [0]}]}))
        assert main(["analyze", "--analysis", "selection", "--pool", "free", "--in", str(f)]) == 0
        out, err = capsys.readouterr()
        assert err.splitlines() == [
            self.NOTES[0],
            "warning: generator set does not generate the whole algebra; "
            "selection value computed anyway"]
        results = json.loads(out)["results"]
        assert results["generates_whole"] is False
        assert results["selection_value"] == 2
        assert results["witness_atom"] == 0

    def test_notes_repeat_across_in_process_calls(self, tmp_path, capsys):
        f = tmp_path / "sys.json"
        f.write_text(json.dumps(self.DUPLICATED))
        argv = ["combine", "--op", "duplicate", "--inputs", str(f), "--dup-points", "0"]
        for _ in range(2):
            assert main(argv) == 0
            assert capsys.readouterr().err.splitlines() == self.NOTES
