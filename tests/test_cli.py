import json
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from stonelab import ValidationError
from stonelab.cli import _MAX_FORMULA_DEPTH, _MAX_JSON_DEPTH, _json, main, parse_clopen
from stonelab.freealg import FreeAlgebra


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

    def assert_rejected(self, capsys, *argv):
        code = main(list(argv))
        err = capsys.readouterr().err
        assert code == 1
        assert err.count("\n") == 1 and "Traceback" not in err

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

    @pytest.mark.parametrize("fields", [
        {"points": "x"},
        {"members": 5},
        {"labels": 5},
        {"base_point": "a"},
        {"kind": "chain", "n": "x"},
        {"kind": "algebra", "atoms": "x"},
        {"kind": "free", "generators": "x"},
        {"kind": "poset", "size": "x"},
        {"kind": "poset", "size": 2, "le": [[0]]},
        {"kind": "semilattice", "meet": 5},
        {"kind": "tree", "parents": 5},
    ])
    def test_bad_system_shape(self, tmp_path, capsys, fields):
        f = tmp_path / "sys.json"
        f.write_text(json.dumps({"kind": "system", "points": 3, "members": [], **fields}))
        self.assert_rejected(capsys, "solve", "--in", str(f))

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

    @pytest.mark.parametrize("pool", [[], ["--pool", "intervals"]], ids=["default", "intervals"])
    def test_huge_chain_selection_refused_before_its_pool(self, capsys, pool):
        """The intervals pool of an n-chain holds n masks of up to n bits."""
        start = time.perf_counter()
        code = main(["analyze", "--kind", "chain", "--n", str(10**7), "--analysis", "selection",
                     *pool])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert capsys.readouterr().err == "cap exceeded: atom_count 10000000 exceeds cap 64\n"

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


json_scalars = (st.none() | st.booleans() | st.integers(-10**6, 10**6)
                | st.floats() | st.text(max_size=6))
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(st.integers(-10**6, 10**6), max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=25,
)


@settings(derandomize=True, max_examples=200)
@given(st.dictionaries(st.text(max_size=4), json_values, max_size=5))
@example({"": [], "é": {}, "b": [True, False, None, 1.5, "ü\n", [1, -2], [True, 1], {}]})
def test_report_encoder_matches_json_dumps(payload):
    assert _json(payload) == json.dumps(payload, indent=2, sort_keys=True)
