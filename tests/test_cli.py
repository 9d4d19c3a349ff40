import json
import tracemalloc
from pathlib import Path

import pytest

from stonelab.cli import main, parse_clopen
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
    ])
    def test_bad_system_member(self, tmp_path, capsys, member):
        f = tmp_path / "sys.json"
        f.write_text(json.dumps({
            "kind": "system", "points": 3,
            "members": [{"label": "U0", "set": [0]}, member],
        }))
        self.assert_rejected(capsys, "solve", "--in", str(f))

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
