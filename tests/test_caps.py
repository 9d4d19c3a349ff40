"""The table of caps: each row's refusal, the CLI knobs that set a row's
limit, and a guard that keeps every cap declared once, in ``errors.py``;
and the guards that keep every option and every public name in use."""

import ast
import time
from pathlib import Path

import pytest

from stonelab import (
    CapExceededError,
    FiniteBooleanAlgebra,
    FiniteForest,
    GeneratorPool,
    Member,
    PointSet,
    filters,
    final_segments,
    initial_chain_algebra,
    min_max_order,
    preset_pool,
    product_system,
    sigma_tree,
)
from stonelab import errors as E
from stonelab.cli import POOLS, build_parser, build_structure, main, system_from_json
from stonelab.oracles import is_free_sequence_naive

from helpers import antichain, meet_chain, singleton_system

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "stonelab"


def _pool(points: int, candidates: int) -> GeneratorPool:
    return GeneratorPool(PointSet(points),
                         tuple(Member(f"c{i}", 1 << i % points) for i in range(candidates)))


def _sigma_tree_past(cap: int):
    algebra = FiniteBooleanAlgebra(3)
    return sigma_tree(algebra, [algebra.element(m) for m in range(1, 7)], node_cap=cap)


# row -> (a call one past its limit, attempted, limit, the refusal text);
# rows whose default is costly to reach pass a smaller limit
CASES = {
    E.ATOMS: (lambda: FiniteBooleanAlgebra(65), 65, 64, "atom_count 65 exceeds cap 64"),
    E.POSET_POINTS: (lambda: final_segments(antichain(21)), 21, 20,
                     "poset has 21 points (cap 20); |FS(P)| could reach 2^21"),
    E.SEMILATTICE_POINTS: (lambda: filters(meet_chain(21)), 21, 20,
                           "semilattice has 21 points (cap 20)"),
    E.UPSETS: (lambda: final_segments(antichain(3), max_count=7), 8, 7,
               "more than 7 up-sets, a fixed limit"),
    E.SYSTEM_POINTS: (lambda: system_from_json({"kind": "system", "points": 4097}), 4097, 4096,
                      "system has 4097 points, cap is 4096"),
    E.PRODUCT_POINTS: (lambda: product_system(singleton_system(17), singleton_system(241)),
                       4097, 4096, "product would have 4097 points, cap is 4096"),
    E.NAIVE_LENGTH: (lambda: is_free_sequence_naive(FiniteBooleanAlgebra(2),
                                                    [FiniteBooleanAlgebra(2).element(1)] * 13),
                     13, 12, "naive check capped at length 12"),
    E.SIGMA_NODES: (lambda: _sigma_tree_past(3), 4, 3, "sigma tree exceeds 3 nodes"),
    E.EXACT_POINTS: (lambda: min_max_order(_pool(13, 13)), 13, 12,
                     "exact mode capped at 12 points, got 13; use greedy mode"),
    E.EXACT_CANDIDATES: (lambda: min_max_order(_pool(4, 33)), 33, 32,
                         "exact mode capped at 32 candidates, got 33; use greedy mode"),
    E.FREE_POOL_ATOMS: (lambda: preset_pool("free", FiniteBooleanAlgebra(13)), 13, 12,
                        "free pool enumerates all subsets; atoms capped at 12"),
    E.TREE_NODES: (lambda: build_structure({"kind": "tree", "parents": [-1] + [0] * 1024},
                                           POOLS["tree"], 64, 20),
                   1025, 1024, "tree has 1025 nodes (cap 1024)"),
}


def test_every_row_has_a_case():
    assert set(CASES) == set(E.CAPS)
    assert len(E.CAPS) == 12


@pytest.mark.parametrize("row", E.CAPS, ids=lambda row: row.name)
def test_one_past_the_limit(row):
    call, attempted, limit, text = CASES[row]
    with pytest.raises(CapExceededError) as info:
        call()
    exc = info.value
    assert (exc.cap, exc.attempted, exc.limit) == (row, attempted, limit)
    assert str(exc) == text


@pytest.mark.parametrize("row", E.CAPS, ids=lambda row: row.name)
def test_at_the_limit_passes(row):
    row.check(row.default)
    with pytest.raises(CapExceededError):
        row.check(row.default + 1)


def test_rows_sharing_a_knob_share_its_bounds():
    assert all((row.flag is None) == (row.env is None) for row in E.CAPS)
    for flag in {row.flag for row in E.CAPS if row.flag}:
        assert len({(r.env, r.default, r.maximum) for r in E.CAPS if r.flag == flag}) == 1
    assert E.TREE_NODES.default == E.ATOMS.maximum


class TestKnobs:
    """``--cap-atoms`` / ``STONELAB_CAP_ATOMS`` and ``--cap-enum`` /
    ``STONELAB_CAP_ENUM``: the flag wins over the variable, which wins over
    the row's default."""

    ATOMS = ["analyze", "--kind", "chain", "--n", "70", "--analysis", "selection"]
    ENUM = ["analyze", "--kind", "poset", "--size", "25", "--analysis", "duality"]

    @pytest.mark.parametrize("argv, env, flag, default, text", [
        (ATOMS, "STONELAB_CAP_ATOMS", "--cap-atoms", 64, "atom_count 70 exceeds cap {}"),
        (ENUM, "STONELAB_CAP_ENUM", "--cap-enum", 20,
         "poset has 25 points (cap {}); |FS(P)| could reach 2^25"),
    ], ids=["atoms", "enum"])
    def test_flag_over_env_over_default(self, monkeypatch, capsys, argv, env, flag, default,
                                        text):
        def refusal(*extra):
            assert main([*argv, *extra]) == 2
            return capsys.readouterr().err

        monkeypatch.delenv(env, raising=False)
        assert refusal() == f"cap exceeded: {text.format(default)}\n"
        monkeypatch.setenv(env, "22")
        assert refusal() == f"cap exceeded: {text.format(22)}\n"
        assert refusal(flag, "21") == f"cap exceeded: {text.format(21)}\n"

    def test_solve_ignores_enum_env(self, monkeypatch, capsys):
        monkeypatch.setenv("STONELAB_CAP_ENUM", "30")
        assert main(["solve", "--kind", "chain", "--n", "25", "--pool", "upsets"]) == 2
        assert capsys.readouterr().err == \
            "cap exceeded: poset has 25 points (cap 20); |FS(P)| could reach 2^25\n"

    @pytest.mark.parametrize("env, argv", [
        ("STONELAB_CAP_ENUM", ["solve", "--kind", "chain", "--n", "3", "--pool", "upsets"]),
        ("STONELAB_CAP_ATOMS", ["export-dot", "--kind", "chain", "--n", "3"]),
        ("STONELAB_CAP_ATOMS", ["combine", "--op", "sum", "--inputs",
                                str(Path(__file__).parent / "golden" / "sys_a.json")]),
    ])
    def test_unregistered_knob_is_not_read(self, monkeypatch, capsys, env, argv):
        monkeypatch.setenv(env, "abc")
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv, env, message", [
        (["--cap-atoms", "5000"], None, "--cap-atoms must be in 1..1024, got 5000"),
        (["--cap-atoms", "0"], None, "--cap-atoms must be in 1..1024, got 0"),
        (["--cap-enum", "-1"], None, "--cap-enum must be at least 1, got -1"),
        ([], ("STONELAB_CAP_ATOMS", "5000"), "STONELAB_CAP_ATOMS must be in 1..1024, got 5000"),
        ([], ("STONELAB_CAP_ENUM", "0"), "STONELAB_CAP_ENUM must be at least 1, got 0"),
    ])
    def test_value_out_of_bounds(self, monkeypatch, capsys, argv, env, message):
        if env:
            monkeypatch.setenv(*env)
        assert main(["analyze", "--kind", "poset", "--size", "3", "--analysis", "duality",
                     *argv]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_value_at_the_maximum(self, capsys):
        code = main(["analyze", "--kind", "algebra", "--n", "3", "--analysis", "freeseq",
                     "--cap-atoms", "1024"])
        assert code == 0 and capsys.readouterr().err == ""

    def test_help_reads_the_rows(self):
        sub = build_parser()._subparsers._group_actions[0].choices["analyze"]
        text = " ".join(sub.format_help().split())
        for row in (E.ATOMS, E.POSET_POINTS, E.SEMILATTICE_POINTS):
            assert row.name in text and row.env in text
        assert "default 64, at most 1024" in text and "default 20;" in text


class TestTreeNodes:
    @pytest.mark.parametrize("argv", [
        ["analyze", "--analysis", "sigma"],
        ["solve", "--pool", "tree", "--mode", "greedy"],
        ["export-dot"],
    ])
    def test_large_tree_refused_unbuilt(self, capsys, argv):
        parents = ",".join(["-1", *map(str, range(1999))])
        start = time.perf_counter()
        code = main([*argv, "--kind", "tree", f"--parents={parents}"])
        assert time.perf_counter() - start < 1.0
        assert code == 2
        assert capsys.readouterr().err == "cap exceeded: tree has 2000 nodes (cap 1024)\n"

    def test_tree_at_the_cap_is_read(self, capsys):
        parents = ",".join(["-1"] + ["0"] * 1023)
        assert main(["export-dot", "--kind", "tree", f"--parents={parents}",
                     "--view", "structure"]) == 0
        assert capsys.readouterr().out.count(" -> ") == 1023

    def test_initial_chain_algebra_meets_the_atom_row(self):
        with pytest.raises(CapExceededError) as info:
            initial_chain_algebra(FiniteForest([None] + [0] * 1024))
        assert (info.value.cap, info.value.limit) == (E.ATOMS, E.ATOMS.maximum)
        assert initial_chain_algebra(FiniteForest([None] + [0] * 1023)).atom_count == 1024


def _cap_constant(name: str) -> bool:
    return name.endswith("_CAP") or name.startswith("DEFAULT_") and "CAP" in name


def test_caps_are_declared_once():
    """Outside errors.py no module raises a cap error with its own text or
    declares a cap constant; the one bound whose refusal is a
    ValidationError, the free algebra's generator range, stays in its
    module."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call)
                    and getattr(node.exc.func, "id", None) == "CapExceededError"):
                first = node.exc.args[0] if node.exc.args else None
                assert not isinstance(first, (ast.Constant, ast.JoinedStr)), \
                    f"{path.name}:{node.lineno}"
            elif isinstance(node, ast.Assign):
                found |= {(path.name, t.id) for t in node.targets
                          if isinstance(t, ast.Name) and _cap_constant(t.id)}
    assert found == {("freealg.py", "DEFAULT_GENERATOR_CAP")}


# Every option of the public API: (module, function or class, name) for
# each defaulted parameter and each field that has a default or admits
# None.  An option stays only while some caller outside the tests sets it,
# or for the reason given.
OPTIONS = {
    ("algebra", "FiniteBooleanAlgebra.__init__", "cap"),  # cli.build_structure, trees
    ("bits", "index_text", "sep"),  # cli's report writer
    ("cli", "main", "argv"),  # __main__ leaves it out; bench/workloads.py passes argv
    ("cli", "system_to_json", "extra"),  # cli.cmd_combine
    ("dot", "hasse_dot", "name"),  # cli.cmd_export_dot
    ("errors", "Cap", "maximum"),  # the ATOMS row
    ("errors", "Cap", "flag"),  # the rows with a CLI knob
    ("errors", "Cap", "env"),  # the rows with a CLI knob
    ("errors", "Cap.check", "limit"),  # the knob values cli, orders and solver pass
    ("families", "PointSet", "labels"),  # the combinators, cli.system_from_json
    ("families", "PointedSystem", "base_point"),  # the combinators, cli.system_from_json
    ("families", "T0Result", "witness"),  # is_t0_separating on failure
    ("freeseq", "longest_free_sequence", "pool"),  # the input set, as sigma_tree's pool
    ("freeseq", "sigma_tree", "node_cap"),  # the SIGMA_NODES row's cheap test case
    ("orders", "filters", "cap"),  # cli --cap-enum
    ("orders", "final_segments", "cap"),  # cli --cap-enum
    ("orders", "final_segments", "max_count"),  # the UPSETS row's cheap test case
    ("solver", "DecisionResult", "family"),  # None when decision_max_order_at_most refutes k
    ("solver", "GeneratorPool", "preset_tag"),  # preset_pool, cli._pool
    ("solver", "min_max_order", "max_points"),  # bench/workloads.py
    ("solver", "min_max_order", "max_pool"),  # bench/workloads.py
    ("solver", "min_max_order", "mode"),  # cli.cmd_solve
}


def _public(name: str) -> bool:
    return not name.startswith("_") or name.startswith("__") and name.endswith("__")


def _options(path: Path):
    def defaulted(module, owner, fn):
        args = fn.args.posonlyargs + fn.args.args
        named = args[len(args) - len(fn.args.defaults):] + [
            a for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults) if d is not None]
        return {(module, owner + fn.name, a.arg) for a in named}

    found = set()
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.FunctionDef) and _public(node.name):
            found |= defaulted(path.stem, "", node)
        elif isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    found |= defaulted(path.stem, node.name + ".", item)
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    annotation = ast.unparse(item.annotation)
                    if item.value is not None or "None" in annotation or "Optional" in annotation:
                        found.add((path.stem, node.name, item.target.id))
    return found


def test_every_option_has_a_caller():
    """The public API's defaulted parameters and optional fields are the
    listed ones, each with a caller outside the tests or a stated reason;
    an option only a test sets is a constant."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "oracles.py":
            found |= _options(path)
    assert found == OPTIONS


# Public names that nothing in src/ or bench/ names outside its own
# definition, each kept for the reason given; test fixtures live in
# tests/helpers.py.
UNCALLED: set = set()


def _definitions(src: Path) -> dict:
    """(module, name) -> (path, node, its class or None) for each public
    function, class and method (dunders aside)."""
    found = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_":
                found[path.stem, node.name] = (path, node, None)
                for item in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(item, ast.FunctionDef) and item.name[0] != "_":
                        found[path.stem, f"{node.name}.{item.name}"] = (path, item, node)
    return found


def _uses(paths) -> list:
    """(name, path, line, kind, receiver) for each bare name, attribute
    read (``x.a = ...`` reads nothing) and string passed as a keyword
    argument (``set_defaults(func="cmd_...")``); ``receiver`` is the bare
    name an attribute is read off."""
    found = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                found.append((node.id, path, node.lineno, "name", None))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                found.append((node.attr, path, node.lineno, "attr",
                              getattr(node.value, "id", None)))
            elif isinstance(node, ast.keyword) and isinstance(node.value, ast.Constant):
                found.append((node.value.value, path, node.value.lineno, "attr", None))
    return found


def uncalled_names(root: Path, kept=frozenset()) -> set:
    """The public names of ``root``'s package that no code in its src/ or
    bench/ names outside their own definitions, ``__init__.py``'s re-exports
    aside.  A method counts as named by an attribute (one read off a class
    name only for that class) or by an alias in its class body.  A name
    used only inside unused definitions is unused too; ``kept`` names are
    taken as used.  The oracles are definitions too, so a name that only
    oracles use stays alive only while src/ or bench/ reaches one of
    them; the oracles themselves, which the tests call, are never
    reported."""
    src = root / "src" / "stonelab"
    defs = _definitions(src)
    classes = {name for _, name in defs if "." not in name}
    uses = _uses([p for p in sorted(src.glob("*.py")) if p.name != "__init__.py"]
                 + sorted((root / "bench").glob("*.py")))

    def within(path, line, span):
        return path == span[0] and span[1].lineno <= line <= span[1].end_lineno

    def named(key, use, dead):
        path, node, owner = defs[key]
        name, where, line, kind, receiver = use
        return (name == key[1].rsplit(".", 1)[-1]
                and not within(where, line, (path, node))
                and (owner is None or kind == "attr" or within(where, line, (path, owner)))
                and (owner is None or receiver not in classes or receiver == owner.name)
                and not any(within(where, line, defs[d]) for d in dead))

    dead: set = set()
    while True:
        new = {key for key in defs if key not in dead | kept
               and not any(named(key, use, dead) for use in uses)}
        if not new:
            return {key for key in dead if key[0] != "oracles"}
        dead |= new


def test_every_public_name_has_a_caller():
    """A public name that only tests call is deleted, or listed with its
    reason: the listed names are unused, and every other name is used."""
    assert UNCALLED <= uncalled_names(ROOT)
    assert uncalled_names(ROOT, UNCALLED) == set()


# Fields of public records that nothing in src/ or bench/ reads, each kept
# for the reason given.
UNREAD: set = set()


def _fields(node: ast.ClassDef) -> list:
    """The fields of a record: the annotated names of a dataclass or
    NamedTuple, else the names in the class's ``__slots__``."""
    if (any(ast.unparse(d).split("(")[0].endswith("dataclass") for d in node.decorator_list)
            or any(ast.unparse(b).endswith("NamedTuple") for b in node.bases)):
        return [item.target.id for item in node.body
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
    for item in node.body:
        if isinstance(item, ast.Assign) and any(getattr(t, "id", None) == "__slots__"
                                                for t in item.targets):
            return list(ast.literal_eval(item.value))
    return []


def record_fields(root: Path) -> dict:
    """(module, class) -> its fields, for each public dataclass, NamedTuple
    and class with ``__slots__`` of ``root``'s package, oracles aside."""
    found = {}
    for path in sorted((root / "src" / "stonelab").glob("*.py")):
        if path.name == "oracles.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.ClassDef) and node.name[0] != "_" and (fields := _fields(node)):
                found[path.stem, node.name] = fields
    return found


def unread_fields(root: Path) -> set:
    """(module, "Class.field") for each field of a public record, as
    ``record_fields`` finds them, that no code in its src/ (oracles and
    ``__init__.py`` aside) or bench/ reads as an attribute.  Like
    ``uncalled_names``, it matches names: a read of ``x.size`` counts for
    every field named ``size``, hence ``SHARED_FIELDS``."""
    src = root / "src" / "stonelab"
    read = {name for name, _, _, kind, _ in _uses(
        [p for p in sorted(src.glob("*.py")) if p.name not in ("oracles.py", "__init__.py")]
        + sorted((root / "bench").glob("*.py"))) if kind == "attr"}
    return {(module, f"{cls}.{field}") for (module, cls), fields in record_fields(root).items()
            for field in fields if field not in read}


def test_every_field_is_read():
    """A field of a result that only tests read is deleted, or listed with
    its reason."""
    assert unread_fields(ROOT) == UNREAD


# Field names that two or more public records share, with the records
# that share each and the reads that keep every one of those fields.  The
# field guard matches names, so it cannot tell these fields apart; a new
# collision fails below until its fields are checked by hand and listed.
SHARED_FIELDS = {
    # freeseq._check_terms and generated_subalgebra; freealg's operations
    "algebra": {"Element", "FreeElement"},
    # read everywhere; SubalgebraPartition.is_full
    "atom_count": {"FiniteBooleanAlgebra", "SubalgebraPartition"},
    # freeseq and generated_subalgebra; read everywhere
    "bits": {"Element", "Member"},
    # read everywhere; min_max_order; cli.cmd_solve
    "family": {"PointedSystem", "DecisionResult", "SolveResult"},
    # min_max_order and bench/tracer.py; cli.cmd_solve
    "nodes_explored": {"DecisionResult", "SolveResult"},
    # PointedSystem.points; the solver and cli.cmd_solve
    "points": {"SeparatingFamily", "GeneratorPool"},
    # each record's width, read everywhere
    "size": {"PointSet", "FinitePoset", "MeetSemilattice", "FiniteForest"},
    # final_segments and the poset kernels; filters
    "up": {"FinitePoset", "MeetSemilattice"},
}


def shared_fields(root: Path) -> dict:
    """Field name -> the public records that have it, for each name that
    two or more records share."""
    owners: dict = {}
    for (_, cls), fields in record_fields(root).items():
        for field in fields:
            owners.setdefault(field, set()).add(cls)
    return {field: classes for field, classes in owners.items() if len(classes) > 1}


def test_shared_field_names_are_reviewed():
    assert shared_fields(ROOT) == SHARED_FIELDS
