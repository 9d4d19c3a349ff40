"""Input fuzz: structure files of every kind, with small arbitrary fields,
fed to every CLI command that reads one, and seeded system files fed to
``combine``.  Each run must end with exit 0, 1 or 2, never a traceback: a
failing run with exactly one stderr line, a successful one with at most
its distinct ``warning:`` notes.
"""

import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from stonelab.cli import ANALYSES, POOLS, main


def assert_notes_only(message):
    """A run that succeeds may print LintWarning notes, each once."""
    lines = message.splitlines()
    assert all(line.startswith("warning: ") for line in lines), message
    assert len(set(lines)) == len(lines), message

small_ints = st.integers(-2, 8)
scalars = st.none() | st.booleans() | small_ints | st.text("ab", max_size=2)
values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["label", "set", "x"]), inner, max_size=3),
    max_leaves=8,
)
members = st.lists(
    st.fixed_dictionaries({"set": st.lists(small_ints, max_size=3)}, optional={"label": scalars}),
    max_size=4,
)
# The fields of each kind, each drawn in its own shape or as any small value.
FIELDS = {
    "algebra": {"atoms": small_ints, "n": small_ints},
    "chain": {"n": small_ints},
    "poset": {"size": small_ints,
              "le": st.lists(st.lists(small_ints, min_size=2, max_size=2), max_size=4)},
    "semilattice": {"meet": st.lists(st.lists(small_ints, max_size=3), max_size=3)},
    "tree": {"parents": st.lists(st.none() | small_ints, max_size=5)},
    "free": {"generators": small_ints, "s": small_ints},
    "system": {"points": small_ints, "members": members,
               "labels": st.lists(st.text("ab", max_size=2), max_size=3),
               "base_point": st.none() | small_ints},
}
OPTIONAL = {"algebra": ("n",), "poset": ("le",), "free": ("s",), "system": ("labels", "base_point")}


def described(kind, shapes):
    fields = {name: shape | values for name, shape in shapes.items()}
    optional = {name: fields.pop(name) for name in OPTIONAL.get(kind, ())}
    return st.fixed_dictionaries({"kind": st.just(kind), **fields}, optional=optional)


STRUCTURES = {kind: described(kind, shapes) for kind, shapes in FIELDS.items()}
STRUCTURES["bare integer"] = small_ints  # a chain
STRUCTURES["non-object"] = st.lists(values, max_size=3) | scalars
STRUCTURES["no kind"] = st.dictionaries(
    st.sampled_from(sorted({f for shapes in FIELDS.values() for f in shapes})), values, max_size=3)
# An integer literal past the interpreter's digit limit, in any field: json.dumps
# cannot write one, so the file text swaps it in for the placeholder LONG.
LONG = "<long integer>"
STRUCTURES["over-long integer"] = st.sampled_from(
    [(kind, field) for kind, shapes in FIELDS.items() for field in shapes]
).map(lambda kind_field: {"kind": kind_field[0], kind_field[1]: LONG})

# Each command takes the structure file as its last argument.
COMMANDS = (
    [["analyze", "--analysis", name, "--clopen", "g0 & !g1", "--in"] for name in ANALYSES]
    + [["analyze", "--analysis", "selection", "--pool", pool, "--in"] for pool in POOLS]
    + [["solve", "--in"]] + [["solve", "--pool", pool, "--in"] for pool in POOLS]
    + [["export-dot", "--in"], ["combine", "--op", "sum", "--inputs"]]
)


@pytest.fixture(scope="module")
def structure_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "structure.json"


@pytest.mark.parametrize("shape", list(STRUCTURES))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_every_command_ends_cleanly(structure_file, shape, data):
    structure = data.draw(STRUCTURES[shape], label="structure")
    structure_file.write_text(json.dumps(structure).replace(json.dumps(LONG), "9" * 5000))
    for command in COMMANDS:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([*command, str(structure_file)])
        message = err.getvalue()
        assert code in (0, 1, 2), (command, structure, message)
        assert "Traceback" not in message
        if code:
            assert message.count("\n") == 1, (command, structure, message)
        else:
            assert_notes_only(message)


def random_system(rng, points):
    """A system file with small quirks: empty members, repeated members,
    repeated or missing labels, and now and then a stray base point."""
    pool = [rng.sample(range(points), rng.randint(0, points)) for _ in range(rng.randint(0, 4))]
    members = [{"set": rng.choice(pool)} for _ in range(rng.randint(0, 5))] if pool else []
    for member in members:
        if rng.random() < 0.5:
            member["label"] = rng.choice("UVW")
    system = {"kind": "system", "points": points, "members": members}
    if rng.random() < 0.15:
        system["base_point"] = rng.randint(-1, points)
    return system


def index_list(rng, bound, count):
    return ",".join(str(rng.randint(-1 if rng.random() < 0.05 else 0, bound))
                    for _ in range(count))


def combine_argv(rng, op, folder):
    """One seeded ``combine --op OP`` run, its inputs written to ``folder``:
    mostly well formed, now and then with one input or index too many."""
    def sizes(k):
        return [rng.randint(1, 4) for _ in range(k)]

    if op == "product":
        inputs = sizes(2 if rng.random() < 0.9 else 3)
        extra = []
    elif op == "duplicate":
        inputs = sizes(1)
        extra = [] if rng.random() < 0.3 else [
            f"--dup-points={index_list(rng, inputs[0] - 1 + (rng.random() < 0.1), rng.randint(0, 3))}"]
    else:
        k = rng.randint(1, 3)
        fibers = sizes(k + (rng.random() < 0.1))
        inputs = [k] + fibers
        extra = [f"--section={index_list(rng, min(fibers) - 1 + (rng.random() < 0.1), k)}"]
    paths = [folder / f"system-{i}.json" for i in range(len(inputs))]
    for path, n in zip(paths, inputs):
        path.write_text(json.dumps(random_system(rng, n)))
    return ["combine", "--op", op, "--inputs", *map(str, paths), *extra]


@pytest.mark.parametrize("op", ["product", "duplicate", "porcupine"])
def test_combine_ends_cleanly(tmp_path, op):
    rng = random.Random(f"combine {op}")
    for _ in range(120):
        argv = combine_argv(rng, op, tmp_path)
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
        text, message = out.getvalue(), err.getvalue()
        assert code in (0, 1, 2), (argv, message)
        assert "Traceback" not in message
        if code:
            assert message.count("\n") == 1, (argv, message)
        else:
            assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
            assert_notes_only(message)
