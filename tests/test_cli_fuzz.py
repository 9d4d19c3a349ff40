"""Input fuzz: structure files of every kind, with small arbitrary fields,
fed to every CLI command that reads one.  Each run must end with exit 0,
1 or 2, and a failing run with exactly one stderr line, never a traceback.
"""

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from stonelab.cli import ANALYSES, POOLS, main

pytestmark = pytest.mark.filterwarnings("ignore::stonelab.errors.LintWarning")

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
    structure_file.write_text(json.dumps(structure))
    for command in COMMANDS:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main([*command, str(structure_file)])
        message = err.getvalue()
        assert code in (0, 1, 2), (command, structure, message)
        assert "Traceback" not in message
        if code:
            assert message.count("\n") == 1, (command, structure, message)
