"""Golden CLI outputs: each case's stdout must match its recorded file byte
for byte.

The files under ``tests/golden/`` were recorded from the CLI before the
bitmask kernels were shared between modules; a refactor that changes any
report, drawing or combined system fails here.  To record a new case,
add it to ``CASES`` and run ``python tests/test_golden.py`` from the
repository root, which writes the missing files only.
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from stonelab.cli import main
from test_acceptance import FIXTURES

GOLDEN = Path(__file__).resolve().with_name("golden")
SYS_A = str(GOLDEN / "sys_a.json")
SYS_B = str(GOLDEN / "sys_b.json")
BOOLEAN_MEET = "0,0,0,0;0,1,0,1;0,0,2,2;0,1,2,3"  # the 4-element Boolean lattice

CASES = {f"fixture-{i}": argv for i, argv in enumerate(FIXTURES)}
CASES.update({
    "dot-semilattice": ["export-dot", "--kind", "semilattice", "--meet", BOOLEAN_MEET],
    "dot-tree-paths": ["export-dot", "--kind", "tree", "--parents=-1,0,0,1,1,2"],
    "dot-tree-structure": ["export-dot", "--kind", "tree", "--parents=-1,0,0,1,1,2",
                           "--view", "structure"],
    "dot-system": ["export-dot", "--in", SYS_B],
    "dot-antichain-4": ["export-dot", "--kind", "poset", "--size", "4", "--pairs", ""],
    "dot-chain": ["export-dot", "--kind", "chain", "--n", "3"],
    "human-duality": ["analyze", "--kind", "poset", "--size", "3", "--pairs", "0<1,0<2",
                      "--analysis", "duality", "--human"],
    "combine-product": ["combine", "--op", "product", "--inputs", SYS_A, SYS_B],
    "combine-sum": ["combine", "--op", "sum", "--inputs", SYS_A, SYS_B],
    "combine-duplicate": ["combine", "--op", "duplicate", "--inputs", SYS_B,
                          "--dup-points", "0,2"],
    "combine-porcupine": ["combine", "--op", "porcupine", "--inputs", SYS_A, SYS_A, SYS_B,
                          "--section", "0,1"],
    "modest-boolean": ["analyze", "--kind", "semilattice", "--meet", BOOLEAN_MEET,
                       "--analysis", "modest"],
    "selection-algebra": ["analyze", "--kind", "algebra", "--n", "3", "--analysis", "selection"],
    "duality-chain": ["analyze", "--kind", "chain", "--n", "3", "--analysis", "duality"],
    "freeseq-chain": ["analyze", "--kind", "chain", "--n", "3", "--analysis", "freeseq"],
    "sigma-tree": ["analyze", "--kind", "tree", "--parents=-1,0,0,1,1,2", "--analysis", "sigma"],
    "solve-chain-free": ["solve", "--kind", "chain", "--n", "3"],
    "solve-intervals-greedy": ["solve", "--kind", "chain", "--n", "4", "--pool", "intervals",
                               "--mode", "greedy"],
    "solve-filters": ["solve", "--kind", "semilattice", "--meet", BOOLEAN_MEET,
                      "--pool", "filters"],
    "solve-tree": ["solve", "--kind", "tree", "--parents=-1,0,0,1", "--pool", "tree"],
    "solve-system": ["solve", "--in", SYS_B],
})


def run(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    assert code == 0, argv
    return buf.getvalue()


@pytest.mark.filterwarnings("ignore::stonelab.errors.LintWarning")
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected = (GOLDEN / f"{name}.txt").read_text()
    assert run(CASES[name]) == expected


if __name__ == "__main__":
    for name, argv in CASES.items():
        target = GOLDEN / f"{name}.txt"
        if not target.exists():
            target.write_text(run(argv))
            print(f"recorded {target.name}", file=sys.stderr)
