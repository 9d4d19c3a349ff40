"""Each bitmask kernel against its literal definition, plus a guard that
keeps the oracles independent of the kernels they check."""

import ast
from pathlib import Path

from hypothesis import given, settings, strategies as st

from stonelab import FiniteBooleanAlgebra, is_free_sequence_naive
from stonelab.bits import (
    is_free,
    iter_bits,
    set_label,
    signature_classes,
    supersets,
    transpose,
    upper_covers,
)

ORACLES = Path(__file__).resolve().parents[1] / "src" / "stonelab" / "oracles.py"
KERNEL_NAMES = {"iter_bits", "set_label", "transpose", "supersets", "upper_covers",
                "signature_classes", "is_free", "_Kernel", "_kernel"}

seeded = settings(derandomize=True)
WIDTH = 7
masks = st.lists(st.integers(0, (1 << WIDTH) - 1), max_size=12)


def subset(a, b):
    return all(not a >> e & 1 or b >> e & 1 for e in range(WIDTH))


@seeded
@given(st.integers(0, (1 << 70) - 1))
def test_iter_bits_and_label(mask):
    expected = [i for i in range(70) if mask >> i & 1]
    assert list(iter_bits(mask)) == expected
    assert set_label(mask) == "{" + ",".join(str(i) for i in expected) + "}"


@seeded
@given(masks)
def test_transpose(rows):
    cols = transpose(rows, WIDTH)
    for r, row in enumerate(rows):
        for c in range(WIDTH):
            assert (cols[c] >> r & 1) == (row >> c & 1)


@seeded
@given(masks)
def test_supersets(sets):
    up = supersets(sets)
    for i, a in enumerate(sets):
        assert up[i] == sum(1 << j for j, b in enumerate(sets) if subset(a, b))


@seeded
@given(masks)
def test_upper_covers(sets):
    covers = upper_covers(sets)

    def proper(a, b):
        return a != b and subset(a, b)

    for i, a in enumerate(sets):
        expected = sum(
            1 << j
            for j, b in enumerate(sets)
            if proper(a, b) and not any(proper(a, c) and proper(c, b) for c in sets)
        )
        assert covers[i] == expected


@seeded
@given(masks)
def test_signature_classes(signatures):
    groups = {}
    for p, sig in enumerate(signatures):
        groups.setdefault(sig, []).append(p)
    expected = sorted((sum(1 << p for p in ps) for ps in groups.values()),
                      key=lambda cls: cls & -cls)
    assert signature_classes(signatures) == expected


@settings(max_examples=300, derandomize=True)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=5))))
def test_is_free(case):
    n, terms = case
    algebra = FiniteBooleanAlgebra(n)
    assert is_free(terms, algebra.full_mask) == is_free_sequence_naive(
        algebra, [algebra.element(t) for t in terms]
    )


def test_oracles_stay_off_the_kernels():
    """The oracles recompute what the kernels compute; importing a kernel
    into them would make each check compare the kernel with itself."""
    for node in ast.walk(ast.parse(ORACLES.read_text())):
        if isinstance(node, ast.Import):
            assert not any(a.name.endswith("bits") for a in node.names), ast.dump(node)
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[-1] != "bits", ast.dump(node)
            assert not KERNEL_NAMES & {a.name for a in node.names}, ast.dump(node)
        elif isinstance(node, ast.Attribute):
            assert node.attr not in KERNEL_NAMES, ast.dump(node)
