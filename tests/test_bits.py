"""Each bitmask kernel against its literal definition, plus guards that
keep the oracles independent of the kernels they check and off the
start-up path."""

import ast
import subprocess
import sys
from pathlib import Path

import random

from hypothesis import example, given, settings, strategies as st

from stonelab import FiniteBooleanAlgebra, bits
from stonelab.bits import (
    extend_cells,
    index_text,
    is_free,
    iter_bits,
    points,
    set_label,
    signature_classes,
    supersets,
    transpose,
    unseparated_pair,
    upper_covers,
)
from stonelab.oracles import is_free_sequence_naive

ORACLES = Path(__file__).resolve().parents[1] / "src" / "stonelab" / "oracles.py"
KERNEL_NAMES = {"iter_bits", "index_text", "set_label", "transpose", "supersets", "upper_covers",
                "signature_classes", "unseparated_pair", "is_free", "_Kernel", "_kernel"}

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


def _check_index_kernels(mask):
    listed = list(iter_bits(mask))
    assert list(points(mask)) == listed
    for sep in (",", ",\n    ", ""):
        assert index_text(mask, sep) == sep.join(map(str, listed))
    assert set_label(mask) == "{" + ",".join(map(str, listed)) + "}"


def _with_top_bit(rng, width, ones):
    """A mask of bit length ``width`` with ``ones`` set bits."""
    return 1 << width - 1 | sum(1 << p for p in rng.sample(range(width - 1), ones - 1))


def test_index_kernels_on_wide_masks():
    """A mask is sparse when fewer than one bit in eight is set, so each
    width is probed at ones = width/8 - 1 (sparse), width/8 and width/8 + 1."""
    rng = random.Random(4096)
    masks = [0, 1, 1 << 4096, 1 << 65536, (1 << 4096) - 1, (1 << 16384) - 1]
    for width in (16, 64, 800, 4096):
        masks += [_with_top_bit(rng, width, width // 8 + d) for d in (-1, 0, 1)]
    for mask in masks:
        _check_index_kernels(mask)


def test_index_text_on_singletons_and_dense_windows():
    """Density is judged on the span from the lowest to the highest set
    bit: every single index up to 4,095 is written alone, and dense
    windows of 12-24 bits at offsets up to 4,072 (full ones, which take
    the run path from 16 bits, and random ones with both ends set, which
    take compress over the span) are read there."""
    for p in range(4096):
        _check_index_kernels(1 << p)
    rng = random.Random(4072)
    for _ in range(300):
        width, at = rng.randint(12, 24), rng.randint(0, 4072)
        inside = rng.getrandbits(width) | 1 | 1 << width - 1
        for window in (inside, (1 << width) - 1):
            _check_index_kernels(window << at)


def _runs(lengths, gap):
    """Runs of ones of the given lengths, lowest first, ``gap`` zeros apart."""
    mask, at = 0, 0
    for length in lengths:
        mask |= ((1 << length) - 1) << at
        at += length + gap
    return mask


def _runs_at(spans):
    """Ones at a..b-1 for each span (a, b)."""
    return sum(((1 << b) - 1) ^ ((1 << a) - 1) for a, b in spans)


def test_index_text_run_switch():
    """A dense mask with at least 16 set bits per run of ones is written
    run by run, one with a bit fewer through compress; both against the
    definition, and a separator first seen on each side shows which path
    wrote it."""
    for count in (1, 2, 5, 40):
        for gap in (1, 3, 100):
            for last, by_runs in ((16, True), (15, False)):
                mask = _runs([16] * (count - 1) + [last], gap)
                _check_index_kernels(mask)
                sep = f";{count}/{gap}/{last};"
                assert index_text(mask, sep) == sep.join(map(str, iter_bits(mask)))
                assert (sep in bits._RUN_TEXTS) == by_runs


def test_index_text_on_wide_run_masks():
    """All ones, alternating bits, a lone high bit and a few long runs, at
    widths of 4,096 bits and more."""
    rng = random.Random(16384)
    masks = [(1 << 4096) - 1, (1 << 20000) - 1, int("10" * 3000, 2), int("01" * 3000, 2),
             1 << 70000, (1 << 4096) - 1 ^ 1 << 2048, _runs([4096, 9, 8, 1000], 4000)]
    for width in (4096, 9000):
        for _ in range(5):
            cuts = sorted(rng.sample(range(width), 2 * rng.randint(1, 12)))
            masks.append(_runs_at(zip(cuts[::2], cuts[1::2])))
    for mask in masks:
        _check_index_kernels(mask)


def test_index_text_past_the_decimal_table():
    """The decimal table grows to the widest dense mask written so far; a
    wider mask grows it again, and narrower ones keep reading it.  These
    masks (runs of one and two ones) take compress; a run-path mask grows
    the same table and its separator's run text."""
    held = len(bits._DECIMALS)
    for width in (held + 1000, held + 1001, held + 1003):
        _check_index_kernels(int(("1101" * width)[:width], 2))
        assert len(bits._DECIMALS) == width
    _check_index_kernels(0b1011)
    width = len(bits._DECIMALS) + 2000
    _check_index_kernels((1 << width) - 1)
    assert len(bits._DECIMALS) == width and len(bits._RUN_TEXTS[","][1]) == width + 1
    _check_index_kernels((1 << 100) - 1 ^ 1 << 50)


def test_decimal_table_not_built_at_import():
    probe = "import stonelab.cli, stonelab.bits as b; print(len(b._DECIMALS), len(b._RUN_TEXTS))"
    src = str(Path(bits.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src}).stdout
    assert out == "0 0\n"


def test_points_against_iter_bits():
    """Zero, each width 1..70 (all ones, the top bit alone, random fill),
    lone bits either side of the 64-bit table cap, and masks past it: all
    ones, a lone bit at 65,536, and at widths 800 and 4,096 one bit in
    eight set (compress) and one bit fewer (bit loop)."""
    rng = random.Random(70)
    masks = [0, 1 << 63, 1 << 64, 1 << 65, (1 << 64) - 1, (1 << 65) - 1, (1 << 4096) - 1,
             1 << 4096 | 1, rng.getrandbits(600), 1 << 65536]
    for width in (800, 4096):
        masks += [_with_top_bit(rng, width, width // 8 + d) for d in (-1, 0)]
    for width in range(1, 71):
        top = 1 << width - 1
        masks += [(1 << width) - 1, top] + [top | rng.getrandbits(width - 1) for _ in range(20)]
    for mask in masks:
        got = points(mask)
        assert type(got) is tuple and got == tuple(iter_bits(mask)), mask
    assert len(bits._POINT_TABLES) <= bits._POINT_TABLE_BYTES


def test_oracles_not_loaded_at_import():
    probe = "import sys, stonelab.cli; print('stonelab.oracles' in sys.modules)"
    src = str(Path(bits.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src}).stdout
    assert out == "False\n"


def test_point_tables_not_built_at_import():
    probe = "import stonelab.cli, stonelab.bits as b; print(len(b._POINT_TABLES))"
    src = str(Path(bits.__file__).parents[1])
    out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                         check=True, env={"PYTHONPATH": src}).stdout
    assert out == "0\n"


@seeded
@given(masks)
def test_transpose(rows):
    cols = transpose(rows, WIDTH)
    for r, row in enumerate(rows):
        for c in range(WIDTH):
            assert (cols[c] >> r & 1) == (row >> c & 1)


def _check_transpose(rows, width):
    cols = transpose(rows, width)
    assert len(cols) == width
    for c, col in enumerate(cols):
        assert col == sum((row >> c & 1) << r for r, row in enumerate(rows)), c


def test_transpose_on_wide_and_switching_rows():
    """Rows of 4,096 bits and more, dense and sparse; all-ones rows; a lone
    high bit; a width above every row's length; and matrices on either side
    of each switch: 4,096 cells with exactly one set bit in eight (digits)
    and one bit fewer (bit loop), and dense matrices of 4,096 cells (digits)
    and 4,095 (bit loop)."""
    rng = random.Random(4097)
    _check_transpose([(1 << 4096) - 1] * 3, 4096)
    _check_transpose([rng.getrandbits(5000) for _ in range(6)], 5000)
    _check_transpose([1 << rng.randrange(4500) for _ in range(9)], 4500)
    _check_transpose([1 << 4999], 5000)
    _check_transpose([0, 1 << 4095, 0], 4096)
    _check_transpose([(1 << 30) - 1, 5, 0], 100)
    _check_transpose([], 3)
    for count, width in ((64, 64), (4, 1024), (512, 8)):
        for extra in (0, -1):
            places = rng.sample(range(count * width), count * width // 8 + extra)
            rows = [sum(1 << p % width for p in places if p // width == r) for r in range(count)]
            _check_transpose(rows, width)
    for count, width in ((64, 64), (63, 65), (4096, 1), (1, 4095)):
        _check_transpose([rng.getrandbits(width) | 1 for _ in range(count)], width)


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


@seeded
@given(masks)
@example([3, 5, 5, 3])  # the least pair is (0, 3), not the pair (1, 2) closed first
def test_unseparated_pair(signatures):
    pairs = [(x, y) for y in range(len(signatures)) for x in range(y)
             if signatures[x] == signatures[y]]
    assert unseparated_pair(signatures) == min(pairs, default=None)


@settings(max_examples=300, derandomize=True)
@given(st.integers(1, 5).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=5))))
def test_is_free(case):
    n, terms = case
    algebra = FiniteBooleanAlgebra(n)
    assert is_free(terms, algebra.full_mask) == is_free_sequence_naive(
        algebra, [algebra.element(t) for t in terms]
    )


def _is_free_reference(masks, full):
    """``is_free`` before the cell fold: every maximal split from a suffix
    array rebuilt for the whole sequence."""
    k = len(masks)
    suffix = [full] * (k + 1)
    for i in range(k - 1, -1, -1):
        suffix[i] = suffix[i + 1] & (masks[i] ^ full)
    prefix = full
    for beta in range(k + 1):
        if prefix & suffix[beta] == 0:
            return False
        if beta < k:
            prefix &= masks[beta]
    return True


def test_extend_cells_against_reference():
    # the 10^4 random sequences of test_freeseq's naive comparison
    rng = random.Random(2718)
    for _ in range(10_000):
        n = rng.randint(1, 6)
        full = (1 << n) - 1
        terms = [rng.randrange(1 << n) for _ in range(rng.randint(5, 12))]
        cells = (full,)
        for k, b in enumerate(terms, 1):
            cells = extend_cells(cells, b)
            assert (cells is not None) == _is_free_reference(terms[:k], full)
            if cells is None:
                break
            front = [full] + [full & a for a in terms[:k]]
            for j in range(1, k + 1):
                front[j] &= front[j - 1]
            back = [full ^ a for a in terms[:k]] + [full]
            for j in range(k - 1, -1, -1):
                back[j] &= back[j + 1]
            assert cells == tuple(f & t for f, t in zip(front, back))
        assert is_free(terms, full) == _is_free_reference(terms, full)


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


def test_only_bits_names_iter_bits():
    """``points`` is the one index lister outside ``bits``: the bit loop
    copies the whole int once per set bit, so other modules reach it only
    through ``points``' sparse branch."""
    for path in ORACLES.parent.glob("*.py"):
        if path.name == "bits.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            else:
                continue
            assert name != "iter_bits", (path.name, ast.dump(node))


def test_only_selftest_imports_the_oracles():
    """The CLI loads ``selftest``, and so the oracles, only when that
    subcommand runs; an implementation module that imported them would put
    them back on every start-up."""
    for path in ORACLES.parent.glob("*.py"):
        if path.name == "selftest.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [a.name for a in node.names]
            else:
                continue
            assert not any("oracles" in name.split(".") for name in names), (path.name, ast.dump(node))
