"""Command-line front end.

Subcommands: analyze, solve, combine, export-dot, selftest.  Structures
come from JSON files (--in) or inline flags; machine output is JSON with
stable key order, human output a table view of the same data.  Exit codes:
0 ok, 1 validation error, 2 resource cap, 3 self-test oracle mismatch.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from functools import cache, partial
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple, NoReturn

from . import dot as dotmod
from .algebra import FiniteBooleanAlgebra
from .bits import index_text, points
from .combinators import alexandrov_duplication, porcupine, product_system, sum_with_point
from .errors import (
    ATOMS,
    CAPS,
    POSET_POINTS,
    SEMILATTICE_POINTS,
    SYSTEM_POINTS,
    TREE_NODES,
    CapExceededError,
    LintWarning,
    OracleMismatchError,
    StonelabError,
    ValidationError,
)
from .families import (
    NOT_GENERATING,
    Member,
    PointedSystem,
    PointSet,
    SeparatingFamily,
    is_t0_separating,
    order_profile,
)
from .freealg import FreeAlgebra, FreeElement, min_support_ultrafilter
from .freeseq import longest_free_point_sequence, longest_free_sequence
from .orders import (
    FinitePoset,
    MeetSemilattice,
    discrete_witness,
    filters,
    final_segments,
    generator_orientation,
    modest_analysis,
    prime_clopen_filters,
)
from .solver import GeneratorPool, min_max_order, preset_pool
from .trees import FiniteForest, initial_chain_algebra, sigma_system
from .trees import paths as tree_paths


# ---------------------------------------------------------------- structures

# Deepest nesting of lists and objects in a structure file; a system file
# needs 4 levels, and the report encoders recurse once per level.
_MAX_JSON_DEPTH = 32


def read_structure(path: str) -> dict:
    """The structure description in a JSON file; a bare integer n is the
    chain of length n."""
    with open(path) as fh:
        try:
            data = json.load(fh)
            deep = _nested_too_deeply(data)
        except RecursionError:  # the decoder recurses once per nesting level
            deep = True
        except UnicodeDecodeError as exc:
            raise ValidationError(f"{path}: cannot decode as text: {exc.reason}") from None
        except json.JSONDecodeError:
            raise
        except ValueError:  # int() refuses a literal past the interpreter's digit limit
            raise ValidationError(f"{path}: integer literal longer than "
                                  f"{sys.get_int_max_str_digits()} digits") from None
    if deep:
        raise ValidationError(f"{path}: JSON nested too deeply")
    if isinstance(data, int):
        data = {"kind": "chain", "n": data}
    if not isinstance(data, dict) or "kind" not in data:
        raise ValidationError("structure file must be an object with a 'kind'")
    return data


def _nested_too_deeply(data) -> bool:
    level = [data] if isinstance(data, (dict, list)) else []  # the containers at one depth
    for _ in range(_MAX_JSON_DEPTH):  # walked breadth first, so without recursion
        if not level:
            return False
        level = [v for x in level for v in (x.values() if type(x) is dict else x)
                 if isinstance(v, (dict, list))]
    return bool(level)


def load_structure(args) -> dict:
    """Structure description from --in (JSON file) or inline flags."""
    if args.infile:
        return read_structure(args.infile)
    if args.kind is None:
        raise ValidationError("provide --in FILE or --kind")
    fields = {"kind": args.kind, "n": args.n, "generators": args.s, "size": args.size}
    data = {key: value for key, value in fields.items() if value is not None}
    if args.pairs:
        data["le"] = _parse_pairs(args.pairs)
        data.setdefault("size", 1 + max((max(p) for p in data["le"]), default=-1))
    if args.parents:
        data["parents"] = [
            None if tok in ("-1", "None", "") else _flag_int(tok, "--parents")
            for tok in args.parents.split(",")
        ]
    if args.meet:
        data["meet"] = [
            [_flag_int(v, "--meet") for v in row.split(",")] for row in args.meet.split(";")
        ]
    return data


def _flag_int(token: str, flag: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ValidationError(f"{flag}: {token!r} is not an integer") from None


def _parse_pairs(text: str):
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        a, _, b = chunk.partition("<")  # no "<", or a second one, leaves b no integer
        try:
            pairs.append([int(a), int(b)])
        except ValueError:
            raise ValidationError(f"bad pair {chunk!r}; expected like 0<1") from None
    return pairs


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _integer(data: dict, what: str, *keys: str) -> int:
    """The first of ``keys`` set in a structure description, as an int."""
    value = next((data[k] for k in keys if data.get(k) is not None), None)
    if value is None:
        raise ValidationError(f"{what} needs '{keys[0]}'")
    if not _is_int(value):
        raise ValidationError(f"{what} '{keys[0]}' must be an integer, got {value!r}")
    return value


class Takes(NamedTuple):
    """What a command target takes: the structure kinds, what a chain n
    stands for there ("atoms": the n-atom algebra, "elements": the
    n-element chain, "n": n itself), and the refusal of any other kind."""

    kinds: tuple
    chain: str
    refuse: Callable[[], NoReturn]


def _refuse(text: str) -> NoReturn:
    raise ValidationError(text)


# pool preset -> what it takes, for solve and for the selection analysis;
# every pool takes a system file as its own pool, and "all" is read as
# "free" when --pool is parsed
POOLS = {
    preset: Takes((*kinds, "system"), chain, partial(preset_pool, preset, None))
    for preset, kinds, chain in [
        ("free", ("algebra", "chain"), "atoms"),
        ("intervals", ("chain",), "n"),
        ("upsets", ("poset", "chain"), "elements"),
        ("tree", ("tree",), "n"),
        ("filters", ("semilattice",), "n"),
    ]
}


def build_structure(data: dict, takes: Takes, atom_cap: int, poset_cap: int):
    """The structure a description names, read as ``takes`` says.  A kind
    the target does not take is refused before anything is built; field
    types are checked here, so malformed input ends in a ValidationError,
    never a stray TypeError.  A poset, semilattice or tree above its cap
    is refused unbuilt too, since building one of n points costs O(n^2).
    """
    kind = data["kind"]
    if kind not in takes.kinds:
        takes.refuse()
    if kind == "algebra":
        return FiniteBooleanAlgebra(_integer(data, "algebra", "atoms", "n"), cap=atom_cap)
    if kind == "chain":
        n = _integer(data, "chain", "n")
        if takes.chain == "elements":
            POSET_POINTS.check(n, poset_cap)
            return FinitePoset.chain(n)
        # n atoms, or n read as the n points of a pool: capped before either is built
        algebra = FiniteBooleanAlgebra(n, cap=atom_cap)
        return algebra if takes.chain == "atoms" else n
    if kind == "poset":
        size = _integer(data, "poset", "size")
        POSET_POINTS.check(size, poset_cap)
        le = data.get("le", [])
        if not isinstance(le, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_int, p)) for p in le
        ):
            raise ValidationError("poset 'le' must be a list of [p, q] integer pairs")
        return FinitePoset(size, [tuple(p) for p in le])
    if kind == "semilattice":
        table = data.get("meet")
        if not isinstance(table, list) or not all(
            isinstance(row, list) and all(map(_is_int, row)) for row in table
        ):
            raise ValidationError("semilattice needs a 'meet' table: a list of integer rows")
        SEMILATTICE_POINTS.check(len(table), poset_cap)
        return MeetSemilattice(table)
    if kind == "tree":
        parents = data.get("parents")
        if not isinstance(parents, list):
            raise ValidationError("tree needs a 'parents' list")
        TREE_NODES.check(len(parents))
        return FiniteForest(parents)
    if kind == "free":
        return FreeAlgebra(_integer(data, "free algebra", "generators", "s"))
    return system_from_json(data)


def system_from_json(data: dict) -> PointedSystem:
    size = _integer(data, "system", "points")
    SYSTEM_POINTS.check(size)  # before any mask of that width exists
    labels = data.get("labels")
    if labels is not None and not (
        isinstance(labels, list) and all(isinstance(x, str) for x in labels)
    ):
        raise ValidationError("system 'labels' must be a list of strings, one per point")
    pts = PointSet(size, tuple(labels) if labels else None)
    raw = data.get("members", [])
    if not isinstance(raw, list):
        raise ValidationError("system 'members' must be a list")
    members = []
    for i, m in enumerate(raw):
        mask = _member_mask(m, pts.size, i)
        label = m.get("label", f"U{i}")
        if not isinstance(label, str):
            raise ValidationError(f"system member {i}: 'label' must be a string, got {label!r}")
        members.append(Member(label, mask))
    base = data.get("base_point")
    if base is not None and not _is_int(base):
        raise ValidationError(f"system 'base_point' must be an integer point or null, got {base!r}")
    return PointedSystem(SeparatingFamily(pts, tuple(members)), base)


def _member_mask(member, size: int, i: int) -> int:
    """Mask of one system member, each index checked before it is shifted."""
    points = member.get("set") if isinstance(member, dict) else None
    if not isinstance(points, list):
        raise ValidationError(f"system member {i} needs a 'set' list of point indices")
    mask = 0
    for p in points:
        if type(p) is not int or not 0 <= p < size:  # JSON yields no other int type
            raise ValidationError(
                f"system member {i}: point index {p!r} is not an integer in 0..{size - 1}"
            )
        mask |= 1 << p
    return mask


class _Mask(int):
    """A set of point indices in a report, kept as its mask: it stands for
    the list of its indices, which ``_json`` writes straight from the bits."""

    __slots__ = ()


def system_to_json(system: PointedSystem, extra=None) -> dict:
    data = {
        "kind": "system",
        "points": system.size,
        "labels": list(map(system.points.label, range(system.size))),
        "members": [{"label": m.label, "set": _Mask(m.bits)} for m in system.family.members],
        "base_point": system.base_point,
    }
    if extra:
        data.update(extra)
    return data


# a row per knob; the rows that share a flag share its variable and bounds
_KNOBS = {cap.flag: cap for cap in CAPS if cap.flag}


def _set_knobs(args) -> None:
    """Settle each cap knob once: the flag, else the environment variable,
    else the default; a command that does not register the flag takes the
    default.  A value set must lie in 1..maximum."""
    for flag, cap in _KNOBS.items():
        dest = flag[2:].replace("-", "_")
        value, source = getattr(args, dest, None), flag
        if value is None and hasattr(args, dest) and os.environ.get(cap.env):
            value, source = _flag_int(os.environ[cap.env], cap.env), cap.env
        if value is None:
            value = cap.default
        elif value < 1 or cap.maximum is not None and value > cap.maximum:
            bound = "at least 1" if cap.maximum is None else f"in 1..{cap.maximum}"
            raise ValidationError(f"{source} must be {bound}, got {value}")
        setattr(args, dest, value)


# ------------------------------------------------------------------- reports

_SCALAR_ENCODERS = {int: str, str: encode_basestring_ascii}  # exact types: not bool


def _json(obj, out: list, indent: str = "") -> None:
    """Append ``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte,
    to ``out`` in pieces that the caller joins once, for payloads with
    string keys, where a ``_Mask`` stands for the list of its indices.

    No child's text is copied into its parent's.  A mask is written by
    ``bits.index_text``, without an int per index; a list of plain ints or
    strs is encoded in one call; a list of plain dicts that share their
    keys fills one ``%`` row template column by column, one encoder per
    column of one plain type; keys, plain ints and strs are encoded as
    ``json.dumps`` does, without its per-call set-up; other scalars go
    through ``json.dumps``.
    """
    kind = type(obj)
    if kind in _SCALAR_ENCODERS:
        out.append(_SCALAR_ENCODERS[kind](obj))
        return
    inner = indent + "  "
    sep = ",\n" + inner
    if kind is _Mask:
        out += ("[\n" + inner, index_text(obj, sep), "\n" + indent + "]") if obj else ("[]",)
    elif not isinstance(obj, (dict, list, tuple)):
        out.append(json.dumps(obj))
    elif not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        opening = "{\n" + inner
        for key in sorted(obj):
            out.append(f"{opening}{encode_basestring_ascii(key)}: ")
            _json(obj[key], out, inner)
            opening = sep
        out.append("\n" + indent + "}")
    else:
        out.append("[\n" + inner)
        kinds = set(map(type, obj))  # bool and _Mask, int subclasses, are not joined
        if kinds in ({int}, {str}):
            out.append(sep.join(map(_SCALAR_ENCODERS[kinds.pop()], obj)))
        elif kinds == {dict} and obj[0] and all(map(obj[0].keys().__eq__, map(dict.keys, obj))):
            keys = sorted(obj[0])
            cell = inner + "  "
            template = "{\n%s\n%s}" % (",\n".join(
                f"{cell}{encode_basestring_ascii(k).replace('%', '%%')}: %s" for k in keys), inner)
            columns = []
            for key in keys:
                values = [row[key] for row in obj]
                kinds = set(map(type, values))
                encode = _SCALAR_ENCODERS.get(kinds.pop()) if len(kinds) == 1 else None
                if encode is None:
                    pieces = [[] for _ in values]
                    for value, text in zip(values, pieces):
                        _json(value, text, cell)
                    values, encode = pieces, "".join
                columns.append(map(encode, values))
            rows = zip(*columns)
            out.append(template % next(rows))
            out += map((sep + template).__mod__, rows)
        else:
            _json(obj[0], out, inner)
            for value in obj[1:]:
                out.append(sep)
                _json(value, out, inner)
        out.append("\n" + indent + "]")


def emit(args, payload: dict) -> None:
    out = [human_view(payload)] if args.human else []
    if not args.human:
        _json(payload, out)
        out.append("\n")
    _write("".join(out), args.out)


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def human_view(payload: dict) -> str:
    lines = []

    def walk(obj, depth):
        pad = "  " * depth
        if isinstance(obj, dict):
            for key in sorted(obj):
                value = obj[key]
                if type(value) is _Mask:
                    value = list(points(value))
                if isinstance(value, (dict, list)):
                    lines.append(f"{pad}{key}:")
                    walk(value, depth + 1)
                else:
                    lines.append(f"{pad}{key:<24} {value}")
        elif isinstance(obj, list):
            for value in obj:
                if isinstance(value, (dict, list)):
                    walk(value, depth + 1)
                else:
                    lines.append(f"{pad}- {value}")

    walk(payload, 0)
    return "\n".join(lines) + "\n"


def report(structure_echo, analysis: str, results: dict, notes) -> dict:
    return {
        "input": structure_echo,
        "analysis": analysis,
        "results": results,
        "notes": list(notes),
    }


# ------------------------------------------------------------------- analyze

def _family_payload(family: SeparatingFamily) -> dict:
    profile = order_profile(family)
    t0 = is_t0_separating(family)
    return {
        "members": [m.label for m in family.members],
        "per_point_order": list(profile.per_point),
        "max_order": profile.max_order,
        "argmax_points": list(profile.argmax_points),
        "t0_separating": t0.separating,
        "unseparated_pair": list(t0.witness) if t0.witness else None,
    }


def _selection(args, structure):
    pool = _pool(structure, args.pool or ("intervals" if isinstance(structure, int) else "free"))
    ATOMS.check(pool.points.size, args.cap_atoms)
    family = _family_payload(SeparatingFamily(pool.points, pool.candidates))
    if not family["t0_separating"]:
        warnings.warn(NOT_GENERATING, LintWarning)
    results = {
        "selection_value": family["max_order"],
        "witness_atom": family["argmax_points"][0],
        "generates_whole": family["t0_separating"],
        "family": family,
    }
    notes = [
        "selection value = max over atoms of the number of pool members containing it",
        f"pool preset: {pool.preset_tag}",
    ]
    return results, notes


def _duality(args, poset):
    lattice = final_segments(poset, cap=args.cap_enum)
    primes = prime_clopen_filters(lattice)
    results = {
        "segment_count": lattice.size,
        "segments": list(lattice.labels),
        "family": _family_payload(lattice.family("a_")),
        "prime_filter_count": len(primes),
        # a filter's minimum, [p, ->), sorts first among its segments
        "prime_filter_minima": [lattice.labels[(f & -f).bit_length() - 1] for f in primes],
        "bijection_with_poset": len(primes) == poset.size,
        "discrete_witnesses": {str(p): list(discrete_witness(poset, p)) for p in range(poset.size)},
        "generator_orientation": generator_orientation(lattice),
    }
    notes = [
        "points are the final segments; generator a_p collects the segments containing p",
        "each prime filter of the segment lattice is principal at some [p,->)",
        "tau_p isolates a_p inside the slab {u : p in u, u disjoint from tau_p}",
    ]
    return results, notes


def _modest(args, structure):
    lattice = filters(structure, cap=args.cap_enum)
    analysis_report = modest_analysis(lattice)
    labels = lattice.labels
    results = {
        "filter_count": lattice.size,
        "filters": list(labels),
        "family": _family_payload(lattice.family("a_")),
        "compact_elements": [labels[i] for i in analysis_report.compact_elements],
        "immediate_predecessor_counts": list(
            analysis_report.immediate_predecessor_counts
        ),
        # true at finite scale, reported on purpose: every immediate-predecessor
        # set is finite, and any subset of a finite lattice is its own finite
        # witness of its supremum, so the literal sup definition agrees
        "is_modest": True,
        "max_elements": [labels[i] for i in analysis_report.max_elements],
        "witness_point": labels[analysis_report.witness_point],
        "witness_compact_below": analysis_report.witness_compact_below,
        # the order of the witness point in clopen_filter_family equals that count
        "witness_family_order": analysis_report.witness_compact_below,
        "sup_definition_agrees": True,
    }
    notes = [
        "compact elements: non-minimum filters; cross-checked against the literal sup definition",
        "witness point: maximal element with the most compact elements below it",
    ]
    return results, notes


def _sigma(args, structure):
    system = sigma_system(structure)
    partition = initial_chain_algebra(structure) if structure.size else None
    results = {
        "path_count": system.points.size,
        "height": structure.height(),
        "family": _family_payload(system.family),
        "max_order_equals_height": order_profile(system.family).max_order
        == structure.height(),
    }
    if partition:
        results["initial_chain_algebra"] = {
            "blocks": partition.block_count,
            "generates_whole": partition.is_full(),
        }
    notes = [
        "paths are the empty chain plus the ancestor-closure of each node",
        "the order of a path equals its length, so the maximum is the height",
    ]
    return results, notes


def _freeseq(args, algebra):
    terms = longest_free_sequence(algebra)
    points_length = longest_free_point_sequence(algebra)
    results = {
        "algebra_sequence_length": len(terms),
        "algebra_sequence": [sorted(t.atoms()) for t in terms],
        "point_sequence_length": points_length,
        "asymmetry": points_length - len(terms),
    }
    notes = [
        "algebra sequences top out one below the atom count; point sequences reach it",
    ]
    return results, notes


def _minsupport(args, structure):
    if not args.clopen:
        raise ValidationError("minsupport analysis needs --clopen FORMULA")
    w = parse_clopen(structure, args.clopen)
    support = min_support_ultrafilter(w)
    results = {
        "formula": args.clopen,
        "support": list(support),
        "support_size": len(support),
    }
    notes = ["smallest-weight satisfying assignment, weight levels tried in order"]
    return results, notes


# analysis name -> (function of (args, structure) returning (results, notes),
#                   what it takes under each --pool, None meaning no --pool)
ANALYSES = {
    name: (run, {**pools,
                 None: Takes(kinds, chain, partial(_refuse, f"{name} analysis needs {wants}"))})
    for name, run, pools, kinds, chain, wants in [
        ("selection", _selection, POOLS, ("chain", "algebra"), "n", "a chain or an algebra"),
        ("duality", _duality, {}, ("poset", "chain"), "elements", "a poset or chain"),
        ("modest", _modest, {}, ("semilattice",), "n", "a semilattice"),
        ("sigma", _sigma, {}, ("tree",), "n", "a tree"),
        ("freeseq", _freeseq, {}, ("algebra", "chain"), "atoms", "an algebra or chain"),
        ("minsupport", _minsupport, {}, ("free",), "n", "a free algebra"),
    ]
}


def cmd_analyze(args) -> int:
    data = load_structure(args)
    run, takes = ANALYSES[args.analysis]
    structure = build_structure(data, takes.get(args.pool, takes[None]),
                                args.cap_atoms, args.cap_enum)
    results, notes = run(args, structure)
    emit(args, report(data, args.analysis, results, notes))
    return 0


# ------------------------------------------------------------ clopen formulas

# Deepest nesting of ! and ( in a formula; a level costs up to three frames.
_MAX_FORMULA_DEPTH = 100


class _FormulaParser:
    """Recursive-descent parser for generator formulas: & | ! ( ) g<i> 0 1."""

    def __init__(self, algebra: FreeAlgebra, text: str):
        self.algebra = algebra
        self.tokens = self._lex(text)
        self.pos = 0
        self.depth = 0

    @staticmethod
    def _lex(text: str):
        tokens = []
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
            elif ch in "&|!()":
                tokens.append(ch)
                i += 1
            elif ch.isalnum() or ch == "_":
                j = i
                while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                tokens.append(text[i:j])
                i = j
            else:
                raise ValidationError(f"bad character {ch!r} in formula")
        return tokens

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected and tok != expected):
            raise ValidationError(f"formula syntax error near token {tok!r}")
        self.pos += 1
        return tok

    def parse(self) -> FreeElement:
        result = self.disjunction()
        if self.peek() is not None:
            raise ValidationError(f"trailing tokens in formula: {self.peek()!r}")
        return result

    def disjunction(self) -> FreeElement:
        left = self.conjunction()
        while self.peek() == "|":
            self.take("|")
            left = left | self.conjunction()
        return left

    def conjunction(self) -> FreeElement:
        left = self.atom()
        while self.peek() == "&":
            self.take("&")
            left = left & self.atom()
        return left

    def atom(self) -> FreeElement:
        tok = self.take()
        if tok in ("!", "("):
            self.depth += 1
            if self.depth > _MAX_FORMULA_DEPTH:
                raise ValidationError(f"formula nests deeper than {_MAX_FORMULA_DEPTH} levels")
            inner = ~self.atom() if tok == "!" else self.disjunction()
            if tok == "(":
                self.take(")")
            self.depth -= 1
            return inner
        if tok == "0":
            return self.algebra.zero
        if tok == "1":
            return self.algebra.one
        if tok.startswith("g") and tok[1:].isdigit():
            return self.algebra.generator(int(tok[1:]))
        raise ValidationError(f"unknown formula token {tok!r}")


def parse_clopen(algebra: FreeAlgebra, text: str) -> FreeElement:
    return _FormulaParser(algebra, text).parse()


# --------------------------------------------------------------------- solve

def _pool(structure, preset: str) -> GeneratorPool:
    """The pool solve and selection run on: a system's own members, else
    the preset over the structure."""
    if isinstance(structure, PointedSystem):
        return GeneratorPool(structure.points, structure.family.members, "custom")
    return preset_pool(preset, structure)


def cmd_solve(args) -> int:
    data = load_structure(args)
    structure = build_structure(data, POOLS[args.pool], args.cap_atoms, args.cap_enum)
    pool = _pool(structure, args.pool)
    result = min_max_order(pool, mode=args.mode)
    results = {
        "value": result.value,
        "exact": result.exact,
        "nodes_explored": result.nodes_explored,
        "witness_family": _family_payload(result.family),
        "pool_size": pool.size,
        "point_count": pool.points.size,
    }
    notes = [
        f"pool preset: {pool.preset_tag}",
        "value = least achievable maximum point order over separating subfamilies"
        if result.exact
        else "greedy upper bound; not guaranteed minimal",
    ]
    emit(args, report(data, "solve", results, notes))
    return 0


# ------------------------------------------------------------------- combine

_COMBINE = Takes(("system",), "n", partial(_refuse, "combine takes system files only"))


def cmd_combine(args) -> int:
    systems = [build_structure(read_structure(path), _COMBINE, args.cap_atoms, args.cap_enum)
               for path in args.inputs]
    extra = None
    if args.op == "product":
        if len(systems) != 2:
            raise ValidationError("product needs exactly two systems")
        out = product_system(systems[0], systems[1])
    elif args.op == "sum":
        out = sum_with_point(systems)
    elif args.op == "duplicate":
        if len(systems) != 1:
            raise ValidationError("duplicate needs exactly one system")
        if args.dup_points:
            dup = [_flag_int(t, "--dup-points") for t in args.dup_points.split(",") if t != ""]
        else:
            dup = list(range(systems[0].points.size))
        out = alexandrov_duplication(systems[0], dup)
    else:  # porcupine
        if len(systems) < 2:
            raise ValidationError(
                "porcupine needs an index system and one fiber system per index point"
            )
        if not args.section:
            raise ValidationError("porcupine needs --section")
        section = tuple(_flag_int(t, "--section") for t in args.section.split(","))
        result = porcupine(systems[0], systems[1:], section)
        out = result.system
        extra = {
            "porcupine_decomposition": [
                {
                    "point": d.point,
                    "v0": d.v0,
                    "v_minus": d.v_minus,
                    "v_star": d.v_star,
                    "v_star2": d.v_star2,
                    "total": d.total,
                }
                for d in result.decomposition
            ],
            "split_fibers": list(result.split_fibers),
        }
    emit(args, system_to_json(out, extra))
    return 0


# ---------------------------------------------------------------- export-dot

_DOT = Takes(("poset", "chain", "semilattice", "tree", "system"), "elements",
             partial(_refuse, "export-dot supports poset, chain, semilattice, tree, system"))


def cmd_export_dot(args) -> int:
    structure = build_structure(load_structure(args), _DOT, args.cap_atoms, args.cap_enum)
    if isinstance(structure, FinitePoset):
        text = dotmod.hasse_dot(final_segments(structure, cap=args.cap_enum), name="segments")
    elif isinstance(structure, MeetSemilattice):
        text = dotmod.hasse_dot(filters(structure, cap=args.cap_enum), name="filters")
    elif isinstance(structure, FiniteForest):
        if args.view == "structure":
            text = dotmod.forest_dot(structure)
        else:
            text = dotmod.hasse_dot(tree_paths(structure), name="paths")
    else:
        text = dotmod.bipartite_dot(structure.family)
    _write(text, args.dot)
    return 0


# ------------------------------------------------------------------ selftest

def cmd_selftest(args) -> int:
    from .selftest import run

    return run(args.seed)


# ---------------------------------------------------------------------- main

# the options more than one subcommand takes
_FLAGS = {
    "--in": dict(dest="infile", help="JSON structure file"),
    "--kind": dict(choices=["algebra", "poset", "chain", "semilattice", "tree", "free"]),
    "--n": dict(type=int, help="atom count or chain length"),
    "--s": dict(type=int, help="free-algebra generator count"),
    "--size": dict(type=int, help="poset size"),
    "--pairs": dict(help="poset relations, e.g. '0<1,1<2'"),
    "--parents": dict(help="tree parent array, e.g. --parents=-1,0,0"),
    "--meet": dict(help="semilattice meet table, rows ; separated"),
    "--out": dict(help="write the report here instead of stdout"),
    "--human": dict(action="store_true", help="table view instead of JSON"),
    **{flag: dict(type=int, help="cap on {} (default {}{}; env {})".format(
        " and ".join(c.name for c in CAPS if c.flag == flag), cap.default,
        "" if cap.maximum is None else f", at most {cap.maximum}", cap.env))
       for flag, cap in _KNOBS.items()},
    "--pool": dict(choices=list(POOLS), type=lambda name: "free" if name == "all" else name,
                   help="pool preset (all = free)"),
}
_STRUCTURE = ("--in", "--kind", "--n", "--s", "--size", "--pairs", "--parents", "--meet")


def _add_flags(p: argparse.ArgumentParser, *flags: str):
    for flag in flags:
        p.add_argument(flag, **_FLAGS[flag])


class _Parser(argparse.ArgumentParser):
    """Usage errors end as one-line ValidationErrors, exit 1, instead of
    argparse's usage block and exit 2."""

    def error(self, message):
        raise ValidationError(f"{self.prog}: {message}")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: it holds no state between calls
    and names each command's function, looked up when the command runs."""
    parser = _Parser(
        prog="stonelab",
        description="Finite Boolean algebras, separating families, and the "
        "min-max-order optimization.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("analyze", help="run an analysis on a structure")
    _add_flags(p, *_STRUCTURE, "--out", "--human", "--cap-atoms", "--cap-enum", "--pool")
    p.add_argument("--analysis", required=True, choices=list(ANALYSES))
    p.add_argument("--clopen", help="formula for minsupport, e.g. 'g0 & !g1'")
    p.set_defaults(func="cmd_analyze")

    p = sub.add_parser("solve", help="minimize the maximum point order")
    _add_flags(p, *_STRUCTURE, "--out", "--human", "--cap-atoms", "--pool")
    p.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    p.set_defaults(func="cmd_solve", pool="free")

    p = sub.add_parser("combine", help="combine systems")
    p.add_argument("--op", required=True, choices=["product", "sum", "duplicate", "porcupine"])
    p.add_argument("--inputs", nargs="+", required=True, help="system JSON files")
    p.add_argument("--dup-points", dest="dup_points", help="points to duplicate, comma separated")
    p.add_argument("--section", help="porcupine section, one local point per fiber")
    _add_flags(p, "--out", "--human")
    p.set_defaults(func="cmd_combine")

    p = sub.add_parser("export-dot", help="DOT drawing of a structure")
    _add_flags(p, *_STRUCTURE, "--cap-enum")
    p.add_argument("--dot", help="output file (stdout if omitted)")
    p.add_argument("--view", choices=["paths", "structure"], default="paths",
                   help="for trees: path-space inclusion diagram or the tree itself")
    p.set_defaults(func="cmd_export_dot")

    p = sub.add_parser("selftest", help="run the oracle cross-check suites")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func="cmd_selftest")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _set_knobs(args)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    # A LintWarning is a note on a result: printed once, and only with one.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", LintWarning)
        code = _run(args)
    notes = {}
    for w in caught:
        if issubclass(w.category, LintWarning):
            notes[str(w.message)] = None
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    if code == 0:
        for message in notes:
            print(f"warning: {message}", file=sys.stderr)
    return code


def _run(args) -> int:
    """Run the parsed command; an error is one stderr line and its exit code."""
    try:
        return globals()[args.func](args)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"out of memory: {args.command} needs more memory than the process may use",
              file=sys.stderr)
        return 2
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, StonelabError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
