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
import random
import sys
from functools import partial
from typing import Callable, NamedTuple, NoReturn

from . import dot as dotmod
from .algebra import FiniteBooleanAlgebra, generates_whole
from .bits import iter_bits
from .combinators import (
    DEFAULT_PRODUCT_CAP,
    PointedSystem,
    PorcupineSpec,
    alexandrov_duplication,
    porcupine,
    product_system,
    sum_with_point,
)
from .errors import (
    CapExceededError,
    OracleMismatchError,
    StonelabError,
    ValidationError,
)
from .families import (
    Member,
    PointSet,
    SeparatingFamily,
    is_t0_separating,
    order_profile,
    selection_value,
)
from .freealg import FreeAlgebra, FreeElement, min_support_ultrafilter
from .freeseq import (
    is_free_sequence,
    is_free_sequence_naive,
    longest_free_point_sequence,
    longest_free_sequence,
)
from .orders import (
    DEFAULT_POSET_CAP,
    FinitePoset,
    MeetSemilattice,
    _check_semilattice_size,
    check_poset_size,
    discrete_witness,
    filters,
    final_segments,
    generator_orientation,
    modest_analysis,
    poset_system,
    prime_clopen_filters,
    semilattice_system,
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
    if deep:
        raise ValidationError(f"{path}: JSON nested too deeply")
    if isinstance(data, int):
        data = {"kind": "chain", "n": data}
    if not isinstance(data, dict) or "kind" not in data:
        raise ValidationError("structure file must be an object with a 'kind'")
    return data


def _nested_too_deeply(data) -> bool:
    level = [data]  # walked breadth first, so without recursion
    for _ in range(_MAX_JSON_DEPTH):
        level = [v for x in level if isinstance(x, (dict, list))
                 for v in (x.values() if isinstance(x, dict) else x)]
    return any(isinstance(x, (dict, list)) for x in level)


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
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(
            f"{what} '{keys[0]}' must be an integer, got {value!r}"
        ) from None


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


def build_structure(data: dict, takes: Takes, atom_cap: int = 64,
                    poset_cap: int = DEFAULT_POSET_CAP):
    """The structure a description names, read as ``takes`` says.  A kind
    the target does not take is refused before anything is built; field
    types are checked here, so malformed input ends in a ValidationError,
    never a stray TypeError.  A poset or semilattice above ``poset_cap``
    is refused unbuilt too, since building an n-point order costs O(n^2).
    """
    kind = data["kind"]
    if kind not in takes.kinds:
        takes.refuse()
    if kind == "algebra":
        return FiniteBooleanAlgebra(_integer(data, "algebra", "atoms", "n"), cap=atom_cap)
    if kind == "chain":
        n = _integer(data, "chain", "n")
        if takes.chain == "atoms":
            return FiniteBooleanAlgebra(n, cap=atom_cap)
        if takes.chain == "elements":
            check_poset_size(n, poset_cap)
            return FinitePoset.chain(n)
        return n
    if kind == "poset":
        size = _integer(data, "poset", "size")
        check_poset_size(size, poset_cap)
        le = data.get("le", [])
        if not isinstance(le, list) or not all(
            isinstance(p, list) and len(p) == 2 and all(map(_is_int, p)) for p in le
        ):
            raise ValidationError("poset 'le' must be a list of [p, q] integer pairs")
        return FinitePoset.from_pairs(size, [tuple(p) for p in le])
    if kind == "semilattice":
        table = data.get("meet")
        if not isinstance(table, list) or not all(
            isinstance(row, list) and all(map(_is_int, row)) for row in table
        ):
            raise ValidationError("semilattice needs a 'meet' table: a list of integer rows")
        _check_semilattice_size(len(table), poset_cap)
        return MeetSemilattice(table)
    if kind == "tree":
        parents = data.get("parents")
        if not isinstance(parents, list):
            raise ValidationError("tree needs a 'parents' list")
        return FiniteForest(parents)
    if kind == "free":
        return FreeAlgebra(_integer(data, "free algebra", "generators", "s"))
    return system_from_json(data)


def system_from_json(data: dict) -> PointedSystem:
    size = _integer(data, "system", "points")
    if size > DEFAULT_PRODUCT_CAP:  # checked before any mask of that width exists
        raise CapExceededError(f"system has {size} points, cap is {DEFAULT_PRODUCT_CAP}")
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
    return PointedSystem(pts, SeparatingFamily(pts, tuple(members)), base)


def _member_mask(member, size: int, i: int) -> int:
    """Mask of one system member, each index checked before it is shifted."""
    points = member.get("set") if isinstance(member, dict) else None
    if not isinstance(points, list):
        raise ValidationError(f"system member {i} needs a 'set' list of point indices")
    mask = 0
    for p in points:
        if not _is_int(p) or not 0 <= p < size:
            raise ValidationError(
                f"system member {i}: point index {p!r} is not an integer in 0..{size - 1}"
            )
        mask |= 1 << p
    return mask


def system_to_json(system: PointedSystem, extra=None) -> dict:
    data = {
        "kind": "system",
        "points": system.points.size,
        "labels": [system.points.label(i) for i in range(system.points.size)],
        "members": [
            {"label": m.label, "set": list(iter_bits(m.bits))}
            for m in system.family.members
        ],
        "base_point": system.base_point,
    }
    if extra:
        data.update(extra)
    return data


def _env_cap(name: str, default: int) -> int:
    value = os.environ.get(name)
    if not value:
        return default
    try:
        return int(value)
    except ValueError:
        raise ValidationError(f"{name} must be an integer, got {value!r}") from None


def cap_atoms(args) -> int:
    flag = getattr(args, "cap_atoms", None)
    return flag if flag is not None else _env_cap("STONELAB_CAP_ATOMS", 64)


def cap_enum(args) -> int:
    flag = getattr(args, "cap_enum", None)
    return flag if flag is not None else _env_cap("STONELAB_CAP_ENUM", 20)


# ------------------------------------------------------------------- reports

def _json(obj, indent: str = "") -> str:
    """``json.dumps(obj, indent=2, sort_keys=True)``, byte for byte, for
    payloads with string keys.

    The standard encoder drops to pure Python under ``indent``; here a list
    of plain ints is joined in one call, and every key and other scalar
    still goes through ``json.dumps``.
    """
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        opening, closing = "{", "}"
        items = (f"{json.dumps(k)}: {_json(obj[k], inner)}" for k in sorted(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        opening, closing = "[", "]"
        if set(map(type, obj)) == {int}:  # bool, an int subclass, is not joined
            items = map(str, obj)
        else:
            items = (_json(v, inner) for v in obj)
    else:
        return json.dumps(obj)
    return f"{opening}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{closing}"


def emit(args, payload: dict) -> None:
    _write(human_view(payload) if args.human else _json(payload) + "\n", args.out)


def _write(text: str, path: str | None) -> None:
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def human_view(payload: dict, indent: int = 0) -> str:
    lines = []

    def walk(obj, depth):
        pad = "  " * depth
        if isinstance(obj, dict):
            for key in sorted(obj):
                value = obj[key]
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

    walk(payload, indent)
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
    if isinstance(structure, int):  # a chain's points are the atoms: capped before its n^2 pool
        FiniteBooleanAlgebra(structure, cap=cap_atoms(args))
    pool = _pool(structure, args.pool or ("intervals" if isinstance(structure, int) else "free"))
    algebra = FiniteBooleanAlgebra(pool.points.size, cap=cap_atoms(args))
    elements = [algebra.element(m.bits) for m in pool.candidates]
    value, witness = selection_value(algebra, elements)
    family = SeparatingFamily(pool.points, pool.candidates)
    results = {
        "selection_value": value,
        "witness_atom": witness.atom,
        "generates_whole": generates_whole(algebra, elements),
        "family": _family_payload(family),
    }
    notes = [
        "selection value = max over atoms of the number of pool members containing it",
        f"pool preset: {pool.preset_tag}",
    ]
    return results, notes


def _duality(args, poset):
    lattice = final_segments(poset, cap=cap_enum(args))
    system = poset_system(lattice)
    primes = prime_clopen_filters(lattice)
    witnesses = [discrete_witness(poset, p) for p in range(poset.size)]
    results = {
        "segment_count": lattice.size,
        "segments": list(lattice.labels),
        "family": _family_payload(system.family),
        "prime_filter_count": len(primes),
        "prime_filter_minima": [lattice.labels[pf.minimum_index] for pf in primes],
        "bijection_with_poset": len(primes) == poset.size,
        "discrete_witnesses": {
            str(w.poset_element): list(w.tau) for w in witnesses
        },
        "generator_orientation": generator_orientation(lattice),
    }
    notes = [
        "points are the final segments; generator a_p collects the segments containing p",
        "each prime filter of the segment lattice is principal at some [p,->)",
        "tau_p isolates a_p inside the slab {u : p in u, u disjoint from tau_p}",
    ]
    return results, notes


def _modest(args, structure):
    lattice = filters(structure, cap=cap_enum(args))
    system = semilattice_system(lattice)
    analysis_report = modest_analysis(lattice)
    labels = lattice.labels
    results = {
        "filter_count": lattice.size,
        "filters": list(labels),
        "family": _family_payload(system.family),
        "compact_elements": [labels[i] for i in analysis_report.compact_elements],
        "immediate_predecessor_counts": list(
            analysis_report.immediate_predecessor_counts
        ),
        "is_modest": analysis_report.is_modest,
        "max_elements": [labels[i] for i in analysis_report.max_elements],
        "witness_point": labels[analysis_report.witness_point],
        "witness_compact_below": analysis_report.witness_compact_below,
        "witness_family_order": analysis_report.witness_family_order,
        "sup_definition_agrees": analysis_report.sup_definition_agrees,
    }
    notes = [
        "compact elements: non-minimum filters; cross-checked against the literal sup definition",
        "witness point: maximal element with the most compact elements below it",
    ]
    return results, notes


def _sigma(args, structure):
    system = sigma_system(structure)
    chain_alg = (
        initial_chain_algebra(structure) if structure.size else None
    )
    results = {
        "path_count": system.points.size,
        "height": structure.height(),
        "family": _family_payload(system.family),
        "max_order_equals_height": order_profile(system.family).max_order
        == structure.height(),
    }
    if chain_alg:
        results["initial_chain_algebra"] = {
            "blocks": chain_alg.partition.block_count,
            "generates_whole": chain_alg.generates_whole,
        }
    notes = [
        "paths are the empty chain plus the ancestor-closure of each node",
        "the order of a path equals its length, so the maximum is the height",
    ]
    return results, notes


def _freeseq(args, algebra):
    best = longest_free_sequence(algebra)
    results = {
        "algebra_sequence_length": best.length,
        "algebra_sequence": [sorted(t.atoms()) for t in best.terms],
        "point_sequence_length": longest_free_point_sequence(algebra),
        "asymmetry": longest_free_point_sequence(algebra) - best.length,
    }
    notes = [
        "algebra sequences top out one below the atom count; point sequences reach it",
    ]
    return results, notes


def _minsupport(args, structure):
    if not args.clopen:
        raise ValidationError("minsupport analysis needs --clopen FORMULA")
    w = parse_clopen(structure, args.clopen)
    assignment, size = min_support_ultrafilter(w)
    results = {
        "formula": args.clopen,
        "support": list(assignment.support),
        "support_size": size,
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
                                cap_atoms(args), cap_enum(args))
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
    structure = build_structure(data, POOLS[args.pool], cap_atoms(args))
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
    systems = [build_structure(read_structure(path), _COMBINE) for path in args.inputs]
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
        result = porcupine(PorcupineSpec(systems[0], tuple(systems[1:]), section))
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
    structure = build_structure(load_structure(args), _DOT, poset_cap=cap_enum(args))
    if isinstance(structure, FinitePoset):
        text = dotmod.hasse_dot(final_segments(structure, cap=cap_enum(args)), name="segments")
    elif isinstance(structure, MeetSemilattice):
        text = dotmod.hasse_dot(filters(structure, cap=cap_enum(args)), name="filters")
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
    from . import oracles

    seed = args.seed if args.seed is not None else _env_cap("STONELAB_SEED", 0)
    rng = random.Random(seed)
    failures = []

    def check(name, condition):
        status = "ok" if condition else "MISMATCH"
        print(f"{status:8s} {name}")
        if not condition:
            failures.append(name)

    # generation check vs fixpoint closure
    agree = True
    for _ in range(300):
        n = rng.randint(1, 6)
        algebra = FiniteBooleanAlgebra(n)
        gens = [
            algebra.element(rng.randrange(1 << n))
            for _ in range(rng.randint(0, n + 2))
        ]
        if generates_whole(algebra, gens) != oracles.closure_generates(
            n, [g.bits for g in gens]
        ):
            agree = False
            break
    check("generation == closure-to-fixpoint oracle", agree)

    # reduced vs naive free-sequence check
    agree = True
    for _ in range(300):
        n = rng.randint(1, 4)
        algebra = FiniteBooleanAlgebra(n)
        terms = [
            algebra.element(rng.randrange(1 << n))
            for _ in range(rng.randint(0, 4))
        ]
        if is_free_sequence(algebra, terms) != is_free_sequence_naive(algebra, terms):
            agree = False
            break
    check("maximal-split freeness == all-pairs definition", agree)

    # solver vs exhaustive enumeration
    agree = True
    for _ in range(60):
        npts = rng.randint(2, 5)
        pool_size = rng.randint(1, 12 - npts)  # stay inside the oracle cap
        pts = PointSet(npts)
        cands = tuple(
            Member(f"c{i}", rng.randrange(1 << npts)) for i in range(pool_size)
        )
        for p in range(npts):  # keep pools separating
            cands = cands + (Member(f"s{p}", 1 << p),)
        pool = GeneratorPool(pts, cands)
        expected = oracles.exhaustive_min_max_order(pool)
        got = min_max_order(pool).value
        if expected != got:
            agree = False
            break
    check("branch-and-bound solver == exhaustive subfamily oracle", agree)

    # prime filters of segment lattices: principal filters vs up-set enumeration
    agree = True
    try:
        for n in range(1, 4):
            for up in oracles.posets_up_to_iso(n):
                lattice = final_segments(FinitePoset(up))
                if prime_clopen_filters(lattice) != oracles.prime_filters_by_enumeration(lattice):
                    agree = False
    except OracleMismatchError:
        agree = False
    check("prime filters of FS(P) biject with P", agree)

    print(f"selftest: {4 - len(failures)}/4 oracle pairs agree (seed {seed})")
    return 3 if failures else 0


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
    "--cap-atoms": dict(type=int, help="atom-count cap (env STONELAB_CAP_ATOMS)"),
    "--cap-enum": dict(type=int, help="segment/filter enumeration cap (env STONELAB_CAP_ENUM)"),
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


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="stonelab",
        description="Finite Boolean algebras, separating families, and the "
        "min-max-order optimization.",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("analyze", help="run an analysis on a structure")
    _add_flags(p, *_STRUCTURE, "--out", "--human", "--cap-atoms", "--cap-enum", "--pool")
    p.add_argument(
        "--analysis",
        required=True,
        choices=list(ANALYSES),
    )
    p.add_argument("--clopen", help="formula for minsupport, e.g. 'g0 & !g1'")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("solve", help="minimize the maximum point order")
    _add_flags(p, *_STRUCTURE, "--out", "--human", "--cap-atoms", "--pool")
    p.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    p.set_defaults(func=cmd_solve, pool="free")

    p = sub.add_parser("combine", help="combine systems")
    p.add_argument("--op", required=True, choices=["product", "sum", "duplicate", "porcupine"])
    p.add_argument("--inputs", nargs="+", required=True, help="system JSON files")
    p.add_argument("--dup-points", dest="dup_points", help="points to duplicate, comma separated")
    p.add_argument("--section", help="porcupine section, one local point per fiber")
    _add_flags(p, "--out", "--human")
    p.set_defaults(func=cmd_combine)

    p = sub.add_parser("export-dot", help="DOT drawing of a structure")
    _add_flags(p, *_STRUCTURE, "--cap-enum")
    p.add_argument("--dot", help="output file (stdout if omitted)")
    p.add_argument("--view", choices=["paths", "structure"], default="paths",
                   help="for trees: path-space inclusion diagram or the tree itself")
    p.set_defaults(func=cmd_export_dot)

    p = sub.add_parser("selftest", help="run the oracle cross-check suites")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # --help
        return 0 if exc.code in (0, None) else 1
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 2
    except OracleMismatchError as exc:
        print(f"oracle mismatch: {exc}", file=sys.stderr)
        return 3
    except (ValidationError, StonelabError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
