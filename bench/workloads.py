"""Seeded workloads: the op list of one pass of each benchmark run.

A workload interleaves the ops of its parts: ``solve`` runs the
solve-random and solve-sweep parts, ``lattice-lab`` the lattice and lab
parts.  Two long workloads rather than four short ones: the host's speed
swings by up to 2x in phases of 15-30 s, which only a long run averages
out, and four workloads of that length would take too long to measure
over ten seeds.

An op is one closed-loop request: ``run()`` does the timed work through the
public API or ``stonelab.cli.main(argv)`` in-process, and ``check(result,
counters)`` verifies the answer with ``verify`` (untimed) and returns the
answer fields that are compared with the recorded reference.  Functions
are looked up on their modules at call time, so a tracer that rebinds them
sees every call.

Every input comes from ``random.Random(seed)``, is fixed, or is picked by
that generator from a fixed library (solve-random).  Sizes keep
every op under about a second, and the seeded parts are drawn so that the
cost of a pass does not swing with the seed.  Left out on purpose:
  * solve-random above 14x36: at 16x40 a pool costs 0.13-0.6 s, and at
    18x44 and 20x48 pools whose optimum is 4 need a full refutation at
    k = 3 (5-14 s per op), so a run would hold a handful of ops; 24x64
    and above take over 20 s per op;
  * duality on segment lattices above 40 elements: near-antichain posets
    (6 points, one relation, 48 segments) cost 1-2.5 s in the prime-filter
    enumeration, against 0.003-0.3 s for the rest;
  * duality on a 6-antichain (32 s, then exit 2 at the up-set cap) and on
    a 12-antichain (RecursionError).
"""

from __future__ import annotations

import io
import json
import os
import random
from collections import Counter
from contextlib import redirect_stdout
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import Callable, Optional

from stonelab import (
    FiniteBooleanAlgebra,
    FiniteForest,
    FinitePoset,
    GeneratorPool,
    Member,
    PointSet,
    cli,
    freealg,
    freeseq,
    solver,
)

import verify as V
from verify import expect

WORKLOADS = {"solve": ("solve-random", "solve-sweep"), "lattice-lab": ("lattice", "lab")}
REFERENCE = Path(__file__).resolve().with_name("reference.json")


@cache
def load_reference() -> dict:
    """``answers``: op key -> answer digest; ``costs``: solve-random op key ->
    search nodes.  Both recorded by ``run.py --record-reference``."""
    if not REFERENCE.is_file():
        return {"answers": {}, "costs": {}}
    return json.loads(REFERENCE.read_text())


# Instance sizes per part and profile.  "tiny" keeps every op path but
# runs in well under a second; the smoke test and the warm-up use it.
PROFILES = {
    "solve-random": {
        "full": {"sizes": [(12, 32), (13, 34), (14, 36)], "library": 240, "pass": 12},
        "tiny": {"sizes": [(6, 12), (8, 16)], "library": 4, "pass": 2},
    },
    "solve-sweep": {
        "full": {"chains": range(12, 21),
                 "forests": [(20, 5), (24, 6), (28, 7), (32, 8), (36, 9), (40, 10)]},
        "tiny": {"chains": range(3, 6), "forests": [(5, 2), (8, 3)]},
    },
    "lattice": {
        "full": {"antichain": 5, "poset_points": (5, 8),
                 "segments": (20, 24, 28, 32, 34, 36, 38, 40), "chains": range(5, 10),
                 "bottoms": range(4, 9), "dot_antichains": (7, 8), "dot_posets": 4},
        "tiny": {"antichain": 3, "poset_points": (3, 4),
                 "segments": (5, 6), "chains": range(2, 4),
                 "bottoms": range(2, 3), "dot_antichains": (3,), "dot_posets": 1},
    },
    "lab": {
        "full": {"chain": (4, 8), "algebra": (3, 6), "forest_nodes": (10, 30),
                 "freeseq": (4, 5), "free_gens": (4, 6), "system_points": (6, 8),
                 "porcupine": 24, "dense_members": 8, "sigma_atoms": 5, "density": 6},
        "tiny": {"chain": (3, 4), "algebra": (2, 3), "forest_nodes": (3, 5),
                 "freeseq": (3,), "free_gens": (2, 3), "system_points": (3, 4),
                 "porcupine": 3, "dense_members": 1, "sigma_atoms": 3, "density": 3},
    },
}

# Baseline fact: the tree of free sequences over all nonconstant elements
# of the 5-atom algebra has 1,261 nodes.
SIGMA_TREE_NODES = {5: 1261}


@dataclass
class Op:
    key: str  # identity of the op and its inputs; reference answers are keyed by it
    group: str  # report row
    run: Callable[[], object]
    check: Callable[[object, Counter], object]
    # Cheap identity of a result; equal fingerprints reuse an earlier check.
    fingerprint: Optional[Callable[[object], str]] = None
    # The answer is only proven right by the recorded reference, so an op
    # without one fails instead of being compared with its own first answer.
    needs_reference: bool = False


def interleave(*lists) -> list:
    """Round-robin merge, so that any prefix of a pass mixes every kind."""
    out = []
    for i in range(max(map(len, lists), default=0)):
        out.extend(lst[i] for lst in lists if i < len(lst))
    return out


# ---------------------------------------------------------------- cli ops

def strip_effort(obj):
    """Answer fields of a report: effort counters and timings are not answers."""
    if isinstance(obj, dict):
        return {k: strip_effort(v) for k, v in obj.items()
                if k not in ("nodes_explored", "elapsed")}
    if isinstance(obj, list):
        return [strip_effort(v) for v in obj]
    return obj


def cli_op(key: str, group: str, argv, check_text) -> Op:
    argv = list(argv)

    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(argv)
        return code, buf.getvalue()

    def check(result, counters):
        code, text = result
        expect(code == 0, f"exit code {code}")
        return check_text(text)

    return Op(key, group, run, check,
              fingerprint=lambda result: V.digest(list(result)))


def report_results(text: str, analysis: str) -> tuple[dict, dict]:
    payload = json.loads(text)
    expect(payload.get("analysis") == analysis, "report names another analysis")
    return payload, payload["results"]


def check_family(fam: dict, n: int, masks) -> None:
    """A family report agrees with orders and T0 recomputed from raw masks."""
    orders = V.orders_of(n, masks)
    expect(fam["per_point_order"] == orders, "per-point orders differ")
    expect(fam["max_order"] == max(orders, default=0), "max order differs")
    expect(fam["t0_separating"] == V.is_t0(n, masks), "T0 verdict differs")


def solve_op(group: str, argv, n_points: int, pool: dict,
             closed_form: Optional[int] = None, greedy: bool = False) -> Op:
    def check_text(text):
        payload, r = report_results(text, "solve")
        expect(r["point_count"] == n_points, "point count differs")
        expect(r["pool_size"] == len(pool), "pool size differs")
        expect(r["exact"] is not greedy, "exact flag differs from the mode")
        fam = r["witness_family"]
        orders = V.check_witness(n_points, pool, fam["members"], r["value"])
        expect(fam["per_point_order"] == orders, "witness orders differ")
        expect(fam["t0_separating"] is True, "witness reported as not T0")
        if closed_form is not None:
            if greedy:
                expect(r["value"] >= closed_form, "greedy beats the optimum")
            else:
                expect(r["value"] == closed_form, f"optimum {r['value']} != {closed_form}")
        # Any certified witness is a correct answer, so it is not compared.
        del r["witness_family"]
        return strip_effort(payload)

    return cli_op("cli " + json.dumps(argv), group, argv, check_text)


def poset_argv(command: str, size: int, pairs) -> list[str]:
    argv = [command, "--kind", "poset", "--size", str(size)]
    if pairs:
        argv += ["--pairs", ",".join(f"{p}<{q}" for p, q in pairs)]
    return argv


def duality_op(group: str, size: int, pairs) -> Op:
    up = V.closure(size, pairs)
    argv = poset_argv("analyze", size, pairs) + ["--analysis", "duality"]

    def check_text(text):
        payload, r = report_results(text, "duality")
        segs = V.upsets(up)
        expect(r["segment_count"] == len(segs), "segment count differs")
        expect(r["segments"] == [V.set_label(s) for s in segs], "segments differ")
        gens = [sum(1 << i for i, s in enumerate(segs) if s >> p & 1) for p in range(size)]
        check_family(r["family"], len(segs), gens)
        expect(r["prime_filter_count"] == size, "prime filters do not match the poset")
        expect(r["prime_filter_minima"] == [V.set_label(up[p]) for p in range(size)],
               "prime filter minima differ")
        expect(r["bijection_with_poset"] is True, "no bijection with the poset")
        expect(r["discrete_witnesses"] == {str(p): V.lower_covers(up, p) for p in range(size)},
               "discrete witnesses differ")
        leq = [[bool(up[p] >> q & 1) for q in range(size)] for p in range(size)]
        sub = [[gens[p] & ~gens[q] == 0 for q in range(size)] for p in range(size)]
        keeps = all(leq[p][q] == sub[p][q] for p in range(size) for q in range(size))
        flips = all(leq[p][q] == sub[q][p] for p in range(size) for q in range(size))
        orientation = {(True, False): "preserving", (False, True): "reversing",
                       (True, True): "degenerate"}.get((keeps, flips))
        expect(r["generator_orientation"] == orientation, "orientation differs")
        return strip_effort(payload)

    return cli_op("cli " + json.dumps(argv), group, argv, check_text)


def dot_op(group: str, size: int, pairs) -> Op:
    argv = poset_argv("export-dot", size, pairs)

    def check_text(text):
        segs = V.upsets(V.closure(size, pairs))
        expect(text.count(" [label=") == len(segs), "node count differs")
        # The segment lattice of an n-antichain is the Boolean lattice 2^n.
        covers = size << (size - 1) if not pairs else V.cover_count(segs)
        expect(text.count(" -> ") == covers, "Hasse edge count differs")
        return {"dot": V.digest(text)}

    return cli_op("cli " + json.dumps(argv), group, argv, check_text)


def meet_text(meet) -> str:
    return ";".join(",".join(str(v) for v in row) for row in meet)


def modest_op(group: str, meet) -> Op:
    argv = ["analyze", "--kind", "semilattice", "--meet", meet_text(meet),
            "--analysis", "modest"]

    def check_text(text):
        payload, r = report_results(text, "modest")
        fils = V.semilattice_filters(meet)
        labels = [V.set_label(f) for f in fils]
        expect(r["filter_count"] == len(fils), "filter count differs")
        expect(r["filters"] == labels, "filters differ")
        expect(r["compact_elements"] == labels[1:], "compact elements differ")
        expect(r["sup_definition_agrees"] is True, "literal sup check disagrees")
        gens = [sum(1 << i for i, f in enumerate(fils) if f >> p & 1)
                for p in range(len(meet))]
        check_family(r["family"], len(fils), gens)
        return strip_effort(payload)

    return cli_op("cli " + json.dumps(argv), group, argv, check_text)


def filters_solve_op(group: str, meet) -> Op:
    argv = ["solve", "--kind", "semilattice", "--meet", meet_text(meet), "--pool", "filters"]
    n, pool = V.filters_pool(meet)
    return solve_op(group, argv, n, pool)


# ------------------------------------------------------------ input makers

def chain_meet(n: int):
    return [[min(i, j) for j in range(n)] for i in range(n)]


def bottom_meet(k: int):
    """k pairwise-incomparable elements over a common bottom 0."""
    return [[i if i == j else 0 for j in range(k + 1)] for i in range(k + 1)]


def poset_shape(points, segments: int):
    """A fixed poset whose segment lattice has exactly ``segments`` elements.

    Prime-filter enumeration costs 0.003-0.35 s on lattices of the same
    size depending on their shape, so the shapes are fixed and the seed
    only relabels them; a pass then costs the same for every seed.
    """
    rng = random.Random(f"poset shape {points} {segments}")
    while True:
        size = rng.randint(*points)
        density = rng.choice((0.15, 0.25, 0.35, 0.5))
        pairs = [(p, q) for p in range(size) for q in range(p + 1, size)
                 if rng.random() < density]
        if len(V.upsets(V.closure(size, pairs))) == segments:
            return size, pairs


def relabel(rng: random.Random, size: int, pairs):
    perm = rng.sample(range(size), size)
    return size, sorted((perm[p], perm[q]) for p, q in pairs)


def random_parents(rng: random.Random, nodes) -> list[int]:
    """Random recursive forest: each node hangs below an earlier one or is a root."""
    n = rng.randint(*nodes)
    return [-1] + [-1 if rng.random() < 0.1 else rng.randrange(i) for i in range(1, n)]


def forest_of_height(rng: random.Random, nodes: int, height: int) -> list[int]:
    """Random forest with the given node count and height.

    The sweep cost grows steeply with the height (the optimum), so fixing
    it per op keeps the pass cost from swinging with the seed; the seed
    still shapes the forest.
    """
    parents, depth = [-1], [1]
    for i in range(1, height):  # a spine that attains the height
        parents.append(i - 1)
        depth.append(i + 1)
    for i in range(height, nodes):
        open_nodes = [t for t in range(i) if depth[t] < height]
        p = -1 if rng.random() < 0.1 else rng.choice(open_nodes)
        parents.append(p)
        depth.append(1 if p < 0 else depth[p] + 1)
    return parents


def random_separating_masks(rng: random.Random, n: int, m: int) -> list[int]:
    while True:
        masks = [rng.getrandbits(n) for _ in range(m)]
        if V.is_t0(n, masks):
            return masks


def random_system(rng: random.Random, n: int, extra: int) -> dict:
    """Singletons (so the family is T0 and covers) plus random half-size
    members, so combinators add no duplicates and output sizes vary little."""
    masks = [1 << p for p in range(n)]
    while len(masks) < n + extra:
        mask = sum(1 << p for p in rng.sample(range(n), max(2, n // 2)))
        if mask not in masks:
            masks.append(mask)
    return {"kind": "system", "points": n, "base_point": None,
            "members": [{"label": f"U{i}", "set": V.bits(m)} for i, m in enumerate(masks)]}


def random_formula(rng: random.Random, gens: int, depth: int = 3):
    if depth == 0 or rng.random() < 0.25:
        leaf = ("g", rng.randrange(gens))
        return ("!", leaf) if rng.random() < 0.3 else leaf
    return (rng.choice("&|"), random_formula(rng, gens, depth - 1),
            random_formula(rng, gens, depth - 1))


def render_formula(node) -> str:
    if node[0] == "g":
        return f"g{node[1]}"
    if node[0] == "!":
        return "!" + render_formula(node[1])
    wrap = [f"({render_formula(x)})" if x[0] in "&|" else render_formula(x)
            for x in node[1:]]
    return f"{wrap[0]} {node[0]} {wrap[1]}"


# --------------------------------------------------------------- workloads

def random_library(cfg: dict) -> list[list]:
    """The fixed library of solve-random batches: one pool of each size.

    It is drawn from a constant seed, so every batch has a recorded
    reference answer whatever the workload seed is.
    """
    rng = random.Random(f"solve-random library {cfg['sizes']}")
    library = []
    for _ in range(cfg["library"]):
        batch = []
        for n, m in cfg["sizes"]:
            masks = random_separating_masks(rng, n, m)
            batch.append((n, m, {f"c{i}": mask for i, mask in enumerate(masks)}))
        library.append(batch)
    return library


def solve_random(rng: random.Random, cfg: dict, workdir: str) -> list[Op]:
    """One batch from each cost stratum of the library, in seeded order.

    Batches cost 0.1-0.8 s, so a pass of a dozen batches drawn at random
    would swing with the seed.  The library is sorted by the search nodes
    recorded with the reference answers and cut into one stratum per op of
    the pass; the seed picks a batch in each stratum and the op order.
    """
    ops = [random_solve_op(batch) for batch in random_library(cfg)]
    costs = load_reference()["costs"]
    order = sorted(range(len(ops)), key=lambda i: (costs.get(ops[i].key, 0), i))
    per = len(order) // cfg["pass"]
    chosen = [rng.choice(order[k * per:(k + 1) * per]) for k in range(cfg["pass"])]
    rng.shuffle(chosen)
    return [ops[i] for i in chosen]


def random_solve_op(batch) -> Op:
    """Exact and greedy solves of one pool of each size.

    Batching the sizes into one op keeps the per-op cost distribution
    narrow, so the latency percentiles do not swing with the seed.
    """
    pools = [(n, m, GeneratorPool(PointSet(n), tuple(Member(k, v) for k, v in masks.items())))
             for n, m, masks in batch]

    def run():
        return [(solver.min_max_order(pool, "exact", max_points=n, max_pool=m),
                 solver.min_max_order(pool, "greedy")) for n, m, pool in pools]

    def check(result, counters):
        answer = []
        for (n, m, masks), (exact, greedy) in zip(batch, result):
            expect(exact.exact and not greedy.exact, "exactness flags differ from the modes")
            for res in (exact, greedy):
                V.check_witness(n, masks, [c.label for c in res.family.members], res.value)
            expect(greedy.value >= exact.value, "greedy beats the exact optimum")
            counters["solver.greedy_excess"] += greedy.value - exact.value
            answer.append({"exact": exact.value, "greedy": greedy.value})
        return answer

    sizes = "+".join(f"{n}x{m}" for n, m, _ in batch)
    key = f"random {sizes} " + V.digest([sorted(masks.items()) for _, _, masks in batch])
    # The checks above do not prove the exact value optimal; the reference does.
    return Op(key, f"random {sizes}", run, check, needs_reference=True)


def search_nodes(result) -> int:
    """Search nodes of the exact solves of one solve-random op."""
    return sum(exact.nodes_explored for exact, _ in result)


def sweep_op(group: str, kind: str, structure, n_points: int, pool_masks: dict,
             optimum: int) -> Op:
    def run():
        pool = solver.preset_pool(kind, structure)
        res = solver.min_max_order(pool, "exact", max_points=pool.points.size,
                                   max_pool=pool.size)
        return pool, res

    def check(result, counters):
        pool, res = result
        expect(pool.points.size == n_points, "pool point count differs")
        expect({c.label: c.bits for c in pool.candidates} == pool_masks, "pool members differ")
        V.check_witness(n_points, pool_masks, [c.label for c in res.family.members], res.value)
        expect(res.value == optimum, f"optimum {res.value} != closed form {optimum}")
        return {"value": res.value}

    return Op(f"sweep {group} " + V.digest(sorted(pool_masks.items())), group, run, check)


def solve_sweep(rng: random.Random, cfg: dict, workdir: str) -> list[Op]:
    chains = []
    for n in cfg["chains"]:
        up = V.closure(n, [(i, i + 1) for i in range(n - 1)])
        chains.append(sweep_op(f"upsets chain-{n}", "upsets", FinitePoset.chain(n),
                               *V.upsets_pool(up), optimum=n))
        chains.append(sweep_op(f"intervals chain-{n}", "intervals", n,
                               *V.intervals_pool(n), optimum=n - 1))
    forests = []
    for nodes, height in cfg["forests"]:
        parents = forest_of_height(rng, nodes, height)
        forests.append(sweep_op("tree forest", "tree", FiniteForest(parents),
                                *V.tree_pool(parents), optimum=V.forest_height(parents)))
    return interleave(chains[::2], chains[1::2], forests)


def lattice(rng: random.Random, cfg: dict, workdir: str) -> list[Op]:
    posets = [relabel(rng, *poset_shape(cfg["poset_points"], n)) for n in cfg["segments"]]
    duality = [duality_op(f"duality antichain-{cfg['antichain']}", cfg["antichain"], [])]
    duality += [duality_op("duality poset", size, pairs) for size, pairs in posets]
    meets = [(f"chain-{n}", chain_meet(n)) for n in cfg["chains"]]
    meets += [(f"bottom+{k}", bottom_meet(k)) for k in cfg["bottoms"]]
    modest = [modest_op(f"modest {name}", meet) for name, meet in meets]
    solves = [filters_solve_op(f"solve filters {name}", meet) for name, meet in meets]
    dots = [dot_op(f"dot antichain-{n}", n, []) for n in cfg["dot_antichains"]]
    dots += [dot_op("dot poset", size, pairs) for size, pairs in posets[:cfg["dot_posets"]]]
    return interleave(duality, modest, solves, dots)


def fixture_ops() -> list[Op]:
    """The FIXTURES argv lists of the acceptance suite, each with its checks."""
    chain5 = V.closure(5, [(i, i + 1) for i in range(4)])
    return [
        selection_op("fixture", 4, "chain", "intervals"),
        duality_op("fixture", 3, [(0, 1), (0, 2)]),
        modest_op("fixture", [[0, 0, 0], [0, 1, 1], [0, 1, 2]]),
        sigma_op("fixture", [-1, 0, 0, 1]),
        minsupport_op("fixture", 3, ("&", ("g", 0), ("|", ("g", 1), ("!", ("g", 2))))),
        freeseq_op("fixture", 4),
        solve_op("fixture", ["solve", "--kind", "algebra", "--n", "4", "--pool", "all"],
                 *V.free_pool(4)),
        solve_op("fixture", ["solve", "--kind", "chain", "--n", "5", "--pool", "upsets"],
                 *V.upsets_pool(chain5), closed_form=5),
        solve_op("fixture", ["solve", "--kind", "chain", "--n", "5", "--pool", "upsets",
                             "--mode", "greedy"], *V.upsets_pool(chain5),
                 closed_form=5, greedy=True),
        dot_op("fixture", 3, [(0, 1)]),
    ]


def selection_op(group: str, n: int, kind: str, preset: str) -> Op:
    argv = ["analyze", "--kind", kind, "--n", str(n), "--analysis", "selection",
            "--pool", preset]
    _, pool = V.intervals_pool(n) if preset == "intervals" else V.free_pool(n)

    def check_text(text):
        payload, r = report_results(text, "selection")
        masks = list(pool.values())
        orders = V.orders_of(n, masks)
        expect(r["selection_value"] == max(orders), "selection value differs")
        expect(orders[r["witness_atom"]] == max(orders), "witness atom is not a maximum")
        expect(r["generates_whole"] == V.is_t0(n, masks), "generation verdict differs")
        check_family(r["family"], n, masks)
        return strip_effort(payload)

    return cli_op("cli " + json.dumps(argv), f"{group} selection", argv, check_text)


def sigma_op(group: str, parents) -> Op:
    argv = ["analyze", "--kind", "tree", "--parents=" + ",".join(map(str, parents)),
            "--analysis", "sigma"]

    def check_text(text):
        payload, r = report_results(text, "sigma")
        n, pool = V.tree_pool(parents)
        height = V.forest_height(parents)
        expect(r["path_count"] == n == len(parents) + 1, "path count differs")
        expect(r["height"] == height, "height differs")
        check_family(r["family"], n, list(pool.values()))
        expect(r["family"]["max_order"] == height, "max order is not the height")
        return strip_effort(payload)

    return cli_op("cli " + json.dumps(argv), f"{group} sigma", argv, check_text)


def freeseq_op(group: str, n: int) -> Op:
    argv = ["analyze", "--kind", "algebra", "--n", str(n), "--analysis", "freeseq"]

    def check_text(text):
        payload, r = report_results(text, "freeseq")
        terms = [sum(1 << a for a in atoms) for atoms in r["algebra_sequence"]]
        expect(len(terms) == r["algebra_sequence_length"] == n - 1,
               "longest free sequence is not n - 1 long")
        expect(V.is_free(n, terms), "reported sequence is not free")
        expect(r["point_sequence_length"] == n and r["asymmetry"] == 1,
               "point sequence length differs")
        return strip_effort(payload)

    return cli_op("cli " + json.dumps(argv), f"{group} freeseq", argv, check_text)


def minsupport_op(group: str, gens: int, formula) -> Op:
    text_formula = render_formula(formula)
    argv = ["analyze", "--kind", "free", "--s", str(gens), "--clopen", text_formula,
            "--analysis", "minsupport"]

    def check_text(text):
        payload, r = report_results(text, "minsupport")
        sat = [a for a in range(1 << gens) if V.eval_formula(formula, a)]
        assignment = sum(1 << i for i in r["support"])
        expect(assignment in sat, "reported support does not satisfy the formula")
        best = min(bin(a).count("1") for a in sat)
        expect(r["support_size"] == len(r["support"]) == best, "support is not minimal")
        return strip_effort(payload)

    return cli_op("cli " + json.dumps(argv), f"{group} minsupport", argv, check_text)


def combine_op(op: str, systems: list, workdir: str, extra=()) -> Op:
    paths = []
    for i, system in enumerate(systems):
        path = os.path.join(workdir, f"{op}-{i}.json")
        with open(path, "w") as fh:
            json.dump(system, fh)
        paths.append(path)
    argv = ["combine", "--op", op, "--inputs", *paths, *extra]

    def check_text(text):
        payload = json.loads(text)
        n = payload["points"]
        masks = [sum(1 << p for p in m["set"]) for m in payload["members"]]
        expect(all(0 <= m < 1 << n for m in masks), "member outside the points")
        if op != "duplicate":  # inputs are T0 and cover, so these outputs are T0
            expect(V.is_t0(n, masks), f"{op} output is not T0-separating")
        if op == "porcupine":
            totals = [d["total"] for d in payload["porcupine_decomposition"]]
            expect(totals == V.orders_of(n, masks), "porcupine decomposition differs")
        return strip_effort(payload)

    key = f"combine {op} " + V.digest([systems, list(extra)])
    return cli_op(key, f"combine {op}", argv, check_text)


def sigma_tree_op(atoms: int) -> Op:
    algebra = FiniteBooleanAlgebra(atoms)
    pool = [algebra.element(m) for m in range(1, (1 << atoms) - 1)]

    def run():
        tree = freeseq.sigma_tree(algebra, pool)
        return tree, freeseq.sigma_squared(tree)

    def check(result, counters):
        tree, square = result
        nodes = set(tree.nodes)
        expect(len(nodes) == tree.size, "duplicate nodes")
        expect(all(node[:-1] in nodes for node in tree.nodes if node), "tree not prefix-closed")
        expect(all(V.is_free(atoms, [tree.pool_bits[i] for i in node]) for node in tree.nodes),
               "a node is not a free sequence")
        if atoms in SIGMA_TREE_NODES:
            expect(tree.size == SIGMA_TREE_NODES[atoms], "sigma tree size differs")
        n = square.points.size
        masks = [m.bits for m in square.family.members]
        expect(n == tree.size + 1, "path count differs")
        expect(V.is_t0(n, masks), "path family is not T0")
        height = 1 + max(len(node) for node in tree.nodes)
        expect(max(V.orders_of(n, masks)) == height, "max order is not the height")
        return {"nodes": V.digest(tree.nodes), "size": tree.size}

    return Op(f"sigma_tree {atoms}", f"sigma_tree {atoms}-atom", run, check,
              fingerprint=lambda result: V.digest(result[0].nodes))


def density_op(s: int) -> Op:
    def check(report, counters):
        expect(report.failures == (), "minimal support differs from sigma")
        expect(report.pairs_checked == (3 ** s if s <= 4 else 500), "pair count differs")
        return {"pairs": report.pairs_checked, "failures": len(report.failures)}

    return Op(f"density {s}", f"density s={s}",
              lambda: freealg.dense_small_support_check(s), check)


def lab(rng: random.Random, cfg: dict, workdir: str) -> list[Op]:
    analyses = [
        selection_op("random", rng.randint(*cfg["chain"]), "chain", "intervals"),
        selection_op("random", rng.randint(*cfg["algebra"]), "algebra", "all"),
        sigma_op("random", random_parents(rng, cfg["forest_nodes"])),
        sigma_op("random", random_parents(rng, cfg["forest_nodes"])),
    ]
    analyses += [freeseq_op("random", n) for n in cfg["freeseq"]]
    for _ in range(2):
        gens = rng.randint(*cfg["free_gens"])
        formula = random_formula(rng, gens)
        while not any(V.eval_formula(formula, a) for a in range(1 << gens)):
            formula = random_formula(rng, gens)
        analyses.append(minsupport_op("random", gens, formula))

    def system(n=None):
        return random_system(rng, n or rng.randint(*cfg["system_points"]), cfg["dense_members"])

    k = cfg["porcupine"]
    index, fibers = system(k), [system(k) for _ in range(k)]
    section = ",".join(str(rng.randrange(k)) for _ in range(k))
    combines = [
        combine_op("product", [system(), system()], workdir),
        combine_op("sum", [system(), system(), system()], workdir),
        combine_op("duplicate", [system()], workdir),
        combine_op("porcupine", [index, *fibers], workdir, ["--section", section]),
    ]
    library = [sigma_tree_op(cfg["sigma_atoms"]), density_op(cfg["density"])]
    return interleave(fixture_ops(), analyses, combines, library)


PARTS = {"solve-random": solve_random, "solve-sweep": solve_sweep,
         "lattice": lattice, "lab": lab}


def build(workload: str, seed: int, profile: str, workdir: str) -> list[Op]:
    """The op list of one pass; the same seed and profile give the same ops."""
    rng = random.Random(seed)
    return interleave(*(PARTS[part](rng, PROFILES[part][profile], workdir)
                        for part in WORKLOADS[workload]))
