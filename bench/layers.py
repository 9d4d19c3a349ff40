"""Per-layer metrics from the spans and counters of one traced pass.

A span's self time is its duration minus its child spans.  ``<layer>.<fn>_s``
is the inclusive time of that entry point (callees in any layer included);
``<layer>.other_s`` is the layer's self time outside its named entry points;
``<layer>.s`` is the layer's whole self time.  Counts are totals over the
pass.
"""

from __future__ import annotations

from collections import Counter

DECISION = "solver.decision_max_order_at_most"

INCLUSIVE = {
    "solver.decision_s": DECISION,
    "solver.greedy_s": "solver.min_max_order:greedy",
    "solver.preset_pool_s": "solver.preset_pool",
    "orders.final_segments_s": "orders.final_segments",
    "orders.prime_filters_s": "orders.prime_clopen_filters",
    "orders.filters_s": "orders.filters",
    "orders.modest_s": "orders.modest_analysis",
    "dot.hasse_s": "dot.hasse_dot",
    "combinators.porcupine_s": "combinators.porcupine",
    "combinators.product_s": "combinators.product_system",
    "trees.sigma_system_s": "trees.sigma_system",
    "freeseq.sigma_tree_s": "freeseq.sigma_tree",
    "freeseq.sigma_squared_s": "freeseq.sigma_squared",
    "freeseq.longest_s": "freeseq.longest_free_sequence",
    "cli.emit_s": "cli.emit",
}
# The named entry points of the layers that also report an "other" share.
OTHER = {
    "orders.other_s": {INCLUSIVE[k] for k in INCLUSIVE if k.startswith("orders.")},
    "combinators.other_s": {"combinators.porcupine", "combinators.product_system"},
}
COUNTS = ("solver.nodes", "orders.segments", "dot.hasse_edges",
          "combinators.members_out", "trees.paths", "freeseq.sigma_nodes",
          "solver.greedy_excess")


def metrics(spans, tracer_counters, check_counters) -> dict:
    """Metric name -> (value, unit) for one traced pass."""
    dur = [end - start for _, start, end, _, _ in spans]
    child = [0.0] * len(spans)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            child[span[3]] += dur[i]
    inclusive, calls, layer_self = Counter(), Counter(), Counter()
    cli_self = 0.0
    other = Counter()
    covered = {name: [False] * len(spans) for name in OTHER}
    for i, (label, _, _, parent, _) in enumerate(spans):
        layer = label.split(".", 1)[0]
        own = dur[i] - child[i]
        inclusive[label] += dur[i]
        calls[layer] += 1
        layer_self[layer] += own
        if layer == "cli" and label != "cli.emit":
            cli_self += own
        for name, named in OTHER.items():
            hit = label in named or (parent >= 0 and covered[name][parent])
            covered[name][i] = hit
            if not hit and name.startswith(layer + "."):
                other[name] += own

    counts = Counter()
    for c in list(tracer_counters.values()) + [check_counters]:
        counts.update(c)
    decision_calls = sum(1 for span in spans if span[0] == DECISION)

    out = {name: (inclusive[label], "s") for name, label in INCLUSIVE.items()}
    out.update({name: (other[name], "s") for name in OTHER})
    out.update({name: (counts[name], "count") for name in COUNTS})
    out["solver.decision_calls"] = (decision_calls, "count")
    out["solver.decision_infeasible_ratio"] = (
        counts["solver.decision_infeasible"] / decision_calls if decision_calls else 0.0,
        "ratio")
    nodes = counts["solver.nodes"]
    out["solver.s_per_node"] = (inclusive[DECISION] / nodes if nodes else 0.0, "s/node")
    for layer in ("families", "algebra", "freealg"):
        out[f"{layer}.s"] = (layer_self[layer], "s")
    for layer in ("families", "algebra"):
        out[f"{layer}.calls"] = (calls[layer], "count")
    out["cli.self_s"] = (cli_self, "s")
    return out

