"""Oracle-differential tests for the bound-pruned candidate streams.

The enumeration cuts every layout whose one-sided crossing bound exceeds
the budget.  These tests hold the solver built on the pruned streams to
the brute-force oracle: decisions and optima at every budget up to one
past the optimum, the oracle's lexicographically first witness where the
solver reaches it through enumeration alone, and the streams themselves
against the bound and the drawings within budget, recomputed from the
definitions in util.
"""

from __future__ import annotations

import random

from bicross import (
    BipartiteGraph,
    Side,
    bcr_bruteforce,
    bcr_decide,
    build_graph,
    enumerate_candidates,
    is_caterpillar_forest,
)
from util import (
    all_drawings,
    connected_graph_classes,
    has_sibling_pair,
    one_sided_bound,
    random_connected_graph,
    reference_crossings,
)


def check_against_oracle(a: int, b: int, edges) -> bool:
    """Assert the pruned solver agrees with the oracle on one graph.

    Returns whether the graph is a connected, sibling-free non-caterpillar,
    on which the witness and the streams were compared as well.
    """
    g = BipartiteGraph(a, b, tuple(edges))
    opt, oracle_witness = bcr_bruteforce(g)
    enumerated = not has_sibling_pair(a, b, edges) and not is_caterpillar_forest(g)
    if enumerated:
        counts = {(fx, fy): reference_crossings(edges, fx, fy) for fx, fy in all_drawings(a, b)}
    for k in range(opt + 2):
        report = bcr_decide(g, k)
        if k < opt:
            assert (report.decision, report.optimum) == ("no", None), (edges, k)
        else:
            assert (report.decision, report.optimum) == ("yes", opt), (edges, k)
        if not enumerated:
            continue
        if k >= opt:
            assert report.witness == oracle_witness, (edges, k)
        realized = {Side.X: set(), Side.Y: set()}
        for (fx, fy), c in counts.items():
            if c <= k:
                realized[Side.X].add(fx)
                realized[Side.Y].add(fy)
        streams = {}
        for side in (Side.X, Side.Y):
            stream = enumerate_candidates(g, side, k)
            for ranks in stream:
                assert one_sided_bound(edges, side is Side.X, ranks) <= k, (edges, k, ranks)
            assert realized[side] <= set(stream), (edges, k, side)
            streams[side] = stream
        if not streams[Side.X] or not streams[Side.Y]:
            assert report.decision == "no", (edges, k)
    return enumerated


def test_exhaustive_sides_up_to_four():
    compared = sum(check_against_oracle(a, b, e) for a, b, e in connected_graph_classes(4, 4))
    assert compared >= 50


def test_random_weighted_sides_up_to_six():
    rng = random.Random(2718)
    compared = 0
    for _ in range(150):
        a, b, edges = random_connected_graph(rng, max_n=9, max_side=6, leaf_weights=True)
        compared += check_against_oracle(a, b, edges)
    assert compared >= 20


def test_empty_stream_answers_no():
    # C12 has crossing number 5: at k = 4 the bound leaves no X layout
    c12 = build_graph(6, 6, [(i, i) for i in range(6)] + [((i + 1) % 6, i) for i in range(6)])
    assert enumerate_candidates(c12, Side.X, 4) == []
    report = bcr_decide(c12, 4)
    assert (report.decision, report.optimum, report.witness) == ("no", None, None)
    assert report.stats.pairs_evaluated == 0
    assert bcr_decide(c12, 5).optimum == 5
