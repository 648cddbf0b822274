"""Spine construction and candidate layout enumeration."""

from __future__ import annotations

import math
import random
import sys
from itertools import permutations, product

import pytest
from hypothesis import given, settings

import bicross.enumeration as enumeration_mod
from bicross import (
    BipartiteGraph,
    GraphError,
    ResourceLimitError,
    Side,
    SpineMap,
    bcr_decide,
    build_graph,
    build_spine,
    count_bound,
    crossing_number_fast,
    enumerate_candidates,
    verify_spine,
)
from bicross.graph import sibling_merge
from bicross.limits import Limits
from util import (
    all_drawings,
    has_sibling_pair,
    leaf_aware_cost,
    leaf_slack,
    one_sided_bound,
    random_connected_graph,
    random_sibling_free_graph,
    reference_crossable_pairs,
    reference_crossings,
    spine_by_last_visit,
    weighted_connected_graphs,
)


def c4():
    return build_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])


def short_path():
    return build_graph(2, 1, [(0, 0), (1, 0)])


class TestBuildSpine:
    def test_short_path_hand_trace(self):
        # doubled edges give the circuit x0,y0,x1,y0,x0, so the last visit
        # of x1 is followed by y0 then x0
        s = build_spine(short_path(), Side.X, 0)
        assert s.successor == {1: 0}
        assert s.witness == {1: 0}

    def test_c4_hand_trace(self):
        # lowest-slot-first circuit is x0,y0,x0,y1,x1,y0,x1,y1,x0
        s = build_spine(c4(), Side.X, 0)
        assert s.successor == {1: 0}
        assert s.witness == {1: 1}
        t = build_spine(c4(), Side.Y, 0)
        assert t.successor == {1: 0}
        assert t.witness == {1: 1}

    def test_successor_count_and_acyclicity(self):
        rng = random.Random(41)
        for _ in range(50):
            a, b, edges = random_connected_graph(rng, max_n=10)
            g = BipartiteGraph(a, b, tuple(edges))
            for side, size in ((Side.X, a), (Side.Y, b)):
                if size < 2:
                    continue
                s = build_spine(g, side, 0)
                assert len(s.successor) == size - 1
                assert verify_spine(g, s)
                at = {v: i for i, v in enumerate(s.decode_order)}
                assert all(at[t] < at[x] for x, t in s.successor.items())

    def test_every_root_verifies(self):
        rng = random.Random(43)
        for _ in range(20):
            a, b, edges = random_connected_graph(rng, max_n=9)
            g = BipartiteGraph(a, b, tuple(edges))
            for side, size in ((Side.X, a), (Side.Y, b)):
                for root in range(size if size >= 2 else 0):
                    assert verify_spine(g, build_spine(g, side, root))

    def test_matches_the_last_visit_rule(self):
        # successor and witness, values and insertion order, against the
        # plain rule in util over the same circuit: _leaf_slack reports
        # sibling errors in witness order
        rng = random.Random(181)
        spines = 0
        for _ in range(1000):
            a, b, edges = random_connected_graph(
                rng, max_n=rng.choice((6, 9, 12)), extra_edge_prob=rng.choice((0.0, 0.15, 0.4))
            )
            g = BipartiteGraph(a, b, tuple(edges))
            for side in (Side.X, Side.Y):
                offset = 0 if side is Side.X else a
                for root in range(g.side_count(side) if g.side_count(side) >= 2 else 0):
                    circuit = enumeration_mod._euler_circuit(g, offset + root)
                    successor, witness = spine_by_last_visit(circuit, a, side is Side.X)
                    s = build_spine(g, side, root)
                    assert list(s.successor.items()) == list(successor.items()), (edges, side, root)
                    assert list(s.witness.items()) == list(witness.items()), (edges, side, root)
                    spines += 1
        assert spines >= 4500

    def test_errors(self):
        with pytest.raises(GraphError, match="connected"):
            build_spine(build_graph(2, 2, [(0, 0), (1, 1)]), Side.X, 0)
        with pytest.raises(GraphError, match="at least 2"):
            build_spine(build_graph(1, 2, [(0, 0), (0, 1)]), Side.X, 0)
        with pytest.raises(GraphError, match="root"):
            build_spine(c4(), Side.X, 5)
        # x1 and x2 point at each other, so neither is reached from x0
        with pytest.raises(GraphError, match="does not reach every vertex"):
            SpineMap(Side.X, 0, {1: 2, 2: 1}, {1: 0, 2: 0}).decode_order


class TestVerifySpine:
    def test_two_cycle_successor_rejected(self):
        g = build_graph(3, 1, [(0, 0), (1, 0), (2, 0)])
        # x1 and x2 point at each other: a cycle, not a tree
        s = SpineMap(Side.X, 0, {1: 2, 2: 1}, {1: 0, 2: 0})
        assert not verify_spine(g, s)

    def test_missing_witness_edge_rejected(self):
        g = build_graph(2, 2, [(0, 0), (1, 0), (1, 1)])
        # claims the witness path x1-y1-x0 but (x0, y1) is not an edge
        s = SpineMap(Side.X, 0, {1: 0}, {1: 1})
        assert not verify_spine(g, s)

    @pytest.mark.parametrize(
        "root,successor",
        [(5, {}), (0, {1: 7}), (0, {1: 1})],
        ids=["root out of range", "successor out of range", "own successor"],
    )
    def test_out_of_range_or_self_successor_rejected(self, root, successor):
        s = SpineMap(Side.X, root, successor, dict.fromkeys(successor, 0))
        assert not verify_spine(c4(), s)

    def test_wrong_domain_rejected(self):
        s = SpineMap(Side.X, 0, {}, {})
        assert not verify_spine(c4(), s)

    def test_overused_edge_rejected(self):
        # star-like side: every witness path runs through the same two edges
        g = build_graph(4, 1, [(0, 0), (1, 0), (2, 0), (3, 0)])
        s = SpineMap(Side.X, 0, {1: 0, 2: 0, 3: 0}, {1: 0, 2: 0, 3: 0})
        # edge (x0, y0) lies on three witness paths
        assert not verify_spine(g, s)


class TestEnumerate:
    def test_c4_both_orders_at_k1(self):
        got = set(enumerate_candidates(c4(), Side.X, 1))
        assert got == {(0, 1), (1, 0)}

    def test_short_path_both_orders_at_k0(self):
        got = set(enumerate_candidates(short_path(), Side.X, 0))
        assert got == {(0, 1), (1, 0)}

    def test_returns_each_leaf_then_its_reversal(self):
        assert enumerate_candidates(c4(), Side.X, 1) == [(0, 1), (1, 0)]
        rng = random.Random(47)
        for _ in range(15):
            a, b, edges = random_sibling_free_graph(rng, max_n=7)
            got = enumerate_candidates(BipartiteGraph(a, b, tuple(edges)), Side.X, 2)
            assert type(got) is list and all(type(ranks) is tuple for ranks in got)
            assert got[1::2] == [tuple(a - 1 - r for r in ranks) for ranks in got[0::2]]

    def test_no_duplicates_and_deterministic(self):
        rng = random.Random(53)
        for _ in range(15):
            a, b, edges = random_sibling_free_graph(rng, max_n=7)
            g = BipartiteGraph(a, b, tuple(edges))
            first = enumerate_candidates(g, Side.X, 1)
            second = enumerate_candidates(g, Side.X, 1)
            assert first == second
            assert len(first) == len(set(first))

    def test_stream_within_count_bound(self):
        rng = random.Random(59)
        for _ in range(15):
            a, b, edges = random_sibling_free_graph(rng, max_n=7)
            g = BipartiteGraph(a, b, tuple(edges))
            for k in (0, 1, 2):
                stream = enumerate_candidates(g, Side.X, k)
                assert len(stream) <= count_bound(a, k)

    def test_completeness_small_random(self):
        rng = random.Random(61)
        for _ in range(10):
            a, b, edges = random_sibling_free_graph(rng, max_n=7)
            g = BipartiteGraph(a, b, tuple(edges))
            for k in (0, 1):
                for side, size in ((Side.X, a), (Side.Y, b)):
                    stream = set(enumerate_candidates(g, side, k))
                    realized = set()
                    for fx, fy in all_drawings(a, b):
                        if reference_crossings(edges, fx, fy) <= k:
                            realized.add(fx if side is Side.X else fy)
                    assert realized <= stream

    def test_two_free_leaves_at_a_witness_raise(self):
        # x0, x1 and x3 are sibling leaves of y1, the witness of every
        # non-root x, so x1 and x2 each see two leaves besides x and T(x)
        edges = [(0, 1), (1, 1), (2, 0), (2, 1), (3, 1)]
        g = build_graph(4, 2, edges)
        assert set(build_spine(g, Side.X, 0).witness.values()) == {1}
        # the walk would charge the free gap over x0 and x3 and miss this
        # layout, which has a drawing without crossings
        assert reference_crossings(edges, (1, 0, 3, 2), (1, 0)) == 0
        with pytest.raises(GraphError, match="witness y1 of x1 has 2 free leaves"):
            enumerate_candidates(g, Side.X, 0)

    def test_walk_node_ceiling_error(self):
        # C4 at k = 1 walks two nodes per side (TestWalkNodes): the root and x1
        for side in (Side.X, Side.Y):
            assert len(enumerate_candidates(c4(), side, 1, Limits(max_walk_nodes=2))) == 2
            with pytest.raises(
                ResourceLimitError,
                match=f"candidate walk on side {side.value} at k=1 exceeds max_walk_nodes=1",
            ):
                enumerate_candidates(c4(), side, 1, Limits(max_walk_nodes=1))

    def test_walk_node_ceiling_reaches_the_solver(self):
        with pytest.raises(ResourceLimitError, match="max_walk_nodes=1"):
            bcr_decide(c4(), 1, Limits(max_walk_nodes=1))


def cycle_with_path(c, tail, rng=None):
    """C_2c with a path of tail edges hung on x0, labels shuffled per side.

    With c = 0 there is no cycle and the graph is a path of tail edges.
    Without rng the labels stay in construction order.
    """
    a, b = max(c, 1), c
    pairs = [(i, i) for i in range(c)] + [((i + 1) % c, i) for i in range(c)]
    end, on_x = 0, True
    for _ in range(tail):
        if on_x:
            pairs.append((end, b))
            end, b = b, b + 1
        else:
            pairs.append((a, end))
            end, a = a, a + 1
        on_x = not on_x
    px = rng.sample(range(a), a) if rng else range(a)
    py = rng.sample(range(b), b) if rng else range(b)
    return a, b, sorted((px[x], py[y], 1) for x, y in pairs)


def mirror_cases():
    """(graph, edges, side): one side of each size 2..7 per family.

    The families are paths, C4 with a tail and C6 with a tail (crossing
    numbers 0, 1 and 2; a C6 side has at least 3 vertices), all free of
    sibling pairs, so their streams at k <= 3 are not empty.  On those
    sides l(x) is 0 throughout, so a fourth family adds, for each size
    3..7, a side of a random sparse sibling-free graph with some
    l(x) = 1 (a side of 2 has no vertex other than x and T(x)).
    """
    rng = random.Random(131)
    cases = []
    for c, tails in ((0, range(3, 14)), (2, range(0, 11)), (3, range(0, 9))):
        sizes = set(range(max(2, c), 8))
        for tail in tails:
            a, b, edges = cycle_with_path(c, tail, rng)
            assert not has_sibling_pair(a, b, edges)
            g = BipartiteGraph(a, b, tuple(edges))
            for side, size in ((Side.X, a), (Side.Y, b)):
                if size in sizes:
                    sizes.discard(size)
                    cases.append((g, edges, side))
        assert not sizes
    sizes = set(range(3, 8))
    for _ in range(1000):
        if not sizes:
            break
        a, b, edges = random_connected_graph(
            rng, max_n=12, extra_edge_prob=0.1, min_n=5, max_side=7
        )
        if has_sibling_pair(a, b, edges):
            continue
        g = BipartiteGraph(a, b, tuple(edges))
        for side, size in ((Side.X, a), (Side.Y, b)):
            if size in sizes:
                spine = build_spine(g, side, 0)
                if any(leaf_slack(edges, side is Side.X, spine.successor, spine.witness).values()):
                    sizes.discard(size)
                    cases.append((g, edges, side))
    assert not sizes, f"no side with l(x) = 1 found for sizes {sorted(sizes)}"
    return cases


MIRROR_CASES = mirror_cases()


class TestMirroredWalk:
    """The half walk plus mirrors against a filter over all a! layouts.

    The filter is "leaf-aware gap cost <= 4k and one-sided bound <= k",
    with the cost computed in util from the edge list alone.
    """

    def test_stream_is_exactly_the_filtered_permutations(self):
        middle_root_layouts = {3: 0, 5: 0, 7: 0}
        for g, edges, side in MIRROR_CASES:
            a = g.side_count(side)
            spine = build_spine(g, side, root=0)
            slack = leaf_slack(edges, side is Side.X, spine.successor, spine.witness)
            # leaf-aware gap cost and one-sided bound of every layout, from the definitions
            scored = [
                (
                    perm,
                    leaf_aware_cost(perm, spine.successor, slack),
                    one_sided_bound(edges, side is Side.X, perm),
                )
                for perm in permutations(range(a))
            ]
            for k in range(4):
                want = {p for p, cost, bound in scored if cost <= 4 * k and bound <= k}
                stream = enumerate_candidates(g, side, k)
                assert len(stream) == len(set(stream)), (edges, side, k)
                assert set(stream) == want, (edges, side, k)
                if a % 2:
                    middle_root_layouts[a] += sum(p[spine.root] == (a - 1) // 2 for p in want)
        # the middle root rank of odd sides, which is not mirrored, is exercised
        assert all(middle_root_layouts.values()), middle_root_layouts


class TestOrderTables:
    """The rows of _order_tables against the one-sided bound, without the walk.

    Insert the vertices of a random order one at a time into a random
    layout: a new vertex x = order[d] adds left[d], then moves[x][z] for
    each earlier z that the layout puts left of x.  At every prefix the
    settled weight and sum(|c_uv - c_vu|) of the table must give the
    one-sided bound of the prefix, computed in util from the definition.
    """

    def test_rows_reproduce_the_one_sided_bound_on_every_prefix(self):
        rng = random.Random(149)
        graphs = prefixes = 0
        while graphs < 300:
            a, b, edges = random_connected_graph(
                rng, max_n=10, extra_edge_prob=rng.choice((0.1, 0.3, 0.5)), min_n=4
            )
            if a < 2 or b < 2 or has_sibling_pair(a, b, edges):
                continue
            graphs += 1
            edges = [(x, y, rng.randint(1, 3)) for x, y, _ in edges]
            g = BipartiteGraph(a, b, tuple(edges))
            for side in (Side.X, Side.Y):
                size, other = g.side_count(side), g.side_count(side.other)
                is_x = side is Side.X
                order = tuple(rng.sample(range(size), size))
                ranks = rng.sample(range(size), size)
                moves, left, settles = enumeration_mod._order_tables(g, side, order)
                diff = [0] * (other * other)
                settled = 0
                for d, x in enumerate(order):
                    # only the rows against earlier vertices are built
                    assert not any(moves[x][z] for z in order[d:]), (edges, side, order)
                    for p, e in left[d]:
                        diff[p] += e
                    for z in order[:d]:
                        if ranks[z] < ranks[x]:
                            for p, e in moves[x][z]:
                                diff[p] += e
                    settled += settles[d]
                    placed = set(order[: d + 1])
                    sub = [edge for edge in edges if edge[0 if is_x else 1] in placed]
                    assert settled == sum(w for *_, w in reference_crossable_pairs(sub))
                    spread = sum(abs(v) for v in diff)
                    assert (settled - spread) % 2 == 0
                    assert (settled - spread) // 2 == one_sided_bound(sub, is_x, ranks)
                    prefixes += 1
        assert prefixes >= 2000


class TestGapCheck:
    """With the one-sided bound switched off, the stream is exactly the
    layouts within the gap cost.

    On the mirror cases the bound is the tighter of the two checks at every
    k, so the filtered permutations above would not notice a gap check that
    cuts too little.
    """

    def test_stream_is_exactly_the_layouts_within_the_gap_cost(self, monkeypatch):
        def no_bound(g, side, order):
            return [[()] * len(order) for _ in order], [[] for _ in order], [0] * len(order)

        monkeypatch.setattr(enumeration_mod, "_order_tables", no_bound)
        cut = 0
        for g, edges, side in MIRROR_CASES:
            a = g.side_count(side)
            spine = build_spine(g, side, root=0)
            slack = leaf_slack(edges, side is Side.X, spine.successor, spine.witness)
            costs = [(p, leaf_aware_cost(p, spine.successor, slack)) for p in permutations(range(a))]
            for k in range(3):
                want = {p for p, cost in costs if cost <= 4 * k}
                stream = enumerate_candidates(g, side, k)
                assert len(stream) == len(set(stream)), (edges, side, k)
                assert set(stream) == want, (edges, side, k)
                cut += len(want) < len(costs)
        # the gap check alone cuts something on 40 of the 66 (case, k) pairs
        assert cut >= 40


class TestLeafAwareCost:
    """Every drawing with at most k crossings has leaf-aware gap cost <= 4k."""

    @staticmethod
    def spines_and_slacks(g, edges):
        """[(spine, l) for X, then for Y], l computed in util from the edge list."""
        out = []
        for side in (Side.X, Side.Y):
            spine = build_spine(g, side, 0)
            out.append((spine, leaf_slack(edges, side is Side.X, spine.successor, spine.witness)))
        return out

    def test_sibling_free_pool(self, sibling_free_pool):
        checked = 0
        for g, within in sibling_free_pool:
            sides = self.spines_and_slacks(g, g.edges)
            for k in (0, 1, 2):
                for fx, fy in within[k]:
                    for ranks, (spine, slack) in zip((fx, fy), sides):
                        assert leaf_aware_cost(ranks, spine.successor, slack) <= 4 * k, (g, fx, fy)
                    checked += 1
        assert checked >= 200

    def test_random_sibling_free_graphs(self):
        # the inequality holds per drawing: cost <= 4 * (its crossing count).
        # random_sibling_free_graph is dense and has few leaves, so 100
        # sparse sibling-free graphs are added, where l(x) = 1 is common.
        rng = random.Random(67)
        graphs = [random_sibling_free_graph(rng) for _ in range(100)]
        while len(graphs) < 200:
            a, b, edges = random_connected_graph(rng, max_n=8, extra_edge_prob=0.15, min_n=4)
            if a >= 2 and b >= 2 and not has_sibling_pair(a, b, edges):
                graphs.append((a, b, edges))
        needed = 0  # drawing sides that exceed 4 * crossings without the l term
        for a, b, edges in graphs:
            sides = self.spines_and_slacks(BipartiteGraph(a, b, tuple(edges)), edges)
            for fx, fy in all_drawings(a, b):
                c = reference_crossings(edges, fx, fy)
                for ranks, (spine, slack) in zip((fx, fy), sides):
                    assert leaf_aware_cost(ranks, spine.successor, slack) <= 4 * c, (edges, fx, fy)
                    needed += leaf_aware_cost(ranks, spine.successor, dict.fromkeys(slack, 0)) > 4 * c
        # the sample has drawings that only the leaf term admits
        assert needed >= 2


def walk_nodes(g, side, k):
    """(walk nodes expanded, layouts streamed) for one enumeration.

    A node is one call of the inner recursive function walk.
    """
    nodes = 0

    def profile(frame, event, arg):
        nonlocal nodes
        if event == "call" and frame.f_code.co_name == "walk":
            nodes += 1

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        streamed = len(enumerate_candidates(g, side, k))
    finally:
        sys.setprofile(previous)
    return nodes, streamed


class TestWalkNodes:
    # A node is one relative order of the vertices placed so far that
    # survives the gap check and the one-sided bound.

    def test_c4_tail_x_walk(self):
        # bcr is 1 for every tail length; the stream stays 2 X layouts
        a, b, edges = cycle_with_path(2, 24)
        assert walk_nodes(BipartiteGraph(a, b, tuple(edges)), Side.X, 1) == (14, 2)

    @pytest.mark.parametrize(
        "c,tail,side,k,nodes,streamed",
        [(5, 4, Side.X, 3, 25, 0), (3, 8, Side.Y, 2, 13, 4)],
    )
    def test_pinned_walks(self, c, tail, side, k, nodes, streamed):
        a, b, edges = cycle_with_path(c, tail)
        assert walk_nodes(BipartiteGraph(a, b, tuple(edges)), side, k) == (nodes, streamed)

    @pytest.mark.parametrize(
        "c,tail,side,k",
        [(5, 4, Side.X, 3), (5, 4, Side.X, 5), (2, 10, Side.Y, 5), (3, 5, Side.Y, 5)],
    )
    def test_each_relative_order_is_entered_once(self, c, tail, side, k):
        a, b, edges = cycle_with_path(c, tail)
        g = BipartiteGraph(a, b, tuple(edges))
        entered = []

        def profile(frame, event, arg):
            # a node's sequence of placed vertices, read when its walk starts
            if event == "call" and frame.f_code.co_name == "walk":
                entered.append(tuple(frame.f_locals["seq"]))

        previous = sys.getprofile()
        sys.setprofile(profile)
        try:
            streamed = len(enumerate_candidates(g, side, k))
        finally:
            sys.setprofile(previous)
        assert (len(entered), streamed) == walk_nodes(g, side, k)
        assert len(set(entered)) == len(entered)
        # the mirror half is never walked: no order is entered with its reversal
        assert not {s[::-1] for s in entered if len(s) > 1} & set(entered)
        assert len(entered) >= 25

    def test_counter_sees_every_node(self):
        # C4 at k = 0: the root's child x1 is cut by the one-sided bound
        assert walk_nodes(c4(), Side.X, 0) == (1, 0)
        # at k = 1 the bound, at most half the crossable weight 2, cannot
        # cut: x1 is placed, and the layout mirrored
        assert walk_nodes(c4(), Side.X, 1) == (2, 2)

    def test_stream_holds_at_most_two_layouts_per_node(self):
        # every layout streamed is a walk leaf or its reversal, so
        # max_walk_nodes also bounds the stream
        cases = [(c4(), Side.X, k) for k in (0, 1)]
        cases += [
            (BipartiteGraph(a, b, tuple(edges)), side, k)
            for (c, tail), side, k in (
                ((2, 24), Side.X, 1),
                ((5, 4), Side.X, 3),
                ((3, 8), Side.Y, 2),
            )
            for a, b, edges in [cycle_with_path(c, tail)]
        ]
        cases += [(g, side, k) for g, _, side in MIRROR_CASES for k in (1, 2, 3)]
        largest = 0
        for g, side, k in cases:
            nodes, streamed = walk_nodes(g, side, k)
            assert streamed <= 2 * nodes, (g, side, k)
            largest = max(largest, streamed)
        assert largest >= 32  # the cases include streams of some size


def attach_c4(a, b, edges, v, on_x):
    """(a, b, edges) plus a new 4-cycle through vertex v, on X if on_x."""
    if on_x:
        return a + 1, b + 2, edges + [(v, b, 1), (v, b + 1, 1), (a, b, 1), (a, b + 1, 1)]
    return a + 2, b + 1, edges + [(a, v, 1), (a + 1, v, 1), (a, b, 1), (a + 1, b, 1)]


def dumbbell(chain):
    """Two C4 joined by a bridge chain of the given number of edges (bcr 2)."""
    a, b, edges = cycle_with_path(2, chain)
    # the chain ends on the vertex added last: on X after an even count
    if chain % 2:
        return attach_c4(a, b, edges, b - 1, False)
    return attach_c4(a, b, edges, a - 1, True)


def hanging_caterpillar(spine):
    """C4 with a path of spine edges hung on x0 and a leaf on each path vertex (bcr 1)."""
    a, b, edges = cycle_with_path(2, spine)
    xs, ys = range(2, a), range(2, b)  # the path's vertices after x0
    edges += [(x, b + i, 1) for i, x in enumerate(xs)]
    edges += [(a + i, y, 1) for i, y in enumerate(ys)]
    return a + len(ys), b + len(xs), sorted(edges)


class TestWalkGrowth:
    """Walk nodes at fixed k as a tree part of the graph grows.

    The graphs are enumerated whole, with no kernel cut first, and the
    walk nodes grow linearly with the tree part.
    """

    @pytest.mark.parametrize(
        "make,k,size,x_walk,y_walk",
        [
            (lambda n: cycle_with_path(2, n), 1, 8, (6, 2), (10, 4)),
            (lambda n: cycle_with_path(2, n), 1, 16, (10, 2), (18, 4)),
            (lambda n: cycle_with_path(2, n), 1, 24, (14, 2), (26, 4)),
            (dumbbell, 2, 10, (8, 2), (18, 8)),
            (dumbbell, 2, 20, (13, 2), (28, 8)),
            (dumbbell, 2, 40, (23, 2), (48, 8)),
            (hanging_caterpillar, 1, 10, (12, 2), (22, 4)),
            (hanging_caterpillar, 1, 20, (22, 2), (42, 4)),
            (hanging_caterpillar, 1, 30, (32, 2), (62, 4)),
        ],
    )
    def test_pinned_growth(self, make, k, size, x_walk, y_walk):
        a, b, edges = make(size)
        assert not has_sibling_pair(a, b, edges)
        g = BipartiteGraph(a, b, tuple(edges))
        assert (walk_nodes(g, Side.X, k), walk_nodes(g, Side.Y, k)) == (x_walk, y_walk)

    def test_dumbbell_decides_under_the_default_limits(self):
        a, b, edges = dumbbell(40)
        report = bcr_decide(BipartiteGraph(a, b, tuple(edges)), 2)
        assert (report.decision, report.optimum) == ("yes", 2)
        assert crossing_number_fast(report.witness) == 2


class TestWeightedWalk:
    """The stream against the filtered permutations on weighted graphs."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(t=weighted_connected_graphs(max_side=6))
    def test_stream_is_exactly_the_filtered_permutations(self, t):
        # the walk takes sibling-merged graphs, as the solver gives it
        g = sibling_merge(BipartiteGraph(t[0], t[1], tuple(t[2]))).graph
        edges = list(g.edges)
        for side in (Side.X, Side.Y):
            a = g.side_count(side)
            if a < 2:
                continue
            spine = build_spine(g, side, root=0)
            slack = leaf_slack(edges, side is Side.X, spine.successor, spine.witness)
            scored = [
                (
                    perm,
                    leaf_aware_cost(perm, spine.successor, slack),
                    one_sided_bound(edges, side is Side.X, perm),
                )
                for perm in permutations(range(a))
            ]
            for k in range(5):
                want = {p for p, cost, bound in scored if cost <= 4 * k and bound <= k}
                stream = enumerate_candidates(g, side, k)
                assert len(stream) == len(set(stream)), (edges, side, k)
                assert set(stream) == want, (edges, side, k)


class TestCountBound:
    def test_values(self):
        # 2^(4k+2a-2) * 2^(a-1) * a: 2^8 * 4 * 3 and 2^2 * 2 * 2; at a = 2,
        # k = 0 the one gap may be 0 or 1, two vectors, not C(1, 1) = 1
        assert count_bound(3, 1) == 3072
        assert count_bound(2, 0) == 16

    def test_small_side_rejected(self):
        with pytest.raises(ValueError):
            count_bound(1, 0)

    def test_counts_every_gap_vector_within_budget(self):
        # the a - 1 gaps of a streamed layout sum to at most 4k + a - 1,
        # not exactly to it: count those vectors one by one
        for a in range(2, 6):
            for k in range(3):
                budget = 4 * k + a - 1
                vectors = sum(
                    sum(gaps) <= budget
                    for gaps in product(range(budget + 1), repeat=a - 1)
                )
                assert vectors == math.comb(4 * k + 2 * a - 2, a - 1)
                assert vectors * 2 ** (a - 1) * a <= count_bound(a, k)

    def test_binomial_within_power(self):
        for a in range(2, 13):
            for k in range(0, 13):
                assert math.comb(4 * k + 2 * a - 2, a - 1) <= 1 << (4 * k + 2 * a - 2)
