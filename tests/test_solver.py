"""Oracle, census, per-component pipeline, and the top-level drivers."""

from __future__ import annotations

import gc
import os
import random
import subprocess
import sys
import textwrap
import tracemalloc
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bicross.enumeration as enumeration_mod
import bicross.graph as graph_mod
import bicross.solver as solver_mod
from bicross import (
    BipartiteGraph,
    ResourceLimitError,
    Side,
    bcr_bruteforce,
    bcr_decide,
    bcr_exact,
    build_graph,
    census,
    count_bound,
    crossing_lower_bound,
    crossing_number_fast,
    drawing_from_ranks,
    enumerate_candidates,
    is_caterpillar_forest,
    sibling_merge,
    split_components,
)
from bicross.drawing import Drawing, layout_from_sequence
from bicross.limits import Limits
from util import (
    connected_graph_classes,
    has_sibling_pair,
    inject_sibling_leaves,
    left_in_cycles,
    random_caterpillar,
    random_connected_graph,
    reference_bcr,
    reference_crossings,
    scan_bcr,
    weighted_connected_graphs,
    with_pendant_path,
)


def c4():
    return build_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])


def k33():
    return build_graph(3, 3, [(i, j) for i in range(3) for j in range(3)])


def star(leaves):
    return build_graph(1, leaves, [(0, j) for j in range(leaves)])


def weighted_c4(w00, w01, w10, w11):
    """C4 with weight wxy on the edge from x to y."""
    return build_graph(2, 2, [(0, 0, w00), (0, 1, w01), (1, 0, w10), (1, 1, w11)])


def hub_leaf_c4(n=40):
    """C4 where x1 and y1 each carry n leaves: unweighted, bcr 1."""
    edges = [(0, 0), (0, 1), (1, 0), (1, 1)]
    edges += [(1, 2 + i) for i in range(n)] + [(2 + i, 1) for i in range(n)]
    return build_graph(2 + n, 2 + n, edges)


def c10_hub(n=30):
    """C10 with n leaves on each of its 5 X vertices: bcr 94."""
    edges = [(i, j % 5) for i in range(5) for j in (i, i + 1)]
    edges += [(i, 5 + i * n + j) for i in range(5) for j in range(n)]
    return build_graph(5, 5 + 5 * n, edges)


def random_union(rng, parts, max_n):
    """Disjoint union of random connected graphs with leaf weights."""
    a = b = 0
    edges = []
    for _ in range(parts):
        pa, pb, pe = random_connected_graph(rng, max_n=max_n, leaf_weights=True)
        edges += [(x + a, y + b, w) for x, y, w in pe]
        a += pa
        b += pb
    return BipartiteGraph(a, b, tuple(edges))


def component_optima(g):
    """(part, reference optimum) per component, in solving order."""
    return [
        (part, reference_bcr(part.graph.x_count, part.graph.y_count, part.graph.edges))
        for part in split_components(g)
    ]


def c12():
    return build_graph(6, 6, [(i, i) for i in range(6)] + [((i + 1) % 6, i) for i in range(6)])


SPIDER = build_graph(4, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (2, 1), (3, 2)])


class TestBruteforce:
    def test_c4(self):
        value, witness = bcr_bruteforce(c4())
        assert value == 1
        # lexicographically smallest witness: the identity pair
        assert (witness.fx.ranks, witness.fy.ranks) == ((0, 1), (0, 1))

    def test_k33(self):
        assert bcr_bruteforce(k33())[0] == 9

    def test_path_is_zero(self):
        path = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
        value, witness = bcr_bruteforce(path)
        assert value == 0
        assert crossing_number_fast(witness) == 0

    def test_weighted(self):
        g = build_graph(2, 2, [(0, 0, 2), (0, 1), (1, 0), (1, 1, 3)])
        # four layout pairs; reference oracle gives the weighted minimum
        assert bcr_bruteforce(g)[0] == reference_bcr(2, 2, g.edges)

    def test_side_limit(self):
        with pytest.raises(ResourceLimitError, match="oracle"):
            bcr_bruteforce(star(12))

    def test_pair_limit_fails_before_scanning(self, monkeypatch):
        # 8! * 8! layout pairs are over max_pair_evaluations, so neither
        # exhaustive scan may start
        def scanning(*args):
            raise AssertionError("the scan started")

        monkeypatch.setattr(solver_mod, "_count_capped", scanning)
        c16 = build_graph(8, 8, [(i, i) for i in range(8)] + [(i, (i + 1) % 8) for i in range(8)])
        with pytest.raises(ResourceLimitError, match="oracle would scan 1625702400 pairs"):
            bcr_bruteforce(c16)
        with pytest.raises(ResourceLimitError, match="census would scan 1625702400 pairs"):
            census(c16, 0)


class TestCensus:
    def test_star_k0_counts_factorial(self):
        assert census(star(4), 0).count == 24

    def test_single_edge(self):
        assert census(build_graph(1, 1, [(0, 0)]), 0).count == 1

    def test_c4(self):
        assert census(c4(), 0).count == 0
        assert census(c4(), 1).count == 4
        assert census(c4(), 1).pairs_scanned == 4

    def test_flags_and_bound(self):
        res = census(c4(), 1)
        assert res.sibling_free is True
        assert res.count <= res.bound
        res = census(star(4), 0)
        assert res.sibling_free is False
        assert res.count <= res.bound

    def test_sibling_free_matches_the_reference(self):
        classes = list(connected_graph_classes(3, 3))
        graphs = [BipartiteGraph(a, b, tuple(e)) for a, b, e in classes]
        # two components side by side: the second one's labels come after the first's
        small = [(a, b, e) for a, b, e in classes if a <= 2 and b <= 2]
        for a, b, e in small:
            for a2, b2, e2 in small:
                moved = [(a + x, b + y, w) for x, y, w in e2]
                graphs.append(BipartiteGraph(a + a2, b + b2, tuple(e + moved)))
        free = 0
        for g in graphs:
            want = not has_sibling_pair(g.x_count, g.y_count, g.edges)
            assert census(g, 0).sibling_free is want, g.edges
            free += want
        assert 0 < free < len(graphs)

    def test_size_guard(self):
        with pytest.raises(ResourceLimitError, match="census"):
            census(star(12), 0)


class TestComponentSolve:
    def test_c4_budgets(self):
        report = bcr_decide(c4(), 1)
        assert report.optimum == 1
        assert crossing_number_fast(report.witness) == 1
        report = bcr_decide(c4(), 0)
        assert (report.decision, report.optimum, report.witness) == ("no", None, None)

    def test_star_budget_zero(self):
        report = bcr_decide(star(5), 0)
        assert report.optimum == 0
        assert crossing_number_fast(report.witness) == 0

    def test_spider_needs_one(self):
        assert bcr_exact(SPIDER, 4).optimum == 1

    def test_matching_is_two_fastpath_components(self):
        report = bcr_decide(build_graph(2, 2, [(0, 0), (1, 1)]), 0)
        assert (report.decision, report.optimum) == ("yes", 0)
        assert report.stats.components == 2
        assert report.method == "fastpath"
        assert report.stats.kernel_edges == 0

    def test_witness_is_on_the_original_graph(self):
        # sibling leaves force a merge; the witness must still rank all 6 leaves
        g = build_graph(2, 7, [(0, j) for j in range(6)] + [(0, 6), (1, 6)])
        report = bcr_decide(g, 2)
        assert report.optimum == 0
        assert report.witness.graph == g
        assert len(report.witness.fy.ranks) == 7


class TestOneDrawingPerSolve:
    """A component's witness stays a pair of vertex orders until the solve
    composes them, and the budget cap is counted off the sorted edges: the
    only Drawing built is the returned witness."""

    @staticmethod
    def drawings_built(monkeypatch, g, k):
        built = []
        real = Drawing.__post_init__

        def spying(self):
            built.append(self.graph)
            real(self)

        monkeypatch.setattr(Drawing, "__post_init__", spying)
        report = bcr_decide(g, k)
        monkeypatch.undo()
        return report, built

    def test_kernel_lift_and_leaf_expansion_build_no_drawing(self, monkeypatch):
        # C6 with an 8-edge pendant path and two sibling leaves on y1: the
        # decision at 3 searches again at the optimum 2, then the ladder
        # regrows the cut path and the merged leaves expand
        c6 = (3, 3, [(i, i, 1) for i in range(3)] + [((i + 1) % 3, i, 1) for i in range(3)])
        a, b, edges = with_pendant_path(c6, True, 0, 8)
        g = BipartiteGraph(a + 2, b, tuple(edges + [(a, 1, 1), (a + 1, 1, 1)]))
        report, built = self.drawings_built(monkeypatch, g, 3)
        assert (report.decision, report.optimum) == ("yes", 2)
        assert built == [g]

    def test_isolated_vertices_build_one_drawing(self, monkeypatch):
        g = build_graph(26, 25, [(0, 0)])
        report, built = self.drawings_built(monkeypatch, g, 0)
        assert (report.decision, report.stats.components) == ("yes", 50)
        assert built == [g]


class TestCaterpillarFastPath:
    """The caterpillar test runs on the component itself, before the merge."""

    def graphs(self):
        fixed = [
            star(4),  # centred on X
            build_graph(4, 1, [(x, 0) for x in range(4)]),  # centred on Y
            build_graph(1, 1, [(0, 0)]),  # lone edge
            build_graph(1, 0, []),
            build_graph(0, 1, []),
            build_graph(1, 2, [(0, 0), (0, 1)]),  # P3 centred on X
            build_graph(2, 1, [(0, 0), (1, 0)]),  # P3 centred on Y
        ]
        classes = [BipartiteGraph(a, b, tuple(e)) for a, b, e in connected_graph_classes(4, 4)]
        rng = random.Random(31)
        caterpillars = [BipartiteGraph(*random_caterpillar(rng)) for _ in range(200)]
        for g in caterpillars:
            assert has_sibling_pair(g.x_count, g.y_count, g.edges)
        return fixed + classes + caterpillars

    def test_merge_does_not_change_the_answer_or_the_witness(self):
        caterpillars = 0
        for g in self.graphs():
            mr = sibling_merge(g)
            assert is_caterpillar_forest(g) == is_caterpillar_forest(mr.graph)
            if not is_caterpillar_forest(g):
                continue
            caterpillars += 1
            orders = solver_mod._caterpillar_orders(g)
            drawing = Drawing(
                g, layout_from_sequence(Side.X, orders[0]), layout_from_sequence(Side.Y, orders[1])
            )
            assert crossing_number_fast(drawing) == 0
            # the merged graph's orders, lifted through a kernel that cuts
            # nothing (every path is shorter than 2m + 2), are the same witness
            merged = solver_mod._caterpillar_orders(mr.graph)
            kernel = graph_mod._pendant_path_kernel(mr.graph, mr.graph.m)
            assert not kernel.paths
            ranks = tuple(
                layout_from_sequence(side, seq).ranks for side, seq in zip((Side.X, Side.Y), merged)
            )
            assert solver_mod._lift_orders(mr, kernel, ranks) == orders
        assert caterpillars >= 240

    def test_walk_starts_at_the_first_spine_end(self):
        # P4 x0-y0-x1-y1: the spine ends are x1 and y0, and X comes first
        g = build_graph(2, 2, [(0, 0), (1, 0), (1, 1)])
        drawing = bcr_decide(g, 0).witness
        assert (drawing.fx.ranks, drawing.fy.ranks) == ((1, 0), (1, 0))


class TestDecide:
    def test_two_disjoint_c4s(self):
        g = build_graph(
            4, 4, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
        )
        yes = bcr_decide(g, 2)
        assert (yes.decision, yes.optimum) == ("yes", 2)
        assert crossing_number_fast(yes.witness) == 2
        assert yes.stats.components == 2
        no = bcr_decide(g, 1)
        assert (no.decision, no.optimum, no.witness) == ("no", None, None)

    def test_empty_graph(self):
        report = bcr_decide(build_graph(0, 0, []), 0)
        assert (report.decision, report.optimum) == ("yes", 0)

    def test_isolated_vertices_only(self):
        report = bcr_decide(build_graph(2, 3, []), 0)
        assert report.decision == "yes"
        assert crossing_number_fast(report.witness) == 0

    def test_method_labels(self):
        assert bcr_decide(star(5), 0).method == "fastpath"
        assert bcr_decide(c4(), 1).method == "fpt-enum"
        # lower-bound rejection without any enumeration
        assert bcr_decide(c4(), 0).method == "fastpath"

    def test_method_is_fpt_enum_iff_some_enumeration_ran(self, monkeypatch):
        # and exactly then is kernel_edges positive, for decide and exact
        walks = []
        real = solver_mod.enumerate_candidates

        def spying(*args):
            walks.append(args[1])
            return real(*args)

        monkeypatch.setattr(solver_mod, "enumerate_candidates", spying)
        seen = set()
        for seed in range(40):
            rng = random.Random(300 + seed)
            a = b = 0
            edges = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    pa, pb, pe = random_caterpillar(rng, max_spine=5)
                else:
                    pa, pb, pe = random_connected_graph(rng, max_n=7, leaf_weights=True)
                edges += [(x + a, y + b, w) for x, y, w in pe]
                a += pa
                b += pb
            g = BipartiteGraph(a, b, tuple(edges))
            solves = [lambda k=k: bcr_decide(g, k) for k in range(4)]
            for solve in solves + [lambda: bcr_exact(g, 12)]:
                walks.clear()
                report = solve()
                enumerated = report.method == "fpt-enum"
                assert enumerated == bool(walks) == (report.stats.kernel_edges > 0)
                seen.add((report.method, report.decision))
        assert seen == {(m, d) for m in ("fastpath", "fpt-enum") for d in ("yes", "no")}

    def test_a_bound_past_k_settles_no_before_any_search(self, monkeypatch):
        # C8 with a tail, and two disjoint C8: every C8 needs 3 crossings
        searches = []
        real = solver_mod._search

        def spying(*args):
            searches.append(args[1])
            return real(*args)

        monkeypatch.setattr(solver_mod, "_search", spying)
        c8 = (4, 4, [(i, i, 1) for i in range(4)] + [((i + 1) % 4, i, 1) for i in range(4)])
        tailed = BipartiteGraph(*with_pendant_path(c8, True, 0, 6))
        two = BipartiteGraph(8, 8, tuple(sorted(c8[2] + [(x + 4, y + 4, w) for x, y, w in c8[2]])))
        assert crossing_lower_bound(tailed) == 3 and crossing_lower_bound(two) == 6
        for g, k in ((tailed, 2), (two, 5)):
            for report in (bcr_decide(g, k), bcr_exact(g, k)):
                assert (report.decision, report.method, report.k) == ("no", "fastpath", k)
                assert report.stats == solver_mod.SolveStats(len(split_components(g)), 0, 0, 0, 0, 0)
            assert searches == []
            assert bcr_decide(g, k + 1).optimum == k + 1
            assert searches
            searches.clear()

    def test_each_component_gets_k_less_the_floors_after_it(self, monkeypatch):
        budgets = []
        real = solver_mod._solve_component

        def spying(mr, lb, hi, ascend, limits):
            budgets.append((hi, ascend))
            return real(mr, lb, hi, ascend, limits)

        monkeypatch.setattr(solver_mod, "_solve_component", spying)
        # C4 (floor 1) then C8 (floor 3), then C4 again
        c4_edges = [(0, 0), (0, 1), (1, 0), (1, 1)]
        c8_edges = [(i, i) for i in range(4)] + [((i + 1) % 4, i) for i in range(4)]
        edges = c4_edges + [(x + 2, y + 2) for x, y in c8_edges] + [(x + 6, y + 6) for x, y in c4_edges]
        g = build_graph(8, 8, edges)
        report = bcr_decide(g, 6)
        assert (report.decision, report.optimum) == ("yes", 5)
        assert budgets == [(2, False), (4, False), (2, False)]
        budgets.clear()
        report = bcr_exact(g, 5)
        assert (report.decision, report.optimum) == ("yes", 5)
        assert budgets == [(1, True), (3, True), (1, True)]
        budgets.clear()
        # the floors sum to 5, so k = 4 reaches no component
        assert bcr_decide(g, 4).method == "fastpath"
        assert budgets == []

    def test_the_merge_runs_only_before_a_search(self, monkeypatch):
        # the floors are read off the components themselves, so a "no" they
        # settle builds no sibling merge, and a solve that searches merges
        # each searched component once, however many budgets it tries
        merged = []
        real = solver_mod.sibling_merge

        def spying(h):
            merged.append(h)
            return real(h)

        monkeypatch.setattr(solver_mod, "sibling_merge", spying)
        spider = (1, 0, [])
        for on_x, length in ((True, 8), (True, 2), (True, 6)):
            spider = with_pendant_path(spider, on_x, 0, length)
        c8 = (4, 4, [(i, i, 1) for i in range(4)] + [((i + 1) % 4, i, 1) for i in range(4)])
        # C4 with sibling leaves y2, y3 on x0; a 3-leaf star; C6 with sibling
        # leaves x3, x4 on y0; the (2, 2, 2) spider with sibling leaves x1, x4 on y0
        parts = [
            (2, 4, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1), (0, 2, 1), (0, 3, 2)]),
            (1, 3, [(0, 0, 1), (0, 1, 1), (0, 2, 1)]),
            (5, 3, [(i, i, 1) for i in range(3)] + [((i + 1) % 3, i, 1) for i in range(3)]
             + [(3, 0, 1), (4, 0, 3)]),
            (5, 3, [(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 1), (2, 1, 1), (3, 2, 1), (4, 0, 1)]),
        ]
        a = b = 0
        edges = []
        for pa, pb, pe in parts:
            edges += [(x + a, y + b, w) for x, y, w in pe]
            a, b = a + pa, b + pb
        union = BipartiteGraph(a, b, tuple(edges))
        assert all(has_sibling_pair(*t) for t in parts)
        cases = [
            (BipartiteGraph(*spider), 1),
            (BipartiteGraph(*with_pendant_path(c8, True, 0, 6)), 3),
            (union, 4),
        ]
        for g, optimum in cases:
            searched = [
                part.graph for part in split_components(g) if not is_caterpillar_forest(part.graph)
            ]
            for k in range(optimum):
                report = bcr_decide(g, k)
                assert (report.decision, report.method) == ("no", "fastpath")
                assert merged == []
            for solve, k in ((bcr_decide, optimum), (bcr_exact, 20)):
                report = solve(g, k)
                assert (report.decision, report.optimum) == ("yes", optimum)
                assert merged == searched
                merged.clear()

    def test_non_caterpillars_are_rejected_at_budget_zero(self, monkeypatch):
        # caterpillars are exactly the graphs with bcr 0, so any other
        # component needs a crossing: the (2, 2, 2) spider, a tree with
        # m - n + 1 = 0, is rejected at k = 0 without a candidate walk
        calls = []
        monkeypatch.setattr(
            solver_mod, "enumerate_candidates", lambda *args: calls.append(args) or iter(())
        )
        spider222 = build_graph(
            4, 3, [(0, 0), (1, 0), (0, 1), (2, 1), (0, 2), (3, 2)]
        )
        assert crossing_lower_bound(spider222) == 0
        report = bcr_decide(spider222, 0)
        assert (report.decision, report.optimum, report.method) == ("no", None, "fastpath")
        assert calls == []

    def test_monotone_in_k(self):
        rng = random.Random(67)
        for _ in range(10):
            a, b, edges = random_connected_graph(rng, max_n=7)
            g = BipartiteGraph(a, b, tuple(edges))
            answers = [bcr_decide(g, k).decision for k in range(6)]
            if "yes" in answers:
                first = answers.index("yes")
                assert answers[first:] == ["yes"] * (len(answers) - first)

    def test_negative_budget_rejected(self):
        with pytest.raises(ValueError):
            bcr_decide(c4(), -1)

    @pytest.mark.parametrize(
        "bad", [True, 1.5, 2.0, np.int64(1), -1], ids=["bool", "float", "2.0", "numpy", "-1"]
    )
    @pytest.mark.parametrize(
        "name,call",
        [
            ("k", lambda k: bcr_decide(c4(), k)),
            ("k_max", lambda k: bcr_exact(c4(), k)),
            ("k", lambda k: census(c4(), k)),
            ("k", lambda k: enumerate_candidates(c4(), Side.X, k)),
            ("k", lambda k: count_bound(2, k)),
        ],
        ids=["bcr_decide", "bcr_exact", "census", "enumerate_candidates", "count_bound"],
    )
    def test_budget_must_be_an_exact_int(self, monkeypatch, name, call, bad):
        # the same exact type test as BipartiteGraph's counts, before any work
        def work(*args):
            raise AssertionError("the solve started")

        monkeypatch.setattr(solver_mod, "split_components", work)
        monkeypatch.setattr(solver_mod, "_scan_size", work)
        monkeypatch.setattr(enumeration_mod, "build_spine", work)
        with pytest.raises(ValueError, match=f"^{name} must be a non-negative int, got"):
            call(bad)


class TestLargeBudgets:
    """No ceiling on the budget: the walk-node cap is the walk's one guard."""

    def test_hub_leaf_c4_answers_at_every_budget(self):
        g = hub_leaf_c4()
        reports = [bcr_decide(g, k) for k in (1, 127, 128, 500, 10**6)]
        assert {(r.decision, r.optimum) for r in reports} == {("yes", 1)}
        assert len({(r.witness.fx, r.witness.fy) for r in reports}) == 1
        # from k = 127 up the search runs at min(k, 1601), the identity
        # drawing's count, where every layout of the 3-vertex sides fits;
        # at k = 1 the walks stream 2 of the 6
        assert len({r.stats for r in reports[1:]}) == 1
        assert (reports[0].stats.candidates_x, reports[1].stats.candidates_x) == (2, 6)

    def test_weighted_c4_above_128(self):
        g = weighted_c4(12, 12, 12, 12)
        assert bcr_decide(g, 144).optimum == 144
        assert bcr_exact(g, 200).optimum == 144

    def test_huge_budget_stops_at_the_walk_node_cap(self):
        # the search runs at the identity drawing's count, 607, not at 10^6;
        # the X walk there has 77 nodes, and the second-side searches add
        # theirs to a count of their own
        with pytest.raises(ResourceLimitError, match="k=607 exceeds max_walk_nodes=50"):
            bcr_decide(c10_hub(), 10**6, Limits(max_walk_nodes=50))
        with pytest.raises(ResourceLimitError, match="side y exceeds max_walk_nodes=100"):
            bcr_decide(c10_hub(), 10**6, Limits(max_walk_nodes=100))

    def test_c10_hub_answers_at_a_huge_budget(self):
        # the merged hub has 5 X and 10 Y vertices: all 120 X layouts fit
        # at 607, and each Y order is solved exactly, within 2^10 nodes
        report = bcr_decide(c10_hub(), 10**6, Limits(max_walk_nodes=1 << 10))
        assert (report.decision, report.optimum) == ("yes", 94)
        assert report.witness == bcr_decide(c10_hub(), 94).witness

    def test_c10_hub_optimum(self):
        assert bcr_decide(c10_hub(), 127).optimum == 94


def c4_leafy_path(length):
    """C4 with a path of length edges hung on x0 and one leaf on every path vertex."""
    edges = [(0, 0), (0, 1), (1, 0), (1, 1)]
    x = y = 2
    on_x, prev = True, 0
    for _ in range(length):
        if on_x:  # prev is an X vertex: the path goes on to a new Y vertex
            edges += [(prev, y), (x, y)]  # and that vertex gets an X leaf
            prev, y, x = y, y + 1, x + 1
        else:
            edges += [(x, prev), (x, y)]
            prev, x, y = x, x + 1, y + 1
        on_x = not on_x
    return build_graph(x, y, edges)


class TestRecursionDepth:
    """A side too deep for the recursion limit raises before any table is built."""

    def test_deep_side_raises_a_resource_error(self):
        g = c4_leafy_path(1000)
        assert (g.x_count, g.y_count) == (1002, 1002)
        with pytest.raises(ResourceLimitError, match="side x has 1002 vertices"):
            enumerate_candidates(g, Side.X, 1)
        with pytest.raises(ResourceLimitError, match="side y has 1002 vertices"):
            bcr_decide(g, 1)
        # neither built the m^2 table of crossable edge pairs
        assert "crossable_pairs" not in vars(g)

    def test_deep_second_side_raises_before_the_walk(self):
        # K_{2,1000}: the X walk would fit, but the 1,000 Y vertices it
        # leaves to the second-side search would not
        g = build_graph(2, 1000, [(x, y) for x in range(2) for y in range(1000)])
        with pytest.raises(ResourceLimitError, match="side y has 1000 vertices"):
            bcr_decide(g, 10**6)
        assert "crossable_pairs" not in vars(g)

    def test_shallow_side_answers(self):
        g = c4_leafy_path(40)
        assert bcr_decide(g, 1).optimum == 1


class TestCrossablePairCeiling:
    """A graph with too many edge pairs that can cross raises before any
    table of them is built; below the ceiling long trees still answer."""

    def test_small_ceiling_raises_before_the_table(self):
        c6 = (3, 3, [(i, i, 1) for i in range(3)] + [((i + 1) % 3, i, 1) for i in range(3)])
        a, b, edges = with_pendant_path(c6, True, 0, 4)
        g = BipartiteGraph(a, b, tuple(edges))
        count = g.crossable_pair_count
        assert count == len(BipartiteGraph(a, b, tuple(edges)).crossable_pairs) == 34
        limits = Limits(max_crossable_pairs=count - 1)
        message = f"{count} crossable edge pairs, over max_crossable_pairs={count - 1}"
        with pytest.raises(ResourceLimitError, match=message):
            enumerate_candidates(g, Side.X, 2, limits)
        assert "crossable_pairs" not in vars(g)
        # at the ceiling the walk runs, and returns the layouts of bcr = 2
        assert len(enumerate_candidates(g, Side.X, 2, Limits(max_crossable_pairs=count))) > 0

    def test_k46_46_raises_at_once(self):
        g = build_graph(46, 46, [(x, y) for x in range(46) for y in range(46)])
        with pytest.raises(ResourceLimitError, match="2142450 crossable edge pairs"):
            bcr_decide(g, 3000)

    def test_long_hanging_caterpillar_still_answers(self):
        # nothing to cut: the kernel is the whole graph, 722,402 pairs
        g = c4_leafy_path(600)
        assert g.crossable_pair_count < Limits().max_crossable_pairs
        report = bcr_decide(g, 1)
        assert (report.decision, report.optimum) == ("yes", 1)


class TestSearchesFreeTheirTables:
    """The candidate walk and the second-side search leave no reference
    cycle, so their tables go when they return, not at the next collection."""

    @staticmethod
    def traced_peak(call) -> int:
        gc.collect()
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_no_search_leaves_a_cycle(self):
        c4 = (2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)])
        c6 = (3, 3, [(i, i, 1) for i in range(3)] + [((i + 1) % 3, i, 1) for i in range(3)])
        c4_tail = build_graph(*with_pendant_path(c4, True, 0, 12))
        c6_tail = build_graph(*with_pendant_path(c6, True, 0, 8))
        spider = (1, 0, [])
        for length in (6, 2, 6):
            spider = with_pendant_path(spider, True, 0, length)
        spider = build_graph(*spider)
        errors = []

        def failing(g, k, nodes):
            def call():
                try:
                    bcr_decide(g, k, Limits(max_walk_nodes=nodes))
                except ResourceLimitError as err:
                    errors.append(str(err))

            return call

        def walk():
            enumerate_candidates(c6_tail, Side.X, 2)

        reports = []
        calls = {
            # X walked first, one second-side search
            "C6 + 8 at its optimum": lambda: reports.append(bcr_decide(c6_tail, 2)),
            # Y walked first, two second-side searches
            "(6, 2, 6) spider at 1": lambda: reports.append(bcr_decide(spider, 1)),
            # six budgets, 4 through 9
            "K3,3 exact": lambda: reports.append(bcr_exact(k33())),
            # the kernel at 3 beats its budget and is searched again at 1
            "C4 + 12 at 3": lambda: reports.append(bcr_decide(c4_tail, 3)),
            "a walk over its node cap": failing(c6_tail, 2, 5),
            "a second-side search over its node cap": failing(spider, 1, 6),
            "a walk that returns": walk,
        }
        for name, call in calls.items():
            assert left_in_cycles(call) == 0, name
        # each call ran twice, warm-up first
        c6_report, spider_report, k33_report, c4_report = reports[1::2]
        assert c6_report.optimum == 2 and c6_report.stats.candidates_x > 0
        assert spider_report.optimum == 1 and spider_report.stats.candidates_y > 0
        assert spider_report.stats.pairs_evaluated == 2
        assert k33_report.optimum == 9 and c4_report.optimum == 1
        assert errors == 2 * ["candidate walk on side x at k=2 exceeds max_walk_nodes=5"] + 2 * [
            "second-side search on side x exceeds max_walk_nodes=6"
        ]

    def test_an_exact_ascent_peaks_at_its_largest_budget(self):
        # K3,3 (bcr 9) with a pendant caterpillar: 20 spine vertices off
        # x0, one leaf each
        edges = [(x, y) for x in range(3) for y in range(3)]
        a = b = 3
        prev = 0
        for i in range(20):
            if i % 2 == 0:  # spine vertex y_b, leaf x_a
                edges += [(prev, b), (a, b)]
                prev = b
            else:  # spine vertex x_a, leaf y_b
                edges += [(a, prev), (a, b)]
                prev = a
            a, b = a + 1, b + 1
        g = build_graph(a, b, edges)
        assert bcr_exact(g, 12).optimum == 9
        exact = self.traced_peak(lambda: bcr_exact(g, 12))
        decide = self.traced_peak(lambda: bcr_decide(g, 9))
        assert exact <= 1.1 * decide, (exact, decide)


class TestExact:
    def test_known_values(self):
        assert bcr_exact(c4(), 5).optimum == 1
        assert bcr_exact(k33(), 10).optimum == 9
        assert bcr_exact(SPIDER, 3).optimum == 1

    def test_caterpillar_at_kmax_zero(self):
        path = build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
        report = bcr_exact(path, 0)
        assert (report.decision, report.optimum) == ("yes", 0)
        assert report.method == "fastpath"

    def test_budget_exhaustion(self):
        report = bcr_exact(k33(), 5)
        assert (report.decision, report.optimum, report.witness) == ("no", None, None)
        assert report.k == 5

    def test_stats_accumulate(self):
        report = bcr_exact(c4(), 5)
        # the ascent starts at the lower bound 1, which enumerates 2
        # candidates per side
        assert report.stats.candidates_x == 2
        assert report.stats.pairs_evaluated > 0

    def test_default_kmax_is_32(self):
        # the cheaper crossing pair of C4 costs 4 * 8 = 32 here, against 6 * 6
        report = bcr_exact(weighted_c4(4, 6, 6, 8))
        assert (report.decision, report.optimum) == ("yes", 32)
        report = bcr_exact(weighted_c4(6, 6, 6, 6))
        assert (report.decision, report.optimum, report.k) == ("no", None, 32)

    def test_oracle_agreement_random(self):
        rng = random.Random(71)
        for _ in range(30):
            a, b, edges = random_connected_graph(rng, max_n=8, leaf_weights=True)
            g = BipartiteGraph(a, b, tuple(edges))
            oracle_value, _ = bcr_bruteforce(g)
            report = bcr_exact(g, 12)
            if oracle_value <= 12:
                assert report.optimum == oracle_value
                assert crossing_number_fast(report.witness) == oracle_value
            else:
                assert report.decision == "no"

    def test_component_additivity_against_oracle(self):
        rng = random.Random(73)
        for _ in range(15):
            a1, b1, e1 = random_connected_graph(rng, max_n=5)
            a2, b2, e2 = random_connected_graph(rng, max_n=4)
            union = BipartiteGraph(
                a1 + a2,
                b1 + b2,
                tuple(e1) + tuple((x + a1, y + b1, w) for x, y, w in e2),
            )
            part_sum = reference_bcr(a1, b1, e1) + reference_bcr(a2, b2, e2)
            report = bcr_exact(union, 16)
            if part_sum <= 16:
                assert report.optimum == part_sum

    def test_matches_decide_at_the_optimum_on_unions(self):
        # exact(g, K) answers like decide(g, min(opt, K)), witness included
        rng = random.Random(83)
        later_failures = 0
        for _ in range(110):
            g = random_union(rng, rng.randint(2, 4), max_n=6)
            optima = [value for _, value in component_optima(g)]
            opt = sum(optima)
            budgets = [opt, opt + 2] + ([opt - 1] if opt else [])
            for k_max in budgets:
                report = bcr_exact(g, k_max)
                want = bcr_decide(g, min(opt, k_max))
                got = (report.decision, report.optimum, report.k, report.method)
                assert got == (want.decision, want.optimum, want.k, want.method)
                assert report.witness == want.witness
                assert report.stats.components == len(optima)
                if opt > k_max:
                    assert (report.decision, report.k) == ("no", k_max)
                    prefix = [sum(optima[: i + 1]) for i in range(len(optima))]
                    if next(i for i, p in enumerate(prefix) if p > k_max) > 0:
                        later_failures += 1
                else:
                    assert (report.decision, report.optimum, report.k) == ("yes", opt, opt)
        # the budget must also run out in some component after the first
        assert later_failures >= 20

    def test_each_component_solved_once_from_its_lower_bound(self, monkeypatch):
        calls = []
        real = solver_mod._solve_component

        def counting(*args, **kwargs):
            calls.append(args[2])  # hi, the largest budget allowed
            return real(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "_solve_component", counting)
        c4s = build_graph(
            4, 4, [(0, 0), (0, 1), (1, 0), (1, 1), (2, 2), (2, 3), (3, 2), (3, 3)]
        )
        graphs = [c4s, k33()] + [
            random_union(random.Random(seed), 3, max_n=6) for seed in range(89, 99)
        ]
        for g in graphs:
            parts = component_optima(g)
            calls.clear()
            report = bcr_exact(g, 40)
            assert report.optimum == sum(value for _, value in parts)
            ceiling = len(parts) + sum(
                value - crossing_lower_bound(part.graph) for part, value in parts
            )
            assert len(calls) <= ceiling

    def test_setup_once_per_component(self, monkeypatch):
        # the ascent repeats only enumeration and pair search, not the
        # caterpillar test, merge, lower bound or the budget cap, which
        # counts the inversions of the merged graph's edges and builds no
        # identity drawing
        assert not hasattr(solver_mod, "identity_drawing")
        calls = {}
        setup = (
            "is_caterpillar_forest",
            "sibling_merge",
            "crossing_lower_bound",
            "weighted_inversions",
        )
        for name in setup:
            real = getattr(solver_mod, name)

            def counting(*args, real=real, name=name):
                calls[name] = calls.get(name, 0) + 1
                return real(*args)

            monkeypatch.setattr(solver_mod, name, counting)
        k23 = build_graph(2, 3, [(i, j) for i in range(2) for j in range(3)])
        graphs = [k33(), c12(), SPIDER, k23] + [
            random_union(random.Random(seed), 3, max_n=7) for seed in range(101, 111)
        ]
        ascents = 0
        for g in graphs:
            parts = [part.graph for part in split_components(g)]
            enumerated = sum(not is_caterpillar_forest(h) for h in parts)
            ascents += sum(bcr_exact(h, 40).optimum > crossing_lower_bound(h) for h in parts)
            calls.clear()
            assert bcr_exact(g, 40).decision == "yes"
            assert calls.get("is_caterpillar_forest") == len(parts)
            for name in setup[1:]:
                assert calls.get(name, 0) == enumerated, (name, calls)
        # some components take more than one budget to solve
        assert ascents >= 5

    def test_stats_add_up_over_the_ascent(self):
        # exact's counts are those of deciding each budget from the lower bound up
        rng = random.Random(107)
        graphs = [k33(), c12(), SPIDER]
        while len(graphs) < 15:
            a, b, edges = random_connected_graph(rng, max_n=9, leaf_weights=True)
            g = BipartiteGraph(a, b, tuple(edges))
            if not is_caterpillar_forest(g):
                graphs.append(g)
        for g in graphs:
            report = bcr_exact(g, 20)
            assert report.decision == "yes"
            decided = [bcr_decide(g, k).stats for k in range(crossing_lower_bound(g), report.optimum + 1)]
            for field in ("candidates_x", "candidates_y", "pairs_evaluated", "pruned"):
                want = sum(getattr(stats, field) for stats in decided)
                assert getattr(report.stats, field) == want, (g, field)

    def test_one_split_per_solve(self, monkeypatch):
        calls = []
        for module in (solver_mod, graph_mod):
            real = module.split_components

            def counting(g, real=real):
                calls.append(g)
                return real(g)

            monkeypatch.setattr(module, "split_components", counting)
        g = random_union(random.Random(37), 20, max_n=7)
        parts = [part.graph for part in split_components(g)]
        assert len(parts) == 20
        assert any(is_caterpillar_forest(h) for h in parts)
        assert not all(is_caterpillar_forest(h) for h in parts)
        calls.clear()
        report = bcr_exact(g, 200)
        assert report.decision == "yes"
        assert len(calls) == 1
        calls.clear()
        assert bcr_decide(g, report.optimum).decision == "yes"
        assert len(calls) == 1

    def test_isolated_vertices_skip_the_component_solver(self, monkeypatch):
        calls = []
        real = solver_mod._solve_component

        def counting(mr, *args):
            calls.append(mr)
            return real(mr, *args)

        monkeypatch.setattr(solver_mod, "_solve_component", counting)
        # one edge, then 24 isolated X vertices and 24 isolated Y vertices
        g = build_graph(25, 25, [(0, 0)])
        for report in (bcr_decide(g, 0), bcr_exact(g, 3)):
            assert (report.decision, report.optimum) == ("yes", 0)
            assert report.stats == solver_mod.SolveStats(49, 0, 0, 0, 0, 0)
            identity = tuple(range(25))
            assert (report.witness.fx.ranks, report.witness.fy.ranks) == (identity, identity)
        assert calls == []

    def test_only_cyclic_components_reach_the_component_solver(self, monkeypatch):
        calls = []
        real = solver_mod._solve_component

        def counting(mr, *args):
            calls.append(mr.graph.m)
            return real(mr, *args)

        monkeypatch.setattr(solver_mod, "_solve_component", counting)
        star4 = [(0, j) for j in range(4)]
        # spine x1 - y4 - x2, with sibling leaves y5, y6 on x1 and y7, y8 on x2
        caterpillar = [(1, 4), (1, 5), (1, 6), (2, 4), (2, 7), (2, 8)]
        cycle4 = [(5, 9), (5, 10), (6, 9), (6, 10)]
        # C6 on x7..x9 and y11..y13, with the tail x7 - y14 - x10 - y15
        cycle6 = [(7, 11), (7, 12), (8, 12), (8, 13), (9, 13), (9, 11)]
        tail = [(7, 14), (10, 14), (10, 15)]
        # x3, x4, x11, x12, y16 and y17 are isolated
        g = build_graph(13, 18, star4 + caterpillar + cycle4 + cycle6 + tail)
        assert len(split_components(g)) == 10
        for solve, k in ((bcr_decide, 3), (bcr_exact, 10)):
            report = solve(g, k)
            assert (report.decision, report.optimum, report.method) == ("yes", 3, "fpt-enum")
            assert calls == [4, 9]
            calls.clear()

    def test_empty_graph(self):
        report = bcr_exact(build_graph(0, 0, []), 5)
        assert (report.decision, report.optimum, report.k) == ("yes", 0, 0)
        assert report.stats.components == 0
        assert report.method == "fastpath"

    def test_isolated_vertices_only(self):
        g = build_graph(2, 3, [])
        report = bcr_exact(g, 0)
        assert (report.decision, report.optimum, report.k) == ("yes", 0, 0)
        assert report.stats.components == 5
        assert report.witness.graph == g
        assert crossing_number_fast(report.witness) == 0

    def test_threads_do_not_change_the_result(self):
        g = build_graph(
            3, 4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 2), (2, 3), (0, 3), (1, 0)]
        )
        single = bcr_exact(g, 12, threads=1)
        multi = bcr_exact(g, 12, threads=4)
        assert single.optimum == multi.optimum
        assert single.witness == multi.witness
        assert single.stats == multi.stats

    def test_stats_do_not_depend_on_threads(self):
        c4_tail = [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2), (2, 2), (2, 3), (3, 3), (3, 4)]
        graphs = [
            (build_graph(4, 5, c4_tail), 1),
            (build_graph(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)]), 2),
            (SPIDER, 1),
        ]
        for g, k in graphs:
            for decide in (bcr_decide, bcr_exact):
                single = decide(g, k, threads=1)
                double = decide(g, k, threads=2)
                assert single.stats == double.stats
                assert single.witness == double.witness

    def test_merge_handles_weighted_siblings(self):
        rng = random.Random(79)
        for _ in range(10):
            a, b, edges = inject_sibling_leaves(
                rng, random_connected_graph(rng, max_n=6), max_n=8
            )
            weighted = [
                (x, y, rng.randint(1, 3)) for x, y, w in edges
            ]
            deg_x = [0] * a
            deg_y = [0] * b
            for x, y, _ in weighted:
                deg_x[x] += 1
                deg_y[y] += 1
            weighted = [
                (x, y, w if deg_x[x] == 1 or deg_y[y] == 1 else 1)
                for x, y, w in weighted
            ]
            g = BipartiteGraph(a, b, tuple(weighted))
            want = reference_bcr(a, b, weighted)
            report = bcr_exact(g, 12)
            if want <= 12:
                assert report.optimum == want
            else:
                assert report.decision == "no"


def c8_leaf():
    """C8 with one X leaf on y0: sides 5 and 4, bcr 3."""
    edges = [(i, i) for i in range(4)] + [((i + 1) % 4, i) for i in range(4)]
    return build_graph(5, 4, edges + [(4, 0)])


class TestSmallerSideFirst:
    """Only the kernel's smaller side is walked, X on a tie."""

    def spy(self, monkeypatch):
        sides = []
        real = solver_mod.enumerate_candidates

        def spying(g, side, k, limits):
            sides.append(side)
            return real(g, side, k, limits)

        monkeypatch.setattr(solver_mod, "enumerate_candidates", spying)
        return sides

    def test_empty_first_stream_proves_no(self, monkeypatch):
        sides = self.spy(monkeypatch)
        # K_{2,4} has crossing number C(4, 2) = 6 and lower bound
        # m - n + 1 = 3; with the two X vertices in either order each pair
        # of Y vertices costs one crossing whichever way round, so at k = 5
        # the one-sided bound leaves no X layout
        k24 = build_graph(2, 4, [(i, j) for i in range(2) for j in range(4)])
        assert crossing_lower_bound(k24) == 3
        report = bcr_decide(k24, 5)
        assert sides == [Side.X]
        assert (report.decision, report.optimum, report.witness) == ("no", None, None)
        assert (report.stats.candidates_x, report.stats.candidates_y) == (0, 0)
        assert report.stats.pairs_evaluated == 0
        assert report.method == "fpt-enum"
        sides.clear()
        # the ascent from the lower bound 3 finds X candidates only at 6
        assert bcr_exact(k24, 8).optimum == 6
        assert sides == [Side.X] * 4
        sides.clear()
        # Y is the smaller side of K_{4,2}, and its stream is empty below 6
        report = bcr_decide(build_graph(4, 2, [(i, j) for i in range(4) for j in range(2)]), 5)
        assert sides == [Side.Y]
        assert (report.decision, report.stats.candidates_y) == ("no", 0)

    def test_only_the_smaller_side_is_walked(self, monkeypatch):
        sides = self.spy(monkeypatch)
        g = c8_leaf()
        report = bcr_decide(g, 3)
        assert sides == [Side.Y]
        assert (report.decision, report.optimum) == ("yes", 3)
        assert report.stats.candidates_x == 0
        # one second-side search per Y candidate: a tie may still win there
        assert report.stats.pairs_evaluated == report.stats.candidates_y > 0
        assert report.stats.pruned == 0
        assert report.witness == bcr_bruteforce(g)[1]
        sides.clear()
        c8 = build_graph(4, 4, [(i, i) for i in range(4)] + [((i + 1) % 4, i) for i in range(4)])
        report = bcr_decide(c8, 3)
        assert sides == [Side.X]
        assert report.stats.candidates_y == 0
        assert report.witness == bcr_bruteforce(c8)[1]


def heavy_c4(w):
    """C4 on x0, x1, y0, y1 plus pendant edges x1-y2 and x2-y1 of weight w."""
    return build_graph(3, 3, [(0, 0), (0, 1), (1, 0), (1, 1), (1, 2, w), (2, 1, w)])


@st.composite
def second_side_cases(draw):
    """A weighted graph with sides of at most 5, a side to order, a fixed
    layout of the other side and a bar (count, ranks) to beat."""
    a = draw(st.integers(1, 5))
    b = draw(st.integers(1, 5))
    cells = [(x, y) for x in range(a) for y in range(b)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)))
    weight = st.one_of(st.integers(1, 3), st.integers(1, 1 << 62))
    edges = [(x, y, draw(weight)) for x, y in chosen]
    side = draw(st.sampled_from([Side.X, Side.Y]))
    n, m = (a, b) if side is Side.X else (b, a)
    fixed = tuple(draw(st.permutations(range(m))))
    return a, b, edges, side, fixed, n


class TestPairSearch:
    """The exact second-side search, in Python integers for every weight."""

    def test_weight_magnitude_does_not_change_the_result(self):
        results = set()
        for w in (1, 1 << 26, 1 << 40, 1 << 60):
            g = heavy_c4(w)
            for report in (bcr_decide(g, 1), bcr_exact(g, 4)):
                witness = (report.witness.fx, report.witness.fy)
                results.add((report.decision, report.optimum, witness, report.stats))
        assert len(results) == 1
        decision, optimum, _, stats = results.pop()
        assert (decision, optimum) == ("yes", 1)
        # the first of the two X candidates meets the lower bound 1
        assert (stats.candidates_x, stats.pairs_evaluated, stats.pruned) == (2, 1, 1)

    def test_huge_weights_are_exact(self):
        g = heavy_c4(1 << 60)
        k = 1 << 60
        for report in (bcr_decide(g, k), bcr_exact(g, k)):
            assert (report.decision, report.optimum) == ("yes", 1)
            assert crossing_number_fast(report.witness) == 1

    @settings(max_examples=300, deadline=None)
    @given(case=second_side_cases(), data=st.data())
    def test_matches_brute_force(self, case, data):
        a, b, edges, side, fixed, n = case
        g = build_graph(a, b, edges)
        counts = {}
        for ranks in permutations(range(n)):
            fx, fy = (ranks, fixed) if side is Side.X else (fixed, ranks)
            counts[ranks] = reference_crossings(edges, fx, fy)
        cap = data.draw(
            st.one_of(
                st.integers(0, 64),
                st.sampled_from(sorted(set(counts.values()))),
                st.integers(0, 1 << 62),
            )
        )
        # () asks for a count below cap; a layout also lets a tie with it
        # win when the ranks come first
        beat = data.draw(st.one_of(st.just(()), st.permutations(range(n)).map(tuple)))
        spent = data.draw(st.integers(0, 100))
        found, total = solver_mod._best_second_order(
            g, side, fixed, (cap, beat), Limits(), spent
        )
        below = [(c, r) for r, c in counts.items() if (c, r) < (cap, beat)]
        assert found == (min(below) if below else None)
        assert total > spent


class TestAgainstTheScan:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(t=weighted_connected_graphs())
    def test_decide_and_exact_match_scan_bcr(self, t):
        a, b, edges = t
        g = BipartiteGraph(a, b, tuple(edges))
        opt = scan_bcr(a, b, edges)
        exact = bcr_exact(g, opt + 1)
        assert (exact.decision, exact.optimum) == ("yes", opt)
        assert crossing_number_fast(exact.witness) == opt
        yes = bcr_decide(g, opt)
        assert (yes.decision, yes.optimum) == ("yes", opt)
        assert (yes.witness.fx, yes.witness.fy) == (exact.witness.fx, exact.witness.fy)
        if opt:
            assert bcr_decide(g, opt - 1).decision == "no"
            assert bcr_exact(g, opt - 1).decision == "no"


class TestSelfCheck:
    SCRIPT = textwrap.dedent(
        """
        import sys
        from itertools import permutations

        import bicross.solver as solver
        from bicross import Side, build_graph, crossing_number_fast, drawing_from_ranks

        if not sys.flags.optimize:
            raise SystemExit("expected python -O")
        real = solver._best_second_order

        def wrong_order(h, side, fixed, bar, limits, spent):
            found, spent = real(h, side, fixed, bar, limits, spent)
            if found is None:
                return found, spent
            for ranks in permutations(range(h.side_count(side))):
                pair = (fixed, ranks) if side is Side.Y else (ranks, fixed)
                if crossing_number_fast(drawing_from_ranks(h, *pair)) != found[0]:
                    return (found[0], ranks), spent
            raise SystemExit("every order is optimal")

        solver._best_second_order = wrong_order
        c6 = build_graph(3, 3, [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)])
        for call in (lambda: solver.bcr_decide(c6, 3), lambda: solver.bcr_exact(c6, 3)):
            try:
                call()
            except solver.SelfCheckError as err:
                print("caught:", err)
            else:
                raise SystemExit("a wrong witness went unnoticed")
        """
    )

    def test_a_witness_that_recounts_wrong_raises(self, monkeypatch):
        # the path x0 - y0 - x1 - y1 has bcr 0; x1 left of x0 crosses (x0, y0) and (x1, y1)
        path = build_graph(2, 2, [(0, 0), (1, 0), (1, 1)])
        crossed = drawing_from_ranks(path, (1, 0), (0, 1))
        assert crossing_number_fast(crossed) == 1
        monkeypatch.setattr(solver_mod, "_compose_drawing", lambda g, parts: crossed)
        with pytest.raises(solver_mod.SelfCheckError, match="inconsistent report"):
            bcr_decide(path, 0)

    def test_an_optimum_without_orders_raises(self, monkeypatch):
        real = solver_mod._solve_component

        def orderless(mr, lb, hi, ascend, limits):
            value, _, stats = real(mr, lb, hi, ascend, limits)
            return value, None, stats

        monkeypatch.setattr(solver_mod, "_solve_component", orderless)
        with pytest.raises(solver_mod.SelfCheckError, match="came without a witness"):
            bcr_decide(c4(), 1)

    def test_wrong_witness_raises_under_python_O(self):
        src = str(Path(solver_mod.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-O", "-c", self.SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert result.returncode == 0, result.stdout + result.stderr
        assert result.stdout.count("caught:") == 2
