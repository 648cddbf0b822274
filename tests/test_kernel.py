"""The pendant-path kernel: its shape, its witness lift, and oracle equivalence.

A pendant path v = p0 - ... - pL (inner vertices of degree 2, pL a leaf,
deg v >= 3) is cut to 2t + 2 edges when the solver searches budget t.
The oracle for the equivalence tests is scan_bcr, a full scan of every
drawing; it never sees the kernel.
"""

from __future__ import annotations

import random
import time

import pytest

import bicross.graph as graph_mod
import bicross.solver as solver_mod
from bicross import (
    BipartiteGraph,
    Drawing,
    Side,
    bcr_bruteforce,
    bcr_decide,
    bcr_exact,
    crossing_lower_bound,
    crossing_number_fast,
    drawing_from_ranks,
    enumerate_candidates,
    is_caterpillar_forest,
    split_components,
)
from bicross.drawing import layout_from_sequence
from util import (
    connected_graph_classes,
    has_sibling_pair,
    is_connected_triple,
    random_connected_graph,
    reference_bcr,
    scan_bcr,
    with_pendant_path,
)

C4 = (2, 2, [(0, 0, 1), (0, 1, 1), (1, 0, 1), (1, 1, 1)])


def c4_tail(length):
    """C4 with a pendant path of length edges at x0."""
    return BipartiteGraph(*with_pendant_path(C4, True, 0, length))


def spider(legs):
    """Centre x0 with one path of each length in legs."""
    t = (1, 0, [])
    for length in legs:
        t = with_pendant_path(t, True, 0, length)
    return BipartiteGraph(*t)


def kernel_of(g, budget):
    return graph_mod._pendant_path_kernel(g, budget)


def lift_to(h, kernel, ranks):
    """The drawing of h, which has no sibling pairs, that _lift_orders makes
    from the rank pair of a drawing of kernel."""
    mr = graph_mod.sibling_merge(h)
    assert mr.graph == h
    xs, ys = solver_mod._lift_orders(mr, kernel, ranks)
    return Drawing(h, layout_from_sequence(Side.X, xs), layout_from_sequence(Side.Y, ys))


class TestKernelShape:
    def test_c4_tail_is_cut_to_2t_plus_2(self):
        g = c4_tail(10)
        for budget, kept in ((1, 4), (2, 6), (3, 8)):
            kernel = kernel_of(g, budget)
            assert (kernel.keep, kernel.longest) == (kept, 10)
            assert kernel.graph.m == 4 + kept
            ((side, path),) = kernel.paths
            assert len(path) == 11 and path[0] == 0
            # the tail's vertices come last on each side, so the kept ones are a prefix
            assert kernel.x_vertices == tuple(range(kernel.graph.x_count))
            assert kernel.y_vertices == tuple(range(kernel.graph.y_count))

    def test_short_paths_leave_the_graph_alone(self):
        g = c4_tail(4)
        kernel = kernel_of(g, 1)
        assert kernel.graph is g and kernel.paths == ()
        assert kernel.longest == 4
        assert kernel.x_vertices == tuple(range(g.x_count))
        assert kernel.y_vertices == tuple(range(g.y_count))

    def test_every_long_leg_is_cut(self):
        g = spider((8, 2, 6, 5))
        kernel = kernel_of(g, 1)
        assert sorted(len(path) - 1 for _, path in kernel.paths) == [5, 6, 8]
        assert kernel.longest == 8
        assert kernel.graph.m == 4 + 2 + 4 + 4

    def test_kernel_keeps_the_invariants(self):
        # connected, sibling-free, not a caterpillar, same m - n + 1; the
        # kernel's edges are the input's edges among the kept vertices
        rng = random.Random(41)
        checked = 0
        while checked < 60:
            a, b, edges = random_connected_graph(rng, max_n=7, leaf_weights=True)
            on_x = rng.random() < 0.5
            v = rng.randrange(a if on_x else b)
            t = with_pendant_path((a, b, edges), on_x, v, rng.randint(5, 12), rng.randint(1, 3))
            h = graph_mod.sibling_merge(BipartiteGraph(*t)).graph
            if is_caterpillar_forest(h):
                continue
            for budget in (1, 2, 3):
                kernel = kernel_of(h, budget)
                k = kernel.graph
                assert is_connected_triple(k.x_count, k.y_count, k.edges)
                assert not has_sibling_pair(k.x_count, k.y_count, k.edges)
                assert not is_caterpillar_forest(k)
                assert crossing_lower_bound(k) == crossing_lower_bound(h)
                mapped = {
                    (kernel.x_vertices[x], kernel.y_vertices[y], w) for x, y, w in k.edges
                }
                kept_x, kept_y = set(kernel.x_vertices), set(kernel.y_vertices)
                assert mapped == {
                    (x, y, w) for x, y, w in h.edges if x in kept_x and y in kept_y
                }
                assert all(len(path) - 1 > kernel.keep for _, path in kernel.paths)
            checked += 1


class TestLift:
    def test_crossed_e2_lifts_from_a_later_edge(self):
        # kernel drawings within budget whose e2 is crossed: the ladder must
        # start at the first uncrossed edge after it, j > 2, or the regrown
        # edges would cross what e2 crosses
        h = spider((9, 2, 2))
        budget = 2
        kernel = kernel_of(h, budget)
        ((_, path),) = kernel.paths
        k = kernel.graph
        inv_x = {v: i for i, v in enumerate(kernel.x_vertices)}
        inv_y = {v: i for i, v in enumerate(kernel.y_vertices)}
        # the leg starts at x0, so p1, p3, ... are on Y and p2, p4, ... on X
        x, y = inv_x[path[2]], inv_y[path[1]]
        # every drawing within budget is a pair of candidate layouts
        xs = enumerate_candidates(k, Side.X, budget)
        ys = enumerate_candidates(k, Side.Y, budget)
        lifted = []
        for fx in xs:
            for fy in ys:
                if not any((fx[x] - fx[x2]) * (fy[y] - fy[y2]) < 0 for x2, y2, _ in k.edges):
                    continue
                d = drawing_from_ranks(k, fx, fy)
                c = crossing_number_fast(d)
                if c <= budget:
                    up = lift_to(h, kernel, (fx, fy))
                    lifted.append((crossing_number_fast(up), c))
        assert len(lifted) == 8
        assert all(got == want for got, want in lifted)

    def test_every_kept_edge_crossed_raises(self):
        # at budget 0 a cut path keeps e1 and e2 only, so a kernel drawing
        # that crosses e2 leaves the ladder no edge to start from
        h = c4_tail(6)
        mr = graph_mod.sibling_merge(h)
        kernel = kernel_of(mr.graph, 0)
        ((_, path),) = kernel.paths
        assert path[:3] == (0, 2, 2) and kernel.keep == 2
        # x2 leftmost and y2 rightmost: e2 = (y2, x2) crosses (x0, y0)
        ranks = ((1, 2, 0), (0, 1, 2))
        with pytest.raises(solver_mod.SelfCheckError, match="every kept edge"):
            solver_mod._lift_orders(mr, kernel, ranks)

    def test_lift_of_an_uncut_kernel_is_the_drawing(self):
        h = c4_tail(3)
        kernel = kernel_of(h, 1)
        assert not kernel.paths
        d = drawing_from_ranks(h, (2, 0, 1), (1, 3, 0, 2))
        assert lift_to(h, kernel, (d.fx.ranks, d.fy.ranks)) == d


class TestKernelSolve:
    def test_growth_in_the_tail_changes_nothing(self):
        # C4 plus an L-edge tail has bcr 1; at k = 1 every L >= 5 searches C4 + 4
        reports = {}
        for length in (8, 24, 80, 400):
            g = c4_tail(length)
            start = time.perf_counter()
            reports[length] = bcr_decide(g, 1)
            elapsed = time.perf_counter() - start
            assert (reports[length].decision, reports[length].optimum) == ("yes", 1)
            assert elapsed < 1.0, (length, elapsed)
        stats = {r.stats for r in reports.values()}
        assert len(stats) == 1
        assert stats.pop().kernel_edges == 8

    def test_decide_searches_again_at_the_optimum(self, monkeypatch):
        # C4 (x1, x2 and y0, y1) with a leaf on x1 and on x2 and a 9-edge
        # pendant path at y0: bcr 2 and lower bound 1.  At k = 3 the path
        # is cut to 8 edges, at the optimum 2 to 6: the witness comes from
        # the kernel at 2, as in exact, whose ascent starts at 1
        budgets = []
        real = solver_mod._search

        def spying(h, budget, lb, limits):
            budgets.append((h.m, budget))
            return real(h, budget, lb, limits)

        monkeypatch.setattr(solver_mod, "_search", spying)
        core = (3, 4, [(0, 0, 1), (1, 0, 1), (1, 1, 1), (1, 2, 1), (2, 0, 1), (2, 1, 1), (2, 3, 1)])
        assert scan_bcr(*core) == 2
        g = BipartiteGraph(*with_pendant_path(core, True, 0, 8))
        assert crossing_lower_bound(g) == 1
        report = bcr_decide(g, 3)
        assert budgets == [(14, 3), (12, 2)]
        assert (report.optimum, report.stats.kernel_edges) == (2, 12)
        budgets.clear()
        exact = bcr_exact(g, 10)
        assert budgets == [(10, 1), (12, 2)]
        assert exact.witness == report.witness == bcr_decide(g, 2).witness

    @pytest.mark.parametrize("tight", [None, 2], ids=["no-pair", "other-count"])
    def test_a_tight_kernel_that_loses_the_optimum_raises(self, monkeypatch, tight):
        # C4 with a 12-edge tail at k = 3 finds 1, then searches the kernel
        # at 1 again; that search comes back with no pair, or another count
        real = solver_mod._search

        def losing(h, budget, lb, limits):
            best, ranks, stats = real(h, budget, lb, limits)
            if budget == 3:
                return best, ranks, stats
            return (best, None, stats) if tight is None else (tight, ranks, stats)

        monkeypatch.setattr(solver_mod, "_search", losing)
        with pytest.raises(solver_mod.SelfCheckError, match="lost the optimum"):
            bcr_decide(c4_tail(12), 3)

    @pytest.mark.parametrize("length, builds", [(4, 1), (6, 1), (7, 2), (8, 2)])
    def test_tight_kernel_built_only_when_smaller(self, monkeypatch, length, builds):
        # C6 + tail has optimum 2: a decision at 3 rebuilds the kernel at 2
        # only when the tail is longer than 2 * 2 + 2 edges
        built = []
        real = solver_mod._pendant_path_kernel

        def spying(h, budget):
            built.append(budget)
            return real(h, budget)

        monkeypatch.setattr(solver_mod, "_pendant_path_kernel", spying)
        c6 = (3, 3, [(i, i, 1) for i in range(3)] + [((i + 1) % 3, i, 1) for i in range(3)])
        g = BipartiteGraph(*with_pendant_path(c6, True, 0, length))
        report = bcr_decide(g, 3)
        assert built == [3, 2][:builds]
        assert report.optimum == 2
        assert report.witness == bcr_decide(g, 2).witness

    def test_witness_does_not_depend_on_the_budget_on_unions(self):
        # decide(g, k) hands the first component all of k, more than its
        # optimum whenever a later component needs a crossing
        rng = random.Random(61)
        cut = 0
        for _ in range(12):
            parts = []
            while len(parts) < 3:
                a, b, edges = random_connected_graph(rng, max_n=5, leaf_weights=True)
                on_x = rng.random() < 0.5
                v = rng.randrange(a if on_x else b)
                part = with_pendant_path((a, b, edges), on_x, v, rng.randint(5, 10))
                if not is_caterpillar_forest(BipartiteGraph(part[0], part[1], tuple(part[2]))):
                    parts.append(part)
            a = b = 0
            edges = []
            for pa, pb, pe in parts:
                edges += [(x + a, y + b, w) for x, y, w in pe]
                a += pa
                b += pb
            g = BipartiteGraph(a, b, tuple(edges))
            exact = bcr_exact(g, 40)
            opt = exact.optimum
            assert opt is not None
            at_opt = bcr_decide(g, opt)
            assert at_opt.witness == bcr_decide(g, opt + 2).witness == exact.witness
            for k_max in (opt - 1, opt, opt + 2):
                if k_max < 0:
                    continue
                report = bcr_exact(g, k_max)
                want = bcr_decide(g, min(opt, k_max))
                got = (report.decision, report.optimum, report.k, report.method, report.witness)
                assert got == (want.decision, want.optimum, want.k, want.method, want.witness)
            for part in split_components(g):
                h = graph_mod.sibling_merge(part.graph).graph
                value = bcr_exact(part.graph, 40).optimum
                cut += bool(kernel_of(h, value).paths)
        assert cut >= 30


def growth(on_x, length):
    """Vertices a path of length edges at a vertex on X (else Y) adds to X and Y."""
    odd, even = (length + 1) // 2, length // 2
    return (even, odd) if on_x else (odd, even)


def tail_cases():
    """Every connected class with sides <= 4, with a 3-8-edge pendant path.

    The path hangs off a vertex of largest degree on X (the lowest index
    on a tie), and in a second graph off one on Y, whenever both sides
    then stay within 6, so that scan_bcr can check it.  Each class gets,
    per side, every length from 5 to 8 that fits (the lengths a budget of
    1 or 2 cuts), or else the longest length from 3 that fits.
    """
    for a, b, edges in connected_graph_classes(4, 4):
        degree = {True: [0] * a, False: [0] * b}
        for x, y, _ in edges:
            degree[True][x] += 1
            degree[False][y] += 1
        for on_x in (True, False):
            hub = max(range(len(degree[on_x])), key=lambda v: (degree[on_x][v], -v))
            fits = [
                length
                for length in range(3, 9)
                if max(a + growth(on_x, length)[0], b + growth(on_x, length)[1]) <= 6
            ]
            for length in fits:
                if length >= 5 or length == fits[-1]:
                    yield with_pendant_path((a, b, edges), on_x, hub, length)


K_CAP = 4  # every tail of at most 8 edges is cut only at budgets 1 and 2


def check_against_oracle(t, ks):
    """Decide at every k in ks and exact at ks[-1], against scan_bcr.

    Returns the optimum.  A "yes" witness must be exact's witness, so the
    same at every budget.
    """
    a, b, edges = t
    want = scan_bcr(a, b, edges)
    g = BipartiteGraph(a, b, tuple(edges))
    exact = bcr_exact(g, ks[-1])
    assert exact.optimum == (want if want <= ks[-1] else None), t
    for k in ks:
        report = bcr_decide(g, k)
        assert report.decision == ("yes" if want <= k else "no"), (t, k)
        if report.decision == "yes":
            assert report.optimum == want
            assert report.witness == exact.witness, (t, k)
    return want


def test_scan_oracle_matches_the_pair_loops():
    # scan_bcr stands in for bcr_bruteforce, which takes seconds on 6 x 6
    rng = random.Random(43)
    for _ in range(60):
        a, b, edges = random_connected_graph(rng, max_n=8, max_side=5, leaf_weights=True)
        want = scan_bcr(a, b, edges)
        assert want == reference_bcr(a, b, edges)
        assert want == bcr_bruteforce(BipartiteGraph(a, b, tuple(edges)))[0]


def cut_at_some_budget(g, ks):
    """Whether the solver searches a kernel with a cut path at some k in ks."""
    if is_caterpillar_forest(g):
        return False
    h = graph_mod.sibling_merge(g).graph
    return any(kernel_of(h, k).paths for k in ks if k >= max(1, crossing_lower_bound(h)))


def test_oracle_equivalence_exhaustive_classes_with_tails():
    graphs = cut = 0
    ks = list(range(K_CAP + 1))
    for t in tail_cases():
        check_against_oracle(t, ks)
        graphs += 1
        cut += cut_at_some_budget(BipartiteGraph(t[0], t[1], tuple(t[2])), ks)
    assert graphs >= 600
    assert cut >= 60


def test_oracle_equivalence_random_with_tails():
    # non-caterpillars only; the tail hangs off a random vertex of a side
    # that keeps both sides within 6
    rng = random.Random(47)
    graphs = cut = 0
    while graphs < 225:
        a, b, edges = random_connected_graph(rng, max_n=6, leaf_weights=True)
        length = rng.randint(3, 8)
        sides = [True, False]
        rng.shuffle(sides)
        for on_x in sides:
            grow_a, grow_b = growth(on_x, length)
            if max(a + grow_a, b + grow_b) <= 6:
                break
        else:
            continue
        v = rng.randrange(a if on_x else b)
        t = with_pendant_path((a, b, edges), on_x, v, length, rng.randint(1, 3))
        g = BipartiteGraph(t[0], t[1], tuple(t[2]))
        if is_caterpillar_forest(g):
            continue  # settled before the kernel; most small random trees are
        opt = scan_bcr(*t)
        ks = list(range(opt + 3))
        check_against_oracle(t, ks)
        graphs += 1
        cut += cut_at_some_budget(g, ks)
    assert cut >= 90


class TestCrossableTable:
    """One pair_terms table per kernel graph, of the walked side, read by the
    candidate walk and the second-side search."""

    def test_one_table_across_the_ascent(self, built_tables):
        # C6 has no pendant path, so budgets 1 and 2 search the same kernel
        c6 = BipartiteGraph(3, 3, tuple((i, j % 3, 1) for i in range(3) for j in (i, i + 1)))
        report = bcr_exact(c6, 10)
        assert report.optimum == 2
        assert report.stats.candidates_x > 0
        assert built_tables == [(6, Side.X)]

    def test_the_tight_kernel_builds_its_own(self, built_tables):
        # the kernel at 3 keeps 8 tail edges; the one at the optimum 1 keeps 4
        report = bcr_decide(c4_tail(12), 3)
        assert (report.decision, report.optimum) == ("yes", 1)
        assert built_tables == [(4 + 8, Side.X), (4 + 4, Side.X)]
