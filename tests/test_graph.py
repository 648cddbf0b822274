"""Graph model, components, sibling merge, bounds, caterpillar test."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicross import (
    BipartiteGraph,
    GraphError,
    Side,
    bcr_decide,
    bcr_exact,
    build_graph,
    crossing_lower_bound,
    is_caterpillar_forest,
    sibling_merge,
    split_components,
)
from bicross.graph import _pendant_path_kernel
from util import (
    connected_graph_classes,
    exhaustive_connected_graphs,
    has_sibling_pair,
    inject_sibling_leaves,
    is_connected_triple,
    random_connected_graph,
    random_disconnected_graph,
    reference_bcr,
    reference_crossings,
    reference_pair_terms,
    scan_bcr,
    with_pendant_path,
)


def c4() -> BipartiteGraph:
    return build_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])


def star(leaves: int) -> BipartiteGraph:
    return build_graph(1, leaves, [(0, j) for j in range(leaves)])


# subdivision of the 3-star: center x0, each arm x0-y_i-x_{i+1}
SPIDER = (4, 3, [(0, 0), (0, 1), (0, 2), (1, 0), (2, 1), (3, 2)])


def disconnected_graphs() -> list[BipartiteGraph]:
    """200 seeded graphs with two or more components, plus fixed cases:
    isolated vertices on one or both sides and an empty side."""
    rng = random.Random(23)
    graphs = [
        build_graph(3, 0, []),
        build_graph(0, 2, []),
        build_graph(3, 3, [(0, 0), (1, 1)]),  # x2 and y2 isolated
        build_graph(2, 3, [(0, 0), (0, 1), (1, 0), (1, 1)]),  # C4 and y2
    ]
    for _ in range(200):
        a, b, edges = random_disconnected_graph(rng)
        graphs.append(BipartiteGraph(a, b, tuple(edges)))
    return graphs


def isolated(g: BipartiteGraph) -> tuple[bool, bool]:
    """Whether g has an isolated X vertex, and an isolated Y vertex."""
    return not all(g.x_adj), not all(g.y_adj)


class TestBuildGraph:
    def test_c4(self):
        g = c4()
        assert (g.x_count, g.y_count, g.m) == (2, 2, 4)
        assert g.x_adj == ((0, 1), (0, 1))

    def test_star(self):
        g = star(5)
        assert g.m == 5
        assert g.y_adj == ((0,),) * 5

    def test_duplicate_edge_rejected(self):
        with pytest.raises(GraphError, match="duplicate edge between x0 and y0"):
            build_graph(1, 1, [(0, 0, 1), (0, 0, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError, match="out of range"):
            build_graph(1, 1, [(0, 1)])
        with pytest.raises(GraphError, match="out of range"):
            build_graph(2, 2, [(2, 0)])

    @pytest.mark.parametrize(
        "call,fragment",
        [
            (lambda: BipartiteGraph(-1, 2), "vertex counts must be non-negative"),
            (lambda: BipartiteGraph(2, 2, ((0, 0),)), r"edge \(0, 0\) is not an \(x, y, w"),
            (lambda: build_graph(2, 2, [(0,)]), r"edge \(0,\) is not \(x, y\) or \(x, y, w"),
            (lambda: build_graph(2, 2, [(0, 0, 1, 1)]), r"edge \(0, 0, 1, 1\) is not"),
        ],
        ids=["negative count", "pair edge", "1-item", "4-item"],
    )
    def test_malformed_counts_and_edges_rejected(self, call, fragment):
        with pytest.raises(GraphError, match=fragment):
            call()

    def test_zero_weight_rejected(self):
        with pytest.raises(GraphError, match="weight"):
            build_graph(1, 1, [(0, 0, 0)])

    def test_float_weight_rejected(self):
        with pytest.raises(GraphError, match="integer"):
            build_graph(2, 2, [(0, 0, 1.5), (0, 1), (1, 0), (1, 1)])

    def test_float_index_rejected(self):
        with pytest.raises(GraphError, match="integer"):
            build_graph(2, 2, [(0.0, 0), (0, 1), (1, 0), (1, 1)])
        with pytest.raises(GraphError, match="integer"):
            BipartiteGraph(2, 2.0, ((0, 0, 1),))

    def test_bool_rejected(self):
        # bool is an int subclass, so True would otherwise read as index or weight 1
        with pytest.raises(GraphError, match="integer"):
            build_graph(2, 2, [(True, 0), (0, 1)])
        with pytest.raises(GraphError, match="integer"):
            build_graph(2, 2, [(0, 0, True), (0, 1)])
        with pytest.raises(GraphError, match="integer"):
            BipartiteGraph(True, 1)

    def test_weight_defaults_to_one(self):
        g = build_graph(1, 2, [(0, 0), (0, 1, 4)])
        assert g.weight == {(0, 0): 1, (0, 1): 4}


@st.composite
def weighted_edge_sets(draw):
    """(x_count, y_count, edges) with up to 6 vertices a side; some weights near 2^60."""
    a = draw(st.integers(0, 6))
    b = draw(st.integers(0, 6))
    cells = [(x, y) for x in range(a) for y in range(b)]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True)) if cells else []
    weight = st.one_of(
        st.integers(1, 3), st.integers((1 << 60) - 4, (1 << 60) + 4), st.integers(1, 1 << 62)
    )
    return a, b, [(x, y, draw(weight)) for x, y in chosen]


def reference_terms(g: BipartiteGraph, side: Side) -> list[tuple[int, int, int, int, int]]:
    return reference_pair_terms(g.edges, side is Side.X, g.side_count(side.other))


class TestCrossablePairs:
    @settings(max_examples=300, deadline=None)
    @given(t=weighted_edge_sets())
    def test_matches_a_brute_force(self, t):
        a, b, edges = t
        g = BipartiteGraph(a, b, tuple(edges))
        for side in (Side.X, Side.Y):
            assert list(g.pair_terms(side)) == reference_terms(g, side)
            assert g.pair_terms(side) is g.pair_terms(side)  # built once, then cached
            assert g.crossable_pair_count == len(g.pair_terms(side))

    def test_count_needs_no_table(self, built_tables):
        g = build_graph(46, 46, [(x, y) for x in range(46) for y in range(46)])
        assert g.crossable_pair_count == 2_142_450  # C(2116, 2) - 92 * C(46, 2)
        assert built_tables == []

    def test_derived_graphs_match_a_brute_force(self):
        # split and merge build their graphs without __post_init__
        rng = random.Random(71)
        for _ in range(60):
            a, b, edges = random_disconnected_graph(rng)
            g = BipartiteGraph(a, b, tuple(edges))
            for h in [part.graph for part in split_components(g)] + [sibling_merge(g).graph]:
                for side in (Side.X, Side.Y):
                    assert list(h.pair_terms(side)) == reference_terms(h, side)

    def test_c4(self, built_tables):
        # only the two diagonal pairs have four distinct endpoints; each
        # side's pair {0, 1} is p = 1, and the two terms cancel, as C4
        # crosses once in either order
        g = c4()
        for _ in range(2):
            assert g.pair_terms(Side.X) == ((0, 1, 1, -1, 1), (0, 1, 1, 1, 1))
            assert g.pair_terms(Side.Y) == ((0, 1, 1, -1, 1), (1, 0, 1, -1, 1))
        assert built_tables == [(4, Side.X), (4, Side.Y)]  # once per side

    def test_terms_sum_to_the_crossing_differences(self):
        # under a full layout of side, each pair adds e or -e at p, and the
        # sums are c_uv - c_vu for every pair u < v of the other side
        rng = random.Random(29)
        checked = 0
        for _ in range(200):
            a, b, edges = random_connected_graph(rng, max_n=9)
            edges = [(x, y, rng.randint(1, 4)) for x, y, _ in edges]
            g = BipartiteGraph(a, b, tuple(edges))
            for side in (Side.X, Side.Y):
                own, n = g.side_count(side), g.side_count(side.other)
                ranks = rng.sample(range(own), own)
                diff = [0] * (n * n)
                for x, z, p, e, _ in g.pair_terms(side):
                    diff[p] += e if ranks[x] < ranks[z] else -e
                for u in range(n):
                    for v in range(u + 1, n):
                        at = [edge for edge in edges if edge[1 if side is Side.X else 0] in (u, v)]
                        placed = (ranks, {u: 0, v: 1}), (ranks, {v: 0, u: 1})
                        if side is Side.Y:
                            placed = tuple((fy, fx) for fx, fy in placed)
                        c_uv, c_vu = (reference_crossings(at, *fs) for fs in placed)
                        assert diff[u * n + v] == c_uv - c_vu, (edges, side, ranks)
                        checked += 1
        assert checked >= 1400


class TestComponents:
    def test_two_disjoint_edges(self):
        g = build_graph(2, 2, [(0, 0), (1, 1)])
        comps = [p.graph for p in split_components(g)]
        assert len(comps) == 2
        assert all(c.m == 1 and c.n == 2 for c in comps)

    def test_connected_c4_is_identity(self):
        assert [p.graph for p in split_components(c4())] == [c4()]

    def test_star_plus_isolated_y(self):
        g = build_graph(1, 4, [(0, j) for j in range(3)])  # y3 isolated
        parts = split_components(g)
        assert len(parts) == 2
        assert parts[0].graph.m == 3 and parts[0].x_vertices == (0,)
        assert parts[1].graph.n == 1 and parts[1].y_vertices == (3,)

    def test_ordering_by_smallest_original_index(self):
        # x0 with y1 forms one component, x1 with y0 the other
        g = build_graph(2, 2, [(0, 1), (1, 0)])
        parts = split_components(g)
        assert parts[0].x_vertices == (0,) and parts[0].y_vertices == (1,)
        assert parts[1].x_vertices == (1,) and parts[1].y_vertices == (0,)

    def test_partition_preserves_vertices_and_edges(self):
        rng = random.Random(7)
        for _ in range(40):
            a, b, edges = random_connected_graph(rng, extra_edge_prob=0.15)
            # punch the graph apart by dropping some edges
            kept = [e for e in edges if rng.random() < 0.7]
            g = BipartiteGraph(a, b, tuple(kept))
            parts = split_components(g)
            xs = sorted(x for p in parts for x in p.x_vertices)
            ys = sorted(y for p in parts for y in p.y_vertices)
            assert xs == list(range(a)) and ys == list(range(b))
            back = sorted(
                (p.x_vertices[x], p.y_vertices[y], w)
                for p in parts
                for x, y, w in p.graph.edges
            )
            assert back == sorted(g.edges)

    def test_matches_a_bfs_reference(self):
        # components numbered by a BFS seeded at x0, x1, ..., then y0, y1, ...
        def reference(g):
            adj = [[] for _ in range(g.n)]
            for x, y, _ in g.edges:
                adj[x].append(g.x_count + y)
                adj[g.x_count + y].append(x)
            seen = [False] * g.n
            parts = []
            for seed in range(g.n):
                if seen[seed]:
                    continue
                seen[seed] = True
                members, queue = [seed], [seed]
                while queue:
                    v = queue.pop()
                    for w in adj[v]:
                        if not seen[w]:
                            seen[w] = True
                            members.append(w)
                            queue.append(w)
                xs = sorted(v for v in members if v < g.x_count)
                ys = sorted(v - g.x_count for v in members if v >= g.x_count)
                lx = {x: i for i, x in enumerate(xs)}
                ly = {y: i for i, y in enumerate(ys)}
                edges = sorted(
                    (lx[x], ly[y], w) for x, y, w in g.edges if x in lx
                )
                parts.append((tuple(xs), tuple(ys), edges))
            return parts

        rng = random.Random(31)
        graphs = disconnected_graphs()
        for _ in range(100):
            a, b, edges = random_disconnected_graph(rng, max_block_side=4, edge_prob=0.4)
            graphs.append(BipartiteGraph(a, b, tuple(edges)))
        for g in graphs:
            got = [
                (p.x_vertices, p.y_vertices, list(p.graph.edges))
                for p in split_components(g)
            ]
            assert got == reference(g)
            for p in split_components(g):
                assert (p.graph.x_count, p.graph.y_count) == (len(p.x_vertices), len(p.y_vertices))
        assert sum(isolated(g) == (True, True) for g in graphs) >= 40

    def test_is_connected(self):
        assert c4().component_count == 1
        assert build_graph(2, 2, [(0, 0), (1, 1)]).component_count == 2
        assert build_graph(1, 0, []).component_count == 1
        assert build_graph(0, 0, []).component_count == 0
        graphs = disconnected_graphs()
        for g in graphs:
            connected = is_connected_triple(g.x_count, g.y_count, g.edges)
            assert connected == (g.component_count <= 1) == (len(split_components(g)) <= 1)
        # the inputs cover isolated vertices on each side and empty sides
        assert sum(isolated(g) == (True, True) for g in graphs) >= 20
        assert sum(0 in (g.x_count, g.y_count) for g in graphs) >= 10


class TestDerivedGraphs:
    """split_components and sibling_merge skip re-validation of their output."""

    def graphs(self) -> list[BipartiteGraph]:
        rng = random.Random(29)
        connected = []
        for _ in range(100):
            a, b, edges = random_connected_graph(rng, leaf_weights=True)
            connected.append(BipartiteGraph(a, b, tuple(edges)))
            a, b, edges = inject_sibling_leaves(rng, random_connected_graph(rng, max_n=7))
            connected.append(BipartiteGraph(a, b, tuple(edges)))
        return connected + disconnected_graphs()

    def test_equal_to_validated_rebuilds(self):
        graphs = self.graphs()
        merged = [sibling_merge(g).graph for g in graphs]
        derived = list(merged)
        for g in graphs:
            parts = [part.graph for part in split_components(g)]
            derived += parts + [sibling_merge(h).graph for h in parts]
        for h in derived:
            rebuilt = BipartiteGraph(h.x_count, h.y_count, h.edges)
            assert h == rebuilt
            assert type(h.edges) is tuple and all(type(e) is tuple for e in h.edges)
            assert (h.x_adj, h.y_adj, h.weight) == (rebuilt.x_adj, rebuilt.y_adj, rebuilt.weight)
        # the inputs do exercise both: leaves were merged, components split off
        assert sum(h.m < g.m for g, h in zip(graphs, merged)) >= 50
        assert len(derived) > 3 * len(graphs)


def sparse_union(rng) -> BipartiteGraph:
    """Stars centred on either side, lone edges, isolated vertices and small
    connected blocks, side by side, with the labels of each side shuffled."""
    parts = []
    for _ in range(rng.randint(1, 8)):
        kind = rng.randrange(5)
        if kind == 0:
            leaves = rng.randint(2, 5)
            if rng.random() < 0.5:
                parts.append((1, leaves, [(0, y, rng.randint(1, 3)) for y in range(leaves)]))
            else:
                parts.append((leaves, 1, [(x, 0, 1) for x in range(leaves)]))
        elif kind == 1:
            parts.append((1, 1, [(0, 0, rng.randint(1, 3))]))
        elif kind == 2:
            parts.append((1, 0, []) if rng.random() < 0.5 else (0, 1, []))
        else:
            parts.append(random_connected_graph(rng, max_n=7, leaf_weights=True))
    a = b = 0
    edges = []
    for pa, pb, pe in parts:
        edges += [(a + x, b + y, w) for x, y, w in pe]
        a, b = a + pa, b + pb
    px, py = rng.sample(range(a), a), rng.sample(range(b), b)
    return BipartiteGraph(a, b, tuple((px[x], py[y], w) for x, y, w in edges))


class TestSplitViews:
    """split_components hands each component its adjacency and connectivity,
    and the graphs derived from a component keep the connectivity."""

    VIEWS = ("x_adj", "y_adj", "component_count")

    def graphs(self) -> list[BipartiteGraph]:
        rng = random.Random(43)
        return [sparse_union(rng) for _ in range(300)]

    def connected(self) -> list[BipartiteGraph]:
        """Inputs that the split copies in one pass: every class with sides
        up to 3, then seeded random connected graphs."""
        rng = random.Random(47)
        triples = list(connected_graph_classes(3, 3))
        triples += [random_connected_graph(rng, leaf_weights=True) for _ in range(100)]
        return [BipartiteGraph(a, b, tuple(edges)) for a, b, edges in triples]

    def test_prefilled_views_match_a_fresh_graph(self):
        lone = edgeless = 0
        for g in self.graphs() + self.connected():
            for part in split_components(g):
                h = part.graph
                assert set(self.VIEWS) <= set(vars(h))  # filled before any use
                fresh = BipartiteGraph(h.x_count, h.y_count, h.edges)
                assert (h.x_adj, h.y_adj) == (fresh.x_adj, fresh.y_adj)
                assert h.component_count == fresh.component_count == 1
                assert is_connected_triple(h.x_count, h.y_count, h.edges)
                assert is_caterpillar_forest(h) == is_caterpillar_forest(fresh)
                assert crossing_lower_bound(h) == crossing_lower_bound(fresh)
                lone += h.n == 1
                edgeless += not h.m
        assert lone == edgeless >= 100

    def test_merge_and_kernel_keep_the_count(self):
        carried = 0
        for g in self.graphs():
            for part in split_components(g):
                merged = sibling_merge(part.graph).graph
                kernel = _pendant_path_kernel(merged, 0).graph
                for h in (merged, kernel):
                    assert "component_count" in vars(h)
                    fresh = BipartiteGraph(h.x_count, h.y_count, h.edges)
                    assert h.component_count == fresh.component_count == 1
                carried += merged is not part.graph
        assert carried >= 100

    def test_a_connected_input_is_copied(self):
        g = c4()
        (part,) = split_components(g)
        assert part.graph == g and part.graph is not g
        assert vars(g).keys() == {"x_count", "y_count", "edges"}  # nothing cached on the input

    def test_one_pass_copy_matches_the_general_split(self):
        # a connected graph takes the one-pass path; with one isolated
        # vertex added on either side the same component takes the general one
        for g in self.connected():
            (part,) = split_components(g)
            assert part.x_vertices == tuple(range(g.x_count))
            assert part.y_vertices == tuple(range(g.y_count))
            for padded in (
                BipartiteGraph(g.x_count + 1, g.y_count, g.edges),
                BipartiteGraph(g.x_count, g.y_count + 1, g.edges),
            ):
                general, lone = split_components(padded)
                assert lone.graph.n == 1
                assert (part.x_vertices, part.y_vertices) == (general.x_vertices, general.y_vertices)
                h, want = part.graph, general.graph
                assert vars(h).keys() == vars(want).keys()
                for name in ("x_count", "y_count", "edges") + self.VIEWS:
                    assert getattr(h, name) == getattr(want, name), name

    def test_solving_caches_nothing_on_the_input(self):
        # connected and split inputs, answered "yes" and "no", with and
        # without a search
        graphs = self.connected()[::4] + self.graphs()[:40]
        for g in graphs:
            for report in (bcr_decide(g, 0), bcr_decide(g, 2), bcr_exact(g, 20)):
                assert report.witness is None or report.witness.graph is g
                assert vars(g).keys() == {"x_count", "y_count", "edges"}


class TestMerge:
    def test_star_becomes_single_weighted_edge(self):
        merged = sibling_merge(star(5)).graph
        assert merged.edges == ((0, 0, 5),)

    def test_c4_unchanged(self):
        assert sibling_merge(c4()).graph == c4()

    def test_weighted_leaves_sum(self):
        # x0 carries leaves y0 (weight 2) and y1 (weight 3) plus non-leaf y2
        g = build_graph(2, 3, [(0, 0, 2), (0, 1, 3), (0, 2), (1, 2)])
        merged = sibling_merge(g).graph
        assert merged.edges == ((0, 0, 5), (0, 1, 1), (1, 1, 1))
        # crossing number is untouched: both optima are 0 by full scan
        assert reference_bcr(2, 3, g.edges) == 0
        assert reference_bcr(2, 2, merged.edges) == 0

    def test_group_maps_cover_originals(self):
        res = sibling_merge(star(5))
        assert res.x_groups == ((0,),)
        assert res.y_groups == ((0, 1, 2, 3, 4),)

    def test_sibling_free_graph_is_returned_as_is(self):
        rng = random.Random(41)
        free = 0
        for _ in range(200):
            a, b, edges = random_connected_graph(rng, max_n=10, extra_edge_prob=0.1)
            g = BipartiteGraph(a, b, tuple(edges))
            res = sibling_merge(g)
            if has_sibling_pair(a, b, edges):
                assert res.graph is not g and res.graph.n < g.n
                continue
            free += 1
            assert res.graph is g
            assert res.x_groups == tuple((x,) for x in range(a))
            assert res.y_groups == tuple((y,) for y in range(b))
        assert free >= 50
        g = c4()
        assert sibling_merge(g).graph is g

    def test_idempotent_and_sibling_free(self):
        def inner_weights_one(h):  # every edge between two non-leaves has weight 1
            return all(
                w == 1 for x, y, w in h.edges if len(h.x_adj[x]) > 1 and len(h.y_adj[y]) > 1
            )

        rng = random.Random(11)
        for _ in range(60):
            triple = random_connected_graph(rng, max_n=9)
            a, b, edges = inject_sibling_leaves(rng, triple, max_n=11)
            g = BipartiteGraph(a, b, tuple(edges))
            merged = sibling_merge(g).graph
            assert not has_sibling_pair(merged.x_count, merged.y_count, merged.edges)
            assert sibling_merge(merged).graph == merged
            assert inner_weights_one(merged) or not inner_weights_one(g)

    def test_merge_preserves_bcr_small(self):
        rng = random.Random(13)
        for _ in range(25):
            a, b, edges = inject_sibling_leaves(
                rng, random_connected_graph(rng, max_n=7), max_n=9
            )
            merged = sibling_merge(BipartiteGraph(a, b, tuple(edges))).graph
            assert reference_bcr(a, b, edges) == reference_bcr(
                merged.x_count, merged.y_count, merged.edges
            )


def cycle(n: int) -> tuple[int, int, list[tuple[int, int, int]]]:
    """C_2n as a triple: x_i - y_i - x_(i+1), indices mod n."""
    return n, n, sorted([(i, i, 1) for i in range(n)] + [((i + 1) % n, i, 1) for i in range(n)])


def with_pendant_trees(rng, t, max_side: int = 6):
    """t plus 1-4 new vertices, each joined to a random earlier vertex of the
    other side while that side has room, so trees hang off t."""
    a, b, edges = t
    edges = list(edges)
    for _ in range(rng.randint(1, 4)):
        on_x = rng.random() < 0.5
        if on_x and a < max_side:
            edges.append((a, rng.randrange(b), 1))
            a += 1
        elif not on_x and b < max_side:
            edges.append((rng.randrange(a), b, 1))
            b += 1
    return a, b, sorted(edges)


def with_leaf_weights(rng, t):
    """t with a random weight 1-3 on every edge at a degree-1 vertex."""
    a, b, edges = t
    dx, dy = [0] * a, [0] * b
    for x, y, _ in edges:
        dx[x] += 1
        dy[y] += 1
    return a, b, [
        (x, y, rng.randint(1, 3) if dx[x] == 1 or dy[y] == 1 else w) for x, y, w in edges
    ]


class TestLowerBound:
    def test_c4(self):
        assert crossing_lower_bound(c4()) == 1

    def test_tree_is_zero(self):
        assert crossing_lower_bound(star(5)) == 0
        assert crossing_lower_bound(build_graph(*SPIDER)) == 0

    def test_k33(self):
        g = build_graph(3, 3, [(i, j) for i in range(3) for j in range(3)])
        assert crossing_lower_bound(g) == 4

    def test_never_exceeds_optimum_exhaustive(self):
        for a, b, edges in exhaustive_connected_graphs(3, 3):
            g = BipartiteGraph(a, b, tuple(edges))
            assert crossing_lower_bound(g) <= reference_bcr(a, b, edges)

    def test_never_exceeds_optimum_on_every_class_up_to_four(self):
        # with unit weights and with random leaf weights, which the bound
        # ignores: every weight is at least 1
        rng = random.Random(53)
        classes = raised = 0
        for t in connected_graph_classes(4, 4):
            g = BipartiteGraph(t[0], t[1], tuple(t[2]))
            bound = crossing_lower_bound(g)
            assert g.m - g.n + 1 <= bound <= scan_bcr(*t)
            weighted = with_leaf_weights(rng, t)
            assert crossing_lower_bound(BipartiteGraph(t[0], t[1], tuple(weighted[2]))) == bound
            assert bound <= scan_bcr(*weighted)
            classes += 1
            raised += bound > g.m - g.n + 1
        assert classes == 260
        assert raised >= 5  # the cycle term beats m - n + 1 somewhere

    def test_cycles_read_their_crossing_number(self):
        # bcr(C_2n) = n - 1; hanging trees never lower a crossing number
        rng = random.Random(59)
        grown = 0
        for n in range(2, 7):
            t = cycle(n)
            assert crossing_lower_bound(BipartiteGraph(t[0], t[1], tuple(t[2]))) == n - 1
            assert scan_bcr(*t) == n - 1
            for _ in range(4):
                tree = with_pendant_trees(rng, t)
                if tree[2] == t[2]:
                    continue  # C12 fills both sides
                g = BipartiteGraph(tree[0], tree[1], tuple(tree[2]))
                assert crossing_lower_bound(g) == n - 1 <= scan_bcr(*tree)
                grown += 1
        assert grown >= 12

    def test_adds_over_disjoint_unions(self):
        rng = random.Random(61)
        for _ in range(100):
            parts = [
                random_connected_graph(rng, max_n=12, extra_edge_prob=rng.uniform(0.05, 0.4))
                for _ in range(rng.randint(2, 4))
            ]
            a = b = 0
            edges = []
            for pa, pb, pe in parts:
                edges += [(x + a, y + b, w) for x, y, w in pe]
                a, b = a + pa, b + pb
            union = BipartiteGraph(a, b, tuple(edges))
            want = sum(crossing_lower_bound(BipartiteGraph(pa, pb, tuple(pe))) for pa, pb, pe in parts)
            assert crossing_lower_bound(union) == want
            # shuffled labels: the split's components, relabelled monotonically
            px, py = rng.sample(range(a), a), rng.sample(range(b), b)
            mixed = BipartiteGraph(a, b, tuple((px[x], py[y], w) for x, y, w in edges))
            assert crossing_lower_bound(mixed) == sum(
                crossing_lower_bound(part.graph) for part in split_components(mixed)
            )

    def test_merge_and_kernel_keep_it(self):
        # both keep the 2-core and relabel it monotonically, so the solver
        # may read each floor off the component before the merge; the pool
        # is every class with sides up to 4, then half random graphs, half
        # one or two long cycles through x0 with trees, a pendant path and
        # sibling leaves, labels shuffled
        rng = random.Random(67)
        classes = list(connected_graph_classes(4, 4))
        raised = 0
        for case in range(-len(classes), 300):
            if case < 0:
                t = classes[case]
            elif case % 2:
                t = random_connected_graph(
                    rng, max_n=14, extra_edge_prob=rng.uniform(0.03, 0.3), leaf_weights=True
                )
            else:
                a, b, edges = cycle(rng.randint(3, 5))
                if rng.random() < 0.5:  # a second cycle through x0
                    n = rng.randint(2, 4)
                    ring = [0] + [a + i for i in range(n - 1)]
                    edges += [(ring[i], b + i, 1) for i in range(n)]
                    edges += [(ring[(i + 1) % n], b + i, 1) for i in range(n)]
                    a, b = a + n - 1, b + n
                t = with_pendant_trees(rng, (a, b, edges), max_side=12)
                t = with_pendant_path(t, rng.random() < 0.5, 0, rng.randint(3, 9))
                t = inject_sibling_leaves(rng, t, max_n=t[0] + t[1] + 4)
                px, py = rng.sample(range(t[0]), t[0]), rng.sample(range(t[1]), t[1])
                t = (t[0], t[1], [(px[x], py[y], w) for x, y, w in t[2]])
            g = BipartiteGraph(t[0], t[1], tuple(t[2]))
            bound = crossing_lower_bound(g)
            merged = sibling_merge(g).graph
            assert crossing_lower_bound(merged) == bound
            if not is_caterpillar_forest(merged):
                for budget in range(4):
                    kernel = _pendant_path_kernel(merged, budget).graph
                    assert crossing_lower_bound(kernel) == bound
            raised += bound > g.m - g.n + 1
        assert raised >= 100

    def test_long_ladder_needs_no_recursion(self):
        # the ladder with 4,000 rungs x_i - y_i, rails x_i - y_(i+1) and
        # x_(i+1) - y_i: its depth-first search is 8,000 vertices deep
        rungs = 4000
        edges = [(i, i) for i in range(rungs)]
        edges += [(i, i + 1) for i in range(rungs - 1)] + [(i + 1, i) for i in range(rungs - 1)]
        g = build_graph(rungs, rungs, edges)
        assert crossing_lower_bound(g) == g.m - g.n + 1 == rungs - 1

    def test_counts_every_component(self):
        # at least m - n + c, at most the summed optima of the components
        for g in disconnected_graphs():
            parts = split_components(g)
            bound = crossing_lower_bound(g)
            assert max(0, g.m - g.n + len(parts)) <= bound
            assert bound <= sum(
                reference_bcr(h.x_count, h.y_count, h.edges) for h in (p.graph for p in parts)
            )


class TestCaterpillar:
    def test_paths_are_caterpillars(self):
        assert is_caterpillar_forest(build_graph(2, 1, [(0, 0), (1, 0)]))
        assert is_caterpillar_forest(
            build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)])
        )

    def test_c4_is_not(self):
        assert not is_caterpillar_forest(c4())

    def test_spider_is_not(self):
        g = build_graph(*SPIDER)
        assert not is_caterpillar_forest(g)
        assert reference_bcr(*SPIDER) == 1  # full scan confirms it needs a crossing

    def test_caterpillar_with_feet(self):
        # spine x0-y0-x1-y1 with extra leaves on the spine
        g = build_graph(4, 3, [(0, 0), (1, 0), (1, 1), (2, 0), (3, 1), (1, 2)])
        assert is_caterpillar_forest(g)

    def test_forest_of_caterpillars(self):
        g = build_graph(3, 2, [(0, 0), (1, 0), (2, 1)])
        assert is_caterpillar_forest(g)

    def test_matches_zero_crossing_graphs_exhaustively(self):
        for a, b, edges in exhaustive_connected_graphs(3, 3):
            g = BipartiteGraph(a, b, tuple(edges))
            assert is_caterpillar_forest(g) == (reference_bcr(a, b, edges) == 0)

    def test_forest_iff_every_component_draws_without_crossings(self):
        for g in disconnected_graphs():
            parts = [part.graph for part in split_components(g)]
            assert is_caterpillar_forest(g) == all(
                reference_bcr(h.x_count, h.y_count, h.edges) == 0 for h in parts
            )

    def test_matches_zero_crossing_graphs_random(self):
        rng = random.Random(17)
        for _ in range(40):
            a, b, edges = random_connected_graph(rng, max_n=8)
            g = BipartiteGraph(a, b, tuple(edges))
            assert is_caterpillar_forest(g) == (reference_bcr(a, b, edges) == 0)
