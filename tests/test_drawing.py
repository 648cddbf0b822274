"""Layout validation and the two crossing counters."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicross import (
    Layout,
    Side,
    build_graph,
    crossing_number_fast,
    crossing_number_naive,
    drawing_from_ranks,
    layout_from_sequence,
    validate_layout,
)
from bicross.drawing import weighted_inversions
from util import all_drawings, random_connected_graph, reference_crossings, weighted_triples


def c4():
    return build_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])


class TestLayout:
    @pytest.mark.parametrize(
        "ranks,ok",
        [((0, 1, 2), True), ((0, 0, 2), False), ((2, 1, 0), True), ((0, 3, 1), False)],
    )
    def test_validate(self, ranks, ok):
        assert validate_layout(Layout(Side.X, ranks)) is ok

    def test_sequence_inverts_ranks(self):
        # y1, y2, y0 from left to right
        assert layout_from_sequence(Side.Y, (1, 2, 0)) == Layout(Side.Y, (2, 0, 1))

    def test_drawing_rejects_bad_layouts(self):
        with pytest.raises(ValueError, match="permutations"):
            drawing_from_ranks(c4(), (0, 0), (0, 1))
        with pytest.raises(ValueError, match="side sizes"):
            drawing_from_ranks(c4(), (0, 1, 2), (0, 1))
        with pytest.raises(ValueError, match="X layout"):
            # layouts swapped onto the wrong sides
            from bicross import Drawing

            Drawing(c4(), Layout(Side.Y, (0, 1)), Layout(Side.X, (0, 1)))


class TestCounters:
    @settings(max_examples=300, deadline=None)
    @given(triple=weighted_triples(max_side=6))
    def test_inversions_of_sorted_edges_count_the_identity_drawing(self, triple):
        # the solver's budget cap: no Drawing, just the edges as they stand
        g = build_graph(*triple)
        cap = weighted_inversions(g.edges, g.y_count)
        identity = drawing_from_ranks(g, range(g.x_count), range(g.y_count))
        assert cap == crossing_number_naive(identity)

    @settings(max_examples=300, deadline=None)
    @given(triple=weighted_triples(max_side=6), seed=st.integers(0, 2**32))
    def test_fast_counter_matches_the_naive_one(self, triple, seed):
        g = build_graph(*triple)
        rng = random.Random(seed)
        a, b = g.x_count, g.y_count
        d = drawing_from_ranks(g, rng.sample(range(a), a), rng.sample(range(b), b))
        assert crossing_number_fast(d) == crossing_number_naive(d)

    def test_c4_identity_has_one_crossing(self):
        d = drawing_from_ranks(c4(), range(2), range(2))
        assert crossing_number_naive(d) == 1
        assert crossing_number_fast(d) == 1

    def test_single_edge_zero(self):
        d = drawing_from_ranks(build_graph(1, 1, [(0, 0)]), range(1), range(1))
        assert crossing_number_naive(d) == 0
        assert crossing_number_fast(d) == 0

    def test_empty_graph_zero(self):
        d = drawing_from_ranks(build_graph(3, 2, []), range(3), range(2))
        assert crossing_number_fast(d) == 0

    def test_weighted_crossing_multiplies(self):
        # one crossing between edges of weight 2 and 3 costs 6
        g = build_graph(2, 2, [(0, 0, 2), (1, 1, 3)])
        d = drawing_from_ranks(g, (0, 1), (1, 0))
        assert crossing_number_naive(d) == 6
        assert crossing_number_fast(d) == 6

    def test_every_k33_drawing_has_nine(self):
        g = build_graph(3, 3, [(i, j) for i in range(3) for j in range(3)])
        for fx, fy in all_drawings(3, 3):
            assert crossing_number_fast(drawing_from_ranks(g, fx, fy)) == 9

    @pytest.mark.parametrize("a,b", [(2, 2), (2, 4), (3, 3), (4, 3)])
    def test_complete_graphs_are_layout_invariant(self, a, b):
        g = build_graph(a, b, [(i, j) for i in range(a) for j in range(b)])
        expected = a * (a - 1) // 2 * (b * (b - 1) // 2)
        rng = random.Random(a * 10 + b)
        for _ in range(10):
            fx = tuple(rng.sample(range(a), a))
            fy = tuple(rng.sample(range(b), b))
            assert crossing_number_fast(drawing_from_ranks(g, fx, fy)) == expected

    def test_counters_agree_with_reference(self):
        rng = random.Random(23)
        for _ in range(300):
            a, b, edges = random_connected_graph(
                rng, max_n=12, leaf_weights=True, extra_edge_prob=0.25
            )
            g = build_graph(a, b, edges)
            fx = tuple(rng.sample(range(a), a))
            fy = tuple(rng.sample(range(b), b))
            d = drawing_from_ranks(g, fx, fy)
            want = reference_crossings(edges, fx, fy)
            assert crossing_number_naive(d) == want
            assert crossing_number_fast(d) == want

    def test_reversing_both_layouts_preserves_count(self):
        rng = random.Random(29)
        for _ in range(100):
            a, b, edges = random_connected_graph(rng, max_n=10, leaf_weights=True)
            g = build_graph(a, b, edges)
            fx = tuple(rng.sample(range(a), a))
            fy = tuple(rng.sample(range(b), b))
            flipped = drawing_from_ranks(
                g,
                tuple(a - 1 - r for r in fx),
                tuple(b - 1 - r for r in fy),
            )
            assert crossing_number_fast(drawing_from_ranks(g, fx, fy)) == (
                crossing_number_fast(flipped)
            )

    def test_invariant_under_side_respecting_relabeling(self):
        rng = random.Random(31)
        for _ in range(50):
            a, b, edges = random_connected_graph(rng, max_n=9, leaf_weights=True)
            g = build_graph(a, b, edges)
            perm_x = rng.sample(range(a), a)
            perm_y = rng.sample(range(b), b)
            relabeled = build_graph(
                a, b, [(perm_x[x], perm_y[y], w) for x, y, w in edges]
            )
            fx = tuple(rng.sample(range(a), a))
            fy = tuple(rng.sample(range(b), b))
            moved_fx = tuple(fx[perm_x.index(i)] for i in range(a))
            moved_fy = tuple(fy[perm_y.index(j)] for j in range(b))
            assert crossing_number_fast(drawing_from_ranks(g, fx, fy)) == (
                crossing_number_fast(drawing_from_ranks(relabeled, moved_fx, moved_fy))
            )
