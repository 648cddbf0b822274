"""Two-layer drawings and exact weighted crossing counting.

A drawing is a pair of layouts: rank arrays mapping each vertex of a side
to a position 0..side_size-1.  Two edges (x, y) and (x', y') cross exactly
when one order flips between the layers, i.e. x is left of x' while y is
right of y'.  The weighted count charges each crossing pair the product of
its edge weights.  Counts are plain Python integers, so the arithmetic is
exact at any magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .graph import BipartiteGraph, Side


@dataclass(frozen=True)
class Layout:
    """A rank array for one side: ranks[v] is the position of vertex v."""

    side: Side
    ranks: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ranks)


def validate_layout(layout: Layout) -> bool:
    """True iff the rank array is a permutation of 0..len-1."""
    n = len(layout.ranks)
    return sorted(layout.ranks) == list(range(n))


def layout_from_sequence(side: Side, seq: tuple[int, ...] | list[int]) -> Layout:
    """Layout placing seq[0] leftmost, seq[1] next, and so on."""
    ranks = [0] * len(seq)
    for pos, v in enumerate(seq):
        ranks[v] = pos
    return Layout(side, tuple(ranks))


@dataclass(frozen=True)
class Drawing:
    """A graph with one layout per side.

    Raises ValueError unless fx/fy carry the right sides and their rank
    arrays are permutations matching the graph's side sizes.
    """

    graph: BipartiteGraph
    fx: Layout
    fy: Layout

    def __post_init__(self) -> None:
        if self.fx.side is not Side.X or self.fy.side is not Side.Y:
            raise ValueError("fx must be an X layout and fy a Y layout")
        if len(self.fx) != self.graph.x_count or len(self.fy) != self.graph.y_count:
            raise ValueError("layout lengths do not match the graph's side sizes")
        if not validate_layout(self.fx) or not validate_layout(self.fy):
            raise ValueError("layout rank arrays must be permutations")


def drawing_from_ranks(
    g: BipartiteGraph,
    x_ranks: tuple[int, ...] | list[int],
    y_ranks: tuple[int, ...] | list[int],
) -> Drawing:
    return Drawing(g, Layout(Side.X, tuple(x_ranks)), Layout(Side.Y, tuple(y_ranks)))


def _count_capped(ex: list[tuple[int, int, int]], fy, cap: int | None) -> int | None:
    """Weighted crossing count of pre-ranked edges, or None once it exceeds cap.

    ex holds (x-rank, y-vertex, weight) per edge and fy maps y-vertex to
    rank; cap None counts in full.  The pair {e, e'} crosses iff its rank
    differences on the two layers have opposite signs, and then costs
    weight(e) * weight(e'); edges sharing an endpoint have a zero
    difference on that layer and never count.  The cap is checked after
    each edge's pairs, so with no edges the count is 0 whatever the cap.
    """
    total = 0
    for i in range(len(ex)):
        rx, y, w = ex[i]
        ry = fy[y]
        for j in range(i + 1, len(ex)):
            rx2, y2, w2 = ex[j]
            if (rx - rx2) * (ry - fy[y2]) < 0:
                total += w * w2
        if cap is not None and total > cap:
            return None
    return total


def crossing_number_naive(d: Drawing) -> int:
    """Weighted crossing count by scanning all O(m^2) edge pairs.

    It shares its pair loop with the exhaustive scans of bicross.solver
    (bcr_bruteforce and census), which run it with a cap, so it checks
    neither of them; tests/util.reference_crossings is the independent
    count, written from the definition.
    """
    fx = d.fx.ranks
    return _count_capped([(fx[x], y, w) for x, y, w in d.graph.edges], d.fy.ranks, None)


def weighted_inversions(edges: Sequence[tuple[int, int, int]], size: int) -> int:
    """Weighted count of the pairs i < j of edges with edges[i][1] > edges[j][1].

    edges holds (a, b, weight) triples sorted by (a, b), with b in
    0..size-1, and a pair counts the product of its weights.  Read a and
    b as the x-rank and y-rank of an edge: an earlier edge then crosses a
    later one iff its x-rank is smaller and its y-rank strictly larger (an
    earlier edge of the same x-rank has a smaller y-rank, by the sort).
    So this is the weighted crossing count of that drawing, in
    O(m log size): a sweep keeps the weight inserted so far per b in a
    binary indexed tree, and each edge adds its weight times the weight
    already inserted above its b.  A graph's sorted edges are its identity
    drawing.
    """
    tree = [0] * (size + 1)  # 1-based Fenwick tree over b
    total = inserted = 0
    for _, b, w in edges:
        i = b + 1
        below = 0  # weight inserted at 0..b
        while i:
            below += tree[i]
            i &= i - 1
        total += w * (inserted - below)
        i = b + 1
        while i <= size:
            tree[i] += w
            i += i & -i
        inserted += w
    return total


def crossing_number_fast(d: Drawing) -> int:
    """Weighted crossing count in O(m log m) via inversion counting.

    Sorts the edges by (x-rank, y-rank) and counts their weighted
    inversions by y-rank (weighted_inversions).
    """
    fx = d.fx.ranks
    fy = d.fy.ranks
    g = d.graph
    return weighted_inversions(sorted([(fx[x], fy[y], w) for x, y, w in g.edges]), g.y_count)
