"""Bipartite graph model, validation, components, and the sibling-leaf reduction.

Vertices are dense 0-based indices per side (X and Y), so layouts are plain
permutations of ``0..side_size-1``.  Edge weights are positive integers and
never floats: a weight above one only ever means "this leaf edge stands for
that many merged sibling leaves", which keeps all crossing arithmetic exact.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence


class GraphError(ValueError):
    """Structurally invalid graph or vertex reference."""


class Side(Enum):
    X = "x"
    Y = "y"

    @property
    def other(self) -> "Side":
        return Side.Y if self is Side.X else Side.X


class VertexId(NamedTuple):
    side: Side
    index: int


@dataclass(frozen=True)
class SiblingPair:
    """Two degree-one vertices sharing the same neighbor.

    Both leaves necessarily live on the same side (the opposite side of
    the parent), and ``leaf_a.index < leaf_b.index``.
    """

    leaf_a: VertexId
    leaf_b: VertexId
    parent: VertexId


@dataclass(frozen=True)
class BipartiteGraph:
    """Simple bipartite graph with a fixed bipartition and integer edge weights.

    Immutable after construction; all operations in this module are pure
    functions of their inputs, so instances are safe to share across threads.

    Attributes:
        x_count: number of vertices on side X.
        y_count: number of vertices on side Y.
        edges: sorted tuple of ``(x, y, weight)`` triples, one per edge.
    """

    x_count: int
    y_count: int
    edges: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        # exact type tests: bool is an int subclass, and 1.0 compares equal to 1
        if type(self.x_count) is not int or type(self.y_count) is not int:
            raise GraphError(
                f"vertex counts {self.x_count!r}, {self.y_count!r} must be integers"
            )
        if self.x_count < 0 or self.y_count < 0:
            raise GraphError("vertex counts must be non-negative")
        seen: set[tuple[int, int]] = set()
        norm: list[tuple[int, int, int]] = []
        for edge in self.edges:
            if len(edge) != 3:
                raise GraphError(f"edge {edge!r} is not an (x, y, weight) triple")
            x, y, w = edge
            if type(x) is not int or type(y) is not int or type(w) is not int:
                raise GraphError(f"edge {edge!r} must hold integer indices and weight")
            if not 0 <= x < self.x_count:
                raise GraphError(f"x index {x} out of range 0..{self.x_count - 1}")
            if not 0 <= y < self.y_count:
                raise GraphError(f"y index {y} out of range 0..{self.y_count - 1}")
            if w < 1:
                raise GraphError(f"edge (x{x}, y{y}) has weight {w}; weights must be >= 1")
            if (x, y) in seen:
                raise GraphError(f"duplicate edge between x{x} and y{y}")
            seen.add((x, y))
            norm.append((x, y, w))
        object.__setattr__(self, "edges", tuple(sorted(norm)))

    # -- derived views -----------------------------------------------------

    @property
    def n(self) -> int:
        return self.x_count + self.y_count

    @property
    def m(self) -> int:
        return len(self.edges)

    @cached_property
    def x_adj(self) -> tuple[tuple[int, ...], ...]:
        """For each X vertex, its Y neighbors in ascending order."""
        adj: list[list[int]] = [[] for _ in range(self.x_count)]
        for x, y, _ in self.edges:
            adj[x].append(y)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @cached_property
    def y_adj(self) -> tuple[tuple[int, ...], ...]:
        """For each Y vertex, its X neighbors in ascending order."""
        adj: list[list[int]] = [[] for _ in range(self.y_count)]
        for x, y, _ in self.edges:
            adj[y].append(x)
        return tuple(tuple(sorted(nbrs)) for nbrs in adj)

    @cached_property
    def weight(self) -> dict[tuple[int, int], int]:
        return {(x, y): w for x, y, w in self.edges}

    def degree(self, side: Side, index: int) -> int:
        adj = self.x_adj if side is Side.X else self.y_adj
        return len(adj[index])

    def side_count(self, side: Side) -> int:
        return self.x_count if side is Side.X else self.y_count

    def has_edge(self, x: int, y: int) -> bool:
        return (x, y) in self.weight

    def is_leaf_edge(self, x: int, y: int) -> bool:
        return len(self.x_adj[x]) == 1 or len(self.y_adj[y]) == 1

    def is_leaf_edge_weighted(self) -> bool:
        """True iff every edge whose endpoints both have degree >= 2 has weight 1."""
        return all(w == 1 for x, y, w in self.edges if not self.is_leaf_edge(x, y))


def _derived_graph(
    x_count: int, y_count: int, edges: tuple[tuple[int, int, int], ...]
) -> BipartiteGraph:
    """A graph made from parts of a validated one, skipping re-validation.

    Only for split_components and sibling_merge, whose edges come from a
    valid graph: a sorted tuple of in-range (x, y, weight) triples with
    positive weights and no duplicates.  Outside input goes through
    BipartiteGraph(...) or build_graph, which check everything.
    """
    g = object.__new__(BipartiteGraph)
    object.__setattr__(g, "x_count", x_count)
    object.__setattr__(g, "y_count", y_count)
    object.__setattr__(g, "edges", edges)
    return g


def build_graph(
    x_count: int,
    y_count: int,
    edge_list: Iterable[Sequence[int]],
) -> BipartiteGraph:
    """Validate and build a graph from ``(x, y[, weight])`` items (weight defaults to 1)."""
    edges = []
    for item in edge_list:
        if len(item) == 2:
            x, y = item
            edges.append((x, y, 1))
        elif len(item) == 3:
            edges.append(tuple(item))
        else:
            raise GraphError(f"edge {tuple(item)!r} is not (x, y) or (x, y, weight)")
    return BipartiteGraph(x_count, y_count, tuple(edges))


# -- connectivity ----------------------------------------------------------


def _combined_adjacency(g: BipartiteGraph) -> list[list[int]]:
    """Adjacency over combined ids: X vertex i -> i, Y vertex j -> x_count + j."""
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for x, y, _ in g.edges:
        adj[x].append(g.x_count + y)
        adj[g.x_count + y].append(x)
    for nbrs in adj:
        nbrs.sort()
    return adj


def _component_count(g: BipartiteGraph) -> int:
    """Number of connected components, isolated vertices included.

    Union-find over the edge list on combined ids (X vertex i -> i, Y
    vertex j -> x_count + j); nothing but the parent table is allocated.
    """
    parent = list(range(g.n))
    count = g.n
    xc = g.x_count
    for x, y, _ in g.edges:
        u = x
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        v = xc + y
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            count -= 1
    return count


def is_connected(g: BipartiteGraph) -> bool:
    """True iff all n vertices are mutually reachable (vacuously true for n <= 1)."""
    return g.n <= 1 or _component_count(g) == 1


@dataclass(frozen=True)
class GraphComponent:
    """A connected component re-indexed densely, with its original vertex ids.

    ``x_vertices[i]`` is the original X index of the component's X vertex i
    (ascending), and likewise for Y; these side tables let callers lift
    per-component results back into the original indexing.
    """

    graph: BipartiteGraph
    x_vertices: tuple[int, ...]
    y_vertices: tuple[int, ...]


def split_components(g: BipartiteGraph) -> list[GraphComponent]:
    """Connected components with original-index side tables.

    Components are ordered by their smallest original X index; components
    with no X vertex (isolated Y vertices) follow, ordered by smallest Y.
    """
    adj = _combined_adjacency(g)
    comp = [-1] * g.n  # component number of each combined id
    local = [0] * g.n  # index of each combined id within its component's side
    sides: list[tuple[list[int], list[int]]] = []
    # Seeding from x0, x1, ... then y0, y1, ... yields exactly the required order.
    for seed in range(g.n):
        if comp[seed] >= 0:
            continue
        comp[seed] = len(sides)
        members = [seed]
        queue = deque([seed])
        while queue:
            v = queue.popleft()
            for w in adj[v]:
                if comp[w] < 0:
                    comp[w] = comp[seed]
                    members.append(w)
                    queue.append(w)
        xs = sorted(v for v in members if v < g.x_count)
        ys = sorted(v - g.x_count for v in members if v >= g.x_count)
        for i, x in enumerate(xs):
            local[x] = i
        for i, y in enumerate(ys):
            local[g.x_count + y] = i
        sides.append((xs, ys))
    # one pass buckets the sorted edges, keeping them sorted per component
    buckets: list[list[tuple[int, int, int]]] = [[] for _ in sides]
    for x, y, w in g.edges:
        buckets[comp[x]].append((local[x], local[g.x_count + y], w))
    return [
        GraphComponent(
            _derived_graph(len(xs), len(ys), tuple(edges)), tuple(xs), tuple(ys)
        )
        for (xs, ys), edges in zip(sides, buckets)
    ]


# -- sibling leaves --------------------------------------------------------


def find_sibling_pairs(g: BipartiteGraph) -> list[SiblingPair]:
    """Every unordered pair of degree-1 vertices attached to a common neighbor.

    Ordered by parent (X-side leaf pairs first, i.e. parents on Y), then
    by the leaf indices; empty iff the graph has no sibling pairs.
    """
    pairs: list[SiblingPair] = []
    for parent_side, parent_adj, leaf_adj in (
        (Side.Y, g.y_adj, g.x_adj),
        (Side.X, g.x_adj, g.y_adj),
    ):
        leaf_side = parent_side.other
        for parent, nbrs in enumerate(parent_adj):
            leaves = [v for v in nbrs if len(leaf_adj[v]) == 1]
            for a, b in combinations(leaves, 2):
                pairs.append(
                    SiblingPair(
                        VertexId(leaf_side, a),
                        VertexId(leaf_side, b),
                        VertexId(parent_side, parent),
                    )
                )
    return pairs


@dataclass(frozen=True)
class MergeResult:
    """Outcome of the sibling-leaf merge.

    ``x_groups[i]`` holds the original X indices represented by merged
    X vertex i (a singleton for untouched vertices, ascending, with the
    smallest index acting as the representative); same for ``y_groups``.
    """

    graph: BipartiteGraph
    x_groups: tuple[tuple[int, ...], ...]
    y_groups: tuple[tuple[int, ...], ...]


def sibling_merge(g: BipartiteGraph) -> MergeResult:
    """Merge the sibling leaves of every non-leaf vertex, keeping index maps.

    For each vertex with two or more degree-1 neighbors, those leaves are
    collapsed onto the smallest-index one and the surviving leaf edge gets
    the sum of the merged weights.  The result never has sibling pairs and
    its bipartite crossing number equals the input's: some optimal drawing
    keeps the leaves of each vertex consecutive, so collapsing them loses
    nothing, and a crossing with the weighted edge costs exactly what the
    bundle of parallel leaf edges would.
    """
    x_deg = [len(nbrs) for nbrs in g.x_adj]
    y_deg = [len(nbrs) for nbrs in g.y_adj]

    def leaf_groups(parent_adj, leaf_deg):
        redirect: dict[int, int] = {}
        groups: dict[int, tuple[int, ...]] = {}
        for nbrs in parent_adj:
            if len(nbrs) < 2:
                continue  # leaf parents own no sibling group
            leaves = [v for v in nbrs if leaf_deg[v] == 1]
            if len(leaves) >= 2:
                rep = leaves[0]
                groups[rep] = tuple(leaves)
                for other in leaves[1:]:
                    redirect[other] = rep
        return redirect, groups

    x_redirect, x_rep_groups = leaf_groups(g.y_adj, x_deg)
    y_redirect, y_rep_groups = leaf_groups(g.x_adj, y_deg)

    keep_x = [x for x in range(g.x_count) if x not in x_redirect]
    keep_y = [y for y in range(g.y_count) if y not in y_redirect]
    new_x = {orig: i for i, orig in enumerate(keep_x)}
    new_y = {orig: i for i, orig in enumerate(keep_y)}

    weights: dict[tuple[int, int], int] = {}
    for x, y, w in g.edges:
        key = (new_x[x_redirect.get(x, x)], new_y[y_redirect.get(y, y)])
        weights[key] = weights.get(key, 0) + w

    merged = _derived_graph(
        len(keep_x),
        len(keep_y),
        tuple((x, y, w) for (x, y), w in sorted(weights.items())),
    )
    return MergeResult(
        merged,
        tuple(x_rep_groups.get(x, (x,)) for x in keep_x),
        tuple(y_rep_groups.get(y, (y,)) for y in keep_y),
    )


def merge_sibling_leaves(g: BipartiteGraph) -> BipartiteGraph:
    """The sibling-merged graph (see sibling_merge for the index maps)."""
    return sibling_merge(g).graph


# -- cheap bounds and fast paths --------------------------------------------


def crossing_lower_bound(g: BipartiteGraph) -> int:
    """max(0, m - n + c): a guaranteed lower bound on the crossing number.

    Any drawing with t crossings contains a crossing-free subgraph on
    m - t edges (drop one edge per crossing); crossing-free two-layer
    graphs are forests, so m - t <= n - c.  Weighted crossings only cost
    more, so the bound holds for weighted graphs too.
    """
    return max(0, g.m - g.n + _component_count(g))


def is_caterpillar_forest(g: BipartiteGraph) -> bool:
    """True iff every component is a tree whose non-leaf vertices form a path.

    These are exactly the graphs with a crossing-free two-layer drawing,
    so the solver may answer 0 without enumeration when this holds.
    """
    if g.m != g.n - _component_count(g):
        return False  # some component has a cycle
    # In a forest the non-leaf vertices of a component induce a subtree;
    # that subtree is a path iff nobody has three non-leaf neighbors.
    x_deg = [len(nbrs) for nbrs in g.x_adj]
    y_deg = [len(nbrs) for nbrs in g.y_adj]
    for x in range(g.x_count):
        if sum(1 for y in g.x_adj[x] if y_deg[y] >= 2) > 2:
            return False
    for y in range(g.y_count):
        if sum(1 for x in g.y_adj[y] if x_deg[x] >= 2) > 2:
            return False
    return True
