"""Bipartite graph model, validation, components, and the sibling-leaf reduction.

Vertices are dense 0-based indices per side (X and Y), so layouts are plain
permutations of ``0..side_size-1``.  Edge weights are positive integers and
never floats: a weight above one only ever means "this leaf edge stands for
that many merged sibling leaves", which keeps all crossing arithmetic exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Sequence


class GraphError(ValueError):
    """Structurally invalid graph or vertex reference."""


class Side(Enum):
    X = "x"
    Y = "y"

    @property
    def other(self) -> "Side":
        return Side.Y if self is Side.X else Side.X


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
    def component_count(self) -> int:
        """Number of connected components, isolated vertices included."""
        return _union_find(self)[1]

    @property
    def crossable_pair_count(self) -> int:
        """len(crossable_pairs), from the degrees alone, without building the table.

        Two distinct edges share at most one endpoint, so the pairs that
        can cross are the C(m, 2) edge pairs minus the C(deg v, 2) pairs
        that meet at each vertex v.
        """
        m = len(self.edges)
        meeting = sum(
            len(nbrs) * (len(nbrs) - 1) for adj in (self.x_adj, self.y_adj) for nbrs in adj
        )
        return (m * (m - 1) - meeting) // 2

    @cached_property
    def crossable_pairs(self) -> tuple[tuple[int, int, int, int, int], ...]:
        """``(x, y, x2, y2, w * w2)`` per edge pair with four distinct endpoints,
        the pairs that can cross, in edge order; the cost w * w2 is an exact int."""
        return tuple(
            (x, y, x2, y2, w * w2)
            for i, (x, y, w) in enumerate(self.edges)
            for x2, y2, w2 in self.edges[i + 1 :]
            if x != x2 and y != y2
        )

    @cached_property
    def weight(self) -> dict[tuple[int, int], int]:
        return {(x, y): w for x, y, w in self.edges}

    def side_count(self, side: Side) -> int:
        return self.x_count if side is Side.X else self.y_count

    def has_edge(self, x: int, y: int) -> bool:
        return (x, y) in self.weight


def _derived_graph(
    x_count: int, y_count: int, edges: tuple[tuple[int, int, int], ...], **known
) -> BipartiteGraph:
    """A graph from edges already known to be valid, skipping re-validation.

    Only for split_components, sibling_merge and _pendant_path_kernel,
    whose edges come from a valid graph, and for the CLI parsers, which
    reject every line that BipartiteGraph would: edges must be a sorted
    tuple of in-range (x, y, weight) triples with positive int weights
    and no duplicates.  known fills cached views the caller has already
    computed (x_adj, y_adj, component_count), each equal to what the
    property would compute.  Library input goes through
    BipartiteGraph(...) or build_graph, which check everything.
    """
    g = object.__new__(BipartiteGraph)
    g.__dict__.update(x_count=x_count, y_count=y_count, edges=edges, **known)
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


def _check_budget(name: str, value: object) -> None:
    """Raise ValueError, naming the parameter, unless value is an int >= 0.

    The exact type test of BipartiteGraph's counts: a bool, a float or a
    numpy integer is refused even where it equals an int.
    """
    if type(value) is not int or value < 0:
        raise ValueError(f"{name} must be a non-negative int, got {value!r}")


# -- connectivity ----------------------------------------------------------


def _union_find(g: BipartiteGraph) -> tuple[list[int], int]:
    """Union-find parent table over combined ids (X vertex i -> i, Y vertex
    j -> x_count + j) and the number of components, isolated vertices included."""
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
    return parent, count


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
    Each component graph is made by this call and comes with its x_adj,
    y_adj and component_count (1) already filled, from the same pass
    that buckets its edges.  A connected g is copied too, so nothing is
    cached on the caller's graph: when the union-find finds one
    component with an edge, which leaves no vertex isolated, that copy
    is built straight from g's sorted edges with identity side tables,
    skipping the numbering and relabelling that the general path needs.
    The lone vertices of one side share one edgeless graph.
    """
    parent, count = _union_find(g)
    xc, yc = g.x_count, g.y_count
    if count == 1 and g.edges:
        x_adj: list[list[int]] = [[] for _ in range(xc)]
        y_adj: list[list[int]] = [[] for _ in range(yc)]
        for x, y, _ in g.edges:  # sorted, so each list comes out ascending
            x_adj[x].append(y)
            y_adj[y].append(x)
        copy = _derived_graph(
            xc,
            yc,
            g.edges,
            x_adj=tuple(map(tuple, x_adj)),
            y_adj=tuple(map(tuple, y_adj)),
            component_count=1,
        )
        return [GraphComponent(copy, tuple(range(xc)), tuple(range(yc)))]
    number = [-1] * g.n  # component number of each root
    comp = [0] * g.n  # component number of each combined id
    local = [0] * g.n  # index of each combined id within its component's side
    sides: list[tuple[list[int], list[int]]] = []
    # Numbering roots in the order x0, x1, ... then y0, y1, ... first reach
    # them yields exactly the required order, with ascending side tables.
    for v in range(g.n):
        r = v
        while parent[r] != r:
            parent[r] = r = parent[parent[r]]
        c = number[r]
        if c < 0:
            c = number[r] = len(sides)
            sides.append(([], []))
        comp[v] = c
        members = sides[c][v >= xc]
        local[v] = len(members)
        members.append(v if v < xc else v - xc)
    # one pass buckets the sorted edges, keeping them sorted per component,
    # and lists the neighbours of each vertex: local indices ascend with
    # the original ones, so the lists come out sorted too
    buckets: list[list[tuple[int, int, int]]] = [[] for _ in sides]
    x_nbrs: list[list[int]] = [[] for _ in range(xc)]
    y_nbrs: list[list[int]] = [[] for _ in range(yc)]
    y_local = local[xc:]
    for x, y, w in g.edges:
        lx, ly = local[x], y_local[y]
        buckets[comp[x]].append((lx, ly, w))
        x_nbrs[x].append(ly)
        y_nbrs[y].append(lx)
    # a lone vertex's graph is the same on each side, so this call's lone
    # vertices share one per side
    lone = ()
    if not all(buckets):
        lone = (
            _derived_graph(0, 1, (), x_adj=(), y_adj=((),), component_count=1),
            _derived_graph(1, 0, (), x_adj=((),), y_adj=(), component_count=1),
        )
    return [
        GraphComponent(
            _derived_graph(
                len(xs),
                len(ys),
                tuple(edges),
                x_adj=tuple(map(tuple, map(x_nbrs.__getitem__, xs))),
                y_adj=tuple(map(tuple, map(y_nbrs.__getitem__, ys))),
                component_count=1,
            )
            if edges
            else lone[len(xs)],
            tuple(xs),
            tuple(ys),
        )
        for (xs, ys), edges in zip(sides, buckets)
    ]


# -- sibling leaves --------------------------------------------------------


def _leaf_groups(
    parent_adj: tuple[tuple[int, ...], ...], leaf_adj: tuple[tuple[int, ...], ...]
) -> tuple[dict[int, int], dict[int, tuple[int, ...]]]:
    """The sibling leaves of one side, grouped by their common neighbour.

    parent_adj holds the neighbours of each vertex of the other side and
    leaf_adj those of each vertex of this side.  A vertex with two or
    more degree-1 neighbours gives one group of them, ascending, keyed by
    its smallest leaf, the representative; redirect maps every other
    leaf of a group to its representative.  redirect is empty iff this
    side has no sibling pair.
    """
    redirect: dict[int, int] = {}
    groups: dict[int, tuple[int, ...]] = {}
    for nbrs in parent_adj:
        if len(nbrs) < 2:
            continue  # leaf parents own no sibling group
        leaves = [v for v in nbrs if len(leaf_adj[v]) == 1]
        if len(leaves) >= 2:
            rep = leaves[0]
            groups[rep] = tuple(leaves)
            for other in leaves[1:]:
                redirect[other] = rep
    return redirect, groups


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
    bundle of parallel leaf edges would.  A graph with no sibling leaves
    is returned as it is, with singleton groups.
    """
    x_redirect, x_rep_groups = _leaf_groups(g.y_adj, g.x_adj)
    y_redirect, y_rep_groups = _leaf_groups(g.x_adj, g.y_adj)
    if not x_redirect and not y_redirect:  # no sibling leaves: nothing to merge
        return MergeResult(
            g,
            tuple((x,) for x in range(g.x_count)),
            tuple((y,) for y in range(g.y_count)),
        )

    keep_x = [x for x in range(g.x_count) if x not in x_redirect]
    keep_y = [y for y in range(g.y_count) if y not in y_redirect]
    new_x = {orig: i for i, orig in enumerate(keep_x)}
    new_y = {orig: i for i, orig in enumerate(keep_y)}

    weights: dict[tuple[int, int], int] = {}
    for x, y, w in g.edges:
        key = (new_x[x_redirect.get(x, x)], new_y[y_redirect.get(y, y)])
        weights[key] = weights.get(key, 0) + w

    # merging leaves into a sibling keeps every component
    merged = _derived_graph(
        len(keep_x),
        len(keep_y),
        tuple((x, y, w) for (x, y), w in sorted(weights.items())),
        component_count=g.component_count,
    )
    return MergeResult(
        merged,
        tuple(x_rep_groups.get(x, (x,)) for x in keep_x),
        tuple(y_rep_groups.get(y, (y,)) for y in keep_y),
    )


# -- pendant paths -----------------------------------------------------------


@dataclass(frozen=True)
class PathKernel:
    """Outcome of the pendant-path cut.

    ``x_vertices[i]`` is the input's X index of kernel X vertex i
    (ascending), and likewise for ``y_vertices``.  ``paths`` lists every
    cut pendant path as (side of p0, (p0, p1, ..., pL)) in the input's
    indexing: p0 lies on that side, p1 on the other, and so on.  The
    kernel keeps p0 ... p``keep`` of each of them.  ``longest`` counts the
    edges of the longest pendant path, cut or not (0 if none), so a kernel
    cut for a smaller budget c is smaller iff ``longest > 2 * c + 2``.
    """

    graph: BipartiteGraph
    x_vertices: tuple[int, ...]
    y_vertices: tuple[int, ...]
    paths: tuple[tuple[Side, tuple[int, ...]], ...]
    keep: int
    longest: int


def _pendant_path_kernel(g: BipartiteGraph, budget: int) -> PathKernel:
    """Cut every pendant path of g longer than 2 * budget + 2 edges to that length.

    A pendant path v = p0 - p1 - ... - pL has p1 ... p(L-1) of degree 2,
    a leaf pL and deg(v) >= 3; write ei = (p(i-1), pi).  g must be
    connected, free of sibling pairs and not a caterpillar (the solver
    passes its merged components).  With K = 2 * budget + 2, the kernel
    drops p(K+1) ... pL of every pendant path with L > K, and the paths
    are returned for the witness lift.  For every c <= budget, the kernel
    has a drawing with at most c crossings iff g has one:

    * Forward: the kernel is a subgraph of g, so bcr(kernel) <= bcr(g).
    * Backward: take a kernel drawing with c <= budget crossings.  Every
      weight is at least 1, so at most 2c <= 2 * budget edges are
      crossed, and among the 2 * budget + 1 edges e2 ... eK of a cut path
      some edge is uncrossed.  Let j >= 2 be the smallest such index.
    * Lift: delete p(j+1) onward.  For i = j+1 ... L, insert pi directly
      beside p(i-2) on that layer, on the side where
      sign(rank pi - rank p(i-2)) = sign(rank p(i-1) - rank p(i-3)).
      The new edge ei then crosses exactly what e(i-1) crosses, which is
      nothing: an edge with no endpoint among p(i-2), p(i-1), pi meets
      both on the same side, since nothing lies between pi and p(i-2);
      the edges at p(i-1) share an endpoint with ei; and p(i-2) has
      degree 2 because j >= 2, so its one other edge e(i-2) runs from
      p(i-3) to p(i-2) and misses ei by the choice of side.  Insertions
      never reorder vertices already placed, so every pair keeps its
      crossing state and the cut paths lift one after another, each
      with its own j read off the kernel drawing.  The rule makes every
      insertion go the way of the first, d = sign(rank pj - rank p(j-2)):
      p(j+1), p(j+3), ... follow p(j-1) and p(j+2), p(j+4), ... follow pj,
      each as one consecutive run in direction d, an uncrossed ladder.
    * So the lift has at most c crossings, hence exactly c.  The weights
      of the cut edges do not matter, because the regrown edges are
      uncrossed.

    K >= 2, so p1 keeps degree 2 and the kernel's new leaf pK hangs off
    p(K-1), whose other neighbour (v, or a vertex of degree 2) is no leaf:
    the kernel stays connected, free of sibling pairs and not a
    caterpillar (every vertex keeps its non-leaf neighbours), and its
    2-core, m - n + 1 and crossing_lower_bound do not change.  When
    nothing is cut the kernel is g
    itself, with identity index maps.
    """
    keep = 2 * budget + 2
    adjs = (g.x_adj, g.y_adj)
    paths: list[tuple[Side, tuple[int, ...]]] = []
    drop: tuple[set[int], set[int]] = (set(), set())
    longest = 0
    for leaf_side in (0, 1):
        for leaf, nbrs in enumerate(adjs[leaf_side]):
            if len(nbrs) != 1:
                continue
            # climb from the leaf through degree-2 vertices to p0
            chain = [leaf]
            side, v, prev = leaf_side, leaf, -1
            while True:
                here = adjs[side][v]
                side, prev, v = 1 - side, v, here[0] if here[0] != prev else here[1]
                chain.append(v)
                if len(adjs[side][v]) != 2:
                    break
            if len(adjs[side][v]) < 3:
                continue  # a path component
            longest = max(longest, len(chain) - 1)
            if len(chain) - 1 <= keep:
                continue  # short enough already
            chain.reverse()
            paths.append((Side.X if side == 0 else Side.Y, tuple(chain)))
            for i in range(keep + 1, len(chain)):
                drop[(side + i) % 2].add(chain[i])
    if not paths:
        return PathKernel(
            g, tuple(range(g.x_count)), tuple(range(g.y_count)), (), keep, longest
        )
    keep_x = [x for x in range(g.x_count) if x not in drop[0]]
    keep_y = [y for y in range(g.y_count) if y not in drop[1]]
    new_x = {orig: i for i, orig in enumerate(keep_x)}
    new_y = {orig: i for i, orig in enumerate(keep_y)}
    # both maps are monotone, so the kept edges stay sorted; cutting the
    # end off a pendant path keeps every component
    kernel = _derived_graph(
        len(keep_x),
        len(keep_y),
        tuple(
            (new_x[x], new_y[y], w)
            for x, y, w in g.edges
            if x in new_x and y in new_y
        ),
        component_count=g.component_count,
    )
    return PathKernel(kernel, tuple(keep_x), tuple(keep_y), tuple(paths), keep, longest)


# -- cheap bounds and fast paths --------------------------------------------


def crossing_lower_bound(g: BipartiteGraph) -> int:
    """A guaranteed lower bound on the crossing number, summed over components.

    Per connected component it is max(m - n + 1, sum(L_i - 1) + mu(rest)),
    where C_1 ... C_r are edge-disjoint cycles of lengths 2 L_i, the rest
    is the component less their edges, and mu(H) = m(H) - n(H) + c(H).
    A tree reads 0, and C_2L reads L - 1, its crossing number.

    * Forests: a drawing of H with t crossings keeps a crossing-free
      subgraph on m - t edges (drop one edge per crossing), and
      crossing-free two-layer graphs are forests, so t >= mu(H).
    * Cycles: bcr(C_2L) >= L - 1, by induction.  C4 = K2,2 crosses once
      in every drawing.  For L >= 3 take the rightmost X vertex x, its
      neighbours y left of y', and x', the other neighbour of y'.
      Deleting x and y' and joining x' to y gives a drawing of C_2L-2.
      An edge (a, b) that crosses x'y has a left of x' and b right of y,
      so it crossed xy, or a right of x' and b left of y < y', so it
      crossed x'y'; and xy crosses x'y', since x' is left of x and y' is
      right of y.  So the old drawing had at least one more crossing.
    * Sums: a drawing of g draws every subgraph, and the edge pairs
      inside different edge-disjoint subgraphs (or components) are
      different pairs.  Every weight is at least 1, so every term holds
      for weighted graphs too and the terms add.

    The cycles are the cycle chains of Schmidt's chain decomposition
    (IPL 2013), found in one depth-first search of the 2-core: per
    vertex u in preorder and per back edge from u down to w, climb the
    tree from w until a vertex already climbed; the chain is a cycle iff
    that vertex is u.  Chains never share an edge, each edge is climbed
    once, and mu(rest) is the number of back edges off the cycles that
    close a cycle in the forest of tree edges off the cycles.  So the
    time is linear in m, up to the union-find on those back edges.
    Trees hanging off the 2-core add nothing to any term, and the search
    starts at the 2-core's lowest X index (else Y) and takes neighbours
    in ascending order, so sibling_merge and _pendant_path_kernel, which
    keep the 2-core and relabel it monotonically, keep the bound.
    """
    mu = g.m - g.n + g.component_count
    if not mu:
        return 0  # a forest
    xc = g.x_count
    adj = [[xc + y for y in nbrs] for nbrs in g.x_adj]
    adj += g.y_adj
    n = len(adj)
    # peel vertices of degree <= 1: the 2-core is what keeps degree >= 2
    degree = list(map(len, adj))
    peeled = [v for v in range(n) if degree[v] < 2]
    for v in peeled:  # the list grows while it is read
        for w in adj[v]:
            degree[w] -= 1
            if degree[w] == 1:
                peeled.append(w)
    dfi = [-1] * n  # preorder index, -1 until reached
    parent = [-1] * n
    climbed = [False] * n
    top = [-1] * n  # union-find over the trees of tree edges off the cycles
    total = 0
    for root in range(n):
        if degree[root] < 2 or dfi[root] >= 0:
            continue
        # depth-first search of root's part of the 2-core; downs[u] lists
        # the descendants w with a back edge to u
        order = [root]
        dfi[root] = 0
        downs: dict[int, list[int]] = {}
        v, nbrs, saved = root, iter(adj[root]), []
        while True:
            for w in nbrs:
                if degree[w] < 2:
                    continue
                if dfi[w] < 0:
                    dfi[w] = len(order)
                    order.append(w)
                    parent[w] = v
                    saved.append(nbrs)
                    v, nbrs = w, iter(adj[w])
                    break
                if dfi[w] < dfi[v] and w != parent[v]:
                    downs.setdefault(w, []).append(v)
            else:
                if not saved:
                    break
                v, nbrs = parent[v], saved.pop()
        backs = disjoint = 0  # m - n + 1, and sum(L_i - 1) + mu(rest)
        rest: list[tuple[int, int]] = []  # back edges off the cycles
        on_cycle: list[int] = []  # vertices whose tree edge lies on a cycle
        for u in order:
            climbed[u] = True
            for w in downs.get(u, ()):
                backs += 1
                chain = []
                v = w
                while not climbed[v]:
                    climbed[v] = True
                    chain.append(v)
                    v = parent[v]
                if v == u:  # a cycle of len(chain) + 1 edges
                    disjoint += (len(chain) + 1) // 2 - 1
                    on_cycle += chain
                else:
                    rest.append((u, w))
        if rest:
            # point each vertex at the top of its tree in the forest of
            # tree edges off the cycles (preorder reaches parents first),
            # then count the back edges that union-find cannot merge
            for v in on_cycle:
                top[v] = v
            top[root] = root
            for v in order[1:]:
                if top[v] != v:
                    top[v] = top[parent[v]]
            closed = len(rest)
            for u, w in rest:
                u, w = top[u], top[w]
                while top[u] != u:
                    top[u] = u = top[top[u]]
                while top[w] != w:
                    top[w] = w = top[top[w]]
                if u != w:
                    top[u] = w
                    closed -= 1
            disjoint += closed
        total += max(backs, disjoint)
    return total


def is_caterpillar_forest(g: BipartiteGraph) -> bool:
    """True iff every component is a tree whose non-leaf vertices form a path.

    These are exactly the graphs with a crossing-free two-layer drawing,
    so the solver may answer 0 without enumeration when this holds.
    """
    if g.m != g.n - g.component_count:
        return False  # some component has a cycle
    # In a forest the non-leaf vertices of a component induce a subtree;
    # that subtree is a path iff nobody has three non-leaf neighbors.
    x_adj, y_adj = g.x_adj, g.y_adj
    for leaf_adj, adj in ((x_adj, y_adj), (y_adj, x_adj)):
        inner = list(map(len, adj))  # degrees, less the leaves below
        for nbrs in leaf_adj:
            if len(nbrs) == 1:  # a leaf: not a non-leaf neighbour of nbrs[0]
                inner[nbrs[0]] -= 1
        if max(inner, default=0) > 2:
            return False
    return True
