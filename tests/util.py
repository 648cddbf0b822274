"""Shared test helpers: an independent crossing oracle, graph generators and a cycle probe.

Everything here is written from the definitions only (no solver imports),
so library results can be checked against genuinely independent values.
Graphs are passed around as (x_count, y_count, edges) triples with
(x, y, weight) edges.
"""

from __future__ import annotations

import gc
from collections import deque
from itertools import combinations, combinations_with_replacement, permutations

import numpy as np
from hypothesis import strategies as st

Triple = tuple[int, int, list[tuple[int, int, int]]]


def reference_crossings(edges, fx, fy) -> int:
    """Definition-level weighted crossing count of a drawing.

    Edges may be (x, y) or (x, y, weight) tuples; weight defaults to 1.
    """
    es = [(e[0], e[1], e[2] if len(e) == 3 else 1) for e in edges]
    total = 0
    for i in range(len(es)):
        x1, y1, w1 = es[i]
        for j in range(i + 1, len(es)):
            x2, y2, w2 = es[j]
            if (fx[x1] - fx[x2]) * (fy[y1] - fy[y2]) < 0:
                total += w1 * w2
    return total


def reference_pair_terms(edges, on_x: bool, other: int) -> list[tuple[int, int, int, int, int]]:
    """(x, z, p, e, w * w2) for every pair of edges with four distinct endpoints.

    A brute force over all unordered pairs of the sorted edges; the
    endpoints are told apart by side, so a pair qualifies iff its four
    tagged endpoints form a set of four.  x and z are the pair's
    endpoints on side X (on_x) or Y, y and y2 those on the other side,
    which has other vertices, and p = lo * other + hi for lo, hi =
    min(y, y2), max(y, y2).  e is c_lohi - c_hilo with x left of z,
    each term counted by reference_crossings on the two edges alone.
    """
    es = sorted((e[0], e[1], e[2] if len(e) == 3 else 1) for e in edges)
    terms = []
    for e, f in combinations(es, 2):
        if len({("x", e[0]), ("x", f[0]), ("y", e[1]), ("y", f[1])}) != 4:
            continue
        x, y, z, y2 = (e[0], e[1], f[0], f[1]) if on_x else (e[1], e[0], f[1], f[0])
        lo, hi = min(y, y2), max(y, y2)

        def cost(u, v):  # with x left of z and u left of v
            own, opposite = {x: 0, z: 1}, {u: 0, v: 1}
            return reference_crossings([e, f], *((own, opposite) if on_x else (opposite, own)))

        terms.append((x, z, lo * other + hi, cost(lo, hi) - cost(hi, lo), e[2] * f[2]))
    return terms


def all_drawings(a: int, b: int):
    for fx in permutations(range(a)):
        for fy in permutations(range(b)):
            yield fx, fy


def reference_bcr(a: int, b: int, edges) -> int:
    """Exact minimum by full scan; fine for sides up to ~5-6."""
    return min(reference_crossings(edges, fx, fy) for fx, fy in all_drawings(a, b))


def scan_bcr(a: int, b: int, edges) -> int:
    """Exact minimum over all a! * b! drawings, every count in one matrix product.

    A pair of edges with distinct endpoints on both sides crosses iff the
    signs of its two rank differences disagree, so with sx, sy in {-1, +1}
    it costs w * (1 - sx * sy) / 2.  Summed over those pairs, the counts of
    all drawings are (sum(w) - (SX * w) @ SY.T) / 2, where the rows of SX
    and SY hold the signs under every X and Y layout.  Float64 is exact
    for the small weights used in tests; meant for sides up to 6.
    """
    es = [(e[0], e[1], e[2] if len(e) == 3 else 1) for e in edges]
    pairs = [
        (x1, x2, y1, y2, w1 * w2)
        for i, (x1, y1, w1) in enumerate(es)
        for x2, y2, w2 in es[i + 1 :]
        if x1 != x2 and y1 != y2
    ]
    if not pairs:
        return 0
    x1, x2, y1, y2, w = (np.array(col) for col in zip(*pairs))
    fx = np.array(list(permutations(range(a))))
    fy = np.array(list(permutations(range(b))))
    sx = np.sign(fx[:, x1] - fx[:, x2]) * w.astype(np.float64)
    sy = np.sign(fy[:, y1] - fy[:, y2]).astype(np.float64)
    return int(round((w.sum() - (sx @ sy.T).max()) / 2))


def is_connected_triple(a: int, b: int, edges) -> bool:
    n = a + b
    if n <= 1:
        return True
    adj = [[] for _ in range(n)]
    for x, y, _ in edges:
        adj[x].append(a + y)
        adj[a + y].append(x)
    seen = [False] * n
    seen[0] = True
    queue = deque([0])
    reached = 1
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if not seen[w]:
                seen[w] = True
                reached += 1
                queue.append(w)
    return reached == n


def has_sibling_pair(a: int, b: int, edges) -> bool:
    xdeg = [0] * a
    ydeg = [0] * b
    for x, y, _ in edges:
        xdeg[x] += 1
        ydeg[y] += 1
    for side_deg, other_deg, pick in (
        (ydeg, xdeg, lambda e: (e[1], e[0])),
        (xdeg, ydeg, lambda e: (e[0], e[1])),
    ):
        leaves_per_parent: dict[int, int] = {}
        for e in edges:
            parent, child = pick(e)
            if other_deg[child] == 1:
                leaves_per_parent[parent] = leaves_per_parent.get(parent, 0) + 1
                if leaves_per_parent[parent] >= 2:
                    return True
    return False


def exhaustive_connected_graphs(max_a: int = 3, max_b: int = 3):
    """All labeled connected bipartite graphs over each side split up to the cap."""
    for a in range(1, max_a + 1):
        for b in range(1, max_b + 1):
            slots = [(x, y) for x in range(a) for y in range(b)]
            for mask in range(1 << len(slots)):
                edges = [
                    (x, y, 1) for bit, (x, y) in enumerate(slots) if mask >> bit & 1
                ]
                if is_connected_triple(a, b, edges):
                    yield a, b, edges


def random_connected_graph(
    rng,
    max_n: int = 9,
    extra_edge_prob: float = 0.3,
    leaf_weights: bool = False,
    min_n: int = 2,
    max_side: int = 8,
) -> Triple:
    """Random spanning tree plus random extra edges; always connected.

    With leaf_weights, edges touching a degree-1 vertex get a random
    weight in 1..3 (everything else stays weight 1), which keeps the
    triple a valid leaf-edge-weighted graph.
    """
    n = rng.randint(min_n, max_n)
    a = rng.randint(max(1, n - max_side), min(max_side, n - 1))
    b = n - a
    first_x = rng.randrange(a)
    first_y = rng.randrange(b)
    present: set[tuple[int, int]] = {(first_x, first_y)}
    placed_x = [first_x]
    placed_y = [first_y]
    rest = [("x", x) for x in range(a) if x != first_x] + [
        ("y", y) for y in range(b) if y != first_y
    ]
    rng.shuffle(rest)
    for side, v in rest:
        if side == "x":
            present.add((v, rng.choice(placed_y)))
            placed_x.append(v)
        else:
            present.add((rng.choice(placed_x), v))
            placed_y.append(v)
    for x in range(a):
        for y in range(b):
            if (x, y) not in present and rng.random() < extra_edge_prob:
                present.add((x, y))
    edges = sorted(present)
    xdeg = [0] * a
    ydeg = [0] * b
    for x, y in edges:
        xdeg[x] += 1
        ydeg[y] += 1
    triples = []
    for x, y in edges:
        w = 1
        if leaf_weights and (xdeg[x] == 1 or ydeg[y] == 1):
            w = rng.randint(1, 3)
        triples.append((x, y, w))
    return a, b, triples


def random_sibling_free_graph(rng, max_n: int = 8) -> Triple:
    """Rejection-sample a connected graph with no sibling pairs."""
    for _ in range(10_000):
        a, b, edges = random_connected_graph(
            rng, max_n=max_n, extra_edge_prob=0.45, min_n=3
        )
        if a >= 2 and b >= 2 and not has_sibling_pair(a, b, edges):
            return a, b, edges
    raise AssertionError("generator failed to produce a sibling-free graph")


def inject_sibling_leaves(rng, triple: Triple, max_n: int = 9) -> Triple:
    """Add leaves sharing a parent so the result has at least one sibling pair."""
    a, b, edges = triple
    edges = list(edges)
    budget = max_n - (a + b)
    if budget < 2:  # a raise, not an assert: util is not rewritten by pytest under -O
        raise ValueError("no room to inject a sibling pair")
    # two fresh leaves on a common random parent guarantee a pair
    if rng.random() < 0.5 and a >= 1:
        parent = rng.randrange(a)
        for _ in range(2):
            edges.append((parent, b, 1))
            b += 1
    else:
        parent = rng.randrange(b)
        for _ in range(2):
            edges.append((a, parent, 1))
            a += 1
    budget -= 2
    while budget > 0 and rng.random() < 0.4:
        if rng.random() < 0.5:
            edges.append((rng.randrange(a), b, 1))
            b += 1
        else:
            edges.append((a, rng.randrange(b), 1))
            a += 1
        budget -= 1
    return a, b, sorted(edges)


def one_sided_bound(edges, fixed_is_x: bool, ranks) -> int:
    """Sum over opposite-side pairs {u, v} of min(c_uv, c_vu), from the definition.

    With the fixed side's ranks given, c_uv is the weight of the edge
    pairs that cross when u is placed left of v on the other side.
    """
    es = [
        (e[0], e[1], e[2] if len(e) == 3 else 1) if fixed_is_x
        else (e[1], e[0], e[2] if len(e) == 3 else 1)
        for e in edges
    ]
    cost: dict[tuple[int, int], int] = {}
    for i in range(len(es)):
        s1, t1, w1 = es[i]
        for j in range(i + 1, len(es)):
            s2, t2, w2 = es[j]
            if s1 == s2 or t1 == t2:
                continue
            left, right = (t1, t2) if ranks[s1] < ranks[s2] else (t2, t1)
            # the edges cross iff the left fixed vertex's end is right of the other's
            cost[(right, left)] = cost.get((right, left), 0) + w1 * w2
    pairs = {tuple(sorted(key)) for key in cost}
    return sum(min(cost.get((u, v), 0), cost.get((v, u), 0)) for u, v in pairs)


def leaf_slack(edges, fixed_is_x: bool, successor, witness) -> dict[int, int]:
    """l(x) for every non-root x of a spine, from the edge list.

    l(x) = 1 when mid(x) = witness[x] has a neighbour z on the fixed side
    with degree 1 and z not in {x, successor[x]}; otherwise 0.
    """
    ends = [(e[0], e[1]) if fixed_is_x else (e[1], e[0]) for e in edges]
    degree: dict[int, int] = {}
    for s, _ in ends:
        degree[s] = degree.get(s, 0) + 1
    slack = {}
    for x, t in successor.items():
        leaves = {s for s, o in ends if o == witness[x] and degree[s] == 1}
        slack[x] = 1 if leaves - {x, t} else 0
    return slack


def spine_by_last_visit(circuit, x_count: int, fixed_is_x: bool):
    """(successor, witness) of a spine by the plain last-visit rule.

    circuit is a closed walk over combined ids (X vertex i -> i, Y vertex
    j -> x_count + j) that starts and ends at the root, a fixed-side
    vertex.  For every other fixed-side vertex v, successor[v] is the
    fixed-side vertex two steps after the last visit of v and witness[v]
    the vertex in between, both in their side's own indexing.  Both maps
    list the vertices in the order of their first visit.
    """

    def own(cid):  # index on the fixed side, or None for the other side
        if fixed_is_x:
            return cid if cid < x_count else None
        return cid - x_count if cid >= x_count else None

    def other(cid):
        return cid - x_count if fixed_is_x else cid

    root = own(circuit[0])
    first_seen: list[int] = []
    last: dict[int, int] = {}
    for pos, cid in enumerate(circuit):
        v = own(cid)
        if v is None:
            continue
        if v not in last:
            first_seen.append(v)
        last[v] = pos
    successor, witness = {}, {}
    for v in first_seen:
        if v != root:
            successor[v] = own(circuit[last[v] + 2])
            witness[v] = other(circuit[last[v] + 1])
    return successor, witness


def leaf_aware_cost(ranks, successor, slack) -> int:
    """sum over non-root x of max(0, gap(x) - l(x)), gap(x) = |rank(x) - rank(T(x))| - 1."""
    return sum(
        max(0, abs(ranks[x] - ranks[t]) - 1 - slack[x]) for x, t in successor.items()
    )


def connected_graph_classes(max_a: int, max_b: int):
    """One connected graph per class of bipartite graphs with sides up to the caps.

    Classes are taken up to relabelling within each side (the sides stay
    apart).  Every class has a member whose biadjacency rows are sorted, so
    only sorted row tuples are generated; the class key is the smallest
    sorted row tuple over all column permutations.
    """
    for a in range(1, max_a + 1):
        for b in range(1, max_b + 1):
            remap = [
                [sum(1 << perm[y] for y in range(b) if row >> y & 1) for row in range(1 << b)]
                for perm in permutations(range(b))
            ]
            seen: set[tuple[int, ...]] = set()
            for rows in combinations_with_replacement(range(1 << b), a):
                key = min(tuple(sorted(table[r] for r in rows)) for table in remap)
                if key in seen:
                    continue
                seen.add(key)
                edges = [(x, y, 1) for x in range(a) for y in range(b) if rows[x] >> y & 1]
                if is_connected_triple(a, b, edges):
                    yield a, b, edges


def with_pendant_path(t: Triple, on_x: bool, v: int, length: int, leaf_weight: int = 1) -> Triple:
    """t plus a path of length edges hanging off vertex v (on X iff on_x).

    The path's vertices are new, numbered after the existing ones on each
    side; its last edge, the leaf edge, gets leaf_weight.
    """
    a, b, edges = t
    edges = list(edges)
    prev = v
    for i in range(length):
        w = leaf_weight if i == length - 1 else 1
        if on_x:
            edges.append((prev, b, w))
            prev, b = b, b + 1
        else:
            edges.append((a, prev, w))
            prev, a = a, a + 1
        on_x = not on_x
    return a, b, edges


def random_caterpillar(rng, max_spine: int = 8, max_leaves: int = 3) -> Triple:
    """Random caterpillar with at least one pair of sibling leaves.

    A spine path of 1..max_spine vertices alternates sides from a random
    starting side; each spine vertex gets 0..max_leaves leaves on the other
    side, one of them at least two.  Labels are shuffled within each side.
    """
    spine = rng.randint(1, max_spine)
    on_x = rng.random() < 0.5
    counts = {True: 0, False: 0}  # next free index per side, keyed by "is X"
    ids = []
    for i in range(spine):
        side = on_x if i % 2 == 0 else not on_x
        ids.append((side, counts[side]))
        counts[side] += 1
    pairs = [((u, v) if su else (v, u)) for (su, u), (_, v) in zip(ids, ids[1:])]
    leaves = [rng.randint(0, max_leaves) for _ in ids]
    leaves[rng.randrange(spine)] = rng.randint(2, max(2, max_leaves))
    for (side, v), count in zip(ids, leaves):
        for _ in range(count):
            leaf = counts[not side]
            counts[not side] += 1
            pairs.append((v, leaf) if side else (leaf, v))
    a, b = counts[True], counts[False]
    px = rng.sample(range(a), a)
    py = rng.sample(range(b), b)
    return a, b, sorted((px[x], py[y], 1) for x, y in pairs)


def random_disconnected_graph(rng, max_block_side: int = 3, edge_prob: float = 0.7) -> Triple:
    """Rejection-sample a graph with at least two components.

    Two or three blocks, each with 0..max_block_side vertices per side,
    joined only within a block, each pair with probability edge_prob; the
    labels are shuffled within each side.  So some graphs have an empty
    side, many have isolated vertices, and many blocks have cycles.
    """
    while True:
        a = b = 0
        pairs = []
        for _ in range(rng.randint(2, 3)):
            ba = rng.randint(0, max_block_side)
            bb = rng.randint(0, max_block_side)
            pairs += [
                (a + x, b + y)
                for x in range(ba)
                for y in range(bb)
                if rng.random() < edge_prob
            ]
            a += ba
            b += bb
        px = rng.sample(range(a), a)
        py = rng.sample(range(b), b)
        edges = sorted((px[x], py[y], 1) for x, y in pairs)
        if not is_connected_triple(a, b, edges):
            return a, b, edges


@st.composite
def weighted_connected_graphs(draw, max_side: int = 5):
    """A connected graph with 1 to max_side vertices a side and edge weights 1-3.

    A spanning tree grown from the edge (x0, y0), each further vertex
    joining a vertex already placed on the other side, plus extra edges.
    """
    a = draw(st.integers(1, max_side))
    b = draw(st.integers(1, max_side))
    rest = [("x", x) for x in range(1, a)] + [("y", y) for y in range(1, b)]
    rest = draw(st.permutations(rest))
    placed = {"x": [0], "y": [0]}
    cells = {(0, 0)}
    for side, v in rest:
        if side == "x":
            cells.add((v, draw(st.sampled_from(placed["y"]))))
        else:
            cells.add((draw(st.sampled_from(placed["x"])), v))
        placed[side].append(v)
    every = [(x, y) for x in range(a) for y in range(b)]
    cells |= set(draw(st.lists(st.sampled_from(every), max_size=6)))
    weight = st.sampled_from([1, 1, 1, 2, 3])
    return a, b, sorted((x, y, draw(weight)) for x, y in cells)


@st.composite
def weighted_triples(draw, covered: bool = False, max_side: int = 8):
    """Random weighted graphs with up to max_side vertices a side and 20 edges.

    Weights run up to 2^70.  Unless covered, some vertices are isolated,
    trailing ones included, and a graph may have no edge at all.  With
    covered, the last vertex on each side has an edge, which is what an
    edge list needs to carry the side sizes.
    """
    weights = st.one_of(st.just(1), st.integers(1, 9), st.integers(1, 1 << 70))
    cells = st.tuples(st.integers(0, max_side - 2), st.integers(0, max_side - 2))
    edges = draw(st.dictionaries(cells, weights, max_size=20))
    if covered:
        x_count = 1 + max((x for x, _ in edges), default=-1)
        y_count = 1 + max((y for _, y in edges), default=-1)
    else:
        x_count = draw(st.integers(max((x + 1 for x, _ in edges), default=0), max_side))
        y_count = draw(st.integers(max((y + 1 for _, y in edges), default=0), max_side))
    return x_count, y_count, sorted((x, y, w) for (x, y), w in edges.items())


def graph_to_text(g) -> str:
    """Canonical native-format text of a BipartiteGraph; parse_graph_text round-trips it."""
    lines = [f"bigraph {g.x_count} {g.y_count}"]
    for x, y, w in g.edges:
        lines.append(f"x{x} y{y}" if w == 1 else f"x{x} y{y} {w}")
    return "\n".join(lines) + "\n"


def left_in_cycles(call) -> int:
    """Objects that only the cyclic collector frees after call(), run warm."""
    call()
    gc.collect()
    gc.disable()
    try:
        call()
        return gc.collect()
    finally:
        gc.enable()
