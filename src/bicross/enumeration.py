"""Candidate layout enumeration for budgeted crossing search.

The search space of all a! layouts of a side collapses to 2^O(a + k) once
the graph is connected and free of sibling pairs.  The mechanism:

1. Double every edge and walk a deterministic Eulerian circuit of the
   resulting multigraph.  For each side vertex x other than the circuit's
   root, record the same-side vertex visited right after the LAST visit
   of x (the successor T(x)) and the opposite-side vertex in between (the
   witness mid(x)).  The pairs {x, T(x)} always form a spanning tree on
   the side, and each graph edge serves at most two witness paths.

2. In any drawing with at most k crossings, the rank displacements
   gap(x) = |rank(x) - rank(T(x))| - 1 satisfy
   sum(max(0, gap(x) - l(x))) <= 4k, where l(x) = 1 if mid(x) has a
   degree-1 neighbour on this side other than x and T(x), and l(x) = 0
   otherwise.  Take a vertex z strictly between x and T(x).  Its edges
   all end on the other side, and each one that does not go to mid(x)
   crosses exactly one of the two witness edges (x, mid(x)) and
   (T(x), mid(x)).  So z puts no crossing on them only if its only edge
   goes to mid(x), that is, if z is a leaf of mid(x); with no sibling
   pairs mid(x) has at most one leaf on this side, and that leaf counts
   only when it is neither x nor T(x).  The witness edges of x therefore
   carry at least gap(x) - l(x) crossings.  Each crossing pairs two
   edges, each edge lies on at most two witness paths, so a crossing is
   counted for at most four vertices x, giving the 4k total.

3. Therefore every layout of a drawing with at most k crossings is
   reproduced by choosing a root rank, and per non-root vertex a gap and
   a direction, where each gap costs max(0, gap - l(x)) and the costs
   sum to at most 4k.  Enumerating those choices (depth-first over the
   spine tree, pruning on rank collisions and exhausted budget) reaches
   every layout that can appear in a drawing within budget.  At most
   a - 1 vertices have l(x) = 1, so the raw gaps still sum to at most
   4k + a - 1 (gap_budget, capped by Limits.max_gap_budget): the stream
   is a subset of the orders that count_bound counts.

4. The same walk also cuts on the one-sided crossing bound (Juenger and
   Mutzel 1997; Dujmovic, Fernau and Kaufmann 2008).  Fix this side's
   order; for opposite-side vertices u, v let c_uv be the weight of the
   edge pairs that cross when u is left of v.  Every order of the other
   side pays c_uv or c_vu for each pair, so any drawing with this layout
   has at least sum(min(c_uv, c_vu)) crossings.  A crossable edge pair's
   term is fixed as soon as both of its same-side endpoints have ranks,
   so a partial assignment already yields a partial sum; sums only grow
   as more vertices are placed and min is monotone, so the partial bound
   never decreases along a branch, and a branch is cut as soon as it
   exceeds k.  A layout of a drawing with at most k crossings has a bound
   of at most k, so no such layout is lost.  The crossable edge pairs and
   their weights come from BipartiteGraph.crossable_pairs.  Which of a
   pair's two terms a placed vertex x settles against an earlier z
   depends only on whether x is left of z, so the sums, and the bound,
   depend only on the relative order of the placed vertices, not on
   their ranks.  The walk places vertices in a fixed order, so it
   computes them once per relative order it reaches and looks them up
   for every other placement with that relative order.

5. The stream is therefore exactly the layouts with gap cost at most 4k
   on the spine and one-sided bound at most k, and that set is closed
   under reversal.  l(x) depends only on the graph and the spine.
   Reversing a layout (rank r -> a - 1 - r) keeps every
   |rank(x) - rank(T(x))|, hence every gap and every cost, and swaps c_uv
   with c_vu for every pair, hence keeps the bound.  So the walk only
   visits root ranks r <= (a - 1) / 2 and emits each layout it reaches
   together with its reversal, whose root rank is a - 1 - r.  When a is
   odd the middle root rank is its own mirror: its walk already reaches
   both layouts of every mirror pair, so it emits them unmirrored.

Sides of size at most 1 have a single layout and are handled by the
solver directly; the machinery here requires a side of 2 or more.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple

from .drawing import Layout
from .graph import BipartiteGraph, GraphError, Side, is_connected
from .limits import DEFAULT_LIMITS, Limits, ResourceLimitError


@dataclass(frozen=True)
class SpineMap:
    """Tree-forming successor map on one side, with witness vertices.

    successor[x] is the same-side vertex T(x) ranked "near" x by the
    budget argument; witness[x] is an opposite-side vertex adjacent to
    both x and T(x), so x - witness[x] - T(x) is a path of length two.
    Both maps cover every side vertex except the root.
    """

    side: Side
    root: int
    successor: dict[int, int]
    witness: dict[int, int]

    @cached_property
    def decode_order(self) -> tuple[int, ...]:
        """Vertices root-first, parents before children, ascending within ties."""
        children: dict[int, list[int]] = {}
        for child, parent in self.successor.items():
            children.setdefault(parent, []).append(child)
        order = [self.root]
        queue = [self.root]
        while queue:
            v = queue.pop(0)
            for c in sorted(children.get(v, ())):
                order.append(c)
                queue.append(c)
        if len(order) != len(self.successor) + 1:
            raise GraphError("successor map does not reach every vertex from the root")
        return tuple(order)


@dataclass(frozen=True)
class CandidateEncoding:
    """(gaps, signs, root_rank) triple that pins down a layout on a spine.

    gaps[x] (>= 0) and signs[x] (+1 or -1) are defined for every non-root
    vertex; the decoded rank of x sits signs[x] * (gaps[x] + 1) away from
    the rank of its successor.
    """

    gaps: dict[int, int]
    signs: dict[int, int]
    root_rank: int

    def gap_total(self) -> int:
        return sum(self.gaps.values())


def _euler_circuit(g: BipartiteGraph, start: int) -> list[int]:
    """Deterministic Eulerian circuit of the doubled multigraph.

    Vertices are combined ids (X vertex i -> i, Y vertex j -> x_count + j).
    Edge number e contributes two parallel slots 2e and 2e+1; every vertex
    degree is even, so a circuit exists whenever the graph is connected.
    Hierholzer, iterative, always taking the lowest (neighbor, slot) still
    unused, with the assembled circuit reversed at the end.
    """
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e, (x, y, _) in enumerate(g.edges):
        u, v = x, g.x_count + y
        for slot in (2 * e, 2 * e + 1):
            adj[u].append((v, slot))
            adj[v].append((u, slot))
    for lst in adj:
        lst.sort()
    ptr = [0] * g.n
    used = [False] * (2 * g.m)
    stack = [start]
    circuit: list[int] = []
    while stack:
        v = stack[-1]
        lst = adj[v]
        while ptr[v] < len(lst) and used[lst[ptr[v]][1]]:
            ptr[v] += 1
        if ptr[v] == len(lst):
            circuit.append(stack.pop())
        else:
            w, slot = lst[ptr[v]]
            used[slot] = True
            stack.append(w)
    circuit.reverse()
    return circuit


def build_spine(g: BipartiteGraph, side: Side, root: int) -> SpineMap:
    """Successor and witness maps from the deterministic Eulerian circuit.

    For each side vertex x != root, T(x) is the same-side vertex two steps
    after the last occurrence of x on the circuit and mid(x) the vertex in
    between.  The circuit alternates sides, T(x)'s last visit comes later
    than x's, and the circuit both starts and ends at the root, so the
    successor pointers form a tree rooted there.
    """
    a = g.side_count(side)
    b = g.side_count(side.other)
    if a < 2 or b < 1:
        raise GraphError("spine needs at least 2 vertices on the side and 1 opposite")
    if not 0 <= root < a:
        raise GraphError(f"root {root} out of range for side of size {a}")
    if not is_connected(g):
        raise GraphError("spine construction requires a connected graph")

    offset = 0 if side is Side.X else g.x_count
    circuit = _euler_circuit(g, offset + root)

    def to_side(cid: int) -> int | None:
        if side is Side.X:
            return cid if cid < g.x_count else None
        return cid - g.x_count if cid >= g.x_count else None

    last: dict[int, int] = {}
    for pos, cid in enumerate(circuit):
        v = to_side(cid)
        if v is not None:
            last[v] = pos

    def to_other(cid: int) -> int:
        return cid - g.x_count if side is Side.X else cid

    successor: dict[int, int] = {}
    witness: dict[int, int] = {}
    for v, pos in last.items():
        if v == root:
            continue  # the root is the final vertex of the circuit
        t = to_side(circuit[pos + 2])
        assert t is not None  # circuit alternates sides
        successor[v] = t
        witness[v] = to_other(circuit[pos + 1])
    return SpineMap(side, root, successor, witness)


def verify_spine(g: BipartiteGraph, s: SpineMap) -> bool:
    """Independent check of the three spine invariants.

    1. every witness path exists: edges (x, mid(x)) and (T(x), mid(x)) are
       in the graph for each non-root x;
    2. no graph edge lies on more than two witness paths;
    3. the {x, T(x)} pairs form a spanning tree of the side.
    Also rejects maps whose key set is not exactly side-minus-root.
    """
    a = g.side_count(s.side)
    if not 0 <= s.root < a:
        return False
    expected = set(range(a)) - {s.root}
    if set(s.successor) != expected or set(s.witness) != expected:
        return False

    def edge_exists(side_v: int, other_v: int) -> bool:
        if s.side is Side.X:
            return g.has_edge(side_v, other_v)
        return g.has_edge(other_v, side_v)

    usage: dict[tuple[int, int], int] = {}
    for x in expected:
        t = s.successor[x]
        mid = s.witness[x]
        if not 0 <= t < a or t == x:
            return False
        if not edge_exists(x, mid) or not edge_exists(t, mid):
            return False
        for end in (x, t):
            key = (end, mid)
            usage[key] = usage.get(key, 0) + 1
    if any(count > 2 for count in usage.values()):
        return False

    # Union-find over the side: a - 1 acyclic pairs connect everything.
    parent = list(range(a))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for x, t in s.successor.items():
        rx, rt = find(x), find(t)
        if rx == rt:
            return False
        parent[rx] = rt
    return True


def decode_layout(s: SpineMap, enc: CandidateEncoding) -> Layout | None:
    """Ranks from an encoding, or None when they do not form a permutation.

    rank(root) = root_rank, then outward along the spine tree:
    rank(x) = rank(T(x)) + signs[x] * (gaps[x] + 1).  A rank collision or
    an out-of-range rank is a normal failed decode, not an error.
    """
    order = s.decode_order
    a = len(order)
    ranks: dict[int, int] = {s.root: enc.root_rank}
    if not 0 <= enc.root_rank < a:
        return None
    used = {enc.root_rank}
    for x in order[1:]:
        r = ranks[s.successor[x]] + enc.signs[x] * (enc.gaps[x] + 1)
        if not 0 <= r < a or r in used:
            return None
        ranks[x] = r
        used.add(r)
    return Layout(s.side, tuple(ranks[v] for v in range(a)))


def encoding_from_layout(s: SpineMap, layout: Layout) -> CandidateEncoding:
    """The unique encoding that decodes to this layout on this spine.

    Inverse of decode_layout: gap is the rank displacement to the
    successor minus one, sign its direction.  Decoding is injective, so
    decode_layout(s, encoding_from_layout(s, l)) == l for any layout.
    """
    ranks = layout.ranks
    gaps: dict[int, int] = {}
    signs: dict[int, int] = {}
    for x, t in s.successor.items():
        delta = ranks[x] - ranks[t]
        gaps[x] = abs(delta) - 1
        signs[x] = 1 if delta > 0 else -1
    return CandidateEncoding(gaps, signs, ranks[s.root])


def gap_budget(a: int, k: int) -> int:
    """Ceiling on the raw gap total for side size a and crossing budget k: 4k + a - 1.

    The walk charges max(0, gap - l(x)) against 4k; with l(x) <= 1 on at
    most a - 1 vertices, the raw gaps of any streamed layout sum to at
    most this value.
    """
    return 4 * k + a - 1


def _leaf_slack(g: BipartiteGraph, s: SpineMap) -> list[int]:
    """l(x) per side vertex: the rank a gap may skip free of charge.

    l(x) = 1 if mid(x) has a degree-1 neighbour on this side other than x
    and T(x), and 0 otherwise (also 0 for the root).  Such a leaf can sit
    between x and T(x) without crossing a witness edge of x (module
    docstring, step 2).  x and T(x) are neighbours of mid(x), so they are
    among its leaves exactly when their own degree is 1.  Step 2 allows
    at most one such leaf, so two or more (sibling leaves) raise GraphError.
    """
    own, other = (g.x_adj, g.y_adj) if s.side is Side.X else (g.y_adj, g.x_adj)
    leaves = [0] * len(other)
    for nbrs in own:
        if len(nbrs) == 1:
            leaves[nbrs[0]] += 1
    slack = [0] * len(own)
    for x, mid in s.witness.items():
        others = leaves[mid] - (len(own[x]) == 1) - (len(own[s.successor[x]]) == 1)
        if others > 1:
            raise GraphError(
                f"witness {s.side.other.value}{mid} of {s.side.value}{x} has {others} "
                "free leaves; enumeration needs a graph with no sibling pairs"
            )
        slack[x] = others
    return slack


def _order_tables(
    g: BipartiteGraph, side: Side
) -> tuple[list[list[list[tuple[int, int, int]]]], int]:
    """Crossing weights that each same-side order decision settles.

    One pass over g.crossable_pairs.  Opposite-side pairs {lo < hi} are
    numbered p = 0, 1, ... as first met; for each ordered pair (x, z) of
    side vertices, tables[x][z] lists (p, to_lo_first, to_hi_first): the
    edge-pair weight that, once x is ranked left of z, crosses when lo is
    left of hi and when hi is left of lo respectively.  Also returns the
    number of opposite-side pairs.
    """
    a = g.side_count(side)
    pair_index: dict[tuple[int, int], int] = {}
    acc: list[list[dict[int, list[int]]]] = [[{} for _ in range(a)] for _ in range(a)]
    for x, y, x2, y2, w in g.crossable_pairs:
        s, t, s2, t2 = (x, y, x2, y2) if side is Side.X else (y, x, y2, x2)
        p = pair_index.setdefault((t, t2) if t < t2 else (t2, t), len(pair_index))
        # s left of s2: the edges cross iff t2 is left of t, which is "hi
        # first" when t < t2; s2 left of s: the other way round
        hi_first = 1 if t < t2 else 0
        acc[s][s2].setdefault(p, [0, 0])[hi_first] += w
        acc[s2][s].setdefault(p, [0, 0])[1 - hi_first] += w
    tables = [[[(p, lo, hi) for p, (lo, hi) in cell.items()] for cell in row] for row in acc]
    return tables, len(pair_index)


class _BoundState(NamedTuple):
    """One node of the walk's memo: the one-sided bound of a relative order.

    lo[p] and hi[p] are the settled weights c_uv and c_vu of opposite-side
    pair p, bound is sum(min(lo[p], hi[p])), and children[i] is the state
    after the next vertex in spine order is inserted at position i among
    the placed ranks: _UNSEEN until tried, None once the bound cut it.
    """

    lo: list[int]
    hi: list[int]
    bound: int
    children: list


_UNSEEN = object()


def enumerate_candidates(
    g: BipartiteGraph,
    side: Side,
    k: int,
    limits: Limits = DEFAULT_LIMITS,
) -> Iterator[Layout]:
    """Stream the layouts within the gap cost and the one-sided bound.

    Requires a connected graph with no sibling pairs and side size >= 2
    (the caller merges sibling leaves first); raises GraphError when a
    spine witness has two or more leaves other than x and T(x), which
    only sibling leaves give (see _leaf_slack).  Contains, for every drawing
    with at most k crossings, that drawing's layout on this side, and
    every layout it streams has a one-sided crossing bound of at most k.

    The walk assigns ranks depth-first in spine order, starting with a
    budget of 4k.  Vertex x may take any gap up to the remaining budget
    plus l(x) and pays max(0, gap - l(x)), with l computed once per call
    by _leaf_slack (module docstring, step 2).  Trying every in-range
    unused rank for a vertex is exactly trying every (gap, sign) pair
    whose decode survives, so pruning on collisions or exhausted budget
    discards only encodings whose decode would fail or overspend.
    Placing a vertex adds the order-settled weights against every vertex
    placed before it to the per-pair sums c_uv, c_vu, and the branch is
    cut once sum(min(c_uv, c_vu)) exceeds k (see the module docstring);
    at a leaf that sum is the full one-sided bound.  Distinct surviving
    branches assign some vertex distinct ranks, hence the walk has no
    duplicates.

    The sums after placing order[0..d] are fixed by the relative order of
    those vertices: placing x adds tables[x][z] or tables[z][x] for each
    placed z, chosen by whether x is left of z alone.  So a child's sums
    are fixed by its parent's and by x's position among the placed ranks.
    The walk keeps them in a trie of relative orders (_BoundState), one
    per call and shared by every root rank and gap: each child is settled
    once, at its first try, and a child the bound cuts is stored as cut
    (None).  The walk visits the same nodes and streams the same layouts
    in the same order as it would recomputing the sums at every try.
    Memory: the trie has at most one entry per (depth, relative order)
    tried.  Only entries that survive the cut hold sums, two lists of one
    int per opposite-side pair; each is entered by at least one walk
    node, so there are at most as many as walk nodes.  A cut entry is a
    None slot in its parent's children list, which has depth + 1 slots.

    Reversal keeps both the gap costs and the bound (module docstring, step
    5), so only root ranks up to (a - 1) / 2 are walked and each layout
    found is followed by its reversal, except at the middle root rank of
    an odd side, whose walk holds both layouts of each mirror pair.  A
    reversal has its root on a rank that is never walked, so it repeats
    nothing.  The max_gap_budget check applies to gap_budget(a, k) =
    4k + a - 1, the ceiling on the raw gap total.  The max_walk_nodes
    check counts the nodes of the walk, over all root ranks, and so also
    bounds the trie and the stream: every layout streamed is a leaf of
    the walk or the reversal of one, so a stream holds at most
    2 * max_walk_nodes layouts.
    """
    a = g.side_count(side)
    budget = gap_budget(a, k)
    if budget > limits.max_gap_budget:
        raise ResourceLimitError(
            f"gap budget {budget} exceeds max_gap_budget={limits.max_gap_budget}"
        )
    spine = build_spine(g, side, root=0)
    order = spine.decode_order
    successor = spine.successor
    slack = _leaf_slack(g, spine)
    tables, pairs = _order_tables(g, side)

    ranks = [0] * a
    used = [False] * a
    nodes = 0
    # near[b]: (r, gap) for every rank r that a vertex whose successor sits
    # at rank b can take, in the order tried: by gap, right before left.
    # No vertex can afford a gap above 4k + l(x) <= 4k + 1.
    near = [
        [
            (r, gap)
            for gap in range(min(4 * k + 2, a))
            for r in (b + gap + 1, b - gap - 1)
            if 0 <= r < a
        ]
        for b in range(a)
    ]

    def settle(parent: _BoundState, depth: int, r: int) -> _BoundState | None:
        """The state once order[depth] takes rank r, or None when the bound cuts it."""
        x = order[depth]
        lo = parent.lo[:]
        hi = parent.hi[:]
        bound = parent.bound
        for z in order[:depth]:
            for p, d_lo, d_hi in tables[x][z] if r < ranks[z] else tables[z][x]:
                lo0 = lo[p]
                hi0 = hi[p]
                lo1 = lo0 + d_lo
                hi1 = hi0 + d_hi
                lo[p] = lo1
                hi[p] = hi1
                bound += (lo1 if lo1 < hi1 else hi1) - (lo0 if lo0 < hi0 else hi0)
            if bound > k:
                return None  # the bound only grows: no need to finish the sums
        return _BoundState(lo, hi, bound, [_UNSEEN] * (depth + 2))

    def walk(depth: int, remaining: int, state: _BoundState) -> Iterator[tuple[int, ...]]:
        nonlocal nodes
        nodes += 1
        if nodes > limits.max_walk_nodes:
            raise ResourceLimitError(
                f"candidate walk on side {side.value} at k={k} exceeds "
                f"max_walk_nodes={limits.max_walk_nodes}"
            )
        if depth == a:
            yield tuple(ranks)
            return
        x = order[depth]
        free = slack[x]
        reach = remaining + free
        for r, gap in near[ranks[successor[x]]]:
            if gap > reach:
                break
            if used[r]:
                continue
            slot = sum(used[:r])  # x's position among the placed ranks
            child = state.children[slot]
            if child is _UNSEEN:
                child = state.children[slot] = settle(state, depth, r)
            if child is None:
                continue
            ranks[x] = r
            used[r] = True
            yield from walk(depth + 1, remaining - (gap - free if gap > free else 0), child)
            used[r] = False

    root = order[0]
    top = a - 1
    # one memo for every root rank: the root alone has one relative order
    memo = _BoundState([0] * pairs, [0] * pairs, 0, [_UNSEEN] * 2)
    for root_rank in range(top // 2 + 1):
        mirror = 2 * root_rank != top  # the middle rank is its own mirror
        ranks[root] = root_rank
        used[root_rank] = True
        for found in walk(1, 4 * k, memo):
            for out in (found, tuple(top - r for r in found)) if mirror else (found,):
                yield Layout(side, out)
        used[root_rank] = False


def count_bound(a: int, k: int) -> int:
    """Closed-form ceiling on the candidate stream size: 2^(4k+2a-3) * 2^(a-1) * a.

    Counting argument: at most C(4k+2a-3, 4k+a-1) <= 2^(4k+2a-3) gap
    vectors within budget (weak compositions as bit strings), times
    2^(a-1) sign vectors, times a root ranks.  Exact big-integer result;
    requires a >= 2 so the exponent is non-negative.
    """
    if a < 2:
        raise ValueError("count_bound requires a side of size >= 2")
    if k < 0:
        raise ValueError("crossing budget must be non-negative")
    return (1 << (4 * k + 2 * a - 3)) * (1 << (a - 1)) * a
