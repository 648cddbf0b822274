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

3. Therefore every layout of a drawing with at most k crossings has gap
   cost sum(max(0, gap(x) - l(x))) <= 4k.  The walk builds layouts as
   relative orders: it inserts the side's vertices in spine order
   (parents first, so T(x) is placed before x) into one left-to-right
   sequence, trying every position.  For a placed x let between(x) count
   the placed vertices strictly between x and T(x).  It only grows as
   further vertices are inserted and equals gap(x) once all are placed,
   so the partial cost sum(max(0, between(x) - l(x))) never exceeds the
   final one, and an insertion that takes it above 4k is cut with every
   layout below it.  A layout is pinned down by the rank of the root
   and, per non-root vertex x, its gap(x) and whether x lies left or
   right of T(x): placing the vertices in spine order, each rank follows
   from its parent's.  At most a - 1 vertices have l(x) = 1, so the raw
   gaps still sum to at most 4k + a - 1: the output is a subset of the
   orders that count_bound counts by those (root rank, gaps, directions)
   choices.  The gap vectors whose sum is at most 4k + a - 1, not only
   those whose sum is exactly that, number C(4k+2a-2, a-1) <=
   2^(4k+2a-2).  That total is not capped; the walk's one guard is
   Limits.max_walk_nodes.

4. The same walk also cuts on the one-sided crossing bound (Juenger and
   Mutzel 1997; Dujmovic, Fernau and Kaufmann 2008).  Fix this side's
   order; for opposite-side vertices u, v let c_uv be the weight of the
   edge pairs that cross when u is left of v.  Every order of the other
   side pays c_uv or c_vu for each pair, so any drawing with this layout
   has at least sum(min(c_uv, c_vu)) crossings.  A crossable edge pair's
   term is fixed as soon as both of its same-side endpoints are placed,
   so a partial order already yields a partial sum; sums only grow as
   more vertices are placed and min is monotone, so the partial bound
   never decreases along a branch, and a branch is cut as soon as it
   exceeds k.  A layout of a drawing with at most k crossings has a bound
   of at most k, so no such layout is lost.  The crossable edge pairs,
   their weights and their signed terms come from
   BipartiteGraph.pair_terms(side).  Which of a pair's two terms a
   placed vertex x settles against an earlier z depends only on whether
   x is left of z, so the sums, and the bound, depend only on the
   relative order of the placed vertices, which is what the walk
   builds.  It keeps c_uv - c_vu per pair: the settled
   weight c_uv + c_vu does not depend on the order, and
   sum(min(c_uv, c_vu)) = (settled weight - sum(|c_uv - c_vu|)) / 2.
   Since it places vertices in a fixed order, only the rows of a later
   vertex x against an earlier z are ever read: the change when x goes
   left of all of order[0..d-1], the same set on every branch, and the
   change when x then moves right past z.

5. The output is therefore exactly the layouts with gap cost at most 4k
   on the spine and one-sided bound at most k, and that set is closed
   under reversal.  l(x) depends only on the graph and the spine.
   Reversing a layout (rank r -> a - 1 - r) keeps every
   |rank(x) - rank(T(x))|, hence every gap and every cost, and swaps c_uv
   with c_vu for every pair, hence keeps the bound.  Every layout has
   order[1], the first vertex after the root, on one side of the root,
   and its reversal has it on the other.  So the walk inserts order[1]
   only right of the root and emits each layout it reaches together with
   its reversal; the two halves are disjoint, so nothing repeats.

The machinery here requires a side of 2 or more.  The solver never
walks a smaller one: a connected graph with a side of at most one vertex
is a star, a caterpillar, which the solver settles at 0 before any walk.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from typing import Sequence

from .graph import BipartiteGraph, GraphError, Side, _check_budget
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
        for v in order:  # breadth first: the loop also visits what it appends
            order.extend(sorted(children.get(v, ())))
        if len(order) != len(self.successor) + 1:
            raise GraphError("successor map does not reach every vertex from the root")
        return tuple(order)


def _euler_circuit(g: BipartiteGraph, start: int) -> list[int]:
    """Deterministic Eulerian circuit of the doubled multigraph.

    Vertices are combined ids (X vertex i -> i, Y vertex j -> x_count + j).
    Every edge is traversed twice, so every vertex degree is even and a
    circuit exists whenever the graph is connected.  Hierholzer,
    iterative, always leaving by the lowest neighbour whose edge has been
    traversed fewer than two times, with the assembled circuit reversed
    at the end.
    """
    xc = g.x_count
    edges = g.edges
    # g.edges is sorted with no duplicates, so built from the last edge
    # down, every list ends with its lowest neighbour
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for e in range(len(edges) - 1, -1, -1):
        x, y, _ = edges[e]
        adj[x].append((xc + y, e))
        adj[xc + y].append((x, e))
    used = [0] * len(edges)  # traversals of each edge so far, 0 to 2
    stack = [start]
    circuit: list[int] = []
    v = start
    while True:
        lst = adj[v]
        while lst:
            w, e = lst[-1]
            if used[e] == 2:
                lst.pop()  # no traversal left: never looked at again
                continue
            used[e] += 1
            stack.append(w)
            v = w
            break
        else:  # every edge at v is used up: v comes next, from the end
            circuit.append(stack.pop())
            if not stack:
                break
            v = stack[-1]
    circuit.reverse()
    return circuit


def build_spine(g: BipartiteGraph, side: Side, root: int) -> SpineMap:
    """Successor and witness maps from the deterministic Eulerian circuit.

    For each side vertex x != root, T(x) is the same-side vertex two steps
    after the last occurrence of x on the circuit and mid(x) the vertex in
    between.  The circuit alternates sides, T(x)'s last visit comes later
    than x's, and the circuit both starts and ends at the root, so the
    successor pointers form a tree rooted there.  Both maps list the
    vertices in the order of their first visit.
    """
    a = g.side_count(side)
    b = g.side_count(side.other)
    if a < 2 or b < 1:
        raise GraphError("spine needs at least 2 vertices on the side and 1 opposite")
    if not 0 <= root < a:
        raise GraphError(f"root {root} out of range for side of size {a}")

    xc = g.x_count
    circuit = _euler_circuit(g, root if side is Side.X else xc + root)
    # the circuit alternates sides from the root: this side at even positions
    if side is Side.X:
        own = circuit[0::2]
        mids = [cid - xc for cid in circuit[1::2]]
    else:
        own = [cid - xc for cid in circuit[0::2]]
        mids = circuit[1::2]
    # one pass: a later visit overwrites the values but keeps the key's
    # place, so each map holds the last visit's values in first-visit order
    successor = dict(zip(own, own[1:]))
    witness = dict(zip(own, mids))
    # the root's last visit ends the circuit; its earlier ones are dropped
    successor.pop(root, None)
    witness.pop(root, None)
    # the circuit reaches exactly the root's component
    if len(successor) != a - 1 or len(set(mids)) != b:
        raise GraphError("spine construction requires a connected graph")
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
    g: BipartiteGraph, side: Side, order: tuple[int, ...]
) -> tuple[list[list[Sequence[tuple[int, int]]]], list[list[tuple[int, int]]], list[int]]:
    """Crossing weights that each same-side order decision settles.

    One pass over g.pair_terms(side), whose term e of an edge pair at
    side vertices x and z is its change to c_lohi - c_hilo at p when x
    is left of z, and -e when x is right of z.  The walk keeps those
    differences in a flat table indexed by p.  Only the direction of a
    later vertex against an earlier one is built, because it is the only
    one the walk reads, so a pair with x before z in order is read the
    other way round, as z against x with -e:

    - left[d] lists (p, sum of e) over the edge pairs of x = order[d]
      with order[0..d-1], where that sum is not 0: the change when x
      goes left of every placed vertex;
    - moves[x][z] lists (p, -2 * e) per edge pair of x with z: the change
      when x then moves right past z (an empty tuple if there is none);
    - settles[d] is the total weight that order[d] settles against
      order[0..d-1], whichever way round each pair goes.
    """
    a = len(order)
    at = [0] * a
    for d, v in enumerate(order):
        at[v] = d
    settles = [0] * a
    moves: list[list[Sequence[tuple[int, int]]]] = [[()] * a for _ in range(a)]
    sums: list[dict[int, int]] = [{} for _ in range(a)]
    for x, z, p, e, w in g.pair_terms(side):
        if at[x] < at[z]:
            x, z, e = z, x, -e
        d = at[x]
        settles[d] += w
        total = sums[d]
        total[p] = total.get(p, 0) + e
        row = moves[x]
        if row[z]:
            row[z].append((p, -2 * e))
        else:
            row[z] = [(p, -2 * e)]
    left = [[(p, e) for p, e in total.items() if e] for total in sums]
    return moves, left, settles


def check_depth(side: Side, size: int) -> None:
    """Raise ResourceLimitError unless a search one frame deep per vertex fits.

    The candidate walk and the solver's second-side search each recurse
    once per vertex of the side they order, on top of the frames of
    their callers.  This counts those frames and raises, naming the side
    and its size, when size more would pass sys.getrecursionlimit().
    It runs before any table of the search is built.
    """
    depth = 0
    frame = sys._getframe(1)
    while frame is not None:
        depth += 1
        frame = frame.f_back
    limit = sys.getrecursionlimit()
    if depth + size + 4 > limit:
        raise ResourceLimitError(
            f"side {side.value} has {size} vertices: a search one frame deep per "
            f"vertex would pass the recursion limit {limit}"
        )


def enumerate_candidates(
    g: BipartiteGraph,
    side: Side,
    k: int,
    limits: Limits = DEFAULT_LIMITS,
) -> list[tuple[int, ...]]:
    """The rank tuples of the layouts within the gap cost and the one-sided bound.

    Requires a connected graph with no sibling pairs and side size >= 2
    (the caller merges sibling leaves first); raises GraphError when a
    spine witness has two or more leaves other than x and T(x), which
    only sibling leaves give (see _leaf_slack).  Every check raises at
    the call.  Returns a list of rank tuples (ranks[v] is the position
    of vertex v) that contains, for every drawing with at most k
    crossings, that drawing's layout on this side; every layout in it
    has a one-sided crossing bound of at most k.

    The walk builds relative orders depth-first: it keeps the placed
    vertices as one left-to-right sequence and inserts x = order[d]
    (spine order, parents first, so T(x) is placed before x) at each of
    the d + 1 positions in turn.  An insertion survives two checks, both
    on lower bounds that only grow as vertices are inserted (module
    docstring, steps 3 and 4):

    - the gap cost sum(max(0, between(x) - l(x))) is at most 4k, where
      between(x) counts the placed vertices strictly between x and T(x)
      and l is computed once per call by _leaf_slack.  Inserting x adds
      x's own term and 1 for each placed y whose pair (y, T(y)) it
      splits and whose between(y) already reaches l(y);
    - the one-sided bound is at most k.  Per opposite-side pair the walk
      keeps c_uv - c_vu.  The placed vertices are order[0..d-1] whatever
      their arrangement, so putting x left of all of them is one
      precomputed row, left[d] of _order_tables; moving the insertion
      point right past a placed z then applies moves[x][z].  The
      positions are tried left to right with one row per step, in one
      sweep from position 0, and the bound is (settled weight -
      sum(|c_uv - c_vu|)) / 2.  The positions before the first one the
      gap cost can admit (and, for order[1], the one left of the root)
      are passed without a check: the sweep only applies their rows and
      adds up their gap charges.  After the last position the node
      takes its own updates back, so the table is as its parent left it.

    The walk is a plain recursive function: each node is one call, and
    a node at depth a appends its layout to one list.  walk, which calls
    itself, is dropped when it returns or raises, so its tables go with
    this call, not at the next cyclic collection.  At depth a the
    sequence is the layout and both checks are exact, so the result is
    exactly the layouts with gap cost at most 4k and bound at most k.
    Reversal keeps both (module docstring, step 5), so order[1] is
    inserted only right of the root, and each leaf is returned followed
    by its reversal, which has order[1] left of the root and is never
    walked.  Distinct walk nodes are distinct relative orders, so each
    surviving relative order is entered once and the result has no
    duplicates.

    The walk has at most as many nodes as a walk that assigns absolute
    ranks (a root rank of at most (a - 1) / 2, then each vertex at some
    gap from its successor's rank, cut by the same two checks on those
    gaps).  Take a node, the order of order[0..d-1], or its reversal,
    whichever has the root in its left half, and pack it onto the ranks
    0..d-1: each gap is then the between count and the bound is the
    same, so the packed ranks pass both checks, and so do their
    restrictions to order[0..d'-1], which only lose terms.  That makes
    it a node of the rank walk, and distinct nodes pack to distinct
    rank-walk nodes, because a walked order's reversal is never walked.

    The raw gaps of a returned layout sum to at most 4k + a - 1, the
    count_bound argument, for any k: no cap applies to it.  The one
    guard is max_walk_nodes, which counts the nodes of the walk, leaves
    included, and so also bounds the result: every layout returned is a
    leaf of the walk or the reversal of one, so the list holds at most
    2 * max_walk_nodes layouts.  A node costs time linear in its depth
    plus the table entries of the vertex it inserts (see Limits).  The
    walk recurses once per vertex, so a side too deep for the recursion
    limit raises ResourceLimitError at once (check_depth), before any
    table is built.  So does a graph with more crossable edge pairs,
    counted from the degrees, than limits.max_crossable_pairs: g.pair_terms
    and the tables built from it hold one entry per such pair.
    """
    _check_budget("k", k)
    a = g.side_count(side)
    check_depth(side, a)
    pairs = g.crossable_pair_count
    if pairs > limits.max_crossable_pairs:
        raise ResourceLimitError(
            f"candidate walk on side {side.value} at k={k}: the graph has {pairs} "
            f"crossable edge pairs, over max_crossable_pairs={limits.max_crossable_pairs}"
        )
    spine = build_spine(g, side, root=0)
    order = spine.decode_order
    successor = spine.successor
    slack = _leaf_slack(g, spine)
    moves, left, settles = _order_tables(g, side, order)
    cap = 4 * k
    # least[d]: the bound of order[0..d] is at most k iff sum(|c_uv - c_vu|)
    # reaches the weight they settle minus 2k
    least = list(accumulate(settles, initial=-2 * k))[1:]
    # (y, T(y), l(y)) for y = order[1], order[2], ...
    spans = [(y, successor[y], slack[y]) for y in order[1:]]
    seq = [order[0]]  # the placed vertices, left to right
    where = [0] * a  # position in seq of each placed vertex
    diff = [0] * g.side_count(side.other) ** 2  # c_uv - c_vu at p = u * b + v, u < v
    leaves: list[tuple[int, ...]] = []
    max_nodes = limits.max_walk_nodes
    nodes = 0

    def walk(depth: int, spent: int, spread: int) -> None:
        nonlocal nodes
        nodes += 1
        if nodes > max_nodes:
            raise ResourceLimitError(
                f"candidate walk on side {side.value} at k={k} exceeds "
                f"max_walk_nodes={max_nodes}"
            )
        for i, v in enumerate(seq):
            where[v] = i
        if depth == a:
            leaves.append(tuple(where))
            return
        x = order[depth]
        row = moves[x]
        # step[i]: charge at position i minus charge at i - 1, where a
        # placed pair (y, T(y)) is charged when x lands strictly inside it
        step = [0] * (depth + 1)
        for y, ty, ly in spans[: depth - 1]:
            lo, hi = where[y], where[ty]
            if lo > hi:
                lo, hi = hi, lo
            if hi - lo > ly:  # between(y) >= l(y)
                step[lo + 1] += 1
                step[hi + 1] -= 1
        t = where[successor[x]]
        free = slack[x]
        reach = cap - spent + free
        first = 1 if depth == 1 else max(0, t - reach)
        last = min(depth, t + 1 + reach)
        bar = least[depth]
        charge = 0
        for i in range(last + 1):
            # x left of every placed vertex, then right past seq[i - 1]
            for p, e in row[seq[i - 1]] if i else left[depth]:
                d0 = diff[p]
                d1 = d0 + e
                diff[p] = d1
                spread += abs(d1) - abs(d0)
            charge += step[i]
            if i >= first:
                gap = t - i if i <= t else i - t - 1
                cost = spent + charge + (gap - free if gap > free else 0)
                if cost <= cap and spread >= bar:
                    seq.insert(i, x)
                    walk(depth + 1, cost, spread)
                    del seq[i]
        # take this node's updates back.  x right of every placed vertex
        # is the negation of left[depth], so from x at last that is either
        # undoing the moves past seq[0..last-1] and then left[depth], or
        # the moves past seq[last..] and then minus left[depth]
        if 2 * last <= depth:
            for z in seq[:last]:
                for p, e in row[z]:
                    diff[p] -= e
            for p, e in left[depth]:
                diff[p] -= e
        else:
            for z in seq[last:]:
                for p, e in row[z]:
                    diff[p] += e
            for p, e in left[depth]:
                diff[p] += e

    try:
        walk(1, 0, 0)
    finally:
        del walk  # walk refers to itself: drop it so its tables go with this call
    top = a - 1
    return [ranks for found in leaves for ranks in (found, tuple([top - r for r in found]))]


def count_bound(a: int, k: int) -> int:
    """Closed-form ceiling on the candidate count: 2^(4k+2a-2) * 2^(a-1) * a.

    Counting argument: a candidate layout is fixed by the rank of the
    root and, per non-root vertex x, its gap and whether it lies left or
    right of T(x) (module docstring, step 3).  The a - 1 gaps are
    non-negative and sum to at most S = 4k + a - 1; adding a slack term
    makes the sum exactly S, so there are C(S + a - 1, a - 1) =
    C(4k+2a-2, a-1) <= 2^(4k+2a-2) gap vectors within budget, times
    2^(a-1) direction vectors, times a root ranks.  Exact big-integer
    result; requires a >= 2 so the exponent is non-negative, and k an
    int >= 0.
    """
    if a < 2:
        raise ValueError("count_bound requires a side of size >= 2")
    _check_budget("k", k)
    return (1 << (4 * k + 2 * a - 2)) * (1 << (a - 1)) * a
