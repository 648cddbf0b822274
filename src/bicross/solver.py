"""Exact crossing-number solving.

Before any search, one pass settles every connected component it can.
Each gets a floor read off the component itself: 0 for a caterpillar,
an isolated vertex included, else max(1, crossing_lower_bound)
(caterpillars are exactly the graphs with bcr 0, so every other
component needs a crossing; the bound sums edge-disjoint cycles of the
2-core, see bicross.graph.crossing_lower_bound, and the sibling merge
keeps it).  When the floors sum past the budget the answer is "no" at
once, with no merge built.  Otherwise a caterpillar is answered 0 with
a spine-walk drawing, and every other component is sibling-merged and
searched with the budget less the optima before it and the floors after
it.  For each searched component and each budget t, cut every pendant
path to 2t + 2 edges (the kernel of bicross.graph._pendant_path_kernel,
whose optimum is the merged graph's whenever that is at most t),
enumerate the candidate layouts of the kernel's smaller side (X on a
tie), and for each candidate solve the other side exactly.  The winning
rank pair is lifted in one step to vertex orders of the component: an
uncrossed ladder regrows each cut path, and then each merged vertex is
replaced by its leaves.  The orders of all components become the one
Drawing of the solve, which is recounted before it is returned.  The
budget handed to the enumeration is first capped at the crossing count
of the identity drawing, which the optimum cannot exceed: the weighted
inversions of the merged graph's sorted edges, with no Drawing built.
Work is counted in one record, SolveStats: the counts of each search add
up over the budgets of a component, then over the components.

The search is complete.  The candidate list of the first side holds
the layout of every drawing with at most budget crossings (see
bicross.enumeration), so an empty list proves that the optimum exceeds
the budget.  Once a first-side layout is fixed, the best order of the
other side is one-sided crossing minimization (Juenger and Mutzel 1997;
Dujmovic, Fernau and Kaufmann 2008), which _best_second_order solves
exactly by branch and bound: it appends the other side's vertices left
to right, counts every pair with a placed vertex exactly and every other
pair at min(c_uv, c_vu), and cuts a branch whose count cannot beat the
incumbent.  Both counts only grow along a branch and are exact at a
leaf, so no order that beats the incumbent is cut.  A drawing within
budget has its first-side layout in the list, and its other layout is
an order of the other side that passes every cut until a better pair is
found.  So the minimum over the candidates is the exact crossing number
of the kernel whenever that number is within budget.  The incumbent
order keeps the lexicographically first optimal (X ranks, Y ranks) pair:
with X walked first, the candidates run in sorted order and a later one
must do strictly better; with Y walked first, a later candidate also
wins a tie when its best X ranks come first.  Counts are Python
integers, exact for every weight.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .drawing import (
    Drawing,
    _count_capped,
    crossing_number_fast,
    drawing_from_ranks,
    layout_from_sequence,
    weighted_inversions,
)
from .enumeration import check_depth, count_bound, enumerate_candidates
from .graph import (
    BipartiteGraph,
    GraphComponent,
    MergeResult,
    PathKernel,
    Side,
    _check_budget,
    _leaf_groups,
    _pendant_path_kernel,
    crossing_lower_bound,
    is_caterpillar_forest,
    sibling_merge,
    split_components,
)
from .limits import DEFAULT_LIMITS, Limits, ResourceLimitError

K_MAX_DEFAULT = 32  # bcr_exact's k_max when none is given


class SelfCheckError(RuntimeError):
    """A solver result failed its own consistency check: an internal bug."""


@dataclass(frozen=True)
class SolveStats:
    """Work counts of one search, one component or a whole solve, which add up.

    components: connected components of the graph, isolated vertices
        included (0 in the counts of a search or a component).
    candidates_x, candidates_y: candidate layouts returned by the walk of
        the side walked first, the smaller side of the kernel (X on a
        tie); the other side's count reads 0 for that search.
    pairs_evaluated: second-side searches run, one per first-side
        candidate that was not skipped.
    pruned: first-side candidates skipped because the incumbent already
        met the lower bound; it does not count branches cut in a walk
        or a second-side search.
    kernel_edges: per component that reached enumeration, the edge count
        of the last pendant-path kernel searched, summed.  Every kernel
        has at least 4 edges, so it is positive iff an enumeration ran.
    """

    components: int
    candidates_x: int
    candidates_y: int
    pairs_evaluated: int
    pruned: int
    kernel_edges: int

    def __add__(self, other: SolveStats) -> SolveStats:
        return SolveStats(
            self.components + other.components,
            self.candidates_x + other.candidates_x,
            self.candidates_y + other.candidates_y,
            self.pairs_evaluated + other.pairs_evaluated,
            self.pruned + other.pruned,
            self.kernel_edges + other.kernel_edges,
        )


_NO_WORK = SolveStats(0, 0, 0, 0, 0, 0)


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a budgeted solve.

    decision is "yes" iff the optimum is within the queried budget k;
    optimum is None when it exceeds the budget; a witness drawing is
    attached exactly on "yes" and its recount equals the optimum.
    method is "fastpath" when every component was settled by the
    caterpillar test or by the summed lower bounds, and "fpt-enum" when
    at least one candidate enumeration ran (exactly when
    stats.kernel_edges > 0).
    """

    decision: str
    optimum: int | None
    witness: Drawing | None
    stats: SolveStats
    method: str
    k: int


def _checked(report: SolveReport) -> SolveReport:
    """The report itself, once its consistency invariants hold.

    Checked after every solve, with explicit raises so the check also runs
    under python -O: a "yes" carries an optimum within budget and a witness
    that recounts to it; a "no" carries neither.
    """
    if report.decision == "yes":
        ok = (
            report.optimum is not None
            and report.optimum <= report.k
            and report.witness is not None
            and crossing_number_fast(report.witness) == report.optimum
        )
    else:
        ok = report.decision == "no" and report.optimum is None and report.witness is None
    if not ok:
        raise SelfCheckError(
            f"inconsistent report: decision={report.decision} optimum={report.optimum} "
            f"k={report.k} witness={'present' if report.witness else 'absent'}"
        )
    return report


# -- brute-force oracle ------------------------------------------------------


def _scan_size(g: BipartiteGraph, limits: Limits, name: str) -> int:
    """The a! * b! layout pairs the exhaustive scan name ("oracle" or "census")
    of g would visit; raises unless that count is within limits.

    The factorials are multiplied up one factor at a time, and the check
    stops at the first product over limits.max_pair_evaluations, so no
    factorial of a large side is ever computed.
    """
    cap = limits.max_pair_evaluations
    pairs = 1
    for side in (g.x_count, g.y_count):
        for factor in range(2, side + 1):
            pairs *= factor
            if pairs > cap:
                raise ResourceLimitError(
                    f"{name} would scan {pairs} pairs or more, over "
                    f"max_pair_evaluations={cap}"
                )
    return pairs


def bcr_bruteforce(
    g: BipartiteGraph, limits: Limits = DEFAULT_LIMITS
) -> tuple[int, Drawing]:
    """Exact minimum by scanning every layout pair, with a witness.

    The witness is the lexicographically smallest (fx, fy) rank-array pair
    attaining the minimum; the scan must be within the limits of
    _scan_size.
    """
    _scan_size(g, limits, "oracle")
    cap = None  # a count is returned iff it beats the least so far, the first always
    for fx in permutations(range(g.x_count)):
        ex = [(fx[x], y, w) for x, y, w in g.edges]
        for fy in permutations(range(g.y_count)):
            total = _count_capped(ex, fy, cap)
            if total is not None:
                if not total:  # nothing beats 0, and later witnesses lose the tie-break
                    return 0, drawing_from_ranks(g, fx, fy)
                best, cap = (total, fx, fy), total - 1
    total, fx, fy = best
    return total, drawing_from_ranks(g, fx, fy)


# -- drawing census ----------------------------------------------------------


@dataclass(frozen=True)
class CensusResult:
    """Exhaustive count of layout pairs within a crossing budget.

    bound is the product of the per-side closed-form candidate ceilings
    (1 for a side with fewer than 2 vertices, which has a single layout),
    kept alongside the true count for bound-validation experiments.
    sibling_free records whether the scanned graph itself has no sibling
    pairs; the ceiling is only meaningful as a bound in that case.
    """

    count: int
    bound: int
    pairs_scanned: int
    sibling_free: bool


def census(g: BipartiteGraph, k: int, limits: Limits = DEFAULT_LIMITS) -> CensusResult:
    """Count all drawings of g with at most k crossings by exhaustive scan."""
    _check_budget("k", k)
    pairs = _scan_size(g, limits, "census")
    a, b = g.x_count, g.y_count
    count = 0
    for fx in permutations(range(a)):
        ex = [(fx[x], y, w) for x, y, w in g.edges]
        for fy in permutations(range(b)):
            if _count_capped(ex, fy, k) is not None:
                count += 1
    side_bound_x = count_bound(a, k) if a >= 2 else 1
    side_bound_y = count_bound(b, k) if b >= 2 else 1
    # a side has sibling leaves iff their grouping redirects one of them
    x_redirect, _ = _leaf_groups(g.y_adj, g.x_adj)
    y_redirect, _ = _leaf_groups(g.x_adj, g.y_adj)
    return CensusResult(
        count=count,
        bound=side_bound_x * side_bound_y,
        pairs_scanned=pairs,
        sibling_free=not x_redirect and not y_redirect,
    )


# -- witness construction ----------------------------------------------------


def _caterpillar_orders(g: BipartiteGraph) -> tuple[list[int], list[int]]:
    """X and Y vertex orders of a crossing-free drawing of a connected caterpillar.

    Walks the spine (the path of non-leaf vertices) from one end, appending
    the spine vertex and then its leaves in ascending order; the two layer
    orders read off that walk never flip, so no edge pair crosses.  The
    walk starts at the spine end of smallest index, X before Y; a lone
    edge has no spine and is walked from its X endpoint, and an isolated
    vertex is its own one-vertex order.

    The walk runs on g itself, not on its sibling merge, and lays out
    the witness that the walk on the merged graph, expanded, would.  The
    merge keeps every spine vertex and the order among them, except that
    a star becomes a lone edge, whose one drawing expands to the
    star's.  Merged leaves expand in ascending order in place of their
    representative, the smallest of them, and the walk appends leaves in
    ascending order too.
    """
    if g.m == 0:  # connected, so at most one vertex
        return list(range(g.x_count)), list(range(g.y_count))
    adjs = (g.x_adj, g.y_adj)
    seqs: tuple[list[int], list[int]] = ([], [])
    ends = (
        (side, v)
        for side in (0, 1)
        for v, nbrs in enumerate(adjs[side])
        if len(nbrs) >= 2 and sum(len(adjs[1 - side][w]) >= 2 for w in nbrs) <= 1
    )
    side, v = next(ends, (0, 0))
    prev = -1
    while v >= 0:
        seqs[side].append(v)
        leaves, other_adj = seqs[1 - side], adjs[1 - side]
        step = -1
        for w in adjs[side][v]:
            if len(other_adj[w]) == 1:
                leaves.append(w)
            elif w != prev:
                step = w  # the next spine vertex
        side, prev, v = 1 - side, v, step
    return seqs


def _lift_orders(
    mr: MergeResult,
    kernel: PathKernel,
    kernel_ranks: tuple[tuple[int, ...], tuple[int, ...]],
) -> tuple[list[int], list[int]]:
    """X and Y vertex orders of the pre-merge component from the kernel's ranks.

    kernel was cut from the merged graph mr.graph, and kernel_ranks are
    the X and Y rank arrays of a drawing d of kernel.graph.  First the
    ladder of _pendant_path_kernel: per cut path, j >= 2 is the first
    index whose edge ej is uncrossed in d; p(j+1) ... pK are removed and
    p(j+1) ... pL regrow as two runs, one directly beside p(j-1) and one
    directly beside pj, both on the side given by sign(rank pj -
    rank p(j-2)).  The ladder has d's crossing count whenever d has at
    most as many crossings as the budget the kernel was cut for.  Then
    each merged vertex is replaced by its original leaves (mr.x_groups,
    mr.y_groups) in consecutive positions.  The expanded parallel leaf
    edges never cross each other, and each crosses exactly the edges the
    weighted edge crossed, so the crossing count is unchanged.
    """
    h = mr.graph
    maps = (kernel.x_vertices, kernel.y_vertices)
    ranks = ([-1] * h.x_count, [-1] * h.y_count)  # h vertex -> rank in d, -1 if cut
    for side, layout in enumerate(kernel_ranks):
        for v, r in enumerate(layout):
            ranks[side][maps[side][v]] = r
    fx, fy = kernel_ranks
    ranked = [(fx[x], fy[y]) for x, y, _ in kernel.graph.edges]

    def crossed(side: int, u: int, v: int) -> bool:
        """Whether the kernel edge from u (on side) to v crosses another."""
        rx, ry = (ranks[0][u], ranks[1][v]) if side == 0 else (ranks[0][v], ranks[1][u])
        return any((rx - px) * (ry - py) < 0 for px, py in ranked)

    dropped: tuple[set[int], set[int]] = (set(), set())
    runs: tuple[dict, dict] = ({}, {})  # anchor -> (direction, vertices in order)
    for side0, p in kernel.paths:
        s0 = 0 if side0 is Side.X else 1
        j = next(
            (
                i
                for i in range(2, kernel.keep + 1)
                if not crossed((s0 + i - 1) % 2, p[i - 1], p[i])
            ),
            None,
        )
        if j is None:
            raise SelfCheckError("every kept edge of a cut pendant path is crossed")
        for i in range(j + 1, kernel.keep + 1):
            dropped[(s0 + i) % 2].add(p[i])
        sj = (s0 + j) % 2
        direction = 1 if ranks[sj][p[j]] > ranks[sj][p[j - 2]] else -1
        runs[1 - sj][p[j - 1]] = (direction, p[j + 1 :: 2])
        runs[sj][p[j]] = (direction, p[j + 2 :: 2])

    seqs: tuple[list[int], list[int]] = ([], [])
    for side, groups in ((0, mr.x_groups), (1, mr.y_groups)):
        out = seqs[side]
        layout = kernel_ranks[side]
        for kv in sorted(range(len(layout)), key=layout.__getitem__):
            v = maps[side][kv]
            if v in dropped[side]:
                continue
            direction, run = runs[side].get(v, (1, ()))
            for u in (*reversed(run), v) if direction < 0 else (v, *run):
                out.extend(groups[u])
    return seqs


def _compose_drawing(
    g: BipartiteGraph,
    parts: list[tuple[GraphComponent, tuple[list[int], list[int]]]],
) -> Drawing:
    """Drawing of g with the components' vertex orders side by side.

    Whole component i lies left of component i+1 on both layers.  Edges
    of different components keep the same relative order on both
    layers, so composition adds no crossings.
    """
    x_seq: list[int] = []
    y_seq: list[int] = []
    for part, (xs, ys) in parts:
        x_seq.extend(part.x_vertices[v] for v in xs)
        y_seq.extend(part.y_vertices[v] for v in ys)
    return Drawing(
        g,
        layout_from_sequence(Side.X, x_seq),
        layout_from_sequence(Side.Y, y_seq),
    )


# -- second-side search ------------------------------------------------------


def _best_second_order(
    h: BipartiteGraph,
    side: Side,
    fixed: tuple[int, ...],
    bar: tuple[int, tuple[int, ...]],
    limits: Limits,
    spent: int,
) -> tuple[tuple[int, tuple[int, ...]] | None, int]:
    """The best ranks of side against the fixed ranks of the other side, if they beat bar.

    Returns (found, spent).  found is the least (crossing count, ranks)
    pair, compared as a tuple, over the layouts of side whose pair with
    fixed is below bar, or None when no layout gets below it; bar =
    (c, ()) asks for a count below c.  spent is the count passed in plus
    the nodes of this search, and a search that takes it past
    limits.max_walk_nodes raises ResourceLimitError.

    For u, v on side let c_uv be the weight of the edge pairs that
    cross when u is left of v; each pair of h.pair_terms(side.other)
    crosses in exactly one of the two orders, and its term, signed by
    the fixed ranks, gives c_uv - c_vu.  The search appends the
    vertices left to right.  A placed vertex is left of every unplaced
    one, so with the pairs inside the unplaced set counted at
    min(c_uv, c_vu), placing v adds the excess max(0, c_vu - c_uv) over
    every unplaced u.  The count so far plus the sum of those minima is
    thus a lower bound on every completion that only grows along a
    branch and is exact at a leaf.  A child is entered only if that
    bound is below bar[0], or equal to it with a rank prefix that can
    still come before bar[1]; bar tightens to each leaf found.  Children
    are tried cheapest first, then by vertex.  Nothing outlives the call:
    place, which calls itself, is dropped once it returns or raises, so
    its tables are freed at once, not at the next cyclic collection.
    """
    n = h.side_count(side)
    diff = [0] * (n * n)  # c_uv - c_vu at p = u * n + v, u < v
    total = 0
    for x, z, p, e, w in h.pair_terms(side.other):
        total += w
        diff[p] += e if fixed[x] < fixed[z] else -e
    # rows[v] lists (u, e) where u left of v costs e over the cheaper
    # order of the two; out[u] sums what placing u next adds against the
    # unplaced vertices, and base is the sum of min(c_uv, c_vu)
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    out = [0] * n
    excess = 0
    for p, d in enumerate(diff):
        if d:
            u, v = divmod(p, n)
            if d < 0:
                u, v, d = v, u, -d
            rows[v].append((u, d))
            out[u] += d
            excess += d
    base = (total - excess) // 2
    pos = [-1] * n  # rank of each placed vertex
    cap, beat = bar
    found = None
    max_nodes = limits.max_walk_nodes

    def behind(d: int) -> bool:
        """Whether no completion of the d placed vertices has ranks before beat."""
        for v, r in enumerate(pos):
            if r < 0:  # unplaced: its rank is at least d
                return beat[v] < d
            if r != beat[v]:
                return r > beat[v]
        return True

    def place(d: int, cost: int, free: list[int]) -> None:
        nonlocal spent, cap, beat, found
        spent += 1
        if spent > max_nodes:
            raise ResourceLimitError(
                f"second-side search on side {side.value} exceeds "
                f"max_walk_nodes={max_nodes}"
            )
        if d == n:  # entered below bar: at a leaf both cuts are exact
            cap, beat = found = (cost, tuple(pos))
            return
        for v in sorted(free, key=out.__getitem__):
            bound = cost + out[v]
            if bound > cap:
                break
            pos[v] = d
            if bound < cap or beat and not behind(d + 1):
                # every unplaced u now lies right of v; the out of a
                # placed u is never read below this node
                row = rows[v]
                for u, e in row:
                    out[u] -= e
                place(d + 1, bound, [u for u in free if u != v])
                for u, e in row:
                    out[u] += e
            pos[v] = -1

    try:
        place(0, base, list(range(n)))
    finally:
        del place  # place refers to itself: drop it so its tables go with this call
    return found, spent


# -- per-component pipeline ---------------------------------------------------


def _search(
    h: BipartiteGraph, budget: int, lb: int, limits: Limits
) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]] | None, SolveStats]:
    """Walk the smaller side of h within budget and solve the other side per candidate.

    Returns (best, ranks, stats): ranks is the lexicographically first
    (X ranks, Y ranks) pair of minimum count best if best <= budget, else
    None.  The smaller side, X on a tie, is walked first; an empty list
    already proves the optimum exceeds the budget.  Its candidates are
    taken in sorted order, each with one _best_second_order search, whose
    nodes add up against limits.max_walk_nodes.  The incumbent is the
    search's bar itself, (budget + 1, ()) until a pair is found: with X
    first it is (count, ()), so a later candidate must beat the count
    and the loop stops once that count meets the lower bound lb; with Y
    first it is the (count, X ranks) that the search returned, so a
    later candidate may also tie the count with X ranks that come first
    (see the module docstring).
    """
    first = Side.Y if h.y_count < h.x_count else Side.X
    second = first.other
    check_depth(second, h.side_count(second))
    layouts = sorted(enumerate_candidates(h, first, budget, limits))
    bar = (budget + 1, ())  # the incumbent: its count, and its X ranks if Y is walked
    pair = None
    spent = searches = 0
    for fixed in layouts:
        if first is Side.X and bar[0] == lb:
            break
        searches += 1
        found, spent = _best_second_order(h, second, fixed, bar, limits, spent)
        if found is not None:
            count, ranks = found
            bar = (count, ()) if first is Side.X else found
            pair = (fixed, ranks) if first is Side.X else (ranks, fixed)
    walked = (len(layouts), 0) if first is Side.X else (0, len(layouts))
    stats = SolveStats(0, *walked, searches, len(layouts) - searches, 0)
    return bar[0], pair, stats


def _solve_component(
    mr: MergeResult, lb: int, hi: int, ascend: bool, limits: Limits
) -> tuple[int | None, tuple[list[int], list[int]] | None, SolveStats]:
    """Optimum of a component that needs a search, if it is at most hi.

    mr is the component's sibling merge, built by _solve_components only
    for a component that reaches this call, and lb its floor, read off
    the component before the merge (the merge keeps it), with lb <= hi.
    Returns (value, orders, stats): the optimum and the X and Y vertex
    orders, left to right, of a drawing of the component that attains
    it, or (None, None) when the optimum exceeds hi.  No Drawing is
    built here: _solve_components composes the orders of every component
    into the one witness of the solve.
    The budget is first capped at top = min(hi, cap), where cap is the
    identity drawing's count of the merged graph h = mr.graph.  Without
    ascend only top is searched; with ascend every budget from lb up to
    top, stopping at the first whose best pair fits it; the search is
    complete for drawings within that budget, so that pair's count is
    the optimum.  The cap runs once per call; only the pendant-path
    kernel, enumeration and second-side searches repeat per budget.
    stats adds up the counts of every search, plus the edge count of the
    last kernel searched.

    Each budget t searched runs on the pendant-path kernel of h at t,
    whose optimum is h's whenever that is at most t (see
    _pendant_path_kernel).  The kernel keeps h's 2-core, so lb is a
    lower bound on the kernel's optimum too.  The witness is
    _lift_orders of the lexicographically first optimal rank pair of the
    kernel built at the optimum c, so it does not depend on the budget:
    the ascent stops at t = c, and a decision at t > c searches once
    more at c when that kernel is smaller, that is when some pendant
    path is longer than 2c + 2 edges.

    The loop runs at least once, since lb <= hi and lb <= bcr(h) <= cap,
    so every call reaches enumeration and its kernel_edges are positive
    (a kernel is never a caterpillar, so it has at least 4 edges).
    """
    h = mr.graph
    # the optimum is at most any drawing's count, so a larger budget admits
    # no further optimal pair; the cap keeps the walk's budget, and so its
    # nodes, small.  h's sorted edges are its identity drawing.
    top = min(hi, weighted_inversions(h.edges, h.y_count))
    stats = _NO_WORK
    for budget in range(lb if ascend else top, top + 1):
        kernel = _pendant_path_kernel(h, budget)
        best, ranks, found = _search(kernel.graph, budget, lb, limits)
        stats += found
        if ranks is None:
            continue  # no drawing of the kernel within budget, so none of h
        if best < budget and kernel.longest > 2 * best + 2:
            kernel = _pendant_path_kernel(h, best)
            tight_best, ranks, found = _search(kernel.graph, best, lb, limits)
            stats += found
            if ranks is None or tight_best != best:
                raise SelfCheckError(f"the kernel at budget {best} lost the optimum")
        orders = _lift_orders(mr, kernel, ranks)
        return best, orders, stats + SolveStats(0, 0, 0, 0, 0, kernel.graph.m)
    return None, None, stats + SolveStats(0, 0, 0, 0, 0, kernel.graph.m)


# -- top-level drivers ---------------------------------------------------------


def _solve_components(
    g: BipartiteGraph,
    k: int,
    limits: Limits,
    ascend: bool,
) -> SolveReport:
    """Solve the components of g in order against the budget k they share.

    This is the one place that settles a component without a search, and
    where the caterpillar test, the bound and the merge run.  First every
    component gets its floor, a lower bound on its optimum read off the
    component itself: 0 for a caterpillar, an isolated vertex included,
    else max(1, crossing_lower_bound) (caterpillars are exactly the
    graphs with bcr 0).  When the floors sum past k the answer is "no"
    at once, and no sibling merge is built.  Otherwise, in order, a
    caterpillar is answered 0 with the orders of _caterpillar_orders,
    built only here, at no cost in the stats, and every other component
    is sibling-merged, which keeps its bcr and its bound, and in one
    _solve_component call gets k less the optima before it and
    the floors after it: a larger optimum would push the sum past k
    whatever the later components need.  That budget is never below the
    component's own floor, since every optimum before it fitted the
    budget it was given.  Without ascend the component is
    searched at that budget alone; with ascend at every budget from its
    floor up to that one, stopping at the first that admits a drawing,
    which is then its optimum.  The search either way stops at the first
    component whose optimum exceeds its budget.  A "yes" report carries
    k itself, or the summed optimum with ascend.  stats are the
    component count plus the stats of every component searched, and
    method is "fpt-enum" iff some component was searched (its
    kernel_edges are then positive), so a "no" settled by the floors
    reads "fastpath".
    """
    parts = split_components(g)
    stats = SolveStats(len(parts), 0, 0, 0, 0, 0)
    floors: list[int] = []  # 0 iff settled without a search
    for part in parts:
        h = part.graph
        crossed = h.m and not is_caterpillar_forest(h)  # bcr >= 1
        floors.append(max(1, crossing_lower_bound(h)) if crossed else 0)
    later = sum(floors)
    if later > k:
        return _checked(SolveReport("no", None, None, stats, "fastpath", k))
    solved: list[tuple[GraphComponent, tuple[list[int], list[int]]]] = []
    remaining = k
    for part, lb in zip(parts, floors):
        if not lb:
            solved.append((part, _caterpillar_orders(part.graph)))
            continue
        later -= lb
        mr = sibling_merge(part.graph)
        value, orders, found = _solve_component(mr, lb, remaining - later, ascend, limits)
        stats += found
        if value is None:
            break
        if orders is None:
            raise SelfCheckError(f"component optimum {value} came without a witness")
        remaining -= value
        solved.append((part, orders))
    method = "fpt-enum" if stats.kernel_edges else "fastpath"
    if len(solved) < len(parts):
        return _checked(SolveReport("no", None, None, stats, method, k))
    total = k - remaining
    witness = _compose_drawing(g, solved)
    return _checked(
        SolveReport("yes", total, witness, stats, method, total if ascend else k)
    )


def bcr_decide(
    g: BipartiteGraph,
    k: int,
    limits: Limits = DEFAULT_LIMITS,
    threads: int = 1,
) -> SolveReport:
    """Decide whether g has a drawing with at most k crossings.

    Caterpillars, isolated vertices included, are settled at 0 without a
    search.  Every other component is searched in order, once, against
    the budget left over from its predecessors less the floors of the
    components after it.  Optimal drawings never interleave components
    (pushing a whole component's vertices together on both layers only
    removes crossings), so the crossing number is additive and the
    sequential allocation is exact: the answer is yes iff the summed
    component optima fit in k, and then the optimum and a composite
    witness are reported.  When the floors alone sum past k the answer
    is "no" before any search or sibling merge, with method "fastpath".
    threads is accepted for compatibility and has no effect: the search
    runs on the calling thread.
    """
    _check_budget("k", k)
    return _solve_components(g, k, limits, ascend=False)


def bcr_exact(
    g: BipartiteGraph,
    k_max: int | None = None,
    limits: Limits = DEFAULT_LIMITS,
    threads: int = 1,
) -> SolveReport:
    """Smallest k admitting a drawing, searched up to k_max (default K_MAX_DEFAULT, 32).

    The graph is split once and each component is solved to its optimum
    once, by raising its budget one step at a time from its floor
    max(1, crossing_lower_bound) (caterpillars are answered 0 at once);
    each component searched is sibling-merged once, before its ascent,
    never past what k_max leaves after the optima before it and the
    floors after it; by additivity (see bcr_decide) the optima sum to
    the crossing number.  The report carries that k (decision "yes",
    optimum = k) or decision "no" at k = k_max, at once when the floors
    sum past k_max or else once some component's ascent runs out of
    budget.  Each budget t searches the pendant-path kernel at t, so the
    ascent stops at the optimum c with the kernel built at c.
    Decision, optimum, k, method and witness are those of
    bcr_decide(g, min(bcr(g), k_max)): each component's witness is the
    lift of the lexicographically first optimal pair of its kernel at c,
    which bcr_decide also returns at every budget from c up.  Stats add
    up over the component solves of the ascent.  threads has no effect,
    as in bcr_decide.
    """
    if k_max is None:
        k_max = K_MAX_DEFAULT
    _check_budget("k_max", k_max)
    return _solve_components(g, k_max, limits, ascend=True)
