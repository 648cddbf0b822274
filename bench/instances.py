"""Seeded instance families, reference optima and request cycles.

Graphs are plain (x_count, y_count, edges) triples with (x, y, weight)
edges, built here from the definitions so that the reference values do
not depend on the solver.  Every reference comes from a closed form:

* bcr(C_2n) = n - 1, and a pendant path does not change it: C_2n is
  vertex-transitive (swapping the layers where needed), so some optimal
  drawing has the attachment vertex leftmost on its layer, and each path
  vertex placed leftmost on its own layer adds an edge that crosses
  nothing.
* The spider with legs (2 + i, 2, 2 + j) is not a caterpillar, so its
  crossing number is at least 1; the drawing x1 c x2 x3 / y1 y2 y3 of the
  (2, 2, 2) spider has one crossing with legs 1 and 3 ending at the outer
  positions, and extending them outward adds none.  So bcr = 1.
* Caterpillars and stars have bcr 0, and bcr adds over components.

Census counts are not closed forms; checker.brute_force_count computes
them by full enumeration on the small graphs used for census requests.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from checker import brute_force_count

Triple = tuple[int, int, list[tuple[int, int, int]]]

# bcr_exact gets this k_max for every request: well above every reference
# optimum (the sparse files have 15) and the same for all instances.
EXACT_K_MAX = 64


@dataclass
class Request:
    """One closed-loop request and the answer it must produce.

    op is decide, exact or census; k is the budget (k_max for exact).
    expect is the reference crossing number for decide/exact and the
    drawing count for census.  via is "api" (library call on graph) or
    "cli" (bicross.cli.main on path written in fmt).
    """

    label: str
    op: str
    triple: Triple
    k: int
    expect: int
    via: str = "api"
    graph: object = None  # bicross.BipartiteGraph, built at set-up
    path: str = ""
    fmt: str = "native"


# -- families ----------------------------------------------------------------


def _add_path(t: Triple, start_x: int, length: int) -> Triple:
    """t plus a pendant path of length edges hanging off X vertex start_x."""
    xc, yc, edges = t
    edges = list(edges)
    on_x, prev = True, start_x
    for _ in range(length):
        if on_x:
            edges.append((prev, yc, 1))
            prev, yc = yc, yc + 1
        else:
            edges.append((xc, prev, 1))
            prev, xc = xc, xc + 1
        on_x = not on_x
    return xc, yc, edges


def cycle_with_tail(n: int, tail: int = 0) -> Triple:
    """C_2n (x_i - y_i - x_{i+1}) with a pendant path of tail edges at x0."""
    edges = []
    for i in range(n):
        edges.append((i, i, 1))
        edges.append(((i + 1) % n, i, 1))
    return _add_path((n, n, edges), 0, tail)


def spider(legs: tuple[int, ...]) -> Triple:
    """Subdivided star: centre x0 and one path of each length in legs."""
    t: Triple = (1, 0, [])
    for length in legs:
        t = _add_path(t, 0, length)
    return t


def caterpillar(spine: int, leaves: list[int]) -> Triple:
    """Path of spine vertices (alternating sides, starting on X); spine
    vertex i gets leaves[i] pendant leaves on the other side."""
    edges = []
    xc = yc = 0
    ids = []
    for i in range(spine):
        if i % 2 == 0:
            ids.append(("x", xc))
            xc += 1
        else:
            ids.append(("y", yc))
            yc += 1
    for (sa, a), (_, b) in zip(ids, ids[1:]):
        edges.append((a, b, 1) if sa == "x" else (b, a, 1))
    for (side, v), count in zip(ids, leaves):
        for _ in range(count):
            if side == "x":
                edges.append((v, yc, 1))
                yc += 1
            else:
                edges.append((xc, v, 1))
                xc += 1
    return xc, yc, edges


def star(leaves: int) -> Triple:
    return 1, leaves, [(0, y, 1) for y in range(leaves)]


def relabel(t: Triple, rng: random.Random) -> Triple:
    a, b, edges = t
    px = list(range(a))
    py = list(range(b))
    rng.shuffle(px)
    rng.shuffle(py)
    return a, b, sorted((px[x], py[y], w) for x, y, w in edges)


def disjoint_union(parts: list[Triple]) -> Triple:
    xc = yc = 0
    edges = []
    for a, b, es in parts:
        edges.extend((x + xc, y + yc, w) for x, y, w in es)
        xc += a
        yc += b
    return xc, yc, edges


# -- workloads ---------------------------------------------------------------

# A cycle runs its request types in the listed order, cheapest first: a
# request's latency depends on what ran just before it (a large search
# leaves memory to be faulted back in), so a fixed order keeps each type's
# conditions the same from run to run.  The seed picks the vertex labels.
#
# A shared host's speed drifts over tens of seconds to minutes.  On a
# 2-vCPU VM, requests that spend their time in the interpreter ran up to
# 1.6 times slower from one minute to the next; requests whose time goes
# to the numpy pair search, up to 1.3 times.  So each mix is weighted so
# that its median and 90th percentile fall among request types of one
# kind and similar cost, not on the boundary between two types whose
# latencies are far apart, and in fixed-k-growth among pair-search types.

# fixed-k-growth: (label, graph, k, bcr).  Four "yes" at k = bcr, five
# "no" at a k with lower bound m - n + 1 <= k < bcr, so the whole
# candidate product is scanned.  Sides grow from 6 to 9 at k <= 3.  Two
# short requests, five of 0.3-0.4 s and two of about 0.45 s, all but the
# first two spending their time in the pair search: the median falls in
# the middle of the five, not in their lower tail, and the 90th
# percentile among the last two, one type in two labellings (a larger
# type of that cost, such as C4 with an 11-edge tail, would double the
# peak RSS).
_GROWTH = [
    ("c8+4/no", cycle_with_tail(4, 4), 2, 3),
    ("c4+10/yes", cycle_with_tail(2, 10), 1, 1),
    ("spider826/no", spider((8, 2, 6)), 0, 1),
    ("spider628/no", spider((6, 2, 8)), 0, 1),
    ("c6+8/yes", cycle_with_tail(3, 8), 2, 2),
    ("c8+6/no", cycle_with_tail(4, 6), 2, 3),
    ("c10+4/no", cycle_with_tail(5, 4), 3, 4),
    ("spider626/yes", spider((6, 2, 6)), 1, 1),
    ("spider626/yes", spider((6, 2, 6)), 1, 1),
]


def growth_cycle(rng: random.Random) -> list[Request]:
    return [Request(label, "decide", relabel(t, rng), k, ref) for label, t, k, ref in _GROWTH]


_SPARSE_MIX = (
    ["c4", "c4+tail", "c6", "c4+tail"] + ["caterpillar"] * 8 + ["star"] * 8
)


def sparse_graph(rng: random.Random, components: int) -> tuple[Triple, int]:
    """A sparse multi-component graph and its crossing number.

    A fifth of the components carry crossings (C4, C6, C4 with a tail);
    the rest are caterpillars with sibling leaves and stars, which the
    solver settles without enumeration.  Components are interleaved by a
    random relabelling of the whole graph.
    """
    parts: list[Triple] = []
    total = 0
    for i in range(components):
        kind = _SPARSE_MIX[i % len(_SPARSE_MIX)]
        if kind == "c4":
            parts.append(cycle_with_tail(2))
            total += 1
        elif kind == "c6":
            parts.append(cycle_with_tail(3))
            total += 2
        elif kind == "c4+tail":
            parts.append(cycle_with_tail(2, rng.randint(1, 3)))
            total += 1
        elif kind == "caterpillar":
            spine = rng.randint(6, 20)
            parts.append(caterpillar(spine, [rng.randint(0, 3) for _ in range(spine)]))
        else:
            parts.append(star(rng.randint(3, 12)))
    return relabel(disjoint_union(parts), rng), total


def write_graph(t: Triple, path: Path, fmt: str) -> None:
    """Write t, whose edges all have weight 1, in the CLI's fmt."""
    a, b, edges = t
    if fmt == "native":
        lines = [f"bigraph {a} {b}"] + [f"x{x} y{y}" for x, y, _ in edges]
    else:
        lines = [f"{x} {y}" for x, y, _ in edges]
    path.write_text("\n".join(lines) + "\n")


# sparse-cli: per cycle, two 50-component files, each asked six ways
# (decide yes/no and exact, native and edge-list input), and one census
# request on a graph small enough to count by brute force.  Of the 13
# requests, the median falls among the four edge-list decides and the
# 90th percentile among the four exact requests.
SPARSE_COMPONENTS = 50
SPARSE_POOL = 6  # distinct cycles written at set-up; the loop wraps around
_CENSUS = [
    ("c4+4", cycle_with_tail(2, 4), 1),
    ("spider222", spider((2, 2, 2)), 1),
]


def sparse_cycles(rng: random.Random, workdir: Path) -> list[list[Request]]:
    cycles = []
    for c in range(SPARSE_POOL):
        label, small, k = _CENSUS[c % len(_CENSUS)]
        t = relabel(small, rng)
        path = workdir / f"census{c}.native"
        write_graph(t, path, "native")
        reqs = [Request(label, "census", t, k, brute_force_count(t, k), "cli", path=str(path))]
        for f in range(2):
            t, bcr = sparse_graph(rng, SPARSE_COMPONENTS)
            paths = {}
            for fmt in ("native", "edgelist"):
                paths[fmt] = workdir / f"sparse{c}_{f}.{fmt}"
                write_graph(t, paths[fmt], fmt)
            for op, k, fmt in (
                ("decide", bcr, "native"),
                ("decide", bcr - 1, "native"),
                ("decide", bcr, "edgelist"),
                ("decide", bcr - 1, "edgelist"),
                ("exact", EXACT_K_MAX, "native"),
                ("exact", EXACT_K_MAX, "edgelist"),
            ):
                reqs.append(
                    Request(f"sparse50/{fmt}", op, t, k, bcr, "cli", path=str(paths[fmt]), fmt=fmt)
                )
        cycles.append(reqs)
    return cycles


def thread_probe() -> Request:
    """C4 plus a 12-edge tail at k = 1, in construction order."""
    return Request("c4+12/yes", "decide", cycle_with_tail(2, 12), 1, 1)


def budget_probe(workdir: Path) -> Request:
    """Two disjoint C6 (bcr 4) decided at k = 200 through the CLI."""
    t = disjoint_union([cycle_with_tail(3), cycle_with_tail(3)])
    path = workdir / "two_c6.native"
    write_graph(t, path, "native")
    return Request("2xC6/k200", "decide", t, 200, 4, "cli", path=str(path))
