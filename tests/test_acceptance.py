"""End-to-end acceptance suite.

One test per numbered criterion, executed in order; each prints a
"criterion NN <name>: PASS/FAIL" line (repeated in the run summary via
the conftest hook).  Slow exhaustive/randomized checks live here; the
per-module unit tests cover the same ground on smaller samples.
"""

from __future__ import annotations

import json
import math
import random
import time

from bicross import (
    BipartiteGraph,
    Side,
    bcr_bruteforce,
    bcr_decide,
    bcr_exact,
    build_graph,
    build_spine,
    census,
    count_bound,
    crossing_lower_bound,
    crossing_number_fast,
    crossing_number_naive,
    drawing_from_ranks,
    enumerate_candidates,
    sibling_merge,
    verify_spine,
)
from bicross.cli import main
from conftest import record_acceptance
from util import (
    exhaustive_connected_graphs,
    inject_sibling_leaves,
    random_connected_graph,
    reference_crossings,
)


def check(number: int, name: str, ok: bool, detail: str = "") -> None:
    record_acceptance(number, name, ok)
    assert ok, f"criterion {number} ({name}): {detail or 'violated'}"


def c4():
    return build_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])


def test_01_oracle_equivalence_exhaustive():
    start = time.perf_counter()
    mismatches = []
    graphs = 0
    for a, b, edges in exhaustive_connected_graphs(3, 3):
        g = BipartiteGraph(a, b, tuple(edges))
        want, _ = bcr_bruteforce(g)
        got = bcr_exact(g, 12)
        graphs += 1
        if got.optimum != want:
            mismatches.append((a, b, edges, want, got.optimum))
    elapsed = time.perf_counter() - start
    ok = not mismatches and elapsed < 300
    check(
        1,
        "oracle equivalence, exhaustive <=3x3",
        ok,
        f"{len(mismatches)} mismatches over {graphs} graphs in {elapsed:.1f}s",
    )


def test_02_oracle_equivalence_randomized():
    start = time.perf_counter()
    rng = random.Random(515)
    mismatches = 0
    for _ in range(200):
        a, b, edges = random_connected_graph(rng, max_n=9, leaf_weights=True)
        g = BipartiteGraph(a, b, tuple(edges))
        want, _ = bcr_bruteforce(g)
        report = bcr_exact(g, 12)
        if want <= 12:
            if report.optimum != want:
                mismatches += 1
        elif report.decision != "no":
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 600
    check(
        2,
        "oracle equivalence, 200 random weighted",
        ok,
        f"{mismatches} mismatches in {elapsed:.1f}s",
    )


def test_03_known_values():
    k33 = build_graph(3, 3, [(i, j) for i in range(3) for j in range(3)])
    caterpillars = [
        build_graph(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)]),  # path
        build_graph(1, 5, [(0, j) for j in range(5)]),  # star
        build_graph(4, 3, [(0, 0), (1, 0), (1, 1), (2, 0), (3, 1), (1, 2)]),
    ]
    ok = bcr_exact(c4(), 5).optimum == 1 == bcr_bruteforce(c4())[0]
    ok = ok and bcr_exact(k33, 12).optimum == 9 == bcr_bruteforce(k33)[0]
    ok = ok and 9 == math.comb(3, 2) * math.comb(3, 2)
    for cat in caterpillars:
        ok = ok and bcr_exact(cat, 0).optimum == 0 == bcr_bruteforce(cat)[0]
    check(3, "known values C4/K33/caterpillars", ok)


def test_04_star_census(tmp_path, capsys):
    text = "bigraph 1 6\n" + "".join(f"x0 y{j}\n" for j in range(6))
    path = tmp_path / "star6.bg"
    path.write_text(text)
    start = time.perf_counter()
    code = main(["census", "--k", "0", str(path), "--json", "-"])
    elapsed = time.perf_counter() - start
    doc = json.loads(capsys.readouterr().out)
    ok = code == 0 and doc["count"] == 720 and elapsed < 1.0
    with capsys.disabled():
        check(4, "star census K(1,6) at k=0 is 720", ok, f"count={doc['count']}")


def test_05_budget_inequality(sibling_free_pool):
    violations = 0
    for g, within in sibling_free_pool:
        spines = {
            Side.X: build_spine(g, Side.X, 0),
            Side.Y: build_spine(g, Side.Y, 0),
        }
        sizes = {Side.X: g.x_count, Side.Y: g.y_count}
        for k in (0, 1, 2):
            for fx, fy in within[k]:
                for side, r in ((Side.X, fx), (Side.Y, fy)):
                    # gap(x) = |rank(x) - rank(T(x))| - 1 along the spine
                    gaps = sum(abs(r[x] - r[t]) - 1 for x, t in spines[side].successor.items())
                    shifted = gaps - (sizes[side] - 1)
                    if shifted > 4 * k:
                        violations += 1
    check(5, "tour-induced budget inequality", violations == 0, f"{violations} violations")


def test_06_enumeration_completeness(sibling_free_pool):
    misses = 0
    for g, within in sibling_free_pool:
        for k in (0, 1, 2):
            streams = {
                side: set(enumerate_candidates(g, side, k))
                for side in (Side.X, Side.Y)
            }
            for fx, fy in within[k]:
                if fx not in streams[Side.X] or fy not in streams[Side.Y]:
                    misses += 1
    check(6, "enumeration completeness", misses == 0, f"{misses} layouts missed")


def test_07_count_bounds(sibling_free_pool):
    ok = True
    # deduplicated stream length within the closed-form ceiling
    for g, _ in sibling_free_pool:
        for k in (0, 1, 2):
            for side, a in ((Side.X, g.x_count), (Side.Y, g.y_count)):
                stream = enumerate_candidates(g, side, k)
                if len(stream) > count_bound(a, k):
                    ok = False
    # exhaustive drawing counts within the per-side bound product
    census_instances = [
        (build_graph(1, 6, [(0, j) for j in range(6)]), 0),
        (c4(), 0),
        (c4(), 1),
        (build_graph(1, 1, [(0, 0)]), 0),
        (build_graph(2, 3, [(i, j) for i in range(2) for j in range(3)]), 3),
    ]
    for g, k in census_instances:
        res = census(g, k)
        if res.count > res.bound:
            ok = False
    # subset-count inequality behind the gap-vector ceiling
    for a in range(2, 13):
        for k in range(13):
            if math.comb(4 * k + 2 * a - 3, 4 * k + a - 1) > 1 << (4 * k + 2 * a - 3):
                ok = False
    check(7, "count bounds and binomial inequality", ok)


def test_08_spine_conditions():
    rng = random.Random(909)
    failures = 0
    for _ in range(100):
        while True:
            a, b, edges = random_connected_graph(rng, max_n=12, min_n=4)
            if a >= 2 and b >= 2:  # spine maps need a non-trivial side
                break
        g = BipartiteGraph(a, b, tuple(edges))
        for side in (Side.X, Side.Y):
            if not verify_spine(g, build_spine(g, side, 0)):
                failures += 1
    check(8, "spine conditions on 100 random graphs", failures == 0, f"{failures} failures")


def test_09_counter_agreement():
    rng = random.Random(1111)
    disagreements = 0
    for _ in range(1000):
        a, b, edges = random_connected_graph(
            rng, max_n=20, max_side=19, leaf_weights=True, extra_edge_prob=0.2
        )
        g = BipartiteGraph(a, b, tuple(edges))
        fx = tuple(rng.sample(range(a), a))
        fy = tuple(rng.sample(range(b), b))
        d = drawing_from_ranks(g, fx, fy)
        want = reference_crossings(edges, fx, fy)
        if crossing_number_naive(d) != want or crossing_number_fast(d) != want:
            disagreements += 1
    check(9, "fast/naive counter agreement x1000", disagreements == 0)


def test_10_reduction_soundness():
    rng = random.Random(1313)
    violations = 0
    for _ in range(100):
        a, b, edges = inject_sibling_leaves(
            rng, random_connected_graph(rng, max_n=7), max_n=9
        )
        g = BipartiteGraph(a, b, tuple(edges))
        merged = sibling_merge(g).graph
        before, _ = bcr_bruteforce(g)
        after, _ = bcr_bruteforce(merged)
        if before != after:
            violations += 1
        if crossing_lower_bound(g) > before or crossing_lower_bound(merged) > after:
            violations += 1
    check(10, "sibling merge preserves optimum", violations == 0, f"{violations} violations")


def test_11_performance_smoke():
    # connected sibling-free kernels with m <= 12; the twice-subdivided
    # 3-star is the stress case (7 x 6 sides, both streams near-complete)
    c12 = build_graph(6, 6, [(i, i) for i in range(6)] + [((i + 1) % 6, i) for i in range(6)])
    spider12 = build_graph(
        7,
        6,
        [(0, 0), (1, 0), (1, 1), (2, 1),  # arm 1: x0-y0-x1-y1-x2
         (0, 2), (3, 2), (3, 3), (4, 3),  # arm 2
         (0, 4), (5, 4), (5, 5), (6, 5)],  # arm 3
    )
    k34 = build_graph(3, 4, [(i, j) for i in range(3) for j in range(4)])
    worst = 0.0
    ok = True
    for g in (c12, spider12, k34):
        start = time.perf_counter()
        report = bcr_decide(g, 4)
        elapsed = time.perf_counter() - start
        worst = max(worst, elapsed)
        ok = ok and elapsed < 60 and report.decision in ("yes", "no")
    check(11, "decide k<=4 on m<=12 kernels under 60s", ok, f"worst {worst:.1f}s")
