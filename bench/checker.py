"""Answer checker: an own crossing counter, a brute force, and the checks.

Nothing here calls the solver or its counters; the counter is a weighted
merge-sort inversion count, a different algorithm from the library's
Fenwick sweep, so a wrong witness cannot be confirmed by the code that
produced it.
"""

from __future__ import annotations

from itertools import permutations
from math import factorial
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from instances import Request, Triple


class CheckError(Exception):
    """A request's answer disagrees with the reference."""


def crossings(t: Triple, x_ranks, y_ranks) -> int:
    """Weighted crossing count of the drawing given by two rank arrays.

    Edges sorted by (x-rank, y-rank) cross exactly when a later edge has
    a strictly smaller y-rank (edges on one X vertex are sorted by y-rank
    and never counted), so the count is the weighted inversion count of
    the y-rank sequence, taken by merge sort.
    """
    seq = sorted((x_ranks[x], y_ranks[y], w) for x, y, w in t[2])
    return _inversions([(ry, w) for _, ry, w in seq])[0]


def _inversions(items: list[tuple[int, int]]) -> tuple[int, list[tuple[int, int]]]:
    if len(items) <= 1:
        return 0, items
    mid = len(items) // 2
    left_count, left = _inversions(items[:mid])
    right_count, right = _inversions(items[mid:])
    total = left_count + right_count
    # Suffix weight sums of left: weight of left items at index >= i.
    suffix = [0] * (len(left) + 1)
    for i in range(len(left) - 1, -1, -1):
        suffix[i] = suffix[i + 1] + left[i][1]
    merged = []
    i = 0
    for ry, w in right:
        while i < len(left) and left[i][0] <= ry:
            merged.append(left[i])
            i += 1
        total += w * suffix[i]  # left items with a strictly larger y-rank
        merged.append((ry, w))
    merged.extend(left[i:])
    return total, merged


def brute_force_count(t: Triple, k: int) -> int:
    """Number of drawings (layout pairs) with at most k crossings."""
    a, b, _ = t
    ys = list(permutations(range(b)))
    return sum(
        1 for fx in permutations(range(a)) for fy in ys if crossings(t, fx, fy) <= k
    )


def _is_permutation(ranks, size: int) -> bool:
    return sorted(ranks) == list(range(size))


def answer_of_report(report) -> dict:
    """The checked fields of a SolveReport."""
    w = report.witness
    return {
        "decision": report.decision,
        "optimum": report.optimum,
        "x_ranks": None if w is None else list(w.fx.ranks),
        "y_ranks": None if w is None else list(w.fy.ranks),
        "pairs_evaluated": report.stats.pairs_evaluated,
        "pruned": report.stats.pruned,
    }


def answer_of_document(doc: dict) -> dict:
    """The checked fields of a CLI JSON report."""
    if "count" in doc:
        return {"count": doc["count"], "pairs_scanned": doc["pairs_scanned"]}
    w = doc["witness"]
    optimum = doc["optimum"]
    return {
        "decision": doc["decision"],
        "optimum": None if optimum == "exceeds_budget" else optimum,
        "x_ranks": None if w is None else w["x_ranks"],
        "y_ranks": None if w is None else w["y_ranks"],
        "pairs_evaluated": doc["stats"]["pairs_evaluated"],
        "pruned": doc["stats"]["pruned"],
    }


def check(req: Request, ans: dict) -> None:
    """Raise CheckError unless ans is the right answer to req."""

    def fail(msg: str) -> None:
        raise CheckError(f"{req.label} ({req.op} k={req.k}): {msg}")

    a, b, _ = req.triple
    if req.op == "census":
        pairs = factorial(a) * factorial(b)
        if ans["count"] != req.expect or ans["pairs_scanned"] != pairs:
            fail(f"census {ans}, expected count {req.expect} over {pairs} pairs")
        return
    if req.expect > req.k:
        if ans["decision"] != "no" or ans["optimum"] is not None or ans["x_ranks"]:
            fail(f"expected no (bcr {req.expect}), got {ans['decision']} {ans['optimum']}")
        return
    if ans["decision"] != "yes" or ans["optimum"] != req.expect:
        fail(f"expected yes with optimum {req.expect}, got {ans['decision']} {ans['optimum']}")
    xr, yr = ans["x_ranks"], ans["y_ranks"]
    if xr is None or not _is_permutation(xr, a) or not _is_permutation(yr, b):
        fail("witness is not a pair of layouts of the input graph")
    recount = crossings(req.triple, xr, yr)
    if recount != req.expect:
        fail(f"witness recounts to {recount}, expected {req.expect}")
