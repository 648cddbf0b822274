"""Spans around the calls into each bicross layer, for the traced run only.

The tracer replaces, for the length of the traced phase, the names that
bicross.solver and bicross.cli look up at call time with wrappers that
record a span (name, parent, start, end) and a few counts.  The library
itself is not changed.  enumerate_candidates returns a generator, so its
wrapper drains the stream inside the span; the solver sorts the whole
stream right away, so this moves no work out of or into the span.

Self time is a span's duration minus that of its direct children; the
self times of one request's spans add up to its root span.
"""

from __future__ import annotations

from time import perf_counter

import bicross.cli as cli_mod
import bicross.solver as solver_mod
from bicross.enumeration import count_bound
from bicross.graph import Side

# module -> names it resolves at call time that get a span
TRACED = {
    solver_mod: (
        "bcr_decide",
        "bcr_exact",
        "census",
        "split_components",
        "sibling_merge",
        "is_caterpillar_forest",
        "crossing_lower_bound",
        "enumerate_candidates",
        "crossing_number_fast",
    ),
    cli_mod: (
        "main",
        "parse_graph",
        "bcr_decide",
        "bcr_exact",
        "census",
        "solve_document",
        "census_document",
        "document_json",
    ),
}

# span name -> per-layer self-time metric
SELF_METRIC = {
    "main": "cli.self_s",
    "parse_graph": "cli.parse_s",
    "solve_document": "cli.report_s",
    "census_document": "cli.report_s",
    "document_json": "cli.report_s",
    "bcr_decide": "solver.self_s",
    "bcr_exact": "solver.self_s",
    "census": "solver.self_s",
    "split_components": "graph.split_s",
    "sibling_merge": "graph.merge_s",
    "is_caterpillar_forest": "graph.caterpillar_s",
    "crossing_lower_bound": "graph.lower_bound_s",
    "crossing_number_fast": "drawing.recount_s",
    # enumerate_candidates is split by side below
}

TIME_METRICS = sorted(set(SELF_METRIC.values()) | {"enumeration.x_s", "enumeration.y_s"})
COUNT_METRICS = (
    "enumeration.candidates_x",
    "enumeration.candidates_y",
    "graph.components",
    "graph.fastpath_components",
    "graph.kernel_edges",
    "solver.decide_calls",
    "drawing.recount_calls",
)


class Tracer:
    """In-memory spans and counts for one traced phase."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent, start, end, info]
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.requests = 0
        self.self_s = dict.fromkeys(TIME_METRICS, 0.0)
        self.counts = dict.fromkeys(COUNT_METRICS, 0)
        self.stream_ratios: list[float] = []
        self.root_s = 0.0
        self.by_name: dict[str, list[float]] = {}  # name -> [calls, self_s]

    def install(self) -> None:
        for module, names in TRACED.items():
            for name in names:
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(name, fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        drain = name == "enumerate_candidates"

        def traced(*args, **kwargs):
            rec = [name, stack[-1] if stack else -1, perf_counter(), 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                if drain:
                    g, side, k = args[:3]
                    rec[4] = (side, g.side_count(side), k, None)  # size None if it raises
                    result = list(fn(*args, **kwargs))
                    rec[4] = (side, g.side_count(side), k, len(result))
                    return iter(result)
                result = fn(*args, **kwargs)
                if name == "sibling_merge":
                    rec[4] = result.graph.m
                return result
            finally:
                stack.pop()
                rec[3] = perf_counter()

        return traced

    def close_request(self) -> None:
        """Fold the finished request's spans into the totals and drop them.

        Raises ValueError when the spans do not nest or their self times do
        not add up to the root span.
        """
        spans = self.spans
        if not spans or spans[0][1] != -1:
            raise ValueError("request has no root span")
        child_s = [0.0] * len(spans)
        for i, (_, parent, start, end, _) in enumerate(spans):
            if parent >= 0:
                p = spans[parent]
                if start < p[2] or end > p[3]:
                    raise ValueError(f"span {spans[i][0]} is not inside its parent {p[0]}")
                child_s[parent] += end - start
            elif i:
                raise ValueError("request has more than one root span")
        total_self = 0.0
        for i, (name, _, start, end, info) in enumerate(spans):
            own = (end - start) - child_s[i]
            total_self += own
            stat = self.by_name.setdefault(name, [0, 0.0])
            stat[0] += 1
            stat[1] += own
            if name == "enumerate_candidates":
                side, a, k, size = info
                x = side is Side.X
                self.self_s["enumeration.x_s" if x else "enumeration.y_s"] += own
                if x:
                    self.counts["graph.fastpath_components"] -= 1
                if size is not None:
                    self.counts["enumeration.candidates_x" if x else "enumeration.candidates_y"] += size
                    self.stream_ratios.append(size / count_bound(a, k))
                continue
            self.self_s[SELF_METRIC[name]] += own
            if name == "sibling_merge":
                self.counts["graph.components"] += 1
                self.counts["graph.fastpath_components"] += 1
                self.counts["graph.kernel_edges"] += info or 0
            elif name == "bcr_decide":
                self.counts["solver.decide_calls"] += 1
            elif name == "crossing_number_fast":
                self.counts["drawing.recount_calls"] += 1
        root = spans[0][3] - spans[0][2]
        if abs(total_self - root) > 1e-9 * len(spans) + 1e-12:
            raise ValueError(f"self times add up to {total_self}, root span is {root}")
        self.root_s += root
        self.requests += 1
        spans.clear()

    def metrics(self) -> dict[str, float]:
        """Per-request means of the self times and counts."""
        n = max(self.requests, 1)
        out = {name: value / n for name, value in self.self_s.items()}
        out.update({name: value / n for name, value in self.counts.items()})
        ratios = self.stream_ratios
        out["enumeration.stream_over_bound"] = sum(ratios) / len(ratios) if ratios else 0.0
        out["trace.request_s"] = self.root_s / n
        return out

    def breakdown(self) -> dict[str, dict[str, float]]:
        """Calls and self time per request for every traced name."""
        n = max(self.requests, 1)
        return {
            name: {"calls": calls / n, "self_s": own / n}
            for name, (calls, own) in sorted(self.by_name.items())
        }
