"""Pytest hooks and shared fixtures.

The hooks collect acceptance-criterion verdicts for the run summary.
"""

from __future__ import annotations

import random

import pytest

from bicross import BipartiteGraph
from util import all_drawings, random_sibling_free_graph, reference_crossings

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(number: int, name: str, ok: bool) -> None:
    line = f"criterion {number:2d} {name}: {'PASS' if ok else 'FAIL'}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def sibling_free_pool():
    """50 sibling-free connected graphs (n <= 8) with their full drawing scans.

    Shared by acceptance criteria 5, 6 and 7 and the leaf-aware cost test:
    each entry is (graph, scans) where scans maps k in {0, 1, 2} to
    the list of (fx, fy) drawings within k.
    """
    rng = random.Random(2024)
    pool = []
    for _ in range(50):
        a, b, edges = random_sibling_free_graph(rng, max_n=8)
        g = BipartiteGraph(a, b, tuple(edges))
        within = {0: [], 1: [], 2: []}
        for fx, fy in all_drawings(a, b):
            c = reference_crossings(edges, fx, fy)
            for k in (0, 1, 2):
                if c <= k:
                    within[k].append((fx, fy))
        pool.append((g, within))
    return pool
