"""One sha256 over the answers of the package on fixed seeded inputs.

Run it on two checkouts to show that a change keeps every answer:

    PYTHONPATH=src python tests/records.py

It prints the record count and the digest; equal digests mean equal
records.  The records are:

* decision, optimum, k, method, every SolveStats field and the witness
  ranks of bcr_exact(g, 20) and of bcr_decide(g, k) for k = 0, 2, ..., 20,
  on 300 seed-99 random connected graphs (up to 11 vertices, weighted
  leaf edges) and 100 seed-7 random disconnected graphs, and on every
  split_components part of each, with the parts' vertex tables;
* sibling_merge, and _pendant_path_kernel at budgets 0, 1, 2 and 4 of
  the merged graph when it is no caterpillar, on 300 seed-4242 random
  connected graphs (up to 12 vertices, weighted leaf edges), with two or
  more sibling leaves injected where the graph has at most 10 vertices;
* bcr_bruteforce, census at k = 0, 1 and 3, and the JSON and table text
  of both report documents, on 150 seed-11 random weighted graphs with
  sides of 1 to 4 vertices, edgeless and one-edge graphs among them;
* parse_graph_text and parse_edge_list_text on 4,000 seed-3 random
  texts: the graph, or the ParseError text and line.

pytest does not collect this file (its name does not start with test_).
"""

from __future__ import annotations

import hashlib
import random
import sys

from bicross import (
    BipartiteGraph,
    bcr_bruteforce,
    bcr_decide,
    bcr_exact,
    census,
    is_caterpillar_forest,
    sibling_merge,
    split_components,
)
from bicross.cli import (
    ParseError,
    census_document,
    document_json,
    format_table,
    parse_edge_list_text,
    parse_graph_text,
    solve_document,
)
from bicross.graph import _pendant_path_kernel
from util import inject_sibling_leaves, random_connected_graph, random_disconnected_graph


def graph_key(g: BipartiteGraph) -> tuple:
    return g.x_count, g.y_count, g.edges


def report_key(report) -> tuple:
    w = report.witness
    ranks = None if w is None else (w.fx.ranks, w.fy.ranks)
    return report.decision, report.optimum, report.k, report.method, repr(report.stats), ranks


def solver_records(records: list) -> None:
    rng = random.Random(99)
    triples = [random_connected_graph(rng, max_n=11, leaf_weights=True) for _ in range(300)]
    rng = random.Random(7)
    triples += [random_disconnected_graph(rng) for _ in range(100)]
    for a, b, edges in triples:
        g = BipartiteGraph(a, b, tuple(edges))
        parts = split_components(g)
        records.append(("parts", [(p.x_vertices, p.y_vertices) for p in parts]))
        for h in [g] + [p.graph for p in parts]:
            records.append(("exact", graph_key(h), report_key(bcr_exact(h, 20))))
            for k in range(0, 21, 2):
                records.append(("decide", k, report_key(bcr_decide(h, k))))


def kernel_records(records: list) -> None:
    rng = random.Random(4242)
    for _ in range(300):
        triple = random_connected_graph(rng, max_n=12, leaf_weights=True)
        if triple[0] + triple[1] <= 10:
            triple = inject_sibling_leaves(rng, triple, max_n=12)
        a, b, edges = triple
        mr = sibling_merge(BipartiteGraph(a, b, tuple(edges)))
        records.append(("merge", graph_key(mr.graph), mr.x_groups, mr.y_groups))
        if is_caterpillar_forest(mr.graph):
            continue
        for budget in (0, 1, 2, 4):
            kernel = _pendant_path_kernel(mr.graph, budget)
            records.append((
                "kernel", budget, graph_key(kernel.graph), kernel.x_vertices,
                kernel.y_vertices, kernel.paths, kernel.keep, kernel.longest,
            ))


def oracle_records(records: list) -> None:
    rng = random.Random(11)
    for i in range(150):
        a, b = rng.randint(1, 4), rng.randint(1, 4)
        p = (0.0, 1 / (a * b), 0.5, 0.5, 0.5)[i % 5]  # edgeless, about one edge, half
        edges = tuple(
            (x, y, rng.randint(1, 3)) for x in range(a) for y in range(b) if rng.random() < p
        )
        g = BipartiteGraph(a, b, edges)
        value, witness = bcr_bruteforce(g)
        records.append(("oracle", graph_key(g), value, witness.fx.ranks, witness.fy.ranks))
        for k in (0, 1, 3):
            records.append(("census", k, repr(census(g, k))))
        docs = [
            solve_document("g.txt", g, bcr_exact(g, 20), 5),
            solve_document("g.txt", g, bcr_decide(g, 0), 6),
            census_document("g.txt", g, 1, census(g, 1), 7),
        ]
        records += [("doc", document_json(doc), format_table(doc)) for doc in docs]


ODD_LINES = [
    "x0", "x0 y0 1 9", "a b", "x\u0663 y1", "0 \u0663", "bigraph 1 1", "x0 z1", "1_0 0",
    "-1 0", "9" * 30 + " 0", "x" + "9" * 30 + " y0", "x0 y0\x0c1 1", "x0\u00a0y1", "0\u00a01",
    "x0 y0 0", "x1 y0 +3", "0 0 0", "1 0 1_0",
]


def random_text(rng: random.Random) -> str:
    """A native file (with its header) or an edge list, now and then with a fault."""
    a, b = rng.randint(1, 4), rng.randint(1, 4)
    native = rng.random() < 0.5
    lines = [f"bigraph {a} {b}"] if native else []
    for _ in range(rng.randint(0, 8)):
        r = rng.random()
        if r < 0.05:
            lines.append(rng.choice(ODD_LINES))
            continue
        if r < 0.15:
            lines.append(rng.choice(["", "# note", "  ", "\t# x0 y0"]))
            continue
        x = a if rng.random() < 0.03 else rng.randrange(a)
        y = b if rng.random() < 0.03 else rng.randrange(b)
        gap = rng.choice([" ", " ", " ", "\t", "  "])
        weight = rng.choice(["", "", "", "", gap + "1", gap + "2", gap + "3", gap + "03"])
        pad = rng.choice(["", "", "", " ", "\t"])
        tags = ("x", "y") if native else ("", "")
        lines.append(f"{pad}{tags[0]}{x}{gap}{tags[1]}{y}{weight}{pad}")
    newline = rng.choice(["\n", "\n", "\r\n"])
    return newline.join(lines) + (newline if rng.random() < 0.8 else "")


def parser_records(records: list) -> None:
    rng = random.Random(3)
    for i in range(4000):
        text = random_text(rng)
        for parse in (parse_graph_text, parse_edge_list_text):
            try:
                result = graph_key(parse(text, source="r.txt" if i % 2 else None))
            except ParseError as err:
                result = (str(err), err.line)
            records.append((parse.__name__, text, result))


def main() -> int:
    records: list = []
    for build in (solver_records, kernel_records, oracle_records, parser_records):
        build(records)
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode() + b"\n")
    print(f"{len(records)} records, sha256 {digest.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
