"""Command-line front end: parse graph files, solve, and report.

Commands: decide (budgeted yes/no), exact (smallest budget), census
(exhaustive count of drawings within budget).  Reports go to stdout as a
small table, or as JSON with --json; --svg renders the witness drawing.
Exit codes: 0 solved (the decision lives in the report), 2 input could
not be parsed, a file could not be read or an output could not be
written, 3 a resource limit was hit.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .drawing import Drawing, crossing_number_fast
from .graph import BipartiteGraph, _derived_graph
from .limits import ResourceLimitError
from .solver import (
    K_MAX_DEFAULT,
    CensusResult,
    SolveReport,
    bcr_decide,
    bcr_exact,
    census,
)


class ParseError(ValueError):
    def __init__(self, msg: str, line: int, source: str | None = None):
        prefix = f"{source}:{line}" if source else f"line {line}"
        super().__init__(f"{prefix}: {msg}")
        self.line = line


# -- graph file grammar ------------------------------------------------------
#
# The parsers check every edge line as it comes and build the graph through
# the trusted constructor: they reject everything BipartiteGraph would
# (a token that is not a plain decimal, an index out of range, a weight
# below 1, a duplicate edge), naming the file and line.  A line made of
# plain tokens separated by spaces or tabs is read by one regular
# expression; any other line takes the token-by-token path, which accepts
# the same grammar with any whitespace and names what is wrong.

_NATIVE_EDGE = re.compile(r"[ \t]*x([0-9]+)[ \t]+y([0-9]+)(?:[ \t]+(0*[1-9][0-9]*))?[ \t]*")
_LIST_EDGE = re.compile(r"[ \t]*([0-9]+)[ \t]+([0-9]+)(?:[ \t]+(0*[1-9][0-9]*))?[ \t]*")


def _number(token: str) -> int | None:
    """int(token) for ASCII digits only, else None (int() also reads signs and "_")."""
    if token.isascii() and token.isdigit():
        try:
            return int(token)
        except ValueError:  # more digits than sys.get_int_max_str_digits()
            pass
    return None


def _edge_token(token: str, side: str, line: int, source: str | None) -> int:
    index = _number(token[1:]) if token.startswith(side) else None
    if index is None:
        raise ParseError(f"expected {side}<index>, got {token!r}", line, source)
    return index


def _native_edge(tokens: list[str], line: int, source: str | None) -> tuple[int, int, int]:
    """(x, y, weight) of a native edge line, token by token."""
    if tokens[0] == "bigraph":
        raise ParseError("second header line", line, source)
    if len(tokens) not in (2, 3):
        raise ParseError("expected 'x<i> y<j> [weight]'", line, source)
    x = _edge_token(tokens[0], "x", line, source)
    y = _edge_token(tokens[1], "y", line, source)
    weight = 1
    if len(tokens) == 3:
        weight = _number(tokens[2])
        if weight is None or weight < 1:
            message = f"weight {tokens[2]!r} is not a plain decimal integer >= 1"
            raise ParseError(message, line, source)
    return x, y, weight


def _list_edge(tokens: list[str], line: int, source: str | None) -> tuple[int, int, int]:
    """(i, j, weight) of an edge-list line, token by token."""
    if len(tokens) not in (2, 3):
        raise ParseError("expected '<i> <j> [weight]'", line, source)
    values = [_number(t) for t in tokens]
    if None in values:
        raise ParseError("indices and weight must be plain decimal integers", line, source)
    weight = values[2] if len(tokens) == 3 else 1
    if weight < 1:
        raise ParseError("weight must be >= 1", line, source)
    return values[0], values[1], weight


def _edge_lines(lines, pattern: re.Pattern, slow, source: str | None, tags: tuple[str, str]):
    """(line number, (x, y, weight)) per edge line of lines, an enumeration of
    text.splitlines(), skipping blanks and '#' comments.

    pattern reads a plain line; every other line goes to slow(tokens,
    line number, source), which reads it token by token or raises.  A
    repeated (x, y) raises, naming the vertices with the format's tags
    ("x", "y" or none) and the line the edge was first on.
    """
    seen: dict[tuple[int, int], int] = {}  # (x, y) -> line of that edge
    for line_no, raw in lines:
        match = pattern.fullmatch(raw)
        if match is not None:
            xs, ys, ws = match.groups()
            try:
                edge = int(xs), int(ys), int(ws) if ws else 1
            except ValueError:  # more digits than int() reads: slow names the token
                edge = slow(raw.split(), line_no, source)
        else:
            tokens = raw.split()
            if not tokens or tokens[0][0] == "#":
                continue
            edge = slow(tokens, line_no, source)
        x, y, _ = edge
        first = seen.setdefault((x, y), line_no)
        if first != line_no:
            message = f"duplicate edge {tags[0]}{x} {tags[1]}{y} (first on line {first})"
            raise ParseError(message, line_no, source)
        yield line_no, edge


def parse_graph_text(text: str, source: str | None = None) -> BipartiteGraph:
    """Graph from the native format.

    '#' lines are comments; the first payload line must be the header
    "bigraph <x_count> <y_count>"; every further line is an edge
    "x<i> y<j> [weight]" with 0-based indices and weight defaulting to 1.
    Counts, indices and weights are plain decimals: ASCII digits only.
    """
    lines = enumerate(text.splitlines(), start=1)
    for line_no, raw in lines:
        tokens = raw.split()
        if tokens and tokens[0][0] != "#":
            break
    else:
        raise ParseError("missing 'bigraph' header", 1, source)
    if tokens[0] != "bigraph" or len(tokens) != 3:
        raise ParseError("expected header 'bigraph <x_count> <y_count>'", line_no, source)
    x_count, y_count = _number(tokens[1]), _number(tokens[2])
    if x_count is None or y_count is None:
        raise ParseError("header counts must be plain decimal integers", line_no, source)
    edges: list[tuple[int, int, int]] = []
    for line_no, edge in _edge_lines(lines, _NATIVE_EDGE, _native_edge, source, ("x", "y")):
        x, y, _ = edge
        if x >= x_count:
            raise ParseError(f"x{x} out of range (x_count={x_count})", line_no, source)
        if y >= y_count:
            raise ParseError(f"y{y} out of range (y_count={y_count})", line_no, source)
        edges.append(edge)
    return _derived_graph(x_count, y_count, tuple(sorted(edges)))


def parse_edge_list_text(text: str, source: str | None = None) -> BipartiteGraph:
    """Importer for headerless edge lists: lines "i j [weight]", plain decimals.

    Side sizes are one past the largest index seen on each side.
    """
    lines = enumerate(text.splitlines(), start=1)
    edges = sorted(e for _, e in _edge_lines(lines, _LIST_EDGE, _list_edge, source, ("", "")))
    x_count = edges[-1][0] + 1 if edges else 0
    y_count = 1 + max((y for _, y, _ in edges), default=-1)
    return _derived_graph(x_count, y_count, tuple(edges))


def parse_graph(path: str | Path, fmt: str = "native") -> BipartiteGraph:
    """Graph from a UTF-8 file in fmt, "native" or "edgelist".

    Any other fmt raises ValueError before the file is read, and a byte
    that is not UTF-8 raises ParseError.
    """
    if fmt not in ("native", "edgelist"):
        raise ValueError(f"unknown graph format {fmt!r}: expected 'native' or 'edgelist'")
    data = Path(path).read_bytes()
    try:
        text = data.decode()
    except UnicodeDecodeError as err:
        # the bad byte's line: the valid text before it, plus one character
        line = len((data[: err.start].decode() + "?").splitlines())
        raise ParseError(f"byte 0x{data[err.start]:02x} is not UTF-8", line, str(path)) from None
    parse = parse_graph_text if fmt == "native" else parse_edge_list_text
    return parse(text, source=str(path))


# -- report documents ----------------------------------------------------------


def _document(path: str, g: BipartiteGraph, k: int, body: dict, wall_time_ms: int) -> dict:
    """The fields every report shares around a command's own body, in table order."""
    head = {"input": path, "n_x": g.x_count, "n_y": g.y_count, "m": g.m, "k": k}
    return {**head, **body, "wall_time_ms": wall_time_ms}


def solve_document(
    path: str, g: BipartiteGraph, report: SolveReport, wall_time_ms: int
) -> dict:
    witness = None
    if report.witness is not None:
        witness = {
            "x_ranks": list(report.witness.fx.ranks),
            "y_ranks": list(report.witness.fy.ranks),
        }
    body = {
        "decision": report.decision,
        "optimum": report.optimum if report.optimum is not None else "exceeds_budget",
        "witness": witness,
        "stats": asdict(report.stats),
        "method": report.method,
    }
    return _document(path, g, report.k, body, wall_time_ms)


def census_document(
    path: str, g: BipartiteGraph, k: int, result: CensusResult, wall_time_ms: int
) -> dict:
    return _document(path, g, k, asdict(result), wall_time_ms)


def document_json(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def format_table(doc: dict) -> str:
    skip = {"witness", "stats"}
    lines = [f"{key}: {doc[key]}" for key in doc if key not in skip]
    if "stats" in doc:
        stats = doc["stats"]
        lines.append(
            "stats: " + ", ".join(f"{k}={stats[k]}" for k in sorted(stats))
        )
    if doc.get("witness"):
        lines.append(f"witness x_ranks: {doc['witness']['x_ranks']}")
        lines.append(f"witness y_ranks: {doc['witness']['y_ranks']}")
    return "\n".join(lines) + "\n"


# -- SVG rendering ---------------------------------------------------------------


def svg_string(d: Drawing) -> str:
    """Static SVG: two vertex rows ordered by rank, straight edge segments.

    Integer coordinates only, elements written in a fixed order, so equal
    drawings produce byte-identical output.
    """
    g = d.graph
    spacing, margin = 60, 40
    top, bottom = 60, 220
    slots = max(g.x_count, g.y_count, 1)
    width = 2 * margin + spacing * (slots - 1)
    height = 280

    def cx(rank: int) -> int:
        return margin + rank * spacing

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">'
    ]
    for x, y, w in g.edges:
        x1, y1 = cx(d.fx.ranks[x]), top
        x2, y2 = cx(d.fy.ranks[y]), bottom
        parts.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            f'stroke="#333" stroke-width="1"/>'
        )
        if w > 1:
            parts.append(
                f'<text x="{(x1 + x2) // 2 + 6}" y="{(y1 + y2) // 2}" '
                f'font-size="11" fill="#a00">{w}</text>'
            )
    rows = (("x", d.fx.ranks, top, top - 12), ("y", d.fy.ranks, bottom, bottom + 20))
    for name, ranks, cy, label_y in rows:
        for v, rank in enumerate(ranks):
            c = cx(rank)
            parts.append(f'<circle cx="{c}" cy="{cy}" r="5" fill="#222"/>')
            parts.append(
                f'<text x="{c}" y="{label_y}" font-size="11" '
                f'text-anchor="middle">{name}{v}</text>'
            )
    parts.append(
        f'<text x="{margin}" y="{height - 16}" font-size="13">'
        f"crossings: {crossing_number_fast(d)}</text>"
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_svg(d: Drawing, out: str | Path) -> None:
    Path(out).write_text(svg_string(d))


# -- commands -----------------------------------------------------------------


def _flag_number(text: str, least: int) -> int:
    """A flag's value: plain decimal digits, as in graph files (see _number), >= least."""
    value = _number(text)
    if value is None or value < least:
        raise argparse.ArgumentTypeError(
            f"must be at least {least}, in plain decimal digits; got {text!r}"
        )
    return value


def _budget(text: str) -> int:
    """argparse type for crossing budgets (--k, --kmax)."""
    return _flag_number(text, 0)


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1."""
    return _flag_number(text, 1)


def _run(args: argparse.Namespace) -> int:
    """Parse, time, solve and emit the report of one command; exit code 0."""
    g = parse_graph(args.file, args.format)
    start = time.perf_counter()
    report: SolveReport | None = None
    if args.command == "census":
        result = census(g, args.k)
    elif args.command == "exact":
        report = bcr_exact(g, args.kmax)
    else:
        report = bcr_decide(g, args.k)
    ms = int((time.perf_counter() - start) * 1000)
    if report is None:
        doc = census_document(args.file, g, args.k, result, ms)
    else:
        doc = solve_document(args.file, g, report, ms)
    if args.json == "-":
        sys.stdout.write(document_json(doc))
    else:
        sys.stdout.write(format_table(doc))
        if args.json:
            Path(args.json).write_text(document_json(doc))
    svg = getattr(args, "svg", None)
    if svg:
        if report is not None and report.witness is not None:
            emit_svg(report.witness, svg)
        else:
            print("no witness drawing; --svg skipped", file=sys.stderr)
    return 0


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("file", help="graph file")
    sub.add_argument(
        "--format",
        choices=("native", "edgelist"),
        default="native",
        help="input format: native 'bigraph' files or headerless edge lists",
    )
    sub.add_argument(
        "--json",
        metavar="OUT",
        help="write the JSON report to OUT ('-' sends it to stdout instead of the table)",
    )


def _add_solver_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--svg", metavar="OUT", help="render the witness drawing to OUT")
    sub.add_argument(
        "--threads",
        type=_positive_int,
        default=1,
        help="accepted for compatibility; has no effect (the search is single-threaded)",
    )


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bicross",
        description="Exact two-layer crossing number solver for bipartite graphs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    decide = commands.add_parser(
        "decide", help="decide whether a drawing with at most K crossings exists"
    )
    decide.add_argument("--k", type=_budget, required=True, help="crossing budget")
    _add_common(decide)
    _add_solver_flags(decide)

    exact = commands.add_parser("exact", help="compute the exact crossing number")
    exact.add_argument(
        "--kmax",
        type=_budget,
        default=None,
        help=f"largest budget tried (default {K_MAX_DEFAULT})",
    )
    _add_common(exact)
    _add_solver_flags(exact)

    cens = commands.add_parser(
        "census", help="count all drawings with at most K crossings (exhaustive)"
    )
    cens.add_argument("--k", type=_budget, required=True, help="crossing budget")
    _add_common(cens)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (ResourceLimitError, ValueError, OSError) as err:  # ParseError, GraphError included
        print(f"error: {err}", file=sys.stderr)
        return 3 if isinstance(err, ResourceLimitError) else 2


if __name__ == "__main__":
    sys.exit(main())
