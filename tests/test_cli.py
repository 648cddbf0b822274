"""Graph file grammar, commands, JSON reports, and SVG output."""

from __future__ import annotations

import contextlib
import io
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bicross import BipartiteGraph, bcr_decide, build_graph, census, drawing_from_ranks
from bicross.cli import (
    ParseError,
    census_document,
    emit_svg,
    main,
    parse_edge_list_text,
    parse_graph,
    parse_graph_text,
    solve_document,
    svg_string,
)
from util import graph_to_text, left_in_cycles, weighted_triples

C4_TEXT = """\
# a four-cycle
bigraph 2 2
x0 y0
x0 y1
x1 y0
x1 y1
"""


@st.composite
def weighted_graphs(draw, covered: bool = False):
    """A BipartiteGraph of util.weighted_triples (see there for covered)."""
    return BipartiteGraph(*draw(weighted_triples(covered)))


def c4():
    return build_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestParsing:
    def test_c4_file(self):
        assert parse_graph_text(C4_TEXT) == c4()

    def test_weighted_edge(self):
        g = parse_graph_text("bigraph 1 1\nx0 y0 5\n")
        assert g.edges == ((0, 0, 5),)

    def test_comments_and_blanks_ignored(self):
        g = parse_graph_text("# lead\n\nbigraph 1 1\n\n# mid\nx0 y0\n")
        assert g.m == 1

    @pytest.mark.parametrize(
        "text,fragment,line",
        [
            ("x0 y0\n", "header", 1),
            ("bigraph 2\n", "header", 1),
            ("bigraph 1 1\nx0 z1\n", "expected y<index>", 2),
            ("bigraph 1 1\nx0 y0 0\n", "weight", 2),
            ("bigraph 1 1\nx0 y0\nx0 y0\n", "duplicate", 3),
            ("bigraph 1 1\nx0 y4\n", "out of range", 2),
            ("bigraph 2 2\nx5 y0\n", r"x5 out of range \(x_count=2\)", 2),
            ("# only a comment\n\n", "missing 'bigraph' header", 1),
            ("bigraph 1 1\nbigraph 1 1\n", "second header", 2),
            ("bigraph 1 1\nx0 y0 1 9\n", "expected", 2),
            # counts, indices and weights are ASCII digits only, which int() is not
            ("bigraph 1_0 2\n", "header counts must be plain decimal integers", 1),
            ("bigraph -1 2\n", "header counts", 1),
            ("bigraph 2 2\nx0 y0 1_0\n", "weight '1_0'", 2),
            ("bigraph 2 2\nx0 y0 +3\n", "weight", 2),
            ("bigraph 4 2\nx\u0663 y1\n", "expected x<index>", 2),
            ("bigraph 4 2\nx\u00b2 y1\n", "expected x<index>", 2),
            ("bigraph 2 2\nx0 y0 " + "9" * 5000 + "\n", "weight", 2),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment, line):
        with pytest.raises(ParseError, match=fragment) as err:
            parse_graph_text(text)
        assert err.value.line == line

    def test_round_trip(self):
        g = build_graph(3, 2, [(0, 0, 2), (1, 0), (1, 1), (2, 1, 4)])
        assert parse_graph_text(graph_to_text(g)) == g

    @settings(max_examples=200, deadline=None)
    @given(g=weighted_graphs())
    def test_round_trip_property(self, g):
        assert parse_graph_text(graph_to_text(g)) == g

    @settings(max_examples=200, deadline=None)
    @given(g=weighted_graphs(covered=True))
    def test_edge_list_round_trip_property(self, g):
        # weight 1 is left out, as the native writer does, so the default is read too
        text = "".join(f"{x} {y}" + (f" {w}\n" if w > 1 else "\n") for x, y, w in g.edges)
        assert parse_edge_list_text(text) == g

    def test_edge_list_import(self):
        g = parse_edge_list_text("0 0\n0 1 3\n2 1\n")
        assert g.x_count == 3 and g.y_count == 2
        assert g.weight[(0, 1)] == 3

    def test_edge_list_errors(self):
        with pytest.raises(ParseError, match="integers"):
            parse_edge_list_text("a b\n")
        with pytest.raises(ParseError, match="duplicate"):
            parse_edge_list_text("0 0\n0 0\n")
        for line in ("0", "0 0 1 9"):
            with pytest.raises(ParseError, match=r"expected '<i> <j> \[weight\]'"):
                parse_edge_list_text(f"0 0\n{line}\n")

    @pytest.mark.parametrize("line", ["1_0 0", "+1 0", "0 -1", "0 \u0663", "0 0 1_0"])
    def test_edge_list_takes_plain_decimals_only(self, line):
        with pytest.raises(ParseError, match="integers") as err:
            parse_edge_list_text(f"0 0\n{line}\n", source="g.txt")
        assert str(err.value).startswith("g.txt:2:")

    @settings(max_examples=200, deadline=None)
    @given(triple=weighted_triples(), seed=st.integers(0, 2**32))
    def test_parsers_build_what_the_validating_constructor_builds(self, triple, seed):
        # the parsers skip BipartiteGraph's checks, so in any line order
        # they must build the very graph those checks would
        a, b, edges = triple
        lines = [f"x{x} y{y}" + (f" {w}" if w > 1 else "") for x, y, w in edges]
        random.Random(seed).shuffle(lines)
        native = parse_graph_text(f"bigraph {a} {b}\n" + "\n".join(lines) + "\n")
        assert native == BipartiteGraph(a, b, tuple(edges))
        plain = [line.replace("x", "").replace("y", "") for line in lines]
        listed = parse_edge_list_text("".join(line + "\n" for line in plain))
        a = 1 + max((x for x, _, _ in edges), default=-1)
        b = 1 + max((y for _, y, _ in edges), default=-1)
        assert listed == BipartiteGraph(a, b, tuple(edges))

    @pytest.mark.parametrize(
        "fmt,body,fragment",
        [
            ("native", "x0 y2", "y2 out of range"),
            ("edgelist", "0 -1", "plain decimal integers"),  # below the range
            ("native", "x0 y0", r"duplicate edge x0 y0 \(first on line 2\)"),
            ("edgelist", "0 0", r"duplicate edge 0 0 \(first on line 2\)"),
            ("native", "x1 y1 0", "weight '0'"),
            ("edgelist", "1 1 0", "weight must be >= 1"),
            ("native", "x1 y1 1_0", "weight '1_0'"),
            ("edgelist", "1 1 1_0", "plain decimal integers"),
            ("native", "x1 y\u0661", "expected y<index>"),
            ("edgelist", "1 \u0661", "plain decimal integers"),
        ],
    )
    def test_errors_name_the_file_and_line(self, fmt, body, fragment):
        # line 1 is the header (native) or a comment (edge list), line 2
        # the edge x0 y0, line 3 the bad one
        head = "bigraph 2 2\n" if fmt == "native" else "# edges\n"
        first = "x0 y0\n" if fmt == "native" else "0 0\n"
        parse = parse_graph_text if fmt == "native" else parse_edge_list_text
        with pytest.raises(ParseError, match=fragment) as err:
            parse(head + first + body + "\n", source="g.txt")
        assert str(err.value).startswith("g.txt:3: ")
        assert err.value.line == 3

    def test_lines_with_other_whitespace_parse_as_before(self):
        # a form feed splits lines; tabs, no-break spaces and padding do not
        g = parse_graph_text("bigraph 3 3\n\tx0\u00a0y1  \n x1\ty2\t2\n\x0cx2 y0\n")
        assert g.edges == ((0, 1, 1), (1, 2, 2), (2, 0, 1))
        g = parse_edge_list_text("0\u00a01\n 1\t2\t2 \n")
        assert g.edges == ((0, 1, 1), (1, 2, 2))

    def test_edge_list_duplicate_names_both_lines(self):
        with pytest.raises(ParseError, match=r"duplicate edge 0 0 \(first on line 1\)") as err:
            parse_edge_list_text("0 0\n# note\n1 0\n0 0 2\n")
        assert err.value.line == 4

    def test_native_duplicate_names_both_lines(self):
        with pytest.raises(ParseError) as err:
            parse_graph_text("bigraph 2 2\nx0 y0\n# note\nx1 y0\nx0 y0 2\n")
        assert str(err.value) == "line 5: duplicate edge x0 y0 (first on line 2)"

    @pytest.mark.parametrize(
        "fmt,text",
        [
            ("native", b"bigraph 2 2\r\nx0 y0\r\n\r\nx1 y1 \xff\r\n"),
            ("edgelist", b"# caf\xc3\xa9\n0 0\n\n1 \xff1\n"),
        ],
        ids=["native-crlf", "edgelist"],
    )
    def test_files_are_utf8_and_a_bad_byte_names_the_file_and_line(self, tmp_path, fmt, text):
        path = tmp_path / "g.txt"
        path.write_bytes(text)
        with pytest.raises(ParseError) as err:
            parse_graph(path, fmt)
        assert str(err.value) == f"{path}:4: byte 0xff is not UTF-8"
        assert err.value.line == 4
        path.write_bytes(text.replace(b"\xff", b""))
        assert parse_graph(path, fmt).edges == ((0, 0, 1), (1, 1, 1))

    @pytest.mark.parametrize("fmt", ["nativ", "edge-list", "Native", ""])
    def test_unknown_format_is_refused(self, tmp_path, fmt):
        message = f"unknown graph format {fmt!r}: expected 'native' or 'edgelist'"
        # a file of digit pairs would parse as an edge list, a native file
        # would fail on its header, and a missing file is never opened
        for name, text in (("pairs.txt", "0 0\n1 1\n"), ("c4.bg", C4_TEXT), ("missing", None)):
            path = tmp_path / name
            if text is not None:
                path.write_text(text)
            with pytest.raises(ValueError) as err:
                parse_graph(path, fmt)
            assert str(err.value) == message
            assert not isinstance(err.value, ParseError)


class TestCommands:
    def run(self, capsys, *argv):
        code = main(list(argv))
        out = capsys.readouterr()
        return code, out.out, out.err

    def test_decide_yes(self, tmp_path, capsys):
        path = write(tmp_path, "c4.bg", C4_TEXT)
        code, out, _ = self.run(capsys, "decide", "--k", "1", path, "--json", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["decision"] == "yes"
        assert doc["optimum"] == 1
        assert sorted(doc["witness"]["x_ranks"]) == [0, 1]

    def test_decide_no_still_exits_zero(self, tmp_path, capsys):
        path = write(tmp_path, "c4.bg", C4_TEXT)
        code, out, _ = self.run(capsys, "decide", "--k", "0", path, "--json", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["decision"] == "no"
        assert doc["optimum"] == "exceeds_budget"
        assert doc["witness"] is None

    def test_exact_star(self, tmp_path, capsys):
        text = "bigraph 1 5\n" + "".join(f"x0 y{j}\n" for j in range(5))
        path = write(tmp_path, "star.bg", text)
        code, out, _ = self.run(capsys, "exact", path, "--json", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["optimum"] == 0
        assert doc["method"] == "fastpath"

    def test_census_star(self, tmp_path, capsys):
        text = "bigraph 1 4\n" + "".join(f"x0 y{j}\n" for j in range(4))
        path = write(tmp_path, "star.bg", text)
        code, out, _ = self.run(capsys, "census", "--k", "0", path, "--json", "-")
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 24
        assert doc["pairs_scanned"] == 24
        assert doc["sibling_free"] is False

    def test_main_leaves_no_cycle(self, tmp_path):
        # the parser is built once per process, so a request through main
        # leaves nothing that only the cyclic collector frees
        c4_path = write(tmp_path, "c4.bg", C4_TEXT)
        star = write(tmp_path, "star.bg", "bigraph 1 3\nx0 y0\nx0 y1\nx0 y2\n")
        for argv in (
            ["decide", "--k", "1", c4_path],
            ["exact", c4_path],
            ["census", "--k", "0", star],
        ):

            def call():
                with contextlib.redirect_stdout(io.StringIO()):
                    assert main(argv) == 0

            assert left_in_cycles(call) == 0, argv[0]

    def test_report_keys_keep_their_order(self):
        # format_table writes the keys in this order
        head = ["input", "n_x", "n_y", "m", "k"]
        doc = solve_document("c4.bg", c4(), bcr_decide(c4(), 1), 3)
        assert list(doc) == head + [
            "decision", "optimum", "witness", "stats", "method", "wall_time_ms"
        ]
        doc = census_document("c4.bg", c4(), 1, census(c4(), 1), 3)
        assert list(doc) == head + [
            "count", "bound", "pairs_scanned", "sibling_free", "wall_time_ms"
        ]

    def test_file_not_utf8_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.bg"
        path.write_bytes(b"bigraph 1 1\nx0 y0 \xfe\n")
        code, _, err = self.run(capsys, "decide", "--k", "0", str(path))
        assert code == 2
        assert err == f"error: {path}:2: byte 0xfe is not UTF-8\n"

    def test_table_output_default(self, tmp_path, capsys):
        path = write(tmp_path, "c4.bg", C4_TEXT)
        code, out, _ = self.run(capsys, "decide", "--k", "1", path)
        assert code == 0
        assert "decision: yes" in out
        assert "optimum: 1" in out

    def test_stats_report_the_kernel_size(self, tmp_path, capsys):
        # C4 with a 7-edge tail at x0: at k = 1 the tail is cut to 4 edges
        edges = ["x0 y0", "x0 y1", "x1 y0", "x1 y1", "x0 y2"] + [
            f"x{i} y{j}" for i in range(2, 5) for j in (i, i + 1)
        ]
        path = write(tmp_path, "c4tail.bg", "bigraph 5 6\n" + "\n".join(edges) + "\n")
        code, out, _ = self.run(capsys, "decide", "--k", "1", path, "--json", "-")
        assert code == 0
        stats = json.loads(out)["stats"]
        assert sorted(stats) == [
            "candidates_x",
            "candidates_y",
            "components",
            "kernel_edges",
            "pairs_evaluated",
            "pruned",
        ]
        assert stats["kernel_edges"] == 8
        code, out, _ = self.run(capsys, "decide", "--k", "1", path)
        assert "kernel_edges=8" in out

    def test_json_file_plus_table(self, tmp_path, capsys):
        path = write(tmp_path, "c4.bg", C4_TEXT)
        out_json = tmp_path / "report.json"
        code, out, _ = self.run(
            capsys, "decide", "--k", "1", path, "--json", str(out_json)
        )
        assert code == 0
        assert "decision: yes" in out
        assert json.loads(out_json.read_text())["decision"] == "yes"

    def test_edge_list_format_flag(self, tmp_path, capsys):
        path = write(tmp_path, "g.edges", "0 0\n0 1\n1 0\n1 1\n")
        code, out, _ = self.run(
            capsys, "exact", path, "--format", "edgelist", "--json", "-"
        )
        assert code == 0
        assert json.loads(out)["optimum"] == 1

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = write(tmp_path, "bad.bg", "bigraph 1 1\nx0 z0\n")
        code, _, err = self.run(capsys, "decide", "--k", "0", path)
        assert code == 2
        assert "bad.bg:2:" in err

    def test_missing_file_exit_code(self, tmp_path, capsys):
        code, _, err = self.run(capsys, "decide", "--k", "0", str(tmp_path / "nope"))
        assert code == 2
        assert "error" in err

    def test_resource_limit_exit_code(self, tmp_path, capsys):
        text = "bigraph 12 1\n" + "".join(f"x{i} y0\n" for i in range(12))
        path = write(tmp_path, "big.bg", text)
        code, _, err = self.run(capsys, "census", "--k", "0", path)
        assert code == 3
        assert "census" in err

    def test_crossable_pair_ceiling_exit_code(self, tmp_path, capsys):
        # K_{46,46}: 2,142,450 edge pairs that can cross, over the 2^21 default
        text = "bigraph 46 46\n" + "".join(f"x{x} y{y}\n" for x in range(46) for y in range(46))
        path = write(tmp_path, "k46.bg", text)
        code, _, err = self.run(capsys, "decide", "--k", "3000", path)
        assert code == 3
        assert "2142450 crossable edge pairs, over max_crossable_pairs=2097152" in err

    @pytest.mark.parametrize(
        "flag,value",
        [
            ("--threads", "0"),
            ("--threads", "-1"),
        ],
    )
    def test_counts_below_one_rejected(self, tmp_path, capsys, flag, value):
        path = write(tmp_path, "c4.bg", C4_TEXT)
        with pytest.raises(SystemExit) as exit_info:
            main(["decide", "--k", "1", path, flag, value])
        assert exit_info.value.code == 2
        assert "must be at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["1_0", "+3", "١٠", "²", " 3", "-1", "1e1"])
    @pytest.mark.parametrize(
        "command,flag",
        [
            ("decide", "--k"),
            ("census", "--k"),
            ("exact", "--kmax"),
            ("decide", "--threads"),
            ("exact", "--threads"),
        ],
    )
    def test_flags_take_plain_decimals_only(self, tmp_path, capsys, command, flag, value):
        # the rule of the graph files: int() would read the first five
        # as 10, 3, 10, an error and 3
        path = write(tmp_path, "c4.bg", C4_TEXT)
        argv = [command, path, flag, value]
        if command != "exact" and flag != "--k":
            argv += ["--k", "1"]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be at least" in err
        assert repr(value) in err

    def test_flags_take_leading_zeros(self, tmp_path, capsys):
        path = write(tmp_path, "c4.bg", C4_TEXT)
        code, out, _ = self.run(capsys, "decide", "--k", "01", path, "--json", "-")
        assert code == 0
        assert json.loads(out)["k"] == 1
        code, out, _ = self.run(capsys, "exact", path, "--kmax", "00", "--json", "-")
        assert code == 0
        assert json.loads(out)["decision"] == "no"

    def test_large_budget_is_capped(self, tmp_path, capsys):
        # two disjoint C6 (bcr 2 each): each is searched at most at its
        # identity drawing's crossing count, not at k = 200
        edges = [(0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (0, 2)]
        text = "bigraph 6 6\n" + "".join(
            f"x{x + s} y{y + s}\n" for s in (0, 3) for x, y in edges
        )
        path = write(tmp_path, "two_c6.bg", text)
        code, out, _ = self.run(capsys, "decide", "--k", "200", path, "--json", "-")
        assert code == 0
        doc = json.loads(out)
        assert (doc["decision"], doc["optimum"]) == ("yes", 4)

    def test_budget_past_128_answers(self, tmp_path, capsys):
        # C4 where x1 and y1 each carry 40 leaves: bcr 1 at every budget
        text = "bigraph 42 42\nx0 y0\nx0 y1\nx1 y0\nx1 y1\n" + "".join(
            f"x1 y{2 + i}\nx{2 + i} y1\n" for i in range(40)
        )
        path = write(tmp_path, "hub_leaf_c4.bg", text)
        for k in ("127", "128", "1000000"):
            code, out, _ = self.run(capsys, "decide", "--k", k, path)
            assert code == 0
            assert "optimum: 1" in out

    def test_json_deterministic_modulo_wall_time(self, tmp_path, capsys):
        path = write(tmp_path, "c4.bg", C4_TEXT)
        docs = []
        for _ in range(2):
            _, out, _ = self.run(capsys, "decide", "--k", "1", path, "--json", "-")
            docs.append(json.loads(out))
        for doc in docs:
            doc.pop("wall_time_ms")
        assert docs[0] == docs[1]


class TestSvg:
    def test_c4_witness(self, tmp_path, capsys):
        path = write(tmp_path, "c4.bg", C4_TEXT)
        svg_path = tmp_path / "c4.svg"
        code = main(["exact", path, "--svg", str(svg_path)])
        capsys.readouterr()
        assert code == 0
        svg = svg_path.read_text()
        assert "crossings: 1" in svg
        assert svg.count("<circle") == 4
        assert svg.count("<line") == 4

    def test_single_edge(self):
        svg = svg_string(drawing_from_ranks(build_graph(1, 1, [(0, 0)]), range(1), range(1)))
        assert svg.count("<circle") == 2
        assert svg.count("<line") == 1
        assert "crossings: 0" in svg

    def test_weight_label(self):
        g = build_graph(1, 1, [(0, 0, 5)])
        assert ">5</text>" in svg_string(drawing_from_ranks(g, range(1), range(1)))

    def test_deterministic_bytes(self, tmp_path):
        d = drawing_from_ranks(c4(), (1, 0), (0, 1))
        emit_svg(d, tmp_path / "a.svg")
        emit_svg(d, tmp_path / "b.svg")
        assert (tmp_path / "a.svg").read_bytes() == (tmp_path / "b.svg").read_bytes()

    def test_no_witness_skips_svg(self, tmp_path, capsys):
        path = write(tmp_path, "c4.bg", C4_TEXT)
        svg_path = tmp_path / "none.svg"
        code = main(["decide", "--k", "0", path, "--svg", str(svg_path)])
        err = capsys.readouterr().err
        assert code == 0
        assert not svg_path.exists()
        assert "skipped" in err
