"""The package's public names: exactly the ones the README documents, whose
library example runs as its comments say."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import bicross

PUBLIC = [
    "BipartiteGraph",
    "CensusResult",
    "Drawing",
    "GraphComponent",
    "GraphError",
    "Layout",
    "Limits",
    "ResourceLimitError",
    "SelfCheckError",
    "Side",
    "SolveReport",
    "SolveStats",
    "SpineMap",
    "bcr_bruteforce",
    "bcr_decide",
    "bcr_exact",
    "build_graph",
    "build_spine",
    "census",
    "count_bound",
    "crossing_lower_bound",
    "crossing_number_fast",
    "crossing_number_naive",
    "drawing_from_ranks",
    "enumerate_candidates",
    "is_caterpillar_forest",
    "sibling_merge",
    "split_components",
    "verify_spine",
]


def test_all_is_pinned():
    assert sorted(bicross.__all__) == PUBLIC


def test_limits_has_one_ceiling_per_kind_of_work():
    names = [f.name for f in dataclasses.fields(bicross.Limits)]
    assert names == [
        "max_pair_evaluations",
        "max_walk_nodes",
        "max_crossable_pairs",
    ]


def test_every_public_name_resolves():
    for name in bicross.__all__:
        assert getattr(bicross, name) is not None, name


def test_every_public_name_is_documented():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    documented = set(re.findall(r"`([A-Za-z_]\w*)", readme))
    assert [name for name in PUBLIC if name not in documented] == []


def test_readme_library_example_runs_as_its_comments_say():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    scope: dict = {}
    exec(code, scope)
    g = scope["g"]
    assert scope["report"].optimum == 1
    assert scope["report"].witness.fx == bicross.Layout(bicross.Side.X, (0, 1))
    assert scope["bcr_decide"](g, k=0).decision == "no"
    assert scope["census"](g, k=1).count == 4
