"""The package's public names: exactly the ones the README documents."""

from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import bicross

PUBLIC = [
    "BipartiteGraph",
    "CandidateEncoding",
    "CensusResult",
    "Drawing",
    "GraphComponent",
    "GraphError",
    "Layout",
    "Limits",
    "ResourceLimitError",
    "SelfCheckError",
    "SiblingPair",
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
    "decode_layout",
    "drawing_from_ranks",
    "encoding_from_layout",
    "enumerate_candidates",
    "find_sibling_pairs",
    "is_caterpillar_forest",
    "merge_sibling_leaves",
    "split_components",
    "verify_spine",
]


def test_all_is_pinned():
    assert sorted(bicross.__all__) == PUBLIC


def test_limits_has_one_ceiling_per_kind_of_work():
    names = [f.name for f in dataclasses.fields(bicross.Limits)]
    assert names == [
        "oracle_max_side",
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
