"""Exact solver for the bipartite (two-layer) crossing number.

Build a graph, then ask for a decision at a crossing budget or for the
exact optimum:

    >>> import bicross
    >>> c4 = bicross.build_graph(2, 2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    >>> bicross.bcr_exact(c4).optimum
    1

__all__ holds the names the README documents.  Two more helpers,
layout_from_sequence and validate_layout, stay importable from the
package without being part of that API.
"""

from .drawing import (
    Drawing,
    Layout,
    crossing_number_fast,
    crossing_number_naive,
    drawing_from_ranks,
    layout_from_sequence,
    validate_layout,
)
from .enumeration import (
    SpineMap,
    build_spine,
    count_bound,
    enumerate_candidates,
    verify_spine,
)
from .graph import (
    BipartiteGraph,
    GraphComponent,
    GraphError,
    Side,
    build_graph,
    crossing_lower_bound,
    is_caterpillar_forest,
    sibling_merge,
    split_components,
)
from .limits import Limits, ResourceLimitError
from .solver import (
    CensusResult,
    SelfCheckError,
    SolveReport,
    SolveStats,
    bcr_bruteforce,
    bcr_decide,
    bcr_exact,
    census,
)

__version__ = "0.1.0"

__all__ = [
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
