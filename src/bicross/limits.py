"""Resource guard rails shared by the solver and the candidate enumerator."""

from __future__ import annotations

from dataclasses import dataclass


class ResourceLimitError(RuntimeError):
    """A configured resource ceiling would be exceeded.

    The message always names the limit (and, where relevant, the pipeline
    stage) so callers can tell which knob to raise.
    """


@dataclass(frozen=True)
class Limits:
    """Three ceilings on the solver's work, one per kind of work.

    max_pair_evaluations bounds the exhaustive scans by the layout pairs
    they would visit, max_walk_nodes the budgeted search (the candidate
    walk and the second-side searches), and max_crossable_pairs the
    memory of that search's tables.  Exceeding one raises
    ResourceLimitError.

    Attributes:
        max_pair_evaluations: cap on the a! * b! layout pairs an
            exhaustive scan (the brute-force oracle or the census) of a
            graph with sides a and b would visit, checked before the
            scan starts.  The default 8! * 7! = 203,212,800 admits sides
            of 8 and 7 but not 8 and 8 (1,625,702,400 pairs), and a
            single side of up to 11 vertices when the other has one.
            The cap counts pairs, not time: on a 2-core x86_64 machine
            with Python 3.11 the census of C10 and C12 at k = 0 scans
            about 530,000-820,000 pairs/s, so a scan at the cap runs
            for minutes, about 5 at roughly 650,000 pairs/s, and longer
            with more edges or a larger k.
        max_walk_nodes: cap on the nodes one candidate walk (one side at
            one budget) visits, which bounds its time, and separately on
            the nodes of the second-side searches at one budget, summed
            over the candidates.  A walk node is one relative order of
            the vertices placed so far, and costs time linear in their
            number plus the crossing-table entries of the vertex it
            inserts.  On a 2-core x86_64 machine with Python 3.11 that is
            about 4.7 us per node on dense random graphs with 8-vertex
            sides at k = 20 (their walks end within about 6,000 nodes),
            5 us on the 22-vertex side of C4 with a 40-edge tail at
            k = 30 and 23-31 us on the 33-vertex side of C6 with a
            60-edge tail at k = 20, so a walk that hits 2^19 nodes stops
            after about 2.5-15 s.  It also bounds the candidate list,
            which holds at most two layouts per node (a walk leaf and its
            reversal).  A second-side search node places one vertex, in
            time linear in the side's size.  The cap is the search's only
            bound: the budget may be any size.  Only the smaller side is
            walked, so a huge budget costs walk nodes on that side alone:
            C10 with 30 leaves on each X vertex walks its 5 X vertices at
            the identity drawing's count 607 and answers at k = 10^6
            within 2^10 nodes.
        max_crossable_pairs: cap on the edge pairs with four distinct
            endpoints, the pairs that can cross, of a graph handed to the
            candidate walk.  The walk and the second-side search build
            tables with one entry per such pair, about m^2 / 2 of them;
            the count comes from the degrees and is checked before any
            table is built.  With Python 3.11 a walk holds about 260
            bytes per pair at its peak (tracemalloc, crossable_pairs
            included), so the default 2^21 stops a search before its
            tables pass about 0.5 GB.  C4 with a 600-edge path hung on
            it and a leaf on every path vertex has 722,402 such pairs and
            answers k = 1; K_{46,46} has 2,142,450 and raises at once.
            A search's tables are freed when it returns, so the same
            figure bounds a bcr_exact ascent, whose peak is that of its
            largest budget: on K3,3 with a pendant caterpillar of 60
            spine vertices, one leaf each (126 vertices, 129 edges, bcr
            9), bcr_exact(g, 12) and bcr_decide(g, 9) both peak at 2.00
            MiB under tracemalloc.
    """

    max_pair_evaluations: int = 203_212_800  # 8! * 7!
    max_walk_nodes: int = 1 << 19
    max_crossable_pairs: int = 1 << 21


DEFAULT_LIMITS = Limits()
