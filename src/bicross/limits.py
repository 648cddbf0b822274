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
    """Ceilings for the exhaustive parts of the solver.

    Attributes:
        oracle_max_side: largest per-side vertex count the brute-force
            oracle (and the census scan) will accept.
        max_pair_evaluations: cap on candidate-pair crossing evaluations
            in a single component search, and on the layout pairs an
            exhaustive scan (oracle or census) would visit.
        max_gap_budget: cap on 4*k + a - 1, the ceiling on the raw gap
            total of a side's candidate layouts (the walk itself charges
            a leaf-aware cost against 4*k); keeps a runaway k from
            silently requesting an absurd search.
        max_walk_nodes: cap on the nodes one candidate walk (one side at
            one budget) visits, which bounds its time.  On a 2-core
            x86_64 machine with Python 3.11 a walk spends 1.5-5 us per
            node, so 2^22 nodes stand for about 7-20 s (6.8 s for two C4
            joined by a 40-edge chain, side Y at k = 2).  It also bounds
            the walk's memo, which holds bound sums for at most one state
            per node, and the candidate stream, which holds at most two
            layouts per node (a walk leaf and its reversal).
        k_max_default: default ceiling for the exact-optimum driver.
    """

    oracle_max_side: int = 8
    max_pair_evaluations: int = 1 << 30
    max_gap_budget: int = 512
    max_walk_nodes: int = 1 << 22
    k_max_default: int = 32


DEFAULT_LIMITS = Limits()
