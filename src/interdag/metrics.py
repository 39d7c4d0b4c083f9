"""Structural distance and confusion counts between graphs.

All comparisons run on edge sets: each graph maps every adjacent pair
(a, b), a < b, to its edge, (tail, head) if directed and None if undirected,
so a DAG and an essential graph compare directly, in time linear in their
edges.  ``adjacency`` builds the p x p matrix of the same edges, in which an
undirected edge sets both (a, b) and (b, a).
"""

from dataclasses import dataclass

import numpy as np

from .equivalence import EssentialGraph
from .errors import ParameterError
from .model import Dag

__all__ = ["ConfusionCounts", "adjacency", "shd", "skeleton_confusion", "directed_confusion"]


@dataclass(frozen=True)
class ConfusionCounts:
    true_positives: int
    false_positives: int
    false_negatives: int
    true_negatives: int

    @property
    def total(self) -> int:
        return (
            self.true_positives
            + self.false_positives
            + self.false_negatives
            + self.true_negatives
        )


def adjacency(graph: Dag | EssentialGraph) -> np.ndarray:
    """Boolean adjacency matrix; undirected edges occupy both triangles."""
    if isinstance(graph, Dag):
        A = np.zeros((graph.p, graph.p), dtype=bool)
        for t, h in graph.edges:
            A[t - 1, h - 1] = True
        return A
    if isinstance(graph, EssentialGraph):
        A = np.zeros((graph.p, graph.p), dtype=bool)
        for t, h in graph.directed:
            A[t - 1, h - 1] = True
        for a, b in graph.undirected:
            A[a - 1, b - 1] = True
            A[b - 1, a - 1] = True
        return A
    raise ParameterError(f"cannot build an adjacency matrix from {type(graph).__name__}")


def _edge_status(graph: Dag | EssentialGraph) -> tuple[int, dict[tuple[int, int], tuple[int, int] | None]]:
    """The graph's vertex count, and a map from each adjacent pair (a, b),
    a < b, to its edge: (tail, head) if directed, None if undirected."""
    if isinstance(graph, Dag):
        return graph.p, {(min(e), max(e)): e for e in graph.edges}
    if isinstance(graph, EssentialGraph):
        status = {(min(e), max(e)): e for e in graph.directed}
        status.update(dict.fromkeys(graph.undirected))
        return graph.p, status
    raise ParameterError(f"cannot compare {type(graph).__name__}: not a Dag or an EssentialGraph")


def _matched_status(g1, g2) -> tuple[int, dict, dict]:
    (p1, s1), (p2, s2) = _edge_status(g1), _edge_status(g2)
    if p1 != p2:
        raise ParameterError(f"graphs have different vertex counts: {p1} vs {p2}")
    return int(p1), s1, s2


def _arrows(status: dict) -> set[tuple[int, int]]:
    """The ordered pairs (a, b) with an edge from a to b: a directed edge
    gives its own, an undirected one both."""
    return {arrow for pair, edge in status.items() for arrow in ((edge,) if edge else (pair, pair[::-1]))}


def _confusion(t: set, e: set, pairs: int) -> ConfusionCounts:
    """Confusion counts of the estimate's edges ``e`` against the truth's
    ``t``, out of ``pairs`` pairs in all."""
    hits = len(t & e)
    return ConfusionCounts(
        true_positives=hits,
        false_positives=len(e) - hits,
        false_negatives=len(t) - hits,
        true_negatives=pairs - len(t) - len(e) + hits,
    )


def shd(g1: Dag | EssentialGraph, g2: Dag | EssentialGraph) -> int:
    """Structural Hamming distance: vertex pairs whose edge status differs.

    A pair counts once whether it differs by presence, by orientation, or by
    directed versus undirected status.
    """
    _, s1, s2 = _matched_status(g1, g2)
    return len(s1.keys() ^ s2.keys()) + sum(s1[pair] != s2[pair] for pair in s1.keys() & s2.keys())


def skeleton_confusion(truth: Dag | EssentialGraph, estimate: Dag | EssentialGraph) -> ConfusionCounts:
    """Confusion counts over unordered vertex pairs; positive means adjacent."""
    p, s_t, s_e = _matched_status(truth, estimate)
    return _confusion(s_t.keys(), s_e.keys(), p * (p - 1) // 2)


def directed_confusion(truth: Dag | EssentialGraph, estimate: Dag | EssentialGraph) -> ConfusionCounts:
    """Confusion counts over ordered vertex pairs; (a, b) is positive when the
    graph has a -> b or the undirected a - b."""
    p, s_t, s_e = _matched_status(truth, estimate)
    return _confusion(_arrows(s_t), _arrows(s_e), p * (p - 1))
