"""Structural distance and confusion counts between graphs.

All comparisons run on adjacency matrices: a directed edge a -> b sets
entry (a, b); an undirected edge of a partially directed graph sets both
(a, b) and (b, a).  A DAG and an essential graph can therefore be compared
directly.  Each graph object's matrix is built once and kept on it
(``_kept_adjacency``), and the pair indices once per vertex count.
"""

import functools
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


def _kept_adjacency(graph: Dag | EssentialGraph) -> np.ndarray:
    """``adjacency(graph)``, read-only, built at the first call for the graph
    object and kept on it, as ``cached_property`` keeps a value: a Dag and an
    EssentialGraph are immutable, so a graph that several comparisons read,
    such as the true graph of every cell of a grid replicate, builds it once."""
    kept = getattr(graph, "__dict__", {}).get("_adjacency")
    if kept is None:
        kept = adjacency(graph)
        kept.setflags(write=False)
        graph.__dict__["_adjacency"] = kept
    return kept


@functools.lru_cache(maxsize=8)
def _pair_indices(p: int) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """The index arrays of the p-vertex upper triangle, one entry per
    unordered pair, and the mask of the off-diagonal entries, one per
    ordered pair; read-only, built once per p."""
    upper = np.triu_indices(p, k=1)
    off = ~np.eye(p, dtype=bool)
    for a in (*upper, off):
        a.setflags(write=False)
    return upper, off


def _matched_adjacency(g1, g2) -> tuple[np.ndarray, np.ndarray]:
    A1, A2 = _kept_adjacency(g1), _kept_adjacency(g2)
    if A1.shape != A2.shape:
        raise ParameterError(
            f"graphs have different vertex counts: {A1.shape[0]} vs {A2.shape[0]}"
        )
    return A1, A2


def _confusion(t: np.ndarray, e: np.ndarray) -> ConfusionCounts:
    """Confusion counts of the estimate's flags ``e`` against the truth's ``t``,
    one flag per pair, true where the pair holds an edge."""
    return ConfusionCounts(
        true_positives=int(np.count_nonzero(t & e)),
        false_positives=int(np.count_nonzero(~t & e)),
        false_negatives=int(np.count_nonzero(t & ~e)),
        true_negatives=int(np.count_nonzero(~t & ~e)),
    )


def shd(g1: Dag | EssentialGraph, g2: Dag | EssentialGraph) -> int:
    """Structural Hamming distance: vertex pairs whose edge status differs.

    A pair counts once whether it differs by presence, by orientation, or by
    directed versus undirected status.
    """
    A1, A2 = _matched_adjacency(g1, g2)
    upper, _ = _pair_indices(A1.shape[0])
    diff = (A1[upper] != A2[upper]) | (A1.T[upper] != A2.T[upper])
    return int(np.count_nonzero(diff))


def skeleton_confusion(truth: Dag | EssentialGraph, estimate: Dag | EssentialGraph) -> ConfusionCounts:
    """Confusion counts over unordered vertex pairs; positive means adjacent."""
    A_t, A_e = _matched_adjacency(truth, estimate)
    upper, _ = _pair_indices(A_t.shape[0])
    return _confusion((A_t | A_t.T)[upper], (A_e | A_e.T)[upper])


def directed_confusion(truth: Dag | EssentialGraph, estimate: Dag | EssentialGraph) -> ConfusionCounts:
    """Confusion counts over ordered vertex pairs of the adjacency matrices."""
    A_t, A_e = _matched_adjacency(truth, estimate)
    _, off = _pair_indices(A_t.shape[0])
    return _confusion(A_t[off], A_e[off])
