"""Structural Hamming distance and confusion counts.

Core claims:
    - shd counts vertex pairs whose (presence, orientation) status differs,
      each pair at most once.
    - shd is a metric on adjacency patterns: symmetric, zero exactly on
      equal patterns, triangle inequality.
    - Confusion counts partition all pairs and match hand-computed examples.
    - DAGs and essential graphs mix freely in one comparison.
    - The adjacency each graph object keeps gives the counts of one built
      afresh, and ``adjacency`` still returns a fresh, writable matrix.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdag import (
    Dag,
    EssentialGraph,
    ParameterError,
    TargetFamily,
    adjacency,
    directed_confusion,
    essential_graph,
    sample_random_dag,
    shd,
    skeleton,
    skeleton_confusion,
)


def _random_dags(count, p, seed0):
    return [sample_random_dag(p, 1.8, seed0 + i) for i in range(count)]


# -- shd ---------------------------------------------------------------------------


def test_shd_examples():
    e = Dag.from_edges(2, [(1, 2)])
    r = Dag.from_edges(2, [(2, 1)])
    assert shd(e, e) == 0
    assert shd(e, r) == 1
    assert shd(e, Dag.empty(2)) == 1
    # one missing edge plus one flipped edge
    a = Dag.from_edges(3, [(1, 2), (2, 3)])
    b = Dag.from_edges(3, [(2, 1)])
    assert shd(a, b) == 2


def test_shd_counts_orientation_status_once_per_pair():
    # undirected vs directed on the same skeleton differs per pair
    chain = Dag.from_edges(3, [(1, 2), (2, 3)])
    g = essential_graph(chain, TargetFamily.of(()))
    assert g.undirected == frozenset({(1, 2), (2, 3)})
    assert shd(chain, g) == 2
    assert shd(g, chain) == 2


def test_shd_is_a_metric():
    rng = np.random.default_rng(42)
    dags = _random_dags(30, 5, 900)
    for _ in range(1000):
        i, j, k = rng.integers(0, len(dags), size=3)
        x, y, z = dags[i], dags[j], dags[k]
        assert shd(x, y) == shd(y, x)
        assert shd(x, y) >= 0
        assert (shd(x, y) == 0) == (np.array_equal(adjacency(x), adjacency(y)))
        assert shd(x, z) <= shd(x, y) + shd(y, z)


def test_shd_metric_on_essential_graphs():
    graphs = []
    for seed in range(12):
        dag = sample_random_dag(5, 1.8, 7700 + seed)
        family = TargetFamily.of((), (1 + seed % 5,))
        graphs.append(essential_graph(dag, family))
    for x, y in itertools.combinations(graphs, 2):
        assert shd(x, y) == shd(y, x)
    for x, y, z in itertools.combinations(graphs, 3):
        assert shd(x, z) <= shd(x, y) + shd(y, z)


def test_shd_bounded_by_pair_count():
    for seed in range(50):
        a = sample_random_dag(6, 3.0, seed)
        b = sample_random_dag(6, 3.0, 10_000 + seed)
        assert 0 <= shd(a, b) <= 15


def test_shd_equal_skeletons_counts_flipped_edges():
    rng = np.random.default_rng(7)
    for seed in range(40):
        dag = sample_random_dag(6, 2.0, 5500 + seed)
        # reorient the same skeleton along a random vertex order
        order = list(rng.permutation(6) + 1)
        pos = {v: i for i, v in enumerate(order)}
        edges = [
            (a, b) if pos[a] < pos[b] else (b, a)
            for a, b in skeleton(dag).edges
        ]
        other = Dag.from_edges(6, edges)
        flipped = sum(1 for e in dag.edges if e not in other.edges)
        assert shd(dag, other) == flipped


def test_shd_vertex_count_mismatch():
    with pytest.raises(ParameterError):
        shd(Dag.empty(3), Dag.empty(4))


# -- confusion counts -----------------------------------------------------------------


def test_skeleton_confusion_examples():
    empty = Dag.empty(4)
    c = skeleton_confusion(empty, empty)
    assert (c.true_positives, c.false_positives, c.false_negatives, c.true_negatives) == (0, 0, 0, 6)
    truth = Dag.from_edges(3, [(1, 2)])
    est = Dag.from_edges(3, [(2, 3)])
    c = skeleton_confusion(truth, est)
    assert (c.true_positives, c.false_positives, c.false_negatives, c.true_negatives) == (0, 1, 1, 1)
    # orientation does not matter for the skeleton view
    c = skeleton_confusion(truth, Dag.from_edges(3, [(2, 1)]))
    assert (c.true_positives, c.false_positives, c.false_negatives) == (1, 0, 0)


def test_directed_confusion_examples():
    truth = Dag.from_edges(3, [(1, 2)])
    same = directed_confusion(truth, truth)
    assert (same.true_positives, same.false_positives, same.false_negatives, same.true_negatives) == (1, 0, 0, 5)
    flipped = directed_confusion(truth, Dag.from_edges(3, [(2, 1)]))
    assert (flipped.true_positives, flipped.false_positives, flipped.false_negatives) == (0, 1, 1)


def test_confusion_totals_partition_all_pairs():
    for seed in range(30):
        a = sample_random_dag(7, 2.0, 600 + seed)
        b = sample_random_dag(7, 2.0, 11_000 + seed)
        assert skeleton_confusion(a, b).total == 21
        assert directed_confusion(a, b).total == 42
        c = skeleton_confusion(a, b)
        assert c.true_positives + c.false_negatives == len(skeleton(a).edges)
        assert c.true_positives + c.false_positives == len(skeleton(b).edges)


def test_adjacency_shapes_and_symmetry():
    dag = Dag.from_edges(3, [(1, 2), (3, 2)])
    A = adjacency(dag)
    assert A.dtype == bool and A.shape == (3, 3)
    assert A[0, 1] and A[2, 1] and not A[1, 0]
    g = EssentialGraph(3, frozenset({(1, 2)}), frozenset({(2, 3)}))
    B = adjacency(g)
    assert B[0, 1] and not B[1, 0]
    assert B[1, 2] and B[2, 1]
    with pytest.raises(ParameterError):
        adjacency("not a graph")


def test_directed_count_of_perfect_essential_estimate():
    # estimating the graph's own class gives zero skeleton error
    dag = sample_random_dag(6, 1.5, 321)
    g = essential_graph(dag, TargetFamily.of(()))
    c = skeleton_confusion(dag, g)
    assert c.false_positives == 0 and c.false_negatives == 0


# -- adjacencies kept on the graph objects ------------------------------------------


def _fresh_metrics(g1, g2) -> tuple:
    """shd, skeleton and directed confusion counts from freshly built
    adjacency matrices, as the metrics were computed before they kept them."""
    A1, A2 = adjacency(g1), adjacency(g2)
    p = A1.shape[0]
    upper = np.triu_indices(p, k=1)
    off = ~np.eye(p, dtype=bool)

    def counts(t, e):
        return tuple(int(np.count_nonzero(x)) for x in (t & e, ~t & e, t & ~e, ~t & ~e))

    distance = int(np.count_nonzero((A1[upper] != A2[upper]) | (A1.T[upper] != A2.T[upper])))
    return distance, counts((A1 | A1.T)[upper], (A2 | A2.T)[upper]), counts(A1[off], A2[off])


def _metrics(g1, g2) -> tuple:
    def counts(c):
        return c.true_positives, c.false_positives, c.false_negatives, c.true_negatives

    return shd(g1, g2), counts(skeleton_confusion(g1, g2)), counts(directed_confusion(g1, g2))


@settings(max_examples=150, deadline=None)
@given(p=st.integers(1, 9), seed=st.integers(0, 2**32 - 1), target=st.integers(0, 9))
def test_kept_adjacencies_give_the_metrics_of_fresh_ones(p, seed, target):
    """Two random DAGs and their essential graphs, observational and under
    one single-vertex target, compared in every ordered pair, twice: the
    graph objects keep their adjacencies from the first comparison on, and
    every count equals the one from matrices built afresh.  ``adjacency``
    still returns a fresh, writable matrix."""
    family = TargetFamily.of((), *([(target,)] if 1 <= target <= p else []))
    dags = [sample_random_dag(p, min(1.8, p - 1), seed + i) for i in range(2)]
    graphs = [*dags, *(essential_graph(dag, family) for dag in dags)]
    for _ in range(2):
        for g1, g2 in itertools.product(graphs, repeat=2):
            assert _metrics(g1, g2) == _fresh_metrics(g1, g2)
    for g in graphs:
        A = adjacency(g)
        assert A.flags.writeable and not np.shares_memory(A, adjacency(g))
        A[:] = True
        assert shd(g, g) == 0
