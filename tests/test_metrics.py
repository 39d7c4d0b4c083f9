"""Structural Hamming distance and confusion counts.

Core claims:
    - shd counts vertex pairs whose (presence, orientation) status differs,
      each pair at most once.
    - shd is a metric on adjacency patterns: symmetric, zero exactly on
      equal patterns, triangle inequality.
    - Confusion counts partition all pairs and match hand-computed examples.
    - DAGs and essential graphs mix freely in one comparison.
    - The metrics compare edge sets and give the counts of the adjacency
      matrices, the oracle; ``adjacency`` returns a fresh, writable matrix.
    - Every metric refuses graphs of different vertex counts and a
      non-graph, naming the counts or the type.
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


_METRICS = pytest.mark.parametrize(
    "metric", [shd, skeleton_confusion, directed_confusion], ids=lambda m: m.__name__
)


@_METRICS
def test_metric_vertex_count_mismatch(metric):
    dag = Dag.from_edges(3, [(1, 2)])
    g = essential_graph(Dag.from_edges(4, [(1, 2)]), TargetFamily.of(()))
    with pytest.raises(ParameterError, match="graphs have different vertex counts: 3 vs 4"):
        metric(dag, g)
    with pytest.raises(ParameterError, match="graphs have different vertex counts: 4 vs 3"):
        metric(g, dag)


@_METRICS
def test_metric_refuses_a_non_graph(metric):
    dag = Dag.empty(3)
    for other in ("not a graph", adjacency(dag), None):
        for args in ((dag, other), (other, dag)):
            with pytest.raises(ParameterError, match=type(other).__name__):
                metric(*args)


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


# -- edge sets against adjacency matrices ---------------------------------------------


def _matrix_metrics(g1, g2) -> tuple:
    """shd, skeleton and directed confusion counts from the graphs'
    adjacency matrices: the oracle of the edge-set metrics."""
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


# floors: the edge-set metrics against the adjacency-matrix oracle, whose
# boolean indexing and counts run on the numpy build under test
@pytest.mark.floors
@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(1, 30),
    seed=st.integers(0, 2**32 - 1),
    targets=st.lists(st.sets(st.integers(1, 30), min_size=1, max_size=4), max_size=3),
)
def test_edge_set_metrics_give_the_counts_of_adjacency_matrices(p, seed, targets):
    """Two random DAGs and their essential graphs, observational and under up
    to three targets of up to four vertices each, compared in every ordered
    pair, twice: every count equals the one from the adjacency matrices,
    and the second comparison gives the first's.  ``adjacency`` returns a
    fresh, writable matrix, which the metrics do not read."""
    in_range = [t for t in ({v for v in t if v <= p} for t in targets) if t]
    family = TargetFamily.of((), *in_range)
    dags = [sample_random_dag(p, min(1.8, p - 1), seed + i) for i in range(2)]
    graphs = [*dags, *(essential_graph(dag, family) for dag in dags)]
    for _ in range(2):
        for g1, g2 in itertools.product(graphs, repeat=2):
            assert _metrics(g1, g2) == _matrix_metrics(g1, g2)
    for g in graphs:
        A = adjacency(g)
        assert A.flags.writeable and not np.shares_memory(A, adjacency(g))
        A[:] = True
        assert shd(g, g) == 0
