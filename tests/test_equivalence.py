"""Skeletons, v-structures, interventional equivalence, and essential graphs.

Core claims:
    - skeleton/v_structures implement their definitions on hand graphs.
    - TargetFamily builds exactly the families that leave every vertex
      uncovered somewhere, agreeing with that vertex-by-vertex definition
      on random families, and rejects the rest with a ParameterError.
    - The three demo DAGs behave exactly as documented: all equivalent
      observationally, the third distinguishable once vertex 4 is a target.
    - enumerate_class agrees with a brute-force filter over all acyclic
      skeleton orientations, and shrinks (weakly) as targets are added.
    - essential_graph, built directly from v-structures, cut edges and
      Meek's rules, equals the intersection of the class that the old
      backtracking enumerator (helpers.reference_enumerate_class) lists:
      on every DAG with p <= 4 under fixed families, and on random DAGs and
      families with p <= 8, where enumerate_class also returns that list.
    - essential_graph has no capacity guard: a 22-vertex chain and a
      complete DAG on 7 vertices get 21 undirected edges each, and a
      one-member class with a long chain is listed as itself.
    - enumerate_class's capacity guard trips on a chain component with
      more than 20 undirected edges, and its member guard on 18 one-edge
      components (2**18 members).
    - A non-canonical skeleton pair and DAGs of different vertex counts
      raise ParameterError with their messages.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdag import (
    CapacityError,
    Dag,
    EssentialGraph,
    InterventionTarget,
    ParameterError,
    TargetFamily,
    enumerate_class,
    essential_graph,
    format_essential_graph,
    intervention_dag,
    markov_equivalent_interventional,
    parse_essential_graph,
    same_essential_graph,
    sample_random_dag,
    skeleton,
    v_structures,
)
from interdag.equivalence import Skeleton, VStructure, _pair

from helpers import all_dags, demo_trio, random_conservative_family, reference_enumerate_class


def _orientations_of_skeleton(dag: Dag):
    """Every acyclic orientation of dag's skeleton, oracle-style."""
    pairs = sorted(skeleton(dag).edges)
    for choice in itertools.product((0, 1), repeat=len(pairs)):
        edges = [(a, b) if c == 0 else (b, a) for (a, b), c in zip(pairs, choice)]
        try:
            yield Dag.from_edges(dag.p, edges)
        except ParameterError:
            continue  # cyclic orientation


OBS = TargetFamily.of(())
OBS_AND_4 = TargetFamily.of((), (4,))


# -- skeleton and v-structures ---------------------------------------------------


def test_skeleton_basics():
    assert skeleton(Dag.from_edges(2, [(1, 2)])).edges == frozenset({(1, 2)})
    assert skeleton(Dag.empty(4)).edges == frozenset()
    d, d1, d2 = demo_trio()
    assert skeleton(d) == skeleton(d1) == skeleton(d2)
    assert len(skeleton(d).edges) == 10


def test_v_structures_definition():
    collider = Dag.from_edges(3, [(1, 3), (2, 3)])
    assert v_structures(collider) == frozenset({VStructure(1, 3, 2)})
    triangle = Dag.from_edges(3, [(1, 2), (1, 3), (2, 3)])
    assert v_structures(triangle) == frozenset()
    d, d1, d2 = demo_trio()
    for g in (d, d1, d2):
        assert v_structures(g) == frozenset({VStructure(3, 6, 5)})


def test_v_structure_canonical_order():
    assert VStructure(5, 6, 3) == VStructure(3, 6, 5)
    with pytest.raises(ParameterError):
        VStructure(1, 1, 2)


# -- conservativity ----------------------------------------------------------------


def test_conservative_cases():
    TargetFamily.of(())
    TargetFamily.of((1,), (2,))
    with pytest.raises(ParameterError, match=r"vertices \[1, 2, 3\] lie in every target"):
        TargetFamily.of((1, 2, 3))
    with pytest.raises(ParameterError, match=r"vertices \[1\] lie in every target"):
        TargetFamily.of((1,), (1, 2))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), p=st.integers(1, 6), with_empty=st.booleans())
def test_conservative_matches_the_vertexwise_definition(data, p, with_empty):
    # a family builds exactly when every vertex lies outside some target
    targets = data.draw(
        st.lists(st.lists(st.integers(1, p), max_size=p, unique=True), min_size=1, max_size=6)
    )
    targets += [[]] if with_empty else []
    if all(any(j not in t for t in targets) for j in range(1, p + 1)):
        family = TargetFamily.of(*targets)
        assert sorted(t.members for t in family) == sorted({tuple(sorted(t)) for t in targets})
    else:
        with pytest.raises(ParameterError, match="not conservative"):
            TargetFamily.of(*targets)
    # (p + 1,) shares no vertex with the other targets, so the family
    # builds, but its consumers find it out of range for p vertices
    with pytest.raises(ParameterError, match="out of range"):
        TargetFamily.of(*targets, (p + 1,)).validate_for(p)


def test_non_conservative_family_rejected():
    # no family that a consumer could be given is non-conservative; the
    # consumers check only the range
    with pytest.raises(ParameterError, match="not conservative"):
        TargetFamily.of((1, 2))
    d = Dag.from_edges(2, [(1, 2)])
    with pytest.raises(ParameterError, match="out of range"):
        markov_equivalent_interventional(d, d, TargetFamily.of((), (3,)))
    with pytest.raises(ParameterError, match="out of range"):
        enumerate_class(d, TargetFamily.of((), (3,)))


# -- pairwise equivalence -----------------------------------------------------------


def test_demo_trio_equivalence():
    d, d1, d2 = demo_trio()
    # observational data alone cannot tell the three apart
    for x, y in itertools.combinations((d, d1, d2), 2):
        assert markov_equivalent_interventional(x, y, OBS)
    # intervening at 4 separates d2 but not d1
    assert markov_equivalent_interventional(d, d1, OBS_AND_4)
    assert not markov_equivalent_interventional(d, d2, OBS_AND_4)
    assert markov_equivalent_interventional(d, d, OBS_AND_4)


def test_observational_criterion_is_skeleton_plus_colliders():
    # second implementation path for the {empty} family
    for seed in range(40):
        a = sample_random_dag(6, 2.0, 2 * seed)
        b = sample_random_dag(6, 2.0, 2 * seed + 1)
        direct = skeleton(a) == skeleton(b) and v_structures(a) == v_structures(b)
        assert markov_equivalent_interventional(a, b, OBS) == direct


def test_equivalence_is_symmetric_and_transitive_within_classes():
    for seed in range(12):
        dag = sample_random_dag(5, 1.8, 1000 + seed)
        family = TargetFamily.of((), (1 + seed % 5,))
        members = enumerate_class(dag, family)
        assert dag in members
        for x, y in itertools.combinations(members, 2):
            assert markov_equivalent_interventional(x, y, family)
            assert markov_equivalent_interventional(y, x, family)


def test_enumerate_class_matches_brute_force():
    for seed in range(15):
        dag = sample_random_dag(5, 1.6, 2000 + seed)
        family = TargetFamily.of((), (1 + seed % 5,), (1 + (seed + 2) % 5,))
        expected = [
            d for d in _orientations_of_skeleton(dag)
            if markov_equivalent_interventional(dag, d, family)
        ]
        got = enumerate_class(dag, family)
        assert sorted(d.edges for d in got) == sorted(d.edges for d in expected)


def test_single_edge_classes():
    e = Dag.from_edges(2, [(1, 2)])
    both = enumerate_class(e, OBS)
    assert sorted(d.edges for d in both) == [((1, 2),), ((2, 1),)]
    only = enumerate_class(e, TargetFamily.of((), (1,)))
    assert [d.edges for d in only] == [((1, 2),)]


def test_demo_trio_class_membership():
    d, d1, d2 = demo_trio()
    members = enumerate_class(d, OBS_AND_4)
    edge_sets = {m.edges for m in members}
    assert d.edges in edge_sets
    assert d1.edges in edge_sets
    assert d2.edges not in edge_sets


def test_class_size_shrinks_as_targets_are_added():
    for seed in range(100):
        dag = sample_random_dag(6, 1.8, 3000 + seed)
        base = enumerate_class(dag, OBS)
        richer = enumerate_class(dag, TargetFamily.of((), (1 + seed % 6,)))
        assert len(richer) <= len(base)
        # and the richer class is a subset of the base class
        base_edges = {m.edges for m in base}
        assert all(m.edges in base_edges for m in richer)


def test_enumeration_guard_trips_on_long_undecided_chain():
    path = Dag.from_edges(22, [(i, i + 1) for i in range(1, 22)])
    with pytest.raises(CapacityError):
        enumerate_class(path, TargetFamily.of(()))


def test_collider_then_long_chain_is_a_one_member_class():
    # the collider orients the whole 21-edge chain, so nothing is left to list
    dag = Dag.from_edges(24, [(1, 3), (2, 3)] + [(i, i + 1) for i in range(3, 24)])
    assert enumerate_class(dag, OBS) == [dag]
    g = essential_graph(dag, OBS)
    assert g.undirected == frozenset()
    assert g.directed == frozenset(dag.edges)


# -- essential graphs -----------------------------------------------------------------


def test_essential_graph_single_edge():
    e = Dag.from_edges(2, [(1, 2)])
    g = essential_graph(e, OBS)
    assert g.directed == frozenset() and g.undirected == frozenset({(1, 2)})
    g2 = essential_graph(e, TargetFamily.of((), (1,)))
    assert g2.directed == frozenset({(1, 2)}) and g2.undirected == frozenset()


def test_essential_graph_collider_edges_directed():
    collider = Dag.from_edges(3, [(1, 3), (2, 3)])
    g = essential_graph(collider, OBS)
    assert g.directed == frozenset({(1, 3), (2, 3)})
    assert g.undirected == frozenset()


def test_essential_graph_demo_trio():
    d, d1, d2 = demo_trio()
    g = essential_graph(d, OBS_AND_4)
    # edges touching the intervened vertex are identified, as are the
    # collider's edges
    assert {(3, 4), (4, 7), (3, 6), (5, 6)} <= set(g.directed)
    assert {tuple(sorted(e)) for e in g.directed} | g.undirected == skeleton(d).edges
    assert same_essential_graph(d, d1, OBS_AND_4)
    assert not same_essential_graph(d, d2, OBS_AND_4)
    assert same_essential_graph(d2, d2, OBS_AND_4)


def test_essential_graph_directs_all_cut_graph_collider_edges():
    for seed in range(12):
        dag = sample_random_dag(5, 2.0, 4000 + seed)
        family = TargetFamily.of((), (1 + seed % 5,))
        g = essential_graph(dag, family)
        for member in enumerate_class(dag, family):
            for target in family:
                cut = intervention_dag(member, target)
                for vs in v_structures(cut):
                    assert (vs.a, vs.b) in g.directed
                    assert (vs.c, vs.b) in g.directed


def test_essential_graph_of_large_observational_classes():
    chain = Dag.from_edges(22, [(i, i + 1) for i in range(1, 22)])
    complete = Dag.from_edges(7, list(itertools.combinations(range(1, 8), 2)))
    for dag in (chain, complete):
        g = essential_graph(dag, OBS)
        assert g.directed == frozenset()
        assert g.undirected == skeleton(dag).edges
        assert len(g.undirected) == 21


def _class_intersection(dag: Dag, members: list[Dag]) -> EssentialGraph:
    """The edges every member orients alike are directed, the rest undirected."""
    directed, undirected = set(), set()
    for a, b in skeleton(dag).edges:
        forward = sum(1 for m in members if m.has_edge(a, b))
        if forward == len(members):
            directed.add((a, b))
        elif forward == 0:
            directed.add((b, a))
        else:
            undirected.add((a, b))
    return EssentialGraph(dag.p, frozenset(directed), frozenset(undirected))


SMALL_FAMILIES = [
    ((),),
    ((), (1,)),
    ((), (4,)),
    ((), (2, 3)),
    ((1,), (2, 4)),
    ((), (1,), (3,)),
    ((1, 2), (3, 4)),
]


@pytest.mark.parametrize("p", [1, 2, 3, 4])
def test_essential_graph_matches_reference_on_every_small_dag(p):
    families = [
        TargetFamily.of(*f)
        for f in SMALL_FAMILIES
        if all(v <= p for t in f for v in t)
    ]
    for dag in all_dags(p):
        for family in families:
            members = reference_enumerate_class(dag, family)
            assert essential_graph(dag, family) == _class_intersection(dag, members)
            assert [m.edges for m in enumerate_class(dag, family)] == [m.edges for m in members]


@settings(max_examples=150, deadline=None)
@given(
    p=st.integers(2, 8),
    degree=st.floats(0.5, 4.0),
    seed=st.integers(0, 2**32 - 1),
    observational=st.booleans(),
)
def test_essential_graph_and_class_match_reference(p, degree, seed, observational):
    dag = sample_random_dag(p, min(degree, p - 0.5), seed)
    rng = np.random.default_rng(seed)
    family = OBS if observational else random_conservative_family(rng, p)
    try:
        members = reference_enumerate_class(dag, family)
    except CapacityError:
        return
    assert essential_graph(dag, family) == _class_intersection(dag, members)
    assert [m.edges for m in enumerate_class(dag, family)] == [m.edges for m in members]


def test_essential_graph_validation():
    with pytest.raises(ParameterError):
        EssentialGraph(3, frozenset({(1, 2), (2, 1)}), frozenset())
    with pytest.raises(ParameterError):
        EssentialGraph(3, frozenset({(1, 2)}), frozenset({(1, 2)}))
    with pytest.raises(ParameterError):
        EssentialGraph(3, frozenset(), frozenset({(2, 1)}))  # not canonical
    with pytest.raises(ParameterError):
        EssentialGraph(3, frozenset({(1, 1)}), frozenset())


def test_essential_graph_serialization_round_trip():
    d, _, _ = demo_trio()
    g = essential_graph(d, OBS_AND_4)
    text = format_essential_graph(g)
    lines = text.strip().splitlines()
    assert lines == sorted(lines, key=lambda s: tuple(int(t) for t in s.replace("->", " ").replace("--", " ").split()))
    assert parse_essential_graph(text, 7) == g
    assert format_essential_graph(EssentialGraph(3, frozenset(), frozenset())) == ""
    with pytest.raises(ParameterError, match="line 1"):
        parse_essential_graph("1 ~ 2\n", 3)
    # an end that is not a vertex label, or a line with more than one edge
    for bad, lineno in (("x -> 2\n", 1), ("1 -> 2 -> 3", 1), ("1 -- ", 1), ("1 -- 2\n3 --> 1\n", 2)):
        with pytest.raises(ParameterError, match=f"line {lineno}: cannot parse edge"):
            parse_essential_graph(bad, 3)


def test_pair_helper():
    assert _pair(3, 1) == (1, 3)
    assert _pair(1, 3) == (1, 3)


# -- errors -----------------------------------------------------------------------------

_OBSERVATIONAL = TargetFamily.of(())
# 18 disjoint edges, each its own one-edge chain component with two
# orientations: 2**18 = 262,144 members, above the guard of 200,000
_MATCHING = Dag.from_edges(36, [(2 * i + 1, 2 * i + 2) for i in range(18)])


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: Skeleton(3, frozenset({(2, 1)})), ParameterError, "skeleton pair (2, 1) is not canonical for p=3"),
        (lambda: markov_equivalent_interventional(Dag.empty(2), Dag.empty(3), _OBSERVATIONAL), ParameterError,
         "cannot compare DAGs with different vertex counts"),
        (lambda: same_essential_graph(Dag.empty(2), Dag.empty(3), _OBSERVATIONAL), ParameterError,
         "cannot compare DAGs with different vertex counts"),
        (lambda: enumerate_class(_MATCHING, _OBSERVATIONAL), CapacityError,
         "equivalence class exceeds the member guard"),
    ],
    ids=["skeleton-pair", "markov-p", "same-essential-p", "member-guard"],
)
def test_equivalence_errors_name_their_cause(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message
