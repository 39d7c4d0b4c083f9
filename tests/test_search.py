"""Greedy forward/backward/turning search and the exact DP baseline.

Core claims:
    - On pure-noise data the penalized score keeps the empty graph.
    - A strong single-edge signal with an intervention at the source is
      oriented correctly in nearly every replicate.
    - Greedy halts at a certified local optimum: no single insert, delete,
      or reverse improves the score it returns.
    - The DP result equals the brute-force best DAG exactly (same float),
      and never scores below greedy.
    - The vectorized DP returns the parent sets of the mask-by-mask oracle
      in helpers, score ties and singular blocks included.
    - Greedy, the DP and the refit run no SVD on mixtures proven well
      conditioned, and a whole fit proves each vertex's mixture once; with
      a duplicated column no mixture is proven, and greedy's DAG and trace
      and the DP's parent sets equal their oracles'.  A lone local score or
      row of insertion scores proves only its own vertex's mixture.
    - Both searchers respect max_parents; the DP refuses p > 20.
    - Score equivalence: every member of the estimate's class gets the
      same BIC up to float noise.
    - Greedy traces and DP results on fixed seeds are pinned to the bit, so
      any drift in the scores' arithmetic fails here.
    - Greedy's per-vertex score tables return the same DAG and trace as a
      full rescan of every move on every step, also on runs with deletions
      and reversals, each of which rebuilds its descendant bitsets, and on
      dense inputs where both moves happen at heads with max_parents
      parents; two kernel calls open every vertex's table, a table is
      rescored only when its vertex's parents changed, and greedy makes no
      score-cache lookup and no ``local_score`` call: the kernel calls and
      fits of one seeded run are pinned.
    - Both searchers reject vertices that every observed target contains,
      and vertices with no positive finite second moment, with one message
      each.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interdag.likelihood
import interdag.search

from interdag import (
    CapacityError,
    Dag,
    Dataset,
    DegenerateFitError,
    GaussianCausalModel,
    InterventionSpec,
    InterventionTarget,
    LocalScoreCache,
    ParameterError,
    SearchConfig,
    TargetFamily,
    bic_score,
    enumerate_class,
    estimate_essential_graph,
    exhaustive_dp,
    fit_structure,
    format_trace,
    greedy_search,
    local_score,
    local_stats,
    mle_given_dag,
    run_fit,
    sample_dataset,
    score_insertions,
    sufficient_stats,
)

from helpers import all_dags, random_instance, reference_exhaustive_dp, reference_greedy_search


def _local(dataset, family=None):
    return local_stats(sufficient_stats(dataset), family=family)


def _noise_dataset(p, n, seed):
    model = GaussianCausalModel(Dag.empty(p), np.zeros((p, p)), np.ones(p))
    family = TargetFamily.of(())
    return sample_dataset(model, [InterventionTarget.empty()] * n, seed=seed)


def _edge_signal_dataset(seed, mu=10.0, n_obs=100, n_int=1):
    """Unit-weight edge 1 -> 2 with an intervention at the source."""
    dag = Dag.from_edges(2, [(1, 2)])
    w = np.zeros((2, 2))
    w[1, 0] = 1.0
    model = GaussianCausalModel(dag, w, np.ones(2))
    t1 = InterventionTarget.of(1)
    spec = InterventionSpec.constant([t1], mu, 0.2 ** 2)
    seq = [InterventionTarget.empty()] * n_obs + [t1] * n_int
    data = sample_dataset(model, seq, spec, seed=seed)
    return data, TargetFamily.of((), (1,))


# -- greedy ------------------------------------------------------------------------


def test_greedy_on_noise_returns_empty_dag():
    data = _noise_dataset(5, 10_000, 501)
    dag, trace = greedy_search(_local(data))
    assert dag == Dag.empty(5)
    assert len(trace) == 0
    assert trace.final_score == trace.start_score


def test_greedy_orients_intervened_edge():
    hits = 0
    for rep in range(200):
        data, family = _edge_signal_dataset(7000 + rep)
        dag, _ = greedy_search(_local(data, family))
        if dag.edges == ((1, 2),):
            hits += 1
    assert hits >= 190


def test_trace_is_strictly_improving_and_formats():
    model, family, spec, data = random_instance(77, p=6, n=4000)
    local = _local(data, family)
    dag, trace = greedy_search(local)
    score = trace.start_score
    for step in trace.steps:
        assert step.score_after > step.score_before + 1e-9
        assert step.score_before == pytest.approx(score, abs=1e-12)
        score = step.score_after
        assert step.kind in ("insert", "delete", "reverse")
    assert trace.final_score == pytest.approx(bic_score(dag, local), rel=1e-12)
    text = format_trace(trace)
    assert text.startswith("start ")
    assert len(text.strip().splitlines()) == 1 + len(trace)


def test_greedy_result_is_local_optimum():
    for seed in (31, 32, 33):
        model, family, spec, data = random_instance(seed, p=6, n=2000)
        local = _local(data, family)
        dag, _ = greedy_search(local)
        base = bic_score(dag, local)
        edges = set(dag.edges)
        # every single-edge modification must fail to improve
        neighbors = []
        for t in range(1, 7):
            for h in range(1, 7):
                if t == h:
                    continue
                if (t, h) in edges:
                    neighbors.append(edges - {(t, h)})
                    neighbors.append((edges - {(t, h)}) | {(h, t)})
                elif (h, t) not in edges:
                    neighbors.append(edges | {(t, h)})
        for cand in neighbors:
            try:
                alt = Dag.from_edges(6, sorted(cand))
            except ParameterError:
                continue
            if max(len(alt.parents(k)) for k in range(1, 7)) > 5:
                continue
            assert bic_score(alt, local) <= base + 1e-9


def test_greedy_deterministic():
    model, family, spec, data = random_instance(99, p=7, n=1500)
    local = _local(data, family)
    first = greedy_search(local)
    second = greedy_search(local)
    assert first[0] == second[0]
    assert format_trace(first[1]) == format_trace(second[1])


def test_greedy_rejects_non_conservative_family():
    # the fit pipeline holds the one conservative check: greedy_search takes
    # no family
    data = _noise_dataset(2, 50, 5)
    with pytest.raises(ParameterError):
        fit_structure(data, TargetFamily.of((1, 2)), "greedy")


def test_greedy_degenerate_without_identifying_rows():
    # every row intervenes on vertex 1, so vertex 1 is never identified
    t1 = InterventionTarget.of(1)
    rng = np.random.default_rng(9)
    data = Dataset(2, (t1,) * 4, rng.normal(size=(4, 2)))
    family = TargetFamily.of((1,), (2,))
    with pytest.raises(DegenerateFitError):
        greedy_search(_local(data, family))


def test_greedy_degenerate_on_zero_variance_column():
    rows = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    data = Dataset(2, (InterventionTarget.empty(),) * 3, rows)
    with pytest.raises(DegenerateFitError):
        greedy_search(_local(data))


# Greedy's covered-edge reversal gains sit at the 1e-9 threshold, so a change
# in the last bit of a score can change its path.  The digests were recorded
# with the one-set-at-a-time arithmetic of helpers.reference_fit_row, on
# numpy 2.4 and scipy 1.17 wheels (x86-64 OpenBLAS); another BLAS build may
# round differently.
@pytest.mark.parametrize(
    "seed, p, n, digest",
    [
        (5, 10, 1000, "c11df5cc69b99bf027ab3d93499338eb00e8a078484ce4191c7c1a87f87f55ef"),
        (6, 10, 300, "aad46a416a0bc3512c78eea690e3ac219771ecebff4730b2c518ff39e48b70bc"),
        (8, 40, 500, "0885084f84a0a7f98d1501cff9a21c827fe998c4d9ec8767e347471e17997653"),
        (12, 40, 5000, "ee308626cfead1ce96574ca2616c60234ef292f5a7875972301014a3055bd370"),
        # inserts, deletes and reversals; recorded before the insertion table
        (4, 100, 1000, "46d2cd604d29ebda18d5a98c26684af10e400d8860f53e82b8d5db56acd62ac0"),
    ],
)
def test_greedy_trace_pinned(seed, p, n, digest):
    model, family, spec, data = random_instance(seed, p=p, n=n)
    _, trace = greedy_search(_local(data, family))
    assert hashlib.sha256(format_trace(trace).encode()).hexdigest() == digest


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 12),
    n=st.integers(40, 3000),
    max_parents=st.sampled_from([None, 1, 2, 3]),
)
def test_greedy_matches_full_rescan_oracle(seed, p, n, max_parents):
    model, family, spec, data = random_instance(seed, p=p, n=n)
    local = _local(data, family)
    config = SearchConfig(max_parents=max_parents)
    dag, trace = greedy_search(local, config)
    ref_dag, ref_trace = reference_greedy_search(local, config)
    assert dag == ref_dag
    assert format_trace(trace) == format_trace(ref_trace)


def test_greedy_after_deletes_and_reversals_matches_full_rescan_oracle():
    """Every move after a deletion or a reversal tests acyclicity against
    descendant bitsets rebuilt at once: this run reverses twice in a row,
    then inserts, deletes and inserts again, and it matches the oracle
    only when both moves rebuild."""
    model, family, spec, data = random_instance(12, p=30, n=300, expected_degree=2.5)
    local = _local(data, family)
    dag, trace = greedy_search(local)
    ref_dag, ref_trace = reference_greedy_search(local)
    kinds = [step.kind for step in trace.steps]
    assert "delete" in kinds and "reverse" in kinds
    assert dag == ref_dag
    assert format_trace(trace) == format_trace(ref_trace)


def _edge_moves_by_head_degree(trace, p, cap):
    """The kinds of the deletions and reversals in ``trace``, each paired
    with whether its head had ``cap`` parents just before the move."""
    parents: list[set[int]] = [set() for _ in range(p)]
    moves = set()
    for step in trace.steps:
        tail, head = step.edge
        if step.kind == "insert":
            parents[head - 1].add(tail)
            continue
        moves.add((step.kind, len(parents[head - 1]) == cap))
        parents[head - 1].remove(tail)
        if step.kind == "reverse":
            parents[tail - 1].add(head)
    return moves


@pytest.mark.parametrize("max_parents", [None, 2, 3])
def test_greedy_on_dense_inputs_matches_full_rescan_oracle(max_parents):
    """Denser graphs than the hypothesis oracle draws, so that deletions and
    reversals happen, and with a cap, at heads that have max_parents
    parents, whose tables hold removals only.  Every table entry they read
    must give the oracle's trace to the bit."""
    config = SearchConfig(max_parents=max_parents)
    moves = set()
    for seed in (7, 12, 25, 99):
        model, family, spec, data = random_instance(seed, p=30, n=300, expected_degree=2.5)
        local = _local(data, family)
        dag, trace = greedy_search(local, config)
        ref_dag, ref_trace = reference_greedy_search(local, config)
        assert dag == ref_dag
        assert format_trace(trace) == format_trace(ref_trace)
        moves |= _edge_moves_by_head_degree(trace, local.p, config.resolved_max_parents(local.p))
    kinds = {kind for kind, _ in moves}
    assert kinds == {"delete", "reverse"}
    if max_parents is not None:
        assert {("delete", True), ("reverse", True)} <= moves


def test_greedy_work_counters_pinned(monkeypatch):
    """Kernel calls and parent sets fitted in one seeded p=40 run.

    A full rescan of every insertion on every step, as the oracle does,
    fits 3,486 sets for this run.  The per-vertex tables fit a few more,
    because a table scores every toggle of its vertex's parents when the
    vertex is first read after its parents change, including tails that
    would close a cycle at the time and removals that no deletion or
    reversal then applies.  The search opens with two calls, one for every
    vertex's empty set and one for all p(p - 1) single-parent sets; each
    later refresh is at most two, one for the additions and one for the
    removals.  Every score greedy reads comes from those calls: it makes
    no score-cache lookup and no ``local_score`` call.  The counts wrap
    ``_scores`` both where ``likelihood`` calls it and where ``search``
    does.
    """
    calls = fitted = lookups = lone = 0
    scores, lookup, score = interdag.likelihood._scores, LocalScoreCache.score, interdag.likelihood.local_score

    def counting_scores(k, parent_sets, *args):
        nonlocal calls, fitted
        calls += 1
        fitted += len(parent_sets)
        return scores(k, parent_sets, *args)

    def counting_lookup(self, *args):
        nonlocal lookups
        lookups += 1
        return lookup(self, *args)

    def counting_local_score(*args, **kwargs):
        nonlocal lone
        lone += 1
        return score(*args, **kwargs)

    model, family, spec, data = random_instance(8, p=40, n=500)
    local = _local(data, family)
    monkeypatch.setattr(interdag.likelihood, "_scores", counting_scores)
    monkeypatch.setattr(interdag.search, "_scores", counting_scores)
    monkeypatch.setattr(LocalScoreCache, "score", counting_lookup)
    monkeypatch.setattr(interdag.likelihood, "local_score", counting_local_score)
    greedy_search(local)
    assert (lookups, lone) == (0, 0)
    assert (calls, fitted) == (107, 3667)


def test_searchers_share_the_degeneracy_error():
    rng = np.random.default_rng(4)
    # every row targets vertex 1, which the family allows
    unidentified = Dataset(3, (InterventionTarget.of(1),) * 20, rng.normal(size=(20, 3)))
    # observational rows whose third column is all zeros
    values = rng.normal(size=(20, 4))
    values[:, 2] = 0.0
    zero_column = Dataset(4, (InterventionTarget.empty(),) * 20, values)
    cases = [
        (unidentified, TargetFamily.of((), (1,)), "vertices (1,) appear in every observed target"),
        (zero_column, TargetFamily.of(()), "vertices [3] have no usable marginal variance"),
    ]
    for data, family, message in cases:
        local = _local(data, family)
        for search in (lambda: greedy_search(local), lambda: exhaustive_dp(local)):
            with pytest.raises(DegenerateFitError) as err:
                search()
            assert str(err.value) == message


# -- exact DP ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "seed, n, parent_sets",
    [
        (9, 400, ((8,), (4, 6), (1,), (8,), (), (4,), (6,), (5,))),
        (10, 2000, ((), (), (), (), (4,), (1, 3), (3, 6), (3, 4))),
    ],
)
def test_dp_result_pinned(seed, n, parent_sets):
    model, family, spec, data = random_instance(seed, p=8, n=n)
    assert exhaustive_dp(_local(data, family)).parent_sets == parent_sets



@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 9),
    n=st.integers(15, 600),
    max_parents=st.sampled_from([None, 0, 1, 2, 3]),
    penalty_weight=st.sampled_from([None, 0.0]),
    duplicates=st.integers(0, 2),
)
def test_dp_matches_reference_oracle(seed, p, n, max_parents, penalty_weight, duplicates):
    """The vectorized DP against the mask-by-mask oracle, ties included.

    Copying one column onto another makes sets that differ only by those two
    vertices score exactly alike, and makes every parent block holding both
    exactly singular.
    """
    model, family, spec, data = random_instance(seed, p=p, n=n)
    values = np.array(data.values)
    rng = np.random.default_rng(seed)
    for _ in range(duplicates):
        src, dst = rng.choice(p, size=2, replace=False)
        values[:, dst] = values[:, src]
    local = _local(Dataset(p, data.targets, values), family)
    config = SearchConfig(max_parents=max_parents, penalty_weight=penalty_weight)
    assert exhaustive_dp(local, config).parent_sets == reference_exhaustive_dp(local, config).parent_sets


def test_scorers_run_the_conditioning_test_only_on_unproven_mixtures(monkeypatch):
    calls = {"cond": 0, "proof": 0}

    def counting(name, original):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(np.linalg, "cond", counting("cond", np.linalg.cond))
    monkeypatch.setattr(
        interdag.likelihood, "_proven_well_conditioned",
        counting("proof", interdag.likelihood._proven_well_conditioned),
    )
    model, family, spec, data = random_instance(12, p=8, n=400)
    local = _local(data, family)
    # every mixture is proven, once per vertex, so no scorer runs an SVD
    dag, _ = greedy_search(local)
    exhaustive_dp(local)
    mle_given_dag(dag, local)
    assert all(local.proven(k) for k in range(1, 9))
    assert calls == {"cond": 0, "proof": 8}
    # a whole fit, from the data on, proves each vertex exactly once
    for method in ("greedy", "dp"):
        calls.update(cond=0, proof=0)
        run_fit(data, family, method=method)
        assert calls == {"cond": 0, "proof": 8}, method
    # column 3 copied onto column 4: no mixture is proven, so every stack
    # with parents gets the SVD, and both searchers return their oracle's
    # result
    values = np.array(data.values)
    values[:, 3] = values[:, 2]
    local = _local(Dataset(8, data.targets, values), family)
    calls["cond"] = 0
    dag, trace = greedy_search(local)
    assert not any(local.proven(k) for k in range(1, 9)) and calls["cond"] > 0
    ref_dag, ref_trace = reference_greedy_search(local)
    assert dag == ref_dag
    assert format_trace(trace) == format_trace(ref_trace)
    assert exhaustive_dp(local).parent_sets == reference_exhaustive_dp(local).parent_sets


def test_a_lone_local_score_proves_only_its_own_vertex(monkeypatch):
    calls = []
    proof = interdag.likelihood._proven_well_conditioned

    def counting(S):
        calls.append(S)
        return proof(S)

    monkeypatch.setattr(interdag.likelihood, "_proven_well_conditioned", counting)
    model, family, spec, data = random_instance(5, p=20, n=400)
    local = _local(data, family)
    local_score(7, (2, 3), local)
    assert len(calls) == 1 and np.shares_memory(calls[0], local.mixture(7))
    # the flag is remembered: the vertex is not proven again, by any scorer
    local_score(7, (4,), local)
    score_insertions(7, (), (1, 2, 3), local)
    assert len(calls) == 1
    LocalScoreCache(local).score(9, (1,))
    assert len(calls) == 2 and np.shares_memory(calls[1], local.mixture(9))


def test_dp_matches_brute_force_small():
    for p, seeds in ((3, range(10)), (4, range(10))):
        dags = all_dags(p)
        for s in seeds:
            model, family, spec, data = random_instance(9000 + 31 * p + s, p=p, n=80)
            local = _local(data, family)
            cache = LocalScoreCache(local)
            best = max(cache.dag_score(d) for d in dags)
            dp = exhaustive_dp(local)
            assert cache.dag_score(dp) == best  # exact float match


def test_dp_never_below_greedy():
    for s in range(8):
        model, family, spec, data = random_instance(400 + s, p=5, n=300)
        local = _local(data, family)
        g, _ = greedy_search(local)
        d = exhaustive_dp(local)
        assert bic_score(d, local) >= bic_score(g, local) - 1e-9


def test_dp_capacity_guard():
    data = _noise_dataset(21, 30, 13)
    with pytest.raises(CapacityError):
        exhaustive_dp(_local(data))


def test_max_parents_is_honored():
    model, family, spec, data = random_instance(55, p=6, n=5000, expected_degree=3.5)
    local = _local(data, family)
    cfg = SearchConfig(max_parents=1)
    g, _ = greedy_search(local, cfg)
    d = exhaustive_dp(local, cfg)
    for dag in (g, d):
        assert max(len(dag.parents(k)) for k in range(1, 7)) <= 1


# -- end-to-end estimation ----------------------------------------------------------


def test_estimate_essential_graph_orients_example_edge():
    data, family = _edge_signal_dataset(123)
    graph = estimate_essential_graph(data, family)
    assert graph.directed == frozenset({(1, 2)})
    assert graph.undirected == frozenset()


def test_estimate_essential_graph_on_noise_is_empty():
    data = _noise_dataset(4, 8000, 77)
    graph = estimate_essential_graph(data, TargetFamily.of(()))
    assert graph.num_edges == 0


def test_estimate_dp_branch():
    data, family = _edge_signal_dataset(321)
    graph = estimate_essential_graph(data, family, method="dp")
    assert graph.directed == frozenset({(1, 2)})


def test_estimate_rejects_unknown_method():
    data = _noise_dataset(3, 50, 3)
    with pytest.raises(ParameterError):
        estimate_essential_graph(data, TargetFamily.of(()), method="anneal")


def test_score_equivalence_across_estimated_class():
    for s in range(6):
        model, family, spec, data = random_instance(600 + s, p=5, n=500)
        local = _local(data, family)
        dag, _ = greedy_search(local)
        base = bic_score(dag, local)
        for member in enumerate_class(dag, family):
            assert bic_score(member, local) == pytest.approx(base, rel=1e-9)
