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
    - The DP scores the vertices of one exclusion pattern together and
      still returns the oracle's parent sets, on patterns that are not
      proven and on patterns with no more excluding rows than parents; its
      kernel calls, fitted sets, dposv calls and proofs on one seeded p=12
      input are pinned, on one core.
    - On two cores the DP shares its kernel calls with one forked child:
      the calls made here and the child's, by the assignment rule, make up
      the pinned calls and sets, none made twice; its score table has the
      bits of one process's and its parent sets the oracle's; a child
      that exits early, is killed mid-stream or sends a frame of the wrong
      size leaves its calls to this process, with the same table and DAG,
      and no child is left after any call.
    - Greedy, the DP and the refit run no SVD on mixtures proven well
      conditioned, and a whole fit proves each pattern's mixture once; with
      a duplicated column no mixture is proven, and greedy's DAG and trace
      and the DP's parent sets equal their oracles'.  local_stats proves
      each pattern's mixture once, into read-only flags, and no scorer
      proves one again.
    - Both searchers respect max_parents; the DP refuses p > 20.
      SearchConfig refuses a max_parents or max_steps that is not an
      integer, a bool included, and stores a numpy integer as an int.
    - Score equivalence: every member of the estimate's class gets the
      same BIC up to float noise.
    - Greedy traces and DP results on fixed seeds are pinned to the bit, so
      any drift in the scores' arithmetic fails here; so is every score of
      the DP's table on a p=12 input with three targets and on a p=10
      observational one.
    - Greedy's per-vertex score tables return the same DAG and trace as a
      full rescan of every move on every step, also on runs with deletions
      and reversals, each of which rebuilds its descendant bitsets, and on
      dense inputs where both moves happen at heads with max_parents
      parents; two kernel calls open every vertex's table, a table is
      rescored only when its vertex's parents changed, and greedy makes no
      score-cache lookup and no ``local_score`` call: the kernel calls and
      fits of one seeded run are pinned.  Every score of a table, the
      removals a refresh reuses instead of fitting included, has the bits
      of its set fitted alone.
    - Both searchers reject vertices that every observed target contains,
      and vertices with no positive finite second moment, with one message
      each.
"""

import hashlib
import os
import signal
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interdag._fork
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
    sample_normalized_model,
    sample_random_dag,
    sufficient_stats,
)
from interdag.cli import ingest_csv, main
from interdag.likelihood import _checked_penalty, _scores

from helpers import all_dags, assert_no_child_left, forks, one_core, random_instance, reference_exhaustive_dp
from helpers import reference_greedy_search


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
    # TargetFamily holds the one conservative check, so a non-conservative
    # family never reaches the fit pipeline: greedy_search takes no family
    data = _noise_dataset(2, 50, 5)
    with pytest.raises(ParameterError, match=r"not conservative: vertices \[1, 2\]"):
        fit_structure(data, TargetFamily.of((1, 2)))


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


# floors (the full-rescan oracles and table_scores_match_sets_fitted_alone):
# greedy's per-vertex score tables, and the descendant bitsets that decide
# both insertions and reversals, against the full rescan; and every table
# score against its set fitted alone: a refresh reuses the removal scores
# greedy holds, which relies on the kernel giving a set the same bits
# whatever else is in its stack
@pytest.mark.floors
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


@pytest.mark.floors
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


def _refreshed_tables(local, config):
    """Run greedy, returning each table it filled, the opening's included,
    as (vertex, its parent set, the removals it already knew, its scores by
    toggled vertex).  The tables live inside ``greedy_search``, so a
    profile hook reads them as its nested ``fill`` is called and returns."""
    fill_code = next(c for c in greedy_search.__code__.co_consts if getattr(c, "co_name", None) == "fill")
    refreshed, reused = [], {}

    def hook(frame, event, arg):
        if frame.f_code is not fill_code:
            return
        names = frame.f_locals
        v = names["v"]
        if event == "call":
            reused[v] = dict(names["known"][v - 1])
        elif event == "return":
            toggled = names["tables"][v - 1][0]
            refreshed.append((v, frozenset(names["parents"][v - 1]), reused.pop(v), dict(toggled)))

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        greedy_search(local, config)
    finally:
        sys.setprofile(previous)
    return refreshed


def _assert_fitted_alone(local, config, refreshed):
    """Every score of every refreshed table has the bits of its set fitted
    alone, in a kernel call of that one set."""
    penalty = _checked_penalty(local.n, config.penalty_weight)
    for v, parents, _, toggled in refreshed:
        for u, score in toggled.items():
            alone = _scores(v, [tuple(sorted(parents ^ {u}))], local, penalty)
            assert np.float64(score).tobytes() == alone.tobytes(), (v, sorted(parents), u)


@pytest.mark.floors
@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 10),
    n=st.integers(40, 3000),
    max_parents=st.sampled_from([None, 1, 2, 3]),
)
def test_greedy_table_scores_match_sets_fitted_alone(seed, p, n, max_parents):
    """The scores greedy fits in stacks, and the removals it reuses instead
    of fitting, are those of each set fitted alone, bit for bit."""
    model, family, spec, data = random_instance(seed, p=p, n=n)
    local = _local(data, family)
    config = SearchConfig(max_parents=max_parents)
    _assert_fitted_alone(local, config, _refreshed_tables(local, config))


@pytest.mark.floors
def test_greedy_table_scores_match_sets_fitted_alone_on_known_removals():
    """Denser runs, whose refreshes after an insert reuse the removal of
    the tail just inserted, alone and together with the removal of head's
    one earlier parent, whose set {tail} the opening scored; with those,
    every score of every refreshed table is that of its set fitted alone."""
    config = SearchConfig()
    known = set()
    for seed in (7, 12):
        model, family, spec, data = random_instance(seed, p=30, n=300, expected_degree=2.5)
        local = _local(data, family)
        refreshed = _refreshed_tables(local, config)
        _assert_fitted_alone(local, config, refreshed)
        known |= {(len(parents), len(reused)) for _, parents, reused, _ in refreshed if reused}
    assert {(1, 1), (2, 2)} <= known


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


@pytest.mark.floors
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
    removals it does not know.  After an insert of tail -> head, removing
    tail gives head's score before the insert, and when head had one
    parent, removing that parent leaves {tail}, which the opening scored.
    Those known removals take away 38 calls, each a refresh's removal call,
    and 62 fitted sets, against 107 calls and 3,667 sets when every
    removal was fitted.  Every score greedy reads comes from those calls
    and the scores it holds: it makes no score-cache lookup and no
    ``local_score`` call.  The counts wrap ``_scores`` both where
    ``likelihood`` calls it and where ``search`` does.
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
    assert (calls, fitted) == (69, 3605)


@pytest.mark.parametrize("k", [0, 3])
def test_greedy_opening_factors_each_tail_once_per_pattern(monkeypatch, k):
    """Greedy's opening call orders its p(p - 1) single-parent sets by
    (pattern, tail), so the heads of one pattern share each tail's 1x1
    block: with no step taken, observational data at p=30 takes 30 dposv
    calls instead of 870, and k single-vertex targets add p - 1 per target,
    whose vertex is a pattern of its own.  The scores are those of the
    sets fitted one head at a time."""
    p = 30
    model = sample_normalized_model(sample_random_dag(p, 1.5, 40 + k), 41 + k)
    singles = [InterventionTarget.of(v) for v in (3, 17, 29)[:k]]
    sequence = [InterventionTarget.empty()] * 400 + [t for t in singles for _ in range(20)]
    local = _local(sample_dataset(model, sequence, InterventionSpec.constant(singles, 2.0, 0.5), 42 + k))
    assert len(local.mixtures) == k + 1
    calls = []
    dposv = interdag.likelihood.dposv

    def counting_dposv(a, b, *args):
        calls.append(b.shape)
        return dposv(a, b, *args)

    monkeypatch.setattr(interdag.likelihood, "dposv", counting_dposv)
    greedy_search(local, SearchConfig(max_steps=0))
    assert len(calls) == p + k * (p - 1)
    monkeypatch.undo()
    dag, trace = greedy_search(local)
    ref_dag, ref_trace = reference_greedy_search(local)
    assert dag == ref_dag and format_trace(trace) == format_trace(ref_trace)


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



# floors (the DP oracles, its work counters and the proof tests): the proof
# of conditioning, made once per pattern by local_stats, relies on this
# numpy's cholesky and this scipy's dtrtri; the exact search's shared
# factorizations rely on this LAPACK's multi-column dposv solving each
# column as alone (its premise test is in test_kernel.py), so the DP runs
# on shared patterns and its pinned dposv count run here too
@pytest.mark.floors
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


@pytest.mark.floors
@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(5, 8),
    max_parents=st.sampled_from([None, 1, 2, 4]),
    duplicate=st.booleans(),
    few=st.integers(1, 4),
)
def test_dp_matches_reference_oracle_on_shared_patterns(seed, p, max_parents, duplicate, few):
    """Vertices 1 and 2 lie in target (1, 2) alone and share a pattern, and
    so do the vertices from 4 on, which lie in (4, ..., p) alone; vertex 3
    lies in neither.  The exact search scores each pattern's vertices in one
    stack per size, set by set, and must return the oracle's parent sets,
    which scores every vertex on its own.

    (4, ..., p) has ``few`` rows, at most p - 4, so vertices 1 and 2 have
    ``few`` more excluding rows than the observational ones, 3 of them: no
    more than their parents for the larger sets, and a mixture of rank
    below p that no proof accepts.  ``duplicate`` copies column p - 1 onto
    column p, so the pattern of vertices 4 to p is not proven either, and
    every block that holds both columns is singular.
    """
    few = min(few, p - 4)
    model = sample_normalized_model(sample_random_dag(p, 1.5, seed % 1000), seed % 997)
    shared, rest = InterventionTarget.of(1, 2), InterventionTarget(tuple(range(4, p + 1)))
    sequence = [InterventionTarget.empty()] * 3 + [shared] * 150 + [rest] * few
    data = sample_dataset(model, sequence, InterventionSpec.constant([shared, rest], 1.0, 0.5), seed)
    values = np.array(data.values)
    if duplicate:
        values[:, p - 1] = values[:, p - 2]
    local = _local(Dataset(p, data.targets, values))
    assert local.pattern_of.tolist() == [0, 0, 1] + [2] * (p - 3)
    assert local.counts_excluding.tolist() == [3 + few] * 2 + [153 + few] + [153] * (p - 3)
    assert not local.proven[local.pattern(1)]
    if duplicate:
        assert not local.proven[local.pattern(4)]
    config = SearchConfig(max_parents=max_parents)
    assert exhaustive_dp(local, config).parent_sets == reference_exhaustive_dp(local, config).parent_sets


def _fit_exact_local(tmp_path):
    """The statistics of ``interdag simulate --p 12 --n 2000 --k 3
    --replicates-per-target 5 --seed 7``: three vertices targeted alone,
    nine sharing the observational pattern."""
    assert main(["simulate", "--p", "12", "--n", "2000", "--k", "3", "--replicates-per-target", "5",
                 "--seed", "7", "--out", str(tmp_path)]) == 0
    return _local(ingest_csv(tmp_path / "dataset.csv"))


def _observational_p10_local():
    model = sample_normalized_model(sample_random_dag(10, 1.5, 3), 3)
    return _local(sample_dataset(model, [InterventionTarget.empty()] * 500, seed=3))


# Every score of the exact search's table, pinned to the bit: a DAG or an
# essential graph can hide a last-bit change in one score that no argmax
# reaches.  Recorded with the per-set arithmetic of the kernel as it was
# before its numpy score expression, on numpy 2.4 and scipy 1.17 wheels
# (x86-64 OpenBLAS); another build may round differently.
@pytest.mark.parametrize(
    "inputs, shape, digest",
    [
        ("fit_exact", (12, 1981), "6d8e1d1f49b63b337ce767b048353e65dfcc7dbb5ef7b471f8d791a1b1d4ce0d"),
        ("observational", (10, 511), "1bf534c240cff8e16d60b2a223989a969f9d40dc918e4d7e28e755a236c50070"),
    ],
    ids=["fit_exact", "observational"],
)
def test_dp_score_table_pinned(tmp_path, inputs, shape, digest):
    local = _fit_exact_local(tmp_path) if inputs == "fit_exact" else _observational_p10_local()
    penalty = interdag.likelihood._checked_penalty(local.n, None)
    table = interdag.search._dp_scores(local, SearchConfig().resolved_max_parents(local.p), penalty)
    assert table.shape == shape
    assert hashlib.sha256(table.tobytes()).hexdigest() == digest


@pytest.mark.floors
def test_dp_work_counters_pinned(monkeypatch, tmp_path):
    """Kernel calls, parent sets fitted, dposv calls and proofs of one DP
    fit on the input ``interdag simulate --p 12 --n 2000 --k 3
    --replicates-per-target 5 --seed 7`` writes.

    Three vertices are targeted alone and nine share the observational
    pattern, so four mixtures are proven.  Every vertex still scores its
    1,981 sets of at most 8 of the other 11 (23,772 sets), but one
    factorization serves every vertex of a pattern outside a set: 3,796
    nonempty sets of the 12 labels for the shared pattern and 3 * 1,980
    for the others, 9,736 dposv calls against 23,760 with one per nonempty
    set.  A kernel call takes whole sets, at most 1,024 // 9 = 113 of them
    for the shared pattern and so 40 calls over sizes 0 to 8, and one call
    per size for each of the others: 67 calls, against 12 * 9 = 108 with
    one per vertex and size.  One core is usable, so no child scores any.
    """
    calls = {"scores": 0, "sets": 0, "dposv": 0, "proof": 0}
    scores, dposv, proof = interdag.likelihood._scores, interdag.likelihood.dposv, interdag.likelihood._proven_well_conditioned

    def counting_scores(k, parent_sets, *args):
        calls["scores"] += 1
        calls["sets"] += len(parent_sets)
        return scores(k, parent_sets, *args)

    def counting_dposv(*args):
        calls["dposv"] += 1
        return dposv(*args)

    def counting_proof(*args):
        calls["proof"] += 1
        return proof(*args)

    monkeypatch.setattr(interdag.likelihood, "_scores", counting_scores)
    monkeypatch.setattr(interdag.search, "_scores", counting_scores)
    monkeypatch.setattr(interdag.likelihood, "dposv", counting_dposv)
    monkeypatch.setattr(interdag.likelihood, "_proven_well_conditioned", counting_proof)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    local = _fit_exact_local(tmp_path)
    assert len(local.mixtures) == 4
    exhaustive_dp(local)
    assert calls == {"scores": 67, "sets": 23_772, "dposv": 9_736, "proof": 4}


@pytest.mark.floors
def test_dp_calls_are_split_between_this_process_and_one_child(monkeypatch, tmp_path, forks):
    """On two cores the 67 kernel calls and 23,772 sets of the input above
    are shared with one forked child: by the assignment rule, this process
    makes the first 39 calls and the child the other 28.  The calls made
    here, counted here, are those 39, so together with the child's they
    make up the 67 calls and 23,772 sets, none made twice."""
    calls = {"scores": 0, "sets": 0}
    scores = interdag.search._scores

    def counting_scores(k, parent_sets, *args):
        calls["scores"] += 1
        calls["sets"] += len(parent_sets)
        return scores(k, parent_sets, *args)

    local = _fit_exact_local(tmp_path)
    monkeypatch.setattr(interdag.search, "_scores", counting_scores)
    exhaustive_dp(local)
    assert_no_child_left()
    assert len(forks) == 1
    patterns = [np.flatnonzero(local.pattern_of == q) for q in np.flatnonzero(np.bincount(local.pattern_of))]
    sizes = [len(members) for members in patterns]
    planned = list(interdag.search._dp_calls(12, 8, sizes))
    cut = interdag.search._dp_cut(12, planned, sizes)
    assert (len(planned), cut) == (67, 39)
    child_sets = sum(len(vertex) for vertex, _, _ in interdag.search._dp_blocks(12, patterns, planned[cut:]))
    assert calls == {"scores": cut, "sets": 23_772 - child_sets}


def test_dp_scores_forked_match_one_process(monkeypatch, forks):
    """With the fork threshold at one pair and two usable cores, every DP
    of two calls or more is shared with a child: its score table has the
    bits of the table scored in one process, with ties and singular blocks
    from copied columns, and its parent sets are the oracle's."""
    monkeypatch.setattr(interdag.search, "_DP_FORK_PAIRS", 1)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        p=st.integers(2, 9),
        n=st.integers(15, 400),
        max_parents=st.sampled_from([None, 0, 1, 2, 3]),
        duplicates=st.integers(0, 2),
    )
    def check(seed, p, n, max_parents, duplicates):
        model, family, spec, data = random_instance(seed, p=p, n=n)
        values = np.array(data.values)
        rng = np.random.default_rng(seed)
        for _ in range(duplicates):
            src, dst = rng.choice(p, size=2, replace=False)
            values[:, dst] = values[:, src]
        local = _local(Dataset(p, data.targets, values), family)
        config = SearchConfig(max_parents=max_parents)
        table = (local, config.resolved_max_parents(p), config.resolved_penalty(local.n))
        forked = interdag.search._dp_scores(*table)
        assert_no_child_left()
        with one_core():
            alone = interdag.search._dp_scores(*table)
        assert forked.tobytes() == alone.tobytes()
        assert exhaustive_dp(local, config).parent_sets == reference_exhaustive_dp(local, config).parent_sets
        assert_no_child_left()

    check()
    assert len(forks) >= 40


class _CutPipe:
    """The write end of a child's pipe that sends only half of the first
    frame: "killed" writes its full length and half its bytes, then kills
    the child; "short" writes half as a whole frame and the end frame."""

    def __init__(self, handle, how):
        self.handle, self.how, self.writes = handle, how, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.handle.close()

    def write(self, data):
        data = bytes(data)
        self.writes += 1
        if self.writes == 1 and self.how == "short":
            data = (int.from_bytes(data, "little") // 2).to_bytes(8, "little")
        elif self.writes == 2:
            data = data[:len(data) // 2]
        self.handle.write(data)
        if self.writes == 2 and self.how == "killed":
            self.handle.flush()
            os.kill(os.getpid(), signal.SIGKILL)


@pytest.mark.parametrize("child", ["exits", "killed", "short"])
def test_dp_whose_child_fails_gives_the_same_dag(monkeypatch, tmp_path, forks, child):
    """A child that exits before it sends its scores ("exits"), is killed
    halfway through sending them ("killed") or sends half of them as a
    whole frame ("short") leaves this process to make the child's calls
    itself, all 67, with the table and DAG of one process; no child is
    left."""
    local = _fit_exact_local(tmp_path)
    penalty = interdag.likelihood._checked_penalty(local.n, None)
    with one_core():
        want = exhaustive_dp(local)
        table = interdag.search._dp_scores(local, 8, penalty)
    parent, scores, calls = os.getpid(), interdag.search._scores, []

    def counting_scores(*args):
        if os.getpid() != parent and child == "exits":
            os._exit(1)
        calls.append(os.getpid())
        return scores(*args)

    monkeypatch.setattr(interdag.search, "_scores", counting_scores)
    if child != "exits":
        monkeypatch.setattr(interdag._fork, "open", lambda fd, mode: open(fd, mode) if os.getpid() == parent
                            else _CutPipe(open(fd, mode), child), raising=False)
    assert exhaustive_dp(local) == want
    assert_no_child_left()
    assert len(calls) == 67
    assert interdag.search._dp_scores(local, 8, penalty).tobytes() == table.tobytes()
    assert_no_child_left()
    assert len(forks) == 2


@pytest.mark.floors
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
    # targets (), (3,) and (8,): vertices 3 and 8 each have a pattern of
    # their own and the other six share one, so three mixtures
    assert local.pattern_of.tolist() == [0, 0, 1, 0, 0, 0, 0, 2]
    # every mixture is proven, once per pattern, so no scorer runs an SVD
    dag, _ = greedy_search(local)
    exhaustive_dp(local)
    mle_given_dag(dag, local)
    assert all(local.proven[local.pattern(k)] for k in range(1, 9))
    assert calls == {"cond": 0, "proof": 3}
    # a whole fit, from the data on, proves each pattern exactly once
    for method in ("greedy", "dp"):
        calls.update(cond=0, proof=0)
        run_fit(data, family, SearchConfig(method=method))
        assert calls == {"cond": 0, "proof": 3}, method
    # column 3 copied onto column 4: no mixture is proven, so every stack
    # with parents gets the SVD, and both searchers return their oracle's
    # result
    values = np.array(data.values)
    values[:, 3] = values[:, 2]
    local = _local(Dataset(8, data.targets, values), family)
    calls["cond"] = 0
    dag, trace = greedy_search(local)
    assert not any(local.proven[local.pattern(k)] for k in range(1, 9)) and calls["cond"] > 0
    ref_dag, ref_trace = reference_greedy_search(local)
    assert dag == ref_dag
    assert format_trace(trace) == format_trace(ref_trace)
    assert exhaustive_dp(local).parent_sets == reference_exhaustive_dp(local).parent_sets


@pytest.mark.floors
def test_local_stats_proves_each_pattern_once_and_no_scorer_proves_again(monkeypatch):
    calls = []
    proof = interdag.likelihood._proven_well_conditioned

    def counting(S):
        calls.append(S)
        return proof(S)

    monkeypatch.setattr(interdag.likelihood, "_proven_well_conditioned", counting)
    model, family, spec, data = random_instance(12, p=8, n=400)
    local = _local(data, family)
    # three patterns, as in the test above: local_stats proves each mixture
    # once, in pattern order
    assert len(local.mixtures) == 3 and len(calls) == 3
    assert all(np.shares_memory(S, M) for S, M in zip(calls, local.mixtures))
    assert local.proven.dtype == bool and local.proven.tolist() == [proof(M) for M in local.mixtures]
    with pytest.raises(ValueError):
        local.proven[0] = not local.proven[0]
    # no scorer proves a mixture again
    dag, _ = greedy_search(local)
    exhaustive_dp(local)
    mle_given_dag(dag, local)
    local_score(3, (1, 2), local)
    cache = LocalScoreCache(local)
    cache.score(8, (1,))
    cache.dag_score(dag)
    assert len(calls) == 3


@pytest.mark.floors
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
    graph = estimate_essential_graph(data, family, SearchConfig(method="dp"))
    assert graph.directed == frozenset({(1, 2)})


def test_estimate_rejects_unknown_method():
    with pytest.raises(ParameterError, match="method must be one of"):
        SearchConfig(method="anneal")


@pytest.mark.parametrize("settings, message", [
    ({"max_steps": 2.0}, "max_steps must be an integer, got 2.0"),
    ({"max_steps": True}, "max_steps must be an integer, got True"),
    ({"max_parents": 1.5}, "max_parents must be an integer, got 1.5"),
    ({"max_parents": "2"}, "max_parents must be an integer, got '2'"),
    ({"penalty_weight": True}, "penalty_weight must be a real number, got True"),
    ({"penalty_weight": "1.5"}, "penalty_weight must be a real number, got '1.5'"),
    pytest.param({"penalty_weight": 10**400},
                 f"penalty_weight must be a real number that a float can hold, got {10**400}",
                 id="penalty-weight-beyond-float"),
])
def test_search_config_refuses_a_non_integer_when_built(settings, message):
    with pytest.raises(ParameterError) as info:
        SearchConfig(**settings)
    assert str(info.value) == message


def test_search_config_stores_numpy_integers_as_ints():
    config = SearchConfig(max_parents=np.int32(2), max_steps=np.uint8(3))
    assert config == SearchConfig(max_parents=2, max_steps=3)
    assert type(config.max_parents) is type(config.max_steps) is int
    assert SearchConfig(max_parents=None).max_parents is None
    # a real penalty weight is stored as a float
    config = SearchConfig(penalty_weight=2)
    assert config.penalty_weight == 2.0 and type(config.penalty_weight) is float


def test_score_equivalence_across_estimated_class():
    for s in range(6):
        model, family, spec, data = random_instance(600 + s, p=5, n=500)
        local = _local(data, family)
        dag, _ = greedy_search(local)
        base = bic_score(dag, local)
        for member in enumerate_class(dag, family):
            assert bic_score(member, local) == pytest.approx(base, rel=1e-9)
