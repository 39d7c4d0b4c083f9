"""Rows grouped by target once: sampling and statistics keep their bits.

Core claims:
    - group_rows returns each distinct target's rows in first-appearance
      order, ascending, as read-only index arrays, exactly as the per-row
      loop in helpers does, on sequences with interleaved runs and equal
      targets held in distinct objects; Dataset caches it.
    - The public Dataset constructor copies its values; sample_dataset
      hands its freshly drawn array over uncopied, and both are read-only.
    - sample_dataset gives the same bits and targets as the per-target scan
      in helpers, on sequences with runs, interleaved rows, multi-vertex
      targets, equal targets held in distinct objects, and no rows at all.
    - sufficient_stats counts and moments and local_stats mixtures are the
      same bits as copies of the loops that hash every row and form every
      n_t * S_t once per vertex, whichever target first contains a vertex,
      including a vertex in no target and one in every target, and for
      every vertex of a p=30 family of single-vertex targets.
    - local_stats folds target by target with one per-target moment in
      memory: on a fully targeted p=40 dataset it matches the fold per
      vertex bit for bit and its traced peak is the mixtures plus a few
      p x p arrays.
    - Every local_stats mixture equals its transpose bit for bit, on
      overlapping multi-vertex targets and columns of mixed scale: the
      scoring kernel factors each parent block through its transpose.
    - local_stats stores one mixture per exclusion pattern, one for
      observational data: vertices share a pattern exactly when they lie in
      the same observed targets, and each vertex's mixture is a view of its
      pattern's with the bits of the fold per vertex.
    - Sampling groups the rows once, validates each distinct target once,
      in the Dataset it builds, and never compares targets row by row.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from interdag import (
    Dataset,
    InterventionSpec,
    InterventionTarget,
    derive_seed,
    local_stats,
    sample_dataset,
    sample_normalized_model,
    sample_random_dag,
    sufficient_stats,
)
from interdag import model as model_module
from interdag.model import group_rows

from helpers import (
    reference_group_rows,
    reference_local_stats,
    reference_sample_dataset,
    reference_sufficient_stats,
)

# floors: the fold of local_stats, target-major over each pattern's packed
# upper triangle and then mirrored, against a full fold per vertex, which
# holds only if this numpy's X.T @ X is exactly symmetric; one mixture per
# exclusion pattern, rows grouped by runs against the per-row loop, and
# every mixture equal to its transpose bit for bit, which the kernel's
# factorization relies on (test_local_stats_mixtures_are_bitwise_symmetric)
pytestmark = pytest.mark.floors


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _check_local_stats(local, stats) -> None:
    """``local`` has the counts and, for every vertex, the mixture bits of
    the fold per vertex in helpers, and it stores one mixture per distinct
    exclusion pattern: per set of observed targets that contain a vertex."""
    counts, mixtures = reference_local_stats(stats)
    assert _same_bits(local.counts_excluding, counts)
    for k in range(1, local.p + 1):
        assert _same_bits(local.mixture(k), mixtures[k - 1]), k
    patterns = {tuple(t for t in stats.targets() if k in t) for k in range(1, local.p + 1)}
    assert local.mixtures.shape == (len(patterns), local.p, local.p)
    assert local.pattern_of.shape == (local.p,)


def test_group_rows_order_and_arrays():
    t0, t1, t13 = InterventionTarget.empty(), InterventionTarget.of(1), InterventionTarget.of(1, 3)
    twin = InterventionTarget.of(1)  # equal to t1, another object
    groups = group_rows((t1, t1, t0, twin, t13, t0, t1))
    assert list(groups) == [t1, t0, t13]
    assert [g.tolist() for g in groups.values()] == [[0, 1, 3, 6], [2, 5], [4]]
    for g in groups.values():
        assert g.dtype == np.intp and not g.flags.writeable
    assert group_rows(()) == {}


def test_dataset_copies_values_it_does_not_own():
    values = np.arange(6.0).reshape(3, 2)
    ds = Dataset(2, (InterventionTarget.empty(),) * 3, values)
    values[0, 0] = 7.0
    assert ds.values[0, 0] == 0.0 and not ds.values.flags.writeable
    assert not np.shares_memory(ds.values, values)
    model = sample_normalized_model(sample_random_dag(3, 1.0, 1), 2)
    drawn = sample_dataset(model, [InterventionTarget.empty()] * 4, seed=3)
    assert not drawn.values.flags.writeable


def test_dataset_caches_grouping():
    t0, t1 = InterventionTarget.empty(), InterventionTarget.of(2)
    ds = Dataset(2, (t0, t1, t0), np.zeros((3, 2)))
    assert ds.row_groups is ds.row_groups
    assert list(ds.row_groups) == [t0, t1]
    assert ds.observed_targets().targets == frozenset({t0, t1})


@st.composite
def _runs(draw):
    """A vertex count and a target sequence built from runs of pool targets.

    Runs of length one interleave targets; a run may hold one object
    repeated or a fresh equal object per row.  A vertex may be added to
    every pool target, so that it is in every target of the sequence.
    """
    p = draw(st.integers(2, 8))
    subsets = st.lists(st.integers(1, p), max_size=min(p, 3), unique=True)
    shared = draw(st.one_of(st.none(), st.integers(1, p)))
    pool = [
        InterventionTarget(tuple({*m} if shared is None else {*m, shared}))
        for m in draw(st.lists(subsets, min_size=1, max_size=6))
    ]
    sequence = []
    for idx, length, fresh in draw(st.lists(
        st.tuples(st.integers(0, len(pool) - 1), st.integers(1, 8), st.booleans()), max_size=12,
    )):
        t = pool[idx]
        sequence.extend(InterventionTarget(t.members) if fresh else t for _ in range(length))
    return p, sequence


_T1 = InterventionTarget.of(1)


@settings(max_examples=300, deadline=None)
@given(case=_runs())
# interleaved runs of one object and of equal targets in distinct objects
@example(case=(3, [_T1, _T1, InterventionTarget.empty(), InterventionTarget.of(1), _T1, _T1]))
@example(case=(2, []))
def test_group_rows_matches_the_row_loop(case):
    _, sequence = case
    targets = tuple(sequence)
    groups, expected = group_rows(targets), reference_group_rows(targets)
    assert list(groups) == list(expected)
    for t, rows in expected.items():
        assert _same_bits(groups[t], rows)
        assert not groups[t].flags.writeable


@settings(max_examples=120, deadline=None)
@given(case=_runs(), seed=st.integers(0, 2**32 - 1))
def test_grouped_sampling_and_statistics_match_reference(case, seed):
    p, sequence = case
    dag = sample_random_dag(p, 1.0, derive_seed(seed, 1))
    model = sample_normalized_model(dag, derive_seed(seed, 2))
    spec = InterventionSpec.constant([t for t in sequence if not t.is_empty], 3.0, 0.5)
    data = sample_dataset(model, sequence, spec, derive_seed(seed, 3))
    ref = reference_sample_dataset(model, sequence, spec, derive_seed(seed, 3))
    assert data.targets == ref.targets == tuple(sequence)
    assert _same_bits(data.values, ref.values)

    groups = data.row_groups
    assert list(groups) == list(dict.fromkeys(sequence))
    assert sorted(i for rows in groups.values() for i in rows.tolist()) == list(range(len(sequence)))
    if not sequence:
        return
    stats = sufficient_stats(data)
    expected = reference_sufficient_stats(data)
    assert list(stats.counts) == list(expected)
    for t, (n_t, second, first) in expected.items():
        assert stats.counts[t] == n_t
        assert _same_bits(stats.second_moments[t], second)
        assert _same_bits(stats.first_moments[t], first)
    _check_local_stats(local_stats(stats), stats)


@st.composite
def _shared_patterns(draw):
    """A vertex count, a seed and a row sequence whose targets are unions of
    blocks of vertices: the vertices of one block lie in the same targets,
    so they share an exclusion pattern.  Without targets, or with only the
    empty one, the rows are observational: one pattern for every vertex."""
    p = draw(st.integers(1, 9))
    block_of = draw(st.lists(st.integers(0, 3), min_size=p, max_size=p))
    unions = draw(st.lists(st.sets(st.integers(0, 3)), max_size=4))
    pool = [InterventionTarget(tuple(v for v in range(1, p + 1) if block_of[v - 1] in u)) for u in unions]
    if draw(st.booleans()) or not pool:
        pool.append(InterventionTarget.empty())
    sequence = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    return p, draw(st.integers(0, 2**32 - 1)), sequence


@settings(max_examples=200, deadline=None)
@given(case=_shared_patterns())
@example(case=(6, 1, [InterventionTarget.empty()] * 20))
def test_shared_patterns_store_one_mixture_with_every_vertex_s_bits(case):
    p, seed, sequence = case
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((len(sequence), p)) * 10.0 ** rng.uniform(-3, 3, size=p)
    stats = sufficient_stats(Dataset(p, tuple(sequence), values))
    local = local_stats(stats)
    _check_local_stats(local, stats)
    if all(t.is_empty for t in sequence):
        assert len(local.mixtures) == 1 and not local.pattern_of.any()
    # vertices share a pattern exactly when they lie in the same targets,
    # and every vertex's mixture is a view of its pattern's
    for j in range(1, p + 1):
        assert local.mixture(j).base is local.mixtures
        for k in range(1, p + 1):
            same = all((j in t) == (k in t) for t in stats.targets())
            assert (local.pattern(j) == local.pattern(k)) == same


@settings(max_examples=200, deadline=None)
@given(case=_runs(), seed=st.integers(0, 2**32 - 1))
def test_local_stats_mixtures_are_bitwise_symmetric(case, seed):
    """The scoring kernel factors each parent block through its transpose,
    so every mixture must equal its transpose bit for bit: here on
    overlapping multi-vertex targets, interleaved rows and columns whose
    scales span twelve orders of magnitude."""
    p, sequence = case
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((len(sequence) + 1, p)) * 10.0 ** rng.uniform(-6, 6, size=p)
    local = local_stats(sufficient_stats(Dataset(p, (*sequence, InterventionTarget.empty()), values)))
    M = local.mixtures
    assert np.array_equal(M, M.transpose(0, 2, 1))
    assert _same_bits(M, np.ascontiguousarray(M.transpose(0, 2, 1)))


def test_vertex_in_every_target_matches_reference():
    model = sample_normalized_model(sample_random_dag(4, 1.5, 5), 6)
    t1, t12, t134 = InterventionTarget.of(1), InterventionTarget.of(1, 2), InterventionTarget.of(1, 3, 4)
    sequence = [t1, t12, t1, t134, t12, t12, t134, t1]
    spec = InterventionSpec.constant([t1, t12, t134], -2.0, 0.3)
    stats = sufficient_stats(sample_dataset(model, sequence, spec, 7))
    local = local_stats(stats)
    _check_local_stats(local, stats)
    assert local.count_excluding(1) == 0
    assert local.counts_excluding.tolist() == [0, 5, 6, 6]
    assert not local.mixture(1).any()
    # vertices 3 and 4 lie in (1, 3, 4) alone, so they share a mixture
    assert local.pattern_of.tolist() == [0, 1, 2, 2]


def test_single_vertex_targets_at_p30_match_reference():
    # the benchmark's shape: observational rows and every vertex targeted
    # alone, so every vertex's mixture starts from a different prefix
    p = 30
    model = sample_normalized_model(sample_random_dag(p, 1.5, 11), 12)
    singles = [InterventionTarget.of(v) for v in range(1, p + 1)]
    sequence = [InterventionTarget.empty()] * 300 + [t for t in singles for _ in range(5)]
    spec = InterventionSpec.constant(singles, 2.0, 0.5)
    stats = sufficient_stats(sample_dataset(model, sequence, spec, 13))
    local = local_stats(stats)
    _check_local_stats(local, stats)
    assert local.counts_excluding.tolist() == [445] * p
    # every vertex is its own pattern
    assert local.pattern_of.tolist() == list(range(p))


def test_local_stats_streams_one_moment_at_a_time():
    """Fully targeted at p=40: 40 patterns of 40 x 40.  The fold holds the
    mixtures, the running prefix, the n_t * S_t scratch and the moment being
    read (with its product), not a weighted copy of every target's moment."""
    p = 40
    model = sample_normalized_model(sample_random_dag(p, 1.5, 21), 22)
    singles = [InterventionTarget.of(v) for v in range(1, p + 1)]
    sequence = [InterventionTarget.empty()] * 400 + [t for t in singles for _ in range(5)]
    data = sample_dataset(model, sequence, InterventionSpec.constant(singles, 2.0, 0.5), 23)
    tracemalloc.start()
    try:
        local = local_stats(sufficient_stats(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert local.mixtures.shape == (p, p, p)
    assert peak <= local.mixtures.nbytes + 8 * p * p * 8
    _check_local_stats(local, sufficient_stats(data))


def test_sampling_validates_each_distinct_target_once(monkeypatch):
    calls = {"validate_for": 0, "__eq__": 0}
    for name in calls:
        original = getattr(InterventionTarget, name)

        def counted(self, *args, _original=original, _name=name):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(InterventionTarget, name, counted)
    groupings = []

    def counted_group_rows(targets, _original=model_module.group_rows):
        groupings.append(len(targets))
        return _original(targets)

    monkeypatch.setattr(model_module, "group_rows", counted_group_rows)
    model = sample_normalized_model(sample_random_dag(5, 1.5, 8), 9)
    singles = [InterventionTarget.of(v) for v in (1, 3, 5)]
    sequence = [InterventionTarget.empty()] * 1000
    for t in singles:
        sequence.extend([t] * 4)
    data = sample_dataset(model, sequence, InterventionSpec.constant(singles, 1.0, 0.5), 10)
    assert calls == {"validate_for": 4, "__eq__": 0}
    # the Dataset keeps sample_dataset's grouping instead of grouping again
    assert groupings == [1012]
    assert list(data.row_groups) == [InterventionTarget.empty(), *singles]
    assert groupings == [1012]
