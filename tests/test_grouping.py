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
    - Sampling groups the rows once, validates each distinct target once in
      sample_dataset and once in Dataset, and never compares targets row by
      row.
"""

import numpy as np
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


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


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
        assert stats.count(t) == n_t
        assert _same_bits(stats.second_moment(t), second)
        assert _same_bits(stats.first_moment(t), first)
    local = local_stats(stats)
    counts, mixtures = reference_local_stats(stats)
    assert _same_bits(local.counts_excluding, counts)
    assert _same_bits(local.mixtures, mixtures)


def test_vertex_in_every_target_matches_reference():
    model = sample_normalized_model(sample_random_dag(4, 1.5, 5), 6)
    t1, t12, t134 = InterventionTarget.of(1), InterventionTarget.of(1, 2), InterventionTarget.of(1, 3, 4)
    sequence = [t1, t12, t1, t134, t12, t12, t134, t1]
    spec = InterventionSpec.constant([t1, t12, t134], -2.0, 0.3)
    stats = sufficient_stats(sample_dataset(model, sequence, spec, 7))
    local = local_stats(stats)
    counts, mixtures = reference_local_stats(stats)
    assert local.count_excluding(1) == 0
    assert local.counts_excluding.tolist() == counts.tolist() == [0, 5, 6, 6]
    assert _same_bits(local.mixtures, mixtures)
    assert not local.mixtures[0].any()


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
    counts, mixtures = reference_local_stats(stats)
    assert local.counts_excluding.tolist() == counts.tolist() == [445] * p
    assert _same_bits(local.mixtures, mixtures)


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
    assert calls == {"validate_for": 2 * 4, "__eq__": 0}
    # the Dataset keeps sample_dataset's grouping instead of grouping again
    assert groupings == [1012]
    assert list(data.row_groups) == [InterventionTarget.empty(), *singles]
    assert groupings == [1012]
