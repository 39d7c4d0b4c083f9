"""Model construction, sampling, interventional moments, and serialization.

Core claims:
    - Dag constructors validate labels, self-loops, and acyclicity.
    - sample_random_dag hits the requested expected skeleton degree, and
      its bulk draw gives the DAG of one draw per vertex pair.
    - sample_normalized_model yields unit marginal variances, through its
      half-variance fallback too, which a star of 100 roots always takes.
    - observational_covariance matches the hand-expanded 2x2 formula.
    - intervention_dag deletes exactly the edges into the target.
    - interventional_moments agree with Monte Carlo samples and with the
      full-replacement and small-variance limits.
    - sample_dataset draws a group whose rows are one run in place, with
      no temporary of its rows, and holds at most two means and covariance
      roots at a time (tracemalloc).
    - The mean and root of a target solved from the observational pair,
      at its members and their descendants only, have the full pass's bits.
    - Text serialization round-trips bit-exactly, and its ``%`` format
      writes the text of ``str.format``'s ``{:.17g}`` for every double.
    - Each construction and sampling error that no other test reaches
      raises its type with its message.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdag import (
    Dag,
    DataError,
    Dataset,
    GaussianCausalModel,
    InterventionSpec,
    InterventionTarget,
    ParameterError,
    TargetFamily,
    derive_seed,
    format_model,
    intervention_dag,
    interventional_moments,
    observational_covariance,
    parse_model,
    sample_dataset,
    sample_normalized_model,
    sample_random_dag,
)
from interdag.model import _FLOAT_FMT, _mean_and_root

from helpers import demo_trio, reference_random_dag


# -- Dag ---------------------------------------------------------------------


def test_dag_basic_construction():
    d = Dag.from_edges(3, [(1, 2), (2, 3)])
    assert d.parents(1) == ()
    assert d.parents(2) == (1,)
    assert d.parents(3) == (2,)
    assert d.edges == ((1, 2), (2, 3))
    assert d.num_edges == 2
    assert d.has_edge(1, 2) and not d.has_edge(2, 1)
    assert d.adjacent(2, 1)


def test_dag_rejects_cycle():
    with pytest.raises(ParameterError):
        Dag.from_edges(3, [(1, 2), (2, 3), (3, 1)])
    with pytest.raises(ParameterError):
        Dag.from_edges(2, [(1, 2), (2, 1)])


def test_dag_rejects_self_loop_and_bad_labels():
    with pytest.raises(ParameterError):
        Dag(2, ((), (2,)))
    with pytest.raises(ParameterError):
        Dag(2, ((), (3,)))
    with pytest.raises(ParameterError):
        Dag.from_edges(2, [(1, 5)])
    with pytest.raises(ParameterError):
        Dag(0, ())


def test_topological_order_puts_parents_first():
    for seed in range(20):
        d = sample_random_dag(8, 2.0, seed)
        order = d.topological_order
        pos = {v: i for i, v in enumerate(order)}
        assert sorted(order) == list(range(1, 9))
        for tail, head in d.edges:
            assert pos[tail] < pos[head]


def test_child_sets_and_descendant_bitsets():
    d = Dag.from_edges(5, [(1, 2), (2, 3), (1, 4), (5, 4)])
    assert d.child_sets == ((2, 4), (3,), (), (), (4,))
    # bit j stands for vertex j
    assert d.descendants == (0b11100, 0b1000, 0, 0, 0b10000)


def test_dag_equality_and_canonical_parent_order():
    a = Dag(3, ((), (1,), (2, 1)))
    b = Dag.from_edges(3, [(2, 3), (1, 2), (1, 3)])
    assert a == b
    assert a.parents(3) == (1, 2)


# -- targets, families, specs --------------------------------------------------


def test_target_canonicalization():
    t = InterventionTarget.of(3, 1)
    assert t.members == (1, 3)
    assert t.label() == "1;3"
    assert 3 in t and 2 not in t
    assert not t.is_empty
    assert InterventionTarget.empty().is_empty


def test_target_rejects_duplicates_and_bad_labels():
    with pytest.raises(ParameterError):
        InterventionTarget((2, 2))
    with pytest.raises(ParameterError):
        InterventionTarget((0,))
    with pytest.raises(ParameterError):
        InterventionTarget.of(4).validate_for(3)


def test_family_sorted_and_nonempty():
    fam = TargetFamily.of((2,), (), (1, 3))
    labels = [t.members for t in fam.sorted_targets()]
    assert labels == [(), (2,), (1, 3)]
    assert InterventionTarget.empty() in fam
    with pytest.raises(ParameterError):
        TargetFamily(frozenset())
    # vertex 3 lies in every target: not conservative
    with pytest.raises(ParameterError, match=r"not conservative: vertices \[3\] lie in every target"):
        TargetFamily.of((3,), (1, 3))


def test_spec_validation():
    t = InterventionTarget.of(1, 2)
    spec = InterventionSpec({t: ([1.0, 2.0], [0.1, 0.2])})
    mu, tau2 = spec.for_target(t)
    assert mu.tolist() == [1.0, 2.0]
    with pytest.raises(ParameterError):
        InterventionSpec({t: ([1.0], [0.1, 0.2])})
    with pytest.raises(ParameterError):
        InterventionSpec({t: ([1.0, 2.0], [0.1, 0.0])})
    with pytest.raises(ParameterError):
        InterventionSpec({InterventionTarget.empty(): ([], [])})
    with pytest.raises(ParameterError):
        spec.for_target(InterventionTarget.of(3))
    empty_mu, empty_tau2 = spec.for_target(InterventionTarget.empty())
    assert empty_mu.size == 0 and empty_tau2.size == 0


def test_model_validation():
    d = Dag.from_edges(2, [(1, 2)])
    GaussianCausalModel(d, [[0, 0], [0.5, 0]], [1.0, 1.0])
    with pytest.raises(ParameterError):
        GaussianCausalModel(d, [[0, 0.5], [0.5, 0]], [1.0, 1.0])  # edge 2->1 absent
    with pytest.raises(ParameterError):
        GaussianCausalModel(d, [[0, 0], [0.5, 0]], [1.0, 0.0])
    with pytest.raises(ParameterError):
        GaussianCausalModel(d, [[0, 0], [math.inf, 0]], [1.0, 1.0])


def test_dataset_validation():
    t = InterventionTarget.empty()
    with pytest.raises(DataError):
        Dataset(2, (t,), [[1.0, math.nan]])
    with pytest.raises(ParameterError):
        Dataset(2, (t, t), [[1.0, 2.0]])
    with pytest.raises(ParameterError, match="out of range"):
        Dataset(2, (t, InterventionTarget.of(3)), [[0.0, 1.0], [2.0, 3.0]])
    ds = Dataset(2, (t, InterventionTarget.of(1)), [[0.0, 1.0], [2.0, 3.0]])
    assert ds.n == 2
    fam = ds.observed_targets()
    assert InterventionTarget.of(1) in fam and t in fam


def test_observed_targets_need_rows_and_a_conservative_family():
    with pytest.raises(DataError, match="has no rows"):
        Dataset(2, (), np.empty((0, 2))).observed_targets()
    both = Dataset(2, (InterventionTarget.of(1), InterventionTarget.of(1, 2)), [[0.0, 1.0], [2.0, 3.0]])
    with pytest.raises(DataError, match=r"vertices \[1\] lie in every target, so they are intervened"):
        both.observed_targets()


# -- random graph and model sampling -------------------------------------------


def test_random_dag_edge_cases():
    assert sample_random_dag(1, 0.0, 0).num_edges == 0
    for seed in range(5):
        full = sample_random_dag(5, 4.0, seed)
        assert full.num_edges == 10  # edge probability forced to 1
    with pytest.raises(ParameterError):
        sample_random_dag(5, 5.0, 0)
    with pytest.raises(ParameterError):
        sample_random_dag(5, -0.1, 0)


def test_random_dag_mean_degree():
    p, d = 10, 1.8
    total_edges = sum(sample_random_dag(p, d, seed).num_edges for seed in range(1000))
    mean_degree = 2.0 * total_edges / (1000 * p)
    assert abs(mean_degree - d) < 0.1


@settings(max_examples=100, deadline=None)
@given(p=st.integers(1, 60), degree=st.floats(0.0, 1.0), seed=st.integers(0, 2**64 - 1))
def test_random_dag_matches_the_one_draw_per_pair_oracle(p, degree, seed):
    """Drawing every pair's uniform in one call gives the DAG that one call
    per pair gives: a Philox generator's doubles do not depend on how
    many are asked for at a time."""
    d = degree * (p - 1)
    assert sample_random_dag(p, d, seed) == reference_random_dag(p, d, seed)


def test_random_dag_deterministic():
    a = sample_random_dag(12, 2.5, 987)
    b = sample_random_dag(12, 2.5, 987)
    assert a == b
    assert a != sample_random_dag(12, 2.5, 988)


def test_normalized_model_empty_dag():
    m = sample_normalized_model(Dag.empty(3), seed=0)
    assert np.array_equal(m.weights, np.zeros((3, 3)))
    assert np.array_equal(m.error_vars, np.ones(3))


def test_normalized_model_unit_diagonal():
    # chain case first, then random graphs at two sizes
    chain = Dag.from_edges(3, [(1, 2), (2, 3)])
    m = sample_normalized_model(chain, seed=5)
    assert np.max(np.abs(np.diag(observational_covariance(m)) - 1.0)) < 1e-8
    for i in range(100):
        p = 5 if i % 2 == 0 else 10
        dag = sample_random_dag(p, 1.8, derive_seed(42, i))
        model = sample_normalized_model(dag, derive_seed(43, i))
        diag = np.diag(observational_covariance(model))
        assert np.max(np.abs(diag - 1.0)) < 1e-8
        assert np.all(model.error_vars > 0) and np.all(model.error_vars <= 1 + 1e-12)


# -- covariance and interventional moments -------------------------------------


def test_observational_covariance_identity_resolvent():
    m = GaussianCausalModel(Dag.empty(3), np.zeros((3, 3)), [0.5, 2.0, 1.0])
    assert np.allclose(observational_covariance(m), np.diag([0.5, 2.0, 1.0]), atol=1e-15)


def test_observational_covariance_two_vertex_hand_formula():
    beta, s1, s2 = 0.7, 1.3, 0.4
    d = Dag.from_edges(2, [(1, 2)])
    W = np.zeros((2, 2))
    W[1, 0] = beta
    cov = observational_covariance(GaussianCausalModel(d, W, [s1, s2]))
    expected = np.array([[s1, beta * s1], [beta * s1, beta**2 * s1 + s2]])
    assert np.max(np.abs(cov - expected)) < 1e-12


def test_intervention_dag_deletes_incoming_edges_only():
    d, _, _ = demo_trio()
    cut = intervention_dag(d, InterventionTarget.of(4))
    assert set(d.edges) - set(cut.edges) == {(3, 4)}
    assert intervention_dag(d, InterventionTarget.empty()) == d
    again = intervention_dag(cut, InterventionTarget.of(4))
    assert again == cut


def test_moments_observational_case():
    dag = sample_random_dag(6, 2.0, 3)
    model = sample_normalized_model(dag, 4)
    mu, cov = interventional_moments(model, InterventionTarget.empty())
    assert np.max(np.abs(mu)) == 0.0
    assert np.max(np.abs(cov - observational_covariance(model))) < 1e-12


def test_moments_full_replacement():
    dag = sample_random_dag(4, 1.5, 9)
    model = sample_normalized_model(dag, 10)
    target = InterventionTarget.of(1, 2, 3, 4)
    spec = InterventionSpec({target: ([1.0, -2.0, 3.0, 0.5], [0.1, 0.2, 0.3, 0.4])})
    mu, cov = interventional_moments(model, target, spec)
    assert np.allclose(mu, [1.0, -2.0, 3.0, 0.5], atol=1e-15)
    assert np.allclose(cov, np.diag([0.1, 0.2, 0.3, 0.4]), atol=1e-15)


def test_moments_small_variance_limit():
    beta, s2 = 0.8, 0.36
    d = Dag.from_edges(2, [(1, 2)])
    W = np.zeros((2, 2))
    W[1, 0] = beta
    model = GaussianCausalModel(d, W, [1.0, s2])
    u = 3.0
    target = InterventionTarget.of(1)
    spec = InterventionSpec({target: ([u], [1e-12])})
    mu, cov = interventional_moments(model, target, spec)
    assert abs(mu[0] - u) < 1e-12
    assert abs(mu[1] - beta * u) < 1e-12
    assert abs(cov[1, 1] - s2) < 1e-9


def test_moments_positive_definite():
    for i in range(25):
        dag = sample_random_dag(6, 2.0, derive_seed(77, i))
        model = sample_normalized_model(dag, derive_seed(78, i))
        target = InterventionTarget.of(1 + (i % 6), 1 + ((i * 2) % 6)) \
            if i % 3 else InterventionTarget.empty()
        spec = InterventionSpec.constant([target], 2.0, 0.25)
        _, cov = interventional_moments(model, target, spec)
        assert np.max(np.abs(cov - cov.T)) < 1e-14
        assert np.min(np.linalg.eigvalsh(cov)) > 1e-10


# -- sampling -------------------------------------------------------------------


def test_sample_dataset_empty():
    model = sample_normalized_model(Dag.empty(2), 0)
    assert sample_dataset(model, [], seed=1).n == 0


def test_sample_dataset_monte_carlo_observational():
    chain = Dag.from_edges(3, [(1, 2), (2, 3)])
    model = sample_normalized_model(chain, seed=21)
    data = sample_dataset(model, [InterventionTarget.empty()] * 50000, seed=22)
    emp = data.values.T @ data.values / data.n
    assert np.max(np.abs(emp - observational_covariance(model))) < 0.05


def test_sample_dataset_monte_carlo_intervention():
    chain = Dag.from_edges(3, [(1, 2), (2, 3)])
    model = sample_normalized_model(chain, seed=23)
    target = InterventionTarget.of(1)
    spec = InterventionSpec.constant([target], 10.0, 0.04)
    data = sample_dataset(model, [target] * 50000, spec, seed=24)
    assert abs(data.values[:, 0].mean() - 10.0) < 0.05
    # remaining columns against analytic moments, three standard errors
    mu, cov = interventional_moments(model, target, spec)
    for j in range(3):
        se = math.sqrt(cov[j, j] / data.n)
        assert abs(data.values[:, j].mean() - mu[j]) < 3 * se
    emp_cov = np.cov(data.values.T, bias=True)
    for i in range(3):
        for j in range(3):
            se = math.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / data.n)
            assert abs(emp_cov[i, j] - cov[i, j]) < 3 * se


def test_sample_dataset_mixed_rows_keep_order_and_seed():
    dag = sample_random_dag(4, 1.5, 31)
    model = sample_normalized_model(dag, 32)
    t1 = InterventionTarget.of(2)
    seq = [InterventionTarget.empty(), t1, InterventionTarget.empty(), t1]
    spec = InterventionSpec.constant([t1], 5.0, 0.04)
    a = sample_dataset(model, seq, spec, seed=33)
    b = sample_dataset(model, seq, spec, seed=33)
    c = sample_dataset(model, seq, spec, seed=34)
    assert a.targets == tuple(seq)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    # intervened column concentrates near its mean in the intervened rows only
    assert np.all(np.abs(a.values[[1, 3], 1] - 5.0) < 2.0)


@pytest.mark.parametrize("k", [0, 2])
def test_sample_dataset_writes_single_run_groups_in_place(k):
    """n=10000 rows at p=10, in one run per target: the peak holds the
    standard normal draws Z and the values X, and a slack far below one
    (rows, p) temporary, so no group's rows are drawn into a temporary."""
    p, n = 10, 10_000
    model = sample_normalized_model(sample_random_dag(p, 1.8, 1), 2)
    singles = [InterventionTarget.of(v) for v in (3, 5)[:k]]
    sequence = [InterventionTarget.empty()] * (n - 100 * k) + [t for t in singles for _ in range(100)]
    spec = InterventionSpec.constant(singles, 10.0, 0.04)
    tracemalloc.start()
    try:
        data = sample_dataset(model, sequence, spec, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * data.values.nbytes + data.values.nbytes // 2


@st.composite
def _targeted_models(draw):
    """A random model on 1 to 9 vertices, from the empty graph to the
    complete one, and a target of 1 to 3 of its vertices with random means
    and standard deviations."""
    p = draw(st.integers(1, 9))
    dag = sample_random_dag(p, draw(st.floats(0.0, p - 1.0)), draw(st.integers(0, 2**32 - 1)))
    model = sample_normalized_model(dag, draw(st.integers(0, 2**32 - 1)))
    members = draw(st.sets(st.integers(1, p), min_size=1, max_size=min(3, p)))
    mu = draw(st.lists(st.floats(-1e3, 1e3), min_size=len(members), max_size=len(members)))
    tau = draw(st.lists(st.floats(1e-3, 1e3), min_size=len(members), max_size=len(members)))
    target = InterventionTarget(tuple(members))
    return model, target, InterventionSpec({target: (mu, np.square(tau))})


def _assert_base_gives_the_full_pass(model, target, spec):
    base = _mean_and_root(model, InterventionTarget.empty(), None)
    kept = [a.tobytes() for a in base]
    full = _mean_and_root(model, target, spec)
    assert [a.tobytes() for a in _mean_and_root(model, target, spec, base)] == [a.tobytes() for a in full]
    assert [a.tobytes() for a in base] == kept


# floors (both mean_and_root tests): a target's mean and covariance root
# solved from the observational pair at its members and their descendants
# only, against the full pass, bit for bit; this holds only if this numpy
# gives a row's product the same bits in both
@pytest.mark.floors
@settings(max_examples=200, deadline=None)
@given(case=_targeted_models())
def test_mean_and_root_from_the_observational_base_matches_the_full_pass(case):
    """Solving only a target's members and their descendants on a copy of
    the observational mean and root gives the full pass's bits, and leaves
    the observational pair as it was."""
    _assert_base_gives_the_full_pass(*case)


@pytest.mark.floors
def test_mean_and_root_from_the_base_on_every_target_of_a_complete_dag():
    """Every target of 1 to 3 vertices of a complete DAG on 6 vertices: its
    source, its sink, and members that descend from each other."""
    model = sample_normalized_model(sample_random_dag(6, 5.0, 21), 22)
    assert model.dag.num_edges == 15
    for size in (1, 2, 3):
        for members in itertools.combinations(range(1, 7), size):
            target = InterventionTarget(members)
            spec = InterventionSpec({target: (np.linspace(-2.0, 3.0, size), np.linspace(0.5, 2.0, size))})
            _assert_base_gives_the_full_pass(model, target, spec)


def test_sample_dataset_holds_at_most_two_roots():
    """Sampling solves each target's mean and covariance root when its group
    is drawn and drops it after: with every vertex of p=80 targeted, the
    peak is the normals, the values, their finiteness mask and at most two
    roots, within three p x p arrays of a quarter of the vertices targeted;
    one root per target would hold 80."""
    p, n = 80, 800
    model = sample_normalized_model(sample_random_dag(p, 3.0, 1), 2)
    root = 8 * p * (p + 1)
    peaks = {}
    for k in (p, p // 4):
        singles = [InterventionTarget.of(v) for v in range(1, k + 1)]
        sequence = [InterventionTarget.empty()] * (n - 10 * k) + [t for t in singles for _ in range(10)]
        spec = InterventionSpec.constant(singles, 10.0, 0.04)
        tracemalloc.start()
        try:
            data = sample_dataset(model, sequence, spec, seed=3)
            peaks[k] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[p] <= 2 * data.values.nbytes + data.values.size + 2 * root
    assert abs(peaks[p] - peaks[p // 4]) <= 3 * 8 * p * p


def test_sample_dataset_requires_spec_for_interventions():
    model = sample_normalized_model(Dag.empty(2), 0)
    with pytest.raises(ParameterError):
        sample_dataset(model, [InterventionTarget.of(1)], None, seed=0)


# -- serialization ----------------------------------------------------------------


def test_model_round_trip_bit_exact():
    for i in range(20):
        dag = sample_random_dag(6, 2.2, derive_seed(55, i))
        model = sample_normalized_model(dag, derive_seed(56, i))
        back = parse_model(format_model(model))
        assert back.dag == model.dag
        assert np.array_equal(back.weights, model.weights)
        assert np.array_equal(back.error_vars, model.error_vars)
        assert format_model(back) == format_model(model)


@settings(max_examples=500, deadline=None)
@given(st.floats() | st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324, 1.8e308]))
def test_float_format_writes_the_text_of_str_format(x):
    assert _FLOAT_FMT % x == "{:.17g}".format(x)
    assert _FLOAT_FMT % np.float64(x) == "{:.17g}".format(x)


def test_parse_model_error_reporting():
    with pytest.raises(DataError, match="line 2"):
        parse_model("p 2\n1 => 2 : 0.5\nvar 1 : 1\nvar 2 : 1\n")
    with pytest.raises(DataError, match="variance line"):
        parse_model("p 2\nvar 1 : 1.0\n")
    with pytest.raises(DataError):
        parse_model("var 1 : 1.0\n")  # no vertex count
    with pytest.raises(DataError, match="line 3"):
        parse_model("p 1\nvar 1 : 1.0\np 1\n")


def test_parse_model_rejects_duplicated_lines():
    """A repeated variance or edge line is an error naming the repeat, not a
    silent overwrite by the last one."""
    text = "p 2\n1 -> 2 : 0.5\nvar 1 : 1.0\nvar 2 : 2.0\n"
    assert parse_model(text).weights[1, 0] == 0.5
    with pytest.raises(DataError, match=r"line 5: .*duplicate variance line for vertex 2"):
        parse_model(text + "var 2 : 3.0\n")
    with pytest.raises(DataError, match=r"line 3: .*duplicate edge line for 1 -> 2"):
        parse_model("p 2\n1 -> 2 : 0.5\n1 -> 2 : 0.7\nvar 1 : 1.0\nvar 2 : 2.0\n")


def test_normalized_model_falls_back_to_half_variance():
    # 100 roots into vertex 101: each weight has magnitude at least 0.1 on a
    # unit-variance root, so every draw explains at least 1.0 > 0.99, and
    # the last draw is shrunk to explain exactly half
    dag = Dag.from_edges(101, [(j, 101) for j in range(1, 101)])
    model = sample_normalized_model(dag, seed=0)
    assert abs(model.error_vars[100] - 0.5) <= 1e-12
    assert abs(observational_covariance(model)[100, 100] - 1.0) <= 1e-12


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Dag(2, ((),)), ParameterError, "expected 2 parent sets, got 1"),
        (lambda: GaussianCausalModel(Dag.empty(2), np.zeros((3, 3)), [1.0, 1.0]), ParameterError,
         "weight matrix must be 2x2, got (3, 3)"),
        (lambda: GaussianCausalModel(Dag.empty(2), np.zeros((2, 2)), [1.0, 1.0, 1.0]), ParameterError,
         "error variance vector must have length 2"),
        (lambda: InterventionSpec({InterventionTarget.of(1): ([math.nan], [1.0])}), ParameterError,
         "non-finite parameters for target (1,)"),
        (lambda: Dataset(0, (), np.empty((0, 0))), ParameterError, "dataset must have at least one column"),
        (lambda: sample_random_dag(0, 0.0, 1), ParameterError, "vertex count must be a positive integer, got 0"),
        (lambda: sample_random_dag(3, 1.0, 1.5), ParameterError, "seed must be an integer, got 1.5"),
        (lambda: sample_random_dag(3, 1.0, 2**64), ParameterError, "seed must fit in 64 bits"),
        (lambda: parse_model("p 0\n"), DataError, "line 1: cannot parse 'p 0' (vertex count must be positive)"),
        # the target's members in range are solved, and the dataset then refuses it
        (lambda: sample_dataset(sample_normalized_model(Dag.from_edges(2, [(1, 2)]), 0), [InterventionTarget.of(1, 3)],
                                InterventionSpec.constant([InterventionTarget.of(1, 3)], 1.0, 1.0), 1),
         ParameterError, "target vertex 3 is out of range 1..2"),
    ],
    ids=["parent-sets", "weight-shape", "variance-length", "spec-non-finite", "dataset-p0", "random-dag-p0",
         "float-seed", "seed-2**64", "parse-p0", "sampled-target-out-of-range"],
)
def test_model_errors_name_their_cause(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message
