"""Sufficient statistics, exact likelihood, closed-form MLE, and BIC scoring.

Core claims:
    - sufficient_stats accumulates per-target counts and second moments
      exactly; each read of a moment computes it again, with the same bits,
      read-only.
    - local_stats mixes per-target moments with the right weights and flags
      vertices that appear in every observed target; it raises
      CapacityError before allocating mixtures larger than physical memory.
    - mle_given_dag matches both Monte Carlo truth and a gradient-free
      numeric maximizer computed from raw rows.  It rejects a vertex count
      other than the statistics', and, naming the vertex, too few rows, a
      singular parent block and a residual variance of zero.
    - log_likelihood equals a row-by-row multivariate normal density sum and
      equals the per-vertex decomposition path; both raise DataError,
      with no floating-point warning, on moments that overflow.
    - natural-parameter identities (precision inverse, transformed mean,
      quadratic form, log-determinant) hold to 1e-9.
    - local_score/bic_score expose the penalized per-vertex closed form with
      -inf sentinels for infeasible parent sets.
    - A vertex count other than the statistics', a target without
      intervention parameters and a parent out of range raise ParameterError
      with their messages.
"""

import math
import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

import interdag.likelihood
from interdag import (
    CapacityError,
    Dag,
    DataError,
    Dataset,
    DegenerateFitError,
    GaussianCausalModel,
    InterventionSpec,
    InterventionTarget,
    LocalScoreCache,
    ParameterError,
    TargetFamily,
    bic_score,
    decomposed_log_likelihood,
    derive_seed,
    local_score,
    local_stats,
    log_likelihood,
    mle_given_dag,
    natural_params,
    interventional_moments,
    sample_dataset,
    sample_normalized_model,
    sample_random_dag,
    sufficient_stats,
)

from helpers import density_oracle_loglik, random_instance


def _obs(n, p, seed):
    dag = sample_random_dag(p, 1.5, derive_seed(seed, 0))
    model = sample_normalized_model(dag, derive_seed(seed, 1))
    data = sample_dataset(model, [InterventionTarget.empty()] * n, seed=derive_seed(seed, 2))
    return model, data


# -- sufficient statistics ----------------------------------------------------


def test_stats_single_row():
    x = np.array([1.5, -2.0])
    ds = Dataset(2, (InterventionTarget.empty(),), x.reshape(1, 2))
    st = sufficient_stats(ds)
    assert st.n == 1
    assert st.counts[InterventionTarget.empty()] == 1
    assert np.array_equal(st.second_moments[InterventionTarget.empty()], np.outer(x, x))


def test_stats_duplication_invariance():
    _, data = _obs(40, 3, seed=1)
    doubled = Dataset(3, data.targets * 2, np.vstack([data.values, data.values]))
    a, b = sufficient_stats(data), sufficient_stats(doubled)
    t = InterventionTarget.empty()
    assert b.counts[t] == 2 * a.counts[t]
    assert np.allclose(a.second_moments[t], b.second_moments[t], atol=1e-12)


def test_stats_mixed_targets_and_row_order():
    t0, t1 = InterventionTarget.empty(), InterventionTarget.of(1)
    rows = np.arange(10.0).reshape(5, 2)
    ds = Dataset(2, (t0, t1, t0, t1, t1), rows)
    st = sufficient_stats(ds)
    assert st.counts[t0] == 2 and st.counts[t1] == 3
    hand = (np.outer(rows[0], rows[0]) + np.outer(rows[2], rows[2])) / 2
    assert np.allclose(st.second_moments[t0], hand, atol=1e-12)
    perm = [4, 2, 0, 3, 1]
    st2 = sufficient_stats(Dataset(2, tuple(ds.targets[i] for i in perm), rows[perm]))
    assert np.allclose(st.second_moments[t1], st2.second_moments[t1], atol=1e-12)


def test_stats_moments_are_computed_on_each_read():
    model, data = _obs(20, 3, seed=3)
    st = sufficient_stats(data)
    t = InterventionTarget.empty()
    assert list(st.second_moments) == list(st.first_moments) == [t] and len(st.second_moments) == 1
    first, again = st.second_moments[t], st.second_moments[t]
    assert first is not again and first.tobytes() == again.tobytes()
    assert not first.flags.writeable and not st.first_moments[t].flags.writeable
    assert np.array_equal(st.first_moments[t], data.values.mean(axis=0))
    with pytest.raises(KeyError):
        st.second_moments[InterventionTarget.of(1)]


def test_stats_rejects_empty_dataset():
    ds = Dataset(2, (), np.zeros((0, 2)))
    with pytest.raises(DataError):
        sufficient_stats(ds)


# -- local mixtures -----------------------------------------------------------


def test_local_stats_observational_only():
    _, data = _obs(30, 4, seed=2)
    st = sufficient_stats(data)
    loc = local_stats(st)
    S0 = st.second_moments[InterventionTarget.empty()]
    for k in range(1, 5):
        assert loc.count_excluding(k) == 30
        assert np.array_equal(loc.mixture(k), S0)
        assert loc.identified(k)


def test_local_stats_mixture_arithmetic():
    t0, t1 = InterventionTarget.empty(), InterventionTarget.of(1)
    rng = np.random.Generator(np.random.Philox(7))
    rows = rng.standard_normal((10, 2))
    ds = Dataset(2, (t0,) * 4 + (t1,) * 6, rows)
    st = sufficient_stats(ds)
    loc = local_stats(st)
    assert loc.count_excluding(1) == 4
    assert loc.count_excluding(2) == 10
    assert np.allclose(loc.mixture(1), st.second_moments[t0], atol=1e-15)
    hand = 0.4 * st.second_moments[t0] + 0.6 * st.second_moments[t1]
    assert np.allclose(loc.mixture(2), hand, atol=1e-14)


def test_local_stats_refuses_mixtures_beyond_physical_memory(monkeypatch):
    # three single-vertex targets and observational rows: three patterns of 3x3
    t0 = InterventionTarget.empty()
    targets = (t0,) * 4 + tuple(InterventionTarget.of(v) for v in (1, 2, 3))
    stats = sufficient_stats(Dataset(3, targets, np.arange(21.0).reshape(7, 3)))
    monkeypatch.setattr(interdag.likelihood, "_physical_memory", lambda: 3 * 9 * 8 - 1)
    with pytest.raises(CapacityError, match=r"3 exclusion patterns over p=3 vertices need 216 bytes"):
        local_stats(stats)
    for memory in (3 * 9 * 8, None):  # enough, or unknown: no check
        monkeypatch.setattr(interdag.likelihood, "_physical_memory", lambda: memory)
        assert local_stats(stats).mixtures.nbytes == 216


def test_physical_memory_probe():
    memory = interdag.likelihood._physical_memory()
    assert memory is None or memory > 0


def test_local_stats_unidentified_vertex():
    t1, t12 = InterventionTarget.of(1), InterventionTarget.of(1, 2)
    rows = np.ones((4, 3))
    ds = Dataset(3, (t1, t1, t12, t12), rows)
    loc = local_stats(sufficient_stats(ds))
    assert not loc.identified(1)
    assert loc.count_excluding(1) == 0
    assert loc.unidentified_vertices == (1,)
    assert loc.identified(2) and loc.identified(3)


def test_local_stats_family_must_cover_observed():
    _, data = _obs(10, 2, seed=3)
    st = sufficient_stats(data)
    with pytest.raises(ParameterError, match=r"observed target \(\) is missing"):
        local_stats(st, TargetFamily.of((1,), (2,)))
    loc = local_stats(st, TargetFamily.of((), (1,)))
    assert loc.count_excluding(2) == 10


# -- closed-form MLE ----------------------------------------------------------


def test_mle_empty_dag():
    _, data = _obs(25, 3, seed=4)
    loc = local_stats(sufficient_stats(data))
    fit = mle_given_dag(Dag.empty(3), loc)
    assert np.array_equal(fit.weights, np.zeros((3, 3)))
    for k in range(1, 4):
        assert fit.error_vars[k - 1] == pytest.approx(loc.mixture(k)[k - 1, k - 1], abs=1e-15)


def test_mle_recovers_generating_weights():
    beta = 0.85
    d = Dag.from_edges(2, [(1, 2)])
    W = np.zeros((2, 2))
    W[1, 0] = beta
    model = GaussianCausalModel(d, W, [1.0, 1.0 - beta**2])
    data = sample_dataset(model, [InterventionTarget.empty()] * 100000, seed=11)
    fit = mle_given_dag(d, local_stats(sufficient_stats(data)))
    assert abs(fit.weights[1, 0] - beta) < 0.05
    assert abs(fit.error_vars[1] - (1.0 - beta**2)) < 0.05


def test_mle_beats_generating_parameters():
    model, family, spec, data = random_instance(seed=5, p=4, n=300)
    st = sufficient_stats(data)
    fit = mle_given_dag(model.dag, local_stats(st, family))
    fitted_ll = log_likelihood(fit.to_model(), st, spec)
    true_ll = log_likelihood(model, st, spec)
    assert fitted_ll >= true_ll - 1e-9


def test_mle_degenerate_count_error():
    ds = Dataset(2, (InterventionTarget.empty(),), [[0.3, 0.7]])
    loc = local_stats(sufficient_stats(ds))
    with pytest.raises(DegenerateFitError, match="vertex 2"):
        mle_given_dag(Dag.from_edges(2, [(1, 2)]), loc)


def test_mle_vertex_count_must_match_the_statistics():
    _, data = _obs(25, 3, seed=4)
    loc = local_stats(sufficient_stats(data))
    with pytest.raises(ParameterError, match="disagree on the vertex count"):
        mle_given_dag(Dag.empty(4), loc)


def test_mle_singular_parent_block_error():
    # vertex 3's two parents have identical columns
    _, data = _obs(50, 3, seed=4)
    values = np.array(data.values)
    values[:, 1] = values[:, 0]
    loc = local_stats(sufficient_stats(Dataset(3, data.targets, values)))
    with pytest.raises(DegenerateFitError, match="vertex 3: singular parent moment block"):
        mle_given_dag(Dag.from_edges(3, [(1, 3), (2, 3)]), loc)


def test_mle_degenerate_residual_variance_error():
    # vertex 2's column equals its parent's: every moment is exactly 1, so
    # the coefficient is 1 and the residual variance exactly 0
    column = np.where(np.random.default_rng(3).random(40) < 0.5, -1.0, 1.0)
    data = Dataset(2, (InterventionTarget.empty(),) * 40, np.column_stack([column, column]))
    loc = local_stats(sufficient_stats(data))
    assert loc.mixture(2).tolist() == [[1.0, 1.0], [1.0, 1.0]]
    with pytest.raises(DegenerateFitError, match="vertex 2: degenerate residual variance 0.0"):
        mle_given_dag(Dag.from_edges(2, [(1, 2)]), loc)


def test_mle_numeric_oracle_from_raw_rows():
    # gradient-free maximizer over (b, log sigma2) started away from the answer
    for seed in (6, 7, 8):
        model, family, spec, data = random_instance(seed=seed, p=3, n=120)
        loc = local_stats(sufficient_stats(data), family)
        fit = mle_given_dag(model.dag, loc)
        for k in range(1, 4):
            pa = model.dag.parents(k)
            b_hat = fit.weights[k - 1, [j - 1 for j in pa]]
            s_hat = fit.error_vars[k - 1]
            b_num, s_num, ll_num = _numeric_vertex_mle(k, pa, data)
            if pa:
                assert np.max(np.abs(b_hat - b_num)) < 1e-4
            assert abs(s_hat - s_num) < 1e-4
            ll_closed = _vertex_loglik(k, pa, b_hat, s_hat, data)
            assert ll_closed >= ll_num - 1e-6


def _vertex_loglik(k, parents, b, sigma2, data):
    """Per-vertex conditional log-likelihood from raw rows (targets excluding k)."""
    idx = [j - 1 for j in parents]
    total = 0.0
    for target, x in data.rows():
        if k in target:
            continue
        mean = float(np.dot(b, x[idx])) if idx else 0.0
        total += -0.5 * math.log(2 * math.pi * sigma2) - (x[k - 1] - mean) ** 2 / (2 * sigma2)
    return total


def _numeric_vertex_mle(k, parents, data):
    m = len(parents)

    def neg(theta):
        return -_vertex_loglik(k, parents, theta[:m], math.exp(theta[m]), data)

    start = np.zeros(m + 1)  # b = 0, sigma2 = 1
    res = minimize(
        neg,
        start,
        method="Nelder-Mead",
        options=dict(xatol=1e-9, fatol=1e-12, maxiter=40000, maxfev=40000),
    )
    return res.x[:m], math.exp(res.x[m]), -res.fun


# -- full likelihood ----------------------------------------------------------


def test_log_likelihood_standard_normal_case():
    _, data = _obs(50, 3, seed=9)
    st = sufficient_stats(data)
    model = GaussianCausalModel(Dag.empty(3), np.zeros((3, 3)), np.ones(3))
    S = st.second_moments[InterventionTarget.empty()]
    expected = -0.5 * 50 * np.trace(S) - 0.5 * 50 * 3 * math.log(2 * math.pi)
    assert log_likelihood(model, st) == pytest.approx(expected, abs=1e-9)


def test_log_likelihood_density_oracle():
    for seed in range(20):
        model, family, spec, data = random_instance(seed=100 + seed, p=2 + seed % 5, n=60)
        st = sufficient_stats(data)
        got = log_likelihood(model, st, spec)
        want = density_oracle_loglik(model, data, spec)
        assert abs(got - want) < 1e-8


def test_log_likelihood_decomposition_paths_agree():
    for seed in range(10):
        model, family, spec, data = random_instance(seed=200 + seed, p=4, n=90)
        st = sufficient_stats(data)
        loc = local_stats(st, family)
        full = log_likelihood(model, st, spec)
        split = decomposed_log_likelihood(model, loc, st, spec)
        assert abs(full - split) < 1e-8


def test_log_likelihoods_on_moments_that_overflow_are_a_data_error():
    """Five rows target every vertex and hold 1e200: their second moments
    overflow, yet no exclusion mixture includes them, so local_stats
    accepts the data.  Both likelihoods raise DataError naming that target,
    with no floating-point warning: any warning is an error here."""
    p = 3
    everything = InterventionTarget.of(1, 2, 3)
    values = np.vstack([np.random.default_rng(4).normal(size=(40, p)), np.full((5, p), 1e200)])
    st = sufficient_stats(Dataset(p, (InterventionTarget.empty(),) * 40 + (everything,) * 5, values))
    loc = local_stats(st)
    model = GaussianCausalModel(Dag.empty(p), np.zeros((p, p)), np.ones(p))
    spec = InterventionSpec.constant([everything], 0.0, 1.0)
    message = r"target \[1, 2, 3\] has moments that are not finite"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DataError, match=message):
            log_likelihood(model, st, spec)
        with pytest.raises(DataError, match=message):
            decomposed_log_likelihood(model, loc, st, spec)


def test_fitted_loglik_matches_full_likelihood_up_to_nuisance_terms():
    model, family, spec, data = random_instance(seed=12, p=4, n=150)
    st = sufficient_stats(data)
    loc = local_stats(st, family)
    fit = mle_given_dag(model.dag, loc)
    full = log_likelihood(fit.to_model(), st, spec)
    nuisance = 0.0
    for target in st.targets():
        if target.is_empty:
            continue
        mu, tau2 = spec.for_target(target)
        n_t = st.counts[target]
        S = st.second_moments[target]
        m1 = st.first_moments[target]
        for i, v in enumerate(target.members):
            j = v - 1
            nuisance += n_t * (
                -0.5 * math.log(2 * math.pi * tau2[i])
                - (S[j, j] - 2 * mu[i] * m1[j] + mu[i] ** 2) / (2 * tau2[i])
            )
    assert full == pytest.approx(fit.log_likelihood + nuisance, abs=1e-8)


# -- natural parameters -------------------------------------------------------


def test_natural_params_observational():
    model, _, _, _ = random_instance(seed=13, p=4, n=10)
    nat = natural_params(model, InterventionTarget.empty())
    I_B = np.eye(4) - model.weights
    K = I_B.T @ np.diag(1.0 / model.error_vars) @ I_B
    assert np.allclose(nat.precision, K, atol=1e-12)
    assert np.max(np.abs(nat.nu)) == 0.0
    assert nat.quad_form == 0.0
    assert nat.log_det == pytest.approx(-np.sum(np.log(model.error_vars)), abs=1e-12)


def test_natural_params_identities():
    for seed in range(25):
        model, family, spec, _ = random_instance(seed=300 + seed, p=5, n=10)
        for target in family:
            nat = natural_params(model, target, spec)
            mu, cov = interventional_moments(model, target, spec)
            p = model.p
            assert np.max(np.abs(nat.precision @ cov - np.eye(p))) < 1e-9
            assert np.max(np.abs(nat.nu - nat.precision @ mu)) < 1e-9
            if not target.is_empty:
                mu_u, tau2 = spec.for_target(target)
                quad_direct = float(np.sum(mu_u**2 / tau2))
                quad_solve = float(nat.nu @ np.linalg.solve(nat.precision, nat.nu))
                assert abs(nat.quad_form - quad_direct) < 1e-9
                assert abs(nat.quad_form - quad_solve) < 1e-9
            sign, logdet = np.linalg.slogdet(nat.precision)
            assert sign > 0
            assert abs(nat.log_det - logdet) < 1e-9


# -- local scores and BIC -------------------------------------------------------


def test_local_score_no_parents_closed_form():
    _, data = _obs(40, 3, seed=14)
    loc = local_stats(sufficient_stats(data))
    for k in range(1, 4):
        s_kk = loc.mixture(k)[k - 1, k - 1]
        want = -0.5 * 40 * (1 + math.log(s_kk))
        assert local_score(k, (), loc) == pytest.approx(want, abs=1e-12)


def test_local_score_penalty_default_and_override():
    _, data = _obs(40, 3, seed=15)
    loc = local_stats(sufficient_stats(data))
    base = local_score(1, (2,), loc, penalty=0.0)
    assert local_score(1, (2,), loc) == pytest.approx(base - 0.5 * math.log(40), abs=1e-12)
    assert local_score(1, (2,), loc, penalty=2.0) == pytest.approx(base - 2.0, abs=1e-12)
    assert local_score(1, (2,), loc, penalty=0.5 * math.log(100)) == pytest.approx(
        base - 0.5 * math.log(100), abs=1e-12
    )


def test_local_score_unpenalized_monotone_in_parents():
    _, data = _obs(60, 5, seed=16)
    loc = local_stats(sufficient_stats(data))
    chain = [(), (2,), (2, 3), (2, 3, 4), (2, 3, 4, 5)]
    scores = [local_score(1, pa, loc, penalty=0.0) for pa in chain]
    for a, b in zip(scores, scores[1:]):
        assert b >= a - 1e-9


def test_local_score_infeasible_sentinel():
    ds = Dataset(3, (InterventionTarget.empty(),) * 2, np.array([[1.0, 2.0, 3.0]] * 2))
    loc = local_stats(sufficient_stats(ds))
    assert local_score(1, (2, 3), loc) == -math.inf  # n excluding k too small
    assert local_score(1, (2,), loc) == -math.inf  # collinear rows, zero residual
    with pytest.raises(ParameterError):
        local_score(1, (1,), loc)
    with pytest.raises(ParameterError):
        local_score(0, (), loc)
    with pytest.raises(ParameterError):
        local_score(1, (2,), loc, penalty=-1.0)


def test_bic_score_assembly_and_chain_preference():
    beta = 0.9
    chain = Dag.from_edges(3, [(1, 2), (2, 3)])
    W = np.zeros((3, 3))
    W[1, 0] = beta
    W[2, 1] = beta
    model = GaussianCausalModel(chain, W, [1.0, 1 - beta**2, 1 - beta**2])
    data = sample_dataset(model, [InterventionTarget.empty()] * 10000, seed=17)
    loc = local_stats(sufficient_stats(data))
    empty_total = bic_score(Dag.empty(3), loc)
    assert empty_total == pytest.approx(
        sum(local_score(k, (), loc) for k in range(1, 4)), abs=1e-12
    )
    assert bic_score(chain, loc) > empty_total


def test_score_cache_consistency():
    _, data = _obs(50, 4, seed=18)
    loc = local_stats(sufficient_stats(data))
    cache = LocalScoreCache(loc)
    assert len(cache) == 0
    a = cache.score(2, (1, 3))
    assert len(cache) == 1
    assert cache.score(2, (3, 1)) == a  # canonical key
    assert len(cache) == 1
    assert a == local_score(2, (1, 3), loc)
    d = Dag.from_edges(4, [(1, 2), (3, 2), (2, 4)])
    assert cache.dag_score(d) == pytest.approx(bic_score(d, loc), abs=1e-12)


# -- first-order optimality -----------------------------------------------------


def test_finite_difference_gradient_vanishes_at_mle():
    for seed in (19, 20, 21):
        model, family, spec, data = random_instance(seed=seed, p=4, n=200)
        loc = local_stats(sufficient_stats(data), family)
        fit = mle_given_dag(model.dag, loc)
        step = 1e-5

        def objective(weights, variances):
            total = 0.0
            for k in range(1, 5):
                pa = model.dag.parents(k)
                idx = [k - 1] + [j - 1 for j in pa]
                coeff = np.concatenate([[1.0], -weights[k - 1, [j - 1 for j in pa]]])
                q = float(coeff @ loc.mixture(k)[np.ix_(idx, idx)] @ coeff)
                n_k = loc.count_excluding(k)
                total += -0.5 * n_k * (q / variances[k - 1] + math.log(variances[k - 1]))
            return total

        grads = []
        for k in range(1, 5):
            for j in model.dag.parents(k):
                up = fit.weights.copy()
                dn = fit.weights.copy()
                up[k - 1, j - 1] += step
                dn[k - 1, j - 1] -= step
                grads.append(
                    (objective(up, fit.error_vars) - objective(dn, fit.error_vars))
                    / (2 * step)
                )
            # relative step: the curvature of the variance coordinate scales
            # with 1/sigma^3, so a fixed step loses accuracy at small sigma^2
            step_v = step * fit.error_vars[k - 1]
            up_v = fit.error_vars.copy()
            dn_v = fit.error_vars.copy()
            up_v[k - 1] += step_v
            dn_v[k - 1] -= step_v
            grads.append(
                (objective(fit.weights, up_v) - objective(fit.weights, dn_v)) / (2 * step_v)
            )
        assert np.max(np.abs(grads)) < 1e-4


# -- errors ----------------------------------------------------------------------


def _errors_instance():
    """A two-vertex chain, statistics of three columns, and statistics of
    two columns whose rows target vertex 1."""
    model = GaussianCausalModel(Dag.from_edges(2, [(1, 2)]), [[0.0, 0.0], [0.5, 0.0]], [1.0, 1.0])
    obs = InterventionTarget.empty()
    wide = sufficient_stats(Dataset(3, (obs, obs), [[0.0, 1.0, 2.0], [1.0, 0.0, 1.0]]))
    t1 = InterventionTarget.of(1)
    targeted = sufficient_stats(Dataset(2, (obs, obs, t1), [[0.0, 1.0], [1.0, 0.0], [2.0, 1.0]]))
    return model, wide, targeted


_DISAGREE = "model and statistics disagree on the vertex count"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m, w, t: log_likelihood(m, w), _DISAGREE),
        (lambda m, w, t: decomposed_log_likelihood(m, local_stats(w), w), _DISAGREE),
        (lambda m, w, t: bic_score(m.dag, local_stats(w)), "DAG and statistics disagree on the vertex count"),
        (lambda m, w, t: natural_params(m, InterventionTarget.of(2)),
         "intervention parameters required for target (2,)"),
        (lambda m, w, t: decomposed_log_likelihood(m, local_stats(t), t),
         "intervention parameters required for target (1,)"),
        (lambda m, w, t: local_score(1, [5], local_stats(w)), "parent 5 is out of range 1..3"),
    ],
    ids=["log-likelihood-p", "decomposed-p", "bic-p", "natural-params-spec", "decomposed-spec", "parent-range"],
)
def test_likelihood_errors_name_their_cause(call, message):
    with pytest.raises(ParameterError) as info:
        call(*_errors_instance())
    assert str(info.value) == message
