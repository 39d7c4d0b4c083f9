"""Acceptance gate: one test and one printed verdict line per criterion.

Each test prints ``acceptance <n> <name>: PASS/FAIL <measurements>`` so a
plain pytest run documents the measured margins next to the stated
tolerances.  The criteria:

    1. full-data log-likelihood equals a sum of exact multivariate normal
       log-densities (100 random instances, 1e-8 absolute);
    2. the closed-form MLE matches a gradient-free numeric maximizer
       (50 instances, 1e-4 parameterwise, 1e-6 in likelihood);
    3. the penalized score is constant across every enumerated equivalence
       class (100 classes, 1e-9 relative spread);
    4. the seven-vertex demo trio separates exactly as documented;
    5. the exact dynamic program reproduces the brute-force best score
       bit-for-bit and never scores below greedy (20 datasets);
    6. a two-vertex model with one strong interventional row is oriented
       correctly in at least 95% of 200 replicates;
    7. median SHD strictly shrinks along n in {100, 1000, 10000} and exact
       recovery is more frequent at the large n (30 replicates);
    8. stronger intervention means do not hurt: median SHD at mu=10 is at
       most that at mu=1, one-sided paired sign test at alpha=0.05;
    9. invariant suites: precision-matrix identities (1e-9), likelihood
       decomposition (1e-8), SHD metric axioms (1000 triples), vanishing
       finite-difference gradient at the MLE (1e-4).
"""

import itertools
import math
import statistics

import numpy as np
from scipy.optimize import minimize
from scipy.stats import binomtest

from interdag import (
    Dag,
    EssentialGraph,
    ExperimentConfig,
    GaussianCausalModel,
    InterventionSpec,
    InterventionTarget,
    LocalScoreCache,
    TargetFamily,
    adjacency,
    derive_seed,
    decomposed_log_likelihood,
    enumerate_class,
    estimate_essential_graph,
    exhaustive_dp,
    greedy_search,
    interventional_moments,
    local_stats,
    log_likelihood,
    markov_equivalent_interventional,
    mle_given_dag,
    natural_params,
    run_consistency_experiment,
    sample_dataset,
    sample_random_dag,
    shd,
    sufficient_stats,
)

from helpers import all_dags, demo_trio, density_oracle_loglik, random_instance

LOG2PI = math.log(2 * math.pi)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"acceptance {label}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"acceptance {label}: {detail}"


def _vertex_negll(X: np.ndarray, y: np.ndarray):
    n = len(y)

    def f(theta):
        b, ls2 = theta[:-1], theta[-1]
        r = y - X @ b
        return 0.5 * (n * (LOG2PI + ls2) + float(r @ r) / math.exp(ls2))

    return f


def _numeric_vertex_mle(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, float]:
    """Nelder-Mead maximizer of the per-vertex likelihood, restarted to rest."""
    f = _vertex_negll(X, y)
    theta = np.zeros(X.shape[1] + 1)
    best = math.inf
    for _ in range(3):
        res = minimize(
            f, theta, method="Nelder-Mead",
            options=dict(xatol=1e-10, fatol=1e-13, maxiter=50_000, maxfev=50_000),
        )
        theta = res.x
        if best - res.fun < 1e-13:
            best = res.fun
            break
        best = res.fun
    return theta, best


def test_1_likelihood_matches_density_oracle():
    worst = 0.0
    for i in range(100):
        p = 2 + i % 5
        n = 60 + (i * 7) % 141
        model, family, spec, data = random_instance(1100 + i, p=p, n=n)
        stats = sufficient_stats(data)
        got = log_likelihood(model, stats, spec)
        want = density_oracle_loglik(model, data, spec)
        worst = max(worst, abs(got - want))
    _verdict(
        "1 likelihood-oracle", worst < 1e-8,
        f"max_abs_diff={worst:.3e} over 100 instances (tol 1e-8)",
    )


def test_2_closed_form_mle_matches_numeric_maximizer():
    worst_param = 0.0
    worst_ll = 0.0
    for i in range(50):
        p = 2 + i % 4
        n = 120 + (i * 13) % 80
        model, family, spec, data = random_instance(10_000 + i, p=p, n=n)
        loc = local_stats(sufficient_stats(data), family)
        fit = mle_given_dag(model.dag, loc)
        ll_closed = 0.0
        ll_num = 0.0
        for k in range(1, p + 1):
            pa = model.dag.parents(k)
            rows = np.array([x for t, x in data.rows() if k not in t])
            X = rows[:, [j - 1 for j in pa]]
            y = rows[:, k - 1]
            theta, fun = _numeric_vertex_mle(X, y)
            s2_num = math.exp(theta[-1])
            b_fit = fit.weights[k - 1, [j - 1 for j in pa]]
            s2_fit = fit.error_vars[k - 1]
            diff = abs(s2_num - s2_fit)
            if pa:
                diff = max(diff, float(np.max(np.abs(theta[:-1] - b_fit))))
            worst_param = max(worst_param, diff)
            f = _vertex_negll(X, y)
            ll_num -= fun
            ll_closed -= f(np.concatenate([b_fit, [math.log(s2_fit)]]))
        worst_ll = max(worst_ll, abs(ll_closed - ll_num))
    _verdict(
        "2 mle-numeric-oracle", worst_param < 1e-4 and worst_ll < 1e-6,
        f"max_param_diff={worst_param:.3e} (tol 1e-4) "
        f"max_loglik_diff={worst_ll:.3e} (tol 1e-6) over 50 instances",
    )


def test_3_score_constant_on_equivalence_classes():
    worst_rel = 0.0
    largest = 0
    for i in range(100):
        p = 4 + i % 3
        model, family, spec, data = random_instance(3300 + i, p=p, n=150)
        loc = local_stats(sufficient_stats(data), family)
        cache = LocalScoreCache(loc)
        scores = [cache.dag_score(m) for m in enumerate_class(model.dag, family)]
        spread = (max(scores) - min(scores)) / max(1.0, abs(max(scores)))
        worst_rel = max(worst_rel, spread)
        largest = max(largest, len(scores))
    _verdict(
        "3 score-invariance", worst_rel < 1e-9,
        f"max_relative_spread={worst_rel:.3e} over 100 classes "
        f"(largest class {largest}, tol 1e-9)",
    )


def test_4_demo_trio_separation():
    d, d1, d2 = demo_trio()
    obs = TargetFamily.of(())
    withfour = TargetFamily.of((), (4,))
    same_d1 = markov_equivalent_interventional(d, d1, withfour)
    diff_d2 = not markov_equivalent_interventional(d, d2, withfour)
    all_obs = all(
        markov_equivalent_interventional(x, y, obs)
        for x, y in itertools.combinations((d, d1, d2), 2)
    )
    ok = same_d1 and diff_d2 and all_obs
    _verdict(
        "4 demo-trio", ok,
        f"equivalent_with_target4={same_d1} separated_third={diff_d2} "
        f"all_equivalent_observationally={all_obs}",
    )


def test_5_exact_search_is_exact():
    score_mismatches = 0
    below_greedy = 0
    for p, count in ((3, 10), (4, 10)):
        dags = all_dags(p)
        for i in range(count):
            model, family, spec, data = random_instance(5500 + 97 * p + i, p=p, n=80)
            loc = local_stats(sufficient_stats(data), family)
            cache = LocalScoreCache(loc)
            best = max(cache.dag_score(d) for d in dags)
            dp_score = cache.dag_score(exhaustive_dp(loc))
            greedy_score = cache.dag_score(greedy_search(loc)[0])
            if dp_score != best:
                score_mismatches += 1
            if dp_score < greedy_score:
                below_greedy += 1
    _verdict(
        "5 dp-exactness", score_mismatches == 0 and below_greedy == 0,
        f"brute_force_mismatches={score_mismatches} "
        f"below_greedy={below_greedy} over 20 datasets (exact equality)",
    )


def test_6_single_intervention_orients_two_vertex_model():
    dag = Dag.from_edges(2, [(1, 2)])
    weights = np.zeros((2, 2))
    weights[1, 0] = 1.0
    model = GaussianCausalModel(dag, weights, np.ones(2))
    t1 = InterventionTarget.of(1)
    spec = InterventionSpec.constant([t1], 10.0, 0.2**2)
    family = TargetFamily.of((), (1,))
    want = EssentialGraph(2, frozenset({(1, 2)}), frozenset())
    hits = 0
    for rep in range(200):
        seq = [InterventionTarget.empty()] * 100 + [t1]
        data = sample_dataset(model, seq, spec, seed=derive_seed(6600, rep))
        if estimate_essential_graph(data, family) == want:
            hits += 1
    _verdict(
        "6 orientation-by-intervention", hits >= 190,
        f"recovered 1->2 in {hits}/200 replicates (need >= 190)",
    )


def test_7_median_shd_shrinks_with_n():
    config = ExperimentConfig(
        seed=7700, p=10, expected_degree=1.8, n_grid=(100, 1000, 10_000),
        k=5, replicates_per_target=2, mu_grid=(10.0,), tau=0.2,
        replicates=30, method="greedy",
    )
    rows = run_consistency_experiment(config)
    medians = []
    fractions = []
    for n in config.n_grid:
        group = [r for r in rows if r.n == n]
        medians.append(statistics.median(r.shd for r in group))
        fractions.append(sum(1 for r in group if r.exact) / len(group))
    ok = medians[0] > medians[1] > medians[2] and fractions[2] > fractions[0]
    _verdict(
        "7 consistency-trend", ok,
        f"median_shd={medians} (strictly decreasing) "
        f"exact_fraction n=100: {fractions[0]:.3f} vs n=10000: {fractions[2]:.3f}",
    )


def test_8_strong_means_do_not_hurt():
    config = ExperimentConfig(
        seed=8800, p=20, expected_degree=1.9, n_grid=(1000,),
        k=4, replicates_per_target=5, mu_grid=(1.0, 10.0), tau=0.2,
        replicates=30, method="greedy",
    )
    rows = run_consistency_experiment(config)
    weak = {r.replicate: r.shd for r in rows if r.mu == 1.0}
    strong = {r.replicate: r.shd for r in rows if r.mu == 10.0}
    med_weak = statistics.median(weak.values())
    med_strong = statistics.median(strong.values())
    wins = sum(1 for i in weak if strong[i] < weak[i])
    losses = sum(1 for i in weak if strong[i] > weak[i])
    if wins + losses:
        pvalue = binomtest(wins, wins + losses, alternative="greater").pvalue
    else:
        pvalue = 1.0
    ok = med_strong <= med_weak and pvalue < 0.05
    _verdict(
        "8 intervention-mean-effect", ok,
        f"median_shd mu=10: {med_strong} vs mu=1: {med_weak}, paired sign test "
        f"wins={wins} losses={losses} p={pvalue:.2e} (alpha 0.05)",
    )


def test_9_invariant_suites():
    # precision-matrix identities
    worst_id = 0.0
    for seed in range(25):
        model, family, spec, _ = random_instance(9900 + seed, p=5, n=10)
        for target in family:
            nat = natural_params(model, target, spec)
            mu, cov = interventional_moments(model, target, spec)
            p = model.p
            worst_id = max(worst_id, float(np.max(np.abs(nat.precision @ cov - np.eye(p)))))
            worst_id = max(worst_id, float(np.max(np.abs(nat.nu - nat.precision @ mu))))
            if not target.is_empty:
                mu_u, tau2 = spec.for_target(target)
                worst_id = max(worst_id, abs(nat.quad_form - float(np.sum(mu_u**2 / tau2))))
            sign, logdet = np.linalg.slogdet(nat.precision)
            worst_id = max(worst_id, abs(nat.log_det - logdet) if sign > 0 else math.inf)

    # likelihood decomposition
    worst_split = 0.0
    for seed in range(10):
        model, family, spec, data = random_instance(9950 + seed, p=4, n=90)
        st = sufficient_stats(data)
        loc = local_stats(st, family)
        full = log_likelihood(model, st, spec)
        split = decomposed_log_likelihood(model, loc, st, spec)
        worst_split = max(worst_split, abs(full - split))

    # SHD metric axioms on random triples
    pool = [sample_random_dag(5, 1.8, 9000 + i) for i in range(30)]
    rng = np.random.default_rng(9901)
    axioms_ok = True
    for _ in range(1000):
        i, j, k = rng.integers(0, len(pool), size=3)
        x, y, z = pool[i], pool[j], pool[k]
        axioms_ok &= shd(x, y) == shd(y, x)
        axioms_ok &= (shd(x, y) == 0) == bool(np.array_equal(adjacency(x), adjacency(y)))
        axioms_ok &= shd(x, z) <= shd(x, y) + shd(y, z)

    # first-order optimality of the closed-form MLE
    worst_grad = 0.0
    for seed in (19, 20, 21):
        model, family, spec, data = random_instance(seed, p=4, n=200)
        loc = local_stats(sufficient_stats(data), family)
        fit = mle_given_dag(model.dag, loc)
        for k in range(1, 5):
            pa = model.dag.parents(k)
            idx = [k - 1] + [j - 1 for j in pa]
            S = loc.mixture(k)[np.ix_(idx, idx)]
            n_k = loc.count_excluding(k)

            def vertex_obj(b, v):
                coeff = np.concatenate([[1.0], -b])
                q = float(coeff @ S @ coeff)
                return -0.5 * n_k * (q / v + math.log(v))

            b_fit = fit.weights[k - 1, [j - 1 for j in pa]]
            v_fit = fit.error_vars[k - 1]
            for axis in range(len(pa)):
                h = 1e-5
                up, dn = b_fit.copy(), b_fit.copy()
                up[axis] += h
                dn[axis] -= h
                worst_grad = max(
                    worst_grad, abs(vertex_obj(up, v_fit) - vertex_obj(dn, v_fit)) / (2 * h)
                )
            h = 1e-5 * v_fit  # relative step, curvature scales like 1/v^3
            worst_grad = max(
                worst_grad,
                abs(vertex_obj(b_fit, v_fit + h) - vertex_obj(b_fit, v_fit - h)) / (2 * h),
            )

    ok = worst_id < 1e-9 and worst_split < 1e-8 and axioms_ok and worst_grad < 1e-4
    _verdict(
        "9 invariant-suites", ok,
        f"identity_max={worst_id:.3e} (tol 1e-9) decomposition_max={worst_split:.3e} "
        f"(tol 1e-8) shd_axioms_1000_triples={bool(axioms_ok)} "
        f"mle_gradient_max={worst_grad:.3e} (tol 1e-4)",
    )
