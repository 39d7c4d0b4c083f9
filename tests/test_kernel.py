"""The batched regression kernel behind every local score.

Core claims:
    - Fitting a stack of parent sets gives, for every set, the same bits as
      fitting that set alone, and both equal the one-set-at-a-time oracle in
      helpers (np.linalg.cond, scipy's cho_factor/cho_solve, v @ M @ v).
      That holds too for a stack that mixes vertices, each set under its own
      vertex's mixture, with proven and unproven mixtures in one stack.
    - That holds for blocks conditioned worse than 1e12, for blocks whose
      condition number lies on either side of 1e11 and of 1e12, for
      collinear blocks whose residual is not positive, and for stacks with
      an exactly singular block or whose stacked condition number raises,
      where only the offending sets are unusable.
    - The SVD condition number runs on every parent block of a stack from a
      mixture that is not proven well conditioned, as one stacked call, or
      block by block when that call raises; it runs on no block of a proven
      one.
    - Each set that passes the conditioning test is factored and solved by
      exactly one in-place dposv call (dpotrf then dpotrs, the routines
      cho_factor/cho_solve call), and no other set is.  A block of cond 3
      that dposv finds indefinite is unusable, with zero coefficients and a
      NaN residual, and its neighbours in the stack keep their bits.
    - ||S||_1 ||L^-1||_1 ||L^-1||_inf, from the Cholesky factor L, bounds
      cond_2(S) from above.  A mixture that _proven_well_conditioned accepts
      (finite, exactly symmetric, Cholesky-factorable, that bound <= 1e11)
      has every parent block conditioned no worse than 1e11, and lets the
      kernel skip the conditioning test with the same usable flags and bits
      for every parent set; a singular mixture, a duplicated column, an
      indefinite mixture of cond 3, a 1-ulp asymmetry and an inf entry are
      not accepted.
    - Scores of sets of many vertices in one call have the bits of
      local_score on each set, -inf for a vertex with no more excluding rows
      than parents included.
    - Every score of a row from score_insertions has the bits of
      local_score on that set, including the -inf of sets with no more
      usable rows than parents, and a tail that is out of range, equal to
      the vertex or already a parent is rejected.
"""

import itertools
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interdag import (
    Dataset,
    InterventionTarget,
    ParameterError,
    local_score,
    local_stats,
    score_insertions,
    sufficient_stats,
)
from interdag import likelihood
from interdag.likelihood import LocalStats, _cond_bound, _fit_rows, _proven_well_conditioned

from helpers import random_instance, reference_fit_row


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _same(fit, ref) -> bool:
    """Bitwise equality of two kernel results, None included."""
    if fit is None or ref is None:
        return fit is None and ref is None
    return fit[0].shape == ref[0].shape and fit[0].tobytes() == ref[0].tobytes() and _bits(fit[1]) == _bits(ref[1])


def _stack(S: np.ndarray) -> np.ndarray:
    """``S`` as the mixture of every vertex: the stack ``_fit_rows`` indexes."""
    return np.broadcast_to(S, (len(S), *S.shape))


def _fits(S: np.ndarray, k_idx: int, sets: list[list[int]]) -> list:
    """The kernel's results for ``sets`` as one stack: (b, resid) per usable set, else None."""
    usable, coefs, resid = _fit_rows(_stack(S), k_idx, sets)
    assert len(usable) == len(coefs) == len(resid) == len(sets)
    return [(b, float(r)) if ok else None for ok, b, r in zip(usable, coefs, resid)]


def _check_stack(S: np.ndarray, k_idx: int, sets: list[list[int]]) -> list:
    """Fit ``sets`` as one stack; assert each equals its single fit and the oracle."""
    stacked = _fits(S, k_idx, sets)
    for pa, fit in zip(sets, stacked):
        ref = reference_fit_row(S, k_idx, pa)
        assert _same(fit, ref), (k_idx, pa, fit, ref)
        assert _same(_fits(S, k_idx, [pa])[0], ref), (k_idx, pa)
    return stacked


def _moments(X: np.ndarray) -> np.ndarray:
    return (X.T @ X) / X.shape[0]


def test_every_parent_set_of_a_random_instance():
    _, family, _, data = random_instance(71, p=7, n=400)
    loc = local_stats(sufficient_stats(data), family)
    for k in range(7):
        others = [j for j in range(7) if j != k]
        for d in range(7):
            _check_stack(loc.mixtures[k], k, [list(c) for c in itertools.combinations(others, d)])


def test_ill_conditioned_blocks_are_unusable():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((200, 5))
    X[:, 2] = X[:, 1] + 1e-9 * X[:, 3]  # columns 1 and 2 nearly equal
    S = _moments(X)
    assert np.linalg.cond(S[np.ix_([1, 2], [1, 2])]) > 1e12
    fits = _check_stack(S, 0, [[1, 2], [1, 3], [2, 4], [3, 4], [1, 2]])
    assert fits[0] is None and fits[4] is None
    assert all(f is not None for f in fits[1:4])


def _spread_moments(seed: int, size: int) -> tuple[np.ndarray, list[list[int]], list[int]]:
    """Moments of columns 0..2, copies of column 1 perturbed by eps * noise,
    eps from 1e-3 to 1e-8, and a column of zeros.

    Returns the moments, the parent sets of ``size`` (2 or 3) that hold
    column 1 and one perturbed copy, whose blocks have cond_2 from about 1e6
    to 1e16, and the exactly singular set that holds the zero column instead.
    """
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((300, 3))
    eps = np.logspace(-3, -8, 26)
    copies = [base[:, 1] + e * rng.standard_normal(300) for e in eps]
    S = _moments(np.column_stack([base, *copies, np.zeros(300)]))
    zero = 3 + len(eps)
    fixed = [1, 2][:size - 1]
    return S, [fixed + [j] for j in range(3, zero)], fixed + [zero]


@pytest.mark.parametrize("seed, size", [(41, 2), (42, 2), (43, 3), (44, 3)])
def test_conditioning_spread_around_the_limit(seed, size):
    S, near, singular = _spread_moments(seed, size)
    conds = np.array([np.linalg.cond(S[np.ix_(pa, pa)]) for pa in near])
    # blocks on both sides of 1e11, the proof's limit, and of 1e12, the SVD's
    for low, high in ((1e10, 1e11), (1e11, 1e12), (1e12, 1e13)):
        assert ((conds > low) & (conds <= high)).any(), (low, high)
    fits = _check_stack(S, 0, near)
    assert [f is None for f in fits] == list(conds > 1e12)
    # one exactly singular block in the middle of the stack is unusable, and
    # only it
    mixed = near[::2] + [singular] + near[1::2]
    fits = _check_stack(S, 0, mixed)
    assert fits[len(near[::2])] is None


def test_svd_runs_on_every_block_unless_the_mixture_is_proven(monkeypatch):
    seen = []
    cond = np.linalg.cond

    def counting_cond(x, *args, **kwargs):
        seen.append(np.array(x))
        return cond(x, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "cond", counting_cond)
    rng = np.random.default_rng(17)
    S = _moments(rng.standard_normal((200, 6)))
    assert _proven_well_conditioned(S)
    sets = [list(c) for c in itertools.combinations(range(1, 6), 3)]
    blocks = np.stack([S[np.ix_(pa, pa)] for pa in sets])
    # not proven: one stacked SVD of every parent block, well conditioned or not
    slow = _fit_rows(_stack(S), 0, sets)
    assert slow[0].all()
    assert len(seen) == 1 and seen[0].tobytes() == blocks.tobytes()
    # proven: no SVD at all, and the same bits
    seen.clear()
    fast = _fit_rows(_stack(S), 0, sets, proven=True)
    assert seen == []
    assert [a.tobytes() for a in fast] == [a.tobytes() for a in slow]
    # a NaN in column 3 makes the stacked SVD raise: then every block gets
    # its own, and only the sets that hold column 3 are unusable
    S[3, :] = S[:, 3] = math.nan
    seen.clear()
    usable, _, _ = _fit_rows(_stack(S), 0, sets)
    assert list(usable) == [3 not in pa for pa in sets]
    assert len(seen) == 1 + len(sets) and seen[0].shape == blocks.shape
    assert all(b.shape == (3, 3) for b in seen[1:])


def _indefinite_moments() -> np.ndarray:
    """Moments of five random columns, with the parent block of columns 1
    and 2 replaced by [[1, 2], [2, 1]]: symmetric and conditioned 3, but
    indefinite."""
    S = _moments(np.random.default_rng(19).standard_normal((200, 5)))
    S[np.ix_([1, 2], [1, 2])] = [[1.0, 2.0], [2.0, 1.0]]
    return S


def test_indefinite_block_the_bound_clears_is_unusable():
    S = _indefinite_moments()
    sets = [[1, 3], [3, 4], [2, 4], [1, 2], [1, 4], [2, 3], [3, 4]]
    blocks = np.stack([S[np.ix_(pa, pa)] for pa in sets])
    assert np.linalg.eigvalsh(blocks[3]).min() < 0
    # every block passes the conditioning test, the indefinite one with cond
    # 3 and ||M||_1 ||M^-1||_1 = 3, so only the Cholesky factorization can
    # reject it
    assert (np.linalg.cond(blocks) <= 1e12).all()
    assert np.linalg.norm(blocks[3], 1) * np.linalg.norm(np.linalg.inv(blocks[3]), 1) == pytest.approx(3.0)
    fits = _check_stack(S, 0, sets)
    assert [f is None for f in fits] == [pa == [1, 2] for pa in sets]
    usable, coefs, resid = _fit_rows(_stack(S), 0, sets)
    assert not usable[3] and not coefs[3].any() and math.isnan(resid[3])


def test_dposv_runs_once_per_set_that_passes_the_conditioning_test(monkeypatch):
    assert not hasattr(likelihood, "dpotrf") and not hasattr(likelihood, "dpotrs")
    seen, in_place = [], []
    dposv = likelihood.dposv

    def counting_dposv(a, b, *args):
        seen.append(np.array(a, order="C"))
        c, x, info = dposv(a, b, *args)
        # the factor and the solution overwrite the arguments: no copy
        in_place.append(np.shares_memory(c, a) and np.shares_memory(x, b))
        return c, x, info

    monkeypatch.setattr(likelihood, "dposv", counting_dposv)
    # blocks with cond_2 from about 1e6 to 1e16, and one exactly singular
    S, near, singular = _spread_moments(41, 2)
    sets = near[:13] + [singular] + near[13:]
    usable, _, _ = _fit_rows(_stack(S), 0, sets)
    passed = [pa for pa in sets if np.linalg.cond(S[np.ix_(pa, pa)]) <= 1e12]
    assert 0 < len(passed) < len(sets) - 1
    assert [b.tobytes() for b in seen] == [S[np.ix_(pa, pa)].tobytes() for pa in passed]
    assert list(usable) == [pa in passed for pa in sets]
    assert in_place and all(in_place)
    # the indefinite block passes the conditioning test: one call, which
    # rejects it
    seen.clear()
    S = _indefinite_moments()
    usable, _, _ = _fit_rows(_stack(S), 0, [[1, 3], [1, 2], [3, 4]])
    assert list(usable) == [True, False, True] and len(seen) == 3
    # an empty parent set needs no factorization
    seen.clear()
    _fit_rows(_stack(S), 0, [[]] * 4)
    assert seen == []


def _mixed_scale_mixture(seed: int, p: int, n: int, duplicate: bool) -> tuple[np.ndarray, int]:
    """One vertex's exclusion mixture of n rows of mixed scale over random
    targets, and its excluding row count; ``duplicate`` copies a column."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-3, 3, size=p)
    X *= 10.0 ** rng.uniform(-1, 1, size=(n, 1))
    if duplicate:
        src, dst = rng.choice(p, size=2, replace=False)
        X[:, dst] = X[:, src]
    choices = [InterventionTarget.empty(), InterventionTarget.of(1), InterventionTarget.of(p)]
    targets = tuple(choices[i] for i in rng.integers(len(choices), size=n))
    loc = local_stats(sufficient_stats(Dataset(p, targets, X)))
    k = int(rng.integers(1, p + 1))
    return loc.mixture(k), loc.count_excluding(k)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 7),
    n=st.integers(1, 60),
    duplicate=st.booleans(),
)
def test_proven_mixture_skips_the_conditioning_test_with_the_same_bits(seed, p, n, duplicate):
    S, n_ex = _mixed_scale_mixture(seed, p, n, duplicate)
    proven = _proven_well_conditioned(S)
    if duplicate or n_ex < p:
        assert not proven
    if not proven:
        return
    for k in range(p):
        others = [j for j in range(p) if j != k]
        for d in range(min(3, p - 1) + 1):
            sets = [list(c) for c in itertools.combinations(others, d)]
            fast = _fit_rows(_stack(S), k, sets, proven=True)
            slow = _fit_rows(_stack(S), k, sets)
            assert [a.tobytes() for a in fast] == [a.tobytes() for a in slow], (k, d)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 7),
    n=st.integers(1, 60),
    duplicate=st.booleans(),
)
def test_cond_bound_holds_and_proven_mixtures_have_well_conditioned_blocks(seed, p, n, duplicate):
    S, _ = _mixed_scale_mixture(seed, p, n, duplicate)
    try:
        np.linalg.cholesky(S)
        factored = True
    except np.linalg.LinAlgError:
        factored = False
    cond = np.linalg.cond(S)
    # past 1e12 the SVD's own relative error, about cond * 1e-16, outgrows
    # the margin, and a numerically singular mixture that Cholesky factors
    # by rounding gives neither number a meaning; the proof's limit is 1e11
    if factored and cond <= 1e12:
        assert _cond_bound(S) >= cond * (1 - 1e-6)
    if _proven_well_conditioned(S):
        for d in range(1, min(3, p) + 1):
            for pa in itertools.combinations(range(p), d):
                assert np.linalg.cond(S[np.ix_(pa, pa)]) <= 1e11 * (1 + 1e-6), pa


@pytest.mark.parametrize("case", ["well", "singular", "duplicate", "indefinite", "asymmetric", "inf"])
def test_proven_well_conditioned_cases(case):
    rng = np.random.default_rng(24)
    X = rng.standard_normal((200, 6))
    if case == "singular":
        X = X[:5]  # five rows, six columns
    if case == "duplicate":
        X[:, 4] = X[:, 2]
    S = _moments(X)
    if case == "indefinite":
        # eigenvalues 3, 3 and -1: cond 3, and ||S||_1 ||S^-1||_1 is 3 too, so
        # only the Cholesky factorization rejects it
        S = np.array([[3.0, 0.0, 0.0], [0.0, 1.0, 2.0], [0.0, 2.0, 1.0]])
        assert np.linalg.cond(S) == pytest.approx(3.0) and np.linalg.cond(S) <= 1e12
        assert np.linalg.norm(S, 1) * np.linalg.norm(np.linalg.inv(S), 1) == pytest.approx(3.0)
        assert _cond_bound(S) == math.inf
    if case == "asymmetric":
        S[1, 3] = np.nextafter(S[1, 3], math.inf)
    if case == "inf":
        S[2, 2] = math.inf
    assert _proven_well_conditioned(S) == (case == "well")


def test_collinear_blocks_have_non_positive_residuals():
    # every row is (1, 2, 3): each vertex is an exact multiple of any other
    S = _moments(np.array([[1.0, 2.0, 3.0]] * 2))
    fits = _check_stack(S, 0, [[1], [2]])
    assert fits[0][1] == 0.0
    # an exact linear combination, whose residual rounds below zero, next to
    # usable sets in one stack
    rng = np.random.default_rng(2)
    X = rng.standard_normal((20, 4))
    X[:, 0] = 0.7 * X[:, 1] - 1.3 * X[:, 2]
    fits = _check_stack(_moments(X), 0, [[1, 3], [1, 2], [2, 3]])
    assert fits[1][1] < 0 < fits[0][1] and 0 < fits[2][1]


def test_sets_with_no_more_rows_than_parents_score_minus_inf():
    rng = np.random.default_rng(8)
    X = rng.standard_normal((3, 5))
    loc = local_stats(sufficient_stats(Dataset(5, (InterventionTarget.empty(),) * 3, X)))
    rows = [((2,), [3, 4]), ((2, 3), [4]), ((4, 3), [5]), ((2, 3, 4), [5])]
    scores = [s for parents, tails in rows for s in score_insertions(1, parents, tails, loc)]
    sets = [(*parents, tail) for parents, tails in rows for tail in tails]
    assert scores == [local_score(1, pa, loc) for pa in sets]
    assert math.isfinite(scores[0]) and math.isfinite(scores[1])
    assert scores[2:] == [-math.inf] * 3


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_column_only_spoils_its_own_sets(bad):
    rng = np.random.default_rng(11)
    S = _moments(rng.standard_normal((100, 6)))
    S[3, :] = bad
    S[:, 3] = bad
    sets = [[1, 2], [1, 3], [2, 4], [3, 5], [4, 5]]
    if math.isnan(bad):
        # the stacked condition number raises, so the kernel falls back per set
        blocks = np.stack([S[np.ix_(pa, pa)] for pa in sets])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cond(blocks)
    fits = _check_stack(S, 0, sets)
    assert fits[1] is None and fits[3] is None
    assert all(fits[i] is not None for i in (0, 2, 4))


def test_nan_in_the_vertex_row_reaches_the_residual():
    rng = np.random.default_rng(12)
    S = _moments(rng.standard_normal((100, 4)))
    S[0, 0] = math.nan
    fits = _check_stack(S, 0, [[1], [2], [3]])
    assert all(f is not None and math.isnan(f[1]) for f in fits)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 7),
    n=st.integers(1, 40),
    size=st.integers(0, 6),
    collinear=st.booleans(),
)
def test_stack_matches_single_fits_and_oracle(seed, p, n, size, collinear):
    """Random mixtures: rows of mixed scale split over random targets."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, p)) * rng.uniform(0.01, 100.0, size=p)
    if collinear and p >= 3:
        X[:, 2] = rng.uniform(-3, 3) * X[:, 1] + rng.uniform(-1, 1) * X[:, 0]
    choices = [InterventionTarget.empty(), InterventionTarget.of(1), InterventionTarget.of(p)]
    targets = tuple(choices[i] for i in rng.integers(len(choices), size=n))
    loc = local_stats(sufficient_stats(Dataset(p, targets, X)))
    k = int(rng.integers(p))
    others = [j for j in range(p) if j != k]
    size = min(size, p - 1)
    combos = [list(c) for c in itertools.combinations(others, size)]
    picked = rng.choice(len(combos), size=min(len(combos), 12), replace=True)
    _check_stack(loc.mixtures[k], k, [combos[i] for i in picked])


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 7),
    n=st.integers(1, 60),
    size=st.integers(0, 4),
    trust=st.booleans(),
)
def test_stack_of_many_vertices_matches_single_vertex_fits_and_oracle(seed, p, n, size, trust):
    """One stack mixing vertices, and mixing mixtures that are proven well
    conditioned with ones that are not: every vertex takes its mixture at
    random from a clean draw or from one with a duplicated column, which no
    proof accepts.  The duplicate is exact or off by about 1e-7, which
    leaves blocks positive definite but conditioned worse than 1e12, so
    that only the conditioning test rejects them.  ``trust`` passes the
    proofs on; otherwise every set runs the conditioning test."""
    rng = np.random.default_rng(seed)
    clean = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-2, 2, size=p)
    spoiled = clean.copy()
    src, dst = rng.choice(p, size=2, replace=False)
    spoiled[:, dst] = spoiled[:, src] * (1.0 + rng.choice([0.0, 1e-7]) * rng.standard_normal(n))
    choices = [InterventionTarget.empty(), InterventionTarget.of(1), InterventionTarget.of(p)]
    targets = tuple(choices[i] for i in rng.integers(len(choices), size=n))
    stacks = [local_stats(sufficient_stats(Dataset(p, targets, X))).mixtures for X in (clean, spoiled)]
    pick = rng.integers(2, size=p)
    mixtures = np.stack([stacks[pick[k]][k] for k in range(p)])
    proofs = np.array([trust and _proven_well_conditioned(M) for M in mixtures])
    assert not proofs[pick == 1].any()
    size = min(size, p - 1)
    vertex = rng.integers(p, size=12)
    sets = [sorted(rng.choice(np.delete(np.arange(p), k), size=size, replace=False)) for k in vertex]
    usable, coefs, resid = _fit_rows(mixtures, vertex, sets, proofs[vertex])
    assert len(usable) == len(coefs) == len(resid) == len(sets)
    for i, (k, pa) in enumerate(zip(vertex.tolist(), sets)):
        alone = _fit_rows(mixtures, k, [pa], bool(proofs[k]))
        stacked = (usable[i], coefs[i], resid[i])
        assert [a[0].tobytes() for a in alone] == [a.tobytes() for a in stacked], (k, pa)
        fit = (coefs[i], float(resid[i])) if usable[i] else None
        assert _same(fit, reference_fit_row(mixtures[k], k, pa)), (k, pa)


def test_scores_of_many_vertices_match_local_scores():
    # vertex 1 is in every target and vertex 2 has two excluding rows, so
    # their sets of two parents score -inf among finite scores of the others
    rng = np.random.default_rng(5)
    t1, t12 = InterventionTarget.of(1), InterventionTarget.of(1, 2)
    data = Dataset(5, (t1,) * 2 + (t12,) * 48, rng.standard_normal((50, 5)))
    loc = local_stats(sufficient_stats(data))
    assert loc.counts_excluding.tolist() == [0, 2, 50, 50, 50]
    heads = np.array([3, 1, 2, 5, 4, 2, 3, 5])
    sets = [(1, 2), (2, 3), (1, 3), (3, 4), (1, 5), (4, 5), (4, 5), (1, 2)]
    got = likelihood._scores(heads, sets, loc, 0.7)
    want = [local_score(k, pa, loc, penalty=0.7) for k, pa in zip(heads.tolist(), sets)]
    assert [_bits(s) for s in got] == [_bits(s) for s in want]
    assert [math.isfinite(s) for s in got] == [k > 2 for k in heads.tolist()]
    # the empty sets of every vertex in one call
    got = likelihood._scores(np.arange(1, 6), [()] * 5, loc, 0.7)
    assert [_bits(s) for s in got] == [_bits(local_score(k, (), loc, penalty=0.7)) for k in range(1, 6)]


def test_score_insertions_match_local_score():
    _, family, _, data = random_instance(72, p=6, n=300)
    loc = local_stats(sufficient_stats(data), family)
    rows = [((), [2, 3, 2]), ((3, 2), [5, 4, 6]), ({4, 5}, [6])]
    for parents, tails in rows:
        got = score_insertions(1, parents, tails, loc)
        sets = [{*parents, tail} for tail in tails]
        assert [_bits(s) for s in got] == [_bits(local_score(1, pa, loc)) for pa in sets]
    assert score_insertions(1, (3,), [2], loc, penalty=0.0) == [local_score(1, (2, 3), loc, penalty=0.0)]
    # every row of every vertex, against one-at-a-time scores
    for k in range(1, 7):
        others = [j for j in range(1, 7) if j != k]
        for size in range(3):
            for parents in itertools.combinations(others, size):
                tails = [j for j in others if j not in parents][::-1]
                got = score_insertions(k, parents, tails, loc)
                want = [local_score(k, (*parents, tail), loc) for tail in tails]
                assert [_bits(s) for s in got] == [_bits(s) for s in want]


def test_score_insertions_checks_its_arguments():
    _, family, _, data = random_instance(73, p=4, n=100)
    loc = local_stats(sufficient_stats(data), family)
    with pytest.raises(ParameterError, match="vertex 1 cannot be its own parent"):
        score_insertions(1, (2,), [3, 1], loc)
    with pytest.raises(ParameterError, match="vertex 2 is already a parent of vertex 1"):
        score_insertions(1, (2, 3), [4, 2], loc)
    with pytest.raises(ParameterError, match="parent 5 is out of range"):
        score_insertions(1, (), [2, 5], loc)
    with pytest.raises(ParameterError, match="parent 0 is out of range"):
        score_insertions(1, (2,), [0], loc)
    with pytest.raises(ParameterError, match="vertex 5 is out of range"):
        score_insertions(5, (), [1], loc)
    with pytest.raises(ParameterError, match="vertex 1 cannot be its own parent"):
        score_insertions(1, (1,), [2], loc)
    with pytest.raises(ParameterError, match="penalty must be finite and non-negative"):
        score_insertions(1, (), [2], loc, penalty=-1.0)
    assert score_insertions(1, (2,), [], loc) == []


def test_kernel_on_hand_built_mixtures():
    # LocalStats assembled directly, the way the score sees it
    rng = np.random.default_rng(21)
    S = _moments(rng.standard_normal((60, 4)))
    mixtures = np.stack([S] * 4)
    loc = LocalStats(4, 60, np.full(4, 60), mixtures)
    rows = [((2,), [3, 4]), ((4,), [3])]
    for parents, tails in rows:
        for tail, score in zip(tails, score_insertions(1, parents, tails, loc)):
            pa = sorted((*parents, tail))
            b, resid = reference_fit_row(S, 0, [j - 1 for j in pa])
            want = -0.5 * 60 * (1.0 + math.log(resid)) - 0.5 * math.log(60) * 2
            assert _bits(score) == _bits(want)
