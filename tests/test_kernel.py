"""The batched regression kernel behind every local score.

Core claims:
    - Fitting a stack of parent sets gives, for every set, the same bits as
      fitting that set alone, and both equal the one-set-at-a-time oracle in
      helpers (np.linalg.cond, scipy's cho_factor/cho_solve, v @ M @ v).
    - That holds for blocks conditioned worse than 1e12, for collinear
      blocks whose residual is not positive, and for stacks whose stacked
      condition number raises, where only the offending sets are unusable.
    - Scores from LocalScoreCache.score_many equal one-at-a-time scores,
      including the -inf of sets with no more usable rows than parents, and
      every real fit is cached once.
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
    LocalScoreCache,
    ParameterError,
    local_score,
    local_stats,
    sufficient_stats,
)
from interdag.likelihood import LocalStats, _fit_rows

from helpers import random_instance, reference_fit_row


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _same(fit, ref) -> bool:
    """Bitwise equality of two kernel results, None included."""
    if fit is None or ref is None:
        return fit is None and ref is None
    return fit[0].shape == ref[0].shape and fit[0].tobytes() == ref[0].tobytes() and _bits(fit[1]) == _bits(ref[1])


def _check_stack(S: np.ndarray, k_idx: int, sets: list[list[int]]) -> list:
    """Fit ``sets`` as one stack; assert each equals its single fit and the oracle."""
    stacked = _fit_rows(S, k_idx, sets)
    assert len(stacked) == len(sets)
    for pa, fit in zip(sets, stacked):
        ref = reference_fit_row(S, k_idx, pa)
        assert _same(fit, ref), (k_idx, pa, fit, ref)
        assert _same(_fit_rows(S, k_idx, [pa])[0], ref), (k_idx, pa)
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
    cache = LocalScoreCache(loc)
    sets = [(2, 3), (2, 4), (2, 3, 4), (3, 4, 5), (2, 3, 4, 5)]
    scores = cache.score_many(1, sets)
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


def test_score_many_matches_score_and_caches_each_fit_once():
    _, family, _, data = random_instance(72, p=6, n=300)
    loc = local_stats(sufficient_stats(data), family)
    batched, single = LocalScoreCache(loc), LocalScoreCache(loc)
    sets = [(), (2,), (3, 2), (2, 3), (4, 5, 6), (2,), {6, 3}]
    got = batched.score_many(1, sets)
    assert [_bits(s) for s in got] == [_bits(single.score(1, pa)) for pa in sets]
    assert [_bits(s) for s in got] == [_bits(local_score(1, pa, loc)) for pa in sets]
    assert len(batched) == len(single) == 5
    assert batched.score_many(1, [(4, 6, 5)]) == [got[4]]
    assert len(batched) == 5


def test_score_many_checks_its_arguments():
    _, family, _, data = random_instance(73, p=4, n=100)
    loc = local_stats(sufficient_stats(data), family)
    cache = LocalScoreCache(loc)
    with pytest.raises(ParameterError):
        cache.score_many(1, [(2,), (1,)])
    with pytest.raises(ParameterError):
        cache.score_many(5, [()])
    with pytest.raises(ParameterError):
        cache.score_many(1, [(5,)])
    with pytest.raises(ParameterError):
        LocalScoreCache(loc, penalty=-1.0).score_many(1, [(2,)])
    assert len(cache) == 0
    assert cache.score_many(1, []) == []


def test_kernel_on_hand_built_mixtures():
    # LocalStats assembled directly, the way the score sees it
    rng = np.random.default_rng(21)
    S = _moments(rng.standard_normal((60, 4)))
    mixtures = np.stack([S] * 4)
    loc = LocalStats(4, 60, np.full(4, 60), mixtures)
    cache = LocalScoreCache(loc)
    sets = [(2, 3), (2, 4), (3, 4)]
    for pa, score in zip(sets, cache.score_many(1, sets)):
        b, resid = reference_fit_row(S, 0, [j - 1 for j in pa])
        want = -0.5 * 60 * (1.0 + math.log(resid)) - 0.5 * math.log(60) * 2
        assert _bits(score) == _bits(want)
