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
      cond_2(S) from above; it is the floor proof's bound with S as its own
      floor.  A mixture that _proven_well_conditioned accepts (finite,
      exactly symmetric, Cholesky-factorable, that bound <= 1e11)
      has every parent block conditioned no worse than 1e11, and lets the
      kernel skip the conditioning test with the same usable flags and bits
      for every parent set; a singular mixture, a duplicated column, an
      indefinite mixture of cond 3, a 1-ulp asymmetry and an inf entry are
      not accepted.  On random symmetric matrices, well and ill conditioned,
      singular, clearly indefinite or holding a NaN or an infinity, the
      factorization fails wherever numpy's eigenvalues show a clearly
      negative one, the bound is otherwise at least numpy's condition
      number, and every principal block of an accepted matrix is
      conditioned no worse than 1e12 by the SVD.
    - local_stats proves every pattern it can from one Cholesky
      factorization of the floor every mixture holds, the observational
      rows' weighted moment, less a rounding allowance: on random designs
      with and without observational rows, with fewer of them than
      vertices, a duplicated column, rows scaled per target, and a column
      scaled so that the bound lands near 1e11, every pattern that
      _proven_well_conditioned accepts is still proven, and every vertex
      and parent set gets the usable flags and bits of the fit with no
      pattern proven (the SVD path).  The fully targeted benchmark's shape
      (p=100) takes that one factorization and no proof of a pattern's own;
      with no observational rows there is no floor, and every pattern gets
      its own proof and that proof's flag.
    - Column j of a g-column dposv solve, laid out as the kernel lays it
      out, has the bits and the info of a one-column solve, at scales from
      1e-4 to 1e4, with near-duplicate columns and singular blocks.  So a
      group, a run of adjacent sets of one pattern and one parent set,
      takes one conditioning test and one dposv call for all of its sets,
      each with the bits of its fit alone, whole groups unusable included.
    - Scores of sets of many vertices in one call have the bits of
      local_score on each set, -inf for a vertex with no more excluding rows
      than parents included.  A call is fitted in kernel stacks of at most
      1,024 sets, and a group that a stack boundary cuts keeps those bits.
    - Every score of a row of insertions, built as greedy search builds
      it (a vertex's parents plus each tail, as sorted labels) and fitted by
      one _scores call, has the bits of local_score on that set, including
      the -inf of sets with no more usable rows than parents.
    - The score expression over a whole stack, numpy after math.log, has
      the bits of the scalar expression in helpers for every residual: both
      zeros, negatives, NaN, both infinities, subnormals, 1e±300 and values
      where np.log would round differently, with one count for the stack or
      one per set.
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
    InterventionSpec,
    InterventionTarget,
    local_score,
    local_stats,
    sample_dataset,
    sample_normalized_model,
    sample_random_dag,
    sufficient_stats,
)
from interdag import likelihood
from interdag.likelihood import (
    LocalStats,
    _fit_rows,
    _floor_margin,
    _inverse_norms,
    _proven_well_conditioned,
)

from helpers import random_instance, reference_fit_row, reference_penalized

# floors: every test here compares the kernel with in-repo oracles on one
# library build, the stacks that mix vertices through the flat take of every
# set's block against single-vertex fits and the one-set oracle, and the
# numpy score expression against the scalar one in helpers
# (test_score_expression_matches_the_scalar_oracle); the exact search's
# premise that a multi-column dposv solves each column as alone is here too
pytestmark = pytest.mark.floors


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _same(fit, ref) -> bool:
    """Bitwise equality of two kernel results, None included."""
    if fit is None or ref is None:
        return fit is None and ref is None
    return fit[0].shape == ref[0].shape and fit[0].tobytes() == ref[0].tobytes() and _bits(fit[1]) == _bits(ref[1])


def _hand_made(mixtures: np.ndarray, pattern_of, proven) -> LocalStats:
    """A ``LocalStats`` over the stack of pattern ``mixtures``, vertex k's
    pattern at ``pattern_of[k - 1]``, with the proof flags ``proven``; its
    counts are placeholders, which the kernel does not read."""
    p = mixtures.shape[-1]
    return LocalStats(p, 1, np.ones(p, dtype=np.int64), mixtures, np.asarray(pattern_of, dtype=np.intp),
                      np.asarray(proven, dtype=bool))


def _fit_under(S: np.ndarray, k_idx: int, sets, proven: bool = False):
    """``_fit_rows`` on ``sets`` of vertex ``k_idx`` as one stack, every
    vertex under the one mixture ``S``."""
    return _fit_rows(_hand_made(S[None], np.zeros(len(S)), [proven]), k_idx, sets)


def _insertion_scores(k: int, parents, tails: list[int], loc: LocalStats, penalty=None) -> list[float]:
    """Scores of ``parents`` plus each of ``tails``, from one ``_scores``
    call on rows built as greedy search builds a vertex's insertions."""
    rows = np.empty((len(tails), len(parents) + 1), dtype=np.intp)
    rows[:, :-1] = sorted(parents)
    rows[:, -1] = tails
    rows.sort(axis=1, kind="stable")
    return likelihood._scores(k, rows, loc, likelihood._checked_penalty(loc.n, penalty))


def _fits(S: np.ndarray, k_idx: int, sets: list[list[int]]) -> list:
    """The kernel's results for ``sets`` as one stack: (b, resid) per usable set, else None.
    An unusable set must have zero coefficients and a NaN residual."""
    usable, coefs, resid = _fit_under(S, k_idx, sets)
    assert len(usable) == len(coefs) == len(resid) == len(sets)
    assert all(ok or (not b.any() and math.isnan(r)) for ok, b, r in zip(usable, coefs, resid))
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
            _check_stack(loc.mixture(k + 1), k, [list(c) for c in itertools.combinations(others, d)])


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
    slow = _fit_under(S, 0, sets)
    assert slow[0].all()
    assert len(seen) == 1 and seen[0].tobytes() == blocks.tobytes()
    # proven: no SVD at all, and the same bits
    seen.clear()
    fast = _fit_under(S, 0, sets, True)
    assert seen == []
    assert [a.tobytes() for a in fast] == [a.tobytes() for a in slow]
    # a NaN in column 3 makes the stacked SVD raise: then every block gets
    # its own, and only the sets that hold column 3 are unusable
    S[3, :] = S[:, 3] = math.nan
    seen.clear()
    usable, _, _ = _fit_under(S, 0, sets)
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
    usable, coefs, resid = _fit_under(S, 0, sets)
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
    usable, _, _ = _fit_under(S, 0, sets)
    passed = [pa for pa in sets if np.linalg.cond(S[np.ix_(pa, pa)]) <= 1e12]
    assert 0 < len(passed) < len(sets) - 1
    assert [b.tobytes() for b in seen] == [S[np.ix_(pa, pa)].tobytes() for pa in passed]
    assert list(usable) == [pa in passed for pa in sets]
    assert in_place and all(in_place)
    # the indefinite block passes the conditioning test: one call, which
    # rejects it
    seen.clear()
    S = _indefinite_moments()
    usable, _, _ = _fit_under(S, 0, [[1, 3], [1, 2], [3, 4]])
    assert list(usable) == [True, False, True] and len(seen) == 3
    # an empty parent set needs no factorization
    seen.clear()
    _fit_under(S, 0, [[]] * 4)
    assert seen == []


def _bound(S: np.ndarray) -> float:
    """The conditioning bound ||S||_1 ||L^-1||_1 ||L^-1||_inf that proves S
    as its own floor, or inf when the factorization S = L L^T fails."""
    margin = _floor_margin(_inverse_norms(S), 0.0, 0, 0)
    return float(np.abs(S).sum(axis=0).max()) / margin if margin > 0 else math.inf


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
            fast = _fit_under(S, k, sets, True)
            slow = _fit_under(S, k, sets)
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
    factored = _inverse_norms(S) is not None
    cond = np.linalg.cond(S)
    # past 1e12 the SVD's own relative error, about cond * 1e-16, outgrows
    # the margin, and a numerically singular mixture that Cholesky factors
    # by rounding gives neither number a meaning; the proof's limit is 1e11
    if factored and cond <= 1e12:
        assert _bound(S) >= cond * (1 - 1e-6)
    if _proven_well_conditioned(S):
        for d in range(1, min(3, p) + 1):
            for pa in itertools.combinations(range(p), d):
                assert np.linalg.cond(S[np.ix_(pa, pa)]) <= 1e11 * (1 + 1e-6), pa


def _symmetric_matrix(seed: int, p: int, kind: str) -> np.ndarray:
    """An exactly symmetric p x p matrix Q diag(e) Q^T, of random scale, with
    a random orthogonal Q and eigenvalues e of ``kind``: spread over two
    decades ("well") or up to sixteen ("ill"), with one zero ("singular"),
    or with one negative of at least 1e-6 of the largest in size
    ("indefinite"); "nan" and "inf" put that value on a well conditioned
    matrix's diagonal or, mirrored, off it."""
    rng = np.random.default_rng(seed)
    Q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    e = 10.0 ** rng.uniform(-16 if kind == "ill" else -2, 0, size=p)
    if kind == "singular":
        e[rng.integers(p)] = 0.0
    if kind == "indefinite":
        e[rng.integers(p)] = -(10.0 ** rng.uniform(-6, 0))
    S = (Q * e) @ Q.T * 10.0 ** rng.uniform(-3, 3)
    S = np.triu(S) + np.triu(S, 1).T
    if kind in ("nan", "inf"):
        i, j = rng.integers(p, size=2)
        S[i, j] = S[j, i] = math.nan if kind == "nan" else math.inf
    return S


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(1, 7),
    kind=st.sampled_from(["well", "ill", "singular", "indefinite", "nan", "inf"]),
)
def test_proof_factorization_against_numpy(seed, p, kind):
    """numpy is the oracle of the proof's LAPACK, dpotrf and dtrtri.  The
    factorization fails wherever numpy's eigenvalues show one clearly
    negative, at most -1e-8 ||S||_2, since a Cholesky factorization that
    succeeds is exact for S plus a perturbation of about p u ||S||_2.
    Otherwise the bound is at least numpy's condition number, to within
    the SVD's own error, wherever that number means something (see
    test_cond_bound_holds_and_proven_mixtures_have_well_conditioned_blocks).
    A matrix that is not finite has no finite norm, so the bound proves
    nothing, whatever the factorization gives; and every principal block
    of a matrix the proof accepts is conditioned no worse than 1e12."""
    S = _symmetric_matrix(seed, p, kind)
    with np.errstate(over="ignore", invalid="ignore"):
        norms = _inverse_norms(S)
        bound = _bound(S)
    if not np.isfinite(S).all():
        assert not bound <= 1e11
        assert not _proven_well_conditioned(S)
        return
    eigenvalues = np.linalg.eigvalsh(S)
    if eigenvalues.min() < -1e-8 * np.abs(eigenvalues).max():
        assert norms is None
    cond = np.linalg.cond(S)
    if norms is not None and cond <= 1e12:
        assert bound >= cond * (1 - 1e-6)
    if _proven_well_conditioned(S):
        assert kind not in ("singular", "indefinite")
        for d in range(1, p + 1):
            blocks = np.stack([S[np.ix_(pa, pa)] for pa in itertools.combinations(range(p), d)])
            assert (np.linalg.cond(blocks) <= 1e12).all(), d


def _floor_design(seed: int, p: int, n_obs: int, duplicate: bool, spread: float) -> Dataset:
    """Rows over random targets of random sizes and scales: ``n_obs``
    observational rows first (none at all, or fewer than p), then one to
    twelve rows for each of one to four nonempty targets, each target's rows
    scaled by its own power of ten.  ``duplicate`` copies a column onto
    another; ``spread`` scales one column by 10**spread, so that from about
    5 the proof's bound lands near 1e11, and from about 6 the SVD rejects
    parent blocks that hold that column."""
    rng = np.random.default_rng(seed)
    members = [tuple(sorted(rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False) + 1))
               for _ in range(int(rng.integers(1, 5)))]
    targets = [InterventionTarget.empty()] * n_obs
    scales = [1.0] * n_obs
    for t in members:
        rows = int(rng.integers(1, 13))
        targets += [InterventionTarget(t)] * rows
        scales += [10.0 ** rng.uniform(-2, 2)] * rows
    X = rng.standard_normal((len(targets), p)) * np.array(scales)[:, None]
    if duplicate:
        src, dst = rng.choice(p, size=2, replace=False)
        X[:, dst] = X[:, src]
    X[:, rng.integers(p)] *= 10.0 ** spread
    return Dataset(p, tuple(targets), X)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(2, 7),
    n_obs=st.integers(0, 40),
    duplicate=st.booleans(),
    spread=st.one_of(st.just(0.0), st.floats(4.5, 7.0)),
)
def test_floor_proof_keeps_every_proof_and_every_bit(seed, p, n_obs, duplicate, spread):
    """Every pattern that a proof of its own accepts is still proven, and a
    pattern that the observational rows' floor proves instead gives, for
    every vertex and parent set, the usable flags and bits of the SVD path:
    the fit with no pattern proven."""
    local = local_stats(sufficient_stats(_floor_design(seed, p, n_obs, duplicate, spread)))
    for q, M in enumerate(local.mixtures):
        if _proven_well_conditioned(M):
            assert local.proven[q], q
    unproven = LocalStats(local.p, local.n, local.counts_excluding, local.mixtures, local.pattern_of,
                          np.zeros_like(local.proven))
    for k in range(p):
        others = [j for j in range(p) if j != k]
        for d in range(min(3, p - 1) + 1):
            sets = [list(c) for c in itertools.combinations(others, d)]
            fast = _fit_rows(local, k, sets)
            slow = _fit_rows(unproven, k, sets)
            assert [a.tobytes() for a in fast] == [a.tobytes() for a in slow], (k, d)


def _counted_proofs(monkeypatch) -> dict[str, int]:
    """Counts of Cholesky factorizations, the floor's and the proofs', each
    one ``_inverse_norms`` call, and of proofs of a pattern's own mixture,
    from here on."""
    calls = {"cholesky": 0, "proof": 0}
    for name, key in (("_inverse_norms", "cholesky"), ("_proven_well_conditioned", "proof")):
        def counted(S, _original=getattr(likelihood, name), _key=key):
            calls[_key] += 1
            return _original(S)

        monkeypatch.setattr(likelihood, name, counted)
    return calls


def test_one_floor_factorization_proves_every_pattern_of_a_fully_targeted_fit(monkeypatch):
    """The shape of the fully targeted benchmark input: 4,000 observational
    rows and ten rows on each of 100 single-vertex targets, so 100 patterns.
    One Cholesky factorization, of the observational rows' weighted moment,
    proves all of them, and no pattern needs a proof of its own."""
    p = 100
    model = sample_normalized_model(sample_random_dag(p, 1.5, 7), 8)
    singles = [InterventionTarget.of(v) for v in range(1, p + 1)]
    sequence = [InterventionTarget.empty()] * 4000 + [t for t in singles for _ in range(10)]
    stats = sufficient_stats(sample_dataset(model, sequence, InterventionSpec.constant(singles, 2.0, 0.5), 9))
    calls = _counted_proofs(monkeypatch)
    local = local_stats(stats)
    assert len(local.mixtures) == p and local.proven.all()
    assert calls == {"cholesky": 1, "proof": 0}


def test_without_observational_rows_every_pattern_is_proven_alone(monkeypatch):
    """Every vertex targeted and no observational rows: the fold's prefix
    is empty when the first pattern starts, so there is no floor, and each
    of the twelve patterns gets the proof of its own mixture, with the flag
    that proof gives."""
    p = 12
    model = sample_normalized_model(sample_random_dag(p, 1.5, 5), 6)
    singles = [InterventionTarget.of(v) for v in range(1, p + 1)]
    sequence = [t for t in singles for _ in range(5)]
    stats = sufficient_stats(sample_dataset(model, sequence, InterventionSpec.constant(singles, 2.0, 0.5), 7))
    calls = _counted_proofs(monkeypatch)
    local = local_stats(stats)
    assert len(local.mixtures) == p
    assert calls == {"cholesky": p, "proof": p}
    assert local.proven.tolist() == [_proven_well_conditioned(M) for M in local.mixtures]


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
        assert _inverse_norms(S) is None and _bound(S) == math.inf
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
    scores = [s for parents, tails in rows for s in _insertion_scores(1, parents, tails, loc)]
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
    _check_stack(loc.mixture(k + 1), k, [combos[i] for i in picked])


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
    locs = [local_stats(sufficient_stats(Dataset(p, targets, X))) for X in (clean, spoiled)]
    pick = rng.integers(2, size=p)
    mixtures = np.stack([locs[pick[k]].mixture(k + 1) for k in range(p)])
    proofs = np.array([trust and _proven_well_conditioned(M) for M in mixtures])
    assert not proofs[pick == 1].any()
    size = min(size, p - 1)
    vertex = rng.integers(p, size=12)
    sets = [sorted(rng.choice(np.delete(np.arange(p), k), size=size, replace=False)) for k in vertex]
    loc = _hand_made(mixtures, np.arange(p), proofs)
    usable, coefs, resid = _fit_rows(loc, vertex, sets)
    assert len(usable) == len(coefs) == len(resid) == len(sets)
    for i, (k, pa) in enumerate(zip(vertex.tolist(), sets)):
        alone = _fit_rows(loc, k, [pa])
        stacked = (usable[i], coefs[i], resid[i])
        assert [a[0].tobytes() for a in alone] == [a.tobytes() for a in stacked], (k, pa)
        fit = (coefs[i], float(resid[i])) if usable[i] else None
        assert _same(fit, reference_fit_row(mixtures[k], k, pa)), (k, pa)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    d=st.integers(1, 12),
    g=st.integers(1, 15),
    rows=st.integers(1, 40),
    scale=st.floats(0.0, 4.0),
    near=st.booleans(),
)
def test_each_column_of_a_dposv_solve_has_the_bits_of_a_one_column_solve(seed, d, g, rows, scale, near):
    """The premise of the kernel's groups: with one factored block, column
    j of a g-column dposv solve is bit-equal to the one-column call with the
    same block, and both report the same info.  The columns have scales
    from 10^-scale to 10^scale; ``near`` makes a column of the block and a
    right-hand side near-duplicates of others, and rows fewer than d leave
    the block singular.  The g columns are laid out as the kernel lays them
    out: a C-ordered (g, d) array, transposed, solved in place."""
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((rows, d + g)) * 10.0 ** rng.uniform(-scale, scale, size=d + g)
    if near and d > 1:
        X[:, d - 1] = X[:, 0] * (1.0 + 1e-9 * rng.standard_normal(rows))
    if near and g > 1:
        X[:, d + 1] = X[:, d] * (1.0 + 1e-12 * rng.standard_normal(rows))
    S = _moments(X)
    block, rhs = S[:d, :d], np.array(S[d:, :d])
    columns = rhs.copy()
    c, x, info = likelihood.dposv(np.array(block).T, columns.T, 1, 1, 1)
    assert np.shares_memory(x, columns)
    for j in range(g):
        c1, x1, info1 = likelihood.dposv(np.array(block).T, rhs[j].copy(), 1, 1, 1)
        assert info1 == info
        assert x1.tobytes() == columns[j].tobytes(), j


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    p=st.integers(3, 8),
    n=st.integers(2, 60),
    size=st.integers(1, 4),
    trust=st.booleans(),
)
def test_groups_share_one_dposv_call_with_the_bits_of_single_fits(seed, p, n, size, trust):
    """A stack of groups, adjacent sets of one pattern and one parent set,
    of several vertices each: one dposv call per group whose block passes
    the conditioning test, with one column per set, yet every set has the
    bits of its fit alone and of the oracle.  Each vertex is given one of
    two patterns, both in use, whose mixtures come from a clean draw or
    from one with a column duplicated exactly or to about 1e-7, which no
    proof accepts and whose blocks the conditioning test or dposv may
    reject, a whole group at a time; ``trust`` passes the proofs on.  A
    group is a parent set and some vertices of one pattern outside it."""
    columns = []
    dposv = likelihood.dposv

    def counting_dposv(a, b, *args):
        columns.append(b.shape[1] if b.ndim == 2 else 1)
        return dposv(a, b, *args)

    rng = np.random.default_rng(seed)
    clean = rng.standard_normal((n, p)) * 10.0 ** rng.uniform(-2, 2, size=p)
    spoiled = clean.copy()
    src, dst = rng.choice(p, size=2, replace=False)
    spoiled[:, dst] = spoiled[:, src] * (1.0 + rng.choice([0.0, 1e-7]) * rng.standard_normal(n))
    mixtures = np.stack([_moments(clean), _moments(spoiled)])
    proofs = np.array([trust and _proven_well_conditioned(M) for M in mixtures])
    pattern_of = rng.integers(2, size=p)
    pattern_of[rng.choice(p, size=2, replace=False)] = [0, 1]
    loc = _hand_made(mixtures, pattern_of, proofs)
    size = min(size, p - 1)
    vertex, sets = [], []
    groups: list[list] = []  # [pattern, parents, sets] per run of equal draws
    for _ in range(6):
        pa = sorted(rng.choice(p, size=size, replace=False).tolist())
        outside = [k for k in range(p) if k not in pa]
        q = int(rng.choice(pattern_of[outside]))
        outside = [k for k in outside if pattern_of[k] == q]
        members = rng.choice(outside, size=int(rng.integers(1, len(outside) + 1)), replace=False)
        vertex += members.tolist()
        sets += [pa] * len(members)
        if groups and groups[-1][:2] == [q, pa]:
            groups[-1][2] += len(members)
        else:
            groups.append([q, pa, len(members)])
    vertex = np.array(vertex)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(likelihood, "dposv", counting_dposv)
        usable, coefs, resid = _fit_rows(loc, vertex, sets)
    passed = [g for q, pa, g in groups if proofs[q] or np.linalg.cond(mixtures[q][np.ix_(pa, pa)]) <= 1e12]
    assert columns == passed
    for i, (k, pa) in enumerate(zip(vertex.tolist(), sets)):
        alone = _fit_rows(loc, k, [pa])
        assert [a[0].tobytes() for a in alone] == [a[i].tobytes() for a in (usable, coefs, resid)], (k, pa)
        fit = (coefs[i], float(resid[i])) if usable[i] else None
        assert _same(fit, reference_fit_row(mixtures[pattern_of[k]], k, pa)), (k, pa)


def test_groups_of_the_exact_search_each_take_one_dposv_call(monkeypatch):
    """Every vertex of one pattern outside each parent set of size 2, in one
    stack: one dposv call per set, with every group's right-hand sides as
    the columns of one in-place (2, g) solve."""
    seen = []
    dposv = likelihood.dposv

    def counting_dposv(a, b, *args):
        c, x, info = dposv(a, b, *args)
        seen.append((b.shape, np.shares_memory(x, b)))
        return c, x, info

    monkeypatch.setattr(likelihood, "dposv", counting_dposv)
    S = _moments(np.random.default_rng(23).standard_normal((100, 5)))
    pairs = [(k, pa) for pa in itertools.combinations(range(5), 2) for k in range(5) if k not in pa]
    vertex = np.array([k for k, _ in pairs])
    sets = [list(pa) for _, pa in pairs]
    usable, coefs, resid = _fit_rows(_hand_made(S[None], np.zeros(5), [True]), vertex, sets)
    assert usable.all() and len(seen) == 10
    assert all(shape == (2, 3) and in_place for shape, in_place in seen)
    for i, (k, pa) in enumerate(pairs):
        assert _same((coefs[i], float(resid[i])), reference_fit_row(S, k, list(pa)))


def test_stacks_cut_groups_at_chunk_boundaries_with_the_bits_of_local_score(monkeypatch):
    """Greedy's opening call on observational data at p=40: all 1,560
    single-parent sets in (pattern, tail, head) order, so each tail's 39
    heads form one group, and a group straddles every _CHUNK boundary.
    The kernel gets stacks of at most _CHUNK sets, and every score has the
    bits of local_score on its set alone."""
    sizes = []
    fit_rows = likelihood._fit_rows

    def counting_fit_rows(local, vertex, parent_idx):
        sizes.append(len(parent_idx))
        return fit_rows(local, vertex, parent_idx)

    p = 40
    X = np.random.default_rng(29).standard_normal((300, p))
    loc = local_stats(sufficient_stats(Dataset(p, (InterventionTarget.empty(),) * 300, X)))
    heads, tails = np.nonzero(~np.eye(p, dtype=bool))
    order = np.lexsort((heads, tails, loc.pattern_of[heads]))
    heads, tails = heads[order] + 1, tails[order] + 1
    # the sets on either side of the first boundary share a tail
    assert tails[likelihood._CHUNK - 1] == tails[likelihood._CHUNK]
    monkeypatch.setattr(likelihood, "_fit_rows", counting_fit_rows)
    got = likelihood._scores(heads, tails[:, None], loc, 0.7)
    assert sizes == [likelihood._CHUNK, len(heads) - likelihood._CHUNK]
    want = [local_score(k, (t,), loc, penalty=0.7) for k, t in zip(heads.tolist(), tails.tolist())]
    assert [_bits(s) for s in got.tolist()] == [_bits(s) for s in want]


# residuals at the edges of the score expression's domain: both zeros,
# negatives, NaN, both infinities, subnormals and 1e±300; and three whose
# np.log differs from math.log in the last bit with numpy 2.4's AVX-512 log
_EDGE_RESIDUALS = [0.0, -0.0, -1.0, -1e300, math.nan, math.inf, -math.inf,
                   5e-324, 2.2250738585072014e-308 / 3, 1e-300, 1e300, 1.7976931348623157e308,
                   1.0062334388992138, 74.96999311528066, 47.59151152570911]


@settings(max_examples=400, deadline=None)
@given(
    pairs=st.lists(
        st.tuples(
            st.one_of(st.sampled_from(_EDGE_RESIDUALS), st.floats(), st.floats(1e-300, 1e300)),
            st.integers(1, 2**40),
        ),
        max_size=40,
    ),
    cost=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
    per_set=st.booleans(),
)
def test_score_expression_matches_the_scalar_oracle(pairs, cost, per_set):
    """``_penalized`` over a whole stack against the scalar expression in
    helpers, bit for bit, with one count for the whole stack or one per set."""
    resid = [r for r, _ in pairs]
    counts = [n for _, n in pairs] if per_set else (pairs[0][1] if pairs else 7)
    got = likelihood._penalized(np.array(resid, dtype=float), np.array(counts) if per_set else counts, cost)
    assert got.dtype == np.float64 and got.shape == (len(resid),)
    assert [_bits(s) for s in got.tolist()] == [_bits(s) for s in reference_penalized(resid, counts, cost)]


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


def test_insertion_rows_match_local_score():
    _, family, _, data = random_instance(72, p=6, n=300)
    loc = local_stats(sufficient_stats(data), family)
    rows = [((), [2, 3, 2]), ((3, 2), [5, 4, 6]), ({4, 5}, [6])]
    for parents, tails in rows:
        got = _insertion_scores(1, parents, tails, loc)
        sets = [{*parents, tail} for tail in tails]
        assert [_bits(s) for s in got] == [_bits(local_score(1, pa, loc)) for pa in sets]
    assert _insertion_scores(1, (3,), [2], loc, penalty=0.0) == [local_score(1, (2, 3), loc, penalty=0.0)]
    # every row of every vertex, against one-at-a-time scores
    for k in range(1, 7):
        others = [j for j in range(1, 7) if j != k]
        for size in range(3):
            for parents in itertools.combinations(others, size):
                tails = [j for j in others if j not in parents][::-1]
                got = _insertion_scores(k, parents, tails, loc)
                want = [local_score(k, (*parents, tail), loc) for tail in tails]
                assert [_bits(s) for s in got] == [_bits(s) for s in want]


def test_kernel_on_hand_built_mixtures():
    # LocalStats assembled directly, the way the score sees it
    rng = np.random.default_rng(21)
    S = _moments(rng.standard_normal((60, 4)))
    mixtures = np.stack([S] * 4)
    loc = LocalStats(4, 60, np.full(4, 60), mixtures, np.arange(4), np.array([_proven_well_conditioned(S)] * 4))
    rows = [((2,), [3, 4]), ((4,), [3])]
    for parents, tails in rows:
        for tail, score in zip(tails, _insertion_scores(1, parents, tails, loc)):
            pa = sorted((*parents, tail))
            b, resid = reference_fit_row(S, 0, [j - 1 for j in pa])
            want = -0.5 * 60 * (1.0 + math.log(resid)) - 0.5 * math.log(60) * 2
            assert _bits(score) == _bits(want)
