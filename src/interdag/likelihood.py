"""Likelihood evaluation, closed-form fitting, and penalized scoring.

All statistics are uncentered: for a block of n_I rows sharing target I the
second moment is S_I = (1/n_I) sum x x^T and the first moment is the plain
row mean.  Because an intervention makes the targeted coordinates exogenous,
the log-likelihood splits into per-vertex terms, each involving only the
rows whose target does NOT contain that vertex.  The per-vertex mixture

    n_minus_k = sum_{I: k not in I} n_I,
    S_minus_k = sum_{I: k not in I} (n_I / n_minus_k) S_I

is all the data a vertex's parameters ever see, which is what makes greedy
and exact search tractable.

Every regression of a vertex on a parent set goes through one kernel,
``_fit_rows``, which fits a stack of equal-size parent sets at once, of one
vertex or of a vertex per set.  Its rule is that each set's numbers are the
same bits whatever stack it comes in, a stack of one included: the scores
feed comparisons against a 1e-9 threshold in greedy search, so a last-bit
change would change which moves are taken.  So it batches only what rounds
the same in a stack as alone: the gather of the blocks, the conditioning
test and the residual quadratic forms.  It factors and solves each usable
block on its own with one LAPACK ``dposv`` call, which is the ``dpotrf``
and ``dpotrs`` pair that scipy's cho_factor/cho_solve call.  Every block it
fits is a principal sub-block of its vertex's mixture, so the conditioning
test is decided once per vertex, when the vertex is first scored:
``LocalStats.proven`` proves its mixture well conditioned, and the kernel
then skips the test for that vertex's sets; for any other it runs the SVD
condition number on the parent block.

``dposv`` and ``dtrtri`` (the latter for the proof) are scipy's own
wrappers, the very objects ``scipy.linalg.lapack`` exports, loaded straight
from scipy's compiled ``_flapack`` module without importing the
``scipy.linalg`` package (see ``_load_flapack``).
"""

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np
import scipy

from .errors import DataError, DegenerateFitError, ParameterError
from .model import (
    Dag,
    Dataset,
    GaussianCausalModel,
    InterventionSpec,
    InterventionTarget,
    TargetFamily,
    _rows_index,
)


def _load_flapack():
    """scipy's LAPACK extension module ``scipy.linalg._flapack``, loaded
    without running the ``scipy.linalg`` package's ``__init__``.

    That package import (array-API helpers, ``numpy.f2py``, ``numpy.ma``,
    docstring machinery) would take about half the time of
    ``import interdag.cli`` and 18 MB of its memory, and the kernel needs
    only two of this module's routines.  CPython initializes an extension
    module once per process, so a later ``import scipy.linalg`` hands out
    these very objects, whichever import comes first; ``sys.modules`` is
    left alone.  Every scipy since 1.10 ships the file.
    """
    directory = os.path.join(os.path.dirname(scipy.__file__), "linalg")
    finder = importlib.machinery.FileFinder(
        directory, (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES)
    )
    spec = finder.find_spec("scipy.linalg._flapack")
    if spec is None:
        raise ImportError(f"scipy's LAPACK extension module _flapack is not in {directory}")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_flapack = _load_flapack()
dposv, dtrtri = _flapack.dposv, _flapack.dtrtri

__all__ = [
    "SufficientStats",
    "LocalStats",
    "FittedModel",
    "NaturalParams",
    "sufficient_stats",
    "local_stats",
    "mle_given_dag",
    "log_likelihood",
    "decomposed_log_likelihood",
    "natural_params",
    "local_score",
    "score_insertions",
    "bic_score",
    "LocalScoreCache",
]

_COND_LIMIT = 1e12  # parent moment blocks worse-conditioned than this are unusable
# a mixture proven conditioned no worse than this skips the SVD of its blocks;
# the margin of ten dwarfs the SVD's relative error of about cond * 1e-16
_COND_BOUND = 1e11
# parent sets per kernel call: about 0.7 MB of gathered blocks at 8 parents
_CHUNK = 1024
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class SufficientStats:
    """Per-target row counts with first and second moments."""

    p: int
    n: int
    counts: Mapping[InterventionTarget, int]
    second_moments: Mapping[InterventionTarget, np.ndarray]
    first_moments: Mapping[InterventionTarget, np.ndarray]

    def targets(self) -> tuple[InterventionTarget, ...]:
        return tuple(sorted(self.counts, key=lambda t: (len(t.members), t.members)))

    def family(self) -> TargetFamily:
        return TargetFamily(frozenset(self.counts))

    def count(self, target: InterventionTarget) -> int:
        return self.counts.get(target, 0)

    def second_moment(self, target: InterventionTarget) -> np.ndarray:
        return self.second_moments[target]

    def first_moment(self, target: InterventionTarget) -> np.ndarray:
        return self.first_moments[target]


def sufficient_stats(dataset: Dataset) -> SufficientStats:
    """Accumulate per-target counts and moments; rejects empty datasets.

    Reads the dataset's cached row grouping, so the rows are not hashed
    again; each distinct target costs one matrix product over its rows, a
    view of the values when they are one run (``_rows_index``).
    """
    if dataset.n == 0:
        raise DataError("cannot compute statistics of an empty dataset")
    counts: dict[InterventionTarget, int] = {}
    seconds: dict[InterventionTarget, np.ndarray] = {}
    firsts: dict[InterventionTarget, np.ndarray] = {}
    for t, rows in dataset.row_groups.items():
        X = dataset.values[_rows_index(rows)]
        n_t = len(rows)
        S = (X.T @ X) / n_t
        m = X.sum(axis=0) / n_t
        S.setflags(write=False)
        m.setflags(write=False)
        counts[t] = n_t
        seconds[t] = S
        firsts[t] = m
    return SufficientStats(dataset.p, dataset.n, counts, seconds, firsts)


@dataclass(frozen=True, eq=False)
class LocalStats:
    """Per-vertex mixture moments over the rows that exclude each vertex.

    A vertex with ``counts_excluding[k-1] == 0`` appears in every observed
    target, so its parameters are unidentified; the zero count is the error
    marker and every downstream fit or score treats the vertex as unusable.
    """

    p: int
    n: int
    counts_excluding: np.ndarray
    mixtures: np.ndarray  # shape (p, p, p); mixtures[k-1] is the matrix for vertex k
    _proofs: dict[int, bool] = field(default_factory=dict, init=False, repr=False)

    def count_excluding(self, k: int) -> int:
        return int(self.counts_excluding[k - 1])

    def mixture(self, k: int) -> np.ndarray:
        return self.mixtures[k - 1]

    def identified(self, k: int) -> bool:
        return self.counts_excluding[k - 1] > 0

    def proven(self, k: int) -> bool:
        """Whether ``_proven_well_conditioned`` holds for vertex k's mixture;
        decided on the first call for k and remembered, so each vertex is
        proven at most once and only when it is scored."""
        flag = self._proofs.get(k)
        if flag is None:
            flag = self._proofs[k] = _proven_well_conditioned(self.mixture(k))
        return flag

    @property
    def unidentified_vertices(self) -> tuple[int, ...]:
        return tuple(k for k in range(1, self.p + 1) if not self.identified(k))


def check_identified(local: LocalStats) -> None:
    """Raise DegenerateFitError when some vertex has no rows to fit it on."""
    if local.unidentified_vertices:
        raise DegenerateFitError(
            f"vertices {local.unidentified_vertices} appear in every observed target"
        )


def check_marginal_variance(local: LocalStats) -> None:
    """Raise DegenerateFitError when some vertex's own second moment under its
    exclusion mixture is not positive and finite, so that even its empty
    parent set scores -inf."""
    diag = np.diagonal(local.mixtures, axis1=1, axis2=2).diagonal()
    bad = np.flatnonzero(~((diag > 0) & (diag < math.inf))) + 1
    if len(bad):
        raise DegenerateFitError(f"vertices {bad.tolist()} have no usable marginal variance")


def local_stats(stats: SufficientStats, family: TargetFamily | None = None) -> LocalStats:
    """Mix the per-target moments into the per-vertex exclusion statistics.

    ``family``, when given, must cover every observed target; targets in the
    family without data contribute nothing to the mixtures.  Each target's
    weighted moment n_t * S_t is formed once.  Every vertex's sum is the
    left fold, in target order and starting from zeros, of the weighted
    moments of the targets that do not contain it.  The targets before the
    first one that contains a vertex all exclude it, so that part of its
    fold is a prefix of one running fold over all targets: the vertex's sum
    starts as a copy of that prefix and then adds only the later targets
    that exclude it, in order.  The bits are those of a fold per vertex,
    and with single-vertex targets it does about half the additions.
    """
    p = stats.p
    targets = stats.targets()
    if family is not None:
        family.validate_for(p)
        for t in targets:
            if t not in family:
                raise ParameterError(
                    f"observed target {t.members} is missing from the supplied family"
                )
    weighted = [(t, stats.count(t), stats.count(t) * stats.second_moment(t)) for t in targets]
    # the vertices whose first containing target is targets[i], at starts[i];
    # vertices in no target at starts[-1]
    starts: list[list[int]] = [[] for _ in range(len(targets) + 1)]
    first = [len(targets)] * p
    for i in reversed(range(len(targets))):
        for v in targets[i].members:
            first[v - 1] = i
    for k in range(1, p + 1):
        starts[first[k - 1]].append(k)
    counts = np.zeros(p, dtype=np.int64)
    mixtures = np.zeros((p, p, p))
    prefix = np.zeros((p, p))  # the fold of every target before targets[i]
    n_prefix = 0
    for i, vertices in enumerate(starts):
        for k in vertices:
            acc = mixtures[k - 1]
            acc[...] = prefix
            n_ex = n_prefix
            for t, n_t, moment in weighted[i + 1:]:
                if k in t:
                    continue
                n_ex += n_t
                acc += moment
            counts[k - 1] = n_ex
            if n_ex > 0:
                acc /= n_ex
        if i < len(weighted):
            n_prefix += weighted[i][1]
            prefix += weighted[i][2]
    mixtures.setflags(write=False)
    counts.setflags(write=False)
    return LocalStats(p, stats.n, counts, mixtures)


def _cond_or_inf(block: np.ndarray) -> float:
    try:
        return np.linalg.cond(block)
    except np.linalg.LinAlgError:
        return math.inf


def _cond_bound(S: np.ndarray) -> float:
    """An upper bound on cond_2(S) for symmetric S, or inf when numpy's
    Cholesky factorization S = L L^T fails.

    S^-1 = L^-T L^-1, so cond_2(S) = ||S||_2 ||L^-1||_2^2, which is at most
    ||S||_1 ||L^-1||_1 ||L^-1||_inf.  LAPACK's ``dtrtri`` inverts L^T, which
    is the factor's memory in Fortran order, so f2py copies nothing.
    """
    try:
        factor = np.linalg.cholesky(S)
    except np.linalg.LinAlgError:
        return math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        inverse = np.abs(dtrtri(factor.T, lower=0, overwrite_c=1)[0])
        return float(np.abs(S).sum(axis=0).max() * inverse.sum(axis=0).max() * inverse.sum(axis=1).max())


def _proven_well_conditioned(S: np.ndarray) -> bool:
    """True when the mixture S is proven to be finite, exactly symmetric,
    positive definite and conditioned no worse than _COND_BOUND.

    By Cauchy interlacing every principal sub-block M of such an S is
    positive definite with cond_2(M) <= cond_2(S), so the SVD would find
    every parent block far below _COND_LIMIT and ``_fit_rows`` can skip it.
    Definiteness matters: [[0, 1], [1, 0]] has cond 1 but singular 1x1
    blocks.
    """
    if not (np.isfinite(S).all() and np.array_equal(S, S.T)):
        return False
    return _cond_bound(S) <= _COND_BOUND


def _fit_rows(
    mixtures: np.ndarray,
    vertex: int | np.ndarray,
    parent_idx: np.ndarray | list[list[int]],
    proven: bool | np.ndarray = False,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares fits of vertices on each of a stack of parent sets.

    Set i regresses 0-based vertex ``vertex[i]`` on the 0-based parents
    ``parent_idx[i]`` under ``mixtures[vertex[i]]``, where ``mixtures`` is
    laid out as ``LocalStats.mixtures`` and ``vertex`` is one index for
    every set or an array of one per set; the rows of ``parent_idx`` are of
    one length.  Returns ``(usable, coefs, resid)``, one entry per set:
    whether the fit is usable, its coefficients and its residual second
    moment.  A set is unusable when its parent block is conditioned worse
    than 1e12 or is not positive definite; its coefficients are then zero
    and its residual NaN.  Every mixture must be exactly symmetric, as every
    mixture ``local_stats`` builds is, since the factorization reads each
    block's transpose.

    Batched over the whole stack: the gather of every ``[k, pa...]`` block;
    the SVD condition number of every parent block that needs one (block by
    block when the stacked SVD raises, and then a block whose SVD does not
    converge is unusable, and only it); and the residuals, as quadratic
    forms of (1, -b) with the gathered blocks, which keeps each a true
    quadratic form of a positive semidefinite matrix.  The usable parent
    blocks and their right-hand sides are copied into contiguous stacks
    once; then each block is Cholesky-factored and solved in place by one
    ``dposv`` call, which is ``dpotrf`` followed by ``dpotrs``.  A block that
    call finds not positive definite is unusable.  A stacked product rounds
    as the one-block product does: each set gets the bits it would get
    alone, whichever vertices share its stack.

    ``proven``, one flag for every set or an array of one per set, says that
    ``_proven_well_conditioned`` holds for the set's mixture: then no SVD
    runs on its block, with the same usable flag and bits.
    """
    parents = np.asarray(parent_idx, dtype=np.intp)
    m, d = parents.shape
    coefs = np.zeros((m, d))
    if d == 0:
        return np.ones(m, dtype=bool), coefs, np.full(m, mixtures[vertex, vertex, vertex])
    full = np.empty((m, d + 1), dtype=np.intp)
    full[:, 0] = vertex
    full[:, 1:] = parents
    # one vertex for the whole stack, or one per set broadcast over its block
    at = vertex[:, None, None] if isinstance(vertex, np.ndarray) else vertex
    blocks = mixtures[at, full[:, :, None], full[:, None, :]]
    parent_blocks = blocks[:, 1:, 1:]
    usable = np.ones(m, dtype=bool)
    # the sets whose parent block needs the conditioning test
    tested = np.flatnonzero(~proven) if isinstance(proven, np.ndarray) else slice(0 if proven else m)
    candidates = parent_blocks[tested]
    if len(candidates):
        try:
            conds = np.linalg.cond(candidates)
        except np.linalg.LinAlgError:
            conds = np.array([_cond_or_inf(block) for block in candidates])
        usable[tested] = ~(conds > _COND_LIMIT)
    # contiguous copies of the usable parent blocks and right-hand sides; a
    # C-ordered symmetric block's transpose is the same matrix in Fortran
    # order, so dposv (lower, overwrite_a, overwrite_b all 1) factors it and
    # solves into the right-hand side in place, with no copy by f2py
    factors = parent_blocks[usable].transpose(0, 2, 1)
    solutions = blocks[:, 1:, 0][usable]
    infos = [dposv(a, b, 1, 1, 1)[2] for a, b in zip(factors, solutions)]
    coefs[usable] = solutions
    if any(infos):
        # blocks that passed the conditioning test but that dposv found not
        # positive definite
        failed = np.flatnonzero(usable)[np.array(infos) != 0]
        usable[failed] = False
        coefs[failed] = 0.0
    v = np.empty((m, d + 1))
    v[:, 0] = 1.0
    v[:, 1:] = -coefs
    v = v[usable]
    resid = np.full(m, math.nan)
    resid[usable] = np.matmul(np.matmul(v[:, None, :], blocks[usable]), v[:, :, None])[:, 0, 0]
    return usable, coefs, resid


@dataclass(frozen=True, eq=False)
class FittedModel:
    """Closed-form fit of a fixed DAG.

    ``log_likelihood`` is the exact joint log-density of the non-intervened
    coordinates at the fitted parameters (the intervened coordinates' own
    density terms depend only on nuisance parameters and are left out).
    ``bic`` drops the 2*pi constant as well and subtracts half log n per
    edge, so it ranks structures identically.
    """

    dag: Dag
    weights: np.ndarray
    error_vars: np.ndarray
    log_likelihood: float
    bic: float

    def to_model(self) -> GaussianCausalModel:
        return GaussianCausalModel(self.dag, self.weights, self.error_vars)


def mle_given_dag(dag: Dag, local: LocalStats) -> FittedModel:
    """Maximize the likelihood over weights and error variances of a fixed DAG.

    Each vertex regresses on its parents under that vertex's exclusion
    mixture; the optimum is attained in closed form.  Requires strictly more
    excluding rows than parents at every vertex.
    """
    if dag.p != local.p:
        raise ParameterError("DAG and statistics disagree on the vertex count")
    p = dag.p
    W = np.zeros((p, p))
    s2 = np.zeros(p)
    core = 0.0  # sum of per-vertex maximized terms, without 2*pi constants
    for k in range(1, p + 1):
        pa = dag.parents(k)
        n_ex = local.count_excluding(k)
        if n_ex <= len(pa):
            raise DegenerateFitError(
                f"vertex {k}: {n_ex} usable rows cannot identify {len(pa)} parents"
            )
        usable, coefs, resids = _fit_rows(
            local.mixtures, k - 1, [[j - 1 for j in pa]], local.proven(k)
        )
        if not usable[0]:
            raise DegenerateFitError(f"vertex {k}: singular parent moment block")
        b, resid = coefs[0], float(resids[0])
        if resid <= 0 or not math.isfinite(resid):
            raise DegenerateFitError(f"vertex {k}: degenerate residual variance {resid!r}")
        W[k - 1, [j - 1 for j in pa]] = b
        s2[k - 1] = resid
        core += -0.5 * n_ex * (1.0 + math.log(resid))
    loglik = core - 0.5 * _LOG_2PI * float(local.counts_excluding.sum())
    bic = core - 0.5 * math.log(local.n) * dag.num_edges
    return FittedModel(dag, W, s2, loglik, bic)


@dataclass(frozen=True, eq=False)
class NaturalParams:
    """Precision-form parameters of the model under one target.

    ``precision`` is the inverse covariance, assembled structurally (never by
    matrix inversion).  ``nu`` is precision @ mean.  ``quad_form`` equals
    nu^T precision^{-1} nu and ``log_det`` is log det(precision); both come
    out in closed form because the cut system is triangular.
    """

    target: InterventionTarget
    precision: np.ndarray
    nu: np.ndarray
    quad_form: float
    log_det: float


def natural_params(
    model: GaussianCausalModel,
    target: InterventionTarget,
    spec: InterventionSpec | None = None,
) -> NaturalParams:
    """Assemble the precision matrix and linear term under one target."""
    target.validate_for(model.p)
    p = model.p
    gamma = 1.0 / model.error_vars
    keep = np.ones(p, dtype=bool)
    mu_u = tau2 = None
    if target.members:
        if spec is None:
            raise ParameterError(
                f"intervention parameters required for target {target.members}"
            )
        mu_u, tau2 = spec.for_target(target)
        keep[[v - 1 for v in target.members]] = False
    imb = np.eye(p) - model.weights
    scale = np.where(keep, np.sqrt(gamma), 0.0)
    C = imb * scale[:, None]  # rows of intervened vertices drop out entirely
    K = C.T @ C
    nu = np.zeros(p)
    quad = 0.0
    log_det = float(np.log(gamma[keep]).sum())
    if target.members:
        idx = [v - 1 for v in target.members]
        K[idx, idx] += 1.0 / tau2
        nu[idx] = mu_u / tau2
        quad = float((mu_u * mu_u / tau2).sum())
        log_det -= float(np.log(tau2).sum())
    return NaturalParams(target, K, nu, quad, log_det)


def log_likelihood(
    model: GaussianCausalModel,
    stats: SufficientStats,
    spec: InterventionSpec | None = None,
) -> float:
    """Exact joint log-density of all rows under the model, via precision form.

    Equals the sum over rows of the multivariate normal log-density of the
    row's interventional distribution.
    """
    if stats.p != model.p:
        raise ParameterError("model and statistics disagree on the vertex count")
    p = model.p
    total = 0.0
    for t in stats.targets():
        par = natural_params(model, t, spec)
        n_t = stats.count(t)
        S = stats.second_moment(t)
        m = stats.first_moment(t)
        total += n_t * (
            -0.5 * p * _LOG_2PI
            - 0.5 * float(np.sum(S * par.precision))
            + float(m @ par.nu)
            - 0.5 * par.quad_form
            + 0.5 * par.log_det
        )
    return total


def decomposed_log_likelihood(
    model: GaussianCausalModel,
    local: LocalStats,
    stats: SufficientStats,
    spec: InterventionSpec | None = None,
) -> float:
    """The same value as log_likelihood, assembled from per-vertex terms.

    The model-dependent part is a sum over vertices of
    -n_minus_k/2 * (gamma_k * q_k - log gamma_k) with q_k the quadratic form
    of the vertex's structural row under its exclusion mixture; the rest is
    an additive constant in the weights and error variances.
    """
    if local.p != model.p or stats.p != model.p:
        raise ParameterError("model and statistics disagree on the vertex count")
    p = model.p
    imb = np.eye(p) - model.weights
    total = 0.0
    for k in range(1, p + 1):
        n_ex = local.count_excluding(k)
        if n_ex == 0:
            continue
        row = imb[k - 1]
        q = float(row @ local.mixture(k) @ row)
        gamma_k = 1.0 / model.error_vars[k - 1]
        total += -0.5 * n_ex * (gamma_k * q - math.log(gamma_k))
    total -= 0.5 * _LOG_2PI * float(local.counts_excluding.sum())
    # density terms of the intervened coordinates: constants in the model
    for t in stats.targets():
        if t.is_empty:
            continue
        if spec is None:
            raise ParameterError(
                f"intervention parameters required for target {t.members}"
            )
        mu_u, tau2 = spec.for_target(t)
        n_t = stats.count(t)
        S = stats.second_moment(t)
        m = stats.first_moment(t)
        for i, v in enumerate(t.members):
            second = S[v - 1, v - 1]
            first = m[v - 1]
            total += n_t * (
                -0.5 * math.log(2.0 * math.pi * tau2[i])
                - (second - 2.0 * mu_u[i] * first + mu_u[i] ** 2) / (2.0 * tau2[i])
            )
    return total


def _checked_parents(k: int, parent_set: Iterable[int], p: int) -> tuple[int, ...]:
    """The sorted parent labels; raises ParameterError on a bad vertex or parent."""
    pa = tuple(sorted(set(map(int, parent_set))))
    if not 1 <= k <= p:
        raise ParameterError(f"vertex {k} is out of range 1..{p}")
    for j in pa:
        if not 1 <= j <= p:
            raise ParameterError(f"parent {j} is out of range 1..{p}")
        if j == k:
            raise ParameterError(f"vertex {k} cannot be its own parent")
    return pa


def _checked_penalty(n: int, penalty: float | None) -> float:
    if penalty is None:
        penalty = 0.5 * math.log(n)
    if penalty < 0 or not math.isfinite(penalty):
        raise ParameterError(f"penalty must be finite and non-negative, got {penalty!r}")
    return penalty


def _scores(k: int | np.ndarray, parent_sets, local: LocalStats, penalty: float) -> list[float]:
    """Penalized scores of checked parent sets, all of one size.

    ``k`` is the vertex label of every set, or a numpy array of one label
    per set.  ``parent_sets`` is a sequence of label tuples or a 2-D array
    of labels, one set per row, fitted in kernel calls of at most 1024 sets.
    A set whose vertex has no more excluding rows than parents scores -inf.
    """
    size = len(parent_sets[0])
    cost = penalty * size
    many = isinstance(k, np.ndarray)
    if not many:
        n_ex = local.count_excluding(k)
        if n_ex <= size:
            return [-math.inf] * len(parent_sets)
    scores = []
    for start in range(0, len(parent_sets), _CHUNK):
        idx = np.array(parent_sets[start:start + _CHUNK], dtype=np.intp) - 1
        # the NaN residual of an unusable set fails the test too
        if many:
            vertex = k[start:start + _CHUNK] - 1
            proven = np.array([local.proven(v + 1) for v in vertex.tolist()], dtype=bool)
            resid = _fit_rows(local.mixtures, vertex, idx, proven)[2].tolist()
            scores += [
                -0.5 * n * (1.0 + math.log(r)) - cost if n > size and 0 < r < math.inf else -math.inf
                for n, r in zip(local.counts_excluding[vertex].tolist(), resid)
            ]
        else:
            # the same expression with one count for the stack, which spares
            # the exact search a pairing per set
            resid = _fit_rows(local.mixtures, k - 1, idx, local.proven(k))[2].tolist()
            scores += [-0.5 * n_ex * (1.0 + math.log(r)) - cost if 0 < r < math.inf else -math.inf for r in resid]
    return scores


def local_score(
    k: int,
    parent_set: Iterable[int],
    local: LocalStats,
    n: int | None = None,
    penalty: float | None = None,
) -> float:
    """Penalized maximized per-vertex term; -inf when the fit is infeasible.

    Returns -n_minus_k/2 * (1 + log residual) - penalty * |parents|, with the
    penalty defaulting to half log n.  Infeasible means: not more usable rows
    than parents, an unidentified vertex, or a parent block that is singular
    or conditioned worse than 1e12.
    """
    pa = _checked_parents(k, parent_set, local.p)
    penalty = _checked_penalty(local.n if n is None else n, penalty)
    return _scores(k, [pa], local, penalty)[0]


def score_insertions(
    k: int,
    parents: Iterable[int],
    tails: Iterable[int],
    local: LocalStats,
    penalty: float | None = None,
) -> list[float]:
    """Local scores of ``parents`` plus one tail, for each of ``tails`` in order.

    Greedy search scores a head's whole row of insertions with one call,
    which is where nearly all of its fits happen.  The row is built as one
    array of sorted labels and fitted in kernel calls of at most 1024 sets,
    with no cache: each score has the bits of ``local_score`` on that set.
    A tail out of range, equal to ``k`` or already in ``parents`` raises
    ParameterError.
    """
    p = local.p
    pa = _checked_parents(k, parents, p)
    penalty = _checked_penalty(local.n, penalty)
    tails = list(map(int, tails))
    taken = {k, *pa}
    bad = [t for t in tails if not 1 <= t <= p or t in taken]
    if bad:
        _checked_parents(k, (*pa, bad[0]), p)  # names a tail out of range or equal to k
        raise ParameterError(f"vertex {bad[0]} is already a parent of vertex {k}")
    if not tails:
        return []
    idx = np.empty((len(tails), len(pa) + 1), dtype=np.intp)
    idx[:, :-1] = pa
    idx[:, -1] = tails
    # the labels are distinct; the stable sort is faster on rows this short
    idx.sort(axis=1, kind="stable")
    return _scores(k, idx, local, penalty)


def bic_score(
    dag: Dag,
    local: LocalStats,
    n: int | None = None,
    penalty: float | None = None,
) -> float:
    """Sum of per-vertex penalized scores; larger is better."""
    if dag.p != local.p:
        raise ParameterError("DAG and statistics disagree on the vertex count")
    return sum(local_score(k, dag.parents(k), local, n, penalty) for k in range(1, dag.p + 1))


class LocalScoreCache:
    """Memoizes local scores keyed by (vertex, parent set).

    Concurrent insert-or-read is safe: values for a key are deterministic, so
    a racing overwrite stores the same number.
    """

    def __init__(self, local: LocalStats, penalty: float | None = None):
        self._local = local
        self._penalty = 0.5 * math.log(local.n) if penalty is None else penalty
        self._table: dict[tuple[int, tuple[int, ...]], float] = {}

    def score(self, k: int, parent_set: Iterable[int]) -> float:
        key = (k, tuple(sorted(parent_set)))
        hit = self._table.get(key)
        if hit is None:
            hit = local_score(k, key[1], self._local, penalty=self._penalty)
            self._table[key] = hit
        return hit

    def dag_score(self, dag: Dag) -> float:
        return sum(self.score(k, dag.parents(k)) for k in range(1, dag.p + 1))

    def __len__(self) -> int:
        return len(self._table)
