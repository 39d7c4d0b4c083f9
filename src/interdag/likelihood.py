"""Likelihood evaluation, closed-form fitting, and penalized scoring.

All statistics are uncentered: for a block of n_I rows sharing target I the
second moment is S_I = (1/n_I) sum x x^T and the first moment is the plain
row mean.  Because an intervention makes the targeted coordinates exogenous,
the log-likelihood splits into per-vertex terms, each involving only the
rows whose target does NOT contain that vertex.  The per-vertex mixture

    n_minus_k = sum_{I: k not in I} n_I,
    S_minus_k = sum_{I: k not in I} (n_I / n_minus_k) S_I

is all the data a vertex's parameters ever see, which is what makes greedy
and exact search tractable.  Vertices in exactly the same observed targets
share it, so ``LocalStats`` stores one mixture per exclusion pattern.

Every regression of a vertex on a parent set goes through one kernel,
``_fit_rows(local, vertex, parent_idx)``, which fits a stack of equal-size
parent sets at once, of one vertex or of a vertex per set, and ``_scores``
turns its residuals into penalized scores.  Callers pass vertices and parent
sets only: the kernel reads each vertex's pattern, its pattern's mixture and
proof flag from ``LocalStats`` itself, so the mixtures' layout is known to
``local_stats`` and the kernel alone.  Its rule is that each set's numbers
are the same bits whatever stack it comes in, a stack of one included: the
scores feed comparisons against a 1e-9 threshold in greedy search, so a
last-bit change would change which moves are taken.  Python runs once per
group of adjacent sets of one pattern and one parent set, which share one
block, one conditioning test and one LAPACK ``dposv`` call (the ``dpotrf``
and ``dpotrs`` pair that scipy's cho_factor/cho_solve call), each column of
whose solve has the bits of a one-column solve.  The rest is numpy over the
whole stack, in operations that round each set as alone: one ``take`` of
every set's block from the flattened mixtures, the stacked conditioning test
and residual quadratic forms, and the score expression, whose logarithms are
``math.log``'s because ``np.log`` may differ in the last bit.  Every block
is a principal sub-block of its pattern's mixture, so the conditioning test
is decided once per pattern, by ``local_stats``: where ``LocalStats.proven``
says the mixture is proven well conditioned, the kernel skips the test;
otherwise it runs the SVD condition number on the parent block.  Every
mixture holds the weighted moment of the observational rows, so one
Cholesky factorization of that floor proves every pattern it can, and only
the others get a factorization of their own, by the same routine.

``dposv``, and ``dpotrf`` and ``dtrtri`` for the proof, are scipy's own
wrappers, the very objects ``scipy.linalg.lapack`` exports, loaded straight
from scipy's compiled ``_flapack`` module without importing the
``scipy.linalg`` package (see ``_load_flapack``), so every factorization is
made by one LAPACK copy.
"""

import importlib.machinery
import importlib.util
import math
import os
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DataError, DegenerateFitError, ParameterError
from .model import (
    Dag,
    Dataset,
    GaussianCausalModel,
    InterventionSpec,
    InterventionTarget,
    TargetFamily,
    _fold_order,
    _rows_index,
    _target_params,
)


def _load_flapack():
    """scipy's LAPACK extension module ``scipy.linalg._flapack``, loaded
    without running the ``scipy.linalg`` package's ``__init__``.

    That package import (array-API helpers, ``numpy.f2py``, ``numpy.ma``,
    docstring machinery) would take about half the time of
    ``import interdag.cli`` and 18 MB of its memory, and the kernel needs
    only three of this module's routines.  CPython initializes an extension
    module once per process, so a later ``import scipy.linalg`` hands out
    these very objects, whichever import comes first; ``sys.modules`` is
    left alone.  scipy's directory is found without importing ``scipy``
    itself, whose ``__init__`` the kernel does not need either.  Every scipy
    since 1.10 ships the file.
    """
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    directory = os.path.join(scipy.submodule_search_locations[0], "linalg")
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
    "bic_score",
    "LocalScoreCache",
]

_COND_LIMIT = 1e12  # parent moment blocks worse-conditioned than this are unusable
# a mixture proven conditioned no worse than this skips the SVD of its blocks;
# the margin of ten dwarfs the SVD's relative error of about cond * 1e-16
_COND_BOUND = 1e11
# parent sets per kernel stack: about 0.7 MB of gathered blocks at 8 parents
_CHUNK = 1024
_LOG_2PI = math.log(2.0 * math.pi)


@dataclass(frozen=True, eq=False)
class SufficientStats:
    """Per-target row counts with first and second moments.

    From ``sufficient_stats``, the moments are read-only mappings that keep
    nothing: a read computes the moment (``_Moments``), so a repeated read
    recomputes it, with the same bits.
    """

    p: int
    n: int
    counts: Mapping[InterventionTarget, int]
    second_moments: Mapping[InterventionTarget, np.ndarray]
    first_moments: Mapping[InterventionTarget, np.ndarray]

    def targets(self) -> tuple[InterventionTarget, ...]:
        """The observed targets in fold order, whether or not they form a
        conservative family."""
        return tuple(sorted(self.counts, key=_fold_order))


class _Moments(Mapping):
    """Each target of a dataset mapped to (X.T @ X) / n_t, or to
    X.sum(axis=0) / n_t, over its rows X (a view of the values when they
    are one run), computed on each read.  Values near 1e154 or beyond
    overflow their squares: such a moment is not finite, and it is read
    without a floating-point warning, for its reader to reject."""

    def __init__(self, dataset: Dataset, second: bool):
        self._dataset = dataset
        self._second = second

    def __getitem__(self, target: InterventionTarget) -> np.ndarray:
        rows = self._dataset.row_groups[target]
        X = self._dataset.values[_rows_index(rows)]
        with np.errstate(over="ignore", invalid="ignore"):
            moment = (X.T @ X) / len(rows) if self._second else X.sum(axis=0) / len(rows)
        moment.setflags(write=False)
        return moment

    def __iter__(self):
        return iter(self._dataset.row_groups)

    def __len__(self) -> int:
        return len(self._dataset.row_groups)


def _finite_moments(stats: SufficientStats, target: InterventionTarget) -> tuple[np.ndarray, np.ndarray]:
    """A target's second and first moments; DataError, naming the target,
    when they are not finite."""
    S, m = stats.second_moments[target], stats.first_moments[target]
    if not (np.isfinite(S).all() and np.isfinite(m).all()):
        raise DataError(f"target {list(target.members)} has moments that are not finite: "
                        "the data's second moments overflow")
    return S, m


def sufficient_stats(dataset: Dataset) -> SufficientStats:
    """Per-target counts, with moments computed when read (see
    ``SufficientStats``); rejects empty datasets."""
    if dataset.n == 0:
        raise DataError("cannot compute statistics of an empty dataset")
    counts = {t: len(rows) for t, rows in dataset.row_groups.items()}
    return SufficientStats(dataset.p, dataset.n, counts, _Moments(dataset, True), _Moments(dataset, False))


@dataclass(frozen=True, eq=False)
class LocalStats:
    """Per-vertex exclusion statistics, stored once per exclusion pattern.

    Vertices in exactly the same observed targets share a pattern, and so
    their count and mixture: ``mixtures`` has shape (m, p, p), one matrix
    per pattern, ``pattern_of[k - 1]`` is vertex k's pattern, and
    ``proven[q]`` says that pattern q's mixture is proven finite, positive
    definite and conditioned no worse than ``_COND_BOUND``, by one proof
    routine (``_floor_proves``) run on the floor every mixture holds or
    else on the mixture itself (``_proven_well_conditioned``): True
    wherever that proof alone says True, and maybe elsewhere too.
    Observational data has one pattern.  Every
    mixture from ``local_stats`` equals its transpose bit for bit by
    construction: it folds only the upper triangle and mirrors it.

    A vertex with ``counts_excluding[k-1] == 0`` appears in every observed
    target, so its parameters are unidentified; the zero count is the error
    marker and every downstream fit or score treats the vertex as unusable.
    """

    p: int
    n: int
    counts_excluding: np.ndarray
    mixtures: np.ndarray  # shape (m, p, p); mixtures[pattern_of[k-1]] is the matrix for vertex k
    pattern_of: np.ndarray  # shape (p,)
    proven: np.ndarray  # shape (m,), bool

    def count_excluding(self, k: int) -> int:
        return int(self.counts_excluding[k - 1])

    def pattern(self, k: int) -> int:
        return int(self.pattern_of[k - 1])

    def mixture(self, k: int) -> np.ndarray:
        """Vertex k's mixture: a view of its pattern's matrix."""
        return self.mixtures[self.pattern(k)]

    def identified(self, k: int) -> bool:
        return self.counts_excluding[k - 1] > 0

    @property
    def unidentified_vertices(self) -> tuple[int, ...]:
        return tuple(k for k in range(1, self.p + 1) if not self.identified(k))


def check_scorable(local: LocalStats) -> None:
    """Raise DegenerateFitError when some vertex has no rows to fit it on,
    or else when some vertex's own second moment under its exclusion
    mixture, which ``local_stats`` makes finite, is not positive, so that
    even its empty parent set scores -inf."""
    if local.unidentified_vertices:
        raise DegenerateFitError(
            f"vertices {local.unidentified_vertices} appear in every observed target"
        )
    vertices = np.arange(local.p)
    diag = local.mixtures[local.pattern_of, vertices, vertices]
    bad = np.flatnonzero(diag <= 0) + 1
    if len(bad):
        raise DegenerateFitError(f"vertices {bad.tolist()} have no usable marginal variance")


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the system does not say."""
    try:
        total = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):
        return None
    return total if total > 0 else None


def _check_memory(needed: int, what: str) -> None:
    """Raise CapacityError, naming ``what``, when it needs more bytes than
    physical memory holds; where the system does not say, check nothing."""
    memory = _physical_memory()
    if memory is not None and needed > memory:
        raise CapacityError(f"{what} need {needed} bytes, more than the {memory} bytes of physical memory")


# the triangle tables of each p up to this are kept, 48 KB at most: at p=10,
# building them would add a tenth to every local_stats call, while at larger
# p they cost a small share of the fold, and kept they would add to the
# process's peak memory
_KEPT_TABLES_P = 64
_triangle_tables_kept: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _triangle_tables(p: int) -> tuple[np.ndarray, np.ndarray]:
    """The flat positions of a p x p matrix's upper triangle, row by row,
    and for each flat position of the matrix the index of its entry, or of
    its transpose's, in that packed triangle; built once for each p up to
    ``_KEPT_TABLES_P``."""
    tables = _triangle_tables_kept.get(p)
    if tables is None:
        rows, cols = np.triu_indices(p)
        mirror = np.empty((p, p), dtype=np.intp)
        mirror[rows, cols] = mirror[cols, rows] = np.arange(len(rows))
        tables = rows * p + cols, mirror.reshape(-1)
        for table in tables:
            table.setflags(write=False)
        if p <= _KEPT_TABLES_P:
            _triangle_tables_kept[p] = tables
    return tables


def local_stats(stats: SufficientStats, family: TargetFamily | None = None) -> LocalStats:
    """Mix the per-target moments into the exclusion statistics, once per
    exclusion pattern.

    ``family``, when given, must cover every observed target; targets in the
    family without data contribute nothing to the mixtures.  A vertex's
    pattern is the set of observed targets that contain it, numbered by
    first vertex.  Every pattern's sum is the left fold, in target order and
    starting from zeros, of the weighted moments n_t * S_t of the targets
    that do not contain its vertices.  The fold is target-major: at each
    target, the patterns it is the first to contain start as a copy of the
    running prefix of all targets before it, then its n_t * S_t, formed
    once into one scratch array, is added to every started pattern that
    excludes it and to the prefix.  So each pattern gets the adds of a fold
    per vertex in the same order, with the same bits, and one per-target
    moment is in memory at a time.  Only the upper triangles are folded,
    each packed into the first half of its pattern's own slot of the
    mixtures; each is divided by its count and mirrored into the full
    matrix.  Every n_t * S_t is exactly symmetric, so the lower triangle
    gets the bits a full fold would give it, and every mixture is exactly
    symmetric by construction.

    Then each pattern's mixture is proven well conditioned or not, once.
    The running prefix when the first pattern starts is the floor F, with
    observational rows n_obs * S_obs, which every pattern's fold holds.  F
    is factored once, at that moment, and only two norms of its factor's
    inverse outlive it: they bound the least eigenvalue of every n_q * M_q
    from below, less a rounding allowance (``_floor_margin``), and prove
    the patterns whose ||M_q||_1 * n_q over that bound is at most
    ``_COND_BOUND`` (``_floor_proves``).  Any other pattern gets a proof
    of its own, the same one with its mixture as its own floor
    (``_proven_well_conditioned``), and so does every pattern when F is
    empty (no observational rows) or is not proven.  Raises
    CapacityError before allocating mixtures larger than physical memory,
    and DataError, naming the vertices, when a mixture is not finite.
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
    # each vertex's pattern: the indices of the targets that contain it
    containing: list[list[int]] = [[] for _ in range(p)]
    for i, t in enumerate(targets):
        for v in t.members:
            containing[v - 1].append(i)
    numbers: dict[tuple[int, ...], int] = {}
    pattern_of = np.array([numbers.setdefault(tuple(c), len(numbers)) for c in containing], dtype=np.intp)
    # the patterns whose first containing target is targets[i], at starts[i];
    # the pattern of the vertices in no target at starts[-1]
    starts: list[list[tuple[int, tuple[int, ...]]]] = [[] for _ in range(len(targets) + 1)]
    for key, q in numbers.items():
        starts[key[0] if key else len(targets)].append((q, key))
    m = len(numbers)
    _check_memory(m * p * p * 8, f"the mixtures of {m} exclusion patterns over p={p} vertices")
    upper, mirror = _triangle_tables(p)
    counts = [0] * m
    mixtures = np.zeros((m, p, p))
    slots = mixtures.reshape(m, p * p)
    # each pattern's upper triangle, packed row by row into the first
    # len(upper) entries of its own slot
    packed = slots[:, :len(upper)]
    prefix = np.zeros(len(upper))  # the fold of every target before targets[i]
    weighted = np.empty(len(upper))  # n_t * S_t of targets[i]
    n_prefix = 0
    started: list[tuple[int, tuple[int, ...]]] = []
    # the floor: the prefix when the first pattern starts, which every
    # pattern's fold holds; its proof's two norms alone outlive it
    first = min(i for i, patterns in enumerate(starts) if patterns)
    floor_norms = None
    # values near 1e154 or beyond overflow their squares: such mixtures are
    # rejected below, without a floating-point warning
    with np.errstate(over="ignore", invalid="ignore"):
        for i, patterns in enumerate(starts):
            for q, _ in patterns:
                packed[q] = prefix
                counts[q] = n_prefix
            if i == first and n_prefix:
                floor_norms = _inverse_norms(prefix[mirror].reshape(p, p))
            if i == len(targets):
                break
            started += patterns
            n_t = stats.counts[targets[i]]
            np.multiply(n_t, stats.second_moments[targets[i]].reshape(-1)[upper], out=weighted)
            for q, key in started:
                if i not in key:
                    packed[q] += weighted
                    counts[q] += n_t
            n_prefix += n_t
            prefix += weighted
        for q, n_ex in enumerate(counts):
            if n_ex > 0:
                packed[q] /= n_ex
            # the gather is a new array, so the slot may be overwritten
            slots[q] = packed[q][mirror]
        # the prefix now holds the fold of every target, whose trace sizes
        # the floor's rounding allowance
        margin = _floor_margin(floor_norms, float(prefix[mirror[::p + 1]].sum()),
                               max(stats.counts.values(), default=0), len(targets))
        proven = np.array([_floor_proves(S, n_ex, margin) or _proven_well_conditioned(S)
                           for S, n_ex in zip(mixtures, counts)], dtype=bool)
    counts = np.array(counts, dtype=np.int64)[pattern_of]
    # a proven mixture is finite, so only the others are tested
    overflowed = [q for q in np.flatnonzero(~proven) if not np.isfinite(mixtures[q]).all()]
    if overflowed:
        bad = np.flatnonzero(np.isin(pattern_of, overflowed)) + 1
        raise DataError(f"vertices {bad.tolist()} have exclusion mixtures that are not finite: "
                        "the data's second moments overflow")
    for array in (mixtures, counts, pattern_of, proven):
        array.setflags(write=False)
    return LocalStats(p, stats.n, counts, mixtures, pattern_of, proven)


def _cond_or_inf(block: np.ndarray) -> float:
    try:
        return np.linalg.cond(block)
    except np.linalg.LinAlgError:
        return math.inf


def _inverse_norms(S: np.ndarray) -> tuple[np.float64, np.float64] | None:
    """||L^-1||_1 and ||L^-1||_inf of the Cholesky factor L of symmetric S,
    S = L L^T, or None when LAPACK's ``dpotrf`` finds S not positive
    definite.

    S^-1 = L^-T L^-1, so ||S^-1||_2 = ||L^-1||_2^2, which is at most their
    product.  ``dpotrf`` factors a copy of S.T, the same matrix in Fortran
    order, and zeroes the factor's upper triangle; ``dtrtri`` inverts the
    factor in place, and the inverse's absolute values are taken in place.
    A NaN that the factorization lets through makes both norms NaN, which
    proves nothing.  The caller ignores overflow and invalid values
    (``np.errstate``).
    """
    factor, info = _flapack.dpotrf(S.T, lower=1)
    if info != 0:
        return None
    inverse = dtrtri(factor, lower=1, overwrite_c=1)[0]
    np.abs(inverse, out=inverse)
    return inverse.sum(axis=0).max(), inverse.sum(axis=1).max()


def _floor_margin(norms: tuple[np.float64, np.float64] | None, trace: float, n_max: int, folded: int) -> float:
    """A lower bound on the least eigenvalue of n_q * M_q, for every mixture
    M_q of count n_q that ``local_stats`` folds from the floor F whose
    ``_inverse_norms`` are ``norms``, or 0.0 when there is none.

    Every pattern's fold starts as a copy of a prefix that holds F and adds
    only weighted moments n_t * S_t.  S_t is a Gram product X^T X over the
    target's rows divided by their count, or any positive semidefinite
    matrix, so in exact arithmetic n_q * M_q - F is positive semidefinite
    and lambda_min(n_q * M_q) >= lambda_min(F) >= 1 / (||L^-1||_1
    ||L^-1||_inf), read from F's Cholesky factor with the margin of ten
    between ``_COND_BOUND`` and ``_COND_LIMIT`` against its rounding.  A
    mixture is its own floor with nothing folded after it, for which
    ``trace``, ``n_max`` and ``folded`` are all 0 and the bound is that
    one alone (``_proven_well_conditioned``).

    The rest is the fold's own rounding, with u = 2^-53 and tr the trace of
    the fold of every target, ``trace``.  Computing a Gram product of n_t
    rows errs by at most about n_t u |X|^T |X| entrywise, and entry (i, j)
    of |X|^T |X| is at most sqrt(G_ii G_jj), a rank-one matrix of 2-norm
    tr(G); its division by n_t and the product n_t * S_t add 2u |G|.  So
    the weighted moments err by at most (n_max + 2) u tr in 2-norm, taken
    together.  Each of the at most ``folded`` adds of a pattern's chain of
    prefix and pattern adds, and the division by n_q, errs by u times a
    partial sum, whose entries are again at most sqrt(D_i D_j) for the
    fold's diagonal D: u tr each.  Weyl's inequality then gives
    lambda_min(n_q * M_q) >= lambda_min(F) - (n_max + folded + 3) u tr, to
    first order in u; two more u tr cover the second-order terms, the trace
    as computed and the ratio's rounding in ``_floor_proves``.  A floor
    that is not proven, or whose bound the allowance exhausts, and any
    overflow, which is quiet in Python's floats, give 0.0.
    """
    if norms is None:
        return 0.0
    inverse_norm = float(norms[0]) * float(norms[1])
    if not inverse_norm > 0:
        return 0.0
    margin = 1.0 / inverse_norm - (n_max + folded + 5) * 2.0 ** -53 * trace
    return margin if margin > 0 else 0.0


def _floor_proves(S: np.ndarray, n_ex: int, margin: float) -> bool:
    """True when ``_floor_margin``'s bound ``margin`` on the least
    eigenvalue of n_ex * S proves the mixture S positive definite with
    cond_2(S) <= ||S||_1 * n_ex / margin <= _COND_BOUND; a mixture that is
    not finite has no finite norm.  Called one mixture at a time, so no
    temporary of the mixtures' size is made, under the caller's
    ``np.errstate`` that ignores overflow and invalid values.
    """
    return margin > 0 and n_ex * float(np.abs(S).sum(axis=0).max()) / margin <= _COND_BOUND


def _proven_well_conditioned(S: np.ndarray) -> bool:
    """True when the mixture S is proven to be finite, exactly symmetric,
    positive definite and conditioned no worse than _COND_BOUND, by the
    floor proof with S as its own floor (``_floor_proves``), so by its own
    Cholesky factorization: cond_2(S) <= ||S||_1 ||L^-1||_1 ||L^-1||_inf.
    ``local_stats`` asks it for the patterns that the floor of
    observational rows does not prove, under its ``np.errstate``.

    By Cauchy interlacing every principal sub-block M of such an S is
    positive definite with cond_2(M) <= cond_2(S), so the SVD would find
    every parent block far below _COND_LIMIT and ``_fit_rows`` can skip it.
    Definiteness matters: [[0, 1], [1, 0]] has cond 1 but singular 1x1
    blocks.
    """
    if not (np.isfinite(S).all() and (S == S.T).all()):
        return False
    return _floor_proves(S, 1, _floor_margin(_inverse_norms(S), 0.0, 0, 0))


def _fit_rows(
    local: LocalStats, vertex: int | np.ndarray, parent_idx: np.ndarray | list[list[int]]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least-squares fits of vertices on each of a stack of parent sets.

    Set i regresses 0-based vertex ``vertex[i]`` on the 0-based parents
    ``parent_idx[i]`` under that vertex's exclusion mixture in ``local``;
    ``vertex`` is one index for every set or an array of one per set.  The
    rows of ``parent_idx`` are of one length.  Returns ``(usable, coefs,
    resid)``, one entry per set: whether the fit is usable, its
    coefficients and its residual second moment.  A set is unusable when
    its parent block is conditioned worse than 1e12 or is not positive
    definite; its coefficients are then zero and its residual NaN.

    Precondition: every mixture is exactly symmetric, bit for bit, as every
    mixture ``local_stats`` builds is by construction, being a mirrored
    upper triangle (a property test pins it): the factorization reads each
    parent block's transpose.

    Python runs once per group, a run of adjacent sets of one pattern and
    one parent set, which share one parent block: one ``dposv`` call and the
    slice of its right-hand sides.  Only a stack with a vertex per set is
    searched for groups, by one comparison of adjacent rows of the parents'
    flat offsets, which encode pattern and parent set together: a stack of
    one vertex holds distinct sets.  Everything else is numpy over the
    whole stack.  Every set's ``[k, pa...]`` block is one ``take`` from the
    flattened stack of mixtures, and each group's parent block is copied
    out of its first set's.  The conditioning test, when needed, is one SVD
    condition number stacked over the groups (block by block when that
    raises, and then a block whose SVD does not converge is unusable, and
    only it); it is skipped for the groups whose pattern's mixture
    ``local.proven`` says is proven well conditioned, with the same usable
    flags and bits.  Each usable group's ``dposv`` call, ``dpotrf`` then
    ``dpotrs``, factors its block in place and solves in place for the
    group's right-hand sides as the columns of one Fortran-ordered ``(d,
    g)`` array, a C-ordered ``(g, d)`` slice of the solutions transposed.  A
    block that call finds not positive definite is unusable for its whole
    group.  The residuals are stacked quadratic forms of (1, -b) with each
    set's block (``_quadratic_forms``), so each is a true quadratic form of
    a positive semidefinite matrix, taken over the whole stack, with an
    unusable set's block replaced by NaNs first.  Column j of a g-column
    solve rounds as a one-column solve, so each set gets the bits it would
    get alone.
    """
    parents = np.asarray(parent_idx, dtype=np.intp)
    m, d = parents.shape
    p = local.p
    pattern = local.pattern_of[vertex]
    # every set's [k, pa...] block in one take: entry (q, i, j) of the stack
    # is flat entry (q * p + i) * p + j
    full = np.empty((m, d + 1), dtype=np.intp)
    full[:, 0] = vertex
    full[:, 1:] = parents
    full_at = full + (pattern[:, None] if isinstance(vertex, np.ndarray) else pattern) * p
    full_at *= p
    blocks = local.mixtures.reshape(-1).take(full_at[:, :, None] + full[:, None, :])
    if d == 0:
        return np.ones(m, dtype=bool), np.zeros((m, 0)), blocks[:, 0, 0]
    # the first set of each group, or None when every set is a group of its own
    heads = None
    if isinstance(vertex, np.ndarray):
        first = np.ones(m, dtype=bool)
        (full_at[1:, 1:] != full_at[:-1, 1:]).any(axis=1, out=first[1:])
        if not first.all():
            heads = np.flatnonzero(first)
    # one parent block per group, a copy that dposv may overwrite
    if heads is None:
        parent_blocks = blocks[:, 1:, 1:].copy()
        proven = local.proven[pattern]
    else:
        parent_blocks = blocks[heads, 1:, 1:]
        proven = local.proven[pattern[heads]]
    usable = np.ones(len(parent_blocks), dtype=bool)
    # the groups whose parent block needs the conditioning test
    tested = np.flatnonzero(~proven) if isinstance(proven, np.ndarray) else slice(0 if proven else None)
    candidates = parent_blocks[tested]
    if len(candidates):
        try:
            conds = np.linalg.cond(candidates)
        except np.linalg.LinAlgError:
            conds = np.array([_cond_or_inf(block) for block in candidates])
        usable[tested] = ~(conds > _COND_LIMIT)
    # a C-ordered symmetric block's transpose is the same matrix in Fortran
    # order, so dposv (lower, overwrite_a, overwrite_b all 1) factors it and
    # solves into the right-hand sides in place, with no copy by f2py
    factors = parent_blocks.transpose(0, 2, 1)
    solutions = blocks[:, 1:, 0].copy()
    live = usable.tolist()
    if heads is None:
        # a lone set's right-hand side is a row
        infos = [dposv(a, b, 1, 1, 1)[2] for a, b, ok in zip(factors, solutions, live) if ok]
    else:
        # each group's right-hand sides as the columns of one Fortran-ordered
        # (d, g) view
        bounds = heads.tolist() + [m]
        infos = [dposv(a, solutions[start:stop].T, 1, 1, 1)[2]
                 for a, start, stop, ok in zip(factors, bounds, bounds[1:], live) if ok]
    failed = any(infos)
    if failed:
        # blocks that passed the conditioning test but that dposv found not
        # positive definite
        usable[np.flatnonzero(usable)[np.array(infos) != 0]] = False
    if heads is not None:
        usable = np.repeat(usable, np.diff(heads, append=m))
    if failed or False in live:
        # an unusable set's coefficients are zero, and its residual is the
        # form of a NaN block, so NaN, quietly even where its block holds an
        # infinity
        solutions[~usable] = 0.0
        blocks[~usable] = math.nan
    v = np.empty((m, d + 1))
    v[:, 0] = 1.0
    np.negative(solutions, out=v[:, 1:])
    return usable, solutions, _quadratic_forms(v, blocks)


def _quadratic_forms(v: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """v[i] @ blocks[i] @ v[i] for each i, as two stacked matmuls: numpy
    computes each of a stack's products alone, so each form has the bits of
    its one-block product, whatever else is in the stack."""
    return np.matmul(np.matmul(v[:, None, :], blocks), v[:, :, None])[:, 0, 0]


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
        usable, coefs, resids = _fit_rows(local, k - 1, [[j - 1 for j in pa]])
        if not usable[0]:
            raise DegenerateFitError(f"vertex {k}: singular parent moment block")
        b, resid = coefs[0], float(resids[0])
        if resid <= 0 or not math.isfinite(resid):
            raise DegenerateFitError(f"vertex {k}: degenerate residual variance {resid!r}")
        W[k - 1, [j - 1 for j in pa]] = b
        s2[k - 1] = resid
        core += -0.5 * n_ex * (1.0 + math.log(resid))
    loglik = core - 0.5 * _LOG_2PI * float(local.counts_excluding.sum())
    bic = core - _checked_penalty(local.n, None) * dag.num_edges
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
    mu_u, tau2 = _target_params(spec, target)
    idx = [v - 1 for v in target.members]  # empty for the observational target
    keep = np.ones(p, dtype=bool)
    keep[idx] = False
    imb = np.eye(p) - model.weights
    scale = np.where(keep, np.sqrt(gamma), 0.0)
    C = imb * scale[:, None]  # rows of intervened vertices drop out entirely
    K = C.T @ C
    K[idx, idx] += 1.0 / tau2
    nu = np.zeros(p)
    nu[idx] = mu_u / tau2
    quad = float((mu_u * mu_u / tau2).sum())
    log_det = float(np.log(gamma[keep]).sum()) - float(np.log(tau2).sum())
    return NaturalParams(target, K, nu, quad, log_det)


def log_likelihood(
    model: GaussianCausalModel,
    stats: SufficientStats,
    spec: InterventionSpec | None = None,
) -> float:
    """Exact joint log-density of all rows under the model, via precision form.

    Equals the sum over rows of the multivariate normal log-density of the
    row's interventional distribution.  Raises DataError, naming the target,
    when a target's moments are not finite.
    """
    if stats.p != model.p:
        raise ParameterError("model and statistics disagree on the vertex count")
    p = model.p
    total = 0.0
    for t in stats.targets():
        par = natural_params(model, t, spec)
        n_t = stats.counts[t]
        S, m = _finite_moments(stats, t)
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
    an additive constant in the weights and error variances.  Raises
    DataError as log_likelihood does.
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
        mu_u, tau2 = _target_params(spec, t)
        n_t = stats.counts[t]
        S, m = _finite_moments(stats, t)
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
    """The penalty per parent: ``penalty``, which must be finite and
    non-negative, or by default half log n, the BIC's."""
    if penalty is None:
        return 0.5 * math.log(n)
    if penalty < 0 or not math.isfinite(penalty):
        raise ParameterError(f"penalty must be finite and non-negative, got {penalty!r}")
    return penalty


def _penalized(resid: np.ndarray, n_ex: int | np.ndarray, cost: float) -> np.ndarray:
    """-n/2 * (1 + log r) - cost for each residual r, or -inf where r is not
    positive and finite, the NaN of an unusable set included.  ``n_ex`` is
    one positive count for every residual or an array of one per residual.

    The bits are those of the scalar expression, one residual at a time:
    the logarithms are ``math.log``'s, mapped over the residuals, since
    ``np.log`` may differ from it in the last bit, and the numpy operations
    after it keep the scalar expression's order.  A residual at or below
    zero makes ``math.log`` raise, and then such residuals get a NaN
    logarithm; NaN scores, and only they, become -inf in ``fmax``, while a
    residual of +inf already scores -inf.
    """
    values = resid.tolist()
    try:
        logs = np.fromiter(map(math.log, values), float, len(values))
    except ValueError:
        logs = np.array([math.log(r) if r > 0 else math.nan for r in values])
    logs += 1.0
    logs *= -0.5 * n_ex
    logs -= cost
    return np.fmax(logs, -math.inf, out=logs)


def _scores(k: int | np.ndarray, parent_sets, local: LocalStats, penalty: float) -> np.ndarray:
    """Penalized scores of checked parent sets, all of one size.

    ``k`` is the vertex label of every set, or a numpy array of one label
    per set.  ``parent_sets`` is a sequence of label tuples or a 2-D array
    of labels, one set per row, fitted in kernel stacks of _CHUNK sets by
    ``_fit_rows``, which finds each set's mixture and groups; a group of
    adjacent sets of one pattern and one parent set that a stack boundary
    cuts is factored once in each stack, with the same bits.  A set whose
    vertex has no more excluding rows than parents scores -inf and is not
    fitted; the others score with their vertex's count of excluding rows,
    one count for a label ``k`` or one per set.  Returns one float64 score
    per set, in the order given.
    """
    idx = np.asarray(parent_sets, dtype=np.intp) - 1
    total, size = idx.shape
    cost = penalty * size
    per_set = isinstance(k, np.ndarray)
    if per_set:
        vertex = k - 1
        n_ex = local.counts_excluding[vertex]
        live = n_ex > size
        every = bool(live.all())
        if not every:
            vertex, idx, n_ex = vertex[live], idx[live], n_ex[live]
    else:
        vertex, n_ex, every = k - 1, local.count_excluding(k), True
        if n_ex <= size:
            return np.full(total, -math.inf)
    fitted = np.empty(len(idx))
    for start in range(0, len(idx), _CHUNK):
        at = slice(start, start + _CHUNK)
        v, n = (vertex[at], n_ex[at]) if per_set else (vertex, n_ex)
        fitted[at] = _penalized(_fit_rows(local, v, idx[at])[2], n, cost)
    if every:
        return fitted
    scores = np.full(total, -math.inf)
    scores[live] = fitted
    return scores


def local_score(
    k: int,
    parent_set: Iterable[int],
    local: LocalStats,
    penalty: float | None = None,
) -> float:
    """Penalized maximized per-vertex term; -inf when the fit is infeasible.

    Returns -n_minus_k/2 * (1 + log residual) - penalty * |parents|, with the
    penalty defaulting to half log n.  Infeasible means: not more usable rows
    than parents, an unidentified vertex, or a parent block that is singular
    or conditioned worse than 1e12.
    """
    pa = _checked_parents(k, parent_set, local.p)
    penalty = _checked_penalty(local.n, penalty)
    return float(_scores(k, [pa], local, penalty)[0])


def bic_score(
    dag: Dag,
    local: LocalStats,
    penalty: float | None = None,
) -> float:
    """Sum of per-vertex penalized scores; larger is better."""
    if dag.p != local.p:
        raise ParameterError("DAG and statistics disagree on the vertex count")
    return sum(local_score(k, dag.parents(k), local, penalty) for k in range(1, dag.p + 1))


class LocalScoreCache:
    """Memoizes local scores keyed by (vertex, parent set).

    Concurrent insert-or-read is safe: values for a key are deterministic, so
    a racing overwrite stores the same number.
    """

    def __init__(self, local: LocalStats, penalty: float | None = None):
        self._local = local
        self._penalty = _checked_penalty(local.n, penalty)
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
