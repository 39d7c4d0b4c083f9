"""Gaussian causal models on DAGs and mixed observational/interventional sampling.

Vertices are labeled 1..p in the public API.  Arrays are 0-indexed, so entry
``weights[k-1, j-1]`` is the coefficient of parent j in the structural
equation of vertex k.  A model describes the linear system

    X = B X + eps,    eps_k ~ N(0, sigma2_k) independent,

whose distribution is mean zero with covariance
(I - B)^{-1} diag(sigma2) (I - B)^{-T}.  An intervention replaces the
equations of the targeted vertices by independent N(mu_U, tau2) draws and
cuts the edges pointing into them.
"""

import functools
import heapq
import itertools
import math
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, ParameterError

__all__ = [
    "Dag",
    "GaussianCausalModel",
    "InterventionTarget",
    "TargetFamily",
    "InterventionSpec",
    "Dataset",
    "sample_random_dag",
    "sample_normalized_model",
    "observational_covariance",
    "intervention_dag",
    "interventional_moments",
    "sample_dataset",
    "format_model",
    "parse_model",
    "derive_seed",
]


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer: an int or a numpy integer, not a bool."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _rng(seed) -> np.random.Generator:
    """Counter-based generator from a 64-bit seed; the only RNG in the package."""
    if not _is_integer(seed):
        raise ParameterError(f"seed must be an integer, got {seed!r}")
    if not 0 <= int(seed) < 2**64:
        raise ParameterError("seed must fit in 64 bits")
    return np.random.Generator(np.random.Philox(int(seed)))


def derive_seed(*entropy: int) -> int:
    """Deterministically mix integers into a fresh 64-bit seed."""
    ss = np.random.SeedSequence([int(e) for e in entropy])
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph on vertices 1..p, stored as per-vertex parent sets.

    ``parent_sets[k-1]`` lists the parents of vertex k in ascending order.
    Construction validates labels, rejects self-loops, and verifies
    acyclicity.
    """

    p: int
    parent_sets: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not isinstance(self.p, int) or self.p < 1:
            raise ParameterError(f"vertex count must be a positive integer, got {self.p!r}")
        if len(self.parent_sets) != self.p:
            raise ParameterError(
                f"expected {self.p} parent sets, got {len(self.parent_sets)}"
            )
        canonical = []
        for k, ps in enumerate(self.parent_sets, start=1):
            ps = tuple(sorted(set(int(j) for j in ps)))
            for j in ps:
                if not 1 <= j <= self.p:
                    raise ParameterError(f"parent {j} of vertex {k} is out of range 1..{self.p}")
                if j == k:
                    raise ParameterError(f"self-loop at vertex {k}")
            canonical.append(ps)
        object.__setattr__(self, "parent_sets", tuple(canonical))
        self.topological_order  # fails on cycles

    @classmethod
    def empty(cls, p: int) -> "Dag":
        return cls(p, tuple(() for _ in range(p)))

    @classmethod
    def from_edges(cls, p: int, edges: Iterable[tuple[int, int]]) -> "Dag":
        """Build from (tail, head) pairs, i.e. ``tail -> head``."""
        parents: list[list[int]] = [[] for _ in range(p)]
        for tail, head in edges:
            if not 1 <= head <= p:
                raise ParameterError(f"edge head {head} is out of range 1..{p}")
            parents[head - 1].append(tail)
        return cls(p, tuple(tuple(ps) for ps in parents))

    def parents(self, k: int) -> tuple[int, ...]:
        return self.parent_sets[k - 1]

    @cached_property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """All (tail, head) pairs, sorted."""
        return tuple(
            sorted((j, k) for k in range(1, self.p + 1) for j in self.parents(k))
        )

    @property
    def num_edges(self) -> int:
        return sum(len(ps) for ps in self.parent_sets)

    def has_edge(self, tail: int, head: int) -> bool:
        return tail in self.parent_sets[head - 1]

    def adjacent(self, a: int, b: int) -> bool:
        return self.has_edge(a, b) or self.has_edge(b, a)

    @cached_property
    def child_sets(self) -> tuple[tuple[int, ...], ...]:
        """``child_sets[k-1]`` lists the children of vertex k in ascending order."""
        children: list[list[int]] = [[] for _ in range(self.p)]
        for k in range(1, self.p + 1):
            for j in self.parents(k):
                children[j - 1].append(k)
        return tuple(map(tuple, children))

    @cached_property
    def topological_order(self) -> tuple[int, ...]:
        """Parents-first vertex order; smallest label first among ready vertices."""
        indeg = [len(ps) for ps in self.parent_sets]
        ready = [k for k in range(1, self.p + 1) if indeg[k - 1] == 0]
        heapq.heapify(ready)
        order: list[int] = []
        while ready:
            v = heapq.heappop(ready)
            order.append(v)
            for c in self.child_sets[v - 1]:
                indeg[c - 1] -= 1
                if indeg[c - 1] == 0:
                    heapq.heappush(ready, c)
        if len(order) != self.p:
            raise ParameterError("parent sets contain a directed cycle")
        return tuple(order)

    @cached_property
    def descendants(self) -> tuple[int, ...]:
        """Every vertex's descendants as an integer bitset (``_descendant_bits``)."""
        return tuple(_descendant_bits(self.parent_sets, self.child_sets))


def _descendant_bits(parents: Sequence[Collection[int]], children: Sequence[Collection[int]]) -> list[int]:
    """Every vertex's descendants as an integer bitset with bit j for vertex
    j, at index k - 1 for vertex k; each vertex is finished after all of its
    children."""
    desc = [0] * len(children)
    waiting = [len(c) for c in children]
    ready = [k for k in range(1, len(children) + 1) if not waiting[k - 1]]
    while ready:
        v = ready.pop()
        bits = 0
        for c in children[v - 1]:
            bits |= desc[c - 1] | 1 << c
        desc[v - 1] = bits
        for u in parents[v - 1]:
            waiting[u - 1] -= 1
            if not waiting[u - 1]:
                ready.append(u)
    return desc


@dataclass(frozen=True, order=True)
class InterventionTarget:
    """A set of intervened vertices; the empty target means observational."""

    members: tuple[int, ...] = ()

    def __post_init__(self):
        raw = tuple(self.members)
        members = tuple(sorted(set(int(v) for v in raw)))
        if len(members) != len(raw):
            raise ParameterError(f"duplicate vertices in target {raw!r}")
        for v in members:
            if v < 1:
                raise ParameterError(f"vertex labels start at 1, got {v}")
        object.__setattr__(self, "members", members)

    @classmethod
    def empty(cls) -> "InterventionTarget":
        return cls(())

    @classmethod
    def of(cls, *vertices: int) -> "InterventionTarget":
        return cls(tuple(vertices))

    @property
    def is_empty(self) -> bool:
        return not self.members

    def __contains__(self, v: int) -> bool:
        return v in self.members

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self):
        return iter(self.members)

    def validate_for(self, p: int) -> None:
        for v in self.members:
            if v > p:
                raise ParameterError(f"target vertex {v} is out of range 1..{p}")

    def label(self) -> str:
        return ";".join(str(v) for v in self.members)


def _fold_order(target: InterventionTarget) -> tuple[int, tuple[int, ...]]:
    """By size, then members: the order of every fold over targets, whose bits depend on it."""
    return len(target.members), target.members


@dataclass(frozen=True)
class TargetFamily:
    """A non-empty, conservative collection of distinct intervention targets.

    Conservative means that every vertex lies outside some target, which
    interventional Markov equivalence and the score's consistency assume
    (Hauser and Buhlmann, JMLR 13, 2012): the targets' member sets share no
    vertex.  Construction rejects any other family, naming the shared
    vertices, so no consumer of a family checks this again; consumers check
    only that its vertices are in range (``validate_for``).
    """

    targets: frozenset[InterventionTarget]

    def __post_init__(self):
        targets = frozenset(self.targets)
        if not targets:
            raise ParameterError("target family must be non-empty")
        shared = set.intersection(*(set(t.members) for t in targets))
        if shared:
            raise ParameterError(
                f"target family is not conservative: vertices {sorted(shared)} lie in every target"
            )
        object.__setattr__(self, "targets", targets)

    @classmethod
    def of(cls, *member_tuples: Iterable[int]) -> "TargetFamily":
        return cls(frozenset(InterventionTarget(tuple(m)) for m in member_tuples))

    def sorted_targets(self) -> tuple[InterventionTarget, ...]:
        """The targets in fold order (``_fold_order``)."""
        return tuple(sorted(self.targets, key=_fold_order))

    def __contains__(self, target: InterventionTarget) -> bool:
        return target in self.targets

    def __iter__(self):
        return iter(self.sorted_targets())

    def __len__(self) -> int:
        return len(self.targets)

    def validate_for(self, p: int) -> None:
        for t in self.targets:
            t.validate_for(p)


@dataclass(frozen=True, eq=False)
class InterventionSpec:
    """Replacement-distribution parameters (mean, variance) per non-empty target.

    For a target I the entry is a pair of vectors aligned with the sorted
    members of I: the means mu_U and the strictly positive variances tau2 of
    the independent Gaussian values forced onto the intervened coordinates.
    """

    entries: Mapping[InterventionTarget, tuple[np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )

    def __post_init__(self):
        fixed = {}
        for target, (mu, tau2) in dict(self.entries).items():
            if target.is_empty:
                raise ParameterError("the observational target takes no parameters")
            mu = np.asarray(mu, dtype=float).reshape(-1)
            tau2 = np.asarray(tau2, dtype=float).reshape(-1)
            if mu.shape != (len(target),) or tau2.shape != (len(target),):
                raise ParameterError(
                    f"parameter vectors for target {target.members} must have length {len(target)}"
                )
            if not np.all(np.isfinite(mu)) or not np.all(np.isfinite(tau2)):
                raise ParameterError(f"non-finite parameters for target {target.members}")
            if np.any(tau2 <= 0):
                raise ParameterError(f"variances for target {target.members} must be positive")
            mu.setflags(write=False)
            tau2.setflags(write=False)
            fixed[target] = (mu, tau2)
        object.__setattr__(self, "entries", fixed)

    @classmethod
    def constant(
        cls, targets: Iterable[InterventionTarget], mean: float, variance: float
    ) -> "InterventionSpec":
        """Assign the same mean and variance to every coordinate of every target."""
        entries = {}
        for t in targets:
            if t.is_empty:
                continue
            entries[t] = (np.full(len(t), float(mean)), np.full(len(t), float(variance)))
        return cls(entries)

    def for_target(self, target: InterventionTarget) -> tuple[np.ndarray, np.ndarray]:
        if target.is_empty:
            z = np.zeros(0)
            return z, z
        try:
            return self.entries[target]
        except KeyError:
            raise ParameterError(
                f"no intervention parameters for target {target.members}"
            ) from None


@dataclass(frozen=True, eq=False)
class GaussianCausalModel:
    """A DAG plus edge weights and per-vertex error variances.

    ``weights[k-1, j-1]`` must be zero unless j is a parent of k; every
    error variance must be strictly positive.
    """

    dag: Dag
    weights: np.ndarray
    error_vars: np.ndarray

    def __post_init__(self):
        p = self.dag.p
        W = np.array(self.weights, dtype=float)
        v = np.array(self.error_vars, dtype=float).reshape(-1)
        if W.shape != (p, p):
            raise ParameterError(f"weight matrix must be {p}x{p}, got {W.shape}")
        if v.shape != (p,):
            raise ParameterError(f"error variance vector must have length {p}")
        if not np.all(np.isfinite(W)) or not np.all(np.isfinite(v)):
            raise ParameterError("model parameters must be finite")
        if np.any(v <= 0):
            raise ParameterError("error variances must be strictly positive")
        mask = np.zeros((p, p), dtype=bool)
        for k in range(1, p + 1):
            for j in self.dag.parents(k):
                mask[k - 1, j - 1] = True
        if np.any(W[~mask] != 0.0):
            raise ParameterError("weights outside the parent structure must be zero")
        W.setflags(write=False)
        v.setflags(write=False)
        object.__setattr__(self, "weights", W)
        object.__setattr__(self, "error_vars", v)

    @property
    def p(self) -> int:
        return self.dag.p


def group_rows(targets: Sequence[InterventionTarget]) -> dict[InterventionTarget, np.ndarray]:
    """Row indices per distinct target, in one pass over the runs of rows.

    The groups come out in first-appearance order, each as a read-only
    ascending index array.  A run of rows holding the same target object is
    found by identity checks at C level and costs one dict lookup and one
    ``np.arange``; equal targets in distinct objects share a group.
    """
    n = len(targets)
    changes = map(operator.is_not, targets[1:], targets)
    starts = [0, *itertools.compress(range(1, n), changes)] if n else []
    runs: dict[InterventionTarget, list[np.ndarray]] = {}
    for start, stop in zip(starts, [*starts[1:], n]):
        runs.setdefault(targets[start], []).append(np.arange(start, stop, dtype=np.intp))
    groups = {t: parts[0] if len(parts) == 1 else np.concatenate(parts) for t, parts in runs.items()}
    for rows in groups.values():
        rows.setflags(write=False)
    return groups


def _rows_index(rows: np.ndarray) -> slice | np.ndarray:
    """An index for one group's ascending rows: a slice, whose selections are
    views, when the rows are one run; otherwise the rows themselves."""
    if len(rows) and rows[-1] - rows[0] == len(rows) - 1:
        return slice(int(rows[0]), int(rows[-1]) + 1)
    return rows


@dataclass(frozen=True, eq=False)
class Dataset:
    """Rows of (target, value vector); row order is meaningful and preserved.

    Construction groups the rows by target once (``row_groups``) and
    validates each distinct target once, not once per row.
    """

    p: int
    targets: tuple[InterventionTarget, ...]
    values: np.ndarray

    def __post_init__(self):
        if self.p < 1:
            raise ParameterError("dataset must have at least one column")
        object.__setattr__(self, "targets", tuple(self.targets))
        # a C-ordered copy that no caller holds
        self._adopt(np.array(self.values, dtype=float, order="C"))

    def _adopt(self, values: np.ndarray) -> None:
        """Check ``values`` and keep it, read-only, as the rows' values, then
        validate each distinct target."""
        if values.ndim != 2 or values.shape != (len(self.targets), self.p):
            raise ParameterError(
                f"value array of shape {values.shape} does not match "
                f"{len(self.targets)} rows x {self.p} columns"
            )
        if values.size and not np.all(np.isfinite(values)):
            raise DataError("dataset contains non-finite values")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        for t in self.row_groups:
            t.validate_for(self.p)

    @classmethod
    def _grouped(cls, p: int, targets: tuple, values: np.ndarray, groups) -> "Dataset":
        """Build a Dataset that keeps ``values``, a float array no one else
        holds, uncopied, and whose ``row_groups`` cache starts as ``groups``,
        which must be ``group_rows(targets)``, so construction validates
        those groups instead of grouping the rows a second time."""
        data = cls.__new__(cls)
        object.__setattr__(data, "p", p)
        object.__setattr__(data, "targets", targets)
        data.__dict__["row_groups"] = groups
        data._adopt(values)
        return data

    @property
    def n(self) -> int:
        return len(self.targets)

    def rows(self):
        for i, t in enumerate(self.targets):
            yield t, self.values[i]

    @cached_property
    def row_groups(self) -> dict[InterventionTarget, np.ndarray]:
        """Row indices per distinct target (see ``group_rows``); do not mutate."""
        return group_rows(self.targets)

    def observed_targets(self) -> TargetFamily:
        """The family of the rows' targets; raises DataError when there are no
        rows, or when some vertex is intervened in every row."""
        if not self.n:
            raise DataError("the dataset has no rows")
        try:
            return TargetFamily(frozenset(self.row_groups))
        except ParameterError as exc:
            raise DataError(f"observed {exc}, so they are intervened in every row") from None


# ---------------------------------------------------------------------------
# sampling


def sample_random_dag(p: int, expected_degree: float, seed: int) -> Dag:
    """Draw a DAG whose skeleton has the requested expected vertex degree.

    A uniformly random permutation fixes the topological order; each forward
    pair becomes an edge independently with probability
    expected_degree / (p - 1).

    Parameters
    ----------
    p : int
        Number of vertices, at least 1.
    expected_degree : float
        Expected number of skeleton neighbors per vertex; 0 <= d < p.
    seed : int
        64-bit seed.
    """
    if not isinstance(p, int) or p < 1:
        raise ParameterError(f"vertex count must be a positive integer, got {p!r}")
    d = float(expected_degree)
    if not math.isfinite(d) or d < 0 or d >= p:
        raise ParameterError(f"expected_degree must satisfy 0 <= d < p, got {d!r}")
    rng = _rng(seed)
    order = [int(v) + 1 for v in rng.permutation(p)]
    parents: list[list[int]] = [[] for _ in range(p)]
    if p > 1:
        q = min(1.0, d / (p - 1))
        # one uniform per forward pair (i, u), i < u, row by row: in bulk a
        # Philox generator gives the doubles it gives one at a time
        tails, heads = np.triu_indices(p, 1)
        hit = rng.random(p * (p - 1) // 2) < q
        for i, u in zip(tails[hit].tolist(), heads[hit].tolist()):
            parents[order[u] - 1].append(order[i])
    return Dag(p, tuple(tuple(ps) for ps in parents))


def _draw_weight_row(rng: np.random.Generator, m: int) -> np.ndarray:
    mag = rng.uniform(0.1, 1.0, size=m)
    sign = np.where(rng.random(m) < 0.5, -1.0, 1.0)
    return sign * mag


def sample_normalized_model(dag: Dag, seed: int) -> GaussianCausalModel:
    """Draw edge weights and solve error variances for unit marginal variances.

    Weights are uniform on [-1, -0.1] union [0.1, 1].  Error variances are
    then solved bottom-up along the topological order so that every vertex
    has marginal variance exactly 1; a weight row is redrawn whenever its
    explained variance reaches 0.99, keeping every solved variance strictly
    positive.
    """
    rng = _rng(seed)
    p = dag.p
    B = np.zeros((p, p))
    sigma2 = np.ones(p)
    root = np.zeros((p, p))  # rows of (I - B)^{-1} diag(sigma), filled in topo order
    for k in dag.topological_order:
        ki = k - 1
        pa = dag.parents(k)
        if pa:
            idx = [j - 1 for j in pa]
            for _ in range(1000):
                row = _draw_weight_row(rng, len(pa))
                contrib = row @ root[idx, :]
                explained = float(contrib @ contrib)
                if explained <= 0.99:
                    break
            else:
                # deterministic fallback: shrink the last draw to half variance
                row = row * math.sqrt(0.5 / explained)
                contrib = row @ root[idx, :]
                explained = float(contrib @ contrib)
            B[ki, idx] = row
            sigma2[ki] = 1.0 - explained
            root[ki] = contrib
        else:
            sigma2[ki] = 1.0
        root[ki, ki] += math.sqrt(sigma2[ki])
    return GaussianCausalModel(dag, B, sigma2)


def _target_params(
    spec: InterventionSpec | None, target: InterventionTarget
) -> tuple[np.ndarray, np.ndarray]:
    """The means and variances of the target's replacement draws, aligned with
    its members: empty for the observational target, else
    ``spec.for_target(target)``, which needs a ``spec``."""
    if target.is_empty:
        return np.zeros(0), np.zeros(0)
    if spec is None:
        raise ParameterError(f"intervention parameters required for target {target.members}")
    return spec.for_target(target)


def _mean_and_root(
    model: GaussianCausalModel,
    target: InterventionTarget,
    spec: InterventionSpec | None,
    base: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean vector and square-root factor A (cov = A A^T) under a target.

    Solved along the topological order; the cut structural system is
    triangular there, so no general matrix inversion is needed.  Without
    ``base`` every row is solved.  ``base`` is the observational pair,
    which is left unchanged: the target replaces only its members'
    equations, so only their rows and their descendants' differ from it.
    A copy has those rows of the root zeroed and solved again, in the same
    order and by the same statements, while every other row reads only rows of its
    ancestors, which are the base's too; each row has the full pass's bits.
    """
    p = model.p
    mu_u, tau2 = _target_params(spec, target)
    pos = {v: i for i, v in enumerate(target.members)}
    order = model.dag.topological_order
    if base is None:
        mu = np.zeros(p)
        A = np.zeros((p, p))
    else:
        desc = model.dag.descendants
        # a member beyond p changes no row; the Dataset of the draws refuses it
        cut = functools.reduce(operator.or_, (desc[v - 1] | 1 << v for v in target if v <= p), 0)
        order = [k for k in order if cut >> k & 1]
        mu, A = base[0].copy(), base[1].copy()
        A[[k - 1 for k in order]] = 0.0  # as the full pass starts them
    for k in order:
        ki = k - 1
        if k in pos:
            mu[ki] = mu_u[pos[k]]
            A[ki, ki] = math.sqrt(tau2[pos[k]])
            continue
        pa = model.dag.parents(k)
        if pa:
            idx = [j - 1 for j in pa]
            w = model.weights[ki, idx]
            mu[ki] = float(w @ mu[idx])
            A[ki] = w @ A[idx, :]
        A[ki, ki] += math.sqrt(model.error_vars[ki])
    return mu, A


def observational_covariance(model: GaussianCausalModel) -> np.ndarray:
    """Covariance (I - B)^{-1} diag(sigma2) (I - B)^{-T} of the uncut system."""
    _, A = _mean_and_root(model, InterventionTarget.empty(), None)
    return A @ A.T


def intervention_dag(dag: Dag, target: InterventionTarget) -> Dag:
    """Delete every edge pointing into an intervened vertex."""
    target.validate_for(dag.p)
    cut = set(target.members)
    return Dag(
        dag.p,
        tuple(() if k in cut else dag.parents(k) for k in range(1, dag.p + 1)),
    )


def interventional_moments(
    model: GaussianCausalModel,
    target: InterventionTarget,
    spec: InterventionSpec | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Mean and covariance of the model under the given intervention target."""
    target.validate_for(model.p)
    mu, A = _mean_and_root(model, target, spec)
    return mu, A @ A.T


def sample_dataset(
    model: GaussianCausalModel,
    target_sequence: Sequence[InterventionTarget],
    spec: InterventionSpec | None = None,
    seed: int = 0,
    *,
    _roots: dict | None = None,
) -> Dataset:
    """Draw one independent row per entry of ``target_sequence``, in order.

    The rows are grouped by target in one pass over their runs, and the
    returned Dataset keeps that grouping as its ``row_groups`` and the
    drawn values uncopied; each distinct target is validated once, by the
    Dataset, and has its rows drawn with one matrix product.  The
    observational mean and covariance root are solved once, in full; each
    other target's are solved from them, again only at its members and
    their descendants (``_mean_and_root``), when its group is drawn, and
    dropped after it, so at most two roots are held at a time.  A group
    whose rows are one run (``_rows_index``) is written in place: the
    product goes straight into its slice of the values and the mean is
    added there, so no temporary of its rows is made.  Other groups are
    gathered, drawn and scattered.

    ``_roots`` is private: a dict that keeps each target's mean and root,
    the observational one included, across calls, for a caller that
    samples several datasets from one model and one ``spec``.
    """
    p = model.p
    targets = tuple(target_sequence)
    groups = group_rows(targets)
    roots = {} if _roots is None else _roots
    rng = _rng(seed)
    n = len(targets)
    X = np.empty((n, p))  # the groups cover every row
    if n:
        Z = rng.standard_normal((n, p))
        observational = InterventionTarget.empty()
        if observational not in roots:
            roots[observational] = _mean_and_root(model, observational, spec)
        base = roots[observational]
        for t, rows in groups.items():
            if t.is_empty:
                mu, A = base
            elif t in roots:
                mu, A = roots[t]
            else:
                mu, A = _mean_and_root(model, t, spec, base)
                if _roots is not None:
                    roots[t] = mu, A
            index = _rows_index(rows)
            if isinstance(index, slice):
                np.matmul(Z[index], A.T, out=X[index])
                X[index] += mu
            else:
                X[index] = Z[index] @ A.T + mu
            del mu, A  # a root that is not kept goes before the next is solved
    return Dataset._grouped(p, targets, X, groups)


# ---------------------------------------------------------------------------
# text serialization

_FLOAT_FMT = "%.17g"  # 17 significant digits round-trip double precision exactly


def format_model(model: GaussianCausalModel) -> str:
    """Serialize as a line-oriented text block; parse_model inverts it bit-exactly."""
    lines = [f"p {model.p}"]
    for tail, head in model.dag.edges:
        beta = model.weights[head - 1, tail - 1]
        lines.append(f"{tail} -> {head} : " + _FLOAT_FMT % beta)
    for k in range(1, model.p + 1):
        lines.append(f"var {k} : " + _FLOAT_FMT % model.error_vars[k - 1])
    return "\n".join(lines) + "\n"


def parse_model(text: str) -> GaussianCausalModel:
    """Parse the format produced by format_model; malformed lines are rejected."""
    p = None
    weights: dict[tuple[int, int], float] = {}
    variances: dict[int, float] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        try:
            if line.startswith("p "):
                if p is not None:
                    raise ValueError("duplicate vertex-count line")
                p = int(line[2:].strip())
                if p < 1:
                    raise ValueError("vertex count must be positive")
            elif line.startswith("var "):
                name, value = line[4:].split(":", 1)
                k = int(name.strip())
                if k in variances:
                    raise ValueError(f"duplicate variance line for vertex {k}")
                variances[k] = float(value.strip())
            else:
                arrow, value = line.split(":", 1)
                tail_s, head_s = arrow.split("->", 1)
                edge = (int(tail_s.strip()), int(head_s.strip()))
                if edge in weights:
                    raise ValueError(f"duplicate edge line for {edge[0]} -> {edge[1]}")
                weights[edge] = float(value.strip())
        except ValueError as exc:
            raise DataError(f"line {lineno}: cannot parse {raw!r} ({exc})") from None
    if p is None:
        raise DataError("missing vertex-count line")
    if sorted(variances) != list(range(1, p + 1)):
        raise DataError("expected exactly one variance line per vertex")
    dag = Dag.from_edges(p, list(weights))
    W = np.zeros((p, p))
    for (tail, head), beta in weights.items():
        W[head - 1, tail - 1] = beta
    v = np.array([variances[k] for k in range(1, p + 1)])
    return GaussianCausalModel(dag, W, v)
