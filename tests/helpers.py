"""Shared test fixtures: hand-built graphs, brute-force enumeration oracles,
and random instance generators.

Everything here is deliberately independent of the library internals it is
used to check: DAG enumeration walks all orientation patterns directly,
the class enumeration oracle is the pruned backtracking search that listed
classes before essential graphs were built directly, the likelihood oracle sums exact multivariate normal log-densities, the
regression oracle fits one parent set at a time through scipy's wrappers,
the score-expression oracle scores one residual at a time, the greedy
oracle rescans every candidate move on every step, reading one score at a
time, the DP oracle loops over subset masks in Python, and
the sampling, statistics and CSV-reading oracles are the per-row loops
those functions were first written as, and the random-DAG oracle draws
one uniform per vertex pair.  The fork fixtures give any machine two usable
cores, or one, and check that no forked child outlives a call.
"""

import contextlib
import itertools
import math
import os
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from scipy.stats import multivariate_normal

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
    SearchConfig,
    SearchTrace,
    TargetFamily,
    TraceStep,
    derive_seed,
    intervention_dag,
    interventional_moments,
    sample_dataset,
    sample_normalized_model,
    sample_random_dag,
    skeleton,
    v_structures,
)
from interdag.equivalence import MAX_CLASS_MEMBERS, MAX_UNDECIDED_EDGES, _pair
from interdag.likelihood import _checked_penalty, _scores, check_scorable
from interdag.model import _mean_and_root, _rng
from interdag.search import IMPROVEMENT_EPS


@pytest.fixture
def forks(monkeypatch):
    """The forks made, with two usable cores whatever the machine has."""
    made = []
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: made.append(os.getpid()) or fork())
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return made


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@contextlib.contextmanager
def one_core():
    """A context in which nothing forks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        yield


def demo_trio() -> tuple[Dag, Dag, Dag]:
    """Three 7-vertex DAGs sharing one skeleton and the single collider 3->6<-5.

    The first two stay indistinguishable when vertex 4 is intervened on; the
    third cuts a different edge at 4 and becomes distinguishable.
    """
    d = Dag.from_edges(
        7,
        [(2, 1), (2, 3), (3, 4), (1, 5), (2, 5), (2, 6), (3, 6), (5, 6), (3, 7), (4, 7)],
    )
    d1 = Dag.from_edges(
        7,
        [(5, 1), (1, 2), (5, 2), (2, 3), (3, 4), (2, 6), (3, 6), (5, 6), (3, 7), (4, 7)],
    )
    d2 = Dag.from_edges(
        7,
        [(2, 1), (3, 2), (4, 3), (7, 3), (7, 4), (1, 5), (2, 5), (2, 6), (3, 6), (5, 6)],
    )
    return d, d1, d2


def all_dags(p: int) -> list[Dag]:
    """Every DAG on p vertices, by filtering all 3^C(p,2) orientation patterns.

    Each unordered pair independently takes one of three states (absent,
    forward, backward); patterns with a directed cycle are dropped.  Only
    sensible for p <= 4 (729 patterns).
    """
    pairs = list(itertools.combinations(range(1, p + 1), 2))
    dags = []
    for states in itertools.product((0, 1, 2), repeat=len(pairs)):
        edges = []
        for (a, b), s in zip(pairs, states):
            if s == 1:
                edges.append((a, b))
            elif s == 2:
                edges.append((b, a))
        if _acyclic_edges(p, edges):
            dags.append(Dag.from_edges(p, edges))
    return dags


def _acyclic_edges(p: int, edges: list[tuple[int, int]]) -> bool:
    children = {k: [] for k in range(1, p + 1)}
    indeg = {k: 0 for k in range(1, p + 1)}
    for t, h in edges:
        children[t].append(h)
        indeg[h] += 1
    ready = [k for k in indeg if indeg[k] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for c in children[v]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return seen == p


def _forced_orientations(
    dag: Dag, family: TargetFamily, pairs: list[tuple[int, int]],
    ref_skel: dict, ref_vs: dict,
) -> dict[tuple[int, int], tuple[int, int]]:
    """Orientations every class member must share.

    A cut edge (exactly one endpoint intervened) survives in the cut graph
    exactly when it points out of the target, so its presence there pins its
    direction; both edges of any reference v-structure are pinned as well.
    """
    forced: dict[tuple[int, int], tuple[int, int]] = {}

    def force(pair, orientation):
        prev = forced.setdefault(pair, orientation)
        if prev != orientation:  # the input DAG realizes every pin, so this cannot fire
            raise AssertionError(f"conflicting forced orientations for {pair}")

    for target in family:
        members = set(target.members)
        skel_t = ref_skel[target]
        for a, b in pairs:
            a_in, b_in = a in members, b in members
            if a_in == b_in:
                continue
            x, y = (a, b) if a_in else (b, a)
            force((a, b), (x, y) if (a, b) in skel_t else (y, x))
        for vs in ref_vs[target]:
            force(_pair(vs.a, vs.b), (vs.a, vs.b))
            force(_pair(vs.c, vs.b), (vs.c, vs.b))
    return forced


def _collider_constraints(p: int, family: TargetFamily, ref_skel: dict, ref_vs: dict):
    """Triples that must (or must not) collide in some cut graph.

    Cut-graph skeletons are identical for every candidate once cut edges are
    pinned, so the potential collider triples are a fixed set; the expected
    answer is whether the reference collides there.
    """
    records: dict[tuple[tuple[int, int], tuple[int, int], int], bool] = {}
    for target in family:
        adj: dict[int, set[int]] = defaultdict(set)
        for a, b in ref_skel[target]:
            adj[a].add(b)
            adj[b].add(a)
        vs_t = {(v.a, v.b, v.c) for v in ref_vs[target]}
        for b in range(1, p + 1):
            nb = sorted(adj[b])
            for i in range(len(nb)):
                for j in range(i + 1, len(nb)):
                    a, c = nb[i], nb[j]
                    if c in adj[a]:
                        continue
                    records[(_pair(a, b), _pair(b, c), b)] = (a, b, c) in vs_t
    return sorted(records.items())


def _free_components(free: list[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """Group undecided edges into connected components through shared vertices."""
    edge_by_vertex: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for e in free:
        edge_by_vertex[e[0]].append(e)
        edge_by_vertex[e[1]].append(e)
    seen: set[tuple[int, int]] = set()
    components = []
    for start in free:
        if start in seen:
            continue
        comp = []
        queue = [start]
        seen.add(start)
        while queue:
            e = queue.pop()
            comp.append(e)
            for v in e:
                for other in edge_by_vertex[v]:
                    if other not in seen:
                        seen.add(other)
                        queue.append(other)
        # breadth-first reordering from the smallest edge keeps adjacent edges
        # close together, which lets collider pruning fire early
        comp.sort()
        ordered = [comp[0]]
        rest = comp[1:]
        touched = set(comp[0])
        while rest:
            pick = None
            for e in rest:
                if e[0] in touched or e[1] in touched:
                    pick = e
                    break
            if pick is None:
                pick = rest[0]
            rest.remove(pick)
            ordered.append(pick)
            touched.update(pick)
        components.append(ordered)
    components.sort(key=lambda comp: comp[0])
    return components


def reference_enumerate_class(dag: Dag, family: TargetFamily) -> list[Dag]:
    """Every DAG equivalent to ``dag`` under the family, the way
    ``enumerate_class`` was first written: orientations pinned by the targets
    (cut edges) and by the cut graphs' v-structures are fixed first, and the
    remaining edges are searched component by component with collider and
    cycle pruning.  ``essential_graph`` must equal the intersection of this
    list, and ``enumerate_class`` this list itself.

    The output is sorted by edge list and always contains ``dag`` itself.
    Raises CapacityError when a connected block of undecided edges exceeds
    MAX_UNDECIDED_EDGES or the class would exceed MAX_CLASS_MEMBERS.
    """
    p = dag.p
    family.validate_for(p)
    pairs = sorted(skeleton(dag).edges)
    ref_skel = {}
    ref_vs = {}
    for target in family:
        cut = intervention_dag(dag, target)
        ref_skel[target] = skeleton(cut).edges
        ref_vs[target] = v_structures(cut)

    forced = _forced_orientations(dag, family, pairs, ref_skel, ref_vs)
    constraints = _collider_constraints(p, family, ref_skel, ref_vs)
    by_edge: dict[tuple[int, int], list[int]] = defaultdict(list)
    for idx, ((e1, e2, _), _) in enumerate(constraints):
        by_edge[e1].append(idx)
        by_edge[e2].append(idx)

    free = [e for e in pairs if e not in forced]
    components = _free_components(free)
    for comp in components:
        if len(comp) > MAX_UNDECIDED_EDGES:
            raise CapacityError(
                f"{len(comp)} mutually connected undecided edges exceed the "
                f"enumeration guard of {MAX_UNDECIDED_EDGES}"
            )

    orient: dict[tuple[int, int], tuple[int, int]] = dict(forced)
    children: dict[int, set[int]] = defaultdict(set)
    for t, h in forced.values():
        children[t].add(h)

    def reaches(start: int, goal: int) -> bool:
        stack = [start]
        visited = {start}
        while stack:
            v = stack.pop()
            if v == goal:
                return True
            for c in children[v]:
                if c not in visited:
                    visited.add(c)
                    stack.append(c)
        return False

    def collider_ok(edge, head) -> bool:
        for idx in by_edge[edge]:
            (e1, e2, b), expected = constraints[idx]
            other = e2 if e1 == edge else e1
            other_orient = orient.get(other)
            if other_orient is None:
                continue
            actual = head == b and other_orient[1] == b
            if actual != expected:
                return False
        return True

    def explore(ordered: list[tuple[int, int]]) -> list[tuple[tuple[int, int], ...]]:
        out: list[tuple[tuple[int, int], ...]] = []

        def dfs(i: int) -> None:
            if i == len(ordered):
                out.append(tuple(orient[e] for e in ordered))
                if len(out) > MAX_CLASS_MEMBERS:
                    raise CapacityError("equivalence class exceeds the member guard")
                return
            edge = ordered[i]
            a, b = edge
            for tail, head in ((a, b), (b, a)):
                if reaches(head, tail):
                    continue
                if not collider_ok(edge, head):
                    continue
                orient[edge] = (tail, head)
                children[tail].add(head)
                dfs(i + 1)
                del orient[edge]
                children[tail].discard(head)

        dfs(0)
        return out

    component_choices = [explore(comp) for comp in components]

    total = 1
    for choices in component_choices:
        total *= len(choices)
        if total > MAX_CLASS_MEMBERS:
            raise CapacityError("equivalence class exceeds the member guard")

    members: list[Dag] = []
    for combo in itertools.product(*component_choices):
        parents: list[list[int]] = [[] for _ in range(p)]
        for t, h in forced.values():
            parents[h - 1].append(t)
        for comp, assignment in zip(components, combo):
            for _, (t, h) in zip(comp, assignment):
                parents[h - 1].append(t)
        # orientations from different components can interleave through the
        # pinned edges, so global acyclicity still needs one full check
        if not _acyclic(p, parents):
            continue
        members.append(Dag(p, tuple(tuple(ps) for ps in parents)))
    members.sort(key=lambda d: d.edges)
    return members


def _acyclic(p: int, parents: list[list[int]]) -> bool:
    indeg = [len(ps) for ps in parents]
    children: list[list[int]] = [[] for _ in range(p)]
    for k in range(p):
        for j in parents[k]:
            children[j - 1].append(k + 1)
    ready = [v for v in range(1, p + 1) if indeg[v - 1] == 0]
    count = 0
    while ready:
        v = ready.pop()
        count += 1
        for c in children[v - 1]:
            indeg[c - 1] -= 1
            if indeg[c - 1] == 0:
                ready.append(c)
    return count == p


def random_conservative_family(rng: np.random.Generator, p: int) -> TargetFamily:
    """The empty target plus a few random small targets; always conservative."""
    targets = [InterventionTarget.empty()]
    extra = int(rng.integers(1, 4))
    for _ in range(extra):
        size = int(rng.integers(1, min(3, p) + 1))
        members = rng.choice(p, size=size, replace=False)
        targets.append(InterventionTarget(tuple(int(v) + 1 for v in members)))
    return TargetFamily(frozenset(targets))


def random_instance(seed: int, p: int, n: int, expected_degree: float = 1.5):
    """A random (model, family, spec, dataset) tuple for oracle comparisons.

    Rows are split evenly across the family's targets, observational rows
    first, so every target in the family actually occurs in the data.
    """
    dag = sample_random_dag(p, expected_degree, derive_seed(seed, 11))
    model = sample_normalized_model(dag, derive_seed(seed, 12))
    rng = np.random.Generator(np.random.Philox(derive_seed(seed, 13)))
    family = random_conservative_family(rng, p)
    spec = InterventionSpec.constant(
        [t for t in family if not t.is_empty],
        mean=float(rng.uniform(-5, 5)),
        variance=float(rng.uniform(0.05, 1.0)),
    )
    targets = family.sorted_targets()
    sequence = []
    for i, t in enumerate(targets):
        share = n // len(targets) + (1 if i < n % len(targets) else 0)
        sequence.extend([t] * share)
    data = sample_dataset(model, sequence, spec, derive_seed(seed, 14))
    return model, family, spec, data


def density_oracle_loglik(model, dataset: Dataset, spec) -> float:
    """Sum of exact multivariate normal log-densities, row by row."""
    total = 0.0
    cache = {}
    for target, x in dataset.rows():
        if target not in cache:
            cache[target] = interventional_moments(model, target, spec)
        mu, cov = cache[target]
        total += float(multivariate_normal.logpdf(x, mean=mu, cov=cov))
    return total


def reference_random_dag(p: int, expected_degree: float, seed: int) -> Dag:
    """``sample_random_dag`` the way it was first written: one ``rng.random()``
    call per forward pair of the permuted order, in row order.

    The bulk draw in ``sample_random_dag`` must give this same DAG.
    """
    rng = _rng(seed)
    order = [int(v) + 1 for v in rng.permutation(p)]
    parents: list[list[int]] = [[] for _ in range(p)]
    if p > 1:
        q = min(1.0, float(expected_degree) / (p - 1))
        for i in range(p):
            for u in range(i + 1, p):
                if rng.random() < q:
                    parents[order[u] - 1].append(order[i])
    return Dag(p, tuple(tuple(ps) for ps in parents))


def reference_sample_dataset(
    model: GaussianCausalModel, target_sequence, spec=None, seed: int = 0
) -> Dataset:
    """``sample_dataset`` the way it was first written: every row validates
    its target, and each distinct target scans the whole sequence with
    ``==`` to find its rows.

    The one-pass grouping in ``sample_dataset`` must give these same bits.
    """
    p = model.p
    targets = tuple(target_sequence)
    for t in targets:
        t.validate_for(p)
    rng = _rng(seed)
    n = len(targets)
    X = np.zeros((n, p))
    if n:
        Z = rng.standard_normal((n, p))
        moments = {}
        for t in targets:
            if t not in moments:
                moments[t] = _mean_and_root(model, t, spec)
        for t, (mu, A) in moments.items():
            rows = [i for i, ti in enumerate(targets) if ti == t]
            X[rows] = Z[rows] @ A.T + mu
    return Dataset(p, targets, X)


def reference_group_rows(targets) -> dict:
    """``group_rows`` the way it was written before it moved by runs: one
    pass that appends every row index to its target's list, with one
    identity check per row and one dict lookup per change of target object.

    ``group_rows`` must return the same keys in the same order, with equal
    read-only ``intp`` arrays.
    """
    groups = {}
    last = rows = None
    for i, t in enumerate(targets):
        if t is not last:
            rows = groups.setdefault(t, [])
            last = t
        rows.append(i)
    arrays = {t: np.array(rows, dtype=np.intp) for t, rows in groups.items()}
    for rows in arrays.values():
        rows.setflags(write=False)
    return arrays


def reference_sufficient_stats(dataset: Dataset):
    """Per-target (count, second moment, first moment), grouping the rows by
    hashing every row's target, the way ``sufficient_stats`` was first written."""
    groups = {}
    for i, t in enumerate(dataset.targets):
        groups.setdefault(t, []).append(i)
    out = {}
    for t, rows in groups.items():
        X = dataset.values[rows]
        n_t = len(rows)
        out[t] = (n_t, (X.T @ X) / n_t, X.sum(axis=0) / n_t)
    return out


def reference_local_stats(stats):
    """Exclusion counts and mixtures the way ``local_stats`` was first
    written: every vertex sorts the targets again and forms every n_t * S_t
    again.  The once-per-target products must give these same bits."""
    p = stats.p
    counts = np.zeros(p, dtype=np.int64)
    mixtures = np.zeros((p, p, p))
    for k in range(1, p + 1):
        n_ex = 0
        acc = np.zeros((p, p))
        for t in stats.targets():
            if k in t:
                continue
            n_t = stats.counts[t]
            n_ex += n_t
            acc += n_t * stats.second_moments[t]
        counts[k - 1] = n_ex
        if n_ex > 0:
            mixtures[k - 1] = acc / n_ex
    return counts, mixtures


def reference_ingest_csv(path: str | Path) -> Dataset:
    """The CSV reader as a row loop, the way ``cli.ingest_csv`` read every file
    before its bulk parse: malformed rows are rejected with their line number.

    Each distinct target field is parsed once.  A row's cells are converted
    with one ``float`` pass and checked for finiteness at once; only a row
    that fails is scanned cell by cell, to name the first bad column.
    """
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from None
    lines = text.splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    header = [c.strip() for c in lines[0].split(",")]
    p = len(header) - 1
    if p < 1 or header[0] != "target" or header[1:] != [f"x{i}" for i in range(1, p + 1)]:
        raise DataError(
            f"{path}: line 1: header must be 'target,x1,...,xp', got {lines[0]!r}"
        )
    parsed: dict[str, InterventionTarget] = {}
    targets: list[InterventionTarget] = []
    values = np.empty((len(lines) - 1, p))
    for lineno, raw in enumerate(lines[1:], start=2):
        cells = raw.split(",")
        if len(cells) != p + 1:
            raise DataError(f"{path}: line {lineno}: expected {p + 1} fields, got {len(cells)}")
        target = parsed.get(cells[0])
        if target is None:
            field = cells[0].strip()
            if field:
                try:
                    labels = [int(part) for part in field.split(";")]
                    target = InterventionTarget(tuple(labels))
                    target.validate_for(p)
                except (ValueError, ParameterError) as exc:
                    raise DataError(
                        f"{path}: line {lineno}: bad target {field!r} ({exc})"
                    ) from None
            else:
                target = InterventionTarget.empty()
            parsed[cells[0]] = target
        try:
            row = list(map(float, cells[1:]))
        except ValueError:
            row = None
        if row is None or not math.isfinite(sum(row)):
            # find the first bad cell; a row of finite cells whose sum overflows passes
            row = []
            for col, cell in enumerate(cells[1:], start=1):
                try:
                    x = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: line {lineno}: column x{col}: not a number: {cell.strip()!r}"
                    ) from None
                if not math.isfinite(x):
                    raise DataError(f"{path}: line {lineno}: column x{col}: non-finite value")
                row.append(x)
        targets.append(target)
        values[lineno - 2] = row
    return Dataset(p, tuple(targets), values)


def reference_fit_row(S: np.ndarray, k_idx: int, pa_idx: list[int]):
    """One vertex regressed on one parent set, the way the score was first
    computed: coefficients and residual second moment, or None when the
    parent block is unusable.

    The batched kernel ``likelihood._fit_rows`` must give these same bits for
    every set, because greedy search compares score gains against a 1e-9
    threshold.
    """
    if not pa_idx:
        return np.zeros(0), float(S[k_idx, k_idx])
    Spp = S[np.ix_(pa_idx, pa_idx)]
    try:
        if np.linalg.cond(Spp) > 1e12:
            return None
    except np.linalg.LinAlgError:
        return None
    try:
        factor = scipy.linalg.cho_factor(Spp, lower=True, check_finite=False)
    except scipy.linalg.LinAlgError:
        return None
    b = scipy.linalg.cho_solve(factor, S[pa_idx, k_idx], check_finite=False)
    full = [k_idx, *pa_idx]
    v = np.empty(len(full))
    v[0] = 1.0
    v[1:] = -b
    resid = float(v @ S[np.ix_(full, full)] @ v)
    return b, resid


def reference_penalized(resid: list[float], n_ex: int | list[int], cost: float) -> list[float]:
    """The penalized score of each residual, one at a time, as the score
    expression was first written: -n/2 * (1 + log r) - cost, or -inf where
    r is not positive and finite.  ``n_ex`` is one count for every residual
    or a list of one per residual."""
    counts = n_ex if isinstance(n_ex, list) else [n_ex] * len(resid)
    return [-0.5 * n * (1.0 + math.log(r)) - cost if 0 < r < math.inf else -math.inf for n, r in zip(counts, resid)]


def _reaches(children: list[set[int]], start: int, goal: int, skip_edge=None) -> bool:
    stack = [start]
    seen = {start}
    while stack:
        v = stack.pop()
        if v == goal:
            return True
        for c in children[v - 1]:
            if (v, c) != skip_edge and c not in seen:
                seen.add(c)
                stack.append(c)
    return False


def reference_greedy_search(local, config: SearchConfig | None = None):
    """Greedy search the way it was first written: every step rescans every
    candidate move of the phase and reads each score from the cache.

    ``search.greedy_search`` keeps a score table per vertex and descendant
    bitsets instead, with no cache, and must return this same DAG and trace
    to the bit: the same phases, the same 1e-9 threshold, the same tie rule
    (largest gain, then smallest (tail, head)) and the same float
    expressions for gains and totals.
    """
    if config is None:
        config = SearchConfig()
    p = local.p
    cache = LocalScoreCache(local, penalty=config.penalty_weight)
    max_parents = config.resolved_max_parents(p)
    parents: list[set[int]] = [set() for _ in range(p)]
    children: list[set[int]] = [set() for _ in range(p)]
    vertex_score = [cache.score(k, ()) for k in range(1, p + 1)]

    def gain(kind, tail, head):
        """The move's score gain, or None when it is not a legal move."""
        pa_h, pa_t = parents[head - 1], parents[tail - 1]
        if kind == "insert":
            if tail in pa_h or len(pa_h) >= max_parents or _reaches(children, head, tail):
                return None
            return cache.score(head, pa_h | {tail}) - vertex_score[head - 1]
        if tail not in pa_h:
            return None
        if kind == "delete":
            return cache.score(head, pa_h - {tail}) - vertex_score[head - 1]
        if len(pa_t) >= max_parents or _reaches(children, tail, head, skip_edge=(tail, head)):
            return None
        return (
            cache.score(head, pa_h - {tail})
            - vertex_score[head - 1]
            + cache.score(tail, pa_t | {head})
            - vertex_score[tail - 1]
        )

    total = start_score = sum(vertex_score)
    steps = []
    improved = True
    while improved and len(steps) < config.max_steps:
        improved = False
        for kind in ("insert", "delete", "reverse"):
            while len(steps) < config.max_steps:
                best = None
                for tail in range(1, p + 1):
                    for head in range(1, p + 1):
                        g = None if tail == head else gain(kind, tail, head)
                        if g is not None and g > IMPROVEMENT_EPS and (best is None or g > best[0]):
                            best = (g, tail, head)
                if best is None:
                    break
                _, tail, head = best
                before = total
                if kind == "reverse":
                    parents[tail - 1].add(head)
                    children[head - 1].add(tail)
                if kind == "insert":
                    parents[head - 1].add(tail)
                    children[tail - 1].add(head)
                else:
                    parents[head - 1].remove(tail)
                    children[tail - 1].remove(head)
                new_head = cache.score(head, parents[head - 1])
                if kind == "reverse":
                    new_tail = cache.score(tail, parents[tail - 1])
                    total += (new_head - vertex_score[head - 1]) + (new_tail - vertex_score[tail - 1])
                    vertex_score[tail - 1] = new_tail
                else:
                    total += new_head - vertex_score[head - 1]
                vertex_score[head - 1] = new_head
                steps.append(TraceStep(len(steps) + 1, kind, (tail, head), before, total))
                improved = True

    dag = Dag(p, tuple(tuple(sorted(s)) for s in parents))
    return dag, SearchTrace(start_score, tuple(steps))


def _beats(score: float, size: int, pset: tuple, inc_score: float, inc_size: int, inc_set: tuple) -> bool:
    """Strict preference between parent-set candidates: higher score, then
    smaller set, then lexicographically smaller."""
    if score != inc_score:
        return score > inc_score
    if size != inc_size:
        return size < inc_size
    return pset < inc_set


def reference_exhaustive_dp(local, config: SearchConfig | None = None) -> Dag:
    """The exact DP the way it was first written: per vertex, Python loops
    over masks keep the best parent set of every subset under ``_beats``'
    order, and the sink recursion maps each mask to a vertex's local mask one
    bit at a time.

    ``search.exhaustive_dp`` ranks the sets, takes subset minima of ranks
    with numpy and runs the sink recursion one popcount layer at a time; it
    must return these same parent sets, ties included.
    """
    if config is None:
        config = SearchConfig()
    p = local.p
    check_scorable(local)
    penalty = _checked_penalty(local.n, config.penalty_weight)
    max_parents = config.resolved_max_parents(p)

    others: list[list[int]] = [[v for v in range(1, p + 1) if v != k] for k in range(p + 1)]
    best_score: list[list[float]] = [[] for _ in range(p + 1)]
    best_set: list[list[tuple[int, ...]]] = [[] for _ in range(p + 1)]
    for k in range(1, p + 1):
        size = 1 << (p - 1)
        # each mask's own parent set first, scored in one batch per set size
        # and not cached, since each score is read once; masks over
        # max_parents stay -inf with the empty set
        scores = [-math.inf] * size
        sets: list[tuple[int, ...]] = [()] * size
        for d in range(max_parents + 1):
            positions = list(itertools.combinations(range(p - 1), d))
            psets = [tuple(others[k][i] for i in pos) for pos in positions]
            for pos, pset, score in zip(positions, psets, _scores(k, psets, local, penalty)):
                mask = sum(1 << i for i in pos)
                scores[mask] = score
                sets[mask] = pset
        for mask in range(size):
            cand_score = scores[mask]
            cand_set = sets[mask]
            m = mask
            while m:
                bit = m & -m
                m ^= bit
                sub = mask ^ bit
                if _beats(scores[sub], len(sets[sub]), sets[sub], cand_score, len(cand_set), cand_set):
                    cand_score = scores[sub]
                    cand_set = sets[sub]
            scores[mask] = cand_score
            sets[mask] = cand_set
        best_score[k] = scores
        best_set[k] = sets

    # position of each other vertex inside k's subset indexing
    pos: list[dict[int, int]] = [{} for _ in range(p + 1)]
    for k in range(1, p + 1):
        pos[k] = {v: i for i, v in enumerate(others[k])}

    def to_local_mask(k: int, global_mask: int) -> int:
        out = 0
        m = global_mask
        while m:
            bit = m & -m
            m ^= bit
            out |= 1 << pos[k][bit.bit_length()]
        return out

    full = (1 << p) - 1
    net = [-math.inf] * (full + 1)
    sink = [0] * (full + 1)
    net[0] = 0.0
    for mask in range(1, full + 1):
        best_val = -math.inf
        best_sink = 0
        m = mask
        while m:
            bit = m & -m
            m ^= bit
            s = bit.bit_length()
            rest = mask ^ bit
            val = net[rest] + best_score[s][to_local_mask(s, rest)]
            if val >= best_val:  # >= so ties settle on the largest-labeled sink
                best_val = val
                best_sink = s
        net[mask] = best_val
        sink[mask] = best_sink

    if not math.isfinite(net[full]):
        raise DegenerateFitError("no feasible parent assignment for the given statistics")

    parent_sets: list[tuple[int, ...]] = [()] * p
    mask = full
    while mask:
        s = sink[mask]
        rest = mask ^ (1 << (s - 1))
        parent_sets[s - 1] = best_set[s][to_local_mask(s, rest)]
        mask = rest
    return Dag(p, tuple(parent_sets))
