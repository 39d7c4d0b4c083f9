"""Structure search over DAGs: greedy edge moves and exact dynamic programming.

Both searchers optimize the same decomposable penalized score, so a move
only ever re-scores the vertices whose parent sets it touches.  The greedy
searcher cycles through insertion, deletion, and reversal phases until a
full cycle yields no improvement; the exact searcher runs the classic
best-parent-set / best-sink recursion over vertex subsets.
"""

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

from .equivalence import check_conservative
from .errors import CapacityError, DegenerateFitError, ParameterError
from .likelihood import LocalScoreCache, LocalStats, _checked_penalty, _scores, check_identified
from .model import Dag, TargetFamily

__all__ = [
    "SearchConfig",
    "TraceStep",
    "SearchTrace",
    "greedy_search",
    "exhaustive_dp",
    "format_trace",
]

# score gains at or below this threshold do not count as improvements
IMPROVEMENT_EPS = 1e-9

DP_VERTEX_LIMIT = 20


@dataclass(frozen=True)
class SearchConfig:
    """Knobs shared by both searchers.

    ``max_parents`` defaults to min(p - 1, 8) at run time; ``penalty_weight``
    defaults to half log n.  Every tie is broken lexicographically, so
    searches are deterministic.
    """

    max_parents: int | None = None
    max_steps: int = 100_000
    penalty_weight: float | None = None

    def __post_init__(self):
        if self.max_parents is not None and self.max_parents < 0:
            raise ParameterError("max_parents must be non-negative")
        if self.max_steps < 0:
            raise ParameterError("max_steps must be non-negative")
        if self.penalty_weight is not None and (
            self.penalty_weight < 0 or not math.isfinite(self.penalty_weight)
        ):
            raise ParameterError("penalty_weight must be finite and non-negative")

    def resolved_max_parents(self, p: int) -> int:
        if self.max_parents is None:
            return min(p - 1, 8)
        return min(self.max_parents, p - 1)


class TraceStep(NamedTuple):
    step: int
    kind: str  # "insert", "delete", or "reverse"
    edge: tuple[int, int]
    score_before: float
    score_after: float


@dataclass(frozen=True)
class SearchTrace:
    """Accepted moves in order; scores increase strictly along the trace."""

    start_score: float
    steps: tuple[TraceStep, ...]

    @property
    def final_score(self) -> float:
        return self.steps[-1].score_after if self.steps else self.start_score

    def __len__(self) -> int:
        return len(self.steps)


def format_trace(trace: SearchTrace) -> str:
    """Line-oriented log: step, move kind, edge, and score delta."""
    lines = [f"start {trace.start_score:.17g}"]
    for s in trace.steps:
        delta = s.score_after - s.score_before
        lines.append(f"{s.step} {s.kind} {s.edge[0]}->{s.edge[1]} {delta:.17g}")
    return "\n".join(lines) + "\n"


def _descendant_sets(p: int, children: list[set[int]]) -> list[set[int]]:
    desc: list[set[int]] = [set() for _ in range(p)]
    for start in range(1, p + 1):
        stack = list(children[start - 1])
        seen = set(stack)
        while stack:
            v = stack.pop()
            for c in children[v - 1]:
                if c not in seen:
                    seen.add(c)
                    stack.append(c)
        desc[start - 1] = seen
    return desc


def _reaches(children: list[set[int]], start: int, goal: int, skip_edge=None) -> bool:
    stack = [start]
    seen = {start}
    while stack:
        v = stack.pop()
        if v == goal:
            return True
        for c in children[v - 1]:
            if skip_edge is not None and (v, c) == skip_edge:
                continue
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return False


def greedy_search(
    local: LocalStats,
    family: TargetFamily,
    config: SearchConfig | None = None,
) -> tuple[Dag, SearchTrace]:
    """Hill-climb from the empty DAG with phase-restricted moves.

    Within each phase the single best improving move of that kind is applied
    repeatedly; the phase cycle (insert, delete, reverse) repeats until one
    full cycle accepts nothing, which certifies a local optimum over all
    three move kinds.  Ties take the lexicographically smallest
    (kind, tail, head); only gains above IMPROVEMENT_EPS are accepted.

    Insertions come from a move table.  A vertex's score depends only on its
    own parent set, so the gain of inserting tail -> head changes only when
    head's parents change (Chickering 2002).  Each head keeps its improving
    insertions as (-gain, tail) in sorted order, together with the parent set
    they were scored for; a row is rescored, in one batch, only when the
    head's parents differ from that set, which covers inserts into and
    deletes from the head and reversals at either end.  Acyclicity depends on
    the whole graph, so feasibility is checked again on every step: a head's
    best move is the first feasible entry of its row.  Deletion and
    reversal scan the current edges on every step instead: there are few of
    them, each costs one or two score lookups, and together they took no
    measurable share of a p=100 search.
    """
    if config is None:
        config = SearchConfig()
    p = local.p
    check_conservative(family, p)
    check_identified(local)
    cache = LocalScoreCache(local, penalty=config.penalty_weight)
    max_parents = config.resolved_max_parents(p)

    parents: list[set[int]] = [set() for _ in range(p)]
    children: list[set[int]] = [set() for _ in range(p)]
    vertex_score = [cache.score(k, ()) for k in range(1, p + 1)]
    if not all(math.isfinite(s) for s in vertex_score):
        bad = [k for k in range(1, p + 1) if not math.isfinite(vertex_score[k - 1])]
        raise DegenerateFitError(f"vertices {bad} have no usable marginal variance")
    total = sum(vertex_score)
    start_score = total

    steps: list[TraceStep] = []
    # per head: improving insertions as sorted (-gain, tail), and the parent
    # set they were scored for
    rows: list[list[tuple[float, int]]] = [[] for _ in range(p)]
    rows_for: list[frozenset[int] | None] = [None] * p

    def best_insert():
        desc = _descendant_sets(p, children)
        best = None
        for head in range(1, p + 1):
            pa = parents[head - 1]
            if len(pa) >= max_parents:
                continue
            if rows_for[head - 1] != pa:
                tails = [tail for tail in range(1, p + 1) if tail != head and tail not in pa]
                scores = cache.score_many(head, [pa | {tail} for tail in tails])
                gains = [(score - vertex_score[head - 1], tail) for tail, score in zip(tails, scores)]
                rows[head - 1] = sorted((-gain, tail) for gain, tail in gains if gain > IMPROVEMENT_EPS)
                rows_for[head - 1] = frozenset(pa)
            for neg_gain, tail in rows[head - 1]:
                # head -> tail, or a longer path head ~> tail, would close a cycle
                if head in parents[tail - 1] or tail in desc[head - 1]:
                    continue
                # as a scan in (tail, head) order keeping the first strict maximum
                gain = -neg_gain
                if best is None or gain > best[0] or (gain == best[0] and (tail, head) < best[1:]):
                    best = (gain, tail, head)
                break
        return best

    def best_delete():
        best = None
        for tail, head in sorted(
            (t, h) for h in range(1, p + 1) for t in parents[h - 1]
        ):
            gain = cache.score(head, parents[head - 1] - {tail}) - vertex_score[head - 1]
            if gain > IMPROVEMENT_EPS and (best is None or gain > best[0]):
                best = (gain, tail, head)
        return best

    def best_reverse():
        best = None
        for tail, head in sorted(
            (t, h) for h in range(1, p + 1) for t in parents[h - 1]
        ):
            if len(parents[tail - 1]) >= max_parents:
                continue
            # reversing tail->head is acyclic iff no other path tail ~> head
            if _reaches(children, tail, head, skip_edge=(tail, head)):
                continue
            gain = (
                cache.score(head, parents[head - 1] - {tail})
                - vertex_score[head - 1]
                + cache.score(tail, parents[tail - 1] | {head})
                - vertex_score[tail - 1]
            )
            if gain > IMPROVEMENT_EPS and (best is None or gain > best[0]):
                best = (gain, tail, head)
        return best

    finders = (("insert", best_insert), ("delete", best_delete), ("reverse", best_reverse))

    improved = True
    while improved and len(steps) < config.max_steps:
        improved = False
        for kind, finder in finders:
            while len(steps) < config.max_steps:
                found = finder()
                if found is None:
                    break
                _, tail, head = found
                before = total
                if kind == "insert":
                    parents[head - 1].add(tail)
                    children[tail - 1].add(head)
                    new = cache.score(head, parents[head - 1])
                    total += new - vertex_score[head - 1]
                    vertex_score[head - 1] = new
                elif kind == "delete":
                    parents[head - 1].remove(tail)
                    children[tail - 1].remove(head)
                    new = cache.score(head, parents[head - 1])
                    total += new - vertex_score[head - 1]
                    vertex_score[head - 1] = new
                else:
                    parents[head - 1].remove(tail)
                    children[tail - 1].remove(head)
                    parents[tail - 1].add(head)
                    children[head - 1].add(tail)
                    new_head = cache.score(head, parents[head - 1])
                    new_tail = cache.score(tail, parents[tail - 1])
                    total += (new_head - vertex_score[head - 1]) + (new_tail - vertex_score[tail - 1])
                    vertex_score[head - 1] = new_head
                    vertex_score[tail - 1] = new_tail
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


def exhaustive_dp(local: LocalStats, config: SearchConfig | None = None) -> Dag:
    """Globally maximize the penalized score by subset dynamic programming.

    Exact over all DAGs whose in-degrees respect max_parents.  Memory and
    time grow as p * 2^p; vertices are hard-capped at DP_VERTEX_LIMIT.  With
    the default max_parents and n=2000, on one core of a shared 2-core host
    (Python 3.11, numpy 2.4), it took 0.5 s at p=12, 2.3 s at p=14, 12 s at
    p=16 and 39 s with a 119 MB peak RSS at p=18.
    """
    if config is None:
        config = SearchConfig()
    p = local.p
    if p > DP_VERTEX_LIMIT:
        raise CapacityError(f"exact search supports at most {DP_VERTEX_LIMIT} vertices, got {p}")
    check_identified(local)
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
