"""Structure search over DAGs: greedy edge moves and exact dynamic programming.

Both searchers optimize the same decomposable penalized score, so a move
only ever re-scores the vertices whose parent sets it touches.  The greedy
searcher cycles through insertion, deletion, and reversal phases until a
full cycle yields no improvement; the exact searcher runs the classic
best-parent-set / best-sink recursion over vertex subsets.
"""

import itertools
import math
import numbers
from dataclasses import dataclass, field
from operator import itemgetter
from typing import NamedTuple, get_args, get_origin, get_type_hints

import numpy as np

from ._fork import _forked
from .errors import CapacityError, ParameterError
from .likelihood import (
    _CHUNK,
    LocalStats,
    _checked_penalty,
    _scores,
    check_scorable,
)
from .model import _FLOAT_FMT, Dag, _descendant_bits, _is_integer

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

METHODS = ("greedy", "dp")  # greedy hill climbing or the exact DP

# the exact search shares its scoring with a forked child from this many
# (vertex, parent set) pairs on: from p = 12 at the default max_parents.
# Near 10,000 pairs (p = 11, or p = 17 with max_parents = 3) the fork's
# round trip and the slower calls of two busy processes cost about what
# the second core saves
_DP_FORK_PAIRS = 20_000

# a kernel call's estimated cost beyond its sets', in factorizations of a
# parent block, fitted to the kernel's times at p = 12 to 16 (``_dp_cut``).
# Without it and the per-pair weight, a cut at half the pairs left the
# child, whose calls take the larger sets, a third to a half more time
# than this process at p = 12
_DP_CALL_COST = 120


def _check_dp_vertices(p: int) -> None:
    if p > DP_VERTEX_LIMIT:
        raise CapacityError(f"exact search supports at most {DP_VERTEX_LIMIT} vertices, got {p}")


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: an int, a float or a numpy number, not a bool."""
    return isinstance(value, numbers.Real) and not isinstance(value, (bool, np.bool_))


def _field_kinds(config_cls) -> dict[str, tuple[type, bool, bool]]:
    """Each field name of the dataclass ``config_cls`` with what its type
    hint, ``X``, ``X | None`` or ``tuple[X, ...]``, says it holds: its kind
    X (``int``, ``float`` or ``str``), whether it is a tuple of them, and
    whether it may be None.  String annotations resolve as the evaluated
    ones do."""
    kinds = {}
    for name, hint in get_type_hints(config_cls).items():
        args = get_args(hint)
        kinds[name] = (args[0] if args else hint, get_origin(hint) is tuple, type(None) in args)
    return kinds


# per kind of number: the rule each value of that kind follows, and its
# names in an error, for one value and for several
_NUMBER_RULES = {int: (_is_integer, "an integer", "integers"), float: (_is_real, "a real number", "real numbers")}


def _check_numbers(config) -> None:
    """Raise ParameterError, naming the field, unless every number field of
    the frozen dataclass ``config`` (an int or a float by ``_field_kinds``,
    optional or a tuple) holds numbers of its kind: integers as ``_rng``
    takes a seed, or real numbers that a float can hold; a bool is neither.
    Each number is stored in its kind, as an int or a float, and a list as
    a tuple."""
    for name, (kind, several, optional) in _field_kinds(type(config)).items():
        value = getattr(config, name)
        if kind not in _NUMBER_RULES or (optional and value is None):
            continue
        rule, one, many = _NUMBER_RULES[kind]
        what = f"a tuple of {many}" if several else one
        values = value if several else (value,)
        if not isinstance(values, (tuple, list)) or not all(map(rule, values)):
            raise ParameterError(f"{name} must be {what}, got {value!r}")
        try:
            stored = tuple(map(kind, values))
        except OverflowError:
            raise ParameterError(f"{name} must be {what} that a float can hold, got {value!r}") from None
        object.__setattr__(config, name, stored if several else stored[0])


@dataclass(frozen=True)
class SearchConfig:
    """One search: the penalized score it maximizes and the searcher.

    ``max_parents`` defaults to min(p - 1, 8) at run time; ``penalty_weight``
    defaults to half log n, the BIC's.  ``max_steps`` bounds greedy search
    only.  Every tie is broken lexicographically, so searches are
    deterministic.
    """

    max_parents: int | None = None
    max_steps: int = 100_000
    penalty_weight: float | None = None
    method: str = field(default="greedy", metadata={"choices": METHODS})

    def __post_init__(self):
        _check_numbers(self)
        if self.max_parents is not None and self.max_parents < 0:
            raise ParameterError("max_parents must be non-negative")
        if self.max_steps < 0:
            raise ParameterError("max_steps must be non-negative")
        self.resolved_penalty(1)  # checks penalty_weight; n sets only the default
        if self.method not in METHODS:
            raise ParameterError(f"method must be one of {METHODS}, got {self.method!r}")

    def resolved_max_parents(self, p: int) -> int:
        if self.max_parents is None:
            return min(p - 1, 8)
        return min(self.max_parents, p - 1)

    def resolved_penalty(self, n: int) -> float:
        return _checked_penalty(n, self.penalty_weight)


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
    lines = ["start " + _FLOAT_FMT % trace.start_score]
    for s in trace.steps:
        delta = s.score_after - s.score_before
        lines.append(f"{s.step} {s.kind} {s.edge[0]}->{s.edge[1]} " + _FLOAT_FMT % delta)
    return "\n".join(lines) + "\n"


def greedy_search(local: LocalStats, config: SearchConfig = SearchConfig()) -> tuple[Dag, SearchTrace]:
    """Hill-climb from the empty DAG with phase-restricted moves.

    Within each phase the single best improving move of that kind is applied
    repeatedly; the phase cycle (insert, delete, reverse) repeats until one
    full cycle accepts nothing, which certifies a local optimum over all
    three move kinds.  Ties take the lexicographically smallest
    (kind, tail, head); only gains above IMPROVEMENT_EPS are accepted.  The
    target family is not an argument: the score needs only ``local``, and
    every ``TargetFamily`` is conservative by construction.

    Every score comes from one table per vertex.  A vertex's score depends
    only on its own parent set, so a move changes the scores of the
    vertices whose parents it changes and no others (Chickering 2002).
    Each vertex's table holds its score with each other vertex toggled in
    its current parent set: added (only below max_parents) or removed,
    together with its improving insertions as (-gain, tail, score) in
    sorted order.  Two kernel calls fill every table before the first step:
    one scores every vertex's empty set, the other all p(p - 1)
    single-parent sets, ordered by (pattern, tail) so that the heads of one
    exclusion pattern share each tail's factorization; those are kept in
    one (p, p) array.  A table is refreshed the first time its vertex is
    read after the vertex's parents change, by one ``_scores`` call for the
    additions, its parents plus each tail as one array of sorted labels,
    and one for the removals whose scores greedy does not hold.  After
    inserting tail -> head it holds two: removing tail gives head's score
    before the insert, and when head had one parent a, removing a leaves
    {tail}, which the opening scored.  So a refresh whose removals are all
    known makes one call.  Reusing a score relies on the kernel giving a
    set the same bits whatever else is in its stack.  There is no score
    cache.  A deletion of tail -> head reads head's entry for tail; a
    reversal reads that and tail's entry for head.  Every finder returns
    (gain, tail, head, new head score, new tail score or None), so applying
    a move scores nothing.

    Acyclicity depends on the whole graph, so it is checked again on every
    step against every vertex's descendants, kept as an integer bitset.
    Inserting tail -> head adds head and its descendants to tail and to
    every vertex that reaches tail; a deletion or a reversal removes paths,
    which no such update can undo, so the bitsets are rebuilt from the
    edges at once.  A head's best insertion is the first entry of its row
    whose tail head does not reach, and tail -> head may be reversed only
    when no other child of tail reaches head.
    """
    p = local.p
    check_scorable(local)
    penalty = config.resolved_penalty(local.n)
    max_parents = config.resolved_max_parents(p)

    parents: list[set[int]] = [set() for _ in range(p)]
    children: list[set[int]] = [set() for _ in range(p)]
    vertex_score = _scores(np.arange(1, p + 1), [()] * p, local, penalty).tolist()
    total = start_score = sum(vertex_score)

    steps: list[TraceStep] = []
    # per vertex: its score with each other vertex toggled in its parents,
    # and its improving insertions as sorted (-gain, tail, score); None
    # whenever its parents have changed since it was last read
    tables: list[tuple[dict[int, float], list[tuple[float, int, float]]] | None] = [None] * p
    # per vertex whose table is stale: the removal scores it will not fit,
    # set by the insert that made it stale
    known: list[dict[int, float]] = [{} for _ in range(p)]
    # single[head - 1, tail - 1]: head's score with the one parent tail
    single = np.empty((p, p))
    # the descendant bitsets of the current graph
    desc = [0] * p

    def fill(v, tails, added):
        """Set vertex v's table from the scores ``added`` of its parents plus
        each of ``tails``, scoring the removal of each of its parents whose
        score is not known."""
        toggled = dict(zip(tails, added))
        row = []
        for tail, score in toggled.items():
            gain = score - vertex_score[v - 1]
            if gain > IMPROVEMENT_EPS:
                row.append((-gain, tail, score))
        row.sort()
        toggled.update(known[v - 1])
        known[v - 1] = {}
        drops = sorted(parents[v - 1].difference(toggled))
        if drops:
            ordered = sorted(parents[v - 1])
            removals = [tuple(u for u in ordered if u != drop) for drop in drops]
            toggled.update(zip(drops, _scores(v, removals, local, penalty).tolist()))
        tables[v - 1] = (toggled, row)

    def table(v):
        if tables[v - 1] is None:
            pa = parents[v - 1]
            tails = [u for u in range(1, p + 1) if u != v and u not in pa] if len(pa) < max_parents else []
            # v's parents plus each tail, as rows of sorted labels; the labels
            # are distinct, and the stable sort is faster on rows this short
            rows = np.empty((len(tails), len(pa) + 1), dtype=np.intp)
            rows[:, :-1] = sorted(pa)
            rows[:, -1] = tails
            rows.sort(axis=1, kind="stable")
            fill(v, tails, _scores(v, rows, local, penalty).tolist() if tails else [])
        return tables[v - 1]

    # every vertex's first table: all p(p - 1) single-parent sets in one
    # call, ordered by (pattern, tail, head) so that the heads of a pattern
    # share one factorization per tail.  With no room for a parent no table
    # is read
    if max_parents:
        heads, tails = np.nonzero(~np.eye(p, dtype=bool))
        order = np.lexsort((heads, tails, local.pattern_of[heads]))
        heads, tails = heads[order], tails[order]
        single[heads, tails] = _scores(heads + 1, tails[:, None] + 1, local, penalty)
        del heads, tails, order
        for v in range(1, p + 1):
            added = single[v - 1].tolist()
            del added[v - 1]
            fill(v, [*range(1, v), *range(v + 1, p + 1)], added)

    def best_insert():
        best = None
        for head in range(1, p + 1):
            if len(parents[head - 1]) >= max_parents:
                continue
            reach = desc[head - 1]
            for neg_gain, tail, score in table(head)[1]:
                # a path head ~> tail would close a cycle
                if reach >> tail & 1:
                    continue
                # as a scan in (tail, head) order keeping the first strict maximum
                gain = -neg_gain
                if best is None or gain > best[0] or (gain == best[0] and (tail, head) < best[1:3]):
                    best = (gain, tail, head, score, None)
                break
        return best

    def best_edge_move(reverse):
        best = None
        for tail, head in sorted((t, h) for h in range(1, p + 1) for t in parents[h - 1]):
            # tail needs room for head, and a path tail -> c ~> head other than
            # the edge would close a cycle
            if reverse and (len(parents[tail - 1]) >= max_parents
                            or any(desc[c - 1] >> head & 1 for c in children[tail - 1])):
                continue
            new_head = table(head)[0][tail]
            if reverse:
                new_tail = table(tail)[0][head]
                gain = new_head - vertex_score[head - 1] + new_tail - vertex_score[tail - 1]
            else:
                new_tail = None
                gain = new_head - vertex_score[head - 1]
            if gain > IMPROVEMENT_EPS and (best is None or gain > best[0]):
                best = (gain, tail, head, new_head, new_tail)
        return best

    improved = True
    while improved and len(steps) < config.max_steps:
        improved = False
        for kind in ("insert", "delete", "reverse"):
            while len(steps) < config.max_steps:
                found = best_insert() if kind == "insert" else best_edge_move(kind == "reverse")
                if found is None:
                    break
                _, tail, head, new_head, new_tail = found
                before = total
                tables[head - 1] = None
                if kind == "insert":
                    # removing tail gives head's score before the insert; when
                    # head had one parent, removing it leaves {tail}
                    known[head - 1] = {tail: vertex_score[head - 1]}
                    if len(parents[head - 1]) == 1:
                        (only,) = parents[head - 1]
                        known[head - 1][only] = float(single[head - 1, tail - 1])
                    parents[head - 1].add(tail)
                    children[tail - 1].add(head)
                    # tail and every vertex that reaches it now reach head and
                    # head's descendants
                    reached = desc[head - 1] | 1 << head
                    for v in range(p):
                        if v == tail - 1 or desc[v] >> tail & 1:
                            desc[v] |= reached
                else:
                    parents[head - 1].remove(tail)
                    children[tail - 1].remove(head)
                    if kind == "reverse":
                        parents[tail - 1].add(head)
                        children[head - 1].add(tail)
                        tables[tail - 1] = None
                    desc = _descendant_bits(parents, children)
                if new_tail is None:
                    total += new_head - vertex_score[head - 1]
                else:
                    total += (new_head - vertex_score[head - 1]) + (new_tail - vertex_score[tail - 1])
                    vertex_score[tail - 1] = new_tail
                vertex_score[head - 1] = new_head
                steps.append(TraceStep(len(steps) + 1, kind, (tail, head), before, total))
                improved = True

    dag = Dag(p, tuple(tuple(sorted(s)) for s in parents))
    return dag, SearchTrace(start_score, tuple(steps))


def _combinations(n: int, d: int) -> np.ndarray:
    """Every d-subset of range(n), one per row, in itertools.combinations order."""
    count = math.comb(n, d)
    flat = itertools.chain.from_iterable(itertools.combinations(range(n), d))
    return np.fromiter(flat, dtype=np.intp, count=count * d).reshape(count, d)


def _squeeze(mask, s: int):
    """Vertex s's local mask of a global mask without bit s - 1: bits above
    it move down by one.  Works on ints and on integer arrays alike."""
    return ((mask >> s) << (s - 1)) | (mask & ((1 << (s - 1)) - 1))


def _best_subsets(scores: np.ndarray, set_masks: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank the scored sets of one vertex and find the best within every subset.

    ``set_masks`` lists the scored sets by size and then lexicographically,
    so a stable sort on descending score ranks them by the preference of
    the search: higher score, then smaller set, then lexicographically
    smaller.  Unscored masks rank last.  The best rank within every subset
    is then a subset minimum, taken with one numpy pass per bit; the empty
    set is scored, so every mask gets a scored set.

    Returns the best score within every mask of n bits, and the set masks
    in rank order: a mask's best set is the first of them inside it.
    """
    order = np.argsort(-scores, kind="stable")
    rank = np.full(1 << n, len(order), dtype=np.int32)
    rank[set_masks[order]] = np.arange(len(order), dtype=np.int32)
    for j in range(n):
        halves = rank.reshape(-1, 2, 1 << j)
        np.minimum(halves[:, 0], halves[:, 1], out=halves[:, 1])
    return scores[order][rank], set_masks[order]


def _dp_calls(p: int, max_parents: int, sizes: list[int]):
    """The kernel calls of ``_dp_scores`` in order, each as (d, q, start,
    stop): the sets of size d from start to stop - 1, in
    ``_combinations(p, d)`` order, each with the vertices of pattern q
    outside it, where ``sizes`` are the patterns' vertex counts.  A call
    takes whole sets, at most _CHUNK sets and vertices, so that one call is
    one kernel stack."""
    for d in range(max_parents + 1):
        count = math.comb(p, d)
        for q, size in enumerate(sizes):
            step = max(1, _CHUNK // size)
            for start in range(0, count, step):
                yield d, q, start, min(start + step, count)


def _dp_cut(p: int, calls: list[tuple[int, int, int, int]], sizes: list[int]) -> int:
    """How many of ``calls`` (``_dp_calls``) this process makes when a child
    makes the rest: the fewest whose estimated cost reaches half of all.
    A call of s sets of size d, with a pattern of m vertices, scores about
    s * m * (p - d) / p pairs of a vertex and a set, and factors the block
    of each set with a vertex outside it, about min(s, pairs) blocks; it is
    estimated at _DP_CALL_COST plus one per block plus d / 10 per pair."""
    cost = []
    for d, q, start, stop in calls:
        pairs = (stop - start) * sizes[q] * (p - d) / p
        cost.append(_DP_CALL_COST + min(stop - start, pairs) + pairs * d / 10)
    return int(np.searchsorted(np.cumsum(cost), sum(cost) / 2)) + 1


def _dp_blocks(p: int, patterns: list[np.ndarray], calls):
    """Per call of ``calls`` (``_dp_calls``): the vertices it scores, the
    place of each one's set in the vertex's row of ``_dp_scores``, and the
    sets, as rows of labels.  Dropping a vertex's own sets keeps the
    lexicographic order, so a set's place in a vertex's row is the count of
    that vertex's sets before it."""
    for d, of_size in itertools.groupby(calls, itemgetter(0)):
        sets = _combinations(p, d)
        inside = np.zeros((len(sets), p), dtype=bool)
        inside[np.arange(len(sets))[:, None], sets] = True
        sets += 1  # the kernel takes labels
        offset = sum(math.comb(p - 1, e) for e in range(d))  # where the sets of size d start in every row
        for q, of_pattern in itertools.groupby(of_size, itemgetter(1)):
            members = patterns[q]
            outside = ~inside[:, members]
            position = np.cumsum(outside, axis=0) + (offset - 1)
            for _, _, start, stop in of_pattern:
                at, which = np.nonzero(outside[start:stop])
                at += start
                yield members[which], position[at, which], sets[at]


def _dp_scores(local: LocalStats, max_parents: int, penalty: float) -> np.ndarray:
    """Every vertex's score of every parent set of at most max_parents of
    the others, one row per vertex, by size and then lexicographically.

    The vertices of one exclusion pattern are scored together, size by
    size: set by set, each vertex of the pattern outside the set, so that
    they form one group of the kernel and share the set's parent block
    (``_dp_calls``, ``_dp_blocks``).

    From _DP_FORK_PAIRS (vertex, set) pairs on, the calls are shared with
    a forked child (``_fork._forked``): this process makes the first
    ``_dp_cut`` calls and the child the rest.  A vertex's sets come in its
    row's order, so the child's calls score the rest of each vertex's row
    after the sets this process scored.  The child sends those rests, row
    after row, as one frame of float64 values.  Without that frame, whole,
    this process makes the child's calls itself, so its errors are this
    process's own.  A set's score has the same bits in any stack, so the
    table is the same either way.
    """
    p = local.p
    scores = np.empty((p, sum(math.comb(p - 1, d) for d in range(max_parents + 1))))
    patterns = [np.flatnonzero(local.pattern_of == q) for q in np.flatnonzero(np.bincount(local.pattern_of))]
    sizes = [len(members) for members in patterns]
    calls = list(_dp_calls(p, max_parents, sizes))
    cut = _dp_cut(p, calls, sizes) if scores.size >= _DP_FORK_PAIRS else len(calls)
    head, tail = calls[:cut], calls[cut:]

    def score(part) -> np.ndarray:
        """Put the scores of the calls ``part`` in the table; return how many
        sets of each vertex they scored."""
        done = np.zeros(p, dtype=np.intp)
        for vertex, position, sets in _dp_blocks(p, patterns, part):
            scores[vertex, position] = _scores(vertex + 1, sets, local, penalty)
            done += np.bincount(vertex, minlength=p)
        return done

    def rests(done: np.ndarray) -> np.ndarray:
        """Where each row's rest after its first ``done`` sets is."""
        return np.arange(scores.shape[1]) >= done[:, None]

    def child():
        yield scores[rests(scores.shape[1] - score(tail))]

    with _forked(bool(tail), child) as frames:
        rest = rests(score(head))
        frame = None if frames is None else next(frames, None)
        if frame is None or len(frame) != 8 * np.count_nonzero(rest):
            score(tail)
        else:
            scores[rest] = np.frombuffer(frame)
    return scores


def exhaustive_dp(local: LocalStats, config: SearchConfig = SearchConfig()) -> Dag:
    """Globally maximize the penalized score by subset dynamic programming.

    Exact over all DAGs whose in-degrees respect max_parents (Silander &
    Myllymäki, UAI 2006).  Each vertex scores every parent set of at most
    max_parents of the others (``_dp_scores``): the vertices of one
    exclusion pattern are scored together, size by size, with the sets
    grouped by parent set, so that one factorization of a set's parent
    block serves every vertex of the pattern outside it, and the kernel
    skips its conditioning test when the pattern's mixture is proven well
    conditioned (``LocalStats.proven``, decided once per pattern by
    ``local_stats``).  The scores come back in each
    vertex's order, by size and then lexicographically, and
    ``_best_subsets`` then finds the best parent set within every subset of
    the others.  Ties go to the smaller set, then the lexicographically
    smaller one.  The best-sink recursion runs one popcount layer of vertex
    subsets at a time, vectorized over the layer; ties go to the
    largest-labelled sink.  Only the p sinks on the final path have their
    parent sets decoded.

    Memory and time grow as p * 2^p; vertices are hard-capped at
    DP_VERTEX_LIMIT.  With the default max_parents and n=2000, on a 2-core
    x86-64 host (Python 3.11, numpy 2.4, scipy 1.17, one BLAS thread;
    median of seven runs at p=12 and 14, of three above), it took:

        p                              12     14     16    18    20
        observational, one core (s)   0.028  0.10   0.49  1.6   5.8
        observational, two cores (s)  0.025  0.073  0.29  1.0   4.4
        three targets, one core (s)   0.036  0.13   0.52  1.7   5.9
        three targets, two cores (s)  0.030  0.10   0.46  1.2   3.8

    with three single-vertex targets of five rows each.  Peak RSS was 80 MB
    at p=18 and 168 MB at p=20; on two cores the child's, pages shared with
    this process included, was 31 MB at p=12 and 88 to 124 MB at p=20.
    From p=18 on, the best-subset pass and the sink recursion, which one
    process runs, are a growing share.  Observational data has
    one pattern, so a factorization serves up to p - d vertices.  The
    kernel runs Python once per factorization, so its loop of ``dposv``
    calls, one per pattern and parent set, is its largest part: about
    two fifths of the kernel's time on the p=12 input with three targets,
    ahead of the gather of the blocks, the score expression and the
    residual forms.
    """
    p = local.p
    _check_dp_vertices(p)
    check_scorable(local)
    penalty = config.resolved_penalty(local.n)
    max_parents = config.resolved_max_parents(p)

    # local positions of every candidate parent set, by size and then
    # lexicographically: the order of every vertex's scores
    set_masks = np.concatenate(
        [(1 << _combinations(p - 1, d)).sum(axis=1) for d in range(max_parents + 1)]
    ).astype(np.int32)
    scores = _dp_scores(local, max_parents, penalty)
    best_score: list[np.ndarray] = []
    ranked_masks: list[np.ndarray] = []
    for k in range(p):
        best, ranked = _best_subsets(scores[k], set_masks, p - 1)
        best_score.append(best)
        ranked_masks.append(ranked)
    del scores

    full = (1 << p) - 1
    masks = np.arange(full + 1)
    popcount = np.zeros(full + 1, dtype=np.int8)
    for j in range(p):
        popcount += (masks >> j & 1).astype(np.int8)
    net = np.full(full + 1, -math.inf)
    net[0] = 0.0
    sink = np.zeros(full + 1, dtype=np.int8)
    for size in range(1, p + 1):
        layer = np.flatnonzero(popcount == size)
        layer_best = np.full(len(layer), -math.inf)
        layer_sink = np.zeros(len(layer), dtype=np.int8)
        for s in range(1, p + 1):
            at = np.flatnonzero(layer >> (s - 1) & 1)
            rest = layer[at] ^ (1 << (s - 1))
            val = net[rest] + best_score[s - 1][_squeeze(rest, s)]
            better = val >= layer_best[at]  # >= so ties settle on the largest-labelled sink
            layer_best[at[better]] = val[better]
            layer_sink[at[better]] = s
        net[layer] = layer_best
        sink[layer] = layer_sink

    parent_sets: list[tuple[int, ...]] = [()] * p
    mask = full
    while mask:
        s = int(sink[mask])
        rest = mask ^ (1 << (s - 1))
        ranked = ranked_masks[s - 1]
        chosen = int(ranked[np.flatnonzero((ranked & ~_squeeze(rest, s)) == 0)[0]])
        labels = [v for v in range(1, p + 1) if v != s]
        parent_sets[s - 1] = tuple(v for i, v in enumerate(labels) if chosen >> i & 1)
        mask = rest
    return Dag(p, tuple(parent_sets))
