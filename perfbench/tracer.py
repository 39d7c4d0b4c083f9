"""Spans and counters recorded around calls into interdag's modules.

The wrappers are installed from outside the package, at the names that
callers actually resolve (for example ``interdag.experiments.greedy_search``,
which ``run_fit`` calls, rather than ``interdag.search.greedy_search``), and
are removed again when tracing ends.  Spans are kept in memory as
``[name, start, end, parent]`` and written out once, at the end.
"""

import importlib
import math
import time
from contextlib import contextmanager

# span name -> every "module:attribute" where a caller on the CLI path looks it up
SPAN_TARGETS = {
    "cli.ingest_csv": ["interdag.cli:ingest_csv"],
    "cli.emit_csv": ["interdag.cli:emit_csv"],
    "experiments.run_fit": ["interdag.cli:run_fit"],
    "experiments.run_consistency_experiment": ["interdag.cli:run_consistency_experiment"],
    "model.sample_dataset": ["interdag.cli:sample_dataset", "interdag.experiments:sample_dataset"],
    "likelihood.sufficient_stats": ["interdag.experiments:sufficient_stats"],
    "likelihood.local_stats": ["interdag.experiments:local_stats"],
    "likelihood.mle_given_dag": ["interdag.experiments:mle_given_dag"],
    "likelihood.local_score": ["interdag.likelihood:local_score"],
    "search.greedy_search": ["interdag.experiments:greedy_search"],
    "search.exhaustive_dp": ["interdag.experiments:exhaustive_dp"],
    "equivalence.essential_graph": ["interdag.cli:essential_graph", "interdag.experiments:essential_graph"],
    "equivalence.enumerate_class": ["interdag.equivalence:enumerate_class"],
    "metrics.shd": ["interdag.experiments:shd"],
    "metrics.skeleton_confusion": ["interdag.experiments:skeleton_confusion"],
    "metrics.directed_confusion": ["interdag.experiments:directed_confusion"],
}

# Score-cache lookups run about a million times per greedy fit.  Even a bare
# counting wrapper adds a quarter to such a fit, so they are counted in a
# pass of their own, without spans.
COUNT_TARGETS = {
    "likelihood.score_cache.lookups": "interdag.likelihood:LocalScoreCache.score",
}


def _observe_essential_graph(counts, graph):
    counts["equivalence.essential_graph.undirected_edges"] += len(graph.undirected)


def _observe_enumerate_class(counts, members):
    counts["equivalence.enumerate_class.members"] += len(members)


def _observe_greedy_search(counts, result):
    counts["search.greedy_search.steps"] += len(result[1])


def _observe_local_stats(counts, local):
    counts["likelihood.local_stats.mixtures_mb"] += local.mixtures.nbytes / 2**20


def _observe_local_score(counts, score):
    if score == -math.inf:
        counts["likelihood.local_score.infeasible"] += 1


OBSERVERS = {
    "equivalence.essential_graph": _observe_essential_graph,
    "equivalence.enumerate_class": _observe_enumerate_class,
    "search.greedy_search": _observe_greedy_search,
    "likelihood.local_stats": _observe_local_stats,
    "likelihood.local_score": _observe_local_score,
}

# Counters that must repeat exactly when the same input is fitted again,
# besides the score-cache lookups, which are counted in their own pass.
SPAN_COUNTERS = (
    "likelihood.local_score.calls",
    "search.greedy_search.steps",
    "equivalence.enumerate_class.members",
    "equivalence.essential_graph.undirected_edges",
)


def deterministic_counters(layers: dict, lookups: int | None = None) -> dict:
    """The deterministic counters of one traced operation, with its lookups when counted."""
    counters = {name: layers[name] for name in SPAN_COUNTERS}
    if lookups is not None:
        counters["likelihood.score_cache.lookups"] = lookups
    return counters


def _resolve(target: str):
    """The object holding the attribute named by ``module:a.b.c``, and the last name."""
    module_name, path = target.split(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = {name: 0 for name in (
            "likelihood.score_cache.lookups",
            "likelihood.local_score.infeasible",
            "likelihood.local_stats.mixtures_mb",
            "search.greedy_search.steps",
            "equivalence.enumerate_class.members",
            "equivalence.essential_graph.undirected_edges",
        )}
        self._stack: list[int] = []

    def span_wrapper(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        observe = OBSERVERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                observe(counts, result)
            return result

        return traced

    def count_wrapper(self, name, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def installed(self, span_targets: dict, count_targets: dict):
        """Install the given wrappers; restore the original attributes on exit."""
        saved = []
        try:
            for name, targets in span_targets.items():
                for target in targets:
                    owner, attr = _resolve(target)
                    original = getattr(owner, attr)
                    saved.append((owner, attr, original))
                    setattr(owner, attr, self.span_wrapper(name, original))
            for name, target in count_targets.items():
                owner, attr = _resolve(target)
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.count_wrapper(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def span_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy time and self time.

    Busy time sums a name's spans that are not nested inside another span of
    the same name; self time subtracts from each span the time of the spans
    directly nested in it.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    totals: dict[str, dict[str, float]] = {}
    for idx, (name, start, end, parent) in enumerate(spans):
        entry = totals.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += (end - start) - child_time[idx]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["busy_s"] += end - start
    return totals


LAYER_UNITS = {
    "setup.import_s": "s",
    "setup.model.sample_dataset.busy_s": "s",
    "setup.cli.emit_csv.busy_s": "s",
    "setup.equivalence.essential_graph.busy_s": "s",
    "setup.equivalence.enumerate_class.members": "count",
    "op.traced_s": "s",
    "fit.wall_s": "s",
    "reference.kernel_s": "s",
    "trace.overhead_ratio": "ratio",
    "cli.ingest_csv.busy_s": "s",
    "likelihood.sufficient_stats.busy_s": "s",
    "likelihood.local_stats.busy_s": "s",
    "likelihood.local_stats.mixtures_mb": "MB",
    "search.greedy_search.busy_s": "s",
    "search.greedy_search.self_s": "s",
    "search.greedy_search.steps": "count",
    "search.exhaustive_dp.busy_s": "s",
    "search.exhaustive_dp.self_s": "s",
    "likelihood.score_cache.lookups": "count",
    "likelihood.score_cache.hit_ratio": "ratio",
    "likelihood.local_score.calls": "count",
    "likelihood.local_score.busy_s": "s",
    "likelihood.local_score.us_per_call": "us",
    "likelihood.local_score.infeasible": "count",
    "likelihood.mle_given_dag.busy_s": "s",
    "equivalence.essential_graph.calls": "count",
    "equivalence.essential_graph.busy_s": "s",
    "equivalence.essential_graph.self_s": "s",
    "equivalence.essential_graph.undirected_edges": "count",
    "equivalence.enumerate_class.busy_s": "s",
    "equivalence.enumerate_class.members": "count",
    "model.sample_dataset.calls": "count",
    "model.sample_dataset.busy_s": "s",
    "metrics.busy_s": "s",
    "experiments.run_fit.self_s": "s",
    "experiments.run_consistency_experiment.self_s": "s",
    "quality.shd": "count",
}


def _getter(spans: list[list]):
    """``get(name, field)`` over the span totals, 0 for a name that never ran."""
    totals = span_totals(spans)
    return lambda name, field: totals.get(name, {}).get(field, 0.0)


def op_layer_metrics(spans: list[list], counts: dict[str, float]) -> dict[str, float]:
    """The per-module metrics of one traced operation; 0 where a module did not run."""
    get = _getter(spans)

    calls = get("likelihood.local_score", "calls")
    busy = get("likelihood.local_score", "busy_s")
    return {
        "cli.ingest_csv.busy_s": get("cli.ingest_csv", "busy_s"),
        "likelihood.sufficient_stats.busy_s": get("likelihood.sufficient_stats", "busy_s"),
        "likelihood.local_stats.busy_s": get("likelihood.local_stats", "busy_s"),
        "likelihood.local_stats.mixtures_mb": counts["likelihood.local_stats.mixtures_mb"],
        "search.greedy_search.busy_s": get("search.greedy_search", "busy_s"),
        "search.greedy_search.self_s": get("search.greedy_search", "self_s"),
        "search.greedy_search.steps": counts["search.greedy_search.steps"],
        "search.exhaustive_dp.busy_s": get("search.exhaustive_dp", "busy_s"),
        "search.exhaustive_dp.self_s": get("search.exhaustive_dp", "self_s"),
        "likelihood.local_score.calls": calls,
        "likelihood.local_score.busy_s": busy,
        "likelihood.local_score.us_per_call": 1e6 * busy / calls if calls else 0.0,
        "likelihood.local_score.infeasible": counts["likelihood.local_score.infeasible"],
        "likelihood.mle_given_dag.busy_s": get("likelihood.mle_given_dag", "busy_s"),
        "equivalence.essential_graph.calls": get("equivalence.essential_graph", "calls"),
        "equivalence.essential_graph.busy_s": get("equivalence.essential_graph", "busy_s"),
        "equivalence.essential_graph.self_s": get("equivalence.essential_graph", "self_s"),
        "equivalence.essential_graph.undirected_edges": counts["equivalence.essential_graph.undirected_edges"],
        "equivalence.enumerate_class.busy_s": get("equivalence.enumerate_class", "busy_s"),
        "equivalence.enumerate_class.members": counts["equivalence.enumerate_class.members"],
        "model.sample_dataset.calls": get("model.sample_dataset", "calls"),
        "model.sample_dataset.busy_s": get("model.sample_dataset", "busy_s"),
        "metrics.busy_s": sum(get(name, "busy_s") for name in SPAN_TARGETS if name.startswith("metrics.")),
        "experiments.run_fit.self_s": get("experiments.run_fit", "self_s"),
        "experiments.run_consistency_experiment.self_s": get(
            "experiments.run_consistency_experiment", "self_s"
        ),
    }


def cache_metrics(lookups: float, local_score_calls: float) -> dict[str, float]:
    """Score-cache lookups, and the share of them served without a fit."""
    return {
        "likelihood.score_cache.lookups": lookups,
        "likelihood.score_cache.hit_ratio": (lookups - local_score_calls) / lookups if lookups else 0.0,
    }


def setup_layer_metrics(spans: list[list], counts: dict[str, float]) -> dict[str, float]:
    """The per-module metrics of one traced set-up (the ``simulate`` call)."""
    get = _getter(spans)
    return {
        "setup.model.sample_dataset.busy_s": get("model.sample_dataset", "busy_s"),
        "setup.cli.emit_csv.busy_s": get("cli.emit_csv", "busy_s"),
        "setup.equivalence.essential_graph.busy_s": get("equivalence.essential_graph", "busy_s"),
        "setup.equivalence.enumerate_class.members": counts["equivalence.enumerate_class.members"],
    }
