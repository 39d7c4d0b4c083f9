"""The fit pipeline (``fit_structure``), single fits, and seeded replicate grids.

A consistency experiment draws, per replicate, one random normalized model,
a fixed set of single-vertex intervention targets, and then one dataset per
(n, mu) grid point.  The model and targets depend only on (seed, replicate),
so rows are paired across grid points and the whole run is a pure function
of the configuration; wall-clock timings are the one exception and live in
their own output file.
"""

import json
import math
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from operator import attrgetter
from pathlib import Path

from .equivalence import EssentialGraph, essential_graph, format_essential_graph
from .errors import ParameterError
from .likelihood import FittedModel, LocalStats, _check_memory, local_stats, mle_given_dag, sufficient_stats
from .metrics import ConfusionCounts, directed_confusion, shd, skeleton_confusion
from .model import (
    _FLOAT_FMT,
    Dag,
    Dataset,
    GaussianCausalModel,
    InterventionSpec,
    InterventionTarget,
    TargetFamily,
    _rng,
    derive_seed,
    format_model,
    sample_dataset,
    sample_normalized_model,
    sample_random_dag,
)
from .search import METHODS, SearchConfig, SearchTrace, _check_dp_vertices, _check_numbers, exhaustive_dp
from .search import format_trace, greedy_search

__all__ = ["ExperimentConfig", "ResultRow", "fit_structure", "estimate_essential_graph", "run_fit",
           "run_consistency_experiment"]

_FMT = _FLOAT_FMT.__mod__


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid description for a consistency experiment.

    Every replicate uses ``k`` distinct single-vertex targets drawn uniformly
    without replacement, ``replicates_per_target`` rows per target, and the
    remaining rows observational.  ``seed`` is mandatory.  Construction
    checks every setting, those of the search included, and raises
    ParameterError on the first bad one, or CapacityError when drawing the
    largest dataset would hold more than physical memory
    (``_sampling_bytes``); then CapacityError when the exact search is
    asked for more vertices than it supports.
    """

    seed: int
    p: int = 10
    expected_degree: float = 1.8
    n_grid: tuple[int, ...] = (100, 1000, 10000)
    k: int = 5
    replicates_per_target: int = 2
    mu_grid: tuple[float, ...] = (10.0,)
    tau: float = 0.2
    replicates: int = 30
    method: str = field(default="greedy", metadata={"choices": METHODS})
    max_parents: int | None = None
    workers: int = 1

    def __post_init__(self):
        _check_numbers(self)
        if not 0 <= self.seed < 2**64:
            raise ParameterError("seed is mandatory and must fit in 64 bits")
        if self.p < 1:
            raise ParameterError("p must be at least 1")
        if not 0 <= self.expected_degree < self.p:
            raise ParameterError("expected_degree must satisfy 0 <= d < p")
        if not self.n_grid or not self.mu_grid:
            raise ParameterError("n_grid and mu_grid must be non-empty")
        for mu in self.mu_grid:
            if not math.isfinite(mu):
                raise ParameterError(f"mu must be finite, got {mu!r}")
        if not 0 <= self.k <= self.p:
            raise ParameterError("k must lie between 0 and p")
        if self.k and self.replicates_per_target < 1:
            raise ParameterError("replicates_per_target must be positive when k > 0")
        if self.tau <= 0:
            raise ParameterError("tau must be positive")
        if self.tau * self.tau == 0:
            raise ParameterError(f"tau must have a positive square, got {self.tau!r}")
        if self.replicates < 1:
            raise ParameterError("replicates must be positive")
        self.search_config  # checks method and max_parents
        if self.workers < 1:
            raise ParameterError("workers must be positive")
        n_int = self.n_interventional
        for n in self.n_grid:
            if n < 1:
                raise ParameterError("every n must be positive")
            if n < n_int:
                raise ParameterError(
                    f"n={n} is smaller than the {n_int} interventional rows"
                )
            if n == n_int and self.k < 2:
                raise ParameterError(
                    "a grid point without observational rows needs at least two targets"
                )
        top = max(self.n_grid)
        _check_memory(self._sampling_bytes(top),
                      f"the arrays that sampling n={top} rows over p={self.p} vertices holds")
        # every error variance of sample_normalized_model is at least 0.01, so
        # every total effect is at most 10 in magnitude, and a cell's values lie
        # within 10 * (|mu| + 10 * tau) of zero at up to ten standard deviations
        # of tau (the unit-variance noise is negligible at scales that could
        # overflow): the second moments of max(n_grid) such rows must be finite,
        # and so must max(n_grid), which the product converts to a float
        if top > sys.float_info.max:
            raise ParameterError(f"n must not exceed the largest float, got {top}")
        for name, value, mu in [("tau", self.tau, 0.0), *(("mu", mu, mu) for mu in self.mu_grid)]:
            scale = 10 * (abs(mu) + 10 * self.tau)
            if not math.isfinite(top * scale * scale):
                raise ParameterError(f"{name} must have a finite square, got {value!r}: the second moments "
                                     f"of {top} rows of values up to 10 * (|mu| + 10 * tau) overflow")
        if self.method == "dp":
            _check_dp_vertices(self.p)

    def _sampling_bytes(self, n: int) -> int:
        """Bytes that drawing a dataset of n rows in this grid holds at its
        peak: per value, 8 for the standard normals, 8 for the values and 1
        for the Dataset's finiteness mask, all alive at once; per row, 32 for
        four pointer-sized entries, its target in the cell's row sequence
        and in the Dataset's tuple, its index in its target's group, and one
        for the sequence's spare capacity; means and covariance roots,
        p + p * p floats each: with more than one n, one per mu and target,
        the observational one included, which a replicate keeps; otherwise
        the observational one and the target's being drawn; and 2048 per
        target for its Python objects: the InterventionTarget, its
        InterventionSpec vectors, its row group's index array and, where
        roots are kept, the objects and dict entry of its mean and root;
        and 16 KiB for what a draw allocates whatever its size, such as its
        random generators.  Under tracemalloc on Python 3.11 a target's
        objects take 0.3 to 1.1 KB, the most with every root kept and one
        row per target, and a draw of one or two rows over one or two
        vertices peaks at 4 to 8.5 KB."""
        p = self.p
        roots = len(self.mu_grid) * (self.k + 1) if len(self.n_grid) > 1 else min(self.k + 1, 2)
        return n * (17 * p + 32) + roots * (p + 1) * p * 8 + self.k * 2048 + 16384

    @property
    def search_config(self) -> SearchConfig:
        """The search settings of every fit in the grid."""
        return SearchConfig(max_parents=self.max_parents, method=self.method)

    @property
    def n_interventional(self) -> int:
        return self.k * self.replicates_per_target


@dataclass(frozen=True)
class ResultRow:
    """One fitted replicate at one grid point."""

    p: int
    expected_degree: float
    k: int
    replicates_per_target: int
    tau: float
    method: str
    n: int
    mu: float
    replicate: int
    shd: int
    exact: bool
    runtime_seconds: float
    skeleton_tp: int
    skeleton_fp: int
    skeleton_fn: int
    skeleton_tn: int
    directed_tp: int
    directed_fp: int
    directed_fn: int
    directed_tn: int


def fit_structure(
    dataset: Dataset,
    family: TargetFamily,
    config: SearchConfig = SearchConfig(),
) -> tuple[LocalStats, Dag, SearchTrace | None]:
    """Search a DAG for the data under a target family, by ``config.method``.

    Returns the per-vertex statistics the search scored, the DAG it found,
    and the greedy search's trace (None for the exact search).
    """
    local = local_stats(sufficient_stats(dataset), family)
    if config.method == "greedy":
        dag, trace = greedy_search(local, config)
        return local, dag, trace
    return local, exhaustive_dp(local, config), None


def estimate_essential_graph(
    dataset: Dataset,
    family: TargetFamily,
    config: SearchConfig = SearchConfig(),
) -> EssentialGraph:
    """Fit a structure to the data and report its equivalence class."""
    return essential_graph(fit_structure(dataset, family, config)[1], family)


@contextmanager
def _writing(path: str | Path):
    """Report an OSError raised in the block, which writes under ``path``,
    as a ParameterError naming the file or directory that failed."""
    try:
        yield
    except OSError as exc:
        raise ParameterError(f"cannot write {exc.filename or path}: {exc.strerror or exc}") from None


def _created(out_dir: str | Path) -> Path:
    """``out_dir`` as a Path, created with its parents where missing; one
    that cannot be created raises ParameterError."""
    out = Path(out_dir)
    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
    return out


def run_fit(
    dataset: Dataset,
    family: TargetFamily | None = None,
    config: SearchConfig = SearchConfig(),
    out_dir: str | Path | None = None,
) -> tuple[FittedModel, EssentialGraph, SearchTrace | None]:
    """Fit a structure, refit its parameters, and report its class.

    The family defaults to the targets observed in the data, and then data
    without rows, or with a vertex intervened in every row, raises
    DataError.  When ``out_dir`` is given, the fitted model, essential
    graph, search trace, and a JSON summary are written there.  ``out_dir`` is created before
    the search runs, so a fit that then fails leaves it behind, empty; a
    directory or file that cannot be written raises ParameterError.
    """
    if family is None:
        family = dataset.observed_targets()
    out = None if out_dir is None else _created(out_dir)
    local, dag, trace = fit_structure(dataset, family, config)
    fitted = mle_given_dag(dag, local)
    graph = essential_graph(dag, family)
    if out is not None:
        with _writing(out):
            (out / "model.txt").write_text(format_model(fitted.to_model()), encoding="utf-8")
            (out / "essential.txt").write_text(format_essential_graph(graph), encoding="utf-8")
            if trace is not None:
                (out / "trace.txt").write_text(format_trace(trace), encoding="utf-8")
            summary = {
                "p": dataset.p,
                "n": dataset.n,
                "method": config.method,
                "bic": fitted.bic,
                "log_likelihood": fitted.log_likelihood,
                "edges": fitted.dag.num_edges,
                "directed_edges": len(graph.directed),
                "undirected_edges": len(graph.undirected),
            }
            (out / "fit.json").write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    return fitted, graph, trace


def _draw_cell(
    config: ExperimentConfig, n: int, seed: int
) -> tuple[list[InterventionTarget], list[InterventionTarget]]:
    """A cell's k single-vertex targets, drawn from ``seed`` uniformly without
    replacement, and its row sequence of n targets: the observational rows
    first, then ``replicates_per_target`` rows per target."""
    singles = []
    if config.k:
        chosen = _rng(seed).choice(config.p, size=config.k, replace=False)
        singles = [InterventionTarget.of(v) for v in sorted(int(v) + 1 for v in chosen)]
    sequence = [InterventionTarget.empty()] * (n - config.n_interventional)
    for t in singles:
        sequence.extend([t] * config.replicates_per_target)
    return singles, sequence


def _draw_model(config: ExperimentConfig, *rep: int) -> tuple[Dag, GaussianCausalModel]:
    """A replicate's random DAG and normalized model, from ``derive_seed(config.seed,
    1, *rep)`` and ``(config.seed, 2, *rep)``; ``interdag simulate`` passes no ``rep``."""
    dag = sample_random_dag(config.p, config.expected_degree, derive_seed(config.seed, 1, *rep))
    return dag, sample_normalized_model(dag, derive_seed(config.seed, 2, *rep))


# the ResultRow fields that copy an ExperimentConfig setting
_CONFIG_COLUMNS = [f.name for f in fields(ResultRow) if f.name in ExperimentConfig.__dataclass_fields__]


def _confusion_fields(prefix: str, counts: ConfusionCounts) -> dict[str, int]:
    """The ResultRow fields ``<prefix>_tp``, ``_fp``, ``_fn`` and ``_tn`` of a confusion table."""
    return {f"{prefix}_tp": counts.true_positives, f"{prefix}_fp": counts.false_positives,
            f"{prefix}_fn": counts.false_negatives, f"{prefix}_tn": counts.true_negatives}


def _run_replicate(args: tuple) -> list[ResultRow]:
    """Every grid point of one replicate: its DAG and model are drawn once,
    its targets from one seed at every grid point, each target's mean and
    covariance root once per mu when there is more than one n, and the
    true essential graph once per observed family."""
    config, rep = args
    dag, model = _draw_model(config, rep)
    target_seed = derive_seed(config.seed, 3, rep)
    search_config = config.search_config
    settings = {name: getattr(config, name) for name in _CONFIG_COLUMNS}
    truth_graphs: dict[TargetFamily, EssentialGraph] = {}
    # a target's mean and covariance root depend only on the model, the
    # target and its (mu, tau), so with more than one n each (mu, target)
    # pair gets them once; with one n no pair is drawn twice, and sampling
    # keeps no root beyond its call
    roots = [{} if len(config.n_grid) > 1 else None for _ in config.mu_grid]
    rows = []
    for n_idx, n in enumerate(config.n_grid):
        singles, sequence = _draw_cell(config, n, target_seed)
        for mu_idx, mu in enumerate(config.mu_grid):
            spec = InterventionSpec.constant(singles, mu, config.tau**2)
            data = sample_dataset(model, sequence, spec, derive_seed(config.seed, 4, rep, n_idx, mu_idx),
                                  _roots=roots[mu_idx])
            family = data.observed_targets()

            t0 = time.perf_counter()
            _, fitted_dag, _ = fit_structure(data, family, search_config)
            runtime = time.perf_counter() - t0
            # the next cell's draw holds no dataset but its own
            del data

            if family not in truth_graphs:
                truth_graphs[family] = essential_graph(dag, family)
            truth_graph = truth_graphs[family]
            est_graph = essential_graph(fitted_dag, family)
            distance = shd(truth_graph, est_graph)
            rows.append(ResultRow(
                **settings, n=n, mu=mu, replicate=rep, shd=distance, exact=distance == 0,
                runtime_seconds=runtime,
                **_confusion_fields("skeleton", skeleton_confusion(truth_graph, est_graph)),
                **_confusion_fields("directed", directed_confusion(truth_graph, est_graph)),
            ))
    return rows


def run_consistency_experiment(
    config: ExperimentConfig,
    out_dir: str | Path | None = None,
) -> list[ResultRow]:
    """Run the full replicate grid; optionally write result CSVs.

    Returns rows sorted by (n, mu, replicate).  With a fixed seed the rows
    and both summary CSVs are bit-identical across runs; only the timing
    file varies.  ``out_dir`` is created before the grid runs, and a
    directory or file that cannot be written raises ParameterError.
    """
    out = None if out_dir is None else _created(out_dir)
    jobs = [(config, rep) for rep in range(config.replicates)]
    # a fork-started pool forks all its workers at the first submit, so
    # workers beyond the replicate count would only sit idle
    workers = min(config.workers, config.replicates)
    if workers > 1:
        # imported here: it loads multiprocessing, socket and subprocess,
        # which a one-worker run never uses
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            per_replicate = list(pool.map(_run_replicate, jobs))
    else:
        per_replicate = [_run_replicate(job) for job in jobs]
    rows = [row for replicate_rows in per_replicate for row in replicate_rows]
    rows.sort(key=attrgetter(*_CELL, "replicate"))
    if out is not None:
        with _writing(out):
            _write_table(out / "rows.csv", _ROW_COLUMNS, map(attrgetter(*_ROW_COLUMNS), rows))
            _write_table(out / "medians.csv", [*_CELL, "replicates", "median_shd", "exact_fraction"],
                         _cell_summaries(rows))
            _write_table(out / "timings.csv", _TIMING_COLUMNS, map(attrgetter(*_TIMING_COLUMNS), rows))
    return rows


# the ResultRow fields that name a grid cell, in the order rows are sorted
_CELL = ("n", "mu")
_ROW_COLUMNS = [f.name for f in fields(ResultRow) if f.name != "runtime_seconds"]
_TIMING_COLUMNS = [*_CELL, "replicate", "runtime_seconds"]


def _cell_text(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return _FMT(value)
    return str(value)


def _write_table(path: Path, header: list[str], records) -> None:
    """Write a CSV of the header and one line per record, every cell in ``_cell_text``."""
    lines = [",".join(header)]
    lines.extend(",".join(map(_cell_text, record)) for record in records)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _cell_summaries(rows: list[ResultRow]) -> list[tuple]:
    """Per ``_CELL`` cell, in sorted order: the cell's fields (n, mu), then
    its replicates, median SHD and exact fraction."""
    cells: dict[tuple, list[ResultRow]] = {}
    cell_of = attrgetter(*_CELL)
    for r in rows:
        cells.setdefault(cell_of(r), []).append(r)
    return [(*cell, len(g), float(statistics.median(r.shd for r in g)), sum(r.exact for r in g) / len(g))
            for cell, g in sorted(cells.items())]
