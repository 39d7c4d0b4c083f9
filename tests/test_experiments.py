"""The fit pipeline and seeded replicate grids.

Core claims:
    - fit_structure returns what the searcher its config's method names
      returns on the same per-vertex statistics, with the greedy trace or
      None; run_fit writes that method to fit.json, and no trace.txt for
      the exact search.
    - A target family that is not conservative is a ParameterError when
      built, so run_fit and estimate_essential_graph never get one; the
      family run_fit observes in data with a vertex intervened in every row
      is a DataError naming that vertex, for both methods.
    - ExperimentConfig checks itself when built, its search settings
      included: every integer setting holds integers (a bool is refused, a
      numpy integer is stored as an int), every real one a real number a
      float can hold (stored as a float), and it refuses the exact search beyond its vertex limit and a
      largest dataset beyond physical memory, the default grid's when memory
      is one byte short of what sampling it holds, a count at least the
      peak tracemalloc sees while a replicate draws it, in a fresh process
      too, with what its first draw imports; where memory is
      unknown, an n too large for a float is a ParameterError naming n.
    - A seeded greedy fit and a seeded DP fit are as accurate as pinned:
      their SHD against the true essential graph, their fitted edges and
      the true edges.
    - simulate's cell has the model and targets of replicate 0 and rows
      of its own.
    - Seeded greedy and DP grids write rows.csv and medians.csv to the
      byte, pinned by sha256, and the same bytes with one worker or two;
      each cell's mu is one text in rows.csv, medians.csv and timings.csv.
    - A grid never asks for more pool workers than it has replicates, and
      runs in this process when that is one.
    - The kernel calls and fitted parent sets of a small greedy grid are
      pinned.
    - A replicate computes each target's mean and covariance root once per
      mu, for all its n, with the bytes of one computation per cell.
    - A replicate draws its targets once and builds their intervention
      settings once per mu; each n's row groups are read off its layout,
      once for all its mu, and equal what ``group_rows`` finds in its row
      sequence, so sampling with them gives the same bits, and the grid
      scans no row sequence.
    - A cell's median SHD is the one ``statistics.median`` gives.
"""

import hashlib
import json
import os
import statistics
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import interdag.experiments
import interdag.likelihood
import interdag.model
import interdag.search
from interdag import (
    CapacityError,
    Dag,
    DataError,
    ExperimentConfig,
    GaussianCausalModel,
    InterventionSpec,
    InterventionTarget,
    ParameterError,
    SearchConfig,
    TargetFamily,
    essential_graph,
    estimate_essential_graph,
    exhaustive_dp,
    fit_structure,
    greedy_search,
    local_stats,
    run_consistency_experiment,
    run_fit,
    sample_dataset,
    shd,
    sufficient_stats,
)

from interdag.experiments import _cells

from helpers import random_instance


def test_fit_structure_dispatches_to_the_searchers():
    model, family, spec, data = random_instance(21, p=5, n=400)
    local = local_stats(sufficient_stats(data), family)
    dag, trace = greedy_search(local)
    assert fit_structure(data, family)[1:] == (dag, trace)
    _, dp_dag, dp_trace = fit_structure(data, family, SearchConfig(method="dp"))
    assert dp_dag == exhaustive_dp(local)
    assert dp_trace is None


def _targeted_at_vertex_one():
    """Rows that all target vertex 1."""
    dag = Dag.from_edges(2, [(1, 2)])
    w = np.zeros((2, 2))
    w[1, 0] = 1.0
    t1 = InterventionTarget.of(1)
    data = sample_dataset(
        GaussianCausalModel(dag, w, np.ones(2)),
        [t1] * 50,
        InterventionSpec.constant([t1], 3.0, 0.04),
        seed=8,
    )
    return data


@pytest.mark.parametrize("method", ["greedy", "dp"])
def test_non_conservative_family_is_a_parameter_error(method):
    data = _targeted_at_vertex_one()
    # the family the rows observe cannot be built, so it fails before the fit
    config = SearchConfig(method=method)
    with pytest.raises(ParameterError, match=r"not conservative: vertices \[1\]"):
        run_fit(data, TargetFamily.of((1,)), config)
    with pytest.raises(ParameterError, match=r"not conservative: vertices \[1\]"):
        estimate_essential_graph(data, TargetFamily.of((1,)), config)
    # the default family, observed in the data, is a data error
    with pytest.raises(DataError, match=r"vertices \[1\] lie in every target, so they are intervened"):
        run_fit(data, config=config)


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"max_parents": -1}, "max_parents must be non-negative"),
        ({"mu_grid": (5.0, float("nan"))}, "mu must be finite, got nan"),
        ({"k": 0, "mu_grid": (float("inf"),)}, "mu must be finite, got inf"),
        ({"tau": 1e160}, "tau must have a finite square"),
        ({"workers": 0}, "workers must be positive"),
    ],
)
def test_experiment_config_checks_itself_when_built(settings, message):
    with pytest.raises(ParameterError, match=message):
        ExperimentConfig(seed=1, p=6, **settings)


def test_experiment_config_refuses_the_exact_search_beyond_its_vertex_limit():
    ExperimentConfig(seed=1, p=interdag.search.DP_VERTEX_LIMIT, method="dp")
    ExperimentConfig(seed=1, p=interdag.search.DP_VERTEX_LIMIT + 1)
    with pytest.raises(CapacityError, match="at most 20 vertices, got 21"):
        ExperimentConfig(seed=1, p=interdag.search.DP_VERTEX_LIMIT + 1, method="dp")


def test_run_fit_writes_the_method_of_its_config(tmp_path):
    model, family, spec, data = random_instance(21, p=5, n=400)
    run_fit(data, family, SearchConfig(method="dp"), out_dir=tmp_path)
    assert not (tmp_path / "trace.txt").exists()
    assert json.loads((tmp_path / "fit.json").read_text())["method"] == "dp"


@pytest.mark.parametrize("method, seed, pinned", [("greedy", 101, (1, 10, 9)), ("dp", 202, (0, 10, 10))])
def test_fit_accuracy_pinned(method, seed, pinned):
    """A fit of what ``simulate --p 8 --n 200 --k 2 --replicates-per-target
    10 --seed <seed>`` writes, by each method: its SHD against the true
    interventional essential graph, its fitted edges and the true edges.
    Neither seed was used to develop anything else."""
    config = ExperimentConfig(seed=seed, p=8, n_grid=(200,), k=2, replicates_per_target=10, replicates=1,
                              method=method)
    ((_, _, dag, _, data),) = _cells(config)
    fitted, graph, _ = run_fit(data, config=config.search_config)
    truth = essential_graph(dag, data.observed_targets())
    assert (shd(truth, graph), fitted.dag.num_edges, dag.num_edges) == pinned


def test_simulate_draws_the_model_of_replicate_0_and_rows_of_its_own():
    """``simulate``'s cell, drawn with no replicate index, has the DAG,
    model and targets of replicate 0, since ``derive_seed(s, 1)`` equals
    ``derive_seed(s, 1, 0)``, but rows from a seed no grid cell uses."""
    config = ExperimentConfig(seed=5, p=8, n_grid=(200,), k=3, replicates_per_target=4, replicates=1)
    ((_, _, dag, model, data),) = _cells(config)
    ((_, _, grid_dag, grid_model, grid_data),) = _cells(config, 0)
    assert dag == grid_dag and model.weights.tobytes() == grid_model.weights.tobytes()
    assert data.targets == grid_data.targets
    assert data.values.tobytes() != grid_data.values.tobytes()


# sha256 of the output files, recorded before the fit pipeline was shared
@pytest.mark.parametrize(
    "method, rows_digest, medians_digest",
    [
        (
            "greedy",
            "ff00c0d83b6acc819a132f07a10713842aba3d51c321d0df084281b2c8f6e335",
            "cd1d2ff7675343f1e6a672b9085e34285b1b5107addafa4bbd5dd51f704e50af",
        ),
        (
            "dp",
            "bbb38480f86ebe519c15011a211d54b09ef3f86eb86384719e94cc26f70d1648",
            "d9a73e05e0ad694403ad67330abdf81d49fb31240c5b637cfce08ab10c8e2cfc",
        ),
    ],
)
def test_grid_outputs_pinned(tmp_path, method, rows_digest, medians_digest):
    config = ExperimentConfig(
        seed=11, p=5, n_grid=(60, 300), k=2, replicates_per_target=3, replicates=4, method=method
    )
    run_consistency_experiment(config, out_dir=tmp_path)
    for name, digest in (("rows.csv", rows_digest), ("medians.csv", medians_digest)):
        assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


def test_grid_work_counters_pinned(monkeypatch):
    """Kernel calls and parent sets fitted by a small seeded greedy grid:
    four fits at p=6.  Each greedy fit opens with two calls, one for every
    vertex's empty set and one for its 30 single-parent sets.  A refresh
    after an insert fits no removal greedy already holds: head's score
    before the insert, and head's single-parent score from the opening
    when head had one parent.  That takes away 22 removal calls and 32
    fitted sets, against 56 calls and 264 sets when every removal was
    fitted.  The counts wrap ``_scores`` both where ``likelihood`` calls it
    and where ``search`` does."""
    calls = fitted = 0
    scores = interdag.likelihood._scores

    def counting_scores(k, parent_sets, *args):
        nonlocal calls, fitted
        calls += 1
        fitted += len(parent_sets)
        return scores(k, parent_sets, *args)

    monkeypatch.setattr(interdag.likelihood, "_scores", counting_scores)
    monkeypatch.setattr(interdag.search, "_scores", counting_scores)
    run_consistency_experiment(ExperimentConfig(seed=1, p=6, replicates=2, n_grid=(50, 100)))
    assert (calls, fitted) == (34, 232)


def test_grid_computes_each_mean_and_root_once_per_mu_and_target(tmp_path, monkeypatch):
    """A target's mean and covariance root depend only on the model, the
    target and its (mu, tau), and every n of a replicate draws the same
    targets: a grid of two replicates, two n and two mu, with the empty
    target and two single-vertex ones, computes each once per replicate,
    mu and target (12 calls, against 24 with one per cell), and writes the
    bytes it writes when every cell computes its own."""
    calls = []
    mean_and_root = interdag.model._mean_and_root

    def counting(model, target, *args):
        calls.append(target)
        return mean_and_root(model, target, *args)

    monkeypatch.setattr(interdag.model, "_mean_and_root", counting)
    config = ExperimentConfig(seed=11, p=5, n_grid=(60, 300), k=2, mu_grid=(5.0, 10.0), replicates=2)
    run_consistency_experiment(config, out_dir=tmp_path / "shared")
    assert len(calls) == 12
    calls.clear()
    sample = interdag.experiments.sample_dataset
    monkeypatch.setattr(interdag.experiments, "sample_dataset", lambda *args, _roots, **kwargs: sample(*args, **kwargs))
    run_consistency_experiment(config, out_dir=tmp_path / "own")
    assert len(calls) == 24
    for name in ("rows.csv", "medians.csv"):
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "own" / name).read_bytes()


# floors: whole grids, whose sampling and statistics read single-run groups
# through slice views, give the same bytes with one worker or two
@pytest.mark.floors
def test_grid_outputs_do_not_depend_on_worker_count(tmp_path):
    outputs = []
    for workers in (1, 2):
        config = ExperimentConfig(
            seed=3, p=5, n_grid=(40, 200), k=2, replicates_per_target=2, replicates=3, workers=workers
        )
        out = tmp_path / str(workers)
        run_consistency_experiment(config, out_dir=out)
        outputs.append([(out / name).read_bytes() for name in ("rows.csv", "medians.csv")])
    assert outputs[0] == outputs[1]


def test_workers_are_capped_at_the_replicate_count(tmp_path, monkeypatch):
    import concurrent.futures

    sizes = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records its size, maps in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    outputs = {}
    for replicates, workers in ((3, 1), (3, 2), (3, 64), (1, 64)):
        config = ExperimentConfig(seed=3, p=5, n_grid=(40,), k=2, replicates=replicates, workers=workers)
        out = tmp_path / f"{replicates}-{workers}"
        run_consistency_experiment(config, out_dir=out)
        outputs[replicates, workers] = [(out / name).read_bytes() for name in ("rows.csv", "medians.csv")]
    assert sizes == [2, 3]
    assert outputs[3, 1] == outputs[3, 2] == outputs[3, 64]


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"p": 0}, "p must be at least 1"),
        ({"p": 4, "expected_degree": 4.0}, "expected_degree must satisfy 0 <= d < p"),
        ({"n_grid": ()}, "n_grid and mu_grid must be non-empty"),
        ({"replicates": 0}, "replicates must be positive"),
    ],
    ids=["p0", "degree-p", "no-n", "no-replicates"],
)
def test_experiment_config_errors_name_their_cause(settings, message):
    with pytest.raises(ParameterError) as info:
        ExperimentConfig(seed=1, **settings)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"p": 5.0}, "p must be an integer, got 5.0"),
        ({"replicates": 1.0}, "replicates must be an integer, got 1.0"),
        ({"k": 2.0}, "k must be an integer, got 2.0"),
        ({"n_grid": (50.0,)}, "n_grid must be a tuple of integers, got (50.0,)"),
        ({"n_grid": 50}, "n_grid must be a tuple of integers, got 50"),
        ({"workers": 2.0}, "workers must be an integer, got 2.0"),
        ({"max_parents": 2.0, "method": "dp"}, "max_parents must be an integer, got 2.0"),
        ({"seed": True}, "seed must be an integer, got True"),
        ({"p": np.True_}, f"p must be an integer, got {np.True_!r}"),
    ],
    ids=["p", "replicates", "k", "n-grid", "n-grid-scalar", "workers", "max-parents-dp", "seed-bool", "p-numpy-bool"],
)
def test_experiment_config_refuses_a_non_integer_when_built(tmp_path, settings, message):
    """Every int, optional int and tuple-of-int setting is checked when the
    config is built, before a grid makes its out directory, as ``_rng``
    checks a seed: a bool is refused."""
    with pytest.raises(ParameterError) as info:
        config = ExperimentConfig(**{"seed": 1, "p": 4, "k": 1, "replicates": 1, "n_grid": (50,), **settings})
        run_consistency_experiment(config, out_dir=tmp_path / "out")
    assert str(info.value) == message
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"tau": "0.2"}, "tau must be a real number, got '0.2'"),
        ({"expected_degree": True}, "expected_degree must be a real number, got True"),
        ({"expected_degree": "1"}, "expected_degree must be a real number, got '1'"),
        ({"tau": 0.2j}, "tau must be a real number, got 0.2j"),
        ({"mu_grid": 10.0}, "mu_grid must be a tuple of real numbers, got 10.0"),
        ({"mu_grid": (1.0, np.True_)}, f"mu_grid must be a tuple of real numbers, got (1.0, {np.True_!r})"),
        ({"tau": 10**400}, f"tau must be a real number that a float can hold, got {10**400}"),
        ({"mu_grid": (2.5, 10**400)},
         f"mu_grid must be a tuple of real numbers that a float can hold, got (2.5, {10**400})"),
    ],
    ids=["tau-str", "degree-bool", "degree-str", "tau-complex", "mu-grid-scalar", "mu-grid-numpy-bool",
         "tau-beyond-float", "mu-grid-beyond-float"],
)
def test_experiment_config_refuses_a_float_setting_that_is_not_real(settings, message):
    """Every float and tuple-of-float setting is checked when the config is
    built: a bool, a string, a complex number, or an integer no float can
    hold, is refused, naming the field, and not with a bare OverflowError."""
    with pytest.raises(ParameterError) as info:
        ExperimentConfig(**{"seed": 1, "p": 4, "k": 1, "replicates": 1, "n_grid": (50,), **settings})
    assert str(info.value) == message


def test_experiment_config_stores_real_settings_as_floats(tmp_path):
    """A float setting takes any real number and stores it as a float, a
    list of mu as a tuple: ints give the grid, and the bytes, their floats
    give."""
    grid = {"seed": 3, "p": 4, "k": 1, "replicates": 2, "n_grid": (60,)}
    given = ExperimentConfig(**grid, tau=1, mu_grid=[5, np.float64(2.5)], expected_degree=np.float32(1.5))
    assert (given.tau, given.mu_grid, given.expected_degree) == (1, (5, 2.5), 1.5)
    assert [type(v) for v in (given.tau, *given.mu_grid, given.expected_degree)] == [float] * 4
    floats = ExperimentConfig(**grid, tau=1.0, mu_grid=(5.0, 2.5), expected_degree=1.5)
    run_consistency_experiment(given, out_dir=tmp_path / "given")
    run_consistency_experiment(floats, out_dir=tmp_path / "floats")
    for name in ("rows.csv", "medians.csv"):
        assert (tmp_path / "given" / name).read_bytes() == (tmp_path / "floats" / name).read_bytes()


def test_grid_tables_write_each_mu_in_one_text(tmp_path):
    """rows.csv, medians.csv and timings.csv write a cell's mu as the same
    text: the float that mu is stored as, in _FMT, also for an int beyond
    2**53 and for a numpy float32."""
    config = ExperimentConfig(seed=2, p=4, k=1, replicates=2, n_grid=(50, 80),
                              mu_grid=(10**20, np.float32(0.1)))
    run_consistency_experiment(config, out_dir=tmp_path)
    cells = {}
    for name in ("rows.csv", "medians.csv", "timings.csv"):
        header, *lines = (tmp_path / name).read_text().splitlines()
        n_at, mu_at = header.split(",").index("n"), header.split(",").index("mu")
        cells[name] = [(line.split(",")[n_at], line.split(",")[mu_at]) for line in lines]
    assert {mu for _, mu in cells["rows.csv"]} == {"1e+20", "0.10000000149011612"}
    assert cells["rows.csv"] == cells["timings.csv"]
    assert sorted(set(cells["rows.csv"])) == sorted(cells["medians.csv"])


def test_experiment_config_stores_numpy_integers_as_ints():
    """A numpy integer is taken as the int it holds, in every integer
    setting, and the grid is the one that int gives."""
    settings = {"seed": 5, "p": 4, "k": 1, "replicates": 1, "n_grid": (50, 80), "max_parents": 2}
    config = ExperimentConfig(**{key: np.int64(value) if isinstance(value, int) else tuple(map(np.int64, value))
                                 for key, value in settings.items()})
    assert config == ExperimentConfig(**settings)
    assert {type(value) for value in (config.seed, config.p, config.max_parents, *config.n_grid)} == {int}
    rows = [[replace(row, runtime_seconds=0.0) for row in run_consistency_experiment(c)]
            for c in (config, ExperimentConfig(**settings))]
    assert rows[0] == rows[1]


def test_experiment_config_refuses_a_dataset_beyond_physical_memory(monkeypatch):
    # sampling the default grid's largest dataset, n=10000 rows over p=10
    # vertices, holds 2,020,000 bytes of normals, values, finiteness mask and
    # row bookkeeping, 6 means and roots of 10 + 100 floats, 2048 bytes for
    # the Python objects of each of its 5 targets and 2 MiB for the draw's
    # imports and generators
    needed = 10000 * (17 * 10 + 32) + 6 * 110 * 8 + 5 * 2048 + 2 * 1024 * 1024
    monkeypatch.setattr(interdag.likelihood, "_physical_memory", lambda: needed)
    assert ExperimentConfig(seed=1).n_grid == (100, 1000, 10000)
    monkeypatch.setattr(interdag.likelihood, "_physical_memory", lambda: needed - 1)
    with pytest.raises(CapacityError) as info:
        ExperimentConfig(seed=1)
    assert str(info.value) == ("the arrays that sampling n=10000 rows over p=10 vertices holds need "
                               "4132672 bytes, more than the 4132671 bytes of physical memory")
    # where memory is unknown, an n too large for a float is named
    monkeypatch.setattr(interdag.likelihood, "_physical_memory", lambda: None)
    with pytest.raises(ParameterError) as info:
        ExperimentConfig(seed=1, p=4, k=1, replicates=1, n_grid=(10**400,))
    assert str(info.value) == f"n must not exceed the largest float, got {10**400}"


@pytest.mark.parametrize(
    "settings",
    [{}, {"p": 2, "k": 0, "expected_degree": 1.0}, {"p": 40, "k": 40, "replicates_per_target": 25},
     {"p": 300, "k": 300, "replicates_per_target": 5, "n_grid": (2000,)},
     {"p": 60, "k": 60, "replicates_per_target": 10, "n_grid": (600,)},
     {"p": 120, "k": 120, "replicates_per_target": 2, "n_grid": (240,)},
     {"p": 60, "k": 60, "replicates_per_target": 10, "n_grid": (600, 601)},
     {"p": 1, "k": 1, "expected_degree": 0.0, "replicates_per_target": 1, "n_grid": (2, 3)},
     {"p": 2, "k": 2, "replicates_per_target": 1, "n_grid": (2,)}],
    ids=["default", "observational-p2", "every-vertex-targeted-p40", "every-vertex-targeted-p300",
         "ten-rows-per-target-p60", "two-rows-per-target-p120", "roots-kept-p60", "three-rows-p1",
         "two-rows-p2"],
)
def test_memory_guard_counts_at_least_what_sampling_holds(settings):
    """The guard's count for each n is at least the peak that tracemalloc
    sees while a replicate draws that n's cell, the first with its model:
    its row sequence, its targets' means and roots, their Python objects,
    and the dataset.  With one n sampling holds two roots, the
    observational one and the target's being drawn: at p=300 with every
    vertex targeted they are 1.4 MB of the count's 12.3 MB, where one root
    per target would be 217 MB.  With several n the replicate keeps every
    root.  With few rows per target the targets' objects, which no array
    count sees, are a large part of the peak, and with a row or two over a
    vertex or two what every draw allocates is most of it."""
    config = ExperimentConfig(**{"seed": 1, "n_grid": (10000,), "replicates": 1, **settings})
    drawn = []
    # numpy.random, which a process's first draw imports, is loaded first
    interdag.model._rng(0)
    tracemalloc.start()
    try:
        for n, _, _, _, data in _cells(config, 0):
            drawn.append((n, data.n, tracemalloc.get_traced_memory()[1]))
            del data
            tracemalloc.reset_peak()
    finally:
        tracemalloc.stop()
    assert [cell[:2] for cell in drawn] == [(n, n) for n in config.n_grid]
    for n, _, peak in drawn:
        assert config._sampling_bytes(n) >= peak


_FIRST_DRAW = """
import tracemalloc
from interdag.experiments import ExperimentConfig, _cells
config = ExperimentConfig(seed=1)
tracemalloc.start()
for n, _, _, _, data in _cells(config, 0):
    print(n, config._sampling_bytes(n), tracemalloc.get_traced_memory()[1])
    del data
    tracemalloc.reset_peak()
"""


def test_memory_guard_counts_what_a_first_draw_imports():
    """In a fresh process, as in ``simulate`` or a grid's pool worker, the
    first draw imports numpy.random and the hashlib it loads: about 1 MB
    at its peak, most of which it keeps.  The guard's count for each n of
    the default grid is at least the peak tracemalloc sees while the
    process draws that n's cell, the import included."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(interdag.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", _FIRST_DRAW], env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    drawn = [tuple(map(int, line.split())) for line in done.stdout.splitlines()]
    assert [n for n, _, _ in drawn] == [100, 1000, 10000]
    for _, count, peak in drawn:
        assert count >= peak


@st.composite
def _cell_shapes(draw):
    """An ExperimentConfig of one n and a replicate index: any p, k and
    rows per target (none when k is 0), and n from the interventional
    rows alone, where two or more targets allow it, to 30 more."""
    p = draw(st.integers(1, 12))
    k = draw(st.integers(0, p))
    r = draw(st.integers(1, 4)) if k else draw(st.integers(0, 4))
    extra = draw(st.integers(0 if k >= 2 else 1, 30))
    config = ExperimentConfig(seed=draw(st.integers(0, 2**64 - 1)), p=p, expected_degree=0.0, k=k,
                              replicates_per_target=r, n_grid=(k * r + extra,), replicates=1)
    return config, draw(st.integers(0, 100))


@settings(max_examples=300, deadline=None)
@given(case=_cell_shapes())
@example(case=(ExperimentConfig(seed=1, p=3, expected_degree=0.0, k=0, replicates_per_target=0, n_grid=(4,)), 0))
@example(case=(ExperimentConfig(seed=1, p=3, expected_degree=0.0, k=3, n_grid=(6,)), 0))
def test_laid_out_groups_are_what_group_rows_finds(case):
    """A cell's row sequence lists its observational rows, then
    ``replicates_per_target`` rows of each of k distinct single-vertex
    targets in ascending order; its row groups, read off that layout, are
    the dict that ``group_rows`` returns for the sequence: the same keys in
    the same order, each an ``np.intp`` range, read-only; one group when k
    is 0, and no observational group when every row is interventional."""
    config, rep = case
    ((n, _, _, _, laid_out),) = _cells(config, rep)
    sequence, groups = laid_out.targets, laid_out.row_groups
    observational = n - config.n_interventional
    members = [t.members for t in dict.fromkeys(sequence[observational:])]
    assert len(members) == config.k and members == sorted(members)
    assert all(len(m) == 1 and 1 <= m[0] <= config.p for m in members)
    assert sequence == (InterventionTarget.empty(),) * observational + tuple(
        InterventionTarget(m) for m in members for _ in range(config.replicates_per_target))
    expected = interdag.model.group_rows(sequence)
    assert list(groups) == list(expected)
    for target, rows in groups.items():
        assert rows.dtype == np.intp and not rows.flags.writeable
        assert np.array_equal(rows, expected[target])
    assert (InterventionTarget.empty() in groups) == (observational > 0)
    assert len(groups) == (observational > 0) + config.k


@settings(max_examples=60, deadline=None)
@given(case=_cell_shapes())
def test_sampling_with_the_layout_gives_the_bits_it_gives_without(case):
    """Sampling a cell with its laid-out row groups gives the targets, bits
    and groups that sampling the same sequence, spec and seed without them
    gives."""
    config, rep = case
    sample = interdag.experiments.sample_dataset
    scans = []

    def scanning_too(*args, _groups, _roots):
        scans.append(sample(*args))
        return sample(*args, _groups=_groups, _roots=_roots)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(interdag.experiments, "sample_dataset", scanning_too)
        ((_, _, _, _, laid_out),) = _cells(config, rep)
    (scanned,) = scans
    assert laid_out.targets == scanned.targets
    assert laid_out.values.tobytes() == scanned.values.tobytes()
    assert list(laid_out.row_groups) == list(scanned.row_groups)
    for target, rows in laid_out.row_groups.items():
        assert np.array_equal(rows, scanned.row_groups[target])


def test_grid_lays_out_each_replicate_once(monkeypatch):
    """The default grid, at two mu and three replicates, finds no row group
    by a scan (``group_rows``), draws each replicate's targets once, builds
    each replicate's InterventionSpec once per mu, and lays out each n once
    for both mu: they share one row groups object."""
    counts = {"group_rows": 0, "targets": 0, "specs": 0}
    laid_out = []
    sample = interdag.experiments.sample_dataset

    def counted(name, fn):
        def call(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return call

    def recording(*args, _groups, _roots):
        laid_out.append(_groups)
        return sample(*args, _groups=_groups, _roots=_roots)

    monkeypatch.setattr(interdag.model, "group_rows", counted("group_rows", interdag.model.group_rows))
    monkeypatch.setattr(interdag.experiments, "_rng", counted("targets", interdag.experiments._rng))
    monkeypatch.setattr(InterventionSpec, "constant", classmethod(counted("specs", InterventionSpec.constant.__func__)))
    monkeypatch.setattr(interdag.experiments, "sample_dataset", recording)
    rows = run_consistency_experiment(ExperimentConfig(seed=1, mu_grid=(5.0, 10.0), replicates=3))
    assert len(rows) == 18
    assert counts == {"group_rows": 0, "targets": 3, "specs": 6}
    # cells in grid order: both mu of an n in a row, and each n's groups its own
    assert all(laid_out[i] is laid_out[i + 1] for i in range(0, 18, 2))
    assert len({id(groups) for groups in laid_out}) == 9


@settings(max_examples=300, deadline=None)
@given(values=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=40))
@example(values=[2**53 + 1, 2**53 + 2])
def test_cell_median_is_statistics_median(values):
    expected = statistics.median(values)
    got = interdag.experiments._median(values)
    assert got == expected and type(got) is type(expected)
