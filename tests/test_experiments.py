"""The fit pipeline and seeded replicate grids.

Core claims:
    - fit_structure returns what the searcher it dispatches to returns on
      the same per-vertex statistics, with the greedy trace or None.
    - A supplied target family that is not conservative is a ParameterError
      for both methods, from run_fit and from estimate_essential_graph.
    - Seeded greedy and DP grids write rows.csv and medians.csv to the
      byte, pinned by sha256, and the same bytes with one worker or two.
"""

import hashlib

import numpy as np
import pytest

from interdag import (
    Dag,
    ExperimentConfig,
    GaussianCausalModel,
    InterventionSpec,
    InterventionTarget,
    ParameterError,
    TargetFamily,
    estimate_essential_graph,
    exhaustive_dp,
    fit_structure,
    greedy_search,
    local_stats,
    run_consistency_experiment,
    run_fit,
    sample_dataset,
    sufficient_stats,
)

from helpers import random_instance


def test_fit_structure_dispatches_to_the_searchers():
    model, family, spec, data = random_instance(21, p=5, n=400)
    local = local_stats(sufficient_stats(data), family)
    dag, trace = greedy_search(local)
    assert fit_structure(data, family, "greedy")[1:] == (dag, trace)
    _, dp_dag, dp_trace = fit_structure(data, family, "dp")
    assert dp_dag == exhaustive_dp(local)
    assert dp_trace is None


def _targeted_at_vertex_one():
    """Rows that all target vertex 1, with the one family they observe."""
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
    return data, TargetFamily.of((1,))


@pytest.mark.parametrize("method", ["greedy", "dp"])
def test_non_conservative_family_is_a_parameter_error(method):
    data, family = _targeted_at_vertex_one()
    with pytest.raises(ParameterError, match="conservative"):
        run_fit(data, family, method=method)
    with pytest.raises(ParameterError, match="conservative"):
        estimate_essential_graph(data, family, method=method)


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
