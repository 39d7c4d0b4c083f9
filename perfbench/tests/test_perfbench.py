"""Tests of the benchmark's own code: statistics, tracing, names and output checks.

    python3 -m pytest perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import interdag.cli  # noqa: E402
import interdag.equivalence  # noqa: E402
import interdag.experiments  # noqa: E402
import interdag.likelihood  # noqa: E402
from checks import check_experiment, check_fit, fit_record, medians_text, parse_edges, shd  # noqa: E402
import reference  # noqa: E402
from run import E2E_UNITS, norm_per_fit, tail_percentile  # noqa: E402
from tracer import COUNT_TARGETS, SPAN_TARGETS, Tracer, _resolve, op_layer_metrics, span_totals  # noqa: E402


# -- percentile rule -----------------------------------------------------------


@pytest.mark.parametrize(
    "n, level",
    [(1, None), (19, None), (20, 50), (39, 50), (40, 75), (100, 90), (199, 90), (200, 95), (1000, 99), (10000, 99.9)],
)
def test_tail_percentile_keeps_ten_samples_beyond(n, level):
    samples = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
    got = tail_percentile(samples)
    if level is None:
        assert got is None
        return
    assert got[0] == level
    assert sum(1 for s in samples if s > got[1]) >= 10


# -- spans -----------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["a", 0.0, 10.0, -1],
        ["b", 1.0, 4.0, 0],
        ["c", 2.0, 3.0, 1],
        ["b", 5.0, 6.0, 0],
    ]
    totals = span_totals(spans)
    assert totals["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 6.0}
    assert totals["b"] == {"calls": 2, "busy_s": 4.0, "self_s": 3.0}
    assert totals["c"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}


def test_busy_time_counts_a_nested_span_of_the_same_name_once():
    spans = [["x", 0.0, 5.0, -1], ["y", 1.0, 4.0, 0], ["x", 2.0, 3.0, 1]]
    assert span_totals(spans)["x"]["busy_s"] == 5.0


def _all_targets():
    targets = [t for ts in SPAN_TARGETS.values() for t in ts] + list(COUNT_TARGETS.values())
    return {t: getattr(*_resolve(t)) for t in targets}


def test_wrappers_are_installed_and_then_restored():
    before = _all_targets()
    tracer = Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(SPAN_TARGETS, COUNT_TARGETS):
            during = _all_targets()
            assert all(during[t] is not before[t] for t in before)
            raise RuntimeError("leave the traced block early")
    after = _all_targets()
    assert all(after[t] is before[t] for t in before)


def test_traced_fit_records_nested_spans_and_counts():
    from interdag import Dag, GaussianCausalModel, InterventionSpec, InterventionTarget, sample_dataset

    import numpy as np

    dag = Dag.from_edges(3, [(1, 2), (2, 3)])
    weights = np.zeros((3, 3))
    weights[1, 0], weights[2, 1] = 0.9, -0.7
    t1 = InterventionTarget.of(1)
    data = sample_dataset(
        GaussianCausalModel(dag, weights, np.ones(3)),
        [InterventionTarget.empty()] * 200 + [t1] * 10,
        InterventionSpec.constant([t1], 5.0, 0.04),
        seed=3,
    )
    spans = Tracer()
    with spans.installed(SPAN_TARGETS, {}):
        interdag.cli.run_fit(data)
    layers = op_layer_metrics(spans.spans, spans.counts)
    assert layers["search.greedy_search.steps"] >= 2
    assert layers["equivalence.essential_graph.calls"] == 1
    assert layers["equivalence.enumerate_class.members"] >= 1
    assert 0 < layers["likelihood.local_score.calls"]
    assert layers["search.greedy_search.busy_s"] >= layers["search.greedy_search.self_s"] > 0
    run_fit = next(i for i, s in enumerate(spans.spans) if s[0] == "experiments.run_fit")
    greedy = next(s for s in spans.spans if s[0] == "search.greedy_search")
    assert greedy[3] == run_fit

    lookups = Tracer()
    with lookups.installed({}, COUNT_TARGETS):
        interdag.cli.run_fit(data)
    assert lookups.spans == []
    assert lookups.counts["likelihood.score_cache.lookups"] > layers["likelihood.local_score.calls"]


# -- reference kernel --------------------------------------------------------------


def test_scaled_time_divides_by_the_reference_speed():
    result = {"op_s": 9.0, "fits": 90, "ref_s": 2 * reference.REFERENCE_S}
    assert norm_per_fit(result) == pytest.approx(0.05)  # 0.1 s per fit on a machine at half speed


def test_reference_kernel_does_fixed_work():
    assert reference.kernel() == reference.kernel()
    assert len(reference.timed_reps(2)) == 2


def test_sampler_times_the_kernel_during_the_block_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    samples = []
    with reference.sampled(samples, interval=0.05):
        end = time.perf_counter() + 0.3
        while time.perf_counter() < end:
            pass
    assert len(samples) >= 3 and all(t > 0 for t in samples)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


# -- metric names ------------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_and_units_match_the_benchmark_file():
    from tracer import LAYER_UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == LAYER_UNITS
    for name in [*E2E_UNITS, *LAYER_UNITS, *(w["name"] for w in spec["workloads"])]:
        assert _NAME.fullmatch(name), name


# -- output checks -----------------------------------------------------------------


def _fit_output(tmp_path: Path) -> Path:
    out = tmp_path / "fit"
    out.mkdir()
    (out / "model.txt").write_text("p 3\n1 -> 2 : 0.5\n3 -> 2 : -0.25\nvar 1 : 1\nvar 2 : 1\nvar 3 : 1\n")
    (out / "essential.txt").write_text("1 -> 2\n3 -> 2\n")
    summary = {"p": 3, "n": 10, "method": "greedy", "bic": -12.5, "log_likelihood": -10.0,
               "edges": 2, "directed_edges": 2, "undirected_edges": 0}
    (out / "fit.json").write_text(json.dumps(summary))
    return out


def test_fit_check_accepts_consistent_output(tmp_path):
    out = _fit_output(tmp_path)
    assert check_fit(out, None) == []
    assert check_fit(out, fit_record(out)) == []


def test_fit_check_catches_a_flipped_edge(tmp_path):
    out = _fit_output(tmp_path)
    recorded = fit_record(out)
    (out / "essential.txt").write_text("1 -> 2\n2 -> 3\n")
    assert any("oriented" in p for p in check_fit(out, None))
    assert any("essential_sha256" in p for p in check_fit(out, recorded))


def test_fit_check_compares_bic_to_a_relative_tolerance(tmp_path):
    out = _fit_output(tmp_path)
    recorded = fit_record(out)
    assert check_fit(out, {**recorded, "bic": -12.5 * (1 + 1e-12)}) == []
    assert any("bic" in p for p in check_fit(out, {**recorded, "bic": -12.5 * (1 + 1e-8)}))
    assert any("edges" in p for p in check_fit(out, {**recorded, "edges": 3}))


def test_shd_counts_pairs_whose_status_differs():
    truth = parse_edges("1 -> 2\n2 -- 3\n")
    assert shd(truth, parse_edges("2 -> 1\n2 -- 3\n3 -> 4\n")) == 2
    assert shd(truth, truth) == 0


def test_medians_follow_rows_as_the_package_writes_them(tmp_path):
    config = interdag.experiments.ExperimentConfig(seed=3, p=4, n_grid=(40, 80), k=1, replicates=3)
    interdag.experiments.run_consistency_experiment(config, out_dir=tmp_path)
    assert medians_text((tmp_path / "rows.csv").read_text()) == (tmp_path / "medians.csv").read_text()
    assert check_experiment(tmp_path, None) == []
    header, *rows = (tmp_path / "rows.csv").read_text().splitlines()
    col = header.split(",").index("shd")
    shifted = [header]
    for row in rows:
        cells = row.split(",")
        cells[col] = str(int(cells[col]) + 5)
        shifted.append(",".join(cells))
    (tmp_path / "rows.csv").write_text("\n".join(shifted) + "\n")
    assert check_experiment(tmp_path, None) == ["medians.csv does not follow from rows.csv"]
