"""Workload definitions shared by the orchestrator, the worker and the recorder.

Each workload is one kind of CLI operation run in a closed loop (one client,
one operation in flight).  Its inputs come from ``interdag simulate --seed S``
or ``interdag experiment --seed S`` with the workload seed ``S``.
"""

from pathlib import Path

WORKLOADS = {
    # Every vertex is targeted, so the class has one member and essential
    # graphs are cheap; greedy search with its score-cache rescans dominates,
    # and ingesting the 10 MB CSV is the second cost.
    "fit_full_targets": {
        "kind": "fit",
        "method": "greedy",
        "simulate": ["--p", "100", "--n", "5000", "--k", "100", "--replicates-per-target", "10"],
    },
    # The paper's consistency experiment at its default grid: 90 small fits,
    # so per-call overhead (sampling, local scores, small essential graphs,
    # metrics) dominates and there is no CSV ingest.
    "experiment_grid": {
        "kind": "experiment",
        "simulate": None,
    },
    # The only workload that runs the exact dynamic program: p * 2^(p-1)
    # local-score fits whatever the seed, so the scoring kernel's cost per
    # call shows; neither greedy search nor large enumerations run.
    "fit_exact": {
        "kind": "fit",
        "method": "dp",
        "simulate": ["--p", "12", "--n", "2000", "--k", "3", "--replicates-per-target", "5"],
    },
}


def simulate_argv(workload: str, seed: int, out: Path) -> list[str] | None:
    """Arguments of the workload's ``interdag simulate`` call, or None."""
    spec = WORKLOADS[workload]
    if spec["simulate"] is None:
        return None
    return ["simulate", *spec["simulate"], "--seed", str(seed), "--out", str(out)]


def op_argv(workload: str, seed: int, data: Path, out: Path) -> list[str]:
    """Arguments of one timed CLI operation."""
    spec = WORKLOADS[workload]
    if spec["kind"] == "fit":
        return ["fit", "--data", str(data / "dataset.csv"), "--method", spec["method"], "--out", str(out)]
    return ["experiment", "--seed", str(seed), "--workers", "1", "--out", str(out)]
