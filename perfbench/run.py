"""Closed-loop benchmark of interdag's command-line entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  One client keeps one operation in flight:
each operation is one ``interdag.cli.main([...])`` call in a fresh
interpreter (``worker.py``), started only after the previous one finished,
for ``--seconds`` seconds.  The workload's inputs come from ``interdag
simulate`` or ``interdag experiment`` with the seeds N, N+1000, ..., N+4000.
Next to each operation, in the same process, a fixed reference kernel
(``reference.py``) gauges the machine's speed, and ``fit_norm_s`` scales the
operation's wall time by it.

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` the same untraced loop is followed by traced operations, and
the line carries the per-module metrics.  The line before it is a JSON detail
record: provenance, probes, per-operation samples, counters and failures.
"""

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_experiment, check_fit, experiment_record, fit_record, load_expected, parse_edges, row_shds, shd
from reference import REFERENCE_S
from tracer import (
    LAYER_UNITS, cache_metrics, deterministic_counters, op_layer_metrics, setup_layer_metrics,
)
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
EXPECTED = HERE / "expected.json"
POOL_SIZE = 5  # inputs per run, one per set-up; setup_s is their median
POOL_SEED_STRIDE = 1000
TRACED_INPUTS = (0, 1, 2, 0)  # the first twice, so its counters can be compared
STEP_TIMEOUT_S = 150
TAIL_LEVELS = (50, 75, 90, 95, 99, 99.9)

E2E_UNITS = {"setup_s": "s", "fit_norm_s": "s", "peak_rss_mb": "MB"}


class StepError(Exception):
    """A worker step exited non-zero, timed out or printed no result."""


def tail_percentile(samples, levels=TAIL_LEVELS):
    """The highest level with at least ten samples above its nearest-rank value.

    Returns ``(level, value)``, or None when no level qualifies, as with
    fewer than twenty samples.
    """
    ordered = sorted(samples)
    best = None
    for level in levels:
        rank = math.ceil(round(level * len(ordered) / 100, 9))  # round off float error in the level
        if rank >= 1 and len(ordered) - rank >= 10:
            best = (level, ordered[rank - 1])
    return best


def timing_summary(samples) -> dict:
    tail = tail_percentile(samples)
    return {
        "median": statistics.median(samples) if samples else None,
        "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]},
        "samples": len(samples),
        "values": list(samples),
    }


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["OMP_NUM_THREADS"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    return env


def run_step(args: list[str], env: dict) -> dict:
    """Run one worker step in a fresh interpreter and return its JSON result."""
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            env=env, capture_output=True, text=True, timeout=STEP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise StepError(f"{args[0]} timed out after {STEP_TIMEOUT_S} s") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        raise StepError(f"{args[0]} exited {proc.returncode}: {' | '.join(tail)}")
    return json.loads(lines[-1])


def provenance(root: Path, versions: dict, workload: str, seed: int) -> dict:
    commit = None
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=30
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        **versions,
    }


def pool_seed(seed: int, index: int) -> int:
    """The ``--seed`` passed to simulate or experiment for one input of the pool."""
    return seed + POOL_SEED_STRIDE * index


class Run:
    """State of one benchmark invocation.

    Each set-up writes one input of the run's pool, so the pool has one input
    per set-up; operations cycle through the pool, so that one run averages
    over several models instead of timing a single draw.
    """

    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.kind = WORKLOADS[workload]["kind"]
        self.env = child_env(root)
        self.work = root / ".perfbench_work" / f"{workload}-s{seed}-{os.getpid()}"
        self.seeds = [pool_seed(seed, i) for i in range(POOL_SIZE)]
        self.expected = [load_expected(EXPECTED, workload, s) for s in self.seeds]
        self.reference: dict[int, dict] = {}  # output record of the first operation per input
        self.ops = 0

    def data(self, index: int) -> Path:
        return self.work / f"data{index}"

    def remove_files(self) -> None:
        """Delete this run's scratch directory, and its parent once empty."""
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            self.work.parent.rmdir()

    def setup(self, index: int, trace_file=None) -> dict:
        args = ["setup", "--workload", self.workload, "--seed", str(self.seeds[index]),
                "--out", str(self.data(index))]
        if trace_file is not None:
            args += ["--trace", str(trace_file)]
        result = run_step(args, self.env)
        if result["rc"] != 0:
            raise StepError(f"simulate --seed {self.seeds[index]} exited {result['rc']}: {result['stderr']}")
        return result

    def op(self, index: int, trace: bool, lookups_only: bool = False) -> dict:
        """One timed operation on input ``index``, with its output checks."""
        self.ops += 1
        out = self.work / f"op{self.ops}"
        trace_file = self.work / f"op{self.ops}.trace.json"
        args = ["op", "--workload", self.workload, "--seed", str(self.seeds[index]),
                "--data", str(self.data(index)), "--out", str(out)]
        if trace:
            args += ["--trace", str(trace_file)] + (["--lookups-only"] if lookups_only else [])
        try:
            result = run_step(args, self.env)
        except StepError as exc:
            return {"input": index, "problems": [str(exc)]}
        result["input"] = index
        result["problems"] = [f"exit {result['rc']}: {result['stderr']}"] if result["rc"] != 0 else []
        if not result["problems"]:
            self._check(index, out, result)
        if trace and trace_file.is_file():
            recorded = json.loads(trace_file.read_text())
            if lookups_only:
                result["lookups"] = recorded["counts"]["likelihood.score_cache.lookups"]
            else:
                result["layers"] = op_layer_metrics(recorded["spans"], recorded["counts"])
            trace_file.unlink()
        shutil.rmtree(out, ignore_errors=True)
        return result

    def _check(self, index: int, out: Path, result: dict) -> None:
        expected = self.expected[index]
        if self.kind == "fit":
            result["problems"] += check_fit(out, expected)
            if result["problems"]:
                return
            record = fit_record(out)
            truth = parse_edges((self.data(index) / "essential.txt").read_text(encoding="utf-8"))
            result["fits"] = 1
            result["shd"] = shd(truth, parse_edges((out / "essential.txt").read_text(encoding="utf-8")))
        else:
            result["problems"] += check_experiment(out, expected)
            if result["problems"]:
                return
            record = experiment_record(out)
            shds = row_shds((out / "rows.csv").read_text(encoding="utf-8"))
            result["fits"] = len(shds)
            result["shd"] = statistics.median(shds)
        result["record"] = record
        reference = self.reference.setdefault(index, record)
        if record != reference:
            result["problems"].append("output differs from an earlier operation on the same input")

    def closed_loop(self, seconds: float, trace: bool, min_ops: int) -> list[dict]:
        results = []
        start = time.monotonic()
        while time.monotonic() - start < seconds or len(results) < min_ops:
            results.append(self.op(len(results) % POOL_SIZE, trace))
        return results


def counter_problems(traced: list[dict]) -> list[str]:
    """Deterministic counters must repeat exactly across traced operations on one input.

    Score-cache lookups come from a separate pass and are compared with the
    recorded counts instead.
    """
    seen: dict[int, set] = {}
    for r in traced:
        if "layers" in r:
            seen.setdefault(r["input"], set()).add(tuple(deterministic_counters(r["layers"]).values()))
    return [
        f"deterministic counters differ between traced operations on input {index}: {sorted(values)}"
        for index, values in seen.items() if len(values) > 1
    ]


def median_of(results: list[dict], key) -> float:
    values = [key(r) for r in results if "op_s" in r]
    if not values:
        raise StepError("no operation produced a timing")
    return statistics.median(values)


def pool_mean(results: list[dict], key) -> float:
    """Mean over the pool's inputs of the median of ``key`` on each input.

    Each input weighs the same however many operations it got, so the
    figure does not depend on which input the run ended on.
    """
    per_input: dict[int, list[float]] = {}
    for r in results:
        if "op_s" in r:
            per_input.setdefault(r["input"], []).append(key(r))
    if not per_input:
        raise StepError("no operation produced a timing")
    return statistics.fmean(statistics.median(values) for values in per_input.values())


def wall_per_fit(result: dict) -> float:
    return result["op_s"] / result["fits"]


def scaled(seconds: float, result: dict) -> float:
    """Wall time scaled by the reference kernel's speed during the step."""
    return seconds * REFERENCE_S / result["ref_s"]


def norm_per_fit(result: dict) -> float:
    return scaled(wall_per_fit(result), result)


def traced_layers(run: Run, setups: list[dict], untraced: list[dict]) -> tuple[dict, dict, list[dict]]:
    """Per-module metrics from a traced set-up, traced operations and a lookup pass.

    Returns the metrics, the deterministic counters per input seed, and the
    operations run.  Score-cache lookups are counted on input 0 only; the
    other metrics are medians over the traced operations.
    """
    layers = {"setup.import_s": statistics.median(s["import_s"] for s in setups)}
    setup_trace = run.work / "setup.trace.json"
    run.setup(0, setup_trace)
    if setup_trace.is_file():
        recorded = json.loads(setup_trace.read_text())
        layers.update(setup_layer_metrics(recorded["spans"], recorded["counts"]))
    else:  # experiment_grid simulates nothing during set-up
        layers.update(setup_layer_metrics([], {"equivalence.enumerate_class.members": 0}))

    traced = [run.op(index, trace=True) for index in TRACED_INPUTS]
    lookup_pass = run.op(0, trace=True, lookups_only=True)
    ops = traced + [lookup_pass]
    traced[-1]["problems"] += counter_problems(traced)
    first = {}
    for r in traced:
        if "layers" in r:
            first.setdefault(r["input"], r["layers"])
    if len(first) < len(set(TRACED_INPUTS)) or "lookups" not in lookup_pass:
        raise StepError(f"traced operations failed: {[p for r in ops for p in r['problems']]}")

    per_op = [r["layers"] for r in traced if "layers" in r]
    for name in per_op[0]:
        layers[name] = statistics.median(p[name] for p in per_op)
    layers.update(cache_metrics(lookup_pass["lookups"], first[0]["likelihood.local_score.calls"]))
    traced_s = median_of(traced, lambda r: r["op_s"])
    layers["op.traced_s"] = traced_s
    layers["trace.overhead_ratio"] = traced_s / median_of(untraced, lambda r: r["op_s"]) - 1
    passed = [r for r in untraced if not r["problems"]]
    layers["fit.wall_s"] = pool_mean(passed, wall_per_fit)
    layers["reference.kernel_s"] = median_of(passed, lambda r: r["ref_s"])
    layers["quality.shd"] = statistics.median(r["shd"] for r in untraced + traced if "shd" in r)
    missing = set(LAYER_UNITS) - set(layers)
    if missing:
        raise StepError(f"traced operations reported no {sorted(missing)}")

    counters = {run.seeds[i]: deterministic_counters(layers_i, lookup_pass["lookups"] if i == 0 else None)
                for i, layers_i in sorted(first.items())}
    return {name: layers[name] for name in LAYER_UNITS}, counters, ops


def benchmark(run: Run, seconds: float, trace: bool) -> tuple[dict, dict]:
    run.work.mkdir(parents=True, exist_ok=True)
    probes = run_step(["probes", "--out", str(run.work / "probes")], run.env)
    setups = [run.setup(i) for i in range(POOL_SIZE)]
    setup_walls = [s["import_s"] + s["simulate_s"] for s in setups]
    setup_times = [scaled(wall, s) for wall, s in zip(setup_walls, setups)]

    untraced = run.closed_loop(seconds, trace=False, min_ops=POOL_SIZE)
    traced_ops = []
    if trace:
        layers, counters, traced_ops = traced_layers(run, setups, untraced)
    ops = untraced + traced_ops
    failed = sum(1 for r in ops if r["problems"])
    passed = [r for r in untraced if not r["problems"]]
    fit_norm_s = pool_mean(passed, norm_per_fit)
    fit_wall_s = pool_mean(passed, wall_per_fit)
    if trace:
        metrics, units = layers, LAYER_UNITS
    else:
        metrics, units = {
            "setup_s": statistics.median(setup_times),
            "fit_norm_s": fit_norm_s,
            "peak_rss_mb": median_of(passed, lambda r: r["rss_mb"]),
        }, E2E_UNITS

    shds = [r["shd"] for r in ops if "shd" in r]
    detail = {
        "provenance": provenance(run.root, setups[0]["versions"], run.workload, run.seeds[0]),
        "inputs": {"seeds": run.seeds, "recorded": [e is not None for e in run.expected]},
        "probes": probes,
        "setup_s": timing_summary(setup_times),
        "setup_wall_s": timing_summary(setup_walls),
        "op_s_untraced": timing_summary([r["op_s"] for r in untraced if "op_s" in r]),
        "fit_norm_s": timing_summary([norm_per_fit(r) for r in passed]),
        "fits_per_op": next((r["fits"] for r in ops if "fits" in r), None),
        "fit_wall_s": fit_wall_s,
        "fits_per_s": 1.0 / fit_wall_s,
        "ref_s": timing_summary([r["ref_s"] for r in untraced if "ref_s" in r]),
        "failed_ops_ratio": failed / len(ops),
        "median_shd": statistics.median(shds) if shds else None,
        "problems": [p for r in ops for p in r["problems"]],
    }
    if trace:
        detail["op_s_traced"] = timing_summary([r["op_s"] for r in traced_ops if "op_s" in r and "layers" in r])
        detail["counters"] = counters
        detail["counters_vs_record"] = {
            seed: "unrecorded" if (expected or {}).get("counters") is None
            else "match" if all(expected["counters"][k] == v for k, v in counters[seed].items())
            else {"recorded": expected["counters"]}
            for seed, expected in zip(run.seeds, run.expected) if seed in counters
        }
    result = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Closed-loop benchmark of interdag's CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "interdag" / "__init__.py").is_file():
        print(f"error: {root} holds no interdag sources (src/interdag); run from the repository root",
              file=sys.stderr)
        return 2
    run = Run(root, args.workload, args.seed)
    try:
        detail, result = benchmark(run, args.seconds, bool(args.trace))
    except StepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        run.remove_files()
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
