"""One benchmark step in a fresh interpreter: a set-up, a timed operation, or the probes.

``run.py`` starts this script once per step with ``src`` on ``PYTHONPATH`` and
single-threaded BLAS, so no step inherits caches or imports from another.  The
step's result is printed as one JSON object on the last line of stdout.

    python3 perfbench/worker.py setup --workload W --seed S --out DIR [--trace FILE]
    python3 perfbench/worker.py op --workload W --seed S --data DIR --out DIR [--trace FILE [--lookups-only]]
    python3 perfbench/worker.py probes --out DIR
"""

import argparse
import contextlib
import io
import json
import platform
import resource
import sys
import time
from pathlib import Path

from workloads import op_argv, simulate_argv


def _import_cli():
    """Import ``interdag.cli``; return it and the import's wall time.

    Nothing imports numpy before this, so the time includes it, as it does
    for the ``interdag`` command.
    """
    start = time.perf_counter()
    from interdag import cli

    return cli, time.perf_counter() - start


def _reference(sample: bool):
    """The warmed-up reference module and an empty sample list, or (None, None)."""
    if not sample:
        return None, None
    import reference

    reference.kernel()  # warm-up
    return reference, []


def _call_cli(cli, argv, samples=None):
    """Run ``interdag.cli.main(argv)``; return its exit code, wall time and stderr.

    With a ``samples`` list, the reference kernel is sampled during the call
    (``reference.sampled``) and its time is taken out of the wall time.
    """
    out, err = io.StringIO(), io.StringIO()
    if samples is None:
        sampler = contextlib.nullcontext()
    else:
        import reference

        sampler = reference.sampled(samples)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        with sampler:
            code = cli.main(argv)
        elapsed = time.perf_counter() - start - sum(samples or ())
    return code, elapsed, err.getvalue().strip()


@contextlib.contextmanager
def _maybe_traced(trace_file, lookups_only=False):
    """Trace the block when ``trace_file`` is given, then write the record there.

    The record holds the spans and counters, or only the score-cache lookup
    count when ``lookups_only`` is set.
    """
    if trace_file is None:
        yield
        return
    from tracer import COUNT_TARGETS, SPAN_TARGETS, Tracer

    tracer = Tracer()
    with tracer.installed({} if lookups_only else SPAN_TARGETS, COUNT_TARGETS if lookups_only else {}):
        yield
    Path(trace_file).write_text(json.dumps({"spans": tracer.spans, "counts": tracer.counts}))


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def cmd_setup(args) -> dict:
    cli, import_s = _import_cli()
    import numpy
    import scipy

    result = {
        "import_s": import_s,
        "simulate_s": 0.0,
        "rc": 0,
        "stderr": "",
        "versions": {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__},
    }
    argv = simulate_argv(args.workload, args.seed, Path(args.out))
    reference, samples = _reference(not args.trace)
    if argv is not None:
        with _maybe_traced(args.trace):
            result["rc"], result["simulate_s"], result["stderr"] = _call_cli(cli, argv, samples)
    if samples is not None:
        result["ref_s"] = reference.speed(samples)
    return result


def cmd_op(args) -> dict:
    """One timed CLI operation; untraced, with the reference kernel sampled during it.

    Traced operations sample nothing, so that no span holds kernel time.
    """
    cli, _ = _import_cli()
    argv = op_argv(args.workload, args.seed, Path(args.data), Path(args.out))
    reference, samples = _reference(not args.trace)
    with _maybe_traced(args.trace, args.lookups_only):
        rc, op_s, stderr = _call_cli(cli, argv, samples)
    result = {"rc": rc, "op_s": op_s, "rss_mb": _peak_rss_mb(), "stderr": stderr}
    if samples is not None:
        result["ref_samples"] = len(samples)
        result["ref_s"] = reference.speed(samples)
    return result


def cmd_probes(args) -> dict:
    """Inputs that hit a capacity guard at the time the benchmark was written.

    They sit outside every workload and metric; each outcome is recorded so a
    change that removes the guard shows as a probe turning into ``ok``.
    """
    cli, _ = _import_cli()
    from interdag import Dag, TargetFamily, essential_graph

    observational = TargetFamily.of(())
    graphs = {
        "essential_graph_chain22_observational": Dag.from_edges(22, [(i, i + 1) for i in range(1, 22)]),
        "essential_graph_complete7_observational": Dag.from_edges(
            7, [(i, j) for i in range(1, 8) for j in range(i + 1, 8)]
        ),
    }
    probes = {}
    for name, dag in graphs.items():
        start = time.perf_counter()
        try:
            graph = essential_graph(dag, observational)
            outcome = f"ok: {len(graph.undirected)} undirected edges"
        except Exception as exc:  # the probe records whatever the call raises
            outcome = f"{type(exc).__name__}: {exc}"
        probes[name] = {"outcome": outcome, "seconds": time.perf_counter() - start}
    argv = ["simulate", "--p", "100", "--seed", "42", "--out", str(Path(args.out) / "simulate_p100")]
    rc, elapsed, stderr = _call_cli(cli, argv)
    probes["simulate_p100_seed42"] = {"outcome": f"exit {rc}" + (f": {stderr}" if stderr else ""), "seconds": elapsed}
    return probes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    setup = sub.add_parser("setup")
    op = sub.add_parser("op")
    for p in (setup, op):
        p.add_argument("--workload", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--trace", default=None, help="write spans and counters to this file")
    op.add_argument("--data", required=True)
    op.add_argument("--lookups-only", action="store_true", help="count score-cache lookups, record no spans")
    probes = sub.add_parser("probes")
    probes.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    handler = {"setup": cmd_setup, "op": cmd_op, "probes": cmd_probes}[args.command]
    print(json.dumps(handler(args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
