"""Record each input's expected outputs and deterministic counters at the current commit.

    python3 perfbench/record.py --seeds 0-12 [--workload NAME ...]

Run from the repository root.  For every workload seed in the range and every
input of its pool, this runs one set-up, one traced operation and one
lookup-counting pass, and stores in ``perfbench/expected.json``, keyed by the
``--seed`` given to ``simulate`` or ``experiment``: the output record that
``checks.py`` compares against, and the counters.  Entries already present
are kept, so the file only grows; delete an entry to record it again.
"""

import argparse
import json
import sys
from pathlib import Path

from run import EXPECTED, POOL_SIZE, Run, StepError
from tracer import deterministic_counters
from workloads import WORKLOADS


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def record_input(run: Run, index: int) -> dict:
    run.setup(index)
    traced = run.op(index, trace=True)
    lookups = run.op(index, trace=True, lookups_only=True)
    problems = traced["problems"] + lookups["problems"]
    if problems:
        raise StepError(f"seed {run.seeds[index]}: {problems}")
    return {**traced["record"], "counters": deterministic_counters(traced["layers"], lookups["lookups"])}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="workload seeds, as N or N-M")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = parser.parse_args(argv)
    root = Path.cwd()
    expected = json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}
    try:
        for workload in args.workload or sorted(WORKLOADS):
            entries = expected.setdefault(workload, {})
            for seed in args.seeds:
                run = Run(root, workload, seed)
                run.expected = [None] * POOL_SIZE  # record, do not compare
                try:
                    for index, input_seed in enumerate(run.seeds):
                        if str(input_seed) not in entries:
                            entries[str(input_seed)] = record_input(run, index)
                            print(f"{workload} seed {input_seed}: recorded", flush=True)
                finally:
                    run.remove_files()
                EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")
    except StepError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
