"""Command-line interface: dataset I/O, fitting, simulation, and experiments.

Datasets travel as CSV with header ``target,x1,...,xp``; the target field is
empty for observational rows or a semicolon-separated list of 1-based vertex
labels.  Exit codes: 0 success, 2 configuration or parameter error, 3 data
error, 4 capacity guard.

The search flags of ``fit`` and the flags and config keys of ``experiment``
are the fields of ``SearchConfig`` and ``ExperimentConfig``, read by type.
"""

import argparse
import math
import sys
import typing
from dataclasses import fields
from pathlib import Path

import numpy as np

from .equivalence import essential_graph, format_essential_graph
from .errors import CapacityError, DataError, ParameterError
from .experiments import ExperimentConfig, _cell_summaries, _draw_cell, _draw_model
from .experiments import _created, _writing, run_consistency_experiment, run_fit
from .model import (
    _FLOAT_FMT,
    Dataset,
    InterventionSpec,
    InterventionTarget,
    derive_seed,
    format_model,
    group_rows,
    sample_dataset,
)
from .search import SearchConfig

__all__ = ["ingest_csv", "emit_csv", "main"]


# characters of CSV text parsed at a time: as fast as 1 MiB, and a fit's
# peak RSS is about 3 MB lower, as less freed chunk memory stays on the heap
_CHUNK_CHARS = 1 << 18

# "\x1f", which loadtxt strips from a cell as whitespace where float() rejects
# it, and the line ends that str.splitlines honours and the file reader does not
_ROW_LOOP_ONLY = "\x1f\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"


def ingest_csv(path: str | Path) -> Dataset:
    """Read a dataset CSV; malformed rows are rejected with their line number.

    The file is read in chunks of whole lines of about ``_CHUNK_CHARS``
    characters, split as ``str.splitlines`` splits the whole text.  A
    chunk's lines, as the file reader returns them, are parsed by one
    ``np.loadtxt`` call, whose result is kept only when every line gave
    p + 1 fields and its p values are finite; each distinct target field
    is then parsed once per file, and a bad one is reported at its first
    line.  A chunk holding a character in ``_ROW_LOOP_ONLY`` or a blank
    line, and any chunk whose parse is not kept, goes through the row loop
    on its ``str.splitlines`` lines.  The row loop names the first bad line
    and cell and accepts every cell ``float`` accepts, ``1_0`` included,
    which loadtxt rejects.  Both paths give the same values and errors, so
    neither depends on where chunks end.  The blocks are concatenated into
    the array the Dataset keeps.
    """
    p = 0
    parsed: dict[str, InterventionTarget] = {}
    targets: list[InterventionTarget] = []
    blocks: list[np.ndarray] = []
    lineno = 1  # the line number of lines[0]
    for lines in _line_chunks(path):
        text = "".join(lines)
        bulk = not any(c in text for c in _ROW_LOOP_ONLY)
        if not bulk:
            lines = text.splitlines()
        del text
        if lineno == 1:
            first = lines[0].removesuffix("\n")
            header = [c.strip() for c in first.split(",")]
            p = len(header) - 1
            if p < 1 or header[0] != "target" or header[1:] != [f"x{i}" for i in range(1, p + 1)]:
                raise DataError(f"{path}: line 1: header must be 'target,x1,...,xp', got {first!r}")
            del lines[0]
            lineno = 2
        if not lines:
            continue
        # loadtxt skips blank lines, and warns when it finds no other
        values = _numeric_block(lines, p) if bulk and "\n" not in lines else None
        if values is None:
            if bulk:
                lines = "".join(lines).splitlines()
            values = _ingest_rows(path, lines, lineno, p, parsed, targets)
        else:
            _parse_targets(path, lines, lineno, p, parsed, targets)
        blocks.append(values)
        lineno += len(lines)
    if lineno == 1:
        raise DataError(f"{path}: empty file")
    values = np.concatenate(blocks) if blocks else np.empty((0, p))
    del blocks
    # the Dataset keeps the concatenated values, which no one else holds, uncopied
    targets = tuple(targets)
    return Dataset._grouped(p, targets, values, group_rows(targets))


def _line_chunks(path: str | Path):
    """The file's lines in chunks of about ``_CHUNK_CHARS`` characters, each
    line with its newline.  Newlines are read as ``Path.read_text`` reads
    them, so every chunk ends where ``str.splitlines`` ends a line.  A file
    that cannot be read, or is not UTF-8, raises DataError."""
    try:
        with open(path, encoding="utf-8") as handle:
            yield from iter(lambda: handle.readlines(_CHUNK_CHARS), [])
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from None


def _numeric_block(lines: list[str], p: int) -> np.ndarray | None:
    """Columns 1..p of every line as floats, or None unless each line gave
    p + 1 fields and p finite values.  The target field is read as zero,
    so only a wrong field count can fail in it."""
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, converters={0: lambda _: 0.0})
    except ValueError:
        return None
    values = values[:, 1:]
    if values.shape != (len(lines), p) or not np.isfinite(values).all():
        return None
    return values


def _parse_targets(path, lines: list[str], lineno: int, p: int,
                   parsed: dict[str, InterventionTarget], targets: list[InterventionTarget]) -> None:
    """Append every line's target to ``targets``, where ``lineno`` is the
    line number of ``lines[0]``, parsing each field not yet in ``parsed``
    once."""
    fields = [raw[:raw.find(",")] for raw in lines]
    for field in dict.fromkeys(fields):
        if field not in parsed:
            try:
                parsed[field] = _parse_target(field, p)
            except (ValueError, ParameterError) as exc:
                raise DataError(f"{path}: line {lineno + fields.index(field)}: "
                                f"bad target {field.strip()!r} ({exc})") from None
    targets.extend(map(parsed.__getitem__, fields))


def _parse_target(cell: str, p: int) -> InterventionTarget:
    """The target a row's first field names; raises ValueError or ParameterError."""
    field = cell.strip()
    if not field:
        return InterventionTarget.empty()
    target = InterventionTarget(tuple([int(part) for part in field.split(";")]))
    target.validate_for(p)
    return target


def _ingest_rows(path, lines: list[str], first: int, p: int,
                 parsed: dict[str, InterventionTarget], targets: list[InterventionTarget]) -> np.ndarray:
    """The row loop, where ``first`` is the line number of ``lines[0]``:
    returns the lines' values and appends their targets to ``targets``,
    parsing each field not yet in ``parsed`` once.  A row's cells are
    converted with one ``float`` pass and checked for finiteness at once;
    only a row that fails is scanned cell by cell, to name the first bad
    column."""
    values = np.empty((len(lines), p))
    for i, raw in enumerate(lines):
        lineno = first + i
        cells = raw.split(",")
        if len(cells) != p + 1:
            raise DataError(f"{path}: line {lineno}: expected {p + 1} fields, got {len(cells)}")
        _parse_targets(path, [raw], lineno, p, parsed, targets)
        try:
            row = list(map(float, cells[1:]))
        except ValueError:
            row = None
        if row is None or not math.isfinite(sum(row)):
            # find the first bad cell; a row of finite cells whose sum overflows passes
            row = []
            for col, cell in enumerate(cells[1:], start=1):
                try:
                    x = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: line {lineno}: column x{col}: not a number: {cell.strip()!r}"
                    ) from None
                if not math.isfinite(x):
                    raise DataError(f"{path}: line {lineno}: column x{col}: non-finite value")
                row.append(x)
        values[i] = row
    return values


def emit_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a dataset CSV that ingest_csv reads back bit-exactly.

    Each distinct target's label is computed once; each row is formatted
    from one ``tolist`` of its values by one call of a row-wide template.
    """
    labels = {t: t.label() for t in dataset.row_groups}
    row_text = ",".join([_FLOAT_FMT] * dataset.p).format
    lines = ["target," + ",".join(f"x{i}" for i in range(1, dataset.p + 1))]
    for target, row in dataset.rows():
        lines.append(labels[target] + "," + row_text(*row.tolist()))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# settings: flags and config-file keys, one per field of a config dataclass


def _setting_types(config_cls) -> dict:
    """Each field name of ``config_cls`` with the parser of its text, from the
    field's type: a tuple takes a comma-separated list, an optional its inner type."""
    types = {}
    for name, hint in typing.get_type_hints(config_cls).items():
        inner = [a for a in typing.get_args(hint) if a is not type(None)]
        if typing.get_origin(hint) is tuple:
            types[name] = {int: _parse_int_list, float: _parse_float_list}[inner[0]]
        else:
            types[name] = inner[0] if inner else hint
    return types


def _add_settings(parser: argparse.ArgumentParser, config_cls, defaults: bool) -> None:
    """One ``--field-name`` flag per field of ``config_cls``, defaulting to
    the field's default, or to None when ``defaults`` is false."""
    types = _setting_types(config_cls)
    for f in fields(config_cls):
        parser.add_argument("--" + f.name.replace("_", "-"), type=types[f.name],
                            default=f.default if defaults else None, choices=f.metadata.get("choices"))


def _read_config_file(path: str | Path) -> dict:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from None
    types = _setting_types(ExperimentConfig)
    settings = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParameterError(f"{path}: line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise ParameterError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in settings:
            raise ParameterError(f"{path}: line {lineno}: duplicate key {key!r}")
        try:
            settings[key] = types[key](value)
        except ValueError as exc:
            raise ParameterError(f"bad value for {key}: {value!r} ({exc})") from None
    return settings


# ---------------------------------------------------------------------------
# commands


def _cmd_fit(args) -> int:
    # a bad search flag is rejected before the data is read
    config = SearchConfig(**{f.name: getattr(args, f.name) for f in fields(SearchConfig)})
    dataset = ingest_csv(args.data)
    fitted, graph, _ = run_fit(dataset, config=config, out_dir=args.out)
    print(f"n={dataset.n} p={dataset.p} method={config.method}")
    print(f"edges={fitted.dag.num_edges} bic={fitted.bic:.6f} loglik={fitted.log_likelihood:.6f}")
    sys.stdout.write(format_essential_graph(graph))
    return 0


def _cmd_simulate(args) -> int:
    # one dataset is one cell of an experiment grid, under the same rules
    config = ExperimentConfig(
        seed=args.seed, p=args.p, expected_degree=args.expected_degree, k=args.k,
        replicates_per_target=args.replicates_per_target, tau=args.tau,
        n_grid=(args.n,), mu_grid=(args.mu,),
    )
    dag, model = _draw_model(config)
    singles, sequence = _draw_cell(config, args.n, derive_seed(args.seed, 3))
    spec = InterventionSpec.constant(singles, args.mu, args.tau**2)
    data = sample_dataset(model, sequence, spec, derive_seed(args.seed, 4))
    graph = essential_graph(dag, data.observed_targets())
    out = _created(args.out)
    with _writing(out):
        emit_csv(data, out / "dataset.csv")
        (out / "model.txt").write_text(format_model(model), encoding="utf-8")
        (out / "essential.txt").write_text(format_essential_graph(graph), encoding="utf-8")
    print(f"wrote {data.n} rows over {data.p} columns to {out / 'dataset.csv'}")
    return 0


def _cmd_experiment(args) -> int:
    settings = _read_config_file(args.config) if args.config else {}
    flags = {f.name: getattr(args, f.name) for f in fields(ExperimentConfig)}
    settings.update({key: value for key, value in flags.items() if value is not None})
    if "seed" not in settings:
        raise ParameterError("--seed is mandatory for experiments")
    rows = run_consistency_experiment(ExperimentConfig(**settings), out_dir=args.out)
    for n, mu, replicates, median_shd, _ in _cell_summaries(rows):
        print(f"n={n} mu={mu:g} replicates={replicates} median_shd={median_shd:g}")
    if args.out:
        print(f"wrote rows.csv, medians.csv, timings.csv to {args.out}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="interdag",
        description="Learn causal DAG structure from mixed observational and interventional Gaussian data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="fit a structure to a dataset CSV")
    fit.add_argument("--data", required=True, help="dataset CSV path")
    fit.add_argument("--out", default=None, help="directory for fit artifacts")
    _add_settings(fit, SearchConfig, defaults=True)
    fit.set_defaults(func=_cmd_fit)

    sim = sub.add_parser("simulate", help="draw a random model and dataset")
    sim.add_argument("--p", type=int, default=10)
    sim.add_argument("--expected-degree", type=float, default=1.8)
    sim.add_argument("--n", type=int, default=1000)
    sim.add_argument("--k", type=int, default=0, help="number of single-vertex targets")
    sim.add_argument("--replicates-per-target", type=int, default=1)
    sim.add_argument("--mu", type=float, default=10.0)
    sim.add_argument("--tau", type=float, default=0.2)
    sim.add_argument("--seed", type=int, default=None, required=True)
    sim.add_argument("--out", required=True, help="output directory")
    sim.set_defaults(func=_cmd_simulate)

    exp = sub.add_parser("experiment", help="run a seeded replicate grid")
    exp.add_argument("--config", default=None, help="flat key = value settings file")
    # a flag given overrides the config file's value
    _add_settings(exp, ExperimentConfig, defaults=False)
    exp.add_argument("--out", default=None, help="directory for result CSVs")
    exp.set_defaults(func=_cmd_experiment)
    return parser


def _parse_int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v.strip()) for v in text.split(",") if v.strip())


def _parse_float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v.strip()) for v in text.split(",") if v.strip())


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParameterError, DataError, CapacityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ParameterError) else 3 if isinstance(exc, DataError) else 4


if __name__ == "__main__":
    sys.exit(main())
