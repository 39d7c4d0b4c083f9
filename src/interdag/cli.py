"""Command-line interface: dataset I/O, fitting, simulation, and experiments.

Datasets travel as CSV with header ``target,x1,...,xp``; the target field is
empty for observational rows or a semicolon-separated list of 1-based vertex
labels.  Exit codes: 0 success, 2 configuration or parameter error, 3 data
error, 4 capacity guard.

The search flags of ``fit``, the flags and config keys of ``experiment``, and
the flags of ``simulate`` but its cell's n and mu, its seed and its --out, are
fields of ``SearchConfig`` and ``ExperimentConfig``, read by their kind.
"""

import argparse
import contextlib
import functools
import itertools
import math
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from ._fork import _forked
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
from .search import SearchConfig, _field_kinds

__all__ = ["ingest_csv", "emit_csv", "main"]


# characters of CSV text parsed or formatted at a time: as fast as 1 MiB, and
# a fit's peak RSS is about 3 MB lower, as less freed chunk memory stays on the heap
_CHUNK_CHARS = 1 << 18

# the characters of a formatted value and its comma, about, which sizes the
# row chunks emit_csv formats and the text it would write
_VALUE_CHARS = 20

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

    Once the header is read, a file of at least 8 chunks is split with a
    forked child (see ``_fork._forked``): the child parses the tail half's
    chunks by ``np.loadtxt`` and sends each as one frame of raw float64
    values (``_bulk_blocks``), while this process parses the head half.  Both
    chunk the same file the same way.  For each tail chunk this process
    reads the child's next frame in place of its own ``np.loadtxt`` call,
    still reading every line for targets and line numbers.  From the first
    chunk whose frame is missing or not of the chunk's size, this process
    parses every chunk itself, so the values and errors are the same.
    """
    parsed: dict[str, InterventionTarget] = {}
    targets: list[InterventionTarget] = []
    blocks: list[np.ndarray] = []
    with contextlib.closing(_line_chunks(path)) as reader:
        lines, bulk = _split(next(reader, []))
        if not lines:
            raise DataError(f"{path}: empty file")
        first = lines[0].removesuffix("\n")
        header = [c.strip() for c in first.split(",")]
        p = len(header) - 1
        if p < 1 or header[0] != "target" or header[1:] != [f"x{i}" for i in range(1, p + 1)]:
            raise DataError(f"{path}: line 1: header must be 'target,x1,...,xp', got {first!r}")
        identity = _file_identity(path)
        size = identity[0] if identity else 0
        start = size // _CHUNK_CHARS // 2  # the child's frames are of chunks start on
        lineno = 2  # the line number of lines[0]
        worth = size >= 8 * _CHUNK_CHARS
        with _forked(worth, functools.partial(_bulk_blocks, path, identity, p, start)) as frames:
            for index, (lines, bulk) in enumerate(itertools.chain([(lines[1:], bulk)], map(_split, reader))):
                if not lines:
                    continue
                values = None
                if frames is not None and index >= start:
                    frame = next(frames, None)
                    if frame is not None and len(frame) == len(lines) * p * 8:
                        values = np.frombuffer(frame).reshape(-1, p)
                    else:
                        frames = None
                if values is None and bulk:
                    values = _numeric_block(lines, p)
                if values is None:
                    if bulk:
                        lines = "".join(lines).splitlines()
                    values = _ingest_rows(path, lines, lineno, p, parsed, targets)
                else:
                    _parse_targets(path, lines, lineno, p, parsed, targets)
                blocks.append(values)
                lineno += len(lines)
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


def _file_identity(path: str | Path) -> tuple | None:
    """The file's size in bytes, modification time, device and inode, or
    None if it cannot be read any more."""
    try:
        status = os.stat(path)
    except OSError:
        return None
    return status.st_size, status.st_mtime_ns, status.st_dev, status.st_ino


def _split(lines: list[str]) -> tuple[list[str], bool]:
    """A chunk's lines and whether they may be parsed in bulk: the file
    reader's lines when the chunk holds no character in ``_ROW_LOOP_ONLY``,
    else its ``str.splitlines`` lines, for the row loop."""
    text = "".join(lines)
    if any(c in text for c in _ROW_LOOP_ONLY):
        return text.splitlines(), False
    return lines, True


def _numeric_block(lines: list[str], p: int) -> np.ndarray | None:
    """Columns 1..p of every line as floats, or None unless each line gave
    p + 1 fields and p finite values.  The target field is read as zero,
    so only a wrong field count can fail in it.  A blank line gives None:
    loadtxt skips it, and warns when it finds no other."""
    if "\n" in lines:
        return None
    try:
        values = np.loadtxt(lines, delimiter=",", comments=None, ndmin=2, converters={0: lambda _: 0.0})
    except ValueError:
        return None
    values = values[:, 1:]
    if values.shape != (len(lines), p) or not np.isfinite(values).all():
        return None
    return values


def _bulk_blocks(path: str | Path, identity: tuple | None, p: int, start: int):
    """The child's half of ingest_csv: from chunk ``start`` on, the values
    of each chunk, as a C-ordered array, up to the first that is not parsed
    in bulk; nothing if the path no longer has the ``identity`` the parent
    saw, as when the file was replaced or rewritten since."""
    if _file_identity(path) != identity:
        return
    for lines, bulk in itertools.islice(map(_split, _line_chunks(path)), start, None):
        values = _numeric_block(lines, p) if bulk else None
        if values is None:
            return
        yield np.ascontiguousarray(values)


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

    Each distinct target's label is computed once; the rows are formatted
    and written in chunks of about ``_CHUNK_CHARS`` characters, each row by
    one call of a row-wide template.  A text of at least 8 chunks, by its
    n·p values, is split with a forked child (see ``_fork._forked``): the
    child formats the tail half of the rows, one frame per chunk, while
    this process writes the head half, then writes the child's frames
    after it as they arrive.  If the child's frames end before its end
    frame, this process truncates the file back to the head and formats
    the tail itself, so the bytes are the same either way.
    """
    labels = {t: t.label() for t in dataset.row_groups}
    middle = dataset.n // 2
    tail = functools.partial(_csv_rows, dataset, labels, middle, dataset.n)
    with open(path, "wb") as out:
        out.write(("target," + ",".join(f"x{i}" for i in range(1, dataset.p + 1)) + "\n").encode())
        with _forked(dataset.n * dataset.p * _VALUE_CHARS >= 8 * _CHUNK_CHARS, tail) as frames:
            out.writelines(_csv_rows(dataset, labels, 0, dataset.n if frames is None else middle))
            mark = out.tell()
            for frame in frames or ():
                if frame is None:
                    out.seek(mark)
                    out.truncate()
                    out.writelines(tail())
                else:
                    out.write(frame)


def _csv_rows(dataset: Dataset, labels: dict, start: int, stop: int):
    """The CSV lines of rows start..stop - 1, encoded, in chunks of about
    ``_CHUNK_CHARS`` characters."""
    row_text = ",".join([_FLOAT_FMT] * dataset.p)
    step = max(1, _CHUNK_CHARS // (_VALUE_CHARS * dataset.p))
    for i in range(start, stop, step):
        j = min(i + step, stop)
        rows = zip(dataset.targets[i:j], dataset.values[i:j].tolist())
        yield "".join([labels[t] + "," + row_text % tuple(row) + "\n" for t, row in rows]).encode()


# ---------------------------------------------------------------------------
# settings: flags and config-file keys, one per field of a config dataclass


def _setting_types(config_cls) -> dict:
    """Each field name of ``config_cls`` with the parser of its text, by the
    field's kind (``search._field_kinds``): a tuple takes a comma-separated
    list of its kind."""
    return {name: _list_of(kind) if several else kind for name, (kind, several, _) in _field_kinds(config_cls).items()}


def _list_of(kind):
    """The parser of a comma-separated list of ``kind``, named for argparse's
    errors (``invalid int list value``)."""
    def parse(text: str) -> tuple:
        return tuple(kind(v.strip()) for v in text.split(",") if v.strip())
    parse.__name__ = f"{kind.__name__} list"
    return parse


def _add_settings(parser: argparse.ArgumentParser, config_cls, defaults: bool, names=None) -> None:
    """One ``--field-name`` flag per field of ``config_cls``, or per field in
    ``names``, defaulting to the field's default, or to None when
    ``defaults`` is false."""
    types = _setting_types(config_cls)
    for f in fields(config_cls):
        if names is None or f.name in names:
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
            raise ParameterError(f"{path}: line {lineno}: bad value for {key}: {value!r} ({exc})") from None
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


# the ExperimentConfig fields that are flags of ``simulate``
_SIMULATED = ("p", "expected_degree", "k", "replicates_per_target", "tau")


def _cmd_simulate(args) -> int:
    # one dataset is one cell of an experiment grid, under the same rules
    config = ExperimentConfig(seed=args.seed, n_grid=(args.n,), mu_grid=(args.mu,),
                              **{name: getattr(args, name) for name in _SIMULATED})
    (n,), (mu,) = config.n_grid, config.mu_grid
    dag, model = _draw_model(config)
    singles, sequence = _draw_cell(config, n, derive_seed(config.seed, 3))
    spec = InterventionSpec.constant(singles, mu, config.tau**2)
    data = sample_dataset(model, sequence, spec, derive_seed(config.seed, 4))
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
    _add_settings(sim, ExperimentConfig, defaults=True, names=_SIMULATED)
    sim.add_argument("--n", type=int, default=1000)
    sim.add_argument("--mu", type=float, default=10.0)
    sim.add_argument("--seed", type=int, default=None, required=True)
    sim.add_argument("--out", required=True, help="output directory")
    # a single dataset defaults to observational rows and one row per target
    sim.set_defaults(k=0, replicates_per_target=1, func=_cmd_simulate)

    exp = sub.add_parser("experiment", help="run a seeded replicate grid")
    exp.add_argument("--config", default=None, help="flat key = value settings file")
    # a flag given overrides the config file's value
    _add_settings(exp, ExperimentConfig, defaults=False)
    exp.add_argument("--out", default=None, help="directory for result CSVs")
    exp.set_defaults(func=_cmd_experiment)
    return parser


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
