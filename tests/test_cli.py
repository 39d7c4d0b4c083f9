"""Dataset CSV round trips, command wiring, config files, and exit codes.

Core claims:
    - emit_csv/ingest_csv round-trip values bit-exactly (17 significant
      digits) and re-emitting reproduces the same bytes.
    - Malformed CSV input is rejected with the offending line number, the
      first bad column, and a bad target before a bad cell on one row.
    - ingest_csv's bulk parse accepts exactly what the row loop it replaced
      (helpers.reference_ingest_csv) accepts, with the same bits, and
      rejects the rest with the same message, with no warning at all,
      whether the file is one chunk or chunks of a few characters and
      whichever line separators str.splitlines() honours end its lines;
      a clean file never reaches the row loop.  A file of several chunks
      is read holding one chunk of text at a time (tracemalloc).
    - A CSV of 8 chunks or more is read and written by two forked
      processes, with the values, errors and bytes of one process, also
      when the child dies or its stream of frames ends early, and no child
      is left after any call; a stream ends at its empty end frame, or
      else with None wherever it is cut.  emit_csv holds a few chunks of
      text at a time (tracemalloc).
      The simulate and CSV ingest of the exact-search benchmark's input
      and an experiment grid never fork; its exact-search fit forks once,
      with the bytes of a fit on one core, and a grid's pool workers never
      fork.
    - A seeded simulate writes the same dataset.csv bytes as recorded, with
      every other flag at its default the dataset.csv, model.txt and
      essential.txt bytes as recorded, and one at p=100 whose class is too
      large to list exits 0.  One with no
      observational rows writes the essential.txt bytes recorded when its
      truth graph's family still held the empty target.
    - The fit and experiment flags, simulate's flags of ExperimentConfig
      fields and the config-file keys come from the fields of SearchConfig
      and ExperimentConfig, typed by their annotations (string ones too); a
      config file and the equivalent flags give the same rows.csv and
      medians.csv.
    - A config file that repeats a key is rejected, naming the line and
      the key, and so are a line without '=' and a value of the wrong
      type, each after the file's path and line; fit rejects a bad search
      flag before it reads the data.
    - Exit codes: 0 success, 2 parameter/config error (a tau whose square
      underflows, a mu that is not finite, a mu or tau whose rows would
      have second moments that overflow, found before simulate or
      experiment makes its --out, a config file that is not UTF-8 and an
      --out that cannot be written included, the last found
      before a fit's search or an experiment's grid runs, and a bad search
      flag of experiment before its --out is made), 3 data error (a CSV
      that is not UTF-8, rows that all target one vertex, which is named,
      and values whose second moments overflow, with no floating-point
      warning, included), 4 capacity guard (the exact search beyond 20
      vertices, which experiment refuses before its --out is made,
      exclusion mixtures beyond physical memory, or a grid or simulate
      whose largest dataset exceeds physical memory, refused before its
      --out is made; where memory is unknown, an n too large for a float
      exits 2, naming n).  A fit that fails after
      its --out is created leaves that directory empty.
    - fit/simulate/experiment write the documented artifact files, and
      experiment output is bit-identical across runs with the same seed.
"""

import contextlib
import hashlib
import io
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import interdag._fork
import interdag.cli
import interdag.experiments
import interdag.likelihood
from interdag import (
    Dag,
    DataError,
    Dataset,
    ExperimentConfig,
    GaussianCausalModel,
    InterventionSpec,
    InterventionTarget,
    ParameterError,
    SearchConfig,
    parse_essential_graph,
    parse_model,
    run_fit,
    sample_dataset,
)
from interdag.cli import emit_csv, ingest_csv, main

from helpers import assert_no_child_left, forks, one_core, reference_ingest_csv


def _sample_csv(path, seed=5, n=40, mu=8.0):
    dag = Dag.from_edges(3, [(1, 2), (2, 3)])
    w = np.zeros((3, 3))
    w[1, 0] = 0.9
    w[2, 1] = -0.7
    model = GaussianCausalModel(dag, w, np.array([1.0, 0.5, 0.8]))
    t1 = InterventionTarget.of(1)
    seq = [InterventionTarget.empty()] * (n - 4) + [t1] * 4
    spec = InterventionSpec.constant([t1], mu, 0.04)
    data = sample_dataset(model, seq, spec, seed=seed)
    emit_csv(data, path)
    return data


# -- CSV round trips ---------------------------------------------------------------


def test_csv_round_trip_bit_exact(tmp_path):
    values = np.array([
        [1 / 3, -0.0, 1e300],
        [-1e-17, 2.5, 3.0],
        [0.1 + 0.2, np.pi, -7.25],
    ])
    targets = (
        InterventionTarget.empty(),
        InterventionTarget.of(2),
        InterventionTarget.of(1, 3),
    )
    data = Dataset(3, targets, values)
    path = tmp_path / "d.csv"
    emit_csv(data, path)
    back = ingest_csv(path)
    assert back.targets == data.targets
    assert back.values.tolist() == data.values.tolist()  # exact, not approx
    # stability: emitting the reread dataset reproduces the same bytes
    path2 = tmp_path / "d2.csv"
    emit_csv(back, path2)
    assert path.read_bytes() == path2.read_bytes()


_EDGE_DOUBLES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
                 1.7976931348623157e308, -1.7976931348623157e308]
_POOL = [InterventionTarget.empty(), InterventionTarget.of(1), InterventionTarget.of(2),
         InterventionTarget.of(1, 3), InterventionTarget.of(1, 2, 3)]


@settings(max_examples=100, deadline=None)
@given(
    cells=st.lists(
        st.tuples(
            st.sampled_from(_POOL),
            st.lists(
                st.one_of(
                    st.floats(allow_nan=False, allow_infinity=False),
                    st.sampled_from(_EDGE_DOUBLES),
                ),
                min_size=3,
                max_size=3,
            ),
        ),
        max_size=12,
    )
)
def test_csv_round_trip_property(cells):
    targets = tuple(t for t, _ in cells)
    values = np.array([row for _, row in cells], dtype=float).reshape(len(cells), 3)
    data = Dataset(3, targets, values)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.csv", Path(tmp) / "b.csv"
        emit_csv(data, first)
        back = ingest_csv(first)
        assert back.targets == targets
        assert back.values.tobytes() == data.values.tobytes()
        emit_csv(back, second)
        assert first.read_bytes() == second.read_bytes()


def test_csv_row_whose_sum_overflows_is_accepted(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("target,x1,x2,x3\n,1e308,1e308,-1e308\n")
    assert ingest_csv(path).values.tolist() == [[1e308, 1e308, -1e308]]


def test_simulate_dataset_bytes_pinned(tmp_path):
    out = tmp_path / "sim"
    assert main(["simulate", "--p", "8", "--n", "500", "--k", "3",
                 "--replicates-per-target", "2", "--seed", "1", "--out", str(out)]) == 0
    digest = hashlib.sha256((out / "dataset.csv").read_bytes()).hexdigest()
    assert digest == "c368f4b6f26a134614e5f4af1afd8e5aba7748f1aacf7c7c04661339a0465dae"


def test_simulate_defaults_pinned(tmp_path, capsys):
    # every flag but --seed and --out at its default: p=10, expected degree
    # 1.8, n=1000, no targets, mu 10 and tau 0.2, so 1000 observational rows
    out = tmp_path / "sim"
    assert main(["simulate", "--seed", "1", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"wrote 1000 rows over 10 columns to {out / 'dataset.csv'}\n"
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in ("dataset.csv", "model.txt", "essential.txt")}
    assert digests == {
        "dataset.csv": "302d58961d67c930eb17ddc5fe2e3a4cf44de8b05b12444152feba5e375156a4",
        "model.txt": "b91837baa617deabc2f6a4e79eeb7e6f9a77cad3fca8454731577f4c2bfc2dd0",
        "essential.txt": "8a5d1f098e65bfa922dbeb7a968d4054707a6d8aca2d173b965f186b45fb6875",
    }


def test_csv_header_and_target_text(tmp_path):
    path = tmp_path / "d.csv"
    _sample_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "target,x1,x2,x3"
    assert lines[1].startswith(",")            # observational rows have empty field
    assert lines[-1].startswith("1,")          # intervened rows carry labels
    data = ingest_csv(path)
    assert data.n == 40 and data.p == 3


def test_header_only_csv_is_an_empty_dataset(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("target,x1,x2\n")
    assert ingest_csv(path).n == 0


def test_multi_label_target_round_trip(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("target,x1,x2,x3\n1;3,0.5,1.5,-2\n")
    data = ingest_csv(path)
    assert data.targets == (InterventionTarget.of(1, 3),)


# floors (every test_ingest_*): each chunk's lines parsed by one np.loadtxt
# call, every field read and the target field through a constant converter,
# against the row loop, in one chunk and in chunks of a few characters, with
# any warning an error; files of 8 chunks or more split with a forked child,
# against the row loop and against one process
@pytest.mark.floors
@pytest.mark.parametrize(
    "text, fragment",
    [
        ("targets,x1\n,1.0\n", "line 1"),
        ("target,x2\n,1.0\n", "line 1"),
        ("target,x1,x2\n,1.0\n", "line 2"),
        ("target,x1\n,1.0\n,oops\n", "line 3: column x1"),
        ("target,x1\n,inf\n", "line 2: column x1"),
        ("target,x1,x2\n3,1.0,2.0\n", "line 2"),
        ("target,x1,x2\n1;1,1.0,2.0\n", "line 2"),
        ("", "empty"),
        ("target,x1\n,nan\n", "line 2: column x1: non-finite value"),
        ("target,x1,x2\n,1.0,-inf\n", "line 2: column x2: non-finite value"),
        ("target,x1\n,0.5\n,1e999\n", "line 3: column x1: non-finite value"),
        ("target,x1,x2\n,,2.0\n", "line 2: column x1: not a number: ''"),
        ("target,x1,x2\n,1.0,  \n", "line 2: column x2: not a number: ''"),
        ("target,x1,x2,x3\n,1.0,2.0,x\n", "line 2: column x3: not a number: 'x'"),
        ("target,x1,x2\n,1,2\n9,1.0,oops\n", "line 3: bad target '9' \\(target vertex 9"),
        ("target,x1,x2\n,1,2\n,1,2,3\n", "line 3: expected 3 fields, got 4"),
        ("target,x1,x2\n,1,2,3\n,1\n", "line 2: expected 3 fields, got 4"),
        ("target,x1\n,1\n\n,2\n", "line 3: expected 2 fields, got 1"),
        ("target,x1\n,1\n\n,2,3\n", "line 3: expected 2 fields, got 1"),
        ("target,x1\n,1\n2,2\n2,3\n", "line 3: bad target '2' \\(target vertex 2"),
        ("target,x1,x2\n,1,\x1f2\n", "line 2: column x2: not a number"),
    ],
)
def test_ingest_rejections_carry_line_numbers(tmp_path, text, fragment):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(DataError, match=fragment):
        ingest_csv(path)


@pytest.mark.floors
def test_ingest_parses_a_clean_file_in_bulk(tmp_path, monkeypatch):
    """A well-formed file never reaches the row loop; one ``1_5`` cell,
    which float() reads and loadtxt does not, sends it there."""
    path = tmp_path / "d.csv"
    data = _sample_csv(path)
    loops = []
    row_loop = interdag.cli._ingest_rows
    monkeypatch.setattr(interdag.cli, "_ingest_rows", lambda *a: loops.append(a) or row_loop(*a))
    back = ingest_csv(path)
    assert loops == []
    assert back.targets == data.targets and back.values.tobytes() == data.values.tobytes()
    lines = path.read_text().splitlines()
    lines[7] = lines[7].rsplit(",", 1)[0] + ",1_5"
    path.write_text("\n".join(lines) + "\n")
    assert ingest_csv(path).values[6, 2] == 15.0 and len(loops) == 1


@pytest.mark.floors
def test_ingest_holds_one_chunk_of_text_at_a_time(tmp_path):
    """A CSV of more than 4 MiB is read in chunks of ``_CHUNK_CHARS``
    characters: the peak traced allocation stays within twice the values
    (the chunks' blocks and their concatenation, which the Dataset keeps)
    plus one chunk's text and, while it is split, its lines:
    2 * _CHUNK_CHARS bytes of ASCII.  A whole-file read holds the text and
    its lines, twice the file."""
    p, n = 50, 4400
    rng = np.random.default_rng(3)
    targets = [InterventionTarget.empty()] * (n - 200) + [InterventionTarget.of(v) for v in range(1, 41) for _ in range(5)]
    data = Dataset(p, tuple(targets), rng.standard_normal((n, p)))
    path = tmp_path / "big.csv"
    emit_csv(data, path)
    assert path.stat().st_size >= 4 * 2**20
    tracemalloc.start()
    try:
        back = ingest_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.targets == data.targets and back.values.tobytes() == data.values.tobytes()
    assert peak <= 2 * back.values.nbytes + 2 * interdag.cli._CHUNK_CHARS


# cells float() reads, with finite values
_GOOD_CELLS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map("{:.17g}".format),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from([
        "5e-324", "-4.9e-324", "2.2250738585072014e-308", "1e-310", "-0", "+.5", "1.", "1E5",
        " 1.5", "\t-2 ", "\u20033", "\xa0-1\xa0", "1_0", "\uff11",
    ]),
)
# cells the reader rejects: non-finite, malformed, or blank
_BAD_CELLS = st.sampled_from([
    "nan", "inf", "-Infinity", "1e400", "-1e400", "0x1p3", "", "  ", "junk", "1.2.3", "1__0",
    "1 2", "\x1f1", "1\x1f", "1\x00", "1;2",
])
_GOOD_TARGETS = st.sampled_from(["", "1", "2", "1;2", " 2 ", "2;1"])
_BAD_TARGETS = st.sampled_from(["0", "3;3", "a", "9", "1;", "-1"])


# line separators str.splitlines() honours besides "\n" and "\r\n": a lone
# "\r" is a newline to the file reader too, the others only to splitlines
_LONE_SEPARATORS = ["\r", "\x1c", "\x85", "\u2028"]


def _check_ingest_against_the_row_loop_oracle(data) -> None:
    """On a generated CSV, clean or with up to three defects, and with some
    lines ended by lone separators, ``ingest_csv`` accepts exactly what the
    row loop it replaced accepts, with the same bits, and rejects the rest
    with the same message, and warns of nothing."""
    p = data.draw(st.integers(1, 3), label="p")
    rows = data.draw(
        st.lists(st.tuples(_GOOD_TARGETS, st.lists(_GOOD_CELLS, min_size=p, max_size=p)), max_size=8),
        label="rows",
    )
    lines = ["target," + ",".join(f"x{i}" for i in range(1, p + 1))]
    lines += [t + "," + ",".join(row) for t, row in rows]
    for _ in range(data.draw(st.sampled_from([0, 1, 1, 1, 2, 3]), label="defects")):
        i = data.draw(st.integers(1, len(lines)), label="line")
        kind = data.draw(
            st.sampled_from(["cell", "target", "extra", "missing", "blank", "space"]), label="kind"
        )
        if kind in ("blank", "space") or i == len(lines) or "," not in lines[i]:
            lines.insert(i, "" if kind == "blank" else " \t")
        elif kind == "cell":
            cells = lines[i].split(",")
            cells[data.draw(st.integers(1, len(cells) - 1), label="column")] = data.draw(_BAD_CELLS)
            lines[i] = ",".join(cells)
        elif kind == "target":
            lines[i] = data.draw(_BAD_TARGETS) + lines[i][lines[i].find(","):]
        elif kind == "extra":
            lines[i] += ",1" * data.draw(st.integers(1, 2), label="fields")
        else:
            lines[i] = lines[i].rsplit(",", 1)[0]
    newline = data.draw(st.sampled_from(["\n", "\r\n"]), label="newline")
    separator = st.sampled_from([newline] * 4 + _LONE_SEPARATORS)
    text = lines[0]
    for line in lines[1:]:
        text += data.draw(separator, label="separator") + line
    text += data.draw(st.sampled_from(["", newline]), label="end")
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        # any warning at all is an error: under PYTHONWARNINGS=error one
        # would be a traceback instead of a data error
        warnings.simplefilter("error")
        path = Path(tmp) / "d.csv"
        path.write_bytes(text.encode("utf-8"))
        try:
            want = reference_ingest_csv(path)
        except DataError as exc:
            with pytest.raises(DataError) as got:
                ingest_csv(path)
            assert str(got.value) == str(exc)
        else:
            got = ingest_csv(path)
            assert got.p == want.p and got.targets == want.targets
            assert got.values.shape == want.values.shape
            assert got.values.view(np.uint64).tolist() == want.values.view(np.uint64).tolist()


@pytest.mark.floors
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_ingest_matches_the_row_loop_oracle(data):
    """Every generated file fits in one chunk."""
    _check_ingest_against_the_row_loop_oracle(data)


@pytest.mark.floors
def test_ingest_in_chunks_of_a_few_bytes_matches_the_row_loop_oracle(forks):
    """Chunks of a few characters end between lines, defects and targets,
    so a file is parsed partly in bulk and partly by the row loop, with one
    shared dict of parsed targets.  A file of 8 chunks or more is split
    with a forked child, which parses the tail half's chunks in bulk; some
    examples are."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def check(data):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(interdag.cli, "_CHUNK_CHARS", data.draw(st.integers(1, 40), label="chunk"))
            _check_ingest_against_the_row_loop_oracle(data)
        assert_no_child_left()

    check()
    assert len(forks) >= 10


@pytest.mark.floors
def test_ingest_missing_file():
    with pytest.raises(DataError):
        ingest_csv("/nonexistent/never.csv")


# -- CSV I/O split with a forked child ----------------------------------------------


def _ingest_outcome(path):
    """What ingest_csv makes of the file: its error text, or its dataset's
    columns, targets and value bits."""
    try:
        data = ingest_csv(path)
    except DataError as exc:
        outcome = str(exc)
    else:
        outcome = (data.p, data.targets, data.values.tobytes())
    assert_no_child_left()
    return outcome


def _tail_csv(path, defect: str, newline: str = "\n", rows: int = 400) -> None:
    """A CSV of ``rows`` rows at p=3, some targeted, with one defect at
    about four fifths of the rows, in the tail half a child parses, and
    beyond the first 8 KiB block the file reader decodes."""
    rng = np.random.default_rng(11)
    lines = ["target,x1,x2,x3"]
    for i in range(rows):
        target = ["", "1", "2;3"][i % 3]
        lines.append(target + "," + ",".join(map(repr, rng.standard_normal(3).tolist())))
    i = rows * 4 // 5
    if defect == "cell":
        lines[i] = lines[i].rsplit(",", 1)[0] + ",oops"
    elif defect == "target":
        lines[i] = "7" + lines[i][lines[i].find(","):]
    elif defect == "blank":
        lines.insert(i, "")
    text = (newline.join(lines) + newline).encode()
    if defect == "utf8":
        at = text.index(lines[i].encode())
        text = text[:at] + b"\xff" + text[at:]
    path.write_bytes(text)


@pytest.mark.floors
@pytest.mark.parametrize("defect, newline, message", [
    ("cell", "\n", "line 321: column x3: not a number: 'oops'"),
    ("target", "\n", "line 321: bad target '7'"),
    ("blank", "\n", "line 321: expected 4 fields, got 1"),
    ("utf8", "\n", "codec can't decode byte 0xff"),
    ("none", "\r\n", None),
    ("cell", "\r\n", "line 321: column x3: not a number: 'oops'"),
])
def test_ingest_defect_in_the_tail_half_gives_what_one_process_gives(tmp_path, monkeypatch, forks,
                                                                     defect, newline, message):
    """A defect in the chunks the child parses gives the same error text as
    a parse in one process, and a clean CRLF file the same bits; after
    either, no child is left."""
    monkeypatch.setattr(interdag.cli, "_CHUNK_CHARS", 256)
    path = tmp_path / "d.csv"
    _tail_csv(path, defect, newline)
    got = _ingest_outcome(path)
    assert len(forks) == 1
    with one_core():
        assert _ingest_outcome(path) == got
    assert len(forks) == 1
    if message is None:
        assert got[0] == 3 and len(got[1]) == 400
    else:
        assert message in got


@pytest.mark.floors
def test_ingest_whose_child_exits_early_gives_the_same_dataset(tmp_path, monkeypatch, forks):
    """A child that dies before it sends a block leaves this process to
    parse every chunk itself, with the same bits."""
    monkeypatch.setattr(interdag.cli, "_CHUNK_CHARS", 256)
    path = tmp_path / "d.csv"
    _tail_csv(path, "none")
    with one_core():
        want = _ingest_outcome(path)
    parent, block = os.getpid(), interdag.cli._numeric_block
    monkeypatch.setattr(interdag.cli, "_numeric_block",
                        lambda lines, p: block(lines, p) if os.getpid() == parent else os._exit(1))
    assert _ingest_outcome(path) == want
    assert len(forks) == 1


@pytest.mark.floors
def test_ingest_whose_child_sends_a_wrong_sized_block_gives_the_same_dataset(tmp_path, monkeypatch, forks):
    """A frame that does not hold a value for every field of its chunk, here
    one row short, is not used: this process parses that chunk and every
    later one itself, with the same bits."""
    monkeypatch.setattr(interdag.cli, "_CHUNK_CHARS", 256)
    path = tmp_path / "d.csv"
    _tail_csv(path, "none")
    with one_core():
        want = _ingest_outcome(path)
    parent, block = os.getpid(), interdag.cli._numeric_block
    monkeypatch.setattr(interdag.cli, "_numeric_block",
                        lambda lines, p: block(lines, p)[:None if os.getpid() == parent else -1])
    assert _ingest_outcome(path) == want
    assert len(forks) == 1


@pytest.mark.floors
def test_ingest_of_a_file_replaced_after_its_header_reads_the_file_opened(tmp_path, monkeypatch, forks):
    """A file replaced by another of as many rows once this process has
    opened it is read whole from the file opened: the child, which opens
    the path anew, sends nothing."""
    monkeypatch.setattr(interdag.cli, "_CHUNK_CHARS", 256)
    path, other = tmp_path / "d.csv", tmp_path / "other.csv"
    _tail_csv(path, "none")
    _tail_csv(other, "none")
    other.write_text(other.read_text().replace(",-", ",+"))
    with one_core():
        want = _ingest_outcome(path)
    fork = os.fork
    monkeypatch.setattr(os, "fork", lambda: os.replace(other, path) or fork())
    assert _ingest_outcome(path) == want


def _framed(*buffers, end=True) -> bytes:
    return b"".join(len(b).to_bytes(8, "little") + b for b in buffers) + (bytes(8) if end else b"")


@pytest.mark.floors
@pytest.mark.parametrize("stream, frames", [
    (_framed(b"ab", b"cde"), [b"ab", b"cde"]),
    (_framed(), []),
    (b"", [None]),
    (_framed(b"ab", end=False) + b"\x03\x00", [b"ab", None]),
    (_framed(b"ab", end=False) + (3).to_bytes(8, "little") + b"cd", [b"ab", None]),
    (_framed(b"ab", b"cde", end=False), [b"ab", b"cde", None]),
], ids=["complete", "no-frames", "empty", "cut-in-a-length", "cut-in-a-frame", "no-end-frame"])
def test_ingest_and_emit_read_frames_up_to_the_end_frame_or_none(stream, frames):
    """The frames of a child's stream, each an 8-byte little-endian length
    and its bytes, up to the empty end frame; a stream that ends before
    that frame, wherever it is cut, gives its whole frames and then None."""
    assert list(interdag._fork._frames(io.BytesIO(stream))) == frames


@pytest.mark.parametrize("child", ["whole", "exits", "short"])
def test_emit_writes_the_same_bytes_forked_and_in_one_process(tmp_path, monkeypatch, forks, child):
    """The head rows written here and the tail rows copied from a child
    make the bytes one process writes, and so do the tail rows formatted
    here when the child dies before it sends ("exits") or its stream ends
    after one frame, with no end frame ("short"): there, the child's
    second buffer cannot be written, and it dies writing it."""
    monkeypatch.setattr(interdag.cli, "_CHUNK_CHARS", 256)
    rng = np.random.default_rng(5)
    targets = [InterventionTarget.empty(), InterventionTarget.of(2), InterventionTarget.of(1, 3)] * 70
    data = Dataset(3, tuple(targets), rng.standard_normal((210, 3)) * 10.0 ** rng.integers(-300, 300, (210, 3)))
    with one_core():
        emit_csv(data, tmp_path / "one.csv")
    parent, rows, frames, seen = os.getpid(), interdag.cli._csv_rows, interdag._fork._frames, []

    def child_rows(*args):
        if os.getpid() == parent:
            return rows(*args)
        return os._exit(1) if child == "exits" else iter([next(rows(*args)), None])

    if child != "whole":
        monkeypatch.setattr(interdag.cli, "_csv_rows", child_rows)
    monkeypatch.setattr(interdag._fork, "_frames", lambda f: (seen.append(frame) or frame for frame in frames(f)))
    emit_csv(data, tmp_path / "two.csv")
    assert_no_child_left()
    assert len(forks) == 1
    # the frames read here: the 27 chunks of 4 rows of the 105 tail rows, or
    # what the child sent before its stream ended
    ends = {"whole": [False] * 27, "exits": [True], "short": [False, True]}[child]
    assert [frame is None for frame in seen] == ends
    assert (tmp_path / "two.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert ingest_csv(tmp_path / "two.csv").values.tobytes() == data.values.tobytes()


@pytest.mark.floors
def test_ingest_and_emit_run_in_one_process_when_fork_fails(tmp_path, monkeypatch, forks):
    """A fork refused by the system, for want of processes or memory,
    leaves the whole file to this process, with the same bytes and bits."""
    monkeypatch.setattr(interdag.cli, "_CHUNK_CHARS", 256)
    path = tmp_path / "d.csv"
    _tail_csv(path, "none")
    with one_core():
        want = _ingest_outcome(path)
        data = ingest_csv(path)
        emit_csv(data, tmp_path / "one.csv")

    def refused_fork():
        forks.append(os.getpid())
        raise BlockingIOError(11, "no fork")

    monkeypatch.setattr(os, "fork", refused_fork)
    assert _ingest_outcome(path) == want
    emit_csv(data, tmp_path / "two.csv")
    assert (tmp_path / "two.csv").read_bytes() == (tmp_path / "one.csv").read_bytes()
    assert len(forks) == 2


@pytest.mark.parametrize("forked", [False, True])
def test_emit_holds_a_few_chunks_of_text_at_a_time(tmp_path, forks, forked):
    """The rows are formatted and written in chunks of about
    ``_CHUNK_CHARS`` characters, in one process and, forked, in this
    one: the peak traced allocation stays within a few chunks' text, with
    the lines and floats it is made from.  Joining every line held the
    lines and the text, 8.3 times the values at 100,000 rows of 10."""
    p, n = 10, 40_000
    rng = np.random.default_rng(3)
    data = Dataset(p, (InterventionTarget.empty(),) * n, rng.standard_normal((n, p)))
    path = tmp_path / "big.csv"
    with contextlib.nullcontext() if forked else one_core():
        tracemalloc.start()
        try:
            emit_csv(data, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(forks) == forked
    assert path.stat().st_size >= 8 * interdag.cli._CHUNK_CHARS
    assert ingest_csv(path).values.tobytes() == data.values.tobytes()
    assert peak <= 8 * interdag.cli._CHUNK_CHARS < data.values.nbytes


def test_fit_exact_sized_io_and_the_grid_never_fork_and_the_dp_fit_forks_once(tmp_path, capsys, forks):
    """At the size of the exact-search benchmark input (p=12, n=2000, 486 KB
    of CSV) the simulate and the CSV ingest run in one process, and so does
    an experiment grid, which writes no CSV; the exact search's fit scores
    its 23,772 sets with one forked child, and writes the bytes of a fit on
    one core."""
    sim = tmp_path / "sim"
    assert main(["simulate", "--p", "12", "--n", "2000", "--k", "3", "--replicates-per-target", "5",
                 "--seed", "7", "--out", str(sim)]) == 0
    ingest_csv(sim / "dataset.csv")
    assert main(["experiment", "--seed", "1", "--p", "6", "--replicates", "2", "--n-grid", "50,100",
                 "--workers", "1", "--out", str(tmp_path / "exp")]) == 0
    assert forks == []
    fit = ["fit", "--data", str(sim / "dataset.csv"), "--method", "dp", "--out"]
    assert main([*fit, str(tmp_path / "two")]) == 0
    assert_no_child_left()
    assert len(forks) == 1
    with one_core():
        assert main([*fit, str(tmp_path / "one")]) == 0
    assert len(forks) == 1
    for name in ("model.txt", "essential.txt", "fit.json"):
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


# in a process of its own, as the helper processes that spawn and forkserver
# pools start outlive the pool
_POOL_WORKER_CHECK = """
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from interdag._fork import _pool_worker
for method in multiprocessing.get_all_start_methods():
    with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context(method)) as pool:
        print(method, _pool_worker(), pool.submit(_pool_worker).result())
"""


def test_grid_workers_never_fork(tmp_path, capsys, forks):
    """A grid's pool workers own the cores: the fork helper, which starts a
    child here, knows a pool worker as one, whichever way the pool starts
    its workers, and starts none there; and a p=12 exact-search grid, whose
    fits fork with one worker, gives the same rows with two."""
    with interdag._fork._forked(True, lambda: iter([b"frame"])) as frames:
        assert next(frames) == b"frame"
    assert_no_child_left()
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(Path(interdag.__file__).parents[1]),
                                                        os.environ.get("PYTHONPATH", "")])}
    checked = subprocess.run([sys.executable, "-c", _POOL_WORKER_CHECK], env=env, capture_output=True,
                             text=True, check=True).stdout.splitlines()
    assert checked == [f"{method} False True" for method in multiprocessing.get_all_start_methods()]
    grid = ["experiment", "--seed", "3", "--p", "12", "--k", "0", "--method", "dp", "--replicates", "2",
            "--n-grid", "60", "--out"]
    assert main([*grid, str(tmp_path / "two"), "--workers", "2"]) == 0
    before = len(forks)
    assert main([*grid, str(tmp_path / "one"), "--workers", "1"]) == 0
    assert_no_child_left()
    assert len(forks) == before + 2
    for name in ("rows.csv", "medians.csv"):
        assert (tmp_path / "two" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()


# -- fit command ---------------------------------------------------------------------


def test_fit_writes_artifacts(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    _sample_csv(csv, seed=6, n=400)
    out = tmp_path / "fit"
    code = main(["fit", "--data", str(csv), "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "n=400 p=3 method=greedy" in text
    assert "edges=" in text and "bic=" in text
    for name in ("model.txt", "essential.txt", "trace.txt", "fit.json"):
        assert (out / name).exists()
    model = parse_model((out / "model.txt").read_text())
    assert model.p == 3
    graph = parse_essential_graph((out / "essential.txt").read_text(), 3)
    summary = json.loads((out / "fit.json").read_text())
    assert summary["n"] == 400 and summary["p"] == 3
    assert summary["directed_edges"] == len(graph.directed)


def test_fit_dp_method(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    _sample_csv(csv, seed=7, n=400)
    code = main(["fit", "--data", str(csv), "--method", "dp"])
    assert code == 0
    assert "method=dp" in capsys.readouterr().out


@dataclass(frozen=True)
class _QuotedSettings:
    grid: "tuple[float, ...]" = (1.0,)
    cap: "int | None" = None


def test_settings_flags_come_from_the_config_fields(tmp_path, capsys):
    # string annotations resolve as the evaluated ones do
    assert interdag.search._field_kinds(_QuotedSettings) == {"grid": (float, True, False), "cap": (int, False, True)}
    types = interdag.cli._setting_types(_QuotedSettings)
    assert types["cap"] is int
    assert types["grid"]("1, 2.5,") == (1.0, 2.5)
    assert [type(v) for v in types["grid"]("1")] == [float]
    parser = interdag.cli._build_parser()
    args = parser.parse_args(["fit", "--data", "d.csv"])
    assert (args.max_parents, args.max_steps, args.penalty_weight, args.method) == (None, 100_000, None, "greedy")
    args = parser.parse_args(["fit", "--data", "d.csv", "--max-parents", "2",
                              "--max-steps", "3", "--penalty-weight", "1.5", "--method", "dp"])
    assert (args.max_parents, args.max_steps, args.penalty_weight, args.method) == (2, 3, 1.5, "dp")
    args = parser.parse_args(["experiment", "--n-grid", "50, 100", "--mu-grid", "5,2.5", "--max-parents", "1"])
    assert (args.n_grid, args.mu_grid, args.max_parents, args.seed) == ((50, 100), (5.0, 2.5), 1, None)
    for argv in (["fit", "--data", "d.csv", "--method", "dp2"], ["experiment", "--seed", "1", "--method", "dp2"],
                 ["fit", "--data", "d.csv", "--method", "anneal"]):
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2
        assert f"invalid choice: '{argv[-1]}'" in capsys.readouterr().err
    # the flags reach the search: it stops after three of its nine steps,
    # so the trace has a start line and three steps
    assert main(["simulate", "--p", "8", "--n", "500", "--k", "3", "--replicates-per-target", "2",
                 "--seed", "1", "--out", str(tmp_path / "sim")]) == 0
    for steps, lines in (("100", 10), ("3", 4)):
        assert main(["fit", "--data", str(tmp_path / "sim" / "dataset.csv"), "--max-parents", "2",
                     "--max-steps", steps, "--penalty-weight", "1.5", "--out", str(tmp_path / steps)]) == 0
        assert len((tmp_path / steps / "trace.txt").read_text().splitlines()) == lines


def test_fit_rejects_a_bad_search_flag_before_reading_the_data(tmp_path, capsys, monkeypatch):
    reads = []

    def recorded_ingest(path):
        reads.append(path)
        raise DataError("not read")

    monkeypatch.setattr(interdag.cli, "ingest_csv", recorded_ingest)
    csv = str(tmp_path / "d.csv")
    assert main(["fit", "--data", csv, "--max-steps", "-1"]) == 2
    assert "max_steps" in capsys.readouterr().err
    assert reads == []
    # with a valid flag the data is read
    assert main(["fit", "--data", csv, "--max-steps", "1"]) == 3
    assert reads == [csv]


def test_fit_missing_file_is_a_data_error(tmp_path, capsys):
    code = main(["fit", "--data", str(tmp_path / "none.csv")])
    assert code == 3
    assert "error:" in capsys.readouterr().err


def test_fit_on_a_non_utf8_csv_is_a_data_error(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    csv.write_bytes(b"target,x1,x2\n,1,2\n,1\xff,2\n")
    assert main(["fit", "--data", str(csv)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {csv}: ") and "0xff" in err


def test_fit_on_rows_all_targeting_one_vertex_is_a_data_error(tmp_path, capsys):
    csv = tmp_path / "d.csv"
    csv.write_text("target,x1,x2\n" + "1,0.5,1.5\n1,-0.25,0.75\n1,2,-1\n")
    code = main(["fit", "--data", str(csv)])
    assert code == 3
    assert "not conservative: vertices [1] lie in every target" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["greedy", "dp"])
def test_fit_on_moments_that_overflow_is_a_data_error(tmp_path, capsys, method):
    # x1 is 1e200 in the rows that target it: its square overflows in the
    # moment of target 1, which every other vertex's mixture includes
    rng = np.random.default_rng(5)
    lines = ["target,x1,x2,x3"]
    lines += [",".join(["", *map(repr, rng.normal(size=3).tolist())]) for _ in range(40)]
    lines += [",".join(["1", "1e200", *map(repr, rng.normal(size=2).tolist())]) for _ in range(10)]
    csv = tmp_path / "d.csv"
    csv.write_text("\n".join(lines) + "\n")
    assert main(["fit", "--data", str(csv), "--method", method]) == 3
    assert "error: vertices [2, 3] have exclusion mixtures that are not finite" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["greedy", "dp"])
def test_fit_on_header_only_csv_is_a_data_error(tmp_path, capsys, method):
    csv = tmp_path / "d.csv"
    csv.write_text("target,x1,x2\n")
    code = main(["fit", "--data", str(csv), "--method", method])
    assert code == 3
    assert "has no rows" in capsys.readouterr().err
    with pytest.raises(DataError, match="has no rows"):
        run_fit(ingest_csv(csv), config=SearchConfig(method=method))


def test_fit_dp_capacity_exit_code(tmp_path, capsys):
    rng = np.random.default_rng(0)
    p = 21
    lines = ["target," + ",".join(f"x{i}" for i in range(1, p + 1))]
    for row in rng.normal(size=(25, p)):
        lines.append("," + ",".join(f"{v:.6f}" for v in row))
    csv = tmp_path / "wide.csv"
    csv.write_text("\n".join(lines) + "\n")
    out = tmp_path / "out"
    code = main(["fit", "--data", str(csv), "--method", "dp", "--out", str(out)])
    assert code == 4
    assert "error:" in capsys.readouterr().err
    # --out is created before the search, so the failed fit leaves it empty
    assert out.is_dir() and not any(out.iterdir())


@pytest.mark.parametrize("method", ["greedy", "dp"])
def test_fit_beyond_physical_memory_exit_code(tmp_path, capsys, monkeypatch, method):
    # the mixtures are refused before they are allocated
    csv = tmp_path / "d.csv"
    _sample_csv(csv)
    monkeypatch.setattr(interdag.likelihood, "_physical_memory", lambda: 100)
    code = main(["fit", "--data", str(csv), "--method", method])
    assert code == 4
    assert "error: the mixtures of 2 exclusion patterns over p=3 vertices need 144 bytes, more than the 100 bytes" in capsys.readouterr().err


# -- simulate command ------------------------------------------------------------------


def test_simulate_writes_three_files(tmp_path, capsys):
    out = tmp_path / "sim"
    code = main([
        "simulate", "--p", "5", "--n", "40", "--k", "2",
        "--replicates-per-target", "3", "--seed", "77", "--out", str(out),
    ])
    assert code == 0
    data = ingest_csv(out / "dataset.csv")
    assert data.n == 40 and data.p == 5
    observed = {t for t, _ in data.rows()}
    assert InterventionTarget.empty() in observed
    assert sum(1 for t in observed if len(t) == 1) == 2
    model = parse_model((out / "model.txt").read_text())
    assert model.p == 5
    parse_essential_graph((out / "essential.txt").read_text(), 5)


def test_simulate_large_class_exits_zero(tmp_path, capsys):
    # the true graph's class here is too large to list, but its essential
    # graph needs no listing
    out = tmp_path / "sim"
    assert main(["simulate", "--p", "100", "--seed", "42", "--out", str(out)]) == 0
    graph = parse_essential_graph((out / "essential.txt").read_text(), 100)
    assert graph.undirected
    assert "wrote 1000 rows over 100 columns" in capsys.readouterr().out


def test_simulate_without_observational_rows_essential_bytes_pinned(tmp_path):
    # every row targets one of five vertices: the true graph's family holds
    # no empty target, which orients nothing
    out = tmp_path / "sim"
    assert main(["simulate", "--p", "10", "--n", "10", "--k", "5",
                 "--replicates-per-target", "2", "--seed", "4", "--out", str(out)]) == 0
    assert InterventionTarget.empty() not in ingest_csv(out / "dataset.csv").observed_targets()
    digest = hashlib.sha256((out / "essential.txt").read_bytes()).hexdigest()
    assert digest == "afdd2b0e592fe6c955cada071c1681fd5d0dac499235375479688ffafdd8de57"


def test_simulate_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["simulate", "--p", "4", "--n", "30", "--k", "1",
                     "--seed", "3", "--out", str(out)]) == 0
    assert (a / "dataset.csv").read_bytes() == (b / "dataset.csv").read_bytes()
    assert (a / "model.txt").read_bytes() == (b / "model.txt").read_bytes()


def test_simulate_rejects_overfull_grid(tmp_path, capsys):
    code = main(["simulate", "--p", "4", "--n", "5", "--k", "3",
                 "--replicates-per-target", "2", "--seed", "1",
                 "--out", str(tmp_path / "x")])
    assert code == 2


@pytest.mark.parametrize(
    "flags",
    [
        ["--k", "5"],  # more targets than vertices
        ["--k", "-1"],
        ["--n", "0"],
        ["--k", "2", "--replicates-per-target", "0"],
        ["--k", "1", "--replicates-per-target", "4", "--n", "4"],  # no observational rows, one target
        ["--tau", "0"],
        ["--seed", "-1"],
    ],
)
def test_simulate_rejects_what_an_experiment_grid_rejects(tmp_path, capsys, flags):
    args = {"--p": "3", "--seed": "1", "--out": str(tmp_path / "x")}
    args.update(zip(flags[::2], flags[1::2]))
    code = main(["simulate", *(part for item in args.items() for part in item)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "1", "--p", "4", "--k", "2", "--tau", "1e200"],
        ["experiment", "--seed", "1", "--replicates", "1", "--p", "4", "--k", "2", "--n-grid", "50", "--tau", "1e160"],
    ],
)
def test_tau_whose_square_overflows_is_a_parameter_error(tmp_path, capsys, argv):
    # tau is finite, but the intervention variance tau**2 is not
    code = main([*argv, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error: tau must have a finite square" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "1", "--p", "4", "--k", "2", "--tau", "1e-200"],
        ["experiment", "--seed", "1", "--replicates", "1", "--p", "4", "--k", "2", "--n-grid", "50", "--tau", "1e-170"],
    ],
)
def test_tau_whose_square_underflows_is_a_parameter_error(tmp_path, capsys, argv):
    # tau is positive, but the intervention variance tau**2 is 0.0
    code = main([*argv, "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error: tau must have a positive square, got 1e-" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "1", "--p", "4", "--k", "2", "--mu"],
        ["simulate", "--seed", "1", "--p", "4", "--k", "0", "--mu"],
        ["experiment", "--seed", "1", "--replicates", "1", "--p", "4", "--k", "2", "--n-grid", "50", "--mu-grid"],
        ["experiment", "--seed", "1", "--replicates", "1", "--p", "4", "--k", "0", "--n-grid", "50", "--mu-grid"],
    ],
)
def test_non_finite_mu_is_a_parameter_error(tmp_path, capsys, argv, value):
    # with no targets as well, where no row would use mu
    code = main([*argv, value, "--out", str(tmp_path / "x")])
    assert code == 2
    assert f"error: mu must be finite, got {value}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("value", ["1e300", "1e160"])
@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seed", "1", "--p", "4", "--k", "2", "--n", "50", "--mu"],
        ["experiment", "--seed", "1", "--replicates", "1", "--p", "4", "--k", "2", "--n-grid", "50", "--mu-grid"],
    ],
)
def test_mu_whose_square_overflows_is_a_parameter_error(tmp_path, capsys, argv, value):
    # mu is finite, but the squares of the rows drawn around it are not, so
    # the data would be rejected only when fitted
    code = main([*argv, value, "--out", str(tmp_path / "x")])
    assert code == 2
    assert f"error: mu must have a finite square, got {float(value)!r}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


_WIDE = ["--p", "4", "--k", "2", "--replicates-per-target", "200", "--seed", "1"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", *_WIDE, "--n", "1000", "--mu", "1e153"], "mu must have a finite square, got 1e+153"),
        (["simulate", *_WIDE, "--n", "1000", "--mu", "0", "--tau", "1e153"],
         "tau must have a finite square, got 1e+153"),
        (["experiment", *_WIDE, "--n-grid", "1000", "--replicates", "1", "--mu-grid", "1e153"],
         "mu must have a finite square, got 1e+153"),
    ],
    ids=["simulate-mu", "simulate-tau", "experiment-mu"],
)
def test_values_whose_moments_would_overflow_are_a_parameter_error(tmp_path, capsys, argv, message):
    # mu and tau have finite squares, but 200 targeted rows of values around
    # them do not have finite second moments: refused before --out is made
    code = main([*argv, "--out", str(tmp_path / "x")])
    assert code == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_values_whose_moments_stay_finite_simulate_and_fit(tmp_path, capsys):
    assert main(["simulate", *_WIDE, "--n", "1000", "--mu", "1e150", "--out", str(tmp_path / "sim")]) == 0
    assert main(["fit", "--data", str(tmp_path / "sim" / "dataset.csv")]) == 0
    # the default grid is within the bound
    config = ExperimentConfig(seed=1)
    assert (config.n_grid, config.mu_grid, config.tau) == ((100, 1000, 10000), (10.0,), 0.2)


def test_experiment_dp_beyond_the_vertex_limit_is_refused_before_the_grid_runs(tmp_path, capsys):
    code = main(["experiment", "--method", "dp", "--p", "21", "--seed", "1", "--replicates", "1",
                 "--n-grid", "100", "--out", str(tmp_path / "x")])
    assert code == 4
    assert "error: exact search supports at most 20 vertices, got 21" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_experiment_search_flag_is_checked_before_the_grid_runs(tmp_path, capsys):
    # no output directory and no worker pool: the config fails when built
    code = main(["experiment", "--seed", "1", "--max-parents", "-1", "--workers", "2",
                 "--out", str(tmp_path / "x")])
    assert code == 2
    assert "error: max_parents must be non-negative" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


# -- experiment command ----------------------------------------------------------------

_TINY = [
    "--p", "4", "--n-grid", "50", "--k", "1", "--replicates-per-target", "2",
    "--mu-grid", "5", "--replicates", "2", "--seed", "9",
]


def test_experiment_tiny_grid(tmp_path, capsys):
    out = tmp_path / "exp"
    code = main(["experiment", *_TINY, "--out", str(out)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "n=50 mu=5 replicates=2 median_shd=" in stdout
    rows = (out / "rows.csv").read_text().splitlines()
    assert rows[0].startswith("p,expected_degree,k,")
    assert len(rows) == 3
    shds = [int(line.split(",")[9]) for line in rows[1:]]
    assert all(0 <= s <= 6 for s in shds)
    medians = (out / "medians.csv").read_text().splitlines()
    assert medians[0] == "n,mu,replicates,median_shd,exact_fraction"
    med = float(medians[1].split(",")[3])
    assert med == sorted(shds)[0] / 2 + sorted(shds)[1] / 2
    assert (out / "timings.csv").exists()


def test_experiment_bit_identical_across_runs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["experiment", *_TINY, "--out", str(out)]) == 0
    assert (a / "rows.csv").read_bytes() == (b / "rows.csv").read_bytes()
    assert (a / "medians.csv").read_bytes() == (b / "medians.csv").read_bytes()


def test_experiment_config_file_matches_flags(tmp_path):
    inputs = [
        ("# tiny grid\np = 4\nn_grid = 50\nk = 1\nreplicates_per_target = 2\n"
         "mu_grid = 5\nreplicates = 2\nseed = 9\n", _TINY),
        # multi-valued grids, an optional integer and a string
        ("p = 5\nn_grid = 40, 60\nmu_grid = 5,2.5\nk = 2\nreplicates = 2\n"
         "max_parents = 1\nmethod = dp\nseed = 3\n",
         ["--p", "5", "--n-grid", "40,60", "--mu-grid", "5, 2.5", "--k", "2", "--replicates", "2",
          "--max-parents", "1", "--method", "dp", "--seed", "3"]),
    ]
    for i, (text, flags) in enumerate(inputs):
        cfg = tmp_path / f"exp{i}.cfg"
        cfg.write_text(text)
        a, b = tmp_path / f"a{i}", tmp_path / f"b{i}"
        assert main(["experiment", "--config", str(cfg), "--out", str(a)]) == 0
        assert main(["experiment", *flags, "--out", str(b)]) == 0
        for name in ("rows.csv", "medians.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()
    rows = (tmp_path / "a1" / "rows.csv").read_text().splitlines()
    assert len(rows) == 1 + 2 * 2 * 2 and {line.split(",")[5] for line in rows[1:]} == {"dp"}


def test_experiment_cli_flag_overrides_config(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("p = 4\nn_grid = 50\nk = 1\nreplicates_per_target = 2\n"
                   "mu_grid = 5\nreplicates = 2\nseed = 9\n")
    out = tmp_path / "o"
    assert main(["experiment", "--config", str(cfg), "--replicates", "3",
                 "--out", str(out)]) == 0
    rows = (out / "rows.csv").read_text().splitlines()
    assert len(rows) == 4  # header plus three replicates


def test_experiment_rejects_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("p = 4\nbananas = 2\nseed = 1\n")
    code = main(["experiment", "--config", str(cfg)])
    assert code == 2
    assert "line 2" in capsys.readouterr().err


def test_experiment_rejects_duplicate_config_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("p = 4\nseed = 1\n# p = 6\np = 5\n")
    assert main(["experiment", "--config", str(cfg)]) == 2
    assert f"{cfg}: line 4: duplicate key 'p'" in capsys.readouterr().err


def test_experiment_rejects_a_non_utf8_config(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_bytes(b"p = 4\nseed = 1\xff\n")
    assert main(["experiment", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config {cfg}: ") and "0xff" in err


@pytest.mark.parametrize("command", ["fit", "simulate", "experiment"])
def test_unwritable_out_is_a_parameter_error(tmp_path, capsys, monkeypatch, command):
    """An --out below a regular file exits 2, naming the path and the
    reason; the experiment finds out before its grid runs."""
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    if command == "fit":
        csv = tmp_path / "d.csv"
        _sample_csv(csv, seed=6, n=100)
        argv = ["fit", "--data", str(csv)]
    elif command == "simulate":
        argv = ["simulate", "--p", "4", "--n", "100", "--seed", "1"]
    else:
        monkeypatch.setattr(interdag.experiments, "_run_replicate", lambda job: pytest.fail("the grid ran"))
        argv = ["experiment", *_TINY]
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: Not a directory\n"


@pytest.mark.parametrize("method", ["greedy", "dp"])
def test_fit_finds_an_unwritable_out_before_the_search(tmp_path, capsys, monkeypatch, method):
    csv = tmp_path / "d.csv"
    _sample_csv(csv, seed=6, n=100)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    for search in ("greedy_search", "exhaustive_dp"):
        monkeypatch.setattr(interdag.experiments, search, lambda *args: pytest.fail("the search ran"))
    assert main(["fit", "--data", str(csv), "--method", method, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: cannot write {out}: Not a directory\n"


def test_experiment_requires_seed(capsys):
    code = main(["experiment", "--p", "4", "--replicates", "1"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_experiment_rejects_n_below_interventional_rows(capsys):
    code = main(["experiment", "--p", "4", "--n-grid", "4", "--k", "3",
                 "--replicates-per-target", "2", "--replicates", "1", "--seed", "1"])
    assert code == 2


@pytest.mark.parametrize(
    "text, message",
    [
        ("seed = 1\np 4\n", "{cfg}: line 2: expected 'key = value', got 'p 4'"),
        ("seed = 1\np = x\n", "{cfg}: line 2: bad value for p: 'x' (invalid literal for int() with base 10: 'x')"),
    ],
    ids=["no-equals", "bad-value"],
)
def test_config_file_errors_name_their_cause(tmp_path, text, message):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(text)
    with pytest.raises(ParameterError) as info:
        interdag.cli._read_config_file(cfg)
    assert str(info.value) == message.format(cfg=cfg)


_HUGE_N = "1" + "0" * 400
_GRID4 = ["experiment", "--seed", "1", "--p", "4", "--k", "1", "--replicates", "1", "--n-grid"]


@pytest.mark.parametrize(
    "argv, n, k",
    [
        ([*_GRID4, str(10**15)], str(10**15), 1),
        ([*_GRID4, _HUGE_N], _HUGE_N, 1),
        (["simulate", "--p", "4", "--n", _HUGE_N, "--seed", "1"], _HUGE_N, 0),
    ],
    ids=["experiment-1e15", "experiment-401-digits", "simulate-401-digits"],
)
def test_dataset_beyond_physical_memory_exits_4_before_out(tmp_path, capsys, monkeypatch, argv, n, k):
    # 2**40 bytes: less than sampling 10**15 rows of 4 values holds, whatever
    # this machine holds: 17 bytes per value and 32 per row, a mean and root
    # of 4 + 16 floats for each of the observational and k targets, 2048
    # bytes per target for its Python objects and 16 KiB for the draw's
    monkeypatch.setattr(interdag.likelihood, "_physical_memory", lambda: 2**40)
    code = main([*argv, "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 4
    assert err == (f"error: the arrays that sampling n={n} rows over p=4 vertices holds need "
                   f"{int(n) * 100 + (k + 1) * 160 + k * 2048 + 16384} bytes, more than the {2**40} bytes "
                   "of physical memory\n")
    assert not (tmp_path / "x").exists()


def test_fully_targeted_simulate_is_checked_for_two_roots(tmp_path, capsys, monkeypatch):
    # sampling holds the observational mean and root and the one target's
    # being drawn, so p=100 with every vertex targeted needs 500 rows of 17
    # bytes per value and 32 per row, two means and roots of 100 + 10,000
    # floats, 2048 bytes per target and 16 KiB for the draw: 1,248,784
    # bytes, where one root per target would count 9,247,984
    needed = 500 * (17 * 100 + 32) + 2 * 101 * 100 * 8 + 100 * 2048 + 16384
    argv = ["simulate", "--p", "100", "--n", "500", "--k", "100", "--replicates-per-target", "5", "--seed", "1"]
    monkeypatch.setattr(interdag.likelihood, "_physical_memory", lambda: needed - 1)
    assert main([*argv, "--out", str(tmp_path / "x")]) == 4
    assert capsys.readouterr().err == (
        f"error: the arrays that sampling n=500 rows over p=100 vertices holds need {needed} bytes, "
        f"more than the {needed - 1} bytes of physical memory\n")
    monkeypatch.setattr(interdag.likelihood, "_physical_memory", lambda: needed)
    assert main([*argv, "--out", str(tmp_path / "x")]) == 0
    assert (tmp_path / "x" / "dataset.csv").read_text(encoding="utf-8").count("\n") == 501


def test_simulate_n_beyond_a_float_exits_2_where_memory_is_unknown(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(interdag.likelihood, "_physical_memory", lambda: None)
    code = main(["simulate", "--p", "4", "--n", _HUGE_N, "--seed", "1", "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: n must not exceed the largest float, got {_HUGE_N}\n"
    assert "Traceback" not in err
    assert not (tmp_path / "x").exists()
