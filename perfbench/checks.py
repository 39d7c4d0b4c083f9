"""Output checks for the benchmark's operations, independent of interdag's code.

Every check returns a list of problems; an empty list means the output is
accepted.  Outputs are compared with the expectations recorded in
``expected.json`` when the seed has a record, and always checked for
internal consistency: the essential graph must agree with the fitted DAG,
the summary counts with the edge lists, and ``medians.csv`` with ``rows.csv``.
"""

import hashlib
import json
import math
import statistics
from pathlib import Path

BIC_RELATIVE_TOLERANCE = 1e-9

_FMT = "{:.17g}".format


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def parse_edges(text: str) -> dict[tuple[int, int], str]:
    """Edge status per unordered pair: ``"->"``, ``"<-"`` or ``"--"``.

    Reads both ``essential.txt`` (``a -> b`` / ``a -- b``) and the edge lines
    of ``model.txt`` (``a -> b : weight``).
    """
    edges = {}
    for raw in text.splitlines():
        line = raw.split(":", 1)[0].strip()
        for mark in ("->", "--"):
            if mark in line:
                a, b = (int(part) for part in line.split(mark))
                pair = (min(a, b), max(a, b))
                if pair in edges:
                    raise ValueError(f"pair {pair} listed twice")
                edges[pair] = "--" if mark == "--" else ("->" if a < b else "<-")
                break
    return edges


def shd(truth: dict, estimate: dict) -> int:
    """Structural Hamming distance: pairs whose edge status differs."""
    return sum(1 for pair in set(truth) | set(estimate) if truth.get(pair) != estimate.get(pair))


def fit_record(out: Path) -> dict:
    """What a fit's output is compared on."""
    summary = json.loads((out / "fit.json").read_text(encoding="utf-8"))
    return {
        "essential_sha256": sha256(out / "essential.txt"),
        "edges": summary["edges"],
        "directed_edges": summary["directed_edges"],
        "undirected_edges": summary["undirected_edges"],
        "bic": summary["bic"],
    }


def experiment_record(out: Path) -> dict:
    return {"rows_sha256": sha256(out / "rows.csv"), "medians_sha256": sha256(out / "medians.csv")}


def check_fit(out: Path, expected: dict | None) -> list[str]:
    """Problems with one ``interdag fit`` output directory."""
    try:
        essential = parse_edges((out / "essential.txt").read_text(encoding="utf-8"))
        fitted = parse_edges((out / "model.txt").read_text(encoding="utf-8"))
        record = fit_record(out)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable fit output: {exc}"]
    problems = []
    if set(essential) != set(fitted):
        problems.append("essential graph and fitted DAG have different skeletons")
    for pair, status in essential.items():
        if status != "--" and fitted.get(pair) != status:
            problems.append(f"edge {pair} is oriented {status} in essential.txt against the fitted DAG")
    directed = sum(1 for s in essential.values() if s != "--")
    if (record["edges"], record["directed_edges"], record["undirected_edges"]) != (
        len(essential), directed, len(essential) - directed,
    ):
        problems.append("fit.json edge counts disagree with essential.txt")
    if not math.isfinite(record["bic"]):
        problems.append(f"bic is not finite: {record['bic']!r}")
    if expected is not None:
        for key in ("essential_sha256", "edges", "directed_edges", "undirected_edges"):
            if record[key] != expected[key]:
                problems.append(f"{key} is {record[key]!r}, recorded {expected[key]!r}")
        scale = max(abs(expected["bic"]), 1e-300)
        if not abs(record["bic"] - expected["bic"]) <= BIC_RELATIVE_TOLERANCE * scale:
            problems.append(f"bic is {record['bic']!r}, recorded {expected['bic']!r}")
    return problems


def medians_text(rows_text: str) -> str:
    """``medians.csv`` as it must follow from ``rows.csv``."""
    lines = rows_text.splitlines()
    header = lines[0].split(",")
    col = {name: header.index(name) for name in ("n", "mu", "shd", "exact")}
    cells: dict[tuple[int, float], list[tuple[int, bool]]] = {}
    for line in lines[1:]:
        cell = line.split(",")
        key = (int(cell[col["n"]]), float(cell[col["mu"]]))
        cells.setdefault(key, []).append((int(cell[col["shd"]]), cell[col["exact"]] == "1"))
    out = ["n,mu,replicates,median_shd,exact_fraction"]
    for (n, mu), group in sorted(cells.items()):
        med = statistics.median(s for s, _ in group)
        frac = sum(1 for _, exact in group if exact) / len(group)
        out.append(f"{n},{_FMT(mu)},{len(group)},{_FMT(float(med))},{_FMT(frac)}")
    return "\n".join(out) + "\n"


def row_shds(rows_text: str) -> list[int]:
    lines = rows_text.splitlines()
    idx = lines[0].split(",").index("shd")
    return [int(line.split(",")[idx]) for line in lines[1:]]


def check_experiment(out: Path, expected: dict | None) -> list[str]:
    """Problems with one ``interdag experiment`` output directory."""
    try:
        rows = (out / "rows.csv").read_text(encoding="utf-8")
        medians = (out / "medians.csv").read_text(encoding="utf-8")
        derived = medians_text(rows)
        record = experiment_record(out)
    except (OSError, ValueError, IndexError) as exc:
        return [f"unreadable experiment output: {exc}"]
    problems = []
    if medians != derived:
        problems.append("medians.csv does not follow from rows.csv")
    if expected is not None:
        for key in ("rows_sha256", "medians_sha256"):
            if record[key] != expected[key]:
                problems.append(f"{key} differs from the recorded output")
    return problems


def load_expected(path: Path, workload: str, seed: int) -> dict | None:
    """The recorded expectation for a workload and seed, if there is one."""
    if not path.is_file():
        return None
    return json.loads(path.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
