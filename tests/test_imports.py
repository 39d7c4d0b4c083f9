"""What the package exports, what importing it loads, and where the kernel's
LAPACK comes from.

Core claims:
    - ``interdag.__all__`` is the 61 pinned names, each declared in exactly
      one module's ``__all__``, and every name of every module's ``__all__``
      resolves.
    - ``import interdag.cli`` in a fresh interpreter loads neither
      ``scipy`` nor ``scipy.linalg`` (nor the ``numpy.f2py`` it brings in)
      nor the process-pool machinery, which only ``--workers`` above 1
      uses, nor ``numpy.random`` with the ``secrets`` and ``hashlib`` (and
      OpenSSL) it loads, which only a command that draws uses, nor
      ``statistics``.
    - The kernel's ``dposv`` and ``dtrtri`` are the very objects
      ``scipy.linalg.lapack`` exports, whichever of the two is imported
      first, so loading them directly cannot change a bit of any score.
    - When scipy has no ``linalg/_flapack`` extension the import fails with
      an ImportError that names the directory searched.
"""

import importlib.machinery
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import interdag
import interdag.cli
import interdag.likelihood

# floors: the kernel finds scipy's _flapack and loads dposv and dtrtri from
# it on the oldest scipy pyproject.toml admits too
pytestmark = pytest.mark.floors

SRC = Path(__file__).resolve().parent.parent / "src"


def _run_fresh(code: str) -> str:
    """stdout of ``code`` run by a fresh interpreter with ``src`` on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


PUBLIC = [
    "CapacityError", "ConfusionCounts", "Dag", "DataError", "Dataset", "DegenerateFitError",
    "EssentialGraph", "ExperimentConfig", "FittedModel", "GaussianCausalModel", "InterdagError",
    "InterventionSpec", "InterventionTarget", "LocalScoreCache", "LocalStats", "NaturalParams",
    "ParameterError", "ResultRow", "SearchConfig", "SearchTrace", "Skeleton", "SufficientStats",
    "TargetFamily", "TraceStep", "VStructure", "adjacency", "bic_score",
    "decomposed_log_likelihood", "derive_seed", "directed_confusion", "enumerate_class",
    "essential_graph", "estimate_essential_graph", "exhaustive_dp", "fit_structure",
    "format_essential_graph", "format_model", "format_trace", "greedy_search", "intervention_dag",
    "interventional_moments", "local_score", "local_stats", "log_likelihood",
    "markov_equivalent_interventional", "mle_given_dag", "natural_params",
    "observational_covariance", "parse_essential_graph", "parse_model",
    "run_consistency_experiment", "run_fit", "same_essential_graph", "sample_dataset",
    "sample_normalized_model", "sample_random_dag", "shd", "skeleton", "skeleton_confusion",
    "sufficient_stats", "v_structures",
]
MODULES = ["errors", "model", "likelihood", "equivalence", "search", "metrics", "experiments", "cli"]


def test_package_exports_each_module_name_once():
    assert sorted(interdag.__all__) == PUBLIC
    declared = {}
    for name in MODULES:
        module = getattr(interdag, name)
        for public in module.__all__:
            assert public not in declared, f"{public} is in {declared[public]} and {name}"
            declared[public] = name
            assert hasattr(module, public), f"{name}.{public} does not resolve"
            if name != "cli":
                assert getattr(interdag, public) is getattr(module, public)
    assert sorted(declared) == sorted(PUBLIC + interdag.cli.__all__)


def test_cli_import_leaves_out_scipy_linalg_f2py_and_process_pools():
    names = ["scipy", "scipy.linalg", "numpy.f2py", "concurrent.futures.process", "numpy.random", "secrets",
             "hashlib", "statistics"]
    out = _run_fresh(
        "import sys, interdag.cli\n"
        f"for name in {names!r}:\n"
        "    print(name, name in sys.modules)\n"
    )
    assert out.split("\n")[:-1] == [f"{name} False" for name in names]


@pytest.mark.parametrize("interdag_first", [True, False])
def test_kernel_lapack_routines_are_scipys(interdag_first):
    imports = ["import interdag.likelihood as kernel", "import scipy.linalg.lapack as lapack"]
    if not interdag_first:
        imports.reverse()
    out = _run_fresh(
        "\n".join(imports)
        + "\nprint(kernel.dposv is lapack.dposv, kernel.dtrtri is lapack.dtrtri)\n"
    )
    assert out == "True True\n"


def test_missing_flapack_names_the_directory_searched(monkeypatch, tmp_path):
    found = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    found.submodule_search_locations.append(str(tmp_path))
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: found if name == "scipy" else None)
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        interdag.likelihood._load_flapack()
