"""What importing the package loads, and where the kernel's LAPACK comes from.

Core claims:
    - ``import interdag.cli`` in a fresh interpreter loads neither
      ``scipy.linalg`` (nor the ``numpy.f2py`` it brings in) nor the
      process-pool machinery, which only ``--workers`` above 1 uses.
    - The kernel's ``dposv`` and ``dtrtri`` are the very objects
      ``scipy.linalg.lapack`` exports, whichever of the two is imported
      first, so loading them directly cannot change a bit of any score.
    - When scipy has no ``linalg/_flapack`` extension the import fails with
      an ImportError that names the directory searched.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

import interdag.likelihood

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


def test_cli_import_leaves_out_scipy_linalg_f2py_and_process_pools():
    out = _run_fresh(
        "import sys, interdag.cli\n"
        "for name in ('scipy.linalg', 'numpy.f2py', 'concurrent.futures.process'):\n"
        "    print(name, name in sys.modules)\n"
    )
    assert out.split("\n")[:-1] == [
        "scipy.linalg False",
        "numpy.f2py False",
        "concurrent.futures.process False",
    ]


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
    monkeypatch.setattr(scipy, "__file__", str(tmp_path / "__init__.py"))
    with pytest.raises(ImportError, match=re.escape(str(tmp_path / "linalg"))):
        interdag.likelihood._load_flapack()
