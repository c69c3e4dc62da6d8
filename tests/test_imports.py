"""Start-up cost: the LP-file solver child and the CLI load NumPy and
SciPy's HiGHS binding, but neither ``scipy.optimize`` nor ``scipy.sparse``,
and the binding the package loads is the one SciPy uses.

Each check runs in a fresh interpreter, since this one has imported SciPy
already.
"""

import subprocess
import sys

import pytest


def run_fresh(code: str) -> str:
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("module", ["cltlsynth.lp_cli", "cltlsynth.cli"])
def test_entry_points_import_only_the_highs_binding_of_scipy(module):
    loaded = run_fresh(f"import sys, {module}\n"
                       "from cltlsynth import solver\n"
                       "print(solver._Highs.__module__, *sorted(sys.modules))").split()
    binding, loaded = loaded[0], loaded[1:]
    assert module in loaded and binding in loaded
    assert "scipy.optimize" not in loaded and "scipy.sparse" not in loaded
    assert [name for name in loaded
            if name.split(".")[0] == "scipy" and not name.startswith(binding)] == []


@pytest.mark.parametrize("imports", [
    "import scipy.optimize\nfrom cltlsynth import solver\n",
    "from cltlsynth import solver\nimport scipy.optimize\n",
], ids=["scipy-first", "solver-first"])
def test_solver_and_scipy_share_one_binding(imports):
    out = run_fresh(imports +
                    "from scipy.optimize._highspy._core import _Highs\n"
                    "from scipy.optimize._highspy import _highs_wrapper\n"
                    "print(solver._Highs is _Highs is _highs_wrapper._h._Highs,\n"
                    "      solver._core is _highs_wrapper._h)\n"
                    "res = scipy.optimize.milp([0, 0], integrality=[1, 1],\n"
                    "    bounds=scipy.optimize.Bounds([0, 0], [1, 1]),\n"
                    "    constraints=scipy.optimize.LinearConstraint([[1, 1]], 1, 1))\n"
                    "print(res.status, sum(res.x))")
    assert out.split() == ["True", "True", "0", "1.0"]


@pytest.mark.parametrize("hide", [
    "sys.modules['scipy'] = None",  # SciPy not installed
    "importlib.machinery.EXTENSION_SUFFIXES[:] = ['.none']",  # no binding file
], ids=["no-scipy", "no-binding"])
def test_a_missing_binding_names_the_scipy_floor(hide):
    out = run_fresh("import importlib.machinery, sys\nimport numpy\n" + hide + "\n"
                    "try:\n"
                    "    import cltlsynth.solver\n"
                    "except ImportError as exc:\n"
                    "    print(exc)\n")
    assert "HiGHS binding" in out and "scipy>=1.17.1" in out
