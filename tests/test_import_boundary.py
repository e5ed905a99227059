"""Which parts of scipy each command loads, each run in a fresh
interpreter: importing the package loads none, the commands that compute
nothing with scipy load none, and only the parametric fit loads
``scipy.optimize`` and, through it, ``scipy.linalg``: region masses need
only ``scipy.special``.  In every run a forked simulation worker refuses a
task that imports any module its parent had not loaded, so neither the
deferred scipy imports nor numpy's lazy ``numpy.random`` run first in a
worker."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import quakeval

SRC = Path(quakeval.__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"
CATALOG = ["--earthquakes", str(DATA / "earthquakes.csv"), "--region", "0,200,0,200",
           "--record-start", "0", "--record-end", "1000"]
PREDICTIONS = ["--predictions", str(DATA / "predictions_mixed.csv"),
               "--polygons", str(DATA / "predictions_mixed.regions.json")]

# Runs the commands given as JSON in argv[1] and prints their exit codes
# and the scipy modules loaded in this process.
PROBE = """
import json, sys
from quakeval import mc
from quakeval.cli import run
range_worker = mc._range_worker

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

def checked(task, first, stop, conn):
    loaded = set(sys.modules)

    def importing_nothing(a, b):
        result = task(a, b)
        if set(sys.modules) - loaded:
            raise mc.QuakevalError(f"a worker imported {sorted(set(sys.modules) - loaded)}")
        return result
    range_worker(importing_nothing, first, stop, conn)

mc._range_worker = checked
codes = [run(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps([codes, scipy_modules()]))
"""


def _scipy_modules(*commands: list) -> list:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", PROBE, json.dumps(commands)], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    codes, modules = json.loads(done.stdout.splitlines()[-1])
    assert codes == [0] * len(commands), done.stderr
    return modules


def _commands(name: str, out: Path) -> list:
    """The command lines of one case, each writing its report under ``out``."""
    model = str(out / "model.json")
    fit_kde = ["fit-density", *CATALOG, "--kind", "kde", "--model-out", model]
    simulate = ["simulate", "--replicates", "40", "--span", "1000"]
    commands = {
        "filter-aftershocks": [["filter-aftershocks", *CATALOG, "--time-window", "10",
                                "--distance-window", "20",
                                "--filtered-out", str(out / "kept.csv")]],
        "precursor": [["precursor", *CATALOG, *PREDICTIONS]],
        "simulate-delays": [[*simulate, "--mode", "delays", "--n-events", "50",
                             "--m-signals", "5", "--suppression-window", "5"]],
        "simulate-significance-uniform": [[*simulate, "--mode", "significance",
                                           "--n-events", "100", "--region", "0,200,0,200",
                                           *PREDICTIONS]],
        "significance": [["significance", *CATALOG, *PREDICTIONS, "--exact"]],
        "enhancement": [["enhancement", *CATALOG, *PREDICTIONS]],
        # under a kernel model every alarm circle goes through the circle rule
        "significance-kde": [fit_kde, ["significance", *CATALOG, *PREDICTIONS, "--exact",
                                       "--density", model]],
        "enhancement-kde": [fit_kde, ["enhancement", *CATALOG, *PREDICTIONS,
                                      "--density", model]],
        # the kernel model's masses need scipy.special before the fork
        "simulate-significance": [fit_kde, [*simulate, "--mode", "significance",
                                            "--n-events", "100", *PREDICTIONS,
                                            "--density", model, "--clustering", "0.3"]],
        "fit-density-kde": [fit_kde],
        "fit-density-parametric": [["fit-density", *CATALOG, "--kind", "parametric",
                                    "--model-out", model]],
    }[name]
    return [[*argv, "--out", str(out / f"report-{k}.json")] for k, argv in enumerate(commands)]


def test_importing_the_package_loads_no_scipy():
    assert _scipy_modules() == []


@pytest.mark.parametrize("name", ["filter-aftershocks", "precursor", "simulate-delays",
                                  "simulate-significance-uniform"])
def test_commands_that_compute_without_scipy_load_none(name, tmp_path):
    assert _scipy_modules(*_commands(name, tmp_path)) == []


@pytest.mark.parametrize("name", ["significance", "enhancement", "significance-kde",
                                  "enhancement-kde", "simulate-significance",
                                  "fit-density-kde"])
def test_only_the_parametric_fit_loads_scipy_optimize(name, tmp_path):
    """Nor does any other command load ``scipy.linalg``: region masses
    need only ``scipy.special``."""
    modules = _scipy_modules(*_commands(name, tmp_path))
    assert [m for m in modules if m.startswith(("scipy.optimize", "scipy.linalg"))] == []
    if name in ("significance-kde", "enhancement-kde", "simulate-significance"):
        assert "scipy.special" in modules  # the circle rule ran


def test_the_parametric_fit_loads_scipy_optimize(tmp_path):
    modules = _scipy_modules(*_commands("fit-density-parametric", tmp_path))
    assert "scipy.optimize" in modules and "scipy.linalg" in modules
