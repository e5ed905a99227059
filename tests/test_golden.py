"""Seeded simulations against reports and samples committed byte for byte.

Each run below was made once and its output kept under tests/data/golden/;
any change to a replicate's draws, their order or the arithmetic that
scores them shows up here as a byte difference.  The runs name their
inputs by paths relative to the repository root, so the reports' config
paths match too.  To regenerate after an intended change of output, run
each argv with ``quakeval`` from the repository root, with ``--out`` (and
``--samples-out``) pointing at the golden files.

The bytes depend on numpy's SIMD dispatch, which picks the code that
evaluates sin, cos, exp and other ufuncs, and with it their rounding in
the last bits.  The files were made under AVX-512 dispatch (numpy 2.4 on
x86-64); with ``NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR"``
13 of the 23 cases differ in their last digits, so a machine without
AVX-512 may fail them although every number agrees to rounding.  CI
prints ``numpy.show_runtime()`` before these runs for that reason.
"""

from pathlib import Path

import pytest

from quakeval import mc
from quakeval.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path("tests/data/golden")

_SIG = ["simulate", "--mode", "significance", "--replicates", "200", "--n-events", "200",
        "--span", "1000", "--predictions", "tests/data/predictions.csv", "--seed", "7"]
_DELAYS = ["simulate", "--mode", "delays", "--replicates", "2000", "--n-events", "100",
           "--span", "1000", "--m-signals", "50", "--seed", "7"]

# name -> (argv, whether the run writes a samples CSV)
RUNS = {
    "significance-uniform": ([*_SIG, "--region", "0,200,0,200"], True),
    "significance-parametric": ([*_SIG, "--density", str(GOLDEN / "parametric.json")], True),
    "significance-clustered": ([*_SIG, "--region", "0,200,0,200", "--clustering", "0.3",
                                "--exclude-injected"], True),
    "delays": (_DELAYS, False),
    "delays-suppressed": ([*_DELAYS, "--suppression-window", "5"], False),
    "delays-shared": ([*_DELAYS, "--shared-catalog"], False),
}


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("name", list(RUNS))
def test_simulation_matches_golden_bytes(monkeypatch, tmp_path, name, workers):
    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(mc, "_worker_count", lambda: workers)
    argv, samples = RUNS[name]
    out = tmp_path / "report.json"
    extra = ["--out", str(out)]
    if samples:
        extra += ["--samples-out", str(tmp_path / "samples.csv")]
    assert run([*argv, *extra]) == 0
    assert out.read_bytes() == (GOLDEN / f"{name}.json").read_bytes()
    if samples:
        assert (tmp_path / "samples.csv").read_bytes() \
            == (GOLDEN / f"{name}.csv").read_bytes()


# The scoring commands on tests/data.  Each run works in a directory of its
# own, in which ``tests`` links to the repository's tests directory, so the
# inputs are named as from the repository root and the outputs by bare file
# names; reports and model files then carry the same paths on every run.
# To regenerate, run each argv with ``quakeval`` from such a directory and
# copy its outputs to tests/data/golden/scoring/.
SCORING = GOLDEN / "scoring"
_CATALOG = ["--earthquakes", "tests/data/earthquakes.csv", "--region", "0,200,0,200",
            "--record-start", "0", "--record-end", "1000"]
_MIXED = ["--predictions", "tests/data/predictions_mixed.csv",
          "--polygons", "tests/data/predictions_mixed.regions.json"]
_MODELS = {"uniform": "uniform", "parametric": str(SCORING / "parametric.json"),
           "kde": str(SCORING / "kde.json")}

# name -> (argv, the files it writes)
SCORING_RUNS = {
    "filter-aftershocks": (["filter-aftershocks", *_CATALOG, "--filtered-out", "kept.csv",
                            "--out", "filter.json"],
                           ["filter.json", "kept.csv", "kept.exclusions.csv"]),
    "fit-parametric": (["fit-density", *_CATALOG, "--kind", "parametric",
                        "--model-out", "parametric.json", "--out", "fit-parametric.json"],
                       ["fit-parametric.json", "parametric.json"]),
    "fit-kde": (["fit-density", *_CATALOG, "--kind", "kde", "--model-out", "kde.json",
                 "--out", "fit-kde.json"],
                ["fit-kde.json", "kde.json", "kde.points.csv"]),
    **{f"{command}-{model}": ([command, *_CATALOG, *_MIXED, "--density", path, *extra,
                               "--out", f"{command}-{model}.json"], [f"{command}-{model}.json"])
       for model, path in _MODELS.items()
       for command, extra in (("significance", ["--exact"]), ("enhancement", []))},
    # sixty distinct circles under the fitted bump
    "significance-parametric-circles": (
        ["significance", *_CATALOG, "--predictions", "tests/data/predictions.csv",
         "--density", _MODELS["parametric"], "--exact",
         "--out", "significance-parametric-circles.json"],
        ["significance-parametric-circles.json"]),
    "precursor": (["precursor", *_CATALOG, "--predictions", "tests/data/predictions.csv",
                   "--out", "precursor.json"], ["precursor.json"]),
}


@pytest.mark.parametrize("name", list(SCORING_RUNS))
def test_scoring_command_matches_golden_bytes(monkeypatch, tmp_path, name):
    (tmp_path / "tests").symlink_to(ROOT / "tests")
    monkeypatch.chdir(tmp_path)
    argv, outputs = SCORING_RUNS[name]
    assert run(argv) == 0
    for output in outputs:
        assert (tmp_path / output).read_bytes() == (ROOT / SCORING / output).read_bytes(), \
            output
