"""Fast checks of the benchmark itself, at a tiny scale.

    python3 -m pytest -q bench
"""

import json
from pathlib import Path

import pytest

import run

cli = run.load_program()

import tracing  # noqa: E402  (needs the package path set up above)
import workloads  # noqa: E402

TINY = {
    "score": {"events": 3_000, "aftershock_frac": 0.3, "alarms": 200},
    "calibrate": {"sim_events": 500, "sim_alarms": 100, "sim_zones": 5,
                  "sim_replicates": 50,
                  "delay_n": 20, "delay_m": 10, "delay_replicates": 5_000,
                  "supp_n": 20, "supp_m": 100, "supp_replicates": 100,
                  "supp_window": 200.0, "delay_span": 1000.0},
    "score-kde": {"events": 200, "aftershock_frac": 0.0, "alarms": 6},
}
# one report field per workload that a check must catch when it is wrong
TAMPER = {"score": ("significance.json", "n_observed"),
          "calibrate": ("simulate-delays.json", "mean"),
          "score-kde": ("significance.json", "n_observed")}


def _declared():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec


def test_tiny_sizes_cover_every_workload():
    assert set(TINY) == set(workloads.SIZES) == {w["name"] for w in _declared()["workloads"]}
    for name in TINY:
        assert set(TINY[name]) == set(workloads.SIZES[name])


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_declared_metric_is_emitted(name, tmp_path):
    spec = _declared()
    wl = workloads.workload(name, TINY[name])
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(cli, wl, seed=3, seconds=0, trace=trace,
                                  work=tmp_path / section)
        summary = result["summary"]
        assert summary["correct"], result["failures"]
        assert summary["failed"] == 0 and summary["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[section]}
        emitted = {k: m["unit"] for k, m in summary["metrics"].items()}
        assert emitted == declared
        for m in summary["metrics"].values():
            assert isinstance(m["value"], (int, float))
    assert tracing.PER_LAYER_UNITS == {m["name"]: m["unit"] for m in spec["per_layer"]}


def test_counts_repeat_exactly(tmp_path):
    wl = workloads.workload("score", TINY["score"])
    counts = []
    for k in range(2):
        result = run.run_workload(cli, wl, seed=5, seconds=0, trace=True,
                                  work=tmp_path / str(k))
        m = result["summary"]["metrics"]
        counts.append({k: m[k]["value"] for k in (
            "spatial.integrate_calls", "spatial.fit_nfev", "catalog.rows_parsed",
            "regions.unique_alarm_regions", "catalog.events_excluded")})
    assert counts[0] == counts[1]
    assert counts[0]["spatial.integrate_calls"] == 2 * TINY["score"]["alarms"]


def _files(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(TINY))
def test_generator_is_byte_identical_per_seed(name, tmp_path):
    wl = workloads.workload(name, TINY[name])
    wl.setup(11, tmp_path / "a")
    wl.setup(11, tmp_path / "b")
    wl.setup(12, tmp_path / "c")
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    assert _files(tmp_path / "a") != _files(tmp_path / "c")


class _WrongOutput:
    """The real CLI, except that one report field is made wrong."""

    def __init__(self, filename: str, field: str):
        self.filename, self.field = filename, field

    def run(self, argv):
        code = cli.run(argv)
        out = Path(argv[argv.index("--out") + 1])
        if out.name == self.filename:
            report = json.loads(out.read_text(encoding="utf-8"))
            report[self.field] += 1
            out.write_text(json.dumps(report), encoding="utf-8")
        return code


@pytest.mark.parametrize("name", sorted(TINY))
def test_wrong_output_raises_failed_frac(name, tmp_path):
    wl = workloads.workload(name, TINY[name])
    result = run.run_workload(_WrongOutput(*TAMPER[name]), wl, seed=3,
                              seconds=0, trace=False, work=tmp_path)
    assert result["end_to_end"]["failed_frac"] > 0
    assert not result["summary"]["correct"]
    assert result["failures"]
