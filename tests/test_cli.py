import argparse
import gc
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from quakeval import load_density, mc
from quakeval.cli import run

EQ = "tests/data/earthquakes.csv"
PRED = "tests/data/predictions.csv"
REGION = "0,200,0,200"


def _base_args(*extra):
    return ["--earthquakes", EQ, "--region", REGION,
            "--record-start", "0", "--record-end", "1000", *extra]


def test_significance_to_stdout(capsys):
    code = run(["significance", *_base_args(), "--predictions", PRED,
                "--exact"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["command"] == "significance"
    assert payload["n_predictions"] == 60
    assert payload["n_observed"] == 31
    assert 0.0 <= payload["significance"] <= 1.0
    assert payload["exact_significance"] is not None
    assert abs(payload["significance"] - payload["exact_significance"]) < 0.02


def test_significance_without_exact(capsys):
    code = run(["significance", *_base_args(), "--predictions", PRED])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["exact_significance"] is None


def test_output_bytes_stable(tmp_path):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        assert run(["significance", *_base_args(), "--predictions", PRED,
                    "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_enhancement_payload(capsys):
    code = run(["enhancement", *_base_args(), "--predictions", PRED])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["c_hat"] > 0.0
    assert "c_min" in payload and "c_min_capped" in payload


def test_precursor_payload(capsys):
    code = run(["precursor", *_base_args(), "--predictions", PRED])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    for key in ("z", "precursor_flag", "postcursor_flag", "origin",
                "n_censored", "threshold"):
        assert key in payload
    assert payload["threshold"] == 2.5


def test_fit_density_kinds(tmp_path, capsys):
    for kind in ("uniform", "parametric", "kde"):
        model_path = tmp_path / f"{kind}.json"
        code = run(["fit-density", *_base_args(), "--kind", kind,
                    "--model-out", str(model_path)])
        assert code == 0, kind
        capsys.readouterr()
        density = load_density(model_path)
        probe = density.evaluate([[100.0, 100.0]])
        assert probe[0] > 0.0


def test_fit_density_report_fields(tmp_path, capsys):
    model_path = tmp_path / "model.json"
    code = run(["fit-density", *_base_args(), "--kind", "parametric",
                "--model-out", str(model_path)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["config"]["kind"] == "parametric"
    assert payload["converged"] is True
    assert payload["loglik"] >= payload["loglik_uniform"] - 1e-9
    assert payload["n_points"] == 220


def test_fit_density_on_collinear_catalog_exits_2(tmp_path, capsys):
    events = tmp_path / "line.csv"
    line = np.linspace(0.0, 200.0, 50).tolist()
    rows = [f"{10.0 * i:g},{v!r},{v!r},4.5" for i, v in enumerate(line)]
    events.write_text("time,x,y,magnitude\n" + "\n".join(rows) + "\n")
    code = run(["fit-density", "--earthquakes", str(events), "--region", REGION,
                "--kind", "parametric", "--model-out", str(tmp_path / "model.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: parametric fit: the points lie on one line")
    assert "--kind kde" in err and "uniform model" in err
    assert "Traceback" not in err and "positive definite" not in err


def test_simulate_delays(tmp_path):
    out = tmp_path / "sim.json"
    code = run(["simulate", "--mode", "delays", "--replicates", "200",
                "--n-events", "50", "--span", "1000", "--m-signals", "20",
                "--seed", "9", "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["statistic"] == "delay_z"
    assert payload["n_replicates"] == 200
    assert abs(payload["mean"]) < 0.3


def test_simulate_delays_needs_signal_count(capsys):
    code = run(["simulate", "--mode", "delays", "--replicates", "10",
                "--n-events", "50", "--span", "1000"])
    assert code == 2
    assert capsys.readouterr().err == "error: simulate --mode delays needs --m-signals\n"


def test_simulate_significance(tmp_path, capsys):
    samples = tmp_path / "levels.csv"
    code = run(["simulate", "--mode", "significance", "--replicates", "50",
                "--n-events", "200", "--span", "1000",
                "--predictions", PRED, "--region", REGION,
                "--seed", "3", "--samples-out", str(samples)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_replicates"] == 50
    assert 0.0 <= payload["mean"] <= 1.0
    lines = samples.read_text().strip().splitlines()
    assert lines[0] == "replicate,n_successes,exact_significance"
    assert len(lines) == 51


def test_simulate_significance_rejects_threshold_above_simulated_events(tmp_path, capsys):
    lines = Path(PRED).read_text().splitlines()
    cells = lines[2].split(",")
    lines[2] = ",".join([*cells[:-1], "5.5"])
    preds = tmp_path / "preds.csv"
    preds.write_text("\n".join(lines) + "\n")
    code = run(["simulate", "--mode", "significance", "--replicates", "10",
                "--n-events", "200", "--span", "1000",
                "--predictions", str(preds), "--region", REGION])
    assert code == 2
    assert "prediction 1: no simulated events at or above magnitude 5.5" \
        in capsys.readouterr().err


def test_simulate_significance_rejects_fit_density(capsys):
    code = run(["simulate", "--mode", "significance", "--replicates", "10",
                "--n-events", "100", "--span", "1000",
                "--predictions", PRED, "--region", REGION,
                "--density", "fit"])
    assert code == 2
    assert capsys.readouterr().err \
        == "error: simulate needs a concrete density: a model file or 'uniform'\n"


SIMULATE = {
    "significance": ["simulate", "--mode", "significance", "--replicates", "10",
                     "--n-events", "100", "--span", "1000",
                     "--predictions", PRED, "--region", REGION],
    "delays": ["simulate", "--mode", "delays", "--replicates", "10",
               "--n-events", "50", "--span", "1000", "--m-signals", "5"],
}


@pytest.mark.parametrize("mode", sorted(SIMULATE))
def test_simulate_rejects_negative_seed(capsys, mode):
    assert run([*SIMULATE[mode], "--seed", "-3"]) == 2
    err = capsys.readouterr().err
    assert "seed must be a non-negative integer, got -3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode, flag, value, field", [
    ("significance", "--cluster-decay", "nan", "time_decay"),
    ("significance", "--cluster-decay", "inf", "time_decay"),
    ("significance", "--cluster-spread", "nan", "spatial_spread"),
    ("significance", "--span", "inf", "span"),
    ("significance", "--span", "nan", "span"),
    ("delays", "--span", "inf", "span"),
    ("delays", "--span", "nan", "span"),
])
def test_simulate_rejects_non_finite_parameters(capsys, mode, flag, value, field):
    """The last of a repeated flag wins, so the flag overrides the base."""
    argv = [*SIMULATE[mode], "--clustering", "0.3", flag, value] \
        if flag.startswith("--cluster") else [*SIMULATE[mode], flag, value]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert f"{field} must be positive and finite, got {value}" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("drop, message", [
    ("--predictions", "simulate --mode significance needs --predictions"),
    ("--region", "simulate with a uniform density needs an explicit --region"),
])
def test_simulate_significance_without_its_inputs_exits_2(capsys, drop, message):
    argv = SIMULATE["significance"]
    k = argv.index(drop)
    assert run([*argv[:k], *argv[k + 2:]]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("mode, extra", [
    ("delays", ["--predictions", "nosuch.csv"]),
    ("delays", ["--polygons", "nosuch.json"]),
    ("delays", ["--density", "nosuchfile.json"]),
    ("delays", ["--region", "1,2"]),
    ("delays", ["--clustering", "nan"]),
    ("delays", ["--cluster-decay", "10"]),
    ("delays", ["--cluster-spread", "5"]),
    ("delays", ["--exclude-injected"]),
    ("delays", ["--samples-out", "samples.csv"]),
    ("significance", ["--m-signals", "-4"]),
    ("significance", ["--suppression-window", "nan"]),
    ("significance", ["--shared-catalog"]),
])
def test_simulate_refuses_the_other_modes_flags(tmp_path, capsys, mode, extra):
    """Even a flag given its own default is refused, and nothing is written."""
    other = "significance" if mode == "delays" else "delays"
    out = tmp_path / "report.json"
    assert run([*SIMULATE[mode], *extra, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"error: {extra[0]} is a flag of simulate "
                                       f"--mode {other}, not of --mode {mode}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv, field", [
    (["precursor", *_base_args(), "--predictions", PRED, "--threshold", "nan"], "threshold"),
    (["precursor", *_base_args(), "--predictions", PRED, "--threshold", "inf"], "threshold"),
    (["filter-aftershocks", *_base_args(), "--time-window", "nan"], "time_window"),
    (["filter-aftershocks", *_base_args(), "--distance-window", "inf"], "distance_window"),
    ([*SIMULATE["significance"], "--clustering", "nan"], "clustering fraction"),
    (["significance", "--earthquakes", EQ, "--region", REGION, "--predictions", PRED,
      "--record-start", "nan"], "record_start"),
    (["significance", *_base_args(), "--predictions", PRED, "--record-end", "inf"],
     "record_end"),
])
def test_non_finite_numbers_exit_2_naming_the_field(tmp_path, capsys, argv, field):
    """The last of a repeated flag wins, so the flag overrides the base.
    Every file the command would write goes to ``tmp_path``, which stays empty."""
    outputs = ["--out", str(tmp_path / "report.json")]
    table = {"filter-aftershocks": "--filtered-out", "simulate": "--samples-out"}
    if argv[0] in table:
        outputs += [table[argv[0]], str(tmp_path / "table.csv")]
    code = run([*argv, *outputs])
    err = capsys.readouterr().err
    assert code == 2
    assert field in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_hopeless_follower_spread_exits_2_at_once(capsys):
    argv = ["simulate", "--mode", "significance", "--replicates", "2",
            "--n-events", "100", "--span", "1000", "--region", REGION,
            "--predictions", PRED, "--clustering", "0.3", "--cluster-spread", "1e6"]
    start = time.perf_counter()
    code = run(argv)
    assert time.perf_counter() - start < 1.0
    err = capsys.readouterr().err
    assert code == 2
    assert "clustering spatial_spread 1e+06 km is too wide" in err


def test_follower_spread_that_stalls_exits_2_naming_the_field(monkeypatch, capsys):
    """A spread the up-front bound lets through, with fewer redraw rounds
    than the default so that the stall comes quickly."""
    monkeypatch.setattr(mc, "_REDRAW_ROUNDS", 1000)
    argv = ["simulate", "--mode", "significance", "--replicates", "2",
            "--n-events", "100", "--span", "1000", "--region", REGION,
            "--predictions", PRED, "--clustering", "0.3", "--cluster-spread", "1e4"]
    code = run(argv)
    err = capsys.readouterr().err
    assert code == 2
    assert "clustering spatial_spread 10000 km: follower offsets keep landing" in err
    assert "Traceback" not in err


def test_filter_aftershocks(tmp_path, capsys):
    filtered = tmp_path / "kept.csv"
    code = run(["filter-aftershocks", *_base_args(),
                "--time-window", "30", "--distance-window", "50",
                "--filtered-out", str(filtered)])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_input"] == 220
    assert payload["n_kept"] + payload["n_excluded"] == 220
    assert filtered.exists()
    audit = tmp_path / "kept.exclusions.csv"
    assert audit.exists()
    header = audit.read_text().splitlines()[0]
    assert header == "index,time,x,y,magnitude,excluded_by"
    kept_rows = filtered.read_text().strip().splitlines()
    assert len(kept_rows) == payload["n_kept"] + 1


def test_bad_region_spec_exits_2(capsys):
    code = run(["significance", "--earthquakes", EQ, "--region", "0,200,0",
                "--predictions", PRED])
    assert code == 2
    assert capsys.readouterr().err != ""


def test_invalid_csv_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,x,y\n1.0,2.0,3.0\n")
    code = run(["significance", "--earthquakes", str(bad),
                "--region", REGION, "--predictions", PRED])
    assert code == 2


def test_missing_file_exits_1(capsys):
    code = run(["significance", "--earthquakes", "no/such/file.csv",
                "--region", REGION, "--predictions", PRED])
    assert code == 1


def test_unknown_subcommand_exits_2(capsys):
    assert run(["frobnicate"]) == 2


MIXED = ["--predictions", "tests/data/predictions_mixed.csv",
         "--polygons", "tests/data/predictions_mixed.regions.json"]


@pytest.mark.parametrize("predictions", [["--predictions", PRED], MIXED])
def test_enhancement_is_a_projection_of_significance(predictions, capsys):
    assert run(["significance", *_base_args(), *predictions]) == 0
    sig = json.loads(capsys.readouterr().out)
    assert run(["enhancement", *_base_args(), *predictions]) == 0
    enh = json.loads(capsys.readouterr().out)
    shared = (set(sig) & set(enh)) - {"command", "config"}
    assert shared == set(enh) - {"command", "config"}
    assert {key: enh[key] for key in shared} == {key: sig[key] for key in shared}


def _write_predictions(tmp_path, rows, sidecar=None):
    path = tmp_path / "preds.csv"
    path.write_text("issue_time,window_start,window_end,cx,cy,radius,min_magnitude\n"
                    + "".join(row + "\n" for row in rows))
    args = ["--predictions", str(path)]
    if sidecar is not None:
        side = tmp_path / "preds.regions.json"
        side.write_text(json.dumps(sidecar))
        args += ["--polygons", str(side)]
    return args


@pytest.mark.parametrize("command", ["significance", "enhancement"])
@pytest.mark.parametrize("hits", [True, False])
@pytest.mark.parametrize("alpha", ["nan", "inf", "0", "0.5", "2", "-1"])
def test_alpha_outside_its_range_exits_2(tmp_path, capsys, command, hits, alpha):
    """Refused before any scoring, whether or not an alarm succeeds."""
    preds = (["--predictions", PRED] if hits
             else _write_predictions(tmp_path, ["0,0,1,100,100,1,3.0"]))
    out = tmp_path / "report.json"
    code = run([command, *_base_args(), *preds, "--alpha", alpha, "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2
    assert "alpha must lie in (0, 0.5)" in err and "Traceback" not in err
    assert not out.exists()


def test_significance_with_zero_null_variance(tmp_path, capsys):
    # a full-record alarm over the whole region succeeds with probability 1,
    # a zero-duration one with probability 0: the normal variance is zero
    preds = _write_predictions(
        tmp_path, ["0,0,1000,,,,3.0", "0,500.5,500.5,100,100,10,3.0"],
        sidecar={"0": [[0, 0], [200, 0], [200, 200], [0, 200]]})
    code = run(["significance", *_base_args(), *preds, "--exact"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["sigma"] == 0.0
    assert payload["z"] is None and payload["significance"] is None
    assert payload["n_observed"] == 1
    assert payload["exact_significance"] == 1.0


def test_significance_and_simulate_name_the_prediction_whose_region_leaves_the_region(
        tmp_path, capsys):
    preds = _write_predictions(tmp_path, ["0,10,50,100,100,20,4", "0,10,50,195,100,20,4"])
    simulate = ["simulate", "--mode", "significance", "--replicates", "4",
                "--n-events", "50", "--span", "1000", "--region", REGION]
    for argv in (["significance", *_base_args()], simulate):
        assert run([*argv, *preds]) == 2
        assert capsys.readouterr().err \
            == "error: prediction 1: alarm region is not inside the study region\n"


def test_a_model_file_sets_the_study_region(tmp_path, capsys):
    """Without --region the model's region is the study region, so the
    report is the one for that explicit --region; a --region that is not
    the model's region is refused, by simulate too."""
    model, wide = tmp_path / "model.json", tmp_path / "wide.json"
    assert run(["fit-density", *_base_args(), "--kind", "parametric",
                "--model-out", str(model)]) == 0
    assert run(["fit-density", "--earthquakes", EQ, "--region=-100,300,-100,300",
                "--kind", "uniform", "--model-out", str(wide)]) == 0
    capsys.readouterr()
    scored = ["significance", "--earthquakes", EQ, "--record-end", "1000",
              "--predictions", PRED, "--exact", "--density"]
    assert run([*scored, str(model), "--region", REGION]) == 0
    explicit = capsys.readouterr().out
    assert run([*scored, str(model)]) == 0
    assert capsys.readouterr().out == explicit
    simulate = [*SIMULATE["significance"][:-2], "--replicates", "2", "--density", str(wide)]
    for argv in ([*scored, str(wide), "--region", REGION], [*simulate, "--region", REGION]):
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"error: --region {REGION} is not the region of the density model {wide}, "
            "Rectangle(x_min=-100.0, x_max=300.0, y_min=-100.0, y_max=300.0)\n")
    assert run(simulate) == 0


def test_enhancement_rejects_window_outside_record(tmp_path, capsys):
    preds = _write_predictions(tmp_path, ["900,900,1100,100,100,10,3.0"])
    for command in ("significance", "enhancement"):
        assert run([command, *_base_args(), *preds]) == 2
        assert "outside the record" in capsys.readouterr().err


def test_density_missing_key_exits_2(tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run(["fit-density", *_base_args(), "--kind", "parametric",
                "--model-out", str(model)]) == 0
    capsys.readouterr()
    data = json.loads(model.read_text())
    del data["Q"]
    model.write_text(json.dumps(data))
    code = run(["significance", *_base_args(), "--predictions", PRED,
                "--density", str(model)])
    assert code == 2
    assert "'Q'" in capsys.readouterr().err


@pytest.mark.parametrize("text", ["{not json", "[[0, 0], [1, 0], [0, 1]]",
                                  '{"1": "abc"}'])
def test_malformed_polygon_sidecar_exits_2(tmp_path, capsys, text):
    sidecar = tmp_path / "bad.regions.json"
    sidecar.write_text(text)
    code = run(["significance", *_base_args(), "--predictions",
                "tests/data/predictions_mixed.csv", "--polygons", str(sidecar)])
    assert code == 2
    assert str(sidecar) in capsys.readouterr().err


def test_truncated_density_json_exits_2(tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text('{"type": "parametric", "x_c": [1')
    code = run(["significance", *_base_args(), "--predictions", PRED,
                "--density", str(model)])
    assert code == 2
    err = capsys.readouterr().err
    assert str(model) in err and "not valid JSON" in err


MODEL_REGION = {"type": "rectangle", "x_min": 0.0, "x_max": 200.0,
                "y_min": 0.0, "y_max": 200.0}
MODELS = {
    "parametric": {"type": "parametric", "x_c": [100.0, 100.0],
                   "Q": [1e-3, 0.0, 0.0, 1e-3], "p1": 1e-5, "region": MODEL_REGION},
    "kde": {"type": "kde", "bandwidth": [25.0, 0.0, 0.0, 25.0],
            "points_ref": "points.csv", "region": MODEL_REGION},
}


@pytest.mark.parametrize("kind, key, value", [
    ("parametric", "p1", None),
    ("parametric", "Q", [1, 2, 3]),
    ("parametric", "x_c", "ab"),
    ("kde", "bandwidth", None),
    ("parametric", "p0", None),
    ("parametric", "p1", -1.0),
    ("parametric", "Q", [1.0, 5.0, 2.0, 1.0]),
    ("parametric", "region", {"type": "circle", "cx": 100.0, "cy": 100.0,
                              "radius": -1.0}),
    ("kde", "points_ref", 5),
])
def test_malformed_density_field_exits_2(tmp_path, capsys, kind, key, value):
    """A bad field of a density model names the model file and the field."""
    (tmp_path / "points.csv").write_text("x,y\n50,50\n60,70\n120,90\n")
    model = tmp_path / "model.json"
    model.write_text(json.dumps({**MODELS[kind], key: value}))
    code = run(["significance", *_base_args(), "--predictions", PRED,
                "--density", str(model)])
    err = capsys.readouterr().err
    assert code == 2
    assert f"{model}: " in err and key in err and "Traceback" not in err


@pytest.mark.parametrize("row, message", [
    ("50.0", "row 3: expected 2 fields, got 1"),
    ("abc,50.0", "row 3: x value 'abc' is not a number"),
])
def test_malformed_kde_points_exit_2(tmp_path, capsys, row, message):
    model = tmp_path / "kde.json"
    assert run(["fit-density", *_base_args(), "--kind", "kde",
                "--model-out", str(model)]) == 0
    capsys.readouterr()
    points = tmp_path / "kde.points.csv"
    lines = points.read_text().splitlines()
    lines[3] = row
    points.write_text("\n".join(lines) + "\n")
    code = run(["significance", *_base_args(), "--predictions", PRED,
                "--density", str(model)])
    assert code == 2
    assert f"{points}: {message}" in capsys.readouterr().err


def _significance_with_bad_row(tmp_path, capsys, kind, bad_row=None):
    """Significance arguments that read a copy of the ``kind`` input CSV
    whose data row 3 is replaced by ``bad_row`` (if given), and the
    copy's path."""
    files = {"earthquakes": EQ, "predictions": PRED}
    density = []
    if kind == "points":
        model = tmp_path / "kde.json"
        assert run(["fit-density", *_base_args(), "--kind", "kde",
                    "--model-out", str(model)]) == 0
        capsys.readouterr()
        path = tmp_path / "kde.points.csv"
        density = ["--density", str(model)]
    else:
        path = tmp_path / f"{kind}.csv"
        path.write_bytes(Path(files[kind]).read_bytes())
        files[kind] = str(path)
    if bad_row is not None:
        lines = path.read_bytes().splitlines()
        lines[3] = bad_row
        path.write_bytes(b"\n".join(lines) + b"\n")
    argv = ["significance", "--earthquakes", files["earthquakes"], "--region", REGION,
            "--record-start", "0", "--record-end", "1000",
            "--predictions", files["predictions"], *density]
    return argv, path


@pytest.mark.parametrize("kind", ["earthquakes", "predictions", "points"])
@pytest.mark.parametrize("bad_row, message", [
    (b"1,2,\xff,4", "row 3: text is not UTF-8"),
    (b"1," + b"9" * 140_000 + b",3", "row 3: field larger than field limit"),
], ids=["non-utf8", "long-field"])
def test_undecodable_or_oversized_csv_exits_2(tmp_path, capsys, kind, bad_row, message):
    argv, path = _significance_with_bad_row(tmp_path, capsys, kind, bad_row)
    assert run(argv) == 2
    assert f"{path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["earthquakes", "predictions", "points"])
def test_non_utf8_byte_far_into_a_file_names_its_row(tmp_path, capsys, kind):
    """The text layer decodes ahead of the CSV reader, and a quoted blank
    record spans three lines, so neither the rows read nor the lines
    before the bad byte give its row."""
    argv, path = _significance_with_bad_row(tmp_path, capsys, kind)
    header, *data = path.read_bytes().splitlines()
    data = (data * (2000 // len(data) + 1))[:2000]
    data[9] = b'"\n\n"'
    data[1499] = data[1499].replace(b",", b",\xff", 1)
    path.write_bytes(b"\n".join([header, *data]) + b"\n")
    assert run(argv) == 2
    assert f"{path}: row 1500: text is not UTF-8" in capsys.readouterr().err


def test_blank_kde_points_row_is_skipped(tmp_path, capsys):
    argv, _ = _significance_with_bad_row(tmp_path, capsys, "points", b",")
    assert run(argv) == 0


@pytest.mark.parametrize("kind", ["earthquakes", "predictions", "points"])
def test_byte_order_mark_is_skipped(tmp_path, capsys, kind):
    argv, path = _significance_with_bad_row(tmp_path, capsys, kind)
    assert run(argv) == 0
    plain = capsys.readouterr().out
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert run(argv) == 0
    assert capsys.readouterr().out == plain


def test_kde_points_csv_without_rows_exits_2(tmp_path, capsys):
    argv, path = _significance_with_bad_row(tmp_path, capsys, "points")
    path.write_text("x,y\n")
    assert run(argv) == 2
    assert f"{path}: kernel density needs at least one point" in capsys.readouterr().err


def test_kde_point_outside_region_exits_2_naming_the_row(tmp_path, capsys):
    argv, path = _significance_with_bad_row(tmp_path, capsys, "points", b"500.0,50.0")
    assert run(argv) == 2
    assert (f"{path}: row 3: kernel point (500, 50) lies outside the model's region"
            in capsys.readouterr().err)


def test_runs_leave_no_parsers_for_the_garbage_collector(tmp_path):
    """The command-line parser is built once per process: a parser built on
    every run is a graph of reference cycles that stays in memory until
    the cyclic collector next runs."""
    argv = ["precursor", *_base_args(), "--predictions", PRED, "--out", str(tmp_path / "p.json")]
    assert run(argv) == 0
    gc.collect()
    gc.disable()
    try:
        before = sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())
        for _ in range(3):
            assert run(argv) == 0
        after = sum(isinstance(o, argparse.ArgumentParser) for o in gc.get_objects())
    finally:
        gc.enable()
    assert after == before
