import io
import json
import math

import numpy as np
import pytest

from quakeval import (AftershockPolicy, Catalog, Circle, ConvexPolygon,
                      Prediction, Rectangle, ValidationError,
                      filter_aftershocks, parse_earthquakes, parse_predictions,
                      serialize_earthquakes, serialize_exclusions,
                      serialize_predictions, validate_predictions_against)

REGION = Rectangle(0.0, 100.0, 0.0, 100.0)


def ev(t, x=50.0, y=50.0, m=5.0):
    return (t, x, y, m)


def catalog(events, record_start, record_end, region):
    """Catalog from (t, x, y, m) rows, through the column constructor."""
    t, x, y, m = np.array(events, dtype=float).reshape(-1, 4).T
    return Catalog(t, x, y, m, record_start, record_end, region)


def rows(cat):
    """The catalog's events as (t, x, y, m) tuples in time order."""
    return list(zip(cat.times, cat.xs, cat.ys, cat.magnitudes))


def test_catalog_sorts_and_exposes_columns():
    cat = catalog([ev(5.0), ev(1.0, m=6.0), ev(3.0)], 0.0, 10.0, REGION)
    assert list(cat.times) == [1.0, 3.0, 5.0]
    assert cat.magnitudes[0] == 6.0
    assert cat.span == 10.0
    assert len(cat) == 3


def test_catalog_rejects_out_of_record_and_region():
    with pytest.raises(ValidationError):
        catalog([ev(11.0)], 0.0, 10.0, REGION)
    with pytest.raises(ValidationError):
        catalog([ev(5.0, x=150.0)], 0.0, 10.0, REGION)
    with pytest.raises(ValidationError):
        catalog([], 5.0, 5.0, REGION)
    with pytest.raises(ValidationError, match="record_start must be finite, got nan"):
        catalog([ev(1.0)], math.nan, 10.0, REGION)
    with pytest.raises(ValidationError, match="record_end must be finite, got inf"):
        catalog([ev(1.0)], 0.0, math.inf, REGION)
    with pytest.raises(ValidationError, match="equal length"):
        Catalog([1.0], [50.0, 50.0], [50.0], [5.0], 0.0, 10.0, REGION)


def test_catalog_columns_are_read_only():
    cat = catalog([ev(1.0)], 0.0, 10.0, REGION)
    with pytest.raises(ValueError):
        cat.times[0] = 9.0


def test_catalog_subset():
    cat = catalog([ev(1.0), ev(2.0, m=6.0), ev(3.0)], 0.0, 10.0, REGION)
    sub = cat.subset(cat.magnitudes >= 6.0)
    assert len(sub) == 1
    assert sub.times[0] == 2.0
    assert sub.span == cat.span


def test_catalog_neither_shares_nor_follows_its_inputs():
    columns = [np.array([3.0, 1.0, 2.0]), np.array([10.0, 20.0, 30.0]),
               np.array([40.0, 50.0, 60.0]), np.array([5.0, 6.0, 7.0])]
    cat = Catalog(*columns, 0.0, 10.0, REGION)
    held = (cat.times, cat.xs, cat.ys, cat.magnitudes)
    before = [c.copy() for c in held]
    for column in columns:
        assert not any(np.shares_memory(column, c) for c in held)
        column[:] = -1.0
    for now, then in zip(held, before):
        assert np.array_equal(now, then)


def test_prediction_validation():
    with pytest.raises(ValidationError):
        Prediction(0.0, 5.0, 4.0, REGION, 5.0)  # window reversed
    with pytest.raises(ValidationError):
        Prediction(6.0, 5.0, 7.0, REGION, 5.0)  # issued late
    p = Prediction(1.0, 2.0, 6.0, REGION, 5.0)
    assert p.duration == 4.0


def test_earthquake_round_trip_exact():
    """repr-float serialization survives parse without any drift."""
    awkward = [ev(0.1 + 0.2, x=1.0 / 3.0, y=2.0 / 7.0, m=5.15),
               ev(np.nextafter(1.0, 2.0), x=99.999999999, y=0.0, m=4.0)]
    cat = catalog(awkward, 0.0, 10.0, REGION)
    text = serialize_earthquakes(cat)
    again = parse_earthquakes(io.StringIO(text), region=REGION,
                              record_end=10.0)
    assert np.array_equal(again.times, cat.times)
    assert np.array_equal(again.xs, cat.xs)
    assert np.array_equal(again.ys, cat.ys)
    assert np.array_equal(again.magnitudes, cat.magnitudes)


def test_parse_earthquakes_errors_name_rows():
    with pytest.raises(ValidationError, match="header"):
        parse_earthquakes(io.StringIO("a,b,c,d\n1,2,3,4\n"))
    with pytest.raises(ValidationError, match="row 2"):
        parse_earthquakes(io.StringIO("time,x,y,magnitude\n1,2,3,4\n1,2,3\n"))
    with pytest.raises(ValidationError, match="row 1"):
        parse_earthquakes(io.StringIO("time,x,y,magnitude\noops,2,3,4\n"))
    with pytest.raises(ValidationError, match="negative time"):
        parse_earthquakes(io.StringIO("time,x,y,magnitude\n-1,2,3,4\n"))
    # rows are numbered in file order, not in time order, and blank lines count
    with pytest.raises(ValidationError, match="row 3: epicentre"):
        parse_earthquakes(io.StringIO("time,x,y,magnitude\n5,2,3,4\n\n1,200,3,4\n"),
                          region=REGION)
    with pytest.raises(ValidationError, match="row 2: magnitude value 'nan'"):
        parse_earthquakes(io.StringIO("time,x,y,magnitude\n1,2,3,4\n2,2,3,nan\n"))
    with pytest.raises(ValidationError, match="row 1: x value 'inf'"):
        parse_earthquakes(io.StringIO("time,x,y,magnitude\n1,inf,3,4\n"))
    # both ends of the record; the first offending row in file order
    text = "time,x,y,magnitude\n5,2,3,4\n12,2,3,4\n2,2,3,4\n11,2,3,4\n"
    with pytest.raises(ValidationError, match=r"row 2: time 12 falls outside the record"):
        parse_earthquakes(io.StringIO(text), record_end=10.0)
    with pytest.raises(ValidationError, match=r"row 3: time 2 falls outside the record"):
        parse_earthquakes(io.StringIO(text), record_start=3.0)


def test_catalog_errors_name_the_input_position():
    with pytest.raises(ValidationError, match=r"^event 1: epicentre \(200, 3\) lies outside"):
        Catalog([5.0, 1.0], [2.0, 200.0], [3.0, 3.0], [4.0, 4.0], 0.0, 10.0, REGION)
    with pytest.raises(ValidationError, match=r"^event 0: time 12 falls outside"):
        Catalog([12.0, 1.0], [2.0, 200.0], [3.0, 3.0], [4.0, 4.0], 0.0, 10.0, REGION)


def test_parse_earthquakes_names_the_first_fault():
    """The reader's faults come before Catalog's, wherever they lie; among
    faults of one kind the first row is named, and in a row the time
    before the epicentre."""
    def error(rows: str) -> str:
        with pytest.raises(ValidationError) as caught:
            parse_earthquakes(io.StringIO("time,x,y,magnitude\n" + rows),
                              region=REGION, record_end=10.0)
        return str(caught.value)

    assert error("1,200,3,4\n2,abc,3,4\n") == "row 2: x value 'abc' is not a number"
    assert error("1,abc,3,4\n2,3\n") == "row 1: x value 'abc' is not a number"
    assert error("1,2,3\n2,abc,3,4\n") == "row 1: expected 4 fields, got 3"
    assert error("1,200,3,4\n12,2,3,4\n").startswith("row 1: epicentre (200, 3)")
    assert error("12,2,3,4\n1,200,3,4\n").startswith("row 1: time 12 falls outside")
    assert error("12,200,3,4\n").startswith("row 1: time 12 falls outside")


def test_parse_earthquakes_skips_blank_rows_and_derives_bounds():
    text = "time,x,y,magnitude\n1,5,5,5\n\n3,7,9,4.5\n"
    cat = parse_earthquakes(io.StringIO(text))
    assert len(cat) == 2
    assert cat.record_end == 3.0
    xmin, xmax, ymin, ymax = cat.region.bounding_box
    assert (xmin, xmax, ymin, ymax) == (5.0, 7.0, 5.0, 9.0)


def test_parse_earthquakes_pads_degenerate_bbox():
    text = "time,x,y,magnitude\n1,5,5,5\n2,5,9,4.5\n"
    cat = parse_earthquakes(io.StringIO(text))
    xmin, xmax, _, _ = cat.region.bounding_box
    assert xmax - xmin == 1.0


def test_parse_predictions_circles_and_polygons():
    text = ("issue_time,window_start,window_end,cx,cy,radius,min_magnitude\n"
            "0,1,5,10,20,3,5.0\n"
            "2,3,8,,,,4.5\n")
    sidecar = {"1": [[0, 0], [5, 0], [5, 5], [0, 5]]}
    preds = parse_predictions(io.StringIO(text), polygons=sidecar)
    assert isinstance(preds[0].region, Circle)
    assert isinstance(preds[1].region, ConvexPolygon)
    assert preds[0].region.radius == 3.0
    assert preds[1].min_magnitude == 4.5


def test_parse_predictions_partial_circle_rejected():
    text = ("issue_time,window_start,window_end,cx,cy,radius,min_magnitude\n"
            "0,1,5,10,,3,5.0\n")
    with pytest.raises(ValidationError, match="all present or all empty"):
        parse_predictions(io.StringIO(text))


def test_parse_predictions_missing_sidecar_entry():
    text = ("issue_time,window_start,window_end,cx,cy,radius,min_magnitude\n"
            "0,1,5,,,,5.0\n")
    with pytest.raises(ValidationError, match="sidecar"):
        parse_predictions(io.StringIO(text))


def test_predictions_round_trip(tmp_path):
    preds = [
        Prediction(0.0, 1.0, 5.0, Circle(10.0, 20.0, 3.0), 5.0),
        Prediction(2.0, 3.0, 8.0,
                   ConvexPolygon([[0, 0], [5, 0], [5, 5], [0, 5]]), 4.5),
    ]
    path = tmp_path / "preds.csv"
    serialize_predictions(preds, path)
    sidecar_path = tmp_path / "preds.regions.json"
    assert sidecar_path.exists()
    again = parse_predictions(path, polygons=json.loads(sidecar_path.read_text()))
    assert len(again) == 2
    assert again[0].region == preds[0].region
    assert np.array_equal(again[1].region.vertices, preds[1].region.vertices)
    assert again[1].issue_time == 2.0


def test_validate_predictions_against():
    cat = catalog([ev(1.0)], 0.0, 10.0, REGION)
    good = Prediction(0.0, 1.0, 5.0, Circle(50.0, 50.0, 10.0), 5.0)
    validate_predictions_against([good], cat)
    late = Prediction(0.0, 1.0, 11.0, Circle(50.0, 50.0, 10.0), 5.0)
    with pytest.raises(ValidationError, match="outside the record"):
        validate_predictions_against([late], cat)
    escaping = Prediction(0.0, 1.0, 5.0, Circle(95.0, 50.0, 10.0), 5.0)
    with pytest.raises(ValidationError, match="study region"):
        validate_predictions_against([escaping], cat)


def test_filter_excludes_smaller_nearby_follower():
    cat = catalog([ev(10.0, 50, 50, 6.0), ev(15.0, 52, 50, 5.0),
                   ev(15.5, 90, 90, 5.0)], 0.0, 100.0, REGION)
    res = filter_aftershocks(cat, AftershockPolicy(10.0, 5.0))
    assert len(res.kept) == 2
    assert len(res.excluded) == 1
    assert res.excluded_index[0] == 1
    assert res.excluded_by[0] == 0


def test_filter_equal_magnitude_never_shadows():
    cat = catalog([ev(10.0, 50, 50, 5.0), ev(12.0, 50, 50, 5.0)],
                  0.0, 100.0, REGION)
    res = filter_aftershocks(cat, AftershockPolicy(10.0, 5.0))
    assert len(res.kept) == 2


def test_filter_excluded_event_cannot_shadow():
    """A follower removed by the filter must not remove anything itself."""
    cat = catalog([
        ev(0.0, 50, 50, 7.0),
        ev(5.0, 52, 50, 6.0),    # excluded by the first
        ev(8.0, 90, 90, 5.0),    # near nothing retained and bigger, kept
        ev(9.0, 53, 50, 5.5),    # still shadowed by the 7.0 at t=0
    ], 0.0, 100.0, REGION)
    res = filter_aftershocks(cat, AftershockPolicy(30.0, 5.0))
    kept_times = list(res.kept.times)
    assert kept_times == [0.0, 8.0]
    culprits = dict(zip(res.excluded_index.tolist(), res.excluded_by.tolist()))
    assert culprits == {1: 0, 3: 0}


def test_filter_time_window_boundaries():
    # exactly at the window edge is still shadowed; same instant is not
    cat = catalog([ev(0.0, 50, 50, 6.0), ev(10.0, 50, 50, 5.0),
                   ev(10.0, 51, 50, 5.9)], 0.0, 100.0, REGION)
    res = filter_aftershocks(cat, AftershockPolicy(10.0, 5.0))
    assert len(res.excluded) == 2
    simultaneous = catalog([ev(0.0, 50, 50, 6.0), ev(0.0, 50, 50, 5.0)],
                           0.0, 100.0, REGION)
    res2 = filter_aftershocks(simultaneous, AftershockPolicy(10.0, 5.0))
    assert len(res2.kept) == 2


def test_filter_idempotent_and_matches_reference():
    """Sequential scan agrees with a naive reimplementation on random data."""
    for seed in range(5):
        rng = np.random.default_rng(seed)
        n = 120
        cat = Catalog(np.sort(rng.uniform(0, 300, n)), rng.uniform(0, 100, n),
                      rng.uniform(0, 100, n), rng.uniform(4.0, 7.0, n),
                      0.0, 300.0, REGION)
        policy = AftershockPolicy(20.0, 25.0)
        res = filter_aftershocks(cat, policy)

        kept_ref = []
        for e in rows(cat):
            t, x, y, m = e
            shadowed = any(
                km > m
                and 0.0 < t - kt <= policy.time_window
                and (kx - x) ** 2 + (ky - y) ** 2
                <= policy.distance_window ** 2
                for kt, kx, ky, km in kept_ref)
            if not shadowed:
                kept_ref.append(e)
        assert rows(res.kept) == kept_ref

        again = filter_aftershocks(res.kept, policy)
        assert len(again.excluded) == 0
        assert rows(again.kept) == rows(res.kept)


def test_filter_culprits_match_reference_with_ties():
    """On integer times, magnitudes in steps of 0.5 and integer positions,
    ties in time and magnitude are common and every comparison is exact.
    The excluded positions and culprits must match a loop over the
    retained events that names the first shadower in time order."""
    policy = AftershockPolicy(5.0, 30.0)
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n = 150
        cat = Catalog(rng.integers(0, 80, n), rng.integers(0, 101, n),
                      rng.integers(0, 101, n), 4.0 + 0.5 * rng.integers(0, 5, n),
                      0.0, 100.0, REGION)
        res = filter_aftershocks(cat, policy)

        events = rows(cat)
        kept, ref_index, ref_by = [], [], []
        for i, (t, x, y, m) in enumerate(events):
            shadowers = [j for j in kept
                         if events[j][3] > m
                         and 0.0 < t - events[j][0] <= policy.time_window
                         and (events[j][1] - x) ** 2 + (events[j][2] - y) ** 2
                         <= policy.distance_window ** 2]
            if shadowers:
                ref_index.append(i)
                ref_by.append(shadowers[0])
            else:
                kept.append(i)
        assert ref_index, "the catalogs should exercise exclusions"
        assert np.array_equal(res.excluded_index, ref_index)
        assert np.array_equal(res.excluded_by, ref_by)
        assert rows(res.kept) == [events[i] for i in kept]
        assert rows(res.excluded) == [events[i] for i in ref_index]
        assert not res.excluded_index.flags.writeable


def test_exclusion_audit_csv():
    cat = catalog([ev(10.0, 50, 50, 6.0), ev(15.0, 52, 50, 5.0)],
                  0.0, 100.0, REGION)
    res = filter_aftershocks(cat, AftershockPolicy(10.0, 5.0))
    text = serialize_exclusions(res)
    lines = text.strip().split("\n")
    assert lines[0] == "index,time,x,y,magnitude,excluded_by"
    assert lines[1].startswith("1,15.0,52.0,50.0,5.0,0")


def test_aftershock_policy_validation():
    with pytest.raises(ValidationError):
        AftershockPolicy(-1.0, 5.0)
    with pytest.raises(ValidationError):
        AftershockPolicy(1.0, -5.0)
    for value in (math.nan, math.inf):
        with pytest.raises(ValidationError, match=f"time_window .* got {value}"):
            AftershockPolicy(value, 5.0)
        with pytest.raises(ValidationError, match=f"distance_window .* got {value}"):
            AftershockPolicy(1.0, value)
