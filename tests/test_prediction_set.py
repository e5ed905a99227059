"""``PredictionSet``: the columnar prediction table, its row checks, and
the same answers from every function for a list of ``Prediction``s, for
the set made from it, and for the set read back from its CSV."""

import io
from dataclasses import asdict

import numpy as np
import pytest

from quakeval import (Catalog, Circle, ConvexPolygon, NullModel, ParametricDensity,
                      Prediction, PredictionSet, Rectangle, ValidationError,
                      chance_probabilities, count_successes, empirical_significance,
                      extract_delays, overlap_fraction, parse_predictions,
                      serialize_predictions, significance_report,
                      validate_predictions_against)
from quakeval import catalog as catalog_module
from quakeval import mc

REGION = Rectangle(0.0, 200.0, 0.0, 200.0)
SPAN = 1000.0
SQUARE = [[20.0, 20.0], [60.0, 20.0], [60.0, 60.0], [20.0, 60.0]]


def _regions(rng, rectangles: bool) -> list:
    """Alarm regions, some equal to each other but built as distinct objects."""
    pool = [Circle(50.0, 50.0, 10.0), Circle(50.0, 50.0, 10.0),
            Circle(120.0, 80.0, 25.5), ConvexPolygon(SQUARE), ConvexPolygon(SQUARE),
            ConvexPolygon([[100.0, 100.0], [180.0, 110.0], [150.0, 170.0]])]
    pool += [Circle(*rng.uniform(40.0, 160.0, 2), float(rng.uniform(1.0, 30.0)))
             for _ in range(3)]
    if rectangles:
        pool += [Rectangle(0.0, 100.0, 0.0, 100.0), Rectangle(0.0, 100.0, 0.0, 100.0),
                 Rectangle(90.0, 190.0, 10.0, 60.0)]
    return pool


def _predictions(seed: int, rectangles: bool = False, count: int = 40) -> list:
    rng = np.random.default_rng(seed)
    pool = _regions(rng, rectangles)
    preds = []
    for _ in range(count):
        issue = float(rng.uniform(0.0, 900.0))
        start = issue + float(rng.choice([0.0, rng.uniform(0.0, 20.0)]))
        end = start + float(rng.choice([0.0, rng.uniform(0.5, 60.0)]))
        preds.append(Prediction(issue, start, min(end, SPAN), pool[rng.integers(len(pool))],
                                float(rng.choice([4.0, 4.5, 5.0]))))
    return preds


def _catalog(seed: int) -> Catalog:
    rng = np.random.default_rng(seed)
    n = 400
    return Catalog(rng.uniform(0.0, SPAN, n), rng.uniform(0.0, 200.0, n),
                   rng.uniform(0.0, 200.0, n), rng.choice([4.0, 4.5, 5.0, 6.0], n),
                   0.0, SPAN, REGION)


def _forms(preds: list) -> list:
    """The list, the set made from it and, when its regions can be written
    to a prediction CSV, the set read back from that CSV."""
    forms = [preds, PredictionSet.of(preds)]
    if not any(isinstance(p.region, Rectangle) for p in preds):
        text, sidecar = serialize_predictions(preds)
        forms.append(parse_predictions(io.StringIO(text), polygons=sidecar))
    return forms


def _outcome(call):
    try:
        return call()
    except ValidationError as exc:
        return ("error", str(exc))


DENSITY = ParametricDensity.from_mixture((80.0, 120.0), np.diag([1 / 900.0, 1 / 1600.0]),
                                         0.5, REGION)

CALLS = {
    "validate_predictions_against":
        lambda preds, cat: validate_predictions_against(preds, cat),
    "chance_probabilities":
        lambda preds, cat: chance_probabilities(preds, DENSITY, cat).probabilities.tobytes(),
    "count_successes": lambda preds, cat: count_successes(cat, preds),
    "overlap_fraction": lambda preds, cat: overlap_fraction(preds),
    "extract_delays": lambda preds, cat: {
        k: v.tobytes() if isinstance(v, np.ndarray) else v
        for k, v in asdict(extract_delays(preds, cat)).items()},
    "significance_report": lambda preds, cat: significance_report(
        cat, preds, DENSITY, exact=True).to_dict(),
}


@pytest.mark.parametrize("rectangles", [False, True], ids=["csv-shapes", "rectangles"])
@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("name", sorted(CALLS))
def test_every_form_gives_the_same_answer(name, seed, rectangles):
    preds = _predictions(seed, rectangles)
    cat = _catalog(seed + 100)
    first, *others = [_outcome(lambda: CALLS[name](form, cat)) for form in _forms(preds)]
    assert len(others) == (1 if rectangles else 2)
    for other in others:
        assert other == first


def test_every_form_gives_the_same_faults():
    preds = _predictions(7)
    cat = _catalog(8)
    escaping = Prediction(0.0, 10.0, 20.0, Circle(195.0, 100.0, 20.0), 5.0)
    late = Prediction(0.0, 10.0, SPAN + 5.0, Circle(100.0, 100.0, 20.0), 5.0)
    unmatched = Prediction(0.0, 10.0, 20.0, REGION, 9.0)
    for bad in ([*preds[:5], escaping, *preds[5:], late], [*preds[:5], late, escaping],
                [*preds, unmatched]):
        first, *others = [_outcome(lambda: significance_report(cat, form, DENSITY))
                          for form in [bad, PredictionSet.of(bad)]]
        assert first[0] == "error"
        assert others == [first]


@pytest.mark.parametrize("seed", range(3))
def test_empirical_significance_same_for_every_form(monkeypatch, seed):
    monkeypatch.setattr(mc, "_worker_count", lambda: 1)
    model = NullModel(300, SPAN, DENSITY, seed=seed)
    results = [empirical_significance(model, form, 6) for form in _forms(_predictions(seed))]
    for sim in results[1:]:
        assert sim.success_counts.tobytes() == results[0].success_counts.tobytes()
        assert sim.probabilities.tobytes() == results[0].probabilities.tobytes()
        assert sim.summary.to_dict() == results[0].summary.to_dict()


# ------------------------------------------------------------------ the table

def test_of_merges_equal_regions_in_order_of_first_use():
    a, b = Circle(1.0, 2.0, 3.0), ConvexPolygon(SQUARE)
    preds = [Prediction(0.0, 1.0, 2.0, region, 5.0)
             for region in (b, Circle(1.0, 2.0, 3.0), ConvexPolygon(SQUARE), a, b)]
    ps = PredictionSet.of(preds)
    assert ps.regions == (b, a)
    assert ps.region_index.tolist() == [0, 1, 0, 1, 0]
    assert PredictionSet.of(ps) is ps
    assert list(ps) == preds and ps[3] == preds[3] and ps[-1] == preds[-1]
    assert len(ps) == 5 and len(PredictionSet.of([])) == 0


def test_columns_are_read_only_copies():
    issue = np.array([0.0, 1.0])
    ps = PredictionSet(issue, [1.0, 2.0], [3.0, 4.0], [5.0, 5.0], [0, 0], [REGION])
    issue[0] = -7.0
    assert ps.issue_times[0] == 0.0
    for column in (ps.issue_times, ps.window_starts, ps.window_ends, ps.min_magnitudes,
                   ps.region_index):
        with pytest.raises(ValueError):
            column[0] = 1


@pytest.mark.parametrize("fields, message", [
    ((0.0, 5.0, 4.0, 5.0), "prediction window ends before it starts"),
    ((6.0, 5.0, 7.0, 5.0), "prediction issued after its window opened"),
    ((0.0, 1.0, np.inf, 5.0), "prediction fields must be finite"),
    ((7.0, 5.0, np.nan, 5.0), "prediction fields must be finite"),
])
def test_row_and_set_share_their_checks(fields, message):
    issue, start, end, magnitude = fields
    with pytest.raises(ValidationError) as row:
        Prediction(issue, start, end, REGION, magnitude)
    assert str(row.value) == message
    with pytest.raises(ValidationError) as table:
        PredictionSet([0.0, issue], [1.0, start], [2.0, end], [5.0, magnitude], [0, 0],
                      [REGION])
    assert str(table.value) == f"prediction 1: {message}"


def test_rows_of_a_checked_set_are_not_checked_again(monkeypatch):
    preds = _predictions(5, rectangles=True)
    ps = PredictionSet.of(preds)

    def refuse(*columns):
        raise AssertionError("a row of a checked set was checked again")

    monkeypatch.setattr(catalog_module, "_check_windows", refuse)
    rows = list(ps)
    assert rows == preds and [asdict(row) for row in rows] == [asdict(p) for p in preds]
    assert all(type(row) is Prediction for row in rows)
    assert {hash(row) for row in rows} == {hash(p) for p in preds}
    with pytest.raises(AssertionError, match="checked again"):
        Prediction(0.0, 1.0, 2.0, REGION, 5.0)
    monkeypatch.undo()
    with pytest.raises(ValidationError, match="prediction window ends before it starts"):
        Prediction(0.0, 5.0, 4.0, REGION, 5.0)


def test_set_rejects_misshapen_columns():
    with pytest.raises(ValidationError, match="equal length"):
        PredictionSet([0.0], [1.0, 2.0], [3.0], [5.0], [0], [REGION])
    with pytest.raises(ValidationError, match="point into regions"):
        PredictionSet([0.0], [1.0], [3.0], [5.0], [1], [REGION])


def test_parser_makes_one_circle_per_distinct_circle():
    text = ("issue_time,window_start,window_end,cx,cy,radius,min_magnitude\n"
            "0,1,5,10,20,3,5.0\n"
            "0,2,6, 10.0 ,2e1,3,4.5\n"
            "2,3,8,,,,4.5\n"
            "1,1,5,30,20,3,5.0\n"
            "2,3,9,,,,4.5\n")
    square = [[0, 0], [5, 0], [5, 5], [0, 5]]
    ps = parse_predictions(io.StringIO(text), polygons={"2": square, "4": square})
    assert ps.regions == (Circle(10.0, 20.0, 3.0), ConvexPolygon(square),
                          Circle(30.0, 20.0, 3.0))
    assert ps.region_index.tolist() == [0, 0, 1, 2, 1]
    assert ps.min_magnitudes.tolist() == [5.0, 4.5, 4.5, 5.0, 4.5]
