import io

import numpy as np
import pytest
from scipy import stats
from scipy.special import ndtr

from quakeval import (Catalog, Circle, ConvexPolygon, ParametricDensity,
                      Prediction, Rectangle,
                      ValidationError, chance_probabilities,
                      chance_probability, clt_significance, count_successes,
                      enhancement_estimate, exact_poisson_binomial,
                      min_consistent_c, overlap_fraction,
                      poisson_binomial_pmf, significance_report)
from quakeval import catalog as catalog_module
from quakeval.catalog import parse_earthquakes, parse_predictions
from quakeval.nulltest import alarm_groups, count_hits

REGION = Rectangle(0.0, 200.0, 0.0, 200.0)


def test_chance_probability_reference_value():
    # 1 - (1 - 0.1)^10 for a full-region alarm covering a tenth of the record
    assert chance_probability(1.0, 10.0, 100.0, 10) == pytest.approx(
        0.6513215599000001, rel=1e-15)


def test_chance_probability_edges():
    assert chance_probability(0.0, 10.0, 100.0, 10) == 0.0
    assert chance_probability(0.5, 0.0, 100.0, 10) == 0.0
    assert chance_probability(1.0, 100.0, 100.0, 3) == 1.0
    with pytest.raises(ValidationError):
        chance_probability(1.0, 150.0, 100.0, 3)
    with pytest.raises(ValidationError):
        chance_probability(1.2, 10.0, 100.0, 3)
    with pytest.raises(ValidationError):
        chance_probability(0.5, 10.0, 100.0, 0)


def test_chance_probability_monotone():
    rng = np.random.default_rng(31)
    for _ in range(20):
        s = rng.uniform(0.05, 0.9)
        d = rng.uniform(1.0, 40.0)
        p_small = chance_probability(s, d, 100.0, 5)
        p_more_events = chance_probability(s, d, 100.0, 9)
        p_longer = chance_probability(s, d * 1.5, 100.0, 5)
        p_wider = chance_probability(min(s * 1.5, 1.0), d, 100.0, 5)
        assert p_more_events > p_small
        assert p_longer > p_small
        assert p_wider >= p_small


def test_chance_probability_arrays_match_scalars():
    rng = np.random.default_rng(5)
    s = np.concatenate([[0.0, 1.0, 1.0], rng.uniform(0.0, 1.0, 20)])
    d = np.concatenate([[10.0, 100.0, 0.0], rng.uniform(0.0, 100.0, 20)])
    n = np.concatenate([[4, 3, 5], rng.integers(1, 50, 20)])
    out = chance_probability(s, d, 100.0, n)
    assert out.shape == (23,)
    ref = [chance_probability(float(a), float(b), 100.0, int(c))
           for a, b, c in zip(s, d, n)]
    assert all(isinstance(v, float) for v in ref)
    assert out.tolist() == ref
    assert out[0] == 0.0 and out[1] == 1.0 and out[2] == 0.0
    with pytest.raises(ValidationError, match="spatial mass 1.2"):
        chance_probability(np.array([0.5, 1.2]), 10.0, 100.0, 3)
    with pytest.raises(ValidationError, match="duration 150"):
        chance_probability(0.5, np.array([10.0, 150.0]), 100.0, 3)


def test_chance_probability_tiny_values_accurate():
    # regime where 1-(1-q)^n underflows naive evaluation
    p = chance_probability(1e-12, 1e-3, 100.0, 3)
    assert p == pytest.approx(3e-17, rel=1e-9)


def test_poisson_binomial_matches_binomial():
    p = 0.3
    pmf = poisson_binomial_pmf([p] * 12)
    ref = stats.binom.pmf(np.arange(13), 12, p)
    assert np.allclose(pmf, ref, atol=1e-14)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-12)


def test_poisson_binomial_matches_enumeration():
    rng = np.random.default_rng(77)
    for _ in range(20):
        m = int(rng.integers(1, 11))
        p = rng.random(m)
        pmf = poisson_binomial_pmf(p)
        masks = (np.arange(1 << m)[:, None] >> np.arange(m)) & 1
        probs = np.where(masks == 1, p, 1.0 - p).prod(axis=1)
        ref = np.zeros(m + 1)
        np.add.at(ref, masks.sum(axis=1), probs)
        assert np.allclose(pmf, ref, atol=1e-13)


def test_exact_tail_identities():
    p = [0.2, 0.5, 0.9, 0.05]
    assert exact_poisson_binomial(p, 0) == 1.0
    assert exact_poisson_binomial(p, -3) == 1.0
    assert exact_poisson_binomial(p, 5) == 0.0
    pmf = poisson_binomial_pmf(p)
    for k in range(1, 5):
        tail = exact_poisson_binomial(p, k)
        assert tail == pytest.approx(pmf[k:].sum(), abs=1e-14)
        head = pmf[:k].sum()
        assert head + tail == pytest.approx(1.0, abs=1e-13)


def test_exact_tail_reference_value():
    # ten fair coins, at least eight heads: (45 + 10 + 1) / 1024
    assert exact_poisson_binomial([0.5] * 10, 8) == pytest.approx(
        0.0546875, abs=1e-15)


def test_clt_significance_reference_value():
    z, sig = clt_significance([0.5] * 10, 8)
    assert z == pytest.approx(1.5811388300841895, rel=1e-14)
    assert sig == pytest.approx(0.056923149003329024, rel=1e-13)
    assert sig == pytest.approx(float(ndtr(-z)), rel=1e-15)


def test_clt_significance_degenerate_variance():
    with pytest.raises(ValidationError):
        clt_significance([1.0, 1.0, 1.0], 3)
    with pytest.raises(ValidationError):
        clt_significance([], 0)


def test_clt_close_to_exact_for_many_alarms():
    rng = np.random.default_rng(12)
    p = rng.uniform(0.1, 0.4, 80)
    n_obs = int(round(p.sum() + 2.0 * np.sqrt((p * (1 - p)).sum())))
    _, approx = clt_significance(p, n_obs)
    exact = exact_poisson_binomial(p, n_obs)
    assert abs(approx - exact) < 0.02


def test_enhancement_estimate():
    probs = [0.2, 0.4, 0.1, 0.3]
    assert enhancement_estimate(probs, 2) == pytest.approx(2.0)
    assert enhancement_estimate(probs, 0) == 0.0
    with pytest.raises(ValidationError):
        enhancement_estimate([0.0, 0.0], 1)


def test_min_consistent_c_reference_instance():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(777)))
    p = rng.uniform(0.05, 0.4, 50)
    res = min_consistent_c(p, 17, alpha=0.05)
    assert not res.capped
    assert res.value == pytest.approx(0.9551767398322528, rel=1e-10)
    assert abs(res.residual) < 1e-6
    # the reported factor undercuts the point estimate
    assert res.value < 17 / p.sum()
    # independent re-check of the defining equation
    mu = res.value * p.sum()
    var = np.sum(res.value * p * (1.0 - res.value * p))
    assert ndtr((mu + 0.5 - 17) / np.sqrt(var)) == pytest.approx(0.05, abs=1e-9)


def test_min_consistent_c_seeded_instances():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(333)))
    for i in range(25):
        p = rng.uniform(0.05, 0.4, 50)
        mu = p.sum()
        sigma = np.sqrt((p * (1 - p)).sum())
        n_obs = int(np.clip(np.ceil(mu + rng.uniform(1.5, 3.0) * sigma), 1, 50))
        alpha = 0.05 if i % 2 == 0 else 0.01
        res = min_consistent_c(p, n_obs, alpha=alpha)
        if not res.capped:
            assert abs(res.residual) < 1e-6
            assert res.value < n_obs / mu


def test_min_consistent_c_observed_all_still_has_root():
    p = np.array([0.9, 0.95, 0.85, 0.9])
    res = min_consistent_c(p, 4, alpha=0.05)
    assert not res.capped
    assert abs(res.residual) < 1e-6
    assert 0.0 < res.value < 1.0


def test_min_consistent_c_capped_when_count_unreachable():
    # one alarm saturates at c = 1/0.5 = 2 while the rest stay tiny, so
    # no admissible factor can make ten hits plausible
    p = np.array([0.5] + [0.01] * 9)
    res = min_consistent_c(p, 10, alpha=0.05)
    assert res.capped
    assert res.value <= 2.0 + 1e-12
    assert res.residual < 0.0


def test_min_consistent_c_validation():
    with pytest.raises(ValidationError):
        min_consistent_c([0.2, 0.3], 1, alpha=0.6)
    with pytest.raises(ValidationError):
        min_consistent_c([0.2, 0.3], 0, alpha=0.05)


def _tiny_catalog():
    times = [5.0, 20.0, 45.0, 80.0]
    rows = "\n".join(
        f"{t},{50.0 + i},{60.0},{5.5}" for i, t in enumerate(times))
    text = "time,x,y,magnitude\n" + rows + "\n"
    return parse_earthquakes(io.StringIO(text), region=REGION,
                             record_start=0.0, record_end=100.0)


def test_prediction_hits_window_inclusive():
    cat = _tiny_catalog()
    region = Rectangle(40.0, 70.0, 50.0, 70.0)
    hit_end = Prediction(0.0, 10.0, 20.0, region, 5.0)
    assert count_successes(cat, [hit_end]) == 1
    miss = Prediction(0.0, 21.0, 40.0, region, 5.0)
    assert count_successes(cat, [miss]) == 0
    hit_start = Prediction(0.0, 45.0, 60.0, region, 5.0)
    assert count_successes(cat, [hit_start]) == 1
    mag_edge = Prediction(0.0, 10.0, 25.0, region, 5.5)
    assert count_successes(cat, [mag_edge]) == 1
    mag_above = Prediction(0.0, 10.0, 25.0, region, 5.6)
    assert count_successes(cat, [mag_above]) == 0


def test_prediction_hits_region_filter():
    cat = _tiny_catalog()
    far = Prediction(0.0, 0.0, 100.0, Rectangle(150, 199, 150, 199), 5.0)
    near = Prediction(0.0, 0.0, 100.0, Rectangle(40, 70, 50, 70), 5.0)
    assert count_successes(cat, [far]) == 0
    assert count_successes(cat, [near]) == 1
    assert count_successes(cat, [far, near]) == 1


def test_count_successes_matches_loop_reference():
    rng = np.random.default_rng(41)
    n = 400
    t = rng.uniform(0.0, 100.0, n)
    t[:40] = np.round(t[:40])  # events on window edges
    cat = Catalog(t, rng.uniform(0, 200, n), rng.uniform(0, 200, n),
                  np.round(rng.uniform(4.0, 6.0, n), 1), 0.0, 100.0, REGION)
    regions = [REGION, Rectangle(0, 100, 0, 100), Circle(120.0, 80.0, 30.0),
               ConvexPolygon([[20, 20], [90, 40], [60, 120]])]
    preds = []
    for _ in range(120):
        start = float(np.round(rng.uniform(0.0, 90.0)))
        end = start + float(np.round(rng.uniform(0.0, 10.0)))
        preds.append(Prediction(0.0, start, end, regions[rng.integers(4)],
                                float(rng.choice([4.0, 4.5, 5.0, 5.5]))))

    def hits(p):
        ok = ((cat.times >= p.window_start) & (cat.times <= p.window_end)
              & (cat.magnitudes >= p.min_magnitude)
              & p.region.contains(cat.xs, cat.ys))
        return bool(ok.any())

    expected = [hits(p) for p in preds]
    assert 0 < sum(expected) < len(preds)
    assert count_successes(cat, preds) == sum(expected)
    # the plain scan over every event, as the Monte Carlo runs it
    assert count_hits(alarm_groups(preds), cat.times, cat.xs, cat.ys,
                      cat.magnitudes) == sum(expected)
    for p, hit in zip(preds, expected):
        assert count_successes(cat, [p]) == hit


@pytest.mark.parametrize("mags", [[5.0, 5.0, 5.0], [4.5, 5.0, 5.5], [5.0, np.nan, 5.5]],
                         ids=["all-equal", "spread", "nan"])
def test_count_hits_tests_magnitudes_only_where_they_exclude(mags):
    """Thresholds at, below and above the smallest magnitude; a NaN
    magnitude never qualifies."""
    t, xs, ys = np.array([10.0, 20.0, 30.0]), np.full(3, 50.0), np.full(3, 50.0)
    mags = np.array(mags)
    preds = [Prediction(0.0, start, start + 5.0, REGION, threshold)
             for start in (8.0, 18.0, 28.0) for threshold in (4.0, 4.5, 5.0, 5.25, 6.0)]
    expected = sum(bool(((t >= p.window_start) & (t <= p.window_end)
                         & (mags >= p.min_magnitude)).any()) for p in preds)
    assert count_hits(alarm_groups(preds), t, xs, ys, mags) == expected
    assert count_hits(alarm_groups(preds), t[:0], xs[:0], ys[:0], mags[:0]) == 0


def _two_search_hits(groups, times, xs, ys, mags) -> int:
    """``count_hits`` as it was: a left search for the starts and a right
    search for the ends, on each group's sorted qualifying times."""
    hits = 0
    for region, min_mag, starts, ends, _ in groups:
        ev = np.sort(times[region.contains(xs, ys) & (mags >= min_mag)])
        hits += int(np.count_nonzero(np.searchsorted(ev, ends, side="right")
                                     > np.searchsorted(ev, starts, side="left")))
    return hits


@pytest.mark.parametrize("seed", range(6))
def test_count_hits_one_search_matches_two(seed):
    """Times on a coarse grid, so that window ends and starts fall on
    event times, on neighbouring floats and between; zero-length windows
    and a window at the largest float too."""
    rng = np.random.default_rng(seed)
    n = 300
    t = rng.integers(0, 40, n) * 0.5
    xs, ys = rng.uniform(0.0, 200.0, n), rng.uniform(0.0, 200.0, n)
    mags = rng.choice([4.0, 4.5, 5.0], n)
    zones = [Circle(60.0, 60.0, 50.0), Circle(140.0, 120.0, 40.0), REGION]
    preds = []
    for _ in range(120):
        start = float(rng.integers(0, 40) * 0.5)
        end = start + float(rng.choice([0.0, 0.5, 1.0, 3.5]))
        start, end = [float(np.nextafter(v, rng.choice([-np.inf, np.inf])))
                      if rng.random() < 0.3 else v for v in (start, end)]
        if end < start:
            end = start
        preds.append(Prediction(start, start, end, zones[rng.integers(0, 3)],
                                float(rng.choice([4.0, 4.5, 5.0, 5.5]))))
    preds.append(Prediction(0.0, 0.0, np.finfo(float).max, REGION, 4.0))
    groups = alarm_groups(preds)
    expected = _two_search_hits(groups, t, xs, ys, mags)
    assert 0 < expected < len(preds)
    assert count_hits(groups, t, xs, ys, mags) == expected


def test_chance_probabilities_integrate_each_region_once():
    class CountingDensity:
        def __init__(self, density):
            self.density, self.calls = density, []
            self.region = density.region

        def integrate(self, region):
            self.calls.append(region)
            return self.density.integrate(region)

    cat = _tiny_catalog()
    r1, r2 = Rectangle(0, 100, 0, 100), Circle(50.0, 50.0, 20.0)
    preds = [Prediction(0.0, 0.0, 20.0, r1, 5.0),
             Prediction(0.0, 10.0, 30.0, r2, 5.0),
             Prediction(0.0, 30.0, 50.0, Rectangle(0, 100, 0, 100), 5.6),
             Prediction(0.0, 40.0, 45.0, r2, 5.0)]
    density = CountingDensity(ParametricDensity.uniform(REGION))
    with pytest.raises(ValidationError, match="magnitude 5.6"):
        chance_probabilities(preds, density, cat)
    preds[2] = Prediction(0.0, 30.0, 50.0, Rectangle(0, 100, 0, 100), 5.0)
    cp = chance_probabilities(preds, density, cat)
    assert density.calls == [r1, r2]
    for p, prob in zip(preds, cp.probabilities):
        mass = density.density.integrate(p.region)
        assert prob == chance_probability(mass, p.duration, 100.0, 4)


def test_chance_probabilities_aggregates():
    cat = _tiny_catalog()
    density = ParametricDensity.uniform(REGION)
    preds = [
        Prediction(0.0, 0.0, 20.0, Rectangle(0, 100, 0, 100), 5.0),
        Prediction(0.0, 30.0, 50.0, Rectangle(0, 200, 0, 200), 5.0),
    ]
    cp = chance_probabilities(preds, density, cat)
    s1 = density.integrate(preds[0].region)
    expected0 = chance_probability(s1, 20.0, 100.0, 4)
    assert cp.probabilities[0] == pytest.approx(expected0, rel=1e-12)
    assert cp.m == 2
    assert cp.mu == pytest.approx(cp.probabilities.sum())
    assert cp.sigma == pytest.approx(np.sqrt(cp.sigma2))


def test_chance_probabilities_refuse_a_density_over_another_region():
    """The null spreads the catalog's events over the density's region, so
    a model over a larger or smaller square would misstate every chance."""
    cat = _tiny_catalog()
    preds = [Prediction(0.0, 0.0, 20.0, Rectangle(0, 100, 0, 100), 5.0)]
    for other in (Rectangle(-100.0, 300.0, -100.0, 300.0), Rectangle(0.0, 150.0, 0.0, 200.0)):
        with pytest.raises(ValidationError) as info:
            chance_probabilities(preds, ParametricDensity.uniform(other), cat)
        assert str(info.value) == (f"the density's region {other!r} is not the catalog's "
                                   f"study region {REGION!r}")
        with pytest.raises(ValidationError, match="is not the catalog's study region"):
            significance_report(cat, preds, ParametricDensity.uniform(other))


def test_overlap_fraction_hand_cases():
    r = Rectangle(0, 10, 0, 10)
    apart = [Prediction(0.0, 0.0, 5.0, r, 5.0),
             Prediction(0.0, 6.0, 9.0, r, 5.0)]
    assert overlap_fraction(apart) == 0.0
    same = [Prediction(0.0, 0.0, 5.0, r, 5.0),
            Prediction(0.0, 0.0, 5.0, r, 5.0)]
    assert overlap_fraction(same) == 1.0
    spatial_disjoint = [
        Prediction(0.0, 0.0, 5.0, Rectangle(0, 10, 0, 10), 5.0),
        Prediction(0.0, 2.0, 7.0, Rectangle(20, 30, 0, 10), 5.0)]
    assert overlap_fraction(spatial_disjoint) == 0.0
    assert overlap_fraction([Prediction(0.0, 0.0, 5.0, r, 5.0)]) == 0.0


def _overlap_fraction_loop(predictions) -> float:
    """The O(m^2) row loop the sweep replaced: each row against every
    later row."""
    m = len(predictions)
    starts = np.array([p.window_start for p in predictions])
    ends = np.array([p.window_end for p in predictions])
    boxes = np.array([p.region.bounding_box for p in predictions])
    pairs = 0
    for i in range(m - 1):
        t_olap = (starts[i + 1:] < ends[i]) & (starts[i] < ends[i + 1:])
        b = boxes[i + 1:]
        s_olap = ((boxes[i, 0] <= b[:, 1]) & (b[:, 0] <= boxes[i, 1])
                  & (boxes[i, 2] <= b[:, 3]) & (b[:, 2] <= boxes[i, 3]))
        pairs += int(np.count_nonzero(t_olap & s_olap))
    return pairs / (m * (m - 1) / 2)


@pytest.mark.parametrize("block", [1 << 15, 3])
@pytest.mark.parametrize("seed", range(6))
def test_overlap_fraction_matches_the_pairwise_loop(monkeypatch, seed, block):
    """Integer window ends make ties in time common, a third of the windows
    have zero length, and half the regions share their bounding boxes."""
    monkeypatch.setattr(catalog_module, "_PAIR_BLOCK", block)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(2, 150))
    shared = [Rectangle(0, 100, 0, 100), Circle(50.0, 50.0, 20.0), Rectangle(60, 90, 10, 40)]
    preds = []
    for _ in range(m):
        start = float(rng.integers(0, 40))
        end = start + float(rng.choice([0, 0, 0, 1, 2, 5, 30]) if seed % 2 else rng.integers(0, 8))
        region = shared[rng.integers(3)] if rng.random() < 0.5 else \
            Circle(*rng.uniform(20.0, 180.0, 2), float(rng.uniform(1.0, 20.0)))
        preds.append(Prediction(0.0, start, end, region, 5.0))
    want = _overlap_fraction_loop(preds)
    assert 0.0 < want
    assert overlap_fraction(preds) == want
    assert overlap_fraction(preds[::-1]) == want


def test_significance_report_on_fixture(datadir):
    catalog = parse_earthquakes(datadir / "earthquakes.csv",
                                region=Rectangle(0, 200, 0, 200),
                                record_start=0.0, record_end=1000.0)
    predictions = parse_predictions(datadir / "predictions.csv")
    density = ParametricDensity.uniform(Rectangle(0, 200, 0, 200))
    report = significance_report(catalog, predictions, density, exact=True)
    assert report.n_predictions == 60
    assert report.n_observed == 31
    assert 0.0 <= report.significance <= 1.0
    assert abs(report.significance - report.exact_significance) < 0.02
    assert report.c_hat == pytest.approx(report.n_observed / report.mu)
    assert report.c_min is not None and report.c_min < report.c_hat
    payload = report.to_dict()
    assert payload["n_observed"] == 31
    assert payload["alpha"] == 0.05


def test_significance_report_rejects_empty():
    cat = _tiny_catalog()
    density = ParametricDensity.uniform(REGION)
    with pytest.raises(ValidationError):
        significance_report(cat, [], density)
