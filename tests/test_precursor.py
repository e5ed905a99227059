import io
import math

import numpy as np
import pytest
from scipy import integrate as sintegrate

from quakeval import (Prediction, Rectangle,
                      ValidationError, extract_delays, precursor_test,
                      tau_mean, tau_tail, tau_var)
from quakeval.catalog import parse_earthquakes

SPAN = 1000.0


def test_tail_two_events_is_linear():
    # with one interior event the wait beyond u survives iff that event
    # falls outside [t, t+u], so the tail is 1 - u/T up to the record end
    u = np.linspace(0.0, 600.0, 7)
    np.testing.assert_allclose(tau_tail(200.0, u, 2, SPAN), 1.0 - u / SPAN,
                               rtol=1e-15)
    assert tau_tail(200.0, 900.0, 2, SPAN) == 0.0


def test_tail_boundaries():
    assert tau_tail(300.0, 0.0, 5, SPAN) == 1.0
    assert tau_tail(SPAN, 0.1, 5, SPAN) == 0.0
    vals = tau_tail(0.0, np.array([0.0, 500.0, 1000.0]), 3, SPAN)
    np.testing.assert_allclose(vals, [1.0, 0.25, 0.0], rtol=1e-15)


def test_mean_matches_tail_integral():
    for n in (2, 3, 10, 40):
        for t in (0.0, 137.5, 800.0):
            ref, err = sintegrate.quad(
                lambda u: float(tau_tail(t, u, n, SPAN)), 0.0, SPAN - t)
            assert err < 1e-6
            assert tau_mean(t, n, SPAN) == pytest.approx(ref, rel=1e-8)


def test_var_matches_tail_integral():
    for n in (2, 5, 25):
        for t in (0.0, 400.0):
            m2, err = sintegrate.quad(
                lambda u: 2.0 * u * float(tau_tail(t, u, n, SPAN)),
                0.0, SPAN - t)
            assert err < 1e-6
            mean = tau_mean(t, n, SPAN)
            assert tau_var(t, n, SPAN) == pytest.approx(m2 - mean * mean,
                                                        rel=1e-8)


def test_moment_boundary_identities():
    for n in (2, 7, 50):
        assert tau_mean(0.0, n, SPAN) == SPAN / n
        assert tau_mean(SPAN, n, SPAN) == 0.0
        assert tau_var(SPAN, n, SPAN) == 0.0
        expected0 = SPAN * SPAN * (n - 1) / (n * n * (n + 1))
        assert tau_var(0.0, n, SPAN) == pytest.approx(expected0, rel=1e-14)
    # two events, asked at the record start: uniform on [0, T]
    assert tau_var(0.0, 2, SPAN) == pytest.approx(SPAN * SPAN / 12.0,
                                                  rel=1e-14)


def test_moments_vectorize_and_stay_positive():
    t = np.linspace(0.0, SPAN, 101)
    mean = tau_mean(t, 12, SPAN)
    var = tau_var(t, 12, SPAN)
    assert mean.shape == var.shape == t.shape
    assert bool(np.all(mean >= 0.0)) and bool(np.all(var >= 0.0))
    # non-increasing everywhere (flat to rounding near t = 0), strictly
    # decreasing overall
    assert bool(np.all(np.diff(mean) <= 0.0))
    assert mean[0] > mean[-1]


def test_law_argument_validation():
    with pytest.raises(ValidationError):
        tau_mean(-1.0, 5, SPAN)
    with pytest.raises(ValidationError):
        tau_mean(SPAN * 1.01, 5, SPAN)
    with pytest.raises(ValidationError):
        tau_mean(10.0, 1, SPAN)
    with pytest.raises(ValidationError):
        tau_mean(10.0, 5, 0.0)
    with pytest.raises(ValidationError):
        tau_tail(10.0, -0.5, 5, SPAN)


def test_delay_observation_validation():
    precursor_test([(10.0, 5.0)], 5, SPAN)
    with pytest.raises(ValidationError, match="must be >= 0"):
        precursor_test([(-1.0, 5.0)], 5, SPAN)
    with pytest.raises(ValidationError, match="must be >= 0"):
        precursor_test([(10.0, -5.0)], 5, SPAN)


def _catalog(times):
    rows = "\n".join(f"{t},50.0,50.0,5.0" for t in times)
    return parse_earthquakes(io.StringIO("time,x,y,magnitude\n" + rows + "\n"))


def test_extract_delays_basic():
    cat = _catalog([10.0, 40.0, 100.0])
    region = Rectangle(0, 100, 0, 100)
    preds = [Prediction(15.0, 20.0, 30.0, region, 5.0),
             Prediction(45.0, 50.0, 55.0, region, 5.0)]
    data = extract_delays(preds, cat)
    assert data.origin == 15.0
    assert data.span == pytest.approx(85.0)
    # the event at 10 predates the first signal and is dropped
    assert data.n_events == 2
    # issued at 15 (shifted 0), next event at shifted 25
    assert data.observations[0, 0] == 0.0
    assert data.observations[0, 1] == pytest.approx(25.0)
    assert data.observations[1, 0] == pytest.approx(30.0)
    assert data.observations[1, 1] == pytest.approx(55.0)


def test_extract_delays_tie_gives_zero():
    cat = _catalog([10.0, 40.0])
    region = Rectangle(0, 100, 0, 100)
    preds = [Prediction(10.0, 12.0, 20.0, region, 5.0),
             Prediction(40.0, 41.0, 50.0, region, 5.0)]
    data = extract_delays(preds, cat)
    assert data.observations[0, 1] == 0.0
    assert data.observations[1, 1] == 0.0
    assert data.censored[1]


def test_extract_delays_after_last_event_censored():
    cat = _catalog([10.0, 40.0, 90.0])
    region = Rectangle(0, 100, 0, 100)
    preds = [Prediction(20.0, 25.0, 30.0, region, 5.0),
             Prediction(95.0, 96.0, 99.0, region, 5.0)]
    data = extract_delays(preds, cat)
    assert data.censored[1]
    assert data.observations[1, 1] == 0.0
    assert data.observations[1, 0] == pytest.approx(data.span)


def test_extract_delays_matches_reference_loop():
    """Integer times make signals tie with events and with each other;
    signals at or after the last event are censored."""
    region = Rectangle(0, 100, 0, 100)
    for seed in range(6):
        rng = np.random.default_rng(seed)
        cat = _catalog(rng.integers(0, 60, 25).tolist())
        issue = rng.integers(5, 70, 30).tolist()
        preds = [Prediction(t, t, t + 1.0, region, 5.0) for t in issue]
        data = extract_delays(preds, cat)

        origin = min(issue)
        times = [t - origin for t in cat.times.tolist() if t - origin >= 0.0]
        span = times[-1]
        ref, censored = [], []
        for p in preds:
            t = p.issue_time - origin
            censored.append(t >= span)
            ref.append((span, 0.0) if t >= span
                       else (t, next(e for e in times if e >= t) - t))
        assert any(censored) and not all(censored)
        assert np.array_equal(data.observations, np.array(ref))
        assert np.array_equal(data.censored, censored)
        assert (data.n_events, data.span, data.origin) == (len(times), span, origin)
        assert not data.observations.flags.writeable
        assert not data.censored.flags.writeable


def test_extract_delays_needs_events_after_origin():
    cat = _catalog([10.0])
    region = Rectangle(0, 100, 0, 100)
    preds = [Prediction(50.0, 60.0, 70.0, region, 5.0)]
    with pytest.raises(ValidationError):
        extract_delays(preds, cat)


def test_precursor_statistic_zero_for_expected_delays():
    n, span = 20, SPAN
    t = np.linspace(0.0, 900.0, 30)
    obs = [(ti, float(tau_mean(ti, n, span))) for ti in t]
    res = precursor_test(obs, n, span)
    assert res.z == pytest.approx(0.0, abs=1e-12)
    assert not res.precursor_flag and not res.postcursor_flag
    assert res.m == 30


def test_precursor_flag_for_short_delays():
    n, span = 20, SPAN
    t = np.linspace(0.0, 800.0, 40)
    obs = [(ti, 0.0) for ti in t]
    res = precursor_test(obs, n, span)
    assert res.z < -2.5
    assert res.precursor_flag and not res.postcursor_flag


def test_postcursor_flag_for_long_delays():
    n, span = 10, SPAN
    t = np.linspace(0.0, 500.0, 40)
    obs = [(ti, 3.0 * float(tau_mean(ti, n, span))) for ti in t]
    res = precursor_test(obs, n, span)
    assert res.z > 2.5
    assert res.postcursor_flag


def test_precursor_threshold_and_inputs_validated():
    obs = [(0.0, 10.0)]
    for threshold in (0.0, math.nan, math.inf):
        with pytest.raises(ValidationError, match="threshold must be positive and finite"):
            precursor_test(obs, 5, SPAN, threshold=threshold)
    with pytest.raises(ValidationError):
        precursor_test([], 5, SPAN)
    # every observation at the record end leaves no variance to test against
    degenerate = [(SPAN, 0.0)]
    with pytest.raises(ValidationError):
        precursor_test(degenerate, 5, SPAN)


def test_precursor_result_serializable():
    n, span = 15, SPAN
    t = np.linspace(0.0, 700.0, 25)
    rng = np.random.default_rng(7)
    obs = [(ti, float(tau_mean(ti, n, span)) * rng.uniform(0.5, 1.5)) for ti in t]
    res = precursor_test(obs, n, span)
    payload = res.to_dict()
    assert set(payload) >= {"z", "precursor_flag", "postcursor_flag",
                            "y_obs", "e_y", "var_y", "threshold", "m"}
    assert payload["z"] == res.z
    assert isinstance(payload["precursor_flag"], bool)


def test_statistic_matches_hand_computation():
    n, span = 8, 100.0
    ts = [0.0, 20.0, 50.0]
    taus = [5.0, 12.0, 1.0]
    obs = list(zip(ts, taus))
    res = precursor_test(obs, n, span)
    mean_sum = sum(float(tau_mean(t, n, span)) for t in ts)
    var_sum = sum(float(tau_var(t, n, span)) for t in ts)
    expected_z = (sum(taus) - mean_sum) / math.sqrt(var_sum)
    assert res.z == pytest.approx(expected_z, rel=1e-13)
    assert res.y_obs == pytest.approx(sum(taus))
    assert res.e_y == pytest.approx(mean_sum)
    assert res.var_y == pytest.approx(var_sum)
