import math
import multiprocessing
import os
import signal

import numpy as np
import pytest

from quakeval import (Circle, ClusteringParams, NullModel, ParametricDensity,
                      Prediction, QuakevalError, Rectangle, SimulationSummary,
                      ValidationError, child_rng, empirical_significance,
                      empirical_tau_moments, ks_uniform_distance,
                      null_zscores, simulate_null_catalog, tau_mean, tau_var)
from quakeval import mc
from quakeval.cli import run
from quakeval.mc import BACKGROUND_MAGNITUDE, INJECTED_MAGNITUDE
from quakeval.nulltest import (alarm_groups, alarm_probabilities, count_hits,
                               poisson_binomial_pmf)

REGION = Rectangle(0.0, 100.0, 0.0, 100.0)
UNIFORM = ParametricDensity.uniform(REGION)


def test_child_rng_reproducible_and_order_free():
    a = child_rng(19, 4).random(5)
    b = child_rng(19, 4).random(5)
    assert np.array_equal(a, b)
    # drawing replicate 3 first must not disturb replicate 4's stream
    child_rng(19, 3).random(100)
    c = child_rng(19, 4).random(5)
    assert np.array_equal(a, c)
    assert not np.array_equal(a, child_rng(19, 5).random(5))
    assert not np.array_equal(a, child_rng(20, 4).random(5))


def test_simulate_null_catalog_basic():
    model = NullModel(200, 500.0, UNIFORM, seed=3)
    cat = simulate_null_catalog(model, replicate=0)
    assert len(cat) == 200
    assert bool(np.all(cat.times >= 0.0)) and bool(np.all(cat.times <= 500.0))
    assert bool(np.all(np.diff(cat.times) >= 0.0))
    assert bool(np.all(REGION.contains(cat.xs, cat.ys)))
    assert bool(np.all(cat.magnitudes == BACKGROUND_MAGNITUDE))
    again = simulate_null_catalog(model, replicate=0)
    assert np.array_equal(cat.times, again.times)
    other = simulate_null_catalog(model, replicate=1)
    assert not np.array_equal(cat.times, other.times)


def test_simulate_clustered_catalog():
    clustering = ClusteringParams(0.3, 15.0, 5.0)
    model = NullModel(200, 500.0, UNIFORM, clustering=clustering, seed=8)
    cat = simulate_null_catalog(model)
    assert len(cat) == 200
    n_followers = int(np.sum(cat.magnitudes == INJECTED_MAGNITUDE))
    assert n_followers == round(0.3 * 200)
    assert bool(np.all(REGION.contains(cat.xs, cat.ys)))
    assert bool(np.all(cat.times <= 500.0))


def test_clustering_shortens_gaps_after_parents():
    # follower lags concentrate near their parents, so the median nearest
    # neighbour gap among follower times should undercut the uniform one
    clustering = ClusteringParams(0.45, 2.0, 3.0)
    model = NullModel(400, 1000.0, UNIFORM, clustering=clustering, seed=6)
    cat = simulate_null_catalog(model)
    follower_times = cat.times[cat.magnitudes == INJECTED_MAGNITUDE]
    background = cat.times[cat.magnitudes == BACKGROUND_MAGNITUDE]

    def median_gap(times):
        return float(np.median(
            np.min(np.abs(times[:, None] - background[None, :]), axis=1)))

    reference = np.random.default_rng(60).uniform(0.0, 1000.0,
                                                  len(follower_times))
    assert median_gap(follower_times) < 0.6 * median_gap(reference)


def test_model_validation():
    with pytest.raises(ValidationError):
        NullModel(0, 500.0, UNIFORM)
    with pytest.raises(ValidationError):
        NullModel(100, 0.0, UNIFORM)
    with pytest.raises(ValidationError):
        ClusteringParams(1.0, 10.0, 5.0)
    with pytest.raises(ValidationError):
        ClusteringParams(0.5, 0.0, 5.0)
    with pytest.raises(ValidationError):
        ClusteringParams(0.5, 10.0, -1.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="time_decay"):
            ClusteringParams(0.5, bad, 5.0)
        with pytest.raises(ValidationError, match="spatial_spread"):
            ClusteringParams(0.5, 10.0, bad)
        with pytest.raises(ValidationError, match="record span"):
            NullModel(100, bad, UNIFORM)
    with pytest.raises(ValidationError, match="seed"):
        NullModel(100, 500.0, UNIFORM, seed=-1)


def test_ks_uniform_distance_hand_values():
    assert ks_uniform_distance([0.5]) == pytest.approx(0.5)
    n = 10
    grid = (np.arange(1, n + 1) - 0.5) / n
    assert ks_uniform_distance(grid) == pytest.approx(0.5 / n)
    assert ks_uniform_distance([0.0, 1.0]) == pytest.approx(0.5)
    with pytest.raises(ValidationError):
        ks_uniform_distance([])


def test_simulation_summary_fields():
    s = SimulationSummary.from_samples("demo", [1.0, 2.0, 3.0, 4.0])
    assert s.mean == pytest.approx(2.5)
    assert s.variance == pytest.approx(np.var([1, 2, 3, 4], ddof=1))
    assert s.std_error == pytest.approx(np.sqrt(s.variance / 4))
    assert s.quantiles["q50"] == pytest.approx(2.5)
    assert s.ks_uniform is None
    assert s.n_replicates == 4
    assert not s.samples.flags.writeable
    d = s.to_dict()
    assert d["statistic"] == "demo" and d["n_replicates"] == 4
    single = SimulationSummary.from_samples("one", [2.0])
    assert single.variance == 0.0 and single.std_error == 0.0


def test_empirical_tau_moments_match_closed_form():
    span, n = 1000.0, 12
    for t in (0.0, 300.0):
        mom = empirical_tau_moments(t, n, span, 50_000, seed=5)
        assert abs(mom.mean - tau_mean(t, n, span)) < 5 * mom.se_mean
        assert abs(mom.variance - tau_var(t, n, span)) < 5 * mom.se_variance
    end = empirical_tau_moments(span, n, span, 100, seed=5)
    assert end.mean == 0.0 and end.variance == 0.0
    with pytest.raises(ValidationError):
        empirical_tau_moments(0.0, n, span, 1)


def test_null_zscores_reproducible():
    a = null_zscores(20, 50, 1000.0, 50, seed=31)
    b = null_zscores(20, 50, 1000.0, 50, seed=31)
    assert np.array_equal(a.samples, b.samples)
    assert a.statistic == "delay_z"


def test_null_zscores_calibrated():
    s = null_zscores(50, 100, 1000.0, 2000, seed=42)
    assert abs(s.mean) < 0.1
    assert 0.8 < s.variance < 1.2


def test_shared_catalog_inflates_variance():
    indep = null_zscores(40, 60, 1000.0, 600, seed=44)
    shared = null_zscores(40, 60, 1000.0, 600, seed=44, shared_catalog=True)
    assert shared.variance > indep.variance + 0.15


def test_suppression_drives_scores_negative():
    s = null_zscores(100, 20, 1000.0, 300, seed=43, suppression_window=200.0)
    assert s.mean < -3.0
    trip = float(np.mean(s.samples <= -2.5))
    assert trip > 0.9


def test_null_zscores_validation():
    with pytest.raises(ValidationError):
        null_zscores(0, 50, 1000.0, 10)
    with pytest.raises(ValidationError):
        null_zscores(10, 1, 1000.0, 10)
    with pytest.raises(ValidationError):
        null_zscores(10, 50, 1000.0, 0)
    with pytest.raises(ValidationError):
        null_zscores(10, 50, 1000.0, 10, suppression_window=1000.0)
    with pytest.raises(ValidationError):
        null_zscores(10, 50, 1000.0, 10, suppression_window=-2.0)
    with pytest.raises(ValidationError, match="seed"):
        null_zscores(10, 50, 1000.0, 10, seed=-3)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="record span"):
            null_zscores(10, 50, bad, 10)


def _slotted_predictions(count, span, duration, region, min_mag, seed):
    rng = np.random.default_rng(seed)
    slot = span / count
    preds = []
    for i in range(count):
        start = i * slot + rng.uniform(0.0, slot - duration)
        preds.append(Prediction(start, start, start + duration, region, min_mag))
    return preds


def test_empirical_significance_roughly_uniform():
    model = NullModel(400, 1000.0, UNIFORM, seed=15)
    preds = _slotted_predictions(100, 1000.0, 6.0, REGION, 5.0, seed=16)
    sim = empirical_significance(model, preds, 400)
    assert sim.summary.n_replicates == 400
    assert len(sim.probabilities) == 100
    assert 0.35 < sim.summary.mean < 0.65
    assert sim.summary.ks_uniform is not None
    assert sim.summary.ks_uniform < 0.2
    assert bool(np.all(sim.success_counts >= 0))
    assert sim.mu == pytest.approx(sim.probabilities.sum())


def test_exclude_injected_weakens_observed_counts():
    clustering = ClusteringParams(0.3, 15.0, 10.0)
    model = NullModel(300, 1000.0, UNIFORM, clustering=clustering, seed=901)
    preds = _slotted_predictions(50, 1000.0, 2.0, REGION, 4.0, seed=650)
    kept = empirical_significance(model, preds, 300)
    dropped = empirical_significance(model, preds, 300, exclude_injected=True)
    assert dropped.summary.mean > kept.summary.mean
    assert dropped.success_counts.sum() <= kept.success_counts.sum()


def test_empirical_significance_validation():
    model = NullModel(100, 1000.0, UNIFORM, seed=1)
    preds = _slotted_predictions(5, 1000.0, 4.0, REGION, 5.0, seed=2)
    with pytest.raises(ValidationError):
        empirical_significance(model, preds, 0)
    with pytest.raises(ValidationError):
        empirical_significance(model, [], 10)
    outside = [Prediction(900.0, 990.0, 1100.0, REGION, 5.0)]
    with pytest.raises(ValidationError):
        empirical_significance(model, outside, 10)


def test_empirical_significance_rejects_threshold_above_simulated_magnitudes():
    model = NullModel(100, 1000.0, UNIFORM, seed=1)
    preds = _slotted_predictions(3, 1000.0, 4.0, REGION, BACKGROUND_MAGNITUDE, seed=2)
    preds[1] = Prediction(preds[1].issue_time, preds[1].window_start,
                          preds[1].window_end, REGION, BACKGROUND_MAGNITUDE + 0.5)
    with pytest.raises(ValidationError, match=r"prediction 1: no simulated events "
                                              r"at or above magnitude 5\.5"):
        empirical_significance(model, preds, 10)


def test_zero_count_levels_are_at_most_one():
    """A replicate with no hits reads the tail at 0, which the pmf's
    rounding can carry past one; every level written must be at most 1."""
    zero_counts = 0
    for seed in range(16):
        rng = np.random.default_rng(seed)
        starts = rng.uniform(0.0, 50.0, 6)
        preds = [Prediction(s, s, s + d, Circle(50.0, 50.0, r), 5.0) for s, d, r
                 in zip(starts, rng.uniform(0.0, 10.0, 6), rng.uniform(1.0, 10.0, 6))]
        sim = empirical_significance(NullModel(20, 100.0, UNIFORM, seed=seed), preds, 20)
        assert bool(np.all(sim.summary.samples <= 1.0))
        zero_counts += int(np.sum(sim.success_counts == 0))
    assert zero_counts > 0


# ---------------------------------------------------------------------------
# Reference loops: one replicate at a time, each catalog sorted by time
# before its hits are counted.  The Monte Carlo must reproduce them exactly.

def _reference_catalog(model, rng):
    n = model.n_events
    cl = model.clustering
    n_inj = int(round(cl.fraction * n)) if cl is not None else 0
    n_bg = n - n_inj
    bg_t = rng.random(n_bg) * model.span
    bg_xy = model.spatial.sample_rng(n_bg, rng)
    injected = np.zeros(n, dtype=bool)
    times, xy = bg_t, bg_xy
    if n_inj:
        parent = rng.integers(0, n_bg, n_inj)
        t_par = bg_t[parent]
        trunc = -np.expm1(-(model.span - t_par) / cl.time_decay)
        lag = -cl.time_decay * np.log1p(-rng.random(n_inj) * trunc)
        inj_t = np.minimum(t_par + lag, model.span)
        inj_xy = mc._offset_into_region(bg_xy[parent], cl.spatial_spread,
                                        model.spatial.region, rng)
        times = np.concatenate([bg_t, inj_t])
        xy = np.concatenate([bg_xy, inj_xy])
        injected[n_bg:] = True
    order = np.argsort(times, kind="stable")
    mags = np.where(injected, INJECTED_MAGNITUDE, BACKGROUND_MAGNITUDE)
    return times[order], xy[order], mags[order], injected[order]


def _reference_hits(predictions, times, xy, mags):
    """Hits on a time-sorted catalog, with no sort of its own."""
    hits = 0
    for region, min_mag, starts, ends in alarm_groups(predictions):
        ev = times[(mags >= min_mag) & region.contains(xy[:, 0], xy[:, 1])]
        hits += int(np.count_nonzero(np.searchsorted(ev, ends, side="right")
                                     > np.searchsorted(ev, starts, side="left")))
    return hits


def _reference_significance(model, predictions, replicates, exclude_injected):
    pmf = poisson_binomial_pmf(alarm_probabilities(predictions, model.spatial,
                                                   model.span, model.n_events))
    tails = np.append(np.cumsum(pmf[::-1])[::-1], 0.0)
    counts = np.empty(replicates, dtype=int)
    for r in range(replicates):
        times, xy, mags, injected = _reference_catalog(model, child_rng(model.seed, r))
        if exclude_injected:
            times, xy, mags = times[~injected], xy[~injected], mags[~injected]
        counts[r] = _reference_hits(predictions, times, xy, mags)
    return counts, tails[counts]


def _reference_zscores(m, n_events, span, replicates, seed, delta, shared):
    cols = n_events - 1
    n_rows = 1 if shared else m
    rows = np.arange(n_rows)
    zs = np.empty(replicates)
    for r in range(replicates):
        rng = child_rng(seed, r)
        ev = np.sort(rng.random((n_rows, cols)) * span, axis=1)
        if delta is None:
            t = rng.random(m) * span
        else:
            starts = np.concatenate([np.zeros((n_rows, 1)), ev + delta], axis=1)
            ends = np.concatenate([ev, np.full((n_rows, 1), span)], axis=1)
            lens = np.clip(ends - starts, 0.0, None)
            cum = np.cumsum(lens, axis=1)
            u = rng.random(m) * lens.sum(axis=1)
            comp = (u[:, None] >= cum).sum(axis=1)
            prior = np.where(comp > 0, cum[rows, np.maximum(comp - 1, 0)], 0.0)
            t = starts[rows, comp] + (u - prior)
        k = (ev < t[:, None]).sum(axis=1)
        nxt = ev[rows, np.minimum(k, cols - 1)]
        tau = np.where(k < cols, nxt - t, span - t)
        e_y = float(np.sum(tau_mean(t, n_events, span)))
        var_y = float(np.sum(tau_var(t, n_events, span)))
        zs[r] = (float(tau.sum()) - e_y) / math.sqrt(var_y)
    return zs


def _zone_predictions(seed):
    """Alarms over three circles and the whole region, mixed thresholds."""
    rng = np.random.default_rng(seed)
    zones = [Circle(30.0, 40.0, 15.0), Circle(70.0, 70.0, 25.0),
             Circle(55.0, 20.0, 8.0), REGION]
    preds = []
    for j in range(40):
        start = rng.uniform(0.0, 960.0)
        preds.append(Prediction(start, start, start + rng.uniform(2.0, 40.0),
                                zones[j % 4], float(rng.choice([4.0, 4.5, 5.0]))))
    return preds


BUMP = ParametricDensity.from_mixture((40.0, 60.0), np.diag([1 / 200.0, 1 / 450.0]),
                                      0.5, REGION)


@pytest.mark.parametrize("clustering, exclude", [
    (None, False), (ClusteringParams(0.3, 10.0, 4.0), True)], ids=["plain", "clustered"])
@pytest.mark.parametrize("replicates", [1, 23])
def test_significance_replicates_equal_reference_loop(clustering, exclude, replicates):
    model = NullModel(300, 1000.0, BUMP, clustering=clustering, seed=71)
    preds = _zone_predictions(72)
    sim = empirical_significance(model, preds, replicates, exclude_injected=exclude)
    counts, levels = _reference_significance(model, preds, replicates, exclude)
    assert np.array_equal(sim.success_counts, counts)
    assert np.array_equal(sim.summary.samples, levels)


@pytest.mark.parametrize("shared", [False, True], ids=["independent", "shared"])
@pytest.mark.parametrize("delta", [None, 60.0], ids=["plain", "suppressed"])
@pytest.mark.parametrize("m, n_events", [(17, 37), (3, 600)])
def test_delay_replicates_equal_reference_loop(shared, delta, m, n_events):
    block = max(1, mc._BLOCK_DOUBLES // (m * (n_events - 1)))
    replicates = 2 * block + 1  # two full blocks and a partial one
    for reps in (1, replicates):
        got = null_zscores(m, n_events, 1000.0, reps, seed=73,
                           suppression_window=delta, shared_catalog=shared)
        want = _reference_zscores(m, n_events, 1000.0, reps, 73, delta, shared)
        assert np.array_equal(got.samples, want)


def test_count_hits_ignores_event_order():
    model = NullModel(400, 1000.0, BUMP, seed=74)
    cat = simulate_null_catalog(model)
    groups = alarm_groups(_zone_predictions(75))
    sorted_hits = count_hits(groups, cat.times, cat.xs, cat.ys, cat.magnitudes)
    shuffle = np.random.default_rng(76).permutation(len(cat))
    shuffled_hits = count_hits(groups, cat.times[shuffle], cat.xs[shuffle],
                               cat.ys[shuffle], cat.magnitudes[shuffle])
    assert sorted_hits == shuffled_hits > 0


def test_simulated_catalog_equals_reference():
    clustering = ClusteringParams(0.3, 10.0, 4.0)
    model = NullModel(300, 1000.0, BUMP, clustering=clustering, seed=77)
    cat = simulate_null_catalog(model, replicate=5)
    times, xy, mags, _ = _reference_catalog(model, child_rng(77, 5))
    assert np.array_equal(cat.times, times)
    assert np.array_equal(np.column_stack([cat.xs, cat.ys]), xy)
    assert np.array_equal(cat.magnitudes, mags)


# ---------------------------------------------------------------------------
# Worker processes: any worker count gives the same bytes, and no worker
# outlives a run.

def _under_worker_counts(monkeypatch, simulate, counts=(1, 2, 3)):
    results = []
    for workers in counts:
        monkeypatch.setattr(mc, "_worker_count", lambda workers=workers: workers)
        results.append(simulate())
        assert multiprocessing.active_children() == []
    return results


@pytest.mark.parametrize("clustering, exclude", [
    (None, False), (ClusteringParams(0.3, 10.0, 4.0), True)], ids=["plain", "clustered"])
@pytest.mark.parametrize("replicates", [2, 7], ids=["fewer-than-workers", "seven"])
def test_significance_same_for_any_worker_count(monkeypatch, clustering, exclude,
                                                replicates):
    model = NullModel(300, 1000.0, BUMP, clustering=clustering, seed=81)
    preds = _zone_predictions(82)
    first, *others = _under_worker_counts(monkeypatch, lambda: empirical_significance(
        model, preds, replicates, exclude_injected=exclude))
    for sim in others:
        assert sim.success_counts.tobytes() == first.success_counts.tobytes()
        assert sim.summary.samples.tobytes() == first.summary.samples.tobytes()
        assert sim.summary.to_dict() == first.summary.to_dict()


@pytest.mark.parametrize("delta, shared", [(None, False), (60.0, False), (None, True)],
                         ids=["plain", "suppressed", "shared"])
@pytest.mark.parametrize("blocks", [None, 1, 2],
                         ids=["fewer-than-workers", "one-block", "two-blocks"])
def test_delay_zscores_same_for_any_worker_count(monkeypatch, delta, shared, blocks):
    m, n_events = 17, 37
    block = mc._BLOCK_DOUBLES // (m * (n_events - 1))
    replicates = 2 if blocks is None else blocks * block
    first, *others = _under_worker_counts(monkeypatch, lambda: null_zscores(
        m, n_events, 1000.0, replicates, seed=83, suppression_window=delta,
        shared_catalog=shared))
    assert first.n_replicates == replicates
    for summary in others:
        assert summary.samples.tobytes() == first.samples.tobytes()
        assert summary.to_dict() == first.to_dict()


STALL = "follower offsets keep landing outside the region"


def _stall():
    raise QuakevalError(STALL)


def _fail_at_replicate(monkeypatch, replicate, fail):
    real = mc.child_rng

    def child_rng_or_fail(seed, r):
        if r == replicate:
            fail()
        return real(seed, r)

    monkeypatch.setattr(mc, "child_rng", child_rng_or_fail)


def test_worker_error_reaches_caller_as_in_process(monkeypatch):
    """Replicate 5 lies in the last range for 2 and 3 workers."""
    _fail_at_replicate(monkeypatch, 5, _stall)
    model = NullModel(100, 1000.0, UNIFORM, seed=84)
    preds = _slotted_predictions(5, 1000.0, 4.0, REGION, 5.0, seed=85)

    def caught():
        with pytest.raises(Exception) as info:
            empirical_significance(model, preds, 8)
        return type(info.value), str(info.value)

    errors = _under_worker_counts(monkeypatch, caught)
    assert errors == [(QuakevalError, STALL)] * 3


def test_worker_error_gives_the_same_cli_exit(monkeypatch, capsys):
    _fail_at_replicate(monkeypatch, 5, _stall)
    argv = ["simulate", "--mode", "delays", "--replicates", "8", "--n-events", "20",
            "--span", "1000", "--m-signals", "4"]
    outcomes = _under_worker_counts(
        monkeypatch, lambda: (run(argv), capsys.readouterr().err), counts=(1, 2))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0] == (1, f"error: {STALL}\n")


def test_worker_that_dies_is_an_error_not_a_hang(monkeypatch):
    def hang(signum, frame):
        raise TimeoutError("the run waited on a dead worker")

    _fail_at_replicate(monkeypatch, 5, lambda: os._exit(3))
    monkeypatch.setattr(mc, "_worker_count", lambda: 2)
    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(60)
    try:
        with pytest.raises(QuakevalError, match="exit code 3"):
            null_zscores(4, 20, 1000.0, 8, seed=86)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert multiprocessing.active_children() == []
