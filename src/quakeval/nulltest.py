"""Success counting and chance-significance for prediction sets.

The null model: the observed background events (those at or above a
prediction's magnitude threshold) are shuffled uniformly in time over
the record and placed in space according to a fitted density.  Under
that null each prediction j succeeds independently with

    p_j = 1 - (1 - s_j * d_j / T) ** N

where s_j is the density mass of its region, d_j its window duration,
T the record span and N the background count.  The number of
successful predictions X is then Poisson-binomial.  Significance of an
observed count is available two ways:

* a normal approximation with continuity correction,
  z = (N_M - mu - 1/2) / sigma, significance = 1 - Phi(z);
* the exact tail P(X >= N_M) from the Poisson-binomial pmf.

``min_consistent_c`` inverts the approximation to the smallest
probability-enhancement factor c (p_j scaled to c * p_j) that leaves
the observed count unsurprising at level alpha; it is a lower
confidence bound on the enhancement the predictions achieve, to set
against the point estimate c_hat = N_M / mu.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .catalog import (Catalog, Prediction, PredictionSet, _pair_blocks,
                      validate_predictions_against)
from .errors import QuakevalError, ValidationError
from .regions import contains_region
from .spatial import SpatialDensity


def chance_probability(spatial_mass, duration, span: float, n_events):
    """P(at least one of n uniform events lands in the window) under the null.

    ``spatial_mass`` is the density mass of the prediction's region,
    ``duration`` the window length, ``span`` the record length and
    ``n_events`` the background count.  Mass, duration and count may be
    arrays (broadcast together, one entry per prediction); scalars in
    give a float out.
    """
    if span <= 0:
        raise ValidationError("record span must be positive")
    s = np.asarray(spatial_mass, dtype=float)
    d = np.asarray(duration, dtype=float)
    n = np.asarray(n_events)
    bad = ~((s >= 0.0) & (s <= 1.0 + 1e-9))
    if bad.any():
        raise ValidationError(f"spatial mass {s[bad].flat[0]:g} is outside [0, 1]")
    if (d < 0).any():
        raise ValidationError("window duration must be >= 0")
    long = d > span * (1 + 1e-12)
    if long.any():
        raise ValidationError(
            f"window duration {d[long].flat[0]:g} exceeds the record span {span:g}")
    if (n < 1).any():
        raise ValidationError("need at least one background event")
    q = np.minimum(s, 1.0) * np.minimum(d / span, 1.0)
    with np.errstate(divide="ignore"):
        p = -np.expm1(n * np.log1p(-q))
    out = np.where(q >= 1.0, 1.0, np.where(q <= 0.0, 0.0, p))
    return out if out.ndim else float(out)


def alarm_probabilities(predictions: Sequence[Prediction], density: SpatialDensity,
                        span: float, n_events) -> np.ndarray:
    """Chance probability of every prediction, one entry each.

    Each distinct alarm region is integrated under ``density`` once, in
    order of first use, and its mass shared by every prediction over it.
    ``n_events`` is the background count, a scalar or one per prediction.
    """
    ps = PredictionSet.of(predictions)
    masses = np.array([density.integrate(region) for region in ps.regions], dtype=float)
    return chance_probability(masses[ps.region_index], ps.window_ends - ps.window_starts,
                              span, n_events)


@dataclass(frozen=True)
class ChanceProbabilities:
    """Per-prediction null success probabilities and their aggregates."""

    probabilities: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probabilities, dtype=float)
        if p.ndim != 1 or len(p) == 0:
            raise ValidationError("need a non-empty 1-D probability array")
        if not np.isfinite(p).all() or (p < 0).any() or (p > 1).any():
            raise ValidationError("probabilities must lie in [0, 1]")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "probabilities", p)

    @property
    def m(self) -> int:
        return len(self.probabilities)

    @property
    def mu(self) -> float:
        return float(self.probabilities.sum())

    @property
    def sigma2(self) -> float:
        return float((self.probabilities * (1.0 - self.probabilities)).sum())

    @property
    def sigma(self) -> float:
        return self.sigma2 ** 0.5


def chance_probabilities(predictions: Sequence[Prediction], density: SpatialDensity,
                         catalog: Catalog) -> ChanceProbabilities:
    """Chance probabilities against a catalog's background.

    A prediction's background count N is the number of catalog events
    at or above its magnitude threshold.  The null spreads those events
    over the density's region, so it must be the catalog's study region
    (each contains the other).
    """
    ps = PredictionSet.of(predictions)
    if not len(ps):
        raise ValidationError("need at least one prediction")
    if not (contains_region(density.region, catalog.region)
            and contains_region(catalog.region, density.region)):
        raise ValidationError(f"the density's region {density.region!r} is not the "
                              f"catalog's study region {catalog.region!r}")
    thresholds = ps.min_magnitudes
    mags = np.sort(catalog.magnitudes)
    n_bg = len(mags) - np.searchsorted(mags, thresholds, side="left")
    if (n_bg == 0).any():
        raise ValidationError(
            f"no catalog events at or above magnitude {thresholds[n_bg == 0][0]:g}; "
            "the null model is undefined")
    return ChanceProbabilities(alarm_probabilities(ps, density, catalog.span, n_bg))


def alarm_groups(predictions: Sequence[Prediction]) -> list[tuple]:
    """Predictions grouped on (region, min_magnitude), as (region,
    min_magnitude, window_starts, window_ends, edges) tuples for
    ``count_hits``.  ``edges`` holds the starts, then the ends each
    nudged to the next float up: for a finite end e, the events at or
    before e are those before ``nextafter(e, inf)``, so one left search
    on the edges places both ends of every window."""
    ps = PredictionSet.of(predictions)
    first: dict[tuple, int] = {}
    keys = zip(ps.region_index.tolist(), ps.min_magnitudes.tolist())
    group = np.array([first.setdefault(key, len(first)) for key in keys], dtype=np.intp)
    order = np.argsort(group, kind="stable")
    starts, ends = ps.window_starts[order], ps.window_ends[order]
    stops = np.cumsum(np.bincount(group)).tolist()
    with np.errstate(over="ignore"):  # the largest float goes to inf, which holds too
        after = np.nextafter(ends, np.inf)
    return [(ps.regions[r], min_mag, starts[a:b], ends[a:b],
             np.concatenate([starts[a:b], after[a:b]]))
            for (r, min_mag), a, b in zip(first, [0, *stops], stops)]


def count_hits(groups: list[tuple], times: np.ndarray, xs: np.ndarray,
               ys: np.ndarray, mags: np.ndarray,
               bounds: tuple[np.ndarray, np.ndarray] | None = None) -> int:
    """Number of predictions with a qualifying event in window and region.

    ``groups`` comes from ``alarm_groups``; the event columns may come
    in any order, as each group sorts the times of its qualifying events.
    Windows are inclusive at both ends and magnitudes qualify at the
    threshold.  ``bounds``, when given, holds for each group the start
    and stop of the slice of the event columns outside which no event
    falls in any of its windows; only that slice is tested against the
    group's region.  Without it every event is tested.  A group whose
    threshold is at or below the smallest magnitude passed in excludes no
    event by magnitude, so its magnitudes are not tested.
    """
    floor = mags.min() if len(mags) else math.inf
    hits = 0
    for g, (region, min_mag, starts, _, edges) in enumerate(groups):
        sl = slice(None) if bounds is None else slice(bounds[0][g], bounds[1][g])
        t, x, y = times[sl], xs[sl], ys[sl]
        keep = region.contains(x, y)
        if not min_mag <= floor:  # also true when a magnitude is NaN
            keep &= mags[sl] >= min_mag
        ev = t[keep]  # a copy, sorted in place
        ev.sort()
        # events before each start, then events at or before each end
        at = np.searchsorted(ev, edges, side="left")
        hits += int(np.count_nonzero(at[len(starts):] > at[:len(starts)]))
    return hits


def count_successes(catalog: Catalog, predictions: Sequence[Prediction]) -> int:
    """Number of predictions that a catalog event satisfies.

    The catalog is sorted by time, so each alarm group tests only the
    events between its earliest window start and its latest window end.
    """
    groups = alarm_groups(predictions)
    t = catalog.times
    bounds = (np.searchsorted(t, [starts.min() for _, _, starts, _, _ in groups], side="left"),
              np.searchsorted(t, [ends.max() for _, _, _, ends, _ in groups], side="right"))
    return count_hits(groups, t, catalog.xs, catalog.ys, catalog.magnitudes, bounds)


def poisson_binomial_pmf(probs) -> np.ndarray:
    """Exact pmf of a sum of independent Bernoulli trials, length m + 1."""
    p = np.asarray(probs, dtype=float).ravel()
    if not np.isfinite(p).all() or (p < 0).any() or (p > 1).any():
        raise ValidationError("probabilities must lie in [0, 1]")
    pmf = np.zeros(len(p) + 1)
    pmf[0] = 1.0
    # after j trials the pmf is zero beyond j, exactly, so trial j
    # updates only the entries up to j + 1
    for j, pj in enumerate(p.tolist()):
        pmf[1:j + 2] = pmf[1:j + 2] * (1.0 - pj) + pmf[:j + 1] * pj
        pmf[0] *= 1.0 - pj
    return pmf


def poisson_binomial_tails(probs) -> np.ndarray:
    """Tails P(X >= k) for k = 0 .. m + 1, as one reverse cumulative sum of
    the pmf: non-increasing in k, and capped at 1.0 where the pmf's
    rounding carries its sum a few ulps past one.  P(X >= 0) is 1.0
    exactly, whatever the pmf's rounding."""
    pmf = poisson_binomial_pmf(probs)
    tails = np.zeros(len(pmf) + 1)
    np.minimum(np.cumsum(pmf[::-1])[::-1], 1.0, out=tails[:-1])
    tails[0] = 1.0
    return tails


def exact_poisson_binomial(probs, k: int) -> float:
    """Exact tail P(X >= k) for the Poisson-binomial count, read from
    ``poisson_binomial_tails``; 1.0 for k <= 0."""
    tails = poisson_binomial_tails(probs)
    return float(tails[min(max(k, 0), len(tails) - 1)])


def _aggregates(probs) -> tuple[np.ndarray, float, float]:
    cp = probs if isinstance(probs, ChanceProbabilities) \
        else ChanceProbabilities(np.asarray(probs, dtype=float))
    return cp.probabilities, cp.mu, cp.sigma


def clt_significance(probs, n_observed: int) -> tuple[float, float]:
    """Normal-approximation (z, significance) for an observed success count.

    significance = P(X >= n_observed) under the null, with continuity
    correction; small values mean the count is too high to be chance.
    """
    from scipy.special import ndtr
    _, mu, sigma = _aggregates(probs)
    if n_observed < 0:
        raise ValidationError("observed count must be >= 0")
    if sigma <= 0:
        raise ValidationError(
            "null variance is zero (all probabilities are 0 or 1); "
            "the normal approximation is undefined")
    z = (n_observed - mu - 0.5) / sigma
    return z, float(ndtr(-z))


def enhancement_estimate(probs, n_observed: int) -> float:
    """Point estimate c_hat = observed successes over expected successes."""
    _, mu, _ = _aggregates(probs)
    if mu <= 0:
        raise ValidationError("expected success count is zero")
    return n_observed / mu


@dataclass(frozen=True)
class CMin:
    """Smallest enhancement factor consistent with the observed count.

    ``capped`` flags the case where even the largest admissible factor
    (the one driving some c * p_j to 1) stays significant at level
    alpha; ``value`` is then that cap, not a root.
    """

    value: float
    capped: bool
    residual: float
    alpha: float


def min_consistent_c(probs, n_observed: int, alpha: float = 0.05) -> CMin:
    """Solve significance(c) = alpha for the scaled null p_j -> c * p_j.

    The scaled null has mean c * mu and variance sum c p_j (1 - c p_j);
    significance(c) rises monotonically with c, so the root below the
    point estimate c_hat is the smallest enhancement the data cannot
    reject at level alpha.
    """
    from scipy.special import ndtr
    p, mu, _ = _aggregates(probs)
    if not 0.0 < alpha < 0.5:
        raise ValidationError("alpha must lie in (0, 0.5)")
    if n_observed < 1:
        raise ValidationError("c_min needs at least one observed success")
    if mu <= 0:
        raise ValidationError("expected success count is zero")

    def significance(c: float) -> float:
        scaled = c * p
        var = float((scaled * (1.0 - scaled)).sum())
        if var <= 0:
            return 1.0 if n_observed - c * mu - 0.5 <= 0 else 0.0
        return float(ndtr((c * mu + 0.5 - n_observed) / var ** 0.5))

    c_hat = n_observed / mu
    c_cap = min(c_hat * 1.05, 1.0 / float(p.max()))

    def g(c: float) -> float:
        return significance(c) - alpha

    # coarse scan for a sign change, then polish
    grid = np.linspace(c_cap / 200.0, c_cap, 200)
    vals = np.array([g(c) for c in grid])
    idx = np.flatnonzero(vals >= 0.0)
    if len(idx) == 0:
        return CMin(c_cap, True, g(c_cap), alpha)
    i = int(idx[0])
    lo = grid[i - 1] if i > 0 else c_cap * 1e-12
    root = _brentq(g, float(lo), float(grid[i]), xtol=1e-13, rtol=8.9e-16)
    return CMin(root, False, g(root), alpha)


def _brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """A root of ``f`` between ``a`` and ``b``, where f changes sign, by
    Brent's method.  This transcribes the C routine behind
    ``scipy.optimize.brentq`` step for step, so it returns the same
    float, without loading ``scipy.optimize``."""
    xpre, xcur = a, b
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(100):  # scipy's default maxiter
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry  # a good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    raise QuakevalError("Brent's method did not converge in 100 steps")


def overlap_fraction(predictions: Sequence[Prediction]) -> float:
    """Fraction of prediction pairs overlapping in both time and space.

    Spatial overlap is judged on bounding boxes, so this errs on the
    large side; it gauges how far the independence assumption behind
    the Poisson-binomial null is stretched.  Windows overlap when each
    starts strictly before the other ends.  A sweep over the sorted
    window starts pairs each window only with the later-starting ones
    that open before it closes, so the work grows with the number of
    pairs overlapping in time, not with m^2.
    """
    ps = PredictionSet.of(predictions)
    m = len(ps)
    if m < 2:
        return 0.0
    order = np.argsort(ps.window_starts, kind="stable")
    starts, ends = ps.window_starts[order], ps.window_ends[order]
    boxes = np.array([region.bounding_box for region in ps.regions])[ps.region_index[order]]
    # sorted positions after i that open before window i closes
    stop = np.searchsorted(starts, ends, side="left")
    pairs = 0
    for _, i, j in _pair_blocks(np.arange(1, m + 1), stop):
        bi, bj = boxes[i], boxes[j]
        pairs += int(np.count_nonzero(
            (starts[i] < ends[j]) & (bi[:, 0] <= bj[:, 1]) & (bj[:, 0] <= bi[:, 1])
            & (bi[:, 2] <= bj[:, 3]) & (bj[:, 2] <= bi[:, 3])))
    return pairs / (m * (m - 1) / 2)


@dataclass(frozen=True)
class SignificanceReport:
    """Full evaluation of a prediction set against the chance null.
    ``to_dict`` gives the fields in declaration order, which is the
    report's key order."""

    n_predictions: int
    n_observed: int
    mu: float
    sigma: float
    z: float | None
    significance: float | None
    exact_significance: float | None
    c_hat: float
    c_min: float | None
    c_min_capped: bool
    c_min_residual: float | None
    alpha: float
    overlap_fraction: float

    def to_dict(self) -> dict:
        return asdict(self)


def significance_report(catalog: Catalog, predictions: Sequence[Prediction],
                        density: SpatialDensity, alpha: float = 0.05,
                        exact: bool = False) -> SignificanceReport:
    """Evaluate a prediction set end to end.

    Validates the predictions against the catalog, computes the chance
    probabilities under ``density``, counts successes, and assembles
    significance, enhancement and the alpha-level lower bound c_min
    (omitted when nothing succeeded).  When the null variance is zero
    (every probability is 0 or 1) the normal approximation is undefined:
    ``z`` and ``significance`` are None, and the exact tail, when asked
    for, is still given.  ``alpha`` must lie in (0, 0.5).
    """
    if not 0.0 < alpha < 0.5:
        raise ValidationError("alpha must lie in (0, 0.5)")
    ps = PredictionSet.of(predictions)
    validate_predictions_against(ps, catalog)
    cp = chance_probabilities(ps, density, catalog)
    n_obs = count_successes(catalog, ps)
    z, sig = clt_significance(cp, n_obs) if cp.sigma > 0 else (None, None)
    exact_sig = exact_poisson_binomial(cp.probabilities, n_obs) if exact else None
    c_hat = enhancement_estimate(cp, n_obs)
    cmin = min_consistent_c(cp, n_obs, alpha) if n_obs >= 1 else None
    return SignificanceReport(
        n_predictions=cp.m,
        n_observed=n_obs,
        mu=cp.mu,
        sigma=cp.sigma,
        z=z,
        significance=sig,
        exact_significance=exact_sig,
        c_hat=c_hat,
        c_min=cmin.value if cmin else None,
        c_min_capped=cmin.capped if cmin else False,
        c_min_residual=cmin.residual if cmin else None,
        alpha=alpha,
        overlap_fraction=overlap_fraction(ps),
    )
