"""Delay-time statistics between alarm signals and the next event.

Model: N events fall independently and uniformly on a record [0, T].
A signal issued at time t waits tau for the next event at or after t,
with tau = T - t if no event follows.  The waiting time then has

    tail      P(tau > u | t) = (1 - u/T)**(N-1)         for u < T - t
    mean      E[tau | t]     = (T/N) * (1 - (t/T)**N)
    variance  closed form below, vanishing at t = T

A batch of M signals is scored by summing observed delays and
standardizing against the summed conditional moments:

    z = (sum tau_hat_j - sum E[tau|t_j]) / sqrt(sum Var[tau|t_j])

Signals that systematically precede events give z well below zero
(precursor behaviour); signals that trail events give z above zero.
Both one-sided flags trip at a configurable threshold (default 2.5).

``extract_delays`` scores every catalog event: a signal's delay runs to
the next event of any magnitude anywhere in the catalog, and N counts
every event from the earliest signal on.  Each alarm's ``min_magnitude``
and region are ignored.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .catalog import Catalog, Prediction, PredictionSet
from .errors import ValidationError


def _check_law_args(t, n: int, span: float):
    if span <= 0:
        raise ValidationError("record span must be positive")
    if n < 2:
        raise ValidationError("the delay law needs at least 2 events")
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise ValidationError("signal times must be finite")
    if (t < 0).any() or (t > span * (1 + 1e-12)).any():
        raise ValidationError("signal times must lie in [0, span]")
    return t


def tau_tail(t, u, n: int, span: float):
    """P(tau > u | signal at t).  Vectorized over u (and t if same shape)."""
    t = np.minimum(_check_law_args(t, n, span), span)
    u = np.asarray(u, dtype=float)
    if (u < 0).any():
        raise ValidationError("delays must be >= 0")
    tail = np.where(u < span - t, (1.0 - np.minimum(u, span) / span) ** (n - 1), 0.0)
    return tail if tail.ndim else float(tail)


def tau_mean(t, n: int, span: float):
    """E[tau | signal at t] under the uniform-record law."""
    out = _tau_mean(_check_law_args(t, n, span), n, span)
    return out if out.ndim else float(out)


def _tau_mean(t: np.ndarray, n: int, span: float) -> np.ndarray:
    """``tau_mean`` without its argument checks; t is clipped to span."""
    a = np.minimum(t, span) / span
    return (span / n) * (1.0 - a ** n)


def tau_var(t, n: int, span: float):
    """Var[tau | signal at t] under the uniform-record law.

    At t = 0 this is T**2 (N-1) / (N**2 (N+1)); it decreases to zero at
    t = T.  (For N = 2, t = 0 it reduces to T**2 / 12.)
    """
    out = _tau_var(_check_law_args(t, n, span), n, span)
    return out if out.ndim else float(out)


def _tau_var(t: np.ndarray, n: int, span: float) -> np.ndarray:
    """``tau_var`` without its argument checks; t is clipped to span."""
    a = np.minimum(t, span) / span
    an = a ** n
    out = span ** 2 * ((n - 1.0) / (n * n * (n + 1.0))
                       - (2.0 * (n - 1.0) / (n * n)) * an
                       + (2.0 / (n + 1.0)) * an * a
                       - (1.0 / (n * n)) * an * an)
    # the analytic zero at t = span would otherwise carry rounding residue
    return np.where(a >= 1.0, 0.0, np.maximum(out, 0.0))


@dataclass(frozen=True)
class DelayData:
    """Delays of a prediction set against a catalog: read-only (m, 2)
    rows of (signal time, observed delay) in prediction order, and a
    bool column flagging censored signals.  Times are measured from
    ``origin`` (the earliest issue time); ``span`` runs to the last
    catalog event and ``n_events`` counts the events inside that window.
    """

    observations: np.ndarray
    censored: np.ndarray
    n_events: int
    span: float
    origin: float


def extract_delays(predictions: Sequence[Prediction], catalog: Catalog) -> DelayData:
    """Measure each prediction's waiting time to the next catalog event.

    The clock starts at the earliest issue time and the record is taken
    to end at the last event, so every in-window signal has a next
    event; a signal issued at or after the last event is clamped to the
    end of the record and contributes a censored zero delay.  Alarm
    magnitudes and regions are ignored (see the module docstring).
    """
    issue = PredictionSet.of(predictions).issue_times
    if not len(issue):
        raise ValidationError("need at least one prediction")
    if len(catalog) == 0:
        raise ValidationError("catalog is empty")
    origin = float(issue.min())
    times = catalog.times - origin
    times = times[times >= 0.0]
    if not len(times):
        raise ValidationError("no catalog events at or after the first signal")
    span = float(times[-1])
    if span <= 0:
        raise ValidationError(
            "all usable events coincide with the first signal; span is zero")
    t = issue - origin
    censored = t >= span
    t[censored] = span
    nxt = np.searchsorted(times, t, side="left")
    tau = np.where(censored, 0.0, times[np.minimum(nxt, len(times) - 1)] - t)
    observations = np.column_stack([t, tau])
    for arr in (observations, censored):
        arr.flags.writeable = False
    return DelayData(observations, censored, len(times), span, origin)


@dataclass(frozen=True)
class PrecursorResult:
    """Standardized delay-sum score for a batch of signals.  ``to_dict``
    gives the fields in declaration order, which is the report's key
    order."""

    m: int
    n_events: int
    span: float
    y_obs: float
    e_y: float
    var_y: float
    z: float
    threshold: float
    precursor_flag: bool
    postcursor_flag: bool

    def to_dict(self) -> dict:
        return asdict(self)


def precursor_test(observations, n_events: int, span: float,
                   threshold: float = 2.5) -> PrecursorResult:
    """Compare summed delays against the uniform-record expectation.

    Args:
        observations: the signal batch (at least one), an (m, 2)
            array-like of (signal time, observed delay) rows.
        n_events: events on the record, at least 2.
        span: record length T.
        threshold: |z| level at which the one-sided flags trip.

    Raises:
        ValidationError: bad inputs, or all signals at t = span (the
            delay variance is then zero and z is undefined).
    """
    obs = np.asarray(observations, dtype=float)
    if obs.size == 0:
        raise ValidationError("need at least one delay observation")
    if obs.ndim != 2 or obs.shape[1] != 2:
        raise ValidationError("delay observations must be an (m, 2) array")
    if not np.isfinite(obs).all():
        raise ValidationError("delay observations must be finite")
    if (obs < 0).any():
        raise ValidationError("signal time and delay must be >= 0")
    if not 0.0 < threshold < math.inf:  # also false for NaN
        raise ValidationError(f"threshold must be positive and finite, got {threshold:g}")
    t, tau = obs.T
    means = tau_mean(t, n_events, span)
    variances = tau_var(t, n_events, span)
    e_y = float(np.sum(means))
    var_y = float(np.sum(variances))
    if var_y <= 0:
        raise ValidationError(
            "total delay variance is zero (every signal sits at the end of "
            "the record); the score is undefined")
    y_obs = float(np.sum(tau))
    z = (y_obs - e_y) / math.sqrt(var_y)
    return PrecursorResult(
        y_obs=y_obs, e_y=e_y, var_y=var_y, z=z,
        precursor_flag=z <= -threshold,
        postcursor_flag=z >= threshold,
        m=len(obs), n_events=n_events, span=span,
        threshold=threshold,
    )
