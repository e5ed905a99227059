"""Monte Carlo studies of the significance and delay statistics.

Synthetic catalogs draw event times uniformly on [0, span] and event
locations from a spatial density; all background events carry magnitude
5.0.  An optional clustering step converts a fraction of the events
into dependent followers (magnitude 4.0): each follower attaches to a
uniformly chosen background event and lags it by a truncated
exponential in time and an isotropic Gaussian step in space, which
breaks the independence the analytic null assumes in a controlled way.

Reproducibility: every replicate r gets its own counter-based stream,
``Philox(SeedSequence(seed, spawn_key=(r,)))``, so results do not
depend on execution order and any single replicate can be regenerated
in isolation (``child_rng``).  Building a ``SeedSequence`` and a
``Philox`` per replicate would cost more than a small replicate's
draws, so a range of replicates derives its Philox keys in bulk: numpy's
``SeedSequence`` hash-mix, run in exact uint32 arithmetic over a chunk
of replicate indices at once, gives keys identical to those
``SeedSequence(seed, spawn_key=(r,))`` generates.  One ``Philox`` is
then reset to each replicate's key, with counter 0 and an empty buffer,
the state a fresh generator starts in, so every draw is the one the
fresh generator would make.  The delay-moment helper uses one
sequential stream (replicates there are rows of a matrix, not catalogs).

Replicates run in contiguous ranges, one range per CPU this process
may run on, each in a worker process forked for it; the ranges'
results are joined in replicate order, so every result is the same for
any worker count.  Workers inherit the model, the alarms, the seed and
their range when they are forked, and send back only their success
counts or z-scores.  The work runs in this process instead when there
is one CPU, when there are fewer than two replicates, or off Linux,
where workers would be spawned and re-import the package and numpy.
Validation, chance probabilities and the tail table stay in this
process, so every parameter is checked before a worker starts, and the
region masses import ``scipy.special`` here, never first in a worker;
``numpy.random`` is imported here before the fork too.

Each replicate's draws, their order and their shapes, are fixed;
evaluation does not touch them.  Synthetic catalogs stay in draw order,
with no time sort, since ``count_hits`` sorts each alarm group's
qualifying times itself.  ``null_zscores`` fills a block of replicates
with their draws and then scores the whole block with one set of array
operations, bit for bit as a loop over replicates would; its records
stay in draw order too, except where suppression needs them sorted.

The delay-law simulations draw N - 1 event times for law parameter N:
conditioning on a signal inside a record of N uniform events leaves
N - 1 events interchangeable with the signal's position.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .catalog import Catalog, Prediction, PredictionSet
from .errors import QuakevalError, ValidationError
from .nulltest import (alarm_groups, alarm_probabilities, count_hits,
                       poisson_binomial_tails)
from .precursor import _tau_mean, _tau_var
from .spatial import SpatialDensity

BACKGROUND_MAGNITUDE = 5.0
INJECTED_MAGNITUDE = 4.0
# Rounds of follower redraws before ``_offset_into_region`` gives up.
_REDRAW_ROUNDS = 100_000


# numpy's SeedSequence hash-mix constants (numpy/random/bit_generator.pyx).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_WORD = 0xFFFFFFFF
# Replicates whose stream keys are derived in one pass: 16 bytes of key
# each.  2**32 is a multiple of it, so an aligned chunk of replicate
# indices never mixes indices of different 32-bit word counts.
_KEY_CHUNK = 4096


def _words(value) -> list:
    """The 32-bit words of a non-negative integer, least significant first,
    as ``SeedSequence`` splits its entropy (0 is one word)."""
    value = int(value)
    if value < 0:
        raise ValueError(f"expected a non-negative integer, got {value}")
    words = [value & _WORD]
    while value > _WORD:
        value >>= 32
        words.append(value & _WORD)
    return words


def _philox_keys(seed: int, first: int, stop: int) -> np.ndarray:
    """Keys of ``Philox(SeedSequence(seed, spawn_key=(r,)))`` for
    r = first, ..., stop - 1, shape (stop - first, 2) uint64, with all
    indices in one aligned ``_KEY_CHUNK``.

    This is ``SeedSequence``'s pool mixing and ``generate_state(2,
    np.uint64)``, run on one uint32 column per entropy word, one row per
    replicate; uint32 array arithmetic wraps modulo 2**32 as the C code's
    does.  Only the low word of r differs between the rows.
    """
    n = stop - first
    run = _words(seed)
    run += [0] * (4 - len(run))  # a spawned sequence pads its entropy to the pool
    low = np.arange(first & _WORD, (first & _WORD) + n, dtype=np.uint32)
    entropy = [np.full(n, w, np.uint32) for w in run] \
        + [low] + [np.full(n, w, np.uint32) for w in _words(first)[1:]]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * _MULT_A & _WORD
        value = value * np.uint32(const)
        return value ^ value >> np.uint32(16)

    def mix(x, y):
        value = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return value ^ value >> np.uint32(16)

    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty((n, 4), dtype="<u4")
    const = _INIT_B
    for i in range(4):
        value = pool[i] ^ np.uint32(const)
        const = const * _MULT_B & _WORD
        value = value * np.uint32(const)
        state[:, i] = value ^ value >> np.uint32(16)
    return state.view("<u8").astype(np.uint64)


def _replicate_streams(seed: int, first: int, stop: int):
    """Replicate r's stream for r = first, ..., stop - 1, in order.

    Each is one ``Generator`` on one ``Philox``, reset to the key of
    ``Philox(SeedSequence(seed, spawn_key=(r,)))`` with counter 0 and an
    empty buffer, the state such a fresh generator starts in.  The same
    object comes back every time, so a replicate's draws must be made
    before the next replicate's stream is asked for.  Keys are derived a
    ``_KEY_CHUNK`` at a time.
    """
    bit_generator = np.random.Philox(key=0)  # every draw follows a reset
    rng = np.random.Generator(bit_generator)
    zeros = np.zeros(4, dtype=np.uint64)
    lo = first
    while lo < stop:
        hi = min(stop, (lo // _KEY_CHUNK + 1) * _KEY_CHUNK)
        for key in _philox_keys(seed, lo, hi):
            bit_generator.state = {
                "bit_generator": "Philox", "state": {"counter": zeros, "key": key},
                "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
            yield rng
        lo = hi


def child_rng(seed: int, replicate: int) -> np.random.Generator:
    """Independent per-replicate stream; order of use is irrelevant."""
    return next(_replicate_streams(seed, replicate, replicate + 1))


def _check_seed(seed) -> None:
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")


def _check_positive(name: str, value) -> None:
    if not 0.0 < value < math.inf:  # also false for NaN
        raise ValidationError(f"{name} must be positive and finite, got {value:g}")


def _worker_count() -> int:
    """One worker per CPU this process may run on; 1 (run in process)
    where workers cannot be forked."""
    import multiprocessing  # only simulations pay for its import
    if not sys.platform.startswith("linux") \
            or "fork" not in multiprocessing.get_all_start_methods():
        return 1
    return len(os.sched_getaffinity(0))


def _range_worker(task, first: int, stop: int, conn) -> None:
    """In a forked worker: send ``task(first, stop)``, or its error."""
    try:
        result = task(first, stop)
    except Exception as exc:
        result = exc
    conn.send(result)


def _over_replicates(task, replicates: int) -> np.ndarray:
    """``task(0, replicates)``, where ``task(first, stop)`` gives the
    results of replicates first, ..., stop - 1 as one array.

    ``range(replicates)`` is split into one contiguous range per worker,
    each range runs in a forked worker process, and the results are
    concatenated in replicate order.  The task and its range reach a
    worker by fork inheritance, not by pickling, so the task may close
    over any object; only the result comes back, through a pipe.  An
    error in a range is raised here with its type and message.  The
    workers are joined on every path, and killed first on an error.
    """
    n_workers = min(_worker_count(), replicates) if replicates > 1 else 1
    if n_workers < 2:
        return task(0, replicates)
    import multiprocessing
    import numpy.random  # numpy loads it lazily: here once, not in every worker
    # Fork, not spawn: a spawned worker starts a new interpreter and imports
    # the package and numpy again, 0.29 s (median of 10 on a 2-vCPU VM)
    # against 5 ms for a forked one.  The fork happens on the calling
    # thread, and OpenBLAS's fork handler stops its thread pool first.
    fork = multiprocessing.get_context("fork")
    bounds = [replicates * w // n_workers for w in range(n_workers + 1)]
    workers = []
    try:
        for first, stop in zip(bounds[:-1], bounds[1:]):
            receive, send = fork.Pipe(duplex=False)
            proc = fork.Process(target=_range_worker, args=(task, first, stop, send))
            proc.start()
            workers.append((proc, receive))
            send.close()  # so that a worker that dies gives EOF, not a hang
        parts = []
        for proc, receive in workers:
            try:
                part = receive.recv()
            except EOFError:
                proc.join()
                raise QuakevalError(f"a simulation worker ended with exit code "
                                    f"{proc.exitcode} before sending its replicates") from None
            if isinstance(part, Exception):
                raise part
            parts.append(part)
    except BaseException:
        for proc, _ in workers:
            proc.kill()
        raise
    finally:
        for proc, receive in workers:
            proc.join()
            receive.close()
    return np.concatenate(parts)


@dataclass(frozen=True)
class ClusteringParams:
    """Dependent-event injection settings.

    fraction: share of the catalog converted to followers.
    time_decay: exponential scale of the follower lag (days).
    spatial_spread: Gaussian sigma of the follower offset (km).
    """

    fraction: float
    time_decay: float
    spatial_spread: float

    def __post_init__(self):
        if not 0.0 <= self.fraction < 1.0:
            raise ValidationError("clustering fraction must lie in [0, 1)")
        _check_positive("clustering time_decay", self.time_decay)
        _check_positive("clustering spatial_spread", self.spatial_spread)


@dataclass(frozen=True, eq=False)
class NullModel:
    """A synthetic-catalog generator: size, record span, spatial law."""

    n_events: int
    span: float
    spatial: SpatialDensity
    clustering: ClusteringParams | None = None
    seed: int = 0

    def __post_init__(self):
        _check_seed(self.seed)
        if self.n_events < 1:
            raise ValidationError("need at least one event")
        _check_positive("record span", self.span)
        if self.clustering is not None:
            n_inj = int(round(self.clustering.fraction * self.n_events))
            if self.n_events - n_inj < 1:
                raise ValidationError(
                    "clustering fraction leaves no background events")
            # The offset density never exceeds 1 / (2 pi spread^2), so no
            # parent's follower lands inside in any round with a chance
            # above this bound, summed over all rounds.
            spread = self.clustering.spatial_spread
            if n_inj and _REDRAW_ROUNDS * self.spatial.region.area \
                    / (2.0 * math.pi * spread ** 2) < 0.01:
                raise ValidationError(
                    f"clustering spatial_spread {spread:g} km is too wide for the "
                    f"study region: followers would almost never land inside it")


def _offset_into_region(base: np.ndarray, spread: float, region,
                        rng: np.random.Generator) -> np.ndarray:
    # Not regions.sample_inside: a rejected follower is redrawn around its
    # own parent and keeps its slot, where sample_inside fills the slots
    # in order with whichever candidates land inside.
    out = np.empty_like(base)
    todo = np.arange(len(base))
    for _ in range(_REDRAW_ROUNDS):
        if len(todo) == 0:
            return out
        cand = base[todo] + rng.standard_normal((len(todo), 2)) * spread
        ok = np.asarray(region.contains(cand[:, 0], cand[:, 1]), bool)
        out[todo[ok]] = cand[ok]
        todo = todo[~ok]
    raise ValidationError(f"clustering spatial_spread {spread:g} km: follower offsets "
                          f"keep landing outside the region")


def _simulate_arrays(model: NullModel, rng: np.random.Generator):
    """One catalog as raw arrays in draw order, background events first:
    times, xy, magnitudes, follower mask.  Nothing is sorted by time."""
    n = model.n_events
    cl = model.clustering
    n_inj = int(round(cl.fraction * n)) if cl is not None else 0
    n_bg = n - n_inj
    bg_t = rng.random(n_bg) * model.span
    bg_xy = model.spatial.sample_rng(n_bg, rng)
    if n_inj:
        parent = rng.integers(0, n_bg, n_inj)
        t_par = bg_t[parent]
        trunc = -np.expm1(-(model.span - t_par) / cl.time_decay)
        lag = -cl.time_decay * np.log1p(-rng.random(n_inj) * trunc)
        inj_t = np.minimum(t_par + lag, model.span)
        inj_xy = _offset_into_region(bg_xy[parent], cl.spatial_spread,
                                     model.spatial.region, rng)
        times = np.concatenate([bg_t, inj_t])
        xy = np.concatenate([bg_xy, inj_xy])
        injected = np.zeros(n, dtype=bool)
        injected[n_bg:] = True
    else:
        times, xy, injected = bg_t, bg_xy, np.zeros(n_bg, dtype=bool)
    mags = np.where(injected, INJECTED_MAGNITUDE, BACKGROUND_MAGNITUDE)
    return times, xy, mags, injected


def simulate_null_catalog(model: NullModel, replicate: int = 0) -> Catalog:
    """Build one synthetic catalog as a full Catalog object (which sorts
    the events by time, stably)."""
    rng = child_rng(model.seed, replicate)
    times, xy, mags, _ = _simulate_arrays(model, rng)
    return Catalog(times, xy[:, 0], xy[:, 1], mags, record_start=0.0,
                   record_end=model.span, region=model.spatial.region)


def ks_uniform_distance(samples) -> float:
    """One-sample Kolmogorov statistic against U[0, 1]."""
    u = np.sort(np.asarray(samples, dtype=float))
    n = len(u)
    if n == 0:
        raise ValidationError("need at least one sample")
    i = np.arange(1, n + 1)
    return float(np.max(np.maximum(i / n - u, u - (i - 1) / n)))


@dataclass(frozen=True)
class SimulationSummary:
    """Distribution summary of one statistic across replicates."""

    statistic: str
    samples: np.ndarray
    mean: float
    variance: float
    std_error: float
    quantiles: dict
    ks_uniform: float | None

    @classmethod
    def from_samples(cls, statistic: str, samples,
                     uniform_ks: bool = False) -> "SimulationSummary":
        arr = np.asarray(samples, dtype=float).copy()
        if arr.ndim != 1 or len(arr) == 0:
            raise ValidationError("need a non-empty 1-D sample array")
        arr.flags.writeable = False
        n = len(arr)
        var = float(arr.var(ddof=1)) if n > 1 else 0.0
        quantiles = {f"q{int(100 * q):02d}": float(np.quantile(arr, q))
                     for q in (0.05, 0.25, 0.5, 0.75, 0.95)}
        ks = ks_uniform_distance(arr) if uniform_ks and n > 1 else None
        return cls(statistic, arr, float(arr.mean()), var,
                   math.sqrt(var / n), quantiles, ks)

    @property
    def n_replicates(self) -> int:
        return len(self.samples)

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "n_replicates": self.n_replicates,
            "mean": self.mean,
            "variance": self.variance,
            "std_error": self.std_error,
            "quantiles": dict(self.quantiles),
            "ks_uniform": self.ks_uniform,
        }


@dataclass(frozen=True)
class SignificanceSimulation:
    """Exact significance levels of a prediction set across replicates."""

    summary: SimulationSummary
    success_counts: np.ndarray
    probabilities: np.ndarray

    def __post_init__(self):
        for name in ("success_counts", "probabilities"):
            arr = np.asarray(getattr(self, name))
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def mu(self) -> float:
        return float(self.probabilities.sum())


def empirical_significance(model: NullModel, predictions: Sequence[Prediction],
                           replicates: int,
                           exclude_injected: bool = False) -> SignificanceSimulation:
    """Distribution of the exact significance level across synthetic catalogs.

    The per-prediction chance probabilities come from the model itself
    (its density, span and event count), so with no clustering the
    levels are exact and should sit close to uniform.  With
    ``exclude_injected`` the follower events never count as successes
    while the null still budgets for the full event count, which is how
    a contaminated target population is emulated.

    Args:
        model: catalog generator.
        predictions: evaluated against every replicate.
        replicates: number of synthetic catalogs.
        exclude_injected: drop follower events before success counting.

    Returns:
        SignificanceSimulation; ``summary.samples`` holds the exact
        level P(X >= observed count) of each replicate.
    """
    if replicates < 1:
        raise ValidationError("need at least one replicate")
    ps = PredictionSet.of(predictions)
    if not len(ps):
        raise ValidationError("need at least one prediction")
    ps.check_record(model.spatial.region, 0, model.span * (1 + 1e-12), slack=0.0,
                    record="simulated record",
                    also=(ps.min_magnitudes > BACKGROUND_MAGNITUDE, lambda k: (
                        "no simulated events at or above magnitude "
                        f"{ps.min_magnitudes[k]:g}; the null model is undefined")))

    probs = alarm_probabilities(ps, model.spatial, model.span, model.n_events)
    tails = poisson_binomial_tails(probs)

    groups = alarm_groups(ps)

    def success_counts(first: int, stop: int) -> np.ndarray:
        counts = np.empty(stop - first, dtype=int)
        for i, rng in enumerate(_replicate_streams(model.seed, first, stop)):
            times, xy, mags, injected = _simulate_arrays(model, rng)
            if exclude_injected and injected.any():
                keep = ~injected
                times, xy, mags = times[keep], xy[keep], mags[keep]
            xs, ys = np.ascontiguousarray(xy.T)  # region tests run faster on unit strides
            counts[i] = count_hits(groups, times, xs, ys, mags)
        return counts

    counts = _over_replicates(success_counts, replicates)
    summary = SimulationSummary.from_samples("exact_significance", tails[counts],
                                             uniform_ks=True)
    return SignificanceSimulation(summary, counts, probs)


@dataclass(frozen=True)
class TauMoments:
    """Simulated delay moments with standard errors."""

    mean: float
    variance: float
    se_mean: float
    se_variance: float
    replicates: int


def empirical_tau_moments(t: float, n: int, span: float, replicates: int,
                          seed: int = 0) -> TauMoments:
    """Simulate the signal-to-next-event delay and summarize its moments.

    Each replicate places n - 1 events uniformly on [0, span] and
    measures the wait from t to the next event (span - t when none
    follows).  Generation is chunked; one sequential Philox stream
    keeps the result reproducible.
    """
    _check_seed(seed)
    _check_positive("record span", span)
    if n < 2:
        raise ValidationError("the delay law needs at least 2 events")
    if not 0.0 <= t <= span:
        raise ValidationError("signal time must lie in [0, span]")
    if replicates < 2:
        raise ValidationError("need at least 2 replicates")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    taus = np.empty(replicates)
    cols = n - 1
    chunk = max(1, 2_000_000 // cols)
    done = 0
    while done < replicates:
        rows = min(chunk, replicates - done)
        ev = rng.random((rows, cols)) * span
        t_column = np.full((rows, 1), float(t))
        taus[done:done + rows] = _next_event_waits(ev[:, None, :], t_column, span)[:, 0]
        done += rows
    mean = float(taus.mean())
    var = float(taus.var(ddof=1))
    centred = taus - mean
    m4 = float(np.mean(centred ** 4))
    var_of_var = (m4 - var * var * (replicates - 3) / (replicates - 1)) / replicates
    return TauMoments(mean, var, math.sqrt(var / replicates),
                      math.sqrt(max(var_of_var, 0.0)), replicates)


def _suppressed_times(ev: np.ndarray, u: np.ndarray, span: float,
                      delta: float) -> np.ndarray:
    """Signal times uniform on the record minus the deadtime after events.

    ``ev`` holds a block of replicates, shape (block, rows, n - 1): per
    replicate one sorted record per signal, or a single record (rows = 1)
    that all m signals share.  ``u`` holds each replicate's m raw
    uniforms, shape (block, m).  The allowed set is [0, span] with
    [e, e + delta] removed after every event e; its components are
    [0, e_1) and the post-deadtime remainder of each inter-event gap.
    Sampling by inverse CDF over the component lengths draws exactly the
    conditional-uniform law, with no rejection loop to stall when the
    allowed set is tiny.
    """
    n_block, n_rows, cols = ev.shape
    reopen = ev + delta  # component j > 0 starts where event j - 1's deadtime ends
    lens = np.empty((n_block, n_rows, cols + 1))
    lens[..., 0] = ev[..., 0]
    np.subtract(ev[..., 1:], reopen[..., :-1], out=lens[..., 1:-1])
    np.subtract(span, reopen[..., -1], out=lens[..., -1])
    np.clip(lens, 0.0, None, out=lens)
    total = lens.sum(axis=2)
    if (total <= 0).any():
        raise QuakevalError("the suppression window blankets the whole record")
    cum = np.cumsum(lens, axis=2, out=lens)
    v = u * total
    comp = (v[..., None] >= cum).sum(axis=2)
    reps = np.arange(n_block)[:, None]
    rows = np.arange(n_rows)  # broadcasts against the m signals
    before = np.maximum(comp - 1, 0)
    prior = np.where(comp > 0, cum[reps, rows, before], 0.0)
    start = np.where(comp > 0, reopen[reps, rows, before], 0.0)
    return start + (v - prior)


def _next_event_waits(ev: np.ndarray, t: np.ndarray, span: float) -> np.ndarray:
    """Wait from each signal to the next event, span - t when none follows.

    ``ev`` holds a block of records in any order, shape (block, rows,
    n - 1), and ``t`` the signal times, shape (block, m).  The wait is
    the smallest difference e - t over the records e at or after the
    signal, the same float as (next event) - t, since rounding a
    difference keeps its order.  Those differences are exactly the ones
    without a sign bit, and read as unsigned integers the bit patterns of
    doubles order the non-negative ones as numbers and put every negative
    one above them; so one integer minimum per signal finds the wait, and
    a minimum with the sign bit set means no event follows.
    """
    wait = (ev - t[..., None]).view(np.uint64).min(axis=2)
    return np.where(wait < 1 << 63, wait.view(np.float64), span - t)


# A block of delay replicates holds about this many (signal, event) pairs,
# at least one replicate's worth.  Blocks four times as large scored the
# plain `calibrate` delays about 15 % faster but raised peak memory 1.3 MB.
_BLOCK_DOUBLES = 16_384


def null_zscores(m: int, n_events: int, span: float, replicates: int,
                 seed: int = 0, suppression_window: float | None = None,
                 shared_catalog: bool = False) -> SimulationSummary:
    """Distribution of the delay z-score for signals with no forecast skill.

    Default: every signal gets its own record of n_events - 1 uniform
    events plus a uniform signal time, matching the independence the
    z-score's variance budget assumes.  ``shared_catalog`` instead
    issues all m signals against one record per replicate; the shared
    events correlate the delays and visibly inflate the z variance, so
    that mode is a diagnostic, not a calibration target.

    ``suppression_window`` emulates alarm deadtime: no signal may fall
    within that window after an event, and signal times are drawn
    uniformly from the rest of the record by inverse CDF (see
    ``_suppressed_times``).  Suppressed signals cluster in the stretch
    before an upcoming event, which drags z negative.

    Replicate r draws its event records, then its m signal uniforms, from
    its stream (see the module docstring); replicates are then scored a
    block at a time.
    """
    _check_seed(seed)
    if m < 1:
        raise ValidationError("need at least one signal per replicate")
    if n_events < 2:
        raise ValidationError("the delay law needs at least 2 events")
    _check_positive("record span", span)
    if replicates < 1:
        raise ValidationError("need at least one replicate")
    delta = suppression_window
    if delta is not None and not 0.0 < delta < span:
        raise ValidationError("suppression window must lie in (0, span)")

    cols = n_events - 1
    n_rows = 1 if shared_catalog else m

    def zscores(first: int, stop: int) -> np.ndarray:
        block = min(stop - first, max(1, _BLOCK_DOUBLES // (m * cols)))
        ev_buf = np.empty((block, n_rows, cols))
        u_buf = np.empty((block, m))
        zs = np.empty(stop - first)
        streams = _replicate_streams(seed, first, stop)
        for lo in range(0, stop - first, block):
            n_block = min(block, stop - first - lo)
            ev, u = ev_buf[:n_block], u_buf[:n_block]
            for i in range(n_block):
                rng = next(streams)
                rng.random(out=ev[i])
                rng.random(out=u[i])
            ev *= span
            if delta is None:
                t = u * span
            else:
                ev.sort(axis=2)
                t = _suppressed_times(ev, u, span, delta)
            tau = _next_event_waits(ev, t, span)
            e_y = _tau_mean(t, n_events, span).sum(axis=1)
            var_y = _tau_var(t, n_events, span).sum(axis=1)
            zs[lo:lo + n_block] = (tau.sum(axis=1) - e_y) / np.sqrt(var_y)
        return zs

    zs = _over_replicates(zscores, replicates)
    return SimulationSummary.from_samples("delay_z", zs, uniform_ks=False)
