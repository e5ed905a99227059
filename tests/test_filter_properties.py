"""Property tests for the aftershock filter against the per-event loop it
replaced, which is kept here as the oracle.

Catalogs are drawn with ties in time and magnitude, rounded and
continuous magnitudes, and zero windows.  Each example also runs with
the candidate-pair block cut to one pair and to seven.  Examples are
derandomized so every run checks the same cases.
"""

from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quakeval import AftershockPolicy, Catalog, Rectangle, filter_aftershocks
from quakeval import catalog as catalog_module

REGION = Rectangle(0.0, 100.0, 0.0, 100.0)
PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)
DEFAULT = [{}]
# blocks of one candidate pair, and blocks of a few rows, so that events
# often have several retained shadowers settled in earlier blocks
SMALL_BLOCKS = [{"_PAIR_BLOCK": 1}, {"_PAIR_BLOCK": 7}]


def reference(cat: Catalog, policy: AftershockPolicy):
    """The per-event loop: each event in time order against the events
    retained before it.  Returns the kept mask, the excluded positions
    and their culprits."""
    t, x, y, m = cat.times, cat.xs, cat.ys, cat.magnitudes
    starts = np.searchsorted(t, t - policy.time_window, side="left").tolist()
    stops = np.searchsorted(t, t, side="left").tolist()
    r2 = policy.distance_window ** 2
    kept = np.ones(len(cat), dtype=bool)
    culprit = np.full(len(cat), -1)
    for i, (lo, hi) in enumerate(zip(starts, stops)):
        shadow = kept[lo:hi] & (m[lo:hi] > m[i])
        if shadow.any():
            shadow &= (x[lo:hi] - x[i]) ** 2 + (y[lo:hi] - y[i]) ** 2 <= r2
            if shadow.any():
                kept[i] = False
                culprit[i] = lo + int(shadow.argmax())
    return kept, np.flatnonzero(~kept), culprit[~kept]


def filtered(cat: Catalog, policy: AftershockPolicy, overrides: dict):
    with ExitStack() as stack:
        for name, value in overrides.items():
            stack.enter_context(mock.patch.object(catalog_module, name, value))
        return filter_aftershocks(cat, policy)


def assert_matches_reference(cat: Catalog, policy: AftershockPolicy,
                             runs: list[dict]) -> None:
    kept, index, by = reference(cat, policy)
    for overrides in runs:
        res = filtered(cat, policy, overrides)
        assert np.array_equal(res.excluded_index, index), overrides
        assert np.array_equal(res.excluded_by, by), overrides
        assert res.excluded_by.dtype == by.dtype
        for col in ("times", "xs", "ys", "magnitudes"):
            assert np.array_equal(getattr(res.kept, col), getattr(cat, col)[kept])
            assert np.array_equal(getattr(res.excluded, col), getattr(cat, col)[~kept])
    again = filter_aftershocks(res.kept, policy)
    assert len(again.excluded) == 0
    assert np.array_equal(again.kept.times, res.kept.times)


@st.composite
def catalogs(draw):
    n = draw(st.integers(0, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    span = draw(st.sampled_from([5.0, 30.0, 200.0]))
    if draw(st.booleans()):
        t = rng.integers(0, int(span) + 1, n).astype(float)  # many ties
    else:
        t = rng.uniform(0.0, span, n)
    magnitudes = draw(st.sampled_from(["equal", "halves", "tenths", "continuous"]))
    m = {"equal": np.full(n, 5.0),
         "halves": 4.0 + 0.5 * rng.integers(0, 5, n),
         "tenths": np.round(rng.uniform(4.0, 7.0, n), 1),
         "continuous": rng.uniform(4.0, 7.0, n)}[magnitudes]
    if draw(st.booleans()):
        xy = rng.integers(0, 101, (n, 2)).astype(float)  # coincident epicentres
    else:
        xy = rng.uniform(0.0, 100.0, (n, 2))
    cat = Catalog(t, xy[:, 0], xy[:, 1], m, 0.0, span, REGION)
    policy = AftershockPolicy(draw(st.sampled_from([0.0, 1.0, 3.0, 10.0, 1000.0])),
                              draw(st.sampled_from([0.0, 5.0, 30.0, 200.0])))
    return cat, policy


@PROPERTY
@given(catalogs())
def test_filter_matches_the_per_event_loop(case):
    assert_matches_reference(*case, DEFAULT + SMALL_BLOCKS)


def test_filter_on_a_decreasing_chain_inside_one_window():
    """2000 events, each smaller than the one before, all within both
    windows of each other: the first shadows every later one."""
    n = 2000
    cat = Catalog(np.linspace(0.0, 9.0, n), np.full(n, 50.0), np.linspace(40.0, 60.0, n),
                  np.linspace(8.0, 4.0, n), 0.0, 10.0, REGION)
    policy = AftershockPolicy(10.0, 25.0)
    assert_matches_reference(cat, policy, DEFAULT)
    res = filter_aftershocks(cat, policy)
    assert len(res.kept) == 1 and np.all(res.excluded_by == 0)


@pytest.mark.parametrize("n", [2, 3, 500])
def test_filter_on_a_chain_where_each_event_shadows_only_the_next(n):
    """Kept and excluded alternate down the chain.  The vectorized pass
    settles only the second event, and the rest falls to the one-by-one
    pass."""
    cat = Catalog(6.0 * np.arange(n), np.full(n, 50.0), np.full(n, 50.0),
                  np.linspace(8.0, 4.0, n), 0.0, 6.0 * n, REGION)
    policy = AftershockPolicy(10.0, 1.0)
    assert_matches_reference(cat, policy, DEFAULT + SMALL_BLOCKS)
    res = filter_aftershocks(cat, policy)
    assert np.array_equal(res.excluded_index, np.arange(1, n, 2))
    assert np.array_equal(res.excluded_by, np.arange(0, n - 1, 2))


def test_filter_on_an_empty_catalog():
    cat = Catalog([], [], [], [], 0.0, 1.0, REGION)
    res = filter_aftershocks(cat, AftershockPolicy(10.0, 5.0))
    assert len(res.kept) == len(res.excluded) == 0
    assert len(res.excluded_index) == len(res.excluded_by) == 0
