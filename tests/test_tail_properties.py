"""Property tests for the Poisson-binomial null and the enhancement bound:
the pmf sums to one, the exact tail is a probability that never rises
with k, the Monte Carlo reads the report's tail at a count of 0, and
``c_min`` lies below ``c_hat`` whenever it is a root rather than the cap.

Probabilities range over [0, 1] with the ends and tiny values drawn on
purpose.  Examples are derandomized so every run checks the same cases.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quakeval import (Circle, NullModel, ParametricDensity, Prediction, Rectangle,
                      empirical_significance, exact_poisson_binomial, min_consistent_c,
                      poisson_binomial_pmf)
from quakeval.nulltest import poisson_binomial_tails

PROPERTY = settings(max_examples=200, deadline=None, derandomize=True, database=None)

probability = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0, 1e-300, 1e-12]),
                        st.floats(0.0, 1.0).map(lambda p: 1.0 - p * 1e-9))
probabilities = st.lists(probability, min_size=1, max_size=200)


@PROPERTY
@given(probabilities)
def test_pmf_sums_to_one(probs):
    pmf = poisson_binomial_pmf(probs)
    assert len(pmf) == len(probs) + 1
    assert bool(np.all(pmf >= 0.0))
    assert abs(float(pmf.sum()) - 1.0) <= 1e-12


@PROPERTY
@given(probabilities)
def test_exact_tail_is_non_increasing_in_k(probs):
    tails = [exact_poisson_binomial(probs, k) for k in range(-1, len(probs) + 3)]
    assert tails[0] == tails[1] == 1.0 and tails[-1] == 0.0
    assert all(0.0 <= t <= 1.0 for t in tails)
    # one reverse cumulative sum serves every k, so no tolerance is needed
    assert all(b <= a for a, b in zip(tails, tails[1:]))
    table = poisson_binomial_tails(probs)
    assert bool(np.all(np.diff(table) <= 0.0)) and table[0] <= 1.0 and table[-1] == 0.0
    assert tails[2:-1] == table[1:].tolist()
    assert table[0] == 1.0


def test_zero_count_level_is_the_report_tail_at_zero():
    """A replicate with no hits gets exactly the report's P(X >= 0), even
    where the pmf's rounding sums to a few ulps under one."""
    uniform = ParametricDensity.uniform(Rectangle(0.0, 100.0, 0.0, 100.0))
    zero_counts = 0
    for seed in range(40):
        rng = np.random.default_rng(seed)
        starts = rng.uniform(0.0, 50.0, 6)
        preds = [Prediction(s, s, s + d, Circle(50.0, 50.0, r), 5.0) for s, d, r
                 in zip(starts, rng.uniform(0.0, 10.0, 6), rng.uniform(1.0, 10.0, 6))]
        sim = empirical_significance(NullModel(20, 100.0, uniform, seed=seed), preds, 20)
        zero = sim.success_counts == 0
        at_zero = exact_poisson_binomial(sim.probabilities, 0)
        assert bool(np.all(sim.summary.samples[zero] == at_zero))
        zero_counts += int(zero.sum())
    assert zero_counts > 0


@PROPERTY
@given(st.lists(st.floats(1e-6, 0.9), min_size=1, max_size=120), st.data(),
       st.sampled_from([0.01, 0.05, 0.1, 0.25]))
def test_c_min_below_c_hat_unless_capped(probs, data, alpha):
    n_observed = data.draw(st.integers(1, len(probs)))
    c_hat = n_observed / float(np.sum(probs))
    c_min = min_consistent_c(probs, n_observed, alpha)
    if not c_min.capped:
        assert 0.0 < c_min.value < c_hat
