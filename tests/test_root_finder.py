"""``nulltest._brentq`` against ``scipy.optimize.brentq``: the same float,
bit for bit, on the problems ``min_consistent_c`` poses and at the
edges of a bracket."""

import math

import numpy as np
import pytest
from scipy.optimize import brentq

from quakeval import min_consistent_c, nulltest


@pytest.fixture
def spy(monkeypatch):
    """Each ``_brentq`` call of ``min_consistent_c`` is checked against
    scipy's on the same function and bracket; yields the count of calls."""
    calls = []
    port = nulltest._brentq

    def checked(f, a, b, xtol, rtol):
        root = port(f, a, b, xtol=xtol, rtol=rtol)
        reference = brentq(f, a, b, xtol=xtol, rtol=rtol)
        assert root.hex() == float(reference).hex(), (a, b)
        calls.append(root)
        return root

    monkeypatch.setattr(nulltest, "_brentq", checked)
    return calls


def test_c_min_roots_equal_scipy_brentq_bit_for_bit(spy):
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1414)))
    roots = 0
    while roots < 1000:
        m = int(np.exp(rng.uniform(math.log(5), math.log(800))))
        p = rng.uniform(0.0, rng.uniform(0.02, 0.9), m)
        mu, sigma = p.sum(), np.sqrt((p * (1 - p)).sum())
        n_obs = int(np.clip(np.ceil(mu + rng.uniform(-1.0, 4.0) * sigma), 1, m))
        alpha = float(rng.choice([0.001, 0.01, 0.05, 0.1, rng.uniform(0.001, 0.499)]))
        res = min_consistent_c(p, n_obs, alpha)
        if not res.capped:
            assert res.value == spy[-1]
            roots += 1
    assert len(spy) == roots


def test_capped_c_min_finds_no_root(spy):
    # one alarm saturates at c = 2 while the rest stay tiny, so no
    # admissible factor makes ten hits plausible
    p = np.array([0.5] + [0.01] * 9)
    res = min_consistent_c(p, 10, alpha=0.05)
    assert res.capped and res.value == min(10 / p.sum() * 1.05, 2.0)
    assert spy == []


@pytest.mark.parametrize("a, b", [(1.0, 2.0), (0.0, 1.0), (2.0, 1.0), (1.0, 0.0)])
def test_root_at_a_bracket_end(a, b):
    root = nulltest._brentq(lambda x: x - 1.0, a, b, xtol=1e-13, rtol=8.9e-16)
    assert root == 1.0 == brentq(lambda x: x - 1.0, a, b, xtol=1e-13, rtol=8.9e-16)


def test_smooth_roots_equal_scipy_brentq():
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1415)))
    for _ in range(300):
        r, s, k = rng.uniform(-5, 5), rng.uniform(0.1, 3), int(rng.integers(1, 6))

        def f(x):
            return math.tanh(s * (x - r)) + 0.1 * (x - r) ** (2 * k - 1)
        a, b = r - rng.uniform(0.01, 10), r + rng.uniform(0.01, 10)
        for lo, hi in ((a, b), (b, a)):
            root = nulltest._brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16)
            assert root.hex() == float(brentq(f, lo, hi, xtol=1e-13, rtol=8.9e-16)).hex()


def test_bracket_without_a_sign_change_is_refused():
    with pytest.raises(ValueError, match="different signs"):
        nulltest._brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-13, rtol=8.9e-16)
