import json
import math

import numpy as np
import pytest
from scipy.optimize import minimize

from quakeval import (Circle, ConvexPolygon, FitError, KernelDensity,
                      ParametricDensity, QuakevalError, Rectangle,
                      ValidationError, fit_kde, fit_parametric, load_density,
                      save_density)
from quakeval import spatial
from quakeval.regions import Gaussian, sample_inside

REGION = Rectangle(0.0, 200.0, 0.0, 200.0)
Q = np.array([[0.004, 0.001], [0.001, 0.003]])


def test_uniform_density():
    d = ParametricDensity.uniform(REGION)
    assert d.p0 == pytest.approx(1.0 / REGION.area, rel=1e-15)
    assert d.weight == 0.0
    vals = d.evaluate([[10.0, 10.0], [150.0, 40.0]])
    assert np.allclose(vals, 1.0 / REGION.area)
    assert d.integrate(Rectangle(0, 100, 0, 200)) == pytest.approx(0.5, rel=1e-12)
    assert d.integrate(REGION) == pytest.approx(1.0, rel=1e-12)


def test_mixture_normalizes_to_one():
    rng = np.random.default_rng(5)
    for _ in range(5):
        cx, cy = rng.uniform(40, 160, 2)
        scale = rng.uniform(0.001, 0.02)
        q = np.array([[2.0 * scale, 0.3 * scale], [0.3 * scale, scale]])
        w = rng.uniform(0.0, 1.0)
        d = ParametricDensity.from_mixture([cx, cy], q, w, REGION)
        assert d.weight == pytest.approx(w, rel=1e-9)
        assert d.integrate(REGION) == pytest.approx(1.0, abs=1e-8)
        assert d.p0 == pytest.approx((1.0 - w) / REGION.area, rel=1e-9)


def test_density_positive_and_peaked_at_centre():
    d = ParametricDensity.from_mixture([100.0, 100.0], Q, 0.7, REGION)
    centre = d.evaluate([[100.0, 100.0]])[0]
    corner = d.evaluate([[5.0, 5.0]])[0]
    assert centre > corner > 0.0


def test_evaluate_outside_region_rejected():
    d = ParametricDensity.uniform(REGION)
    with pytest.raises(ValidationError, match="outside"):
        d.evaluate([[250.0, 10.0]])
    with pytest.raises(ValidationError):
        d.integrate(Rectangle(150.0, 250.0, 0.0, 10.0))


def test_bad_parameters_rejected():
    with pytest.raises(ValidationError):
        ParametricDensity([0, 0], np.array([[1.0, 2.0], [2.0, 1.0]]), 0.1, REGION)
    with pytest.raises(ValidationError):
        ParametricDensity([0, 0], np.array([[1.0, 0.5], [0.4, 1.0]]), 0.1, REGION)
    with pytest.raises(ValidationError):
        ParametricDensity([0, 0], np.eye(2), -0.1, REGION)
    with pytest.raises(ValidationError):
        ParametricDensity.from_mixture([0, 0], np.eye(2), 1.2, REGION)
    with pytest.raises(ValidationError, match="no mass inside the region"):
        ParametricDensity.from_mixture([5000.0, 5000.0], np.eye(2), 0.5, REGION)


def test_amplitude_overflow_rejected():
    # p1 large enough that the bump alone carries more than unit mass
    with pytest.raises(ValidationError, match="reduce p1"):
        ParametricDensity([100.0, 100.0], np.array([[1e-4, 0.0], [0.0, 1e-4]]),
                          1.0, REGION)


def test_sampling_deterministic_and_inside():
    d = ParametricDensity.from_mixture([100.0, 100.0], Q, 0.6, REGION)
    a = d.sample(1000, seed=21)
    b = d.sample(1000, seed=21)
    c = d.sample(1000, seed=22)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert bool(np.all(REGION.contains(a[:, 0], a[:, 1])))


def test_sampling_respects_mixture_weight():
    d = ParametricDensity.from_mixture([100.0, 100.0], Q, 0.6, REGION)
    pts = d.sample(20000, seed=4)
    # mass observed in a 30 km disc around the bump centre
    disc = Circle(100.0, 100.0, 30.0)
    frac = float(np.mean(np.asarray(disc.contains(pts[:, 0], pts[:, 1]))))
    expected = d.integrate(disc)
    assert frac == pytest.approx(expected, abs=0.015)


def test_kde_normalizes_over_region():
    rng = np.random.default_rng(9)
    pts = rng.uniform(20, 180, (200, 2))
    kde = fit_kde(pts, REGION)
    assert kde.integrate(REGION) == pytest.approx(1.0, abs=1e-8)
    left = kde.integrate(Rectangle(0, 100, 0, 200))
    right = kde.integrate(Rectangle(100, 200, 0, 200))
    assert left + right == pytest.approx(1.0, abs=1e-7)


def test_kde_bandwidth_formula():
    rng = np.random.default_rng(2)
    pts = rng.normal([100, 100], [20, 30], (400, 2))
    pts = pts[np.asarray(REGION.contains(pts[:, 0], pts[:, 1]))]
    kde = fit_kde(pts, REGION)
    n = len(pts)
    hx = float(np.std(pts[:, 0], ddof=1)) * n ** (-1.0 / 6.0)
    hy = float(np.std(pts[:, 1], ddof=1)) * n ** (-1.0 / 6.0)
    assert kde.bandwidth[0, 0] == pytest.approx(hx * hx, rel=1e-12)
    assert kde.bandwidth[1, 1] == pytest.approx(hy * hy, rel=1e-12)
    assert kde.bandwidth[0, 1] == 0.0


def test_kde_on_rectangle_matches_kde_on_square_polygon():
    """A KDE over a rectangle agrees with the KDE over the same square
    given as a polygon."""
    rng = np.random.default_rng(14)
    pts = rng.uniform(30, 170, (60, 2))
    rect_kde = fit_kde(pts, REGION)
    square = ConvexPolygon([[0, 0], [200, 0], [200, 200], [0, 200]])
    poly_kde = KernelDensity(pts, rect_kde.bandwidth, square)
    assert rect_kde.normalization == pytest.approx(poly_kde.normalization,
                                                   rel=1e-8)
    probe = np.array([[100.0, 100.0], [45.0, 160.0]])
    assert np.allclose(rect_kde.evaluate(probe), poly_kde.evaluate(probe),
                       rtol=1e-8)


def test_kde_degenerate_inputs():
    with pytest.raises(ValidationError):
        fit_kde(np.array([[1.0, 2.0]]), REGION)
    flat = np.column_stack([np.full(20, 50.0), np.linspace(10, 90, 20)])
    with pytest.raises(ValidationError, match="spread"):
        fit_kde(flat, REGION)
    with pytest.raises(ValidationError) as info:
        KernelDensity([[50.0, 50.0], [250.0, 10.0], [300.0, 10.0]], np.eye(2), REGION)
    assert str(info.value) == "point 1: kernel point (250, 10) lies outside the model's region"


def test_kde_sampling_inside_region():
    rng = np.random.default_rng(6)
    kde = fit_kde(rng.uniform(50, 150, (80, 2)), REGION)
    pts = kde.sample(500, seed=8)
    assert pts.shape == (500, 2)
    assert bool(np.all(REGION.contains(pts[:, 0], pts[:, 1])))
    assert np.array_equal(pts, kde.sample(500, seed=8))


def test_kde_draws_use_the_bandwidths_cholesky_factor():
    """Draws equal a reference built inline from np.linalg.cholesky of the
    bandwidth, with points near the edge so that proposals get refused."""
    rng = np.random.default_rng(6)
    points = np.vstack([rng.uniform(50, 150, (60, 2)), rng.uniform(1, 12, (20, 2))])
    kde = KernelDensity(points, [[90.0, 30.0], [30.0, 60.0]], REGION)
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(8)))
    chol = np.linalg.cholesky(kde.bandwidth)

    def propose(remaining):
        m = max(64, 2 * remaining)
        base = kde.points[gen.integers(0, len(kde.points), m)]
        return base + gen.standard_normal((m, 2)) @ chol.T

    want = sample_inside(REGION, 3000, propose)
    assert kde.sample(3000, seed=8).tobytes() == want.tobytes()
    assert kde.sample(3000, seed=8).tobytes() == want.tobytes()


def _counting(monkeypatch, names):
    """Count the calls of the named ``np.linalg`` functions."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _real=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_each_kernel_is_factorized_at_most_once(monkeypatch):
    """100 integrate calls over circles and polygons, and draws, run eigh
    at most once and Cholesky at most once on a density's one kernel."""
    rng = np.random.default_rng(12)
    densities = [ParametricDensity.from_mixture([100.0, 100.0], Q, 0.6, REGION),
                 KernelDensity(rng.uniform(20, 180, (50, 2)), [[90.0, 30.0], [30.0, 60.0]],
                               REGION)]
    shapes = [Circle(*rng.uniform(40, 160, 2), rng.uniform(5, 30)) for _ in range(50)]
    shapes += [ConvexPolygon(np.array([[0, 0], [30, 0], [10, 20]]) + rng.uniform(20, 150, 2))
               for _ in range(25)]
    shapes += [Rectangle(x, x + 20, y, y + 30) for x, y in rng.uniform(10, 150, (25, 2))]
    calls = _counting(monkeypatch, ["eigh", "cholesky"])
    for density in densities:
        calls.update(eigh=0, cholesky=0)
        masses = [density.integrate(shape) for shape in shapes]
        density.sample(300, seed=1)
        density.sample(300, seed=2)
        assert calls["eigh"] <= 1 and calls["cholesky"] <= 1, (density, calls)
        assert masses == [density.integrate(shape) for shape in shapes]
    kernel = Gaussian(np.linalg.inv(2.0 * Q))
    calls.update(eigh=0, cholesky=0)
    for shape in shapes:
        kernel.masses([shape], [[100.0, 100.0]])
    assert kernel.cholesky.shape == (2, 2)
    assert calls == {"eigh": 1, "cholesky": 1}


def test_from_mixture_derives_and_factorizes_its_bump_once(monkeypatch):
    """``from_mixture`` builds one bump kernel: the check that Q is positive
    definite and the kernel's own factor are its only Cholesky runs.  The
    density equals one built from the amplitude that the weight implies."""
    kernel, factor = spatial._bump_frame(Q)
    mass = spatial._bump_masses([REGION], np.array([[100.0, 100.0]]), kernel, factor)[0]
    want = ParametricDensity([100.0, 100.0], Q, 0.6 / mass, REGION)
    built = []

    class Counted(Gaussian):
        def __init__(self, cov):
            built.append(cov)
            super().__init__(cov)

    monkeypatch.setattr(spatial, "Gaussian", Counted)
    calls = _counting(monkeypatch, ["eigh", "cholesky", "inv"])
    got = ParametricDensity.from_mixture([100.0, 100.0], Q, 0.6, REGION)
    assert len(built) == 1 and calls == {"eigh": 0, "cholesky": 2, "inv": 2}
    assert (got.p0, got.p1, got.bump_mass) == (want.p0, want.p1, want.bump_mass)
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())
    assert got.integrate(Circle(90.0, 110.0, 30.0)) == want.integrate(Circle(90.0, 110.0, 30.0))
    uniform = ParametricDensity.from_mixture([100.0, 100.0], Q, 0.0, REGION)
    assert (uniform.p1, uniform.bump_mass, uniform.p0) == (0.0, 0.0, 1.0 / REGION.area)


def test_fit_parametric_recovers_planted_bump():
    truth = ParametricDensity.from_mixture([120.0, 80.0], Q, 0.6, REGION)
    pts = truth.sample(2000, seed=11)
    res = fit_parametric(pts, REGION)
    assert res.converged
    assert res.loglik > res.loglik_uniform
    assert np.allclose(res.density.x_c, [120.0, 80.0], atol=3.0)
    assert res.density.weight == pytest.approx(0.6, abs=0.1)


def test_fit_on_uniform_data_never_beats_uniform_by_much():
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 200, (400, 2))
    res = fit_parametric(pts, REGION)
    assert res.loglik >= res.loglik_uniform - 1e-9
    # six free parameters fitting pure noise should gain only a few log-units
    assert res.loglik - res.loglik_uniform < 8.0
    # and the fitted surface stays close to flat across the region
    probe = res.density.evaluate(pts)
    assert float(probe.max() / probe.min()) < 2.0


def test_fit_requires_enough_points():
    with pytest.raises(ValidationError, match="at least 10"):
        fit_parametric(np.zeros((5, 2)) + 50.0, REGION)


@pytest.mark.parametrize("points", [
    np.column_stack([np.linspace(5.0, 195.0, 50), np.linspace(5.0, 195.0, 50)]),
    np.tile([[60.0, 140.0]], (30, 1)),
], ids=["collinear", "one-point"])
def test_fit_rejects_points_with_singular_covariance(points):
    """On one line or at one point the likelihood grows without bound as
    the bump collapses onto them; the fit says so before searching."""
    with pytest.raises(ValidationError, match="one line.*--kind kde"):
        fit_parametric(points, REGION)


def _numeric_gradient(objective, theta, steps):
    grad = np.empty(len(theta))
    for k, h in enumerate(steps):
        e = np.zeros(len(theta))
        e[k] = h
        grad[k] = (objective(theta + e)[0] - objective(theta - e)[0]) / (2.0 * h)
    return grad


@pytest.mark.parametrize("region", [
    REGION, ConvexPolygon([[0, 0], [200, 20], [180, 190], [30, 160]])],
    ids=["rectangle", "polygon"])
def test_fit_gradient_matches_central_differences(region):
    """The analytic data term and the differenced log bump mass agree with
    central differences of the objective itself at random points,
    including weights near 0 and 1 and a centre outside the region."""
    truth = ParametricDensity.from_mixture([120.0, 80.0], Q, 0.6, region)
    objective = spatial._fit_objective(truth.sample(500, seed=3), region)
    rng = np.random.default_rng(8)
    thetas = []
    for logit_w in (-12.0, -1.0, 0.5, 2.0, 12.0):
        sd = rng.uniform(10.0, 60.0, 2)
        l00, l11 = 1.0 / (math.sqrt(2.0) * sd)
        thetas.append([*rng.uniform(30.0, 170.0, 2), math.log(l00), math.log(l11),
                       rng.uniform(-0.5, 0.5) * l11, logit_w])
    thetas.append([-30.0, 100.0, math.log(0.03), math.log(0.04), 0.01, 0.0])
    for theta in np.array(thetas):
        value, grad = objective(theta)
        l11 = math.exp(theta[3])
        steps = 1e-5 * np.array([1.0 / l11, 1.0 / l11, 1.0, 1.0, l11, 1.0])
        numeric = _numeric_gradient(objective, theta, steps)
        assert math.isfinite(value)
        # atol: the objective (about 5e3) rounds to about 1e-12, so a
        # difference over 2e-5 carries about 1e-7
        np.testing.assert_allclose(grad, numeric, rtol=1e-5, atol=1e-6)


def test_fit_objective_is_finite_across_its_box():
    """A covariance too ill-conditioned to factor and a narrow bump far
    outside the region, whose mass underflows, both score finite values
    with finite gradients, so the search can back away from them."""
    objective = spatial._fit_objective(
        ParametricDensity.from_mixture([120.0, 80.0], Q, 0.6, REGION).sample(300, seed=4),
        REGION)
    start = objective(np.array([100.0, 100.0, math.log(0.01), math.log(0.01), 0.0, 0.0]))
    for theta in ([100.0, 100.0, -15.0, -15.0, 50.0, 0.0],
                  [-190.0, 390.0, 2.0, 2.0, 0.0, 30.0]):
        value, grad = objective(np.array(theta))
        assert math.isfinite(value) and bool(np.all(np.isfinite(grad)))
        assert value > start[0]


def _reference_fit(pts, region):
    """The Nelder-Mead fit this package used before its gradient-based
    search: two passes of a simplex over the same parameters, with the
    weight itself in [0, 1], kept here as an oracle for the optimum."""
    area = region.area
    xmin, xmax, ymin, ymax = region.bounding_box
    span_x, span_y = xmax - xmin, ymax - ymin

    def unpack(theta):
        cx, cy, s1, s2, l21, w = theta
        low = np.array([[math.exp(s1), 0.0], [l21, math.exp(s2)]])
        return np.array([cx, cy]), low @ low.T, w

    def nll(theta):
        cx, cy, s1, s2, l21, w = theta
        if not (0.0 <= w <= 1.0) or abs(s1) > 30 or abs(s2) > 30 or abs(l21) > 1e6:
            return np.inf
        if not (xmin - span_x <= cx <= xmax + span_x
                and ymin - span_y <= cy <= ymax + span_y):
            return np.inf
        centre, q, _ = unpack(theta)
        try:
            gauss = Gaussian(np.linalg.inv(2.0 * q)).masses([region], centre[None])[0, 0]
        except np.linalg.LinAlgError:
            return np.inf
        bump_mass = math.pi / math.sqrt(np.linalg.det(q)) * gauss
        if bump_mass <= 0 or not np.isfinite(bump_mass):
            return np.inf
        d = pts - centre
        quad = (d[:, 0] ** 2 * q[0, 0] + 2.0 * d[:, 0] * d[:, 1] * q[0, 1]
                + d[:, 1] ** 2 * q[1, 1])
        dens = (1.0 - w) / area + w * np.exp(-quad) / bump_mass
        return -float(np.sum(np.log(np.clip(dens, 1e-300, None))))

    low0 = np.linalg.cholesky(np.linalg.inv(2.0 * np.cov(pts.T)))
    theta = np.array([*pts.mean(axis=0), math.log(low0[0, 0]), math.log(low0[1, 1]),
                      low0[1, 0], 0.5])
    for _ in range(2):
        res = minimize(nll, theta, method="Nelder-Mead",
                       options={"maxiter": 10_000, "maxfev": 40_000, "xatol": 1e-8,
                                "fatol": 1e-9 * max(1.0, abs(nll(theta)))})
        theta = res.x
    centre, q, w = unpack(theta)
    density = ParametricDensity.from_mixture(centre, q, min(max(w, 0.0), 1.0), region)
    return max(density.log_likelihood(pts), -len(pts) * math.log(area))


def _oracle_samples():
    rng = np.random.default_rng(99)
    for i in range(5):
        scale = rng.uniform(0.001, 0.02)
        q = np.array([[2.0 * scale, 0.3 * scale], [0.3 * scale, scale]])
        truth = ParametricDensity.from_mixture(rng.uniform(40.0, 160.0, 2), q,
                                               rng.uniform(0.2, 0.8), REGION)
        yield f"bump{i}", truth.sample(2000, seed=500 + i)
    yield "uniform", np.random.default_rng(17).uniform(0.0, 200.0, (400, 2))
    edge = ParametricDensity.from_mixture([195.0, 100.0], 2.0 * Q, 0.5, REGION)
    yield "edge", edge.sample(2000, seed=7)


@pytest.mark.parametrize("name,pts", list(_oracle_samples()),
                         ids=[name for name, _ in _oracle_samples()])
def test_fit_reaches_the_nelder_mead_optimum(name, pts):
    res = fit_parametric(pts, REGION)
    assert res.converged
    assert res.loglik >= _reference_fit(pts, REGION) - 1e-6


def test_fit_error_carries_best_iterate():
    truth = ParametricDensity.from_mixture([100.0, 100.0], Q, 0.5, REGION)
    pts = truth.sample(300, seed=2)
    with pytest.raises(FitError) as info:
        fit_parametric(pts, REGION, max_iterations=3)
    assert isinstance(info.value.best, ParametricDensity)


def test_parametric_json_round_trip(tmp_path):
    d = ParametricDensity.from_mixture([120.0, 80.0], Q, 0.6, REGION)
    path = tmp_path / "model.json"
    save_density(d, path)
    again = load_density(path)
    assert np.array_equal(again.x_c, d.x_c)
    assert np.array_equal(again.q_matrix, d.q_matrix)
    assert again.p1 == d.p1
    assert again.p0 == pytest.approx(d.p0, rel=1e-12)
    probe = np.array([[100.0, 100.0], [10.0, 190.0]])
    assert np.allclose(again.evaluate(probe), d.evaluate(probe), rtol=1e-12)


def test_corrupted_model_file_rejected(tmp_path):
    d = ParametricDensity.from_mixture([120.0, 80.0], Q, 0.6, REGION)
    path = tmp_path / "model.json"
    save_density(d, path)
    blob = json.loads(path.read_text())
    blob["p0"] = blob["p0"] * 3.0 + 1e-3
    path.write_text(json.dumps(blob))
    with pytest.raises(ValidationError, match="corrupted"):
        load_density(path)
    blob["type"] = "mystery"
    path.write_text(json.dumps(blob))
    with pytest.raises(ValidationError, match="unknown density type"):
        load_density(path)


def test_kde_json_round_trip(tmp_path):
    rng = np.random.default_rng(23)
    pts = rng.uniform(40, 160, (50, 2))
    kde = fit_kde(pts, REGION)
    path = tmp_path / "kde.json"
    save_density(kde, path)
    assert (tmp_path / "kde.points.csv").exists()
    again = load_density(path)
    assert np.array_equal(again.points, kde.points)
    assert np.array_equal(again.bandwidth, kde.bandwidth)
    probe = np.array([[100.0, 100.0]])
    assert again.evaluate(probe)[0] == pytest.approx(kde.evaluate(probe)[0],
                                                     rel=1e-12)


def test_kde_load_tests_points_against_region_once(tmp_path, monkeypatch):
    pts = np.random.default_rng(24).uniform(40, 160, (50, 2))
    path = tmp_path / "kde.json"
    save_density(fit_kde(pts, REGION), path)
    real = Rectangle.contains
    sizes = []

    def counting(self, x, y):
        sizes.append(np.size(x))
        return real(self, x, y)

    monkeypatch.setattr(Rectangle, "contains", counting)
    load_density(path)
    assert sizes.count(len(pts)) == 1


def test_circle_region_density():
    disc = Circle(50.0, 50.0, 40.0)
    d = ParametricDensity.from_mixture([50.0, 50.0], np.eye(2) * 0.002, 0.5, disc)
    assert d.integrate(disc) == pytest.approx(1.0, abs=1e-8)
    inner = Circle(50.0, 50.0, 20.0)
    assert 0.0 < d.integrate(inner) < 1.0
    pts = d.sample(300, seed=5)
    assert bool(np.all(disc.contains(pts[:, 0], pts[:, 1])))


def test_narrow_kernels_keep_their_mass():
    """Two 0.2 km kernels, one at the centre of a 300 km circle and one
    outside it: half the mass, however narrow the kernels."""
    square = Rectangle(0.0, 1000.0, 0.0, 1000.0)
    kde = KernelDensity([[500.0, 500.0], [200.0, 700.0]], np.eye(2) * 0.04, square)
    assert kde.normalization == pytest.approx(1.0, abs=1e-12)
    assert kde.integrate(Circle(500.0, 500.0, 300.0)) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_non_finite_mass_is_an_error_not_a_probability(monkeypatch, bad):
    d = ParametricDensity.from_mixture([100.0, 100.0], Q, 0.5, REGION)
    kde = KernelDensity([[50.0, 50.0], [120.0, 90.0]], np.eye(2) * 100.0, REGION)
    monkeypatch.setattr(spatial, "_bump_masses", lambda regions, *args: np.full(len(regions), bad))
    with pytest.raises(QuakevalError, match="not a finite number"):
        d.integrate(Circle(100.0, 100.0, 30.0))
    monkeypatch.setattr(kde, "_raw_masses", lambda regions: np.full(len(regions), bad))
    with pytest.raises(QuakevalError, match="not a finite number"):
        kde.integrate(Circle(100.0, 100.0, 30.0))
