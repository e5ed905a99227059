import math
import warnings

import numpy as np
import pytest
from scipy.integrate import dblquad
from scipy.linalg import solve_triangular
from scipy.special import chndtr, ndtr

from quakeval import (Circle, ConvexPolygon, KernelDensity, ParametricDensity,
                      Rectangle, ValidationError, contains_region, region_from_dict,
                      spatial)
from quakeval.regions import _EDGE_TOL, Gaussian


def test_rectangle_basics():
    r = Rectangle(0.0, 4.0, -1.0, 1.0)
    assert r.area == 8.0
    assert r.bounding_box == (0.0, 4.0, -1.0, 1.0)
    assert bool(np.all(r.contains([0.0, 4.0, 2.0], [0.0, 1.0, -1.0])))
    assert not r.contains(4.1, 0.0)
    assert not r.contains(2.0, 1.1)


def test_rectangle_rejects_empty():
    with pytest.raises(ValidationError):
        Rectangle(1.0, 1.0, 0.0, 2.0)
    with pytest.raises(ValidationError):
        Rectangle(0.0, 1.0, 3.0, 2.0)


@pytest.mark.parametrize("make, message", [
    (lambda bad: Rectangle(0.0, bad, 0.0, 1.0), "rectangle bounds must be finite"),
    (lambda bad: Rectangle(bad, 1.0, 0.0, 1.0), "rectangle bounds must be finite"),
    (lambda bad: Circle(0.0, bad, 1.0), "circle parameters must be finite"),
    (lambda bad: Circle(0.0, 0.0, bad), "circle parameters must be finite"),
])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, np.float64(np.nan)])
def test_shapes_reject_non_finite_parameters(make, message, bad):
    with pytest.raises(ValidationError, match=message):
        make(bad)


def test_shapes_take_numpy_scalars():
    assert Circle(np.float64(1.0), np.float32(2.0), np.int64(3)).area == pytest.approx(9 * math.pi)
    assert Rectangle(np.float64(0.0), 2, np.int32(0), np.float64(1.5)).area == 3.0


def test_circle_area_and_contains():
    c = Circle(2.0, 3.0, 1.5)
    assert c.area == pytest.approx(math.pi * 2.25, rel=1e-15)
    assert c.contains(2.0, 3.0)
    assert c.contains(3.5, 3.0)
    assert not c.contains(3.51, 3.0)
    assert c.bounding_box == (0.5, 3.5, 1.5, 4.5)


def test_polygon_orientation_normalized():
    """Clockwise input is stored counterclockwise (positive signed area)."""
    ccw = ConvexPolygon([[0, 0], [2, 0], [2, 2], [0, 2]])
    cw = ConvexPolygon([[0, 0], [0, 2], [2, 2], [2, 0]])
    for poly in (ccw, cw):
        v = poly.vertices
        vn = np.roll(v, -1, axis=0)
        signed = 0.5 * float(np.sum(v[:, 0] * vn[:, 1] - vn[:, 0] * v[:, 1]))
        assert signed > 0
    assert {tuple(p) for p in ccw.vertices.tolist()} \
        == {tuple(p) for p in cw.vertices.tolist()}
    assert ccw.area == pytest.approx(4.0)


def test_polygon_rejects_bad_shapes():
    with pytest.raises(ValidationError):
        ConvexPolygon([[0, 0], [1, 1]])
    with pytest.raises(ValidationError):
        ConvexPolygon([[0, 0], [1, 1], [2, 2]])
    with pytest.raises(ValidationError):
        ConvexPolygon([[0, 0], [2, 0], [2, 2], [1, 0.5], [0, 2]])


def test_polygon_contains_matches_rectangle():
    rect = Rectangle(1.0, 5.0, 2.0, 4.0)
    poly = ConvexPolygon([[1, 2], [5, 2], [5, 4], [1, 4]])
    rng = np.random.default_rng(7)
    x = rng.uniform(0.0, 6.0, 500)
    y = rng.uniform(1.0, 5.0, 500)
    assert np.array_equal(np.asarray(rect.contains(x, y)),
                          np.asarray(poly.contains(x, y)))


def _contains_by_edge(polygon, x, y):
    """``ConvexPolygon.contains`` as one test per edge in a loop: the
    oracle for the broadcast form."""
    v = polygon.vertices
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    tol = _EDGE_TOL * max(float(v[:, 0].max()) - float(v[:, 0].min()),
                          float(v[:, 1].max()) - float(v[:, 1].min()), 1.0)
    inside = np.ones(np.broadcast(x, y).shape, dtype=bool)
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        inside &= ((b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
                   >= -tol * max(abs(b[0] - a[0]), abs(b[1] - a[1]), 1.0))
    return inside


def _edge_distance_by_edge(polygon, x, y):
    dists = []
    for a, b in zip(polygon.vertices, np.roll(polygon.vertices, -1, axis=0)):
        e = b - a
        dists.append((e[0] * (y - a[1]) - e[1] * (x - a[0])) / np.hypot(e[0], e[1]))
    return float(min(dists))


def _random_convex_vertices(rng):
    """Vertices of a convex polygon, counterclockwise or clockwise: on a
    circle at sorted random angles, or a lattice polygon whose edges pass
    through points with integer coordinates."""
    if rng.random() < 0.5:
        k = int(rng.integers(3, 13))
        angles = np.sort(rng.uniform(0.0, 2.0 * np.pi, k))
        scale = 10.0 ** rng.uniform(-2.0, 4.0)
        v = scale * np.column_stack([np.cos(angles), np.sin(angles)]) \
            + rng.uniform(-1e3, 1e3, 2)
    else:
        lattice = [[0, 0], [6, 0], [9, 3], [9, 6], [3, 9], [0, 6]]
        v = np.array(lattice[:int(rng.integers(3, 7))], dtype=float) * rng.integers(1, 4) \
            + rng.integers(-50, 50, 2)
    return v[::-1] if rng.random() < 0.5 else v


def _probe_points(polygon, rng):
    """Points on the vertices and edges, within a few edge tolerances of
    them on either side, and scattered over the bounding box."""
    v = polygon.vertices
    nxt = np.roll(v, -1, axis=0)
    t = np.concatenate([[0.0, 0.5, 1.0 / 3.0], rng.random(5)])
    on_edges = (v[:, None] + t[:, None] * (nxt - v)[:, None]).reshape(-1, 2)
    lattice = []  # the points with integer coordinates on a lattice polygon's edges
    if np.array_equal(v, v.round()):
        for a, b in zip(v, nxt):
            steps = math.gcd(*(b - a).astype(int))
            lattice += [a + j * (b - a) / steps for j in range(steps + 1)]
    exact = np.concatenate([on_edges, np.reshape(lattice, (-1, 2))])
    xmin, xmax, ymin, ymax = polygon.bounding_box
    tol = _EDGE_TOL * max(xmax - xmin, ymax - ymin, 1.0)
    near = exact[:, None] + tol * rng.choice([-3.0, -1.0, -0.5, 0.5, 1.0, 3.0], (len(exact), 4, 2))
    nudged = np.nextafter(exact, exact + rng.choice([-1.0, 1.0], exact.shape))
    scattered = np.column_stack([rng.uniform(xmin - 1.0, xmax + 1.0, 200),
                                 rng.uniform(ymin - 1.0, ymax + 1.0, 200)])
    return np.concatenate([exact, near.reshape(-1, 2), nudged, scattered])


def test_polygon_tests_have_the_bits_of_the_per_edge_loop():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        v = _random_convex_vertices(rng)
        polygon = ConvexPolygon(v)
        assert polygon.area == abs(0.5 * float(np.sum(
            v[:, 0] * np.roll(v[:, 1], -1) - np.roll(v[:, 0], -1) * v[:, 1])))
        assert polygon.bounding_box == (float(v[:, 0].min()), float(v[:, 0].max()),
                                        float(v[:, 1].min()), float(v[:, 1].max()))
        pts = _probe_points(polygon, rng)
        x, y = pts[:, 0], pts[:, 1]
        got = polygon.contains(x, y)
        assert got.dtype == bool and np.array_equal(got, _contains_by_edge(polygon, x, y))
        # other shapes: one point, a grid, and a column against one y
        grid = np.array(polygon.contains(x[:12].reshape(3, 4), y[:12].reshape(3, 4)))
        assert grid.shape == (3, 4)
        assert np.array_equal(grid, _contains_by_edge(polygon, x[:12].reshape(3, 4),
                                                      y[:12].reshape(3, 4)))
        one = polygon.contains(x[0], y[0])
        assert np.shape(one) == () and bool(one) == bool(_contains_by_edge(polygon, x[0], y[0]))
        assert np.array_equal(polygon.contains(x, y[0]), _contains_by_edge(polygon, x, y[0]))
        assert polygon.contains(x[:0], y[:0]).shape == (0,)
        for px, py in pts[got][:20].tolist():
            assert np.float64(polygon.edge_distance(px, py)).tobytes() \
                == np.float64(_edge_distance_by_edge(polygon, px, py)).tobytes()


@pytest.mark.parametrize("vertices", [[[0, 0], [4, 0], [0, 4]],
                                      [[0, 0], [0, 4], [4, 0]],
                                      [[100, 100], [600, 150], [700, 500], [300, 700], [50, 400]]],
                         ids=["counterclockwise", "clockwise", "pentagon"])
def test_a_repeated_vertex_changes_no_containment_or_edge_distance(vertices):
    """A vertex given twice makes an edge of length zero, which bounds
    nothing: circle containment and edge distances are those of the
    polygon without the repeat, to the bit, and nothing warns."""
    plain = ConvexPolygon(vertices)
    xmin, xmax, ymin, ymax = plain.bounding_box
    size = max(xmax - xmin, ymax - ymin)
    rng = np.random.default_rng(25)
    points = plain.vertices.mean(axis=0) + rng.uniform(-0.5, 0.5, (40, 2)) * size
    points = points[plain.contains(points[:, 0], points[:, 1])]
    assert len(points) > 5
    circles = [Circle(x, y, r) for x, y in points.tolist()
               for r in (0.01 * size, plain.edge_distance(x, y), 0.3 * size)]
    for k in range(len(vertices)):
        repeated = ConvexPolygon([*vertices[:k + 1], *vertices[k:]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x, y in points.tolist():
                assert np.float64(repeated.edge_distance(x, y)).tobytes() \
                    == np.float64(plain.edge_distance(x, y)).tobytes()
            for circle in circles:
                assert contains_region(repeated, circle) == contains_region(plain, circle)
        assert any(contains_region(repeated, c) for c in circles)


def test_a_polygon_copies_the_callers_vertex_array():
    a = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]])
    polygon = ConvexPolygon(a)
    assert a.flags.writeable
    a[0, 0] = 5.0
    a[2] = [-3.0, 9.0]
    assert polygon.vertices.tolist() == [[0.0, 0.0], [4.0, 0.0], [0.0, 4.0]]
    assert polygon.area == 8.0
    assert polygon.contains([1.0, 3.5, 0.1], [1.0, 1.0, 3.8]).tolist() == [True, False, True]


def test_sample_uniform_stays_inside():
    rng = np.random.default_rng(3)
    for region in (Rectangle(0, 2, 0, 3), Circle(1.0, 1.0, 0.8),
                   ConvexPolygon([[0, 0], [3, 0], [2, 2]])):
        pts = region.sample_uniform(400, rng)
        assert pts.shape == (400, 2)
        assert bool(np.all(region.contains(pts[:, 0], pts[:, 1])))


def test_sample_uniform_mean_near_centroid():
    rng = np.random.default_rng(11)
    tri = ConvexPolygon([[0, 0], [3, 0], [0, 3]])
    pts = tri.sample_uniform(20000, rng)
    assert np.allclose(pts.mean(axis=0), [1.0, 1.0], atol=0.03)


SDS = (0.2, 1.0, 5.0, 50.0, 400.0)
RECT = Rectangle(100.0, 400.0, 200.0, 350.0)
POLY = ConvexPolygon([[100, 100], [600, 150], [700, 500], [300, 700], [50, 400]])
DISC = Circle(500.0, 500.0, 300.0)


def _covariances():
    """Isotropic and correlated kernels at every SD of the test matrix."""
    for s in SDS:
        yield np.eye(2) * s * s
        for rho in (0.8, -0.9):
            sx, sy = s, 1.7 * s
            yield np.array([[sx * sx, rho * sx * sy], [rho * sx * sy, sy * sy]])


def _polygon_probes(vertices):
    """Kernel means at the centroid, an edge midpoint, a vertex and just
    outside that vertex."""
    v = np.asarray(vertices, dtype=float)
    centroid = v.mean(axis=0)
    outward = (v[0] - centroid) / np.hypot(*(v[0] - centroid))
    return np.array([centroid, 0.5 * (v[1] + v[2]), v[0], v[0] + 0.5 * outward])


def _std_normal(y, x):
    return math.exp(-0.5 * (x * x + y * y)) / (2.0 * math.pi)


def _dblquad(x_breaks, lower, upper) -> float:
    """Standard-normal mass of {lower(x) <= y <= upper(x)} by dblquad,
    with x split at ``x_breaks`` and every limit clipped to +-12 SD."""
    def lo(x):
        return min(max(lower(x), -12.0), 12.0)

    def hi(x):
        return max(min(upper(x), 12.0), lo(x))

    xs = np.unique(np.clip(x_breaks, -12.0, 12.0))
    return sum(dblquad(_std_normal, x0, x1, lo, hi, epsabs=1e-13, epsrel=1e-12)[0]
               for x0, x1 in zip(xs[:-1], xs[1:]))


def _whitened_polygon_mass(vertices, mean, cov) -> float:
    low = np.linalg.cholesky(cov)
    z = solve_triangular(low, (np.asarray(vertices, dtype=float) - mean).T, lower=True).T
    a, b = z, np.roll(z, -1, axis=0)
    ex = b[:, 0] - a[:, 0]

    def edge_y(x, keep):
        return a[keep, 1] + (b[keep, 1] - a[keep, 1]) * (x - a[keep, 0]) / ex[keep]

    # counterclockwise: edges running right bound from below, left from above
    return _dblquad(z[:, 0], lambda x: edge_y(x, ex > 0).max(),
                    lambda x: edge_y(x, ex < 0).min())


def _whitened_circle_mass(circle, mean, cov) -> float:
    """The circle whitens to the ellipse w'Aw <= r^2 about z_c, A = L'L."""
    low = np.linalg.cholesky(cov)
    zc = solve_triangular(low, np.array([circle.cx, circle.cy]) - mean, lower=True)
    a = low.T @ low
    r2 = circle.radius ** 2
    half_w = math.sqrt(a[1, 1] * r2 / np.linalg.det(a))

    def chord(x, sign):
        w = x - zc[0]
        disc = max(a[0, 1] ** 2 * w * w - a[1, 1] * (a[0, 0] * w * w - r2), 0.0)
        return zc[1] + (-a[0, 1] * w + sign * math.sqrt(disc)) / a[1, 1]

    return _dblquad([zc[0] - half_w, zc[0], zc[0] + half_w],
                    lambda x: chord(x, -1.0), lambda x: chord(x, 1.0))


def test_rectangle_gaussian_mass_matches_ndtr_product():
    """Diagonal kernels on a rectangle factor into two exact ndtr masses."""
    means = _polygon_probes([[100, 200], [400, 200], [400, 350], [100, 350]])
    for sx in SDS:
        for sy in SDS:
            got = Gaussian(np.diag([sx * sx, sy * sy])).masses([RECT], means)[0]
            px = ndtr((RECT.x_max - means[:, 0]) / sx) - ndtr((RECT.x_min - means[:, 0]) / sx)
            py = ndtr((RECT.y_max - means[:, 1]) / sy) - ndtr((RECT.y_min - means[:, 1]) / sy)
            assert np.abs(got - px * py).max() <= 1e-12, (sx, sy)


def test_circle_gaussian_mass_matches_chndtr():
    """Isotropic kernels on a circle: the squared distance is noncentral chi^2."""
    rim = DISC.radius / math.sqrt(2.0)
    means = np.array([[500.0, 500.0], [600.0, 420.0], [800.0, 500.0],
                      [500.0 + rim, 500.0 - rim], [500.0, 800.5], [500.0, 199.0]])
    dist2 = (means[:, 0] - DISC.cx) ** 2 + (means[:, 1] - DISC.cy) ** 2
    for s in SDS:
        got = Gaussian(np.eye(2) * s * s).masses([DISC], means)[0]
        want = chndtr((DISC.radius / s) ** 2, 2, dist2 / s ** 2)
        assert np.abs(got - want).max() <= 1e-12, s


def test_polygon_gaussian_mass_matches_whitened_dblquad():
    means = _polygon_probes(POLY.vertices)
    repeated = ConvexPolygon(np.insert(POLY.vertices, 1, POLY.vertices[1], axis=0))
    for cov in _covariances():
        got = Gaussian(cov).masses([POLY], means)[0]
        assert np.abs(Gaussian(cov).masses([repeated], means)[0] - got).max() <= 1e-15
        for mean, mass in zip(means, got):
            assert mass == pytest.approx(_whitened_polygon_mass(POLY.vertices, mean, cov),
                                         abs=1e-10), (cov.tolist(), mean)


def test_correlated_rectangle_matches_whitened_dblquad():
    corners = [[100, 200], [400, 200], [400, 350], [100, 350]]
    means = _polygon_probes(corners)
    for cov in _covariances():
        got = Gaussian(cov).masses([RECT], means)[0]
        for mean, mass in zip(means, got):
            assert mass == pytest.approx(_whitened_polygon_mass(corners, mean, cov),
                                         abs=1e-10), (cov.tolist(), mean)


def test_correlated_circle_matches_whitened_dblquad():
    rim = DISC.radius / math.sqrt(2.0)
    means = np.array([[500.0, 500.0], [610.0, 430.0], [500.0 + rim, 500.0 + rim],
                      [500.0 - rim, 500.0 + rim], [800.5, 500.0]])
    for cov in _covariances():
        got = Gaussian(cov).masses([DISC], means)[0]
        for mean, mass in zip(means, got):
            assert mass == pytest.approx(_whitened_circle_mass(DISC, mean, cov),
                                         abs=1e-10), (cov.tolist(), mean)


def test_region_dict_round_trip():
    for region in (Rectangle(0, 2, -1, 1), Circle(1.0, 2.0, 0.5),
                   ConvexPolygon([[0, 0], [2, 0], [1, 2]])):
        again = region_from_dict(region.to_dict())
        assert type(again) is type(region)
        assert again.area == pytest.approx(region.area, rel=1e-15)
    with pytest.raises(ValidationError):
        region_from_dict({"type": "blob"})


def test_contains_region_cases():
    big = Rectangle(0.0, 10.0, 0.0, 10.0)
    assert contains_region(big, Rectangle(1, 2, 1, 2))
    assert contains_region(big, Circle(5.0, 5.0, 4.9))
    assert not contains_region(big, Circle(5.0, 5.0, 5.1))
    assert contains_region(big, ConvexPolygon([[1, 1], [9, 1], [5, 9]]))
    assert not contains_region(big, ConvexPolygon([[1, 1], [11, 1], [5, 9]]))
    outer = Circle(0.0, 0.0, 5.0)
    assert contains_region(outer, Circle(1.0, 1.0, 3.0))
    assert not contains_region(outer, Circle(3.0, 3.0, 1.0))
    assert contains_region(outer, Rectangle(-1, 1, -1, 1))
    poly = ConvexPolygon([[0, 0], [10, 0], [10, 10], [0, 10]])
    assert contains_region(poly, Circle(5.0, 5.0, 4.0))
    assert not contains_region(poly, Circle(9.5, 5.0, 1.0))


# ------------------------------------------------------------ batched masses

STUDY = Rectangle(0.0, 1000.0, 0.0, 1000.0)
MIXED = [DISC, Circle(620.0, 380.0, 40.0), POLY, Rectangle(600.0, 700.0, 100.0, 180.0),
         ConvexPolygon([[700, 600], [900, 650], [800, 800]]),
         ConvexPolygon([[200, 800], [300, 800], [300, 900], [200, 900]]),
         ConvexPolygon([[450, 50], [550, 80], [600, 160], [520, 230], [430, 180], [400, 100]]),
         RECT, Circle(620.0, 380.0, 40.0), POLY, Rectangle(600.0, 700.0, 100.0, 180.0)]


def _isotropic_mass(region, mean, sd: float) -> float:
    """Mass of N(mean, sd^2 I) in a region by an oracle independent of the
    package: noncentral chi^2 for circles, ndtr products for rectangles,
    whitened dblquad for polygons."""
    mean = np.asarray(mean, dtype=float)
    if isinstance(region, Circle):
        dist2 = (mean[0] - region.cx) ** 2 + (mean[1] - region.cy) ** 2
        return float(chndtr((region.radius / sd) ** 2, 2, dist2 / sd ** 2))
    if isinstance(region, Rectangle):
        return float((ndtr((region.x_max - mean[0]) / sd) - ndtr((region.x_min - mean[0]) / sd))
                     * (ndtr((region.y_max - mean[1]) / sd) - ndtr((region.y_min - mean[1]) / sd)))
    return _whitened_polygon_mass(region.vertices, mean, np.eye(2) * sd * sd)


def _tolerance(region) -> float:
    return 1e-10 if isinstance(region, ConvexPolygon) else 1e-12


def test_gaussian_masses_batch_matches_oracles_in_input_order():
    """Circles, polygons of 3 to 6 vertices, rectangles and repeats in one
    call: every mass sits at its region's place, matches its oracle, and
    equals the one-region call bit for bit."""
    sd = 90.0
    means = np.array([[500.0, 500.0], [640.0, 150.0], [250.0, 820.0]])
    got = Gaussian(np.eye(2) * sd * sd).masses(MIXED, means)
    assert got.shape == (len(MIXED), len(means))
    for region, row in zip(MIXED, got):
        assert np.array_equal(row, Gaussian(np.eye(2) * sd * sd).masses([region], means)[0])
        for mean, mass in zip(means, row):
            assert mass == pytest.approx(_isotropic_mass(region, mean, sd),
                                         abs=_tolerance(region)), (region, mean)
    assert Gaussian(np.eye(2)).masses([], means).shape == (0, 3)


def test_gaussian_kernel_keeps_read_only_arrays_and_reuses_them():
    kernel = Gaussian([[900.0, 300.0], [300.0, 400.0]])
    first = kernel.masses(MIXED, [[500.0, 500.0]])
    frame, low, white = kernel.frame, kernel.cholesky, kernel.whitening
    assert np.array_equal(kernel.masses(MIXED, [[500.0, 500.0]]), first)
    assert kernel.frame is frame and kernel.cholesky is low and kernel.whitening is white
    arrays = [kernel.cov, low, white, *(p for p in frame if isinstance(p, np.ndarray))]
    assert len(arrays) == 5 and not any(a.flags.writeable for a in arrays)
    assert np.array_equal(low, np.linalg.cholesky(kernel.cov))
    assert np.array_equal(white, np.linalg.inv(np.linalg.cholesky(kernel.cov)).T)


def test_gaussian_kernel_keeps_its_own_covariance():
    cov = np.array([[900.0, 300.0], [300.0, 400.0]])
    kernel = Gaussian(cov)
    before = kernel.masses(MIXED, [[500.0, 500.0]])
    cov *= 4.0
    assert np.array_equal(kernel.masses(MIXED, [[500.0, 500.0]]), before)


def test_parametric_masses_match_oracles_in_input_order():
    sd = 70.0
    centre = [600.0, 400.0]
    d = ParametricDensity.from_mixture(centre, np.eye(2) / (2.0 * sd * sd), 0.4, STUDY)
    got = d.masses(MIXED)
    assert len(got) == len(MIXED)
    scale = math.pi * 2.0 * sd * sd  # pi / sqrt(det Q)
    for region, mass in zip(MIXED, got):
        want = d.p0 * region.area + d.p1 * scale * _isotropic_mass(region, centre, sd)
        assert mass == pytest.approx(want, abs=_tolerance(region)), region
        assert mass == d.integrate(region)


def test_kde_masses_match_oracles_in_input_order():
    sd = 60.0
    points = np.array([[500.0, 500.0], [640.0, 380.0], [60.0, 950.0]])
    kde = KernelDensity(points, np.eye(2) * sd * sd, STUDY)
    norm = np.mean([_isotropic_mass(STUDY, pt, sd) for pt in points])
    got = kde.masses(MIXED)
    assert len(got) == len(MIXED)
    for region, mass in zip(MIXED, got):
        want = np.mean([_isotropic_mass(region, pt, sd) for pt in points]) / norm
        assert mass == pytest.approx(want, abs=_tolerance(region)), region
        assert mass == kde.integrate(region)


def test_kde_masses_in_runs_equal_one_run(monkeypatch):
    """Regions go to the kernels in runs that bound the (regions, kernels)
    table; runs of one region give the same masses."""
    kde = KernelDensity([[500.0, 500.0], [640.0, 380.0]], np.diag([900.0, 2500.0]), STUDY)
    whole = kde.masses(MIXED)
    monkeypatch.setattr(spatial, "_EVAL_CHUNK", 1)
    assert np.array_equal(kde.masses(MIXED), whole)


def test_masses_on_a_score_sized_circle_set_match_the_per_circle_loop():
    """500 circles of radius 10-60 km, half near a correlated bump, as in
    the benchmark's ``score`` workload."""
    rng = np.random.default_rng(2024)
    radius = rng.uniform(10.0, 60.0, 500)
    centre = np.where((rng.random(500) < 0.5)[:, None],
                      [620.0, 380.0] + rng.normal(0.0, 120.0, (500, 2)),
                      rng.uniform(0.0, 1000.0, (500, 2)))
    centre = np.clip(centre, radius[:, None] + 1.0, 999.0 - radius[:, None])
    circles = [Circle(cx, cy, r) for (cx, cy), r in zip(centre, radius)]
    cov = np.array([[70.0 ** 2, 0.35 * 70.0 * 45.0], [0.35 * 70.0 * 45.0, 45.0 ** 2]])
    d = ParametricDensity.from_mixture([620.0, 380.0], np.linalg.inv(2.0 * cov), 0.4, STUDY)
    loop = np.array([d.integrate(c) for c in circles])
    assert np.abs(d.masses(circles) - loop).max() <= 1e-15
    many = Gaussian(cov).masses(circles, [[620.0, 380.0]])[:, 0]
    one = np.array([Gaussian(cov).masses([c], [[620.0, 380.0]])[0, 0] for c in circles])
    assert np.abs(many - one).max() <= 1e-15


def test_masses_reject_a_region_outside_the_model():
    outside = Circle(990.0, 500.0, 20.0)
    for density in (ParametricDensity.uniform(STUDY),
                     KernelDensity([[500.0, 500.0]], np.eye(2) * 100.0, STUDY)):
        with pytest.raises(ValidationError, match="escapes"):
            density.masses([DISC, outside])
        assert len(density.masses([])) == 0
