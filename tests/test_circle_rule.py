"""The circle rule gives the same bits as its per-node form.

Rows whose sub-interval is the whole half-circle take the sines and
cosines of their nodes from a table, and their chord masses for half the
nodes, mirrored onto the other half.  Rows beyond the kernel's band
skip the cut table with a mass of +0.0, and only the rows that the band
cuts build it; boundary rows pin where those classes meet.  The
reference below is the rule with every row evaluated node by node;
every mass must match it byte for byte, under numpy's default SIMD
dispatch and, in a subprocess, with the AVX-512 targets switched off,
since the two round sin and cos differently.  The rule's checked-in
Gauss-Legendre table is checked against scipy's and numpy's rules.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quakeval import regions
from quakeval.regions import Circle, Gaussian, Rectangle, _blocked, _gauss_legendre
from quakeval.spatial import KernelDensity, ParametricDensity

STUDY = Rectangle(-3000.0, 3000.0, -3000.0, 3000.0)


def reference_circle_masses(circles, means, kernel, kinds=None):
    """The circle rule with every live row evaluated node by node.  When
    ``kinds`` is a dict, it counts the (circle, mean) rows cut by the
    x-band, cut by the y-band, with no live sub-interval, and the live
    sub-intervals on the whole half-circle or on part of it."""
    from scipy.special import ndtr
    gl_x, gl_w = _gauss_legendre()
    rot, sx, sy, x_band, x_lim, y_lim, y_low, norm = kernel.frame
    pm = np.array([-1.0, 1.0])
    step = max(1, regions._EVAL_CHUNK // (7 * regions._GL_NODES))

    def block(shapes, m):
        c = circles[shapes]
        o = (c[:, None, :2] - m).reshape(-1, 2) @ rot
        r = c[:, 2:] if len(m) == 1 else np.repeat(c[:, 2:], len(m), axis=0)
        ox, oy = o[:, :1], o[:, 1:]
        cuts = np.empty((len(o), 8))
        cuts[:, 0] = -0.5 * np.pi
        cuts[:, 1] = 0.5 * np.pi
        x_arg = (x_band - ox) / r
        cuts[:, 2:4] = np.arcsin(np.minimum(np.maximum(x_arg, -1.0), 1.0))
        y_cos = np.abs(y_lim + pm * oy) / r
        cuts[:, 4:6] = np.arccos(np.minimum(y_cos, 1.0))
        cuts[:, 4:6][~(y_cos < 1.0)] = 0.5 * np.pi
        np.negative(cuts[:, 4:6], out=cuts[:, 6:])
        cuts.sort(axis=1)
        lo, hi = cuts[:, :-1], cuts[:, 1:]
        mid = 0.5 * (lo + hi)
        chord_mid = r * np.cos(mid)
        live = ((hi > lo) & (np.abs(ox + r * np.sin(mid)) < x_lim)
                & (oy + chord_mid > y_low) & (oy - chord_mid < y_lim))
        k, j = np.nonzero(live)
        if kinds is not None:
            kinds["x_cut"] += int(np.count_nonzero((np.abs(x_arg) < 1.0).any(axis=1)))
            kinds["y_cut"] += int(np.count_nonzero((y_cos < 1.0).any(axis=1)))
            kinds["dead"] += int(np.count_nonzero(~live.any(axis=1)))
            whole = (lo[k, j] == -0.5 * np.pi) & (hi[k, j] == 0.5 * np.pi)
            kinds["whole"] += int(np.count_nonzero(whole))
            kinds["part"] += int(np.count_nonzero(~whole))
        if not len(k):
            return np.zeros((len(c), len(m)))
        centre, half = mid[k, j, None], 0.5 * (hi - lo)[k, j, None]
        theta = centre + half * gl_x
        rk, oyk = r[k], oy[k]
        x = ox[k] + rk * np.sin(theta)
        chord = rk * np.cos(theta)
        f = (np.exp(-0.5 * (x / sx) ** 2) / norm
             * (ndtr((oyk + chord) / sy) - ndtr((oyk - chord) / sy)) * chord)
        mass = np.bincount(k, weights=np.einsum("ij,j->i", f, gl_w) * half[:, 0],
                           minlength=len(o))
        return mass.reshape(len(c), len(m))

    return _blocked(len(circles), means, step, block)


def _covariance(sd_x, sd_y, rho):
    return np.array([[sd_x * sd_x, rho * sd_x * sd_y], [rho * sd_x * sd_y, sd_y * sd_y]])


def _cases(seed, count):
    """Seeded (covariance, circles, means): isotropic, anisotropic and
    correlated kernels with SDs 0.2-400 km, radii 1-400 km, and circles
    near and far from the means, so that rows are whole, cut by either
    band or outside it; one mean or 300."""
    rng = np.random.default_rng(seed)
    for case in range(count):
        sd = np.exp(rng.uniform(np.log(0.2), np.log(400.0), 2))
        shape = case % 3
        if shape == 0:
            sd[1] = sd[0]
        cov = _covariance(sd[0], sd[1], rng.uniform(-0.9, 0.9) if shape == 2 else 0.0)
        n_means = 300 if case % 2 else 1
        means = rng.normal(0.0, 2.0 * sd.max(), (n_means, 2))
        radius = np.exp(rng.uniform(0.0, np.log(400.0), 6))
        spread = rng.choice([0.5, 4.0, 12.0]) * sd.max()
        circles = np.column_stack([rng.normal(0.0, spread, (6, 2)), radius])
        yield cov, circles, means


def _kinds():
    """Counts of the reference's row kinds and sub-intervals, and of the
    rule's three row classes: whole, beyond the band and cut by it."""
    return dict.fromkeys(["x_cut", "y_cut", "dead", "whole", "part",
                          "whole_rows", "beyond_rows", "cut_rows"], 0)


def _row_classes(circles, means, kernel):
    """The rule's class masks of every (circle, mean) row, in the rule's
    row order."""
    o = (circles[:, None, :2] - means).reshape(-1, 2) @ kernel.frame[0]
    r = np.repeat(circles[:, 2:], len(means), axis=0)
    _, _, whole, beyond = regions._circle_rows(o, r, kernel.frame)
    return whole, beyond


def _count_classes(kinds, circles, means, kernel):
    whole, beyond = _row_classes(circles, means, kernel)
    kinds["whole_rows"] += int(np.count_nonzero(whole))
    kinds["beyond_rows"] += int(np.count_nonzero(beyond))
    kinds["cut_rows"] += int(np.count_nonzero(~(whole | beyond)))


def test_the_rule_has_the_per_node_bits_on_every_row_kind():
    kinds = _kinds()
    for cov, circles, means in _cases(1, 120):
        kernel = Gaussian(cov)
        want = reference_circle_masses(circles, means, kernel, kinds)
        _count_classes(kinds, circles, means, kernel)
        assert regions._circle_masses(circles, means, kernel).tobytes() == want.tobytes()
        # one circle at a time, and one (circle, mean) pair at a time
        for i in range(len(circles)):
            one = reference_circle_masses(circles[i:i + 1], means, kernel)
            assert regions._circle_masses(circles[i:i + 1], means, kernel).tobytes() \
                == one.tobytes()
            pair = reference_circle_masses(circles[i:i + 1], means[:1], kernel)
            assert regions._circle_masses(circles[i:i + 1], means[:1], kernel).tobytes() \
                == pair.tobytes()
    assert min(kinds.values()) > 100, kinds


def test_gaussian_masses_have_the_per_node_bits():
    for cov, circles, means in _cases(2, 30):
        shapes = [Circle(*row) for row in circles]
        kernel = Gaussian(cov)
        want = reference_circle_masses(circles, means, kernel)
        assert kernel.masses(shapes, means).tobytes() == want.tobytes()
        # circles among polygons go through the rule in one call
        mixed = shapes[:3] + [Rectangle(-1.0, 1.0, -1.0, 1.0)] + shapes[3:]
        got = kernel.masses(mixed, means)
        assert np.delete(got, 3, axis=0).tobytes() == want.tobytes()


def _densities(rng):
    """A parametric bump and a 300-point KDE per kernel shape: isotropic,
    anisotropic and correlated."""
    for sd_x, sd_y, rho in [(30.0, 30.0, 0.0), (60.0, 15.0, 0.0), (50.0, 25.0, 0.7)]:
        cov = _covariance(sd_x, sd_y, rho)
        yield ParametricDensity.from_mixture([80.0, -40.0], np.linalg.inv(2.0 * cov), 0.5,
                                             STUDY)
        points = rng.multivariate_normal([0.0, 0.0], 40.0 * cov, 300)
        yield KernelDensity(np.clip(points, -2900.0, 2900.0), cov / 16.0, STUDY)


def test_density_masses_and_integrate_have_the_per_node_bits():
    rng = np.random.default_rng(3)
    radius = np.exp(rng.uniform(0.0, np.log(400.0), 40))
    circles = np.column_stack([rng.uniform(-2000.0, 2000.0, (40, 2)), radius])
    shapes = [Circle(*row) for row in circles]
    for density in _densities(rng):
        if isinstance(density, ParametricDensity):
            bump = reference_circle_masses(circles, density._bump_mean, density._bump)[:, 0]
            want = density.p0 * np.array([s.area for s in shapes]) \
                + density.p1 * (density._bump_scale * bump)
        else:
            raw = reference_circle_masses(circles, density.points, density._kernel)
            want = raw.mean(axis=1) / density.normalization
        want = np.minimum(np.maximum(want, 0.0), 1.0)
        assert density.masses(shapes).tobytes() == want.tobytes()
        assert np.array([density.integrate(s) for s in shapes]).tobytes() == want.tobytes()


def test_half_circle_nodes_are_mirror_symmetric():
    """The mirror needs nodes that are exactly antisymmetric and a cosine
    table that is exactly even; the tables must hold the bits that the
    rule computes for a whole row."""
    gl_x, _ = _gauss_legendre()
    n = regions._GL_NODES
    assert n % 2 == 0
    assert np.array_equal(gl_x[::-1], -gl_x)
    sin, cos = regions._half_circle_nodes()
    assert cos[::-1].tobytes() == cos.tobytes()
    assert np.array_equal(regions._MIRROR, np.r_[0:n // 2, n // 2 - 1:-1:-1])
    theta = np.zeros((3, 1)) + np.full((3, 1), 0.5 * np.pi) * gl_x
    assert np.sin(theta).tobytes() == np.tile(sin, (3, 1)).tobytes()
    assert np.cos(theta).tobytes() == np.tile(cos, (3, 1)).tobytes()
    assert not sin.flags.writeable and not cos.flags.writeable


def test_the_gauss_legendre_table_is_exactly_mirrored_and_read_only():
    gl_x, gl_w = _gauss_legendre()
    assert gl_x.shape == gl_w.shape == (regions._GL_NODES,)
    assert gl_x.dtype == gl_w.dtype == np.float64
    assert np.all(np.diff(gl_x) > 0) and -1.0 < gl_x[0] and gl_x[-1] < 1.0
    assert (-gl_x[::-1]).tobytes() == gl_x.tobytes()
    assert gl_w[::-1].tobytes() == gl_w.tobytes()
    assert np.all(gl_w > 0)
    again_x, again_w = _gauss_legendre()
    assert again_x is gl_x and again_w is gl_w
    for table in (gl_x, gl_w):
        assert not table.flags.writeable
        with pytest.raises(ValueError):
            table[0] = 0.0


def test_the_gauss_legendre_table_agrees_with_scipy_and_numpy():
    """The table is scipy's rule; numpy's ``leggauss`` computes it
    another way, and its weights are off by about 2.3e-12 relative."""
    from scipy.special import roots_legendre
    gl_x, gl_w = _gauss_legendre()
    for nodes, weights, weight_tol in (
            (*roots_legendre(regions._GL_NODES), 1e-15),
            (*np.polynomial.legendre.leggauss(regions._GL_NODES), 1e-11)):
        assert np.max(np.abs(gl_x - nodes)) <= 2e-16
        assert np.max(np.abs(gl_w - weights) / weights) <= weight_tol


def test_the_gauss_legendre_rule_integrates_every_even_power_to_126():
    """A 64-node rule is exact to degree 127."""
    gl_x, gl_w = _gauss_legendre()
    for k in range(0, 2 * regions._GL_NODES, 2):
        assert abs(np.sum(gl_w * gl_x ** k) - 2.0 / (k + 1)) <= 1e-14, k


def _boundary_cases():
    """(covariance, rows) with rows (ox, oy, r) on the edges of the
    rule's row classes, in the kernel's principal frame."""
    # x_lim = 2 and y_lim = 4 exactly, with the axes in either order
    for cov in (np.diag([0.0625, 0.25]), np.diag([0.25, 0.0625])):
        yield cov, [
            # tangent to a band edge from inside: x_q or y_cos exactly +-1
            (0.0, 0.0, 2.0), (1.0, 0.0, 1.0), (-1.0, 0.0, 1.0), (0.0, 3.0, 1.0),
            (0.0, -3.0, 1.0), (1.0, 3.0, 1.0), (0.0, 3.5, 2.0), (0.0, 0.0, 4.0),
            # tangent from outside
            (3.0, 0.0, 1.0), (-3.0, 0.0, 1.0), (0.0, 5.0, 1.0), (0.0, -5.0, 1.0),
            (3.0, 5.0, 1.0),
            # the centre on the y-band's edge: y_cos == 0
            (0.0, 4.0, 1.0), (0.0, -4.0, 1.0), (0.0, 4.0, 10.0), (1.5, -4.0, 0.5),
            (2.0, 4.0, 1.0),
            # beyond the band, and kernels 10^6 km away
            (3.5, 0.0, 1.0), (0.0, -6.0, 1.0), (-1e6, 0.0, 10.0), (0.0, 1e6, 10.0),
            (7e5, -7e5, 10.0),
        ]
    # a 10^6 km circle with a kernel of SD 0.2 km just outside its rim,
    # clearing the band by `gap` (overlapping it when negative), or just
    # inside it; x_lim = y_lim = 1.6
    r, lim = 1e6, 1.6
    rows = [(0.0, 0.0, r)]
    for gap in (-1e-3, -1e-7, 0.0, 1e-9, 1e-7, 1e-6, 1e-3, 0.5):
        for sign in (1.0, -1.0):
            rows += [(sign * (r + lim + gap), 0.0, r), (0.0, sign * (r + lim + gap), r),
                     (sign * (r - lim - gap), 0.0, r), (0.0, sign * (r - lim - gap), r)]
    yield 0.04 * np.eye(2), rows


def _boundary_circles(cov, rows):
    """The kernel and the circles whose rows about a mean at the origin
    are ``rows``; exact, as the principal frame permutes the axes."""
    kernel = Gaussian(cov)
    rot = kernel.frame[0]
    assert np.array_equal(np.abs(rot), np.abs(rot).round())
    o = np.array(rows)
    return kernel, np.column_stack([o[:, :2] @ rot.T, o[:, 2]])


def test_boundary_rows_have_the_per_node_bits():
    kinds = _kinds()
    origin = np.zeros((1, 2))
    means = np.array([[0.0, 0.0], [1.0, -1.0], [-2.5, 0.5], [1e6, 0.0]])
    for cov, rows in _boundary_cases():
        kernel, circles = _boundary_circles(cov, rows)
        got = regions._circle_masses(circles, origin, kernel)
        assert got.tobytes() == reference_circle_masses(circles, origin, kernel,
                                                        kinds).tobytes()
        for i in range(len(circles)):  # one row per call
            one = circles[i:i + 1]
            assert regions._circle_masses(one, origin, kernel).tobytes() \
                == reference_circle_masses(one, origin, kernel).tobytes()
        assert regions._circle_masses(circles, means, kernel).tobytes() \
            == reference_circle_masses(circles, means, kernel).tobytes()
        _count_classes(kinds, circles, origin, kernel)
        # rows beyond the band have a mass of exactly +0.0
        whole, beyond = _row_classes(circles, origin, kernel)
        assert got[beyond].tobytes() == np.zeros(np.count_nonzero(beyond)).tobytes()
        if cov[0, 0] != cov[1, 1]:  # the rows that sit exactly on a band edge
            o = np.array(rows)
            x_q, y_cos, _, _ = regions._circle_rows(o[:, :2], o[:, 2:], kernel.frame)
            assert (x_q == -1.0).any() and (x_q == 1.0).any()
            assert (y_cos == 1.0).any() and (y_cos == 0.0).any()
    assert min(kinds.values()) > 0, kinds


def test_a_row_is_beyond_the_band_only_by_a_slack_of_its_own_size():
    """A 10^6 km circle whose rim clears a 0.2 km kernel's band by 1e-6 km
    is cut by the band: the slack scales with the circle's distance and
    radius, not with the band alone.  Clearing it by 1e-3 km is beyond."""
    origin = np.zeros((1, 2))
    for gap, beyond in [(0.0, False), (1e-9, False), (1e-7, False), (1e-6, False),
                        (1e-3, True), (0.5, True)]:
        kernel, circles = _boundary_circles(0.04 * np.eye(2), [
            (1e6 + 1.6 + gap, 0.0, 1e6), (0.0, -(1e6 + 1.6 + gap), 1e6)])
        _, got = _row_classes(circles, origin, kernel)
        assert got.tolist() == [beyond, beyond], gap
        assert regions._circle_masses(circles, origin, kernel).tobytes() \
            == reference_circle_masses(circles, origin, kernel).tobytes()


def _avx512_targets():
    """numpy's AVX-512 dispatch targets that this machine runs."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1.x
        from numpy.core import _multiarray_umath as umath
    return [name for name in umath.__cpu_dispatch__
            if ("AVX512" in name or name == "X86_V4") and umath.__cpu_features__.get(name)]


def test_the_bits_hold_with_avx512_dispatch_switched_off():
    targets = _avx512_targets()
    if not targets:
        pytest.skip("numpy dispatches no AVX-512 code on this machine")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=" ".join(targets))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    check = ("from tests import test_circle_rule as t\n"
             "assert not any(t._avx512_targets())\n"
             "t.test_half_circle_nodes_are_mirror_symmetric()\n"
             "t.test_the_rule_has_the_per_node_bits_on_every_row_kind()\n"
             "t.test_gaussian_masses_have_the_per_node_bits()\n"
             "t.test_density_masses_and_integrate_have_the_per_node_bits()\n"
             "t.test_boundary_rows_have_the_per_node_bits()\n"
             "t.test_a_row_is_beyond_the_band_only_by_a_slack_of_its_own_size()\n")
    done = subprocess.run([sys.executable, "-c", check], env=env, capture_output=True,
                          text=True, cwd=Path(__file__).resolve().parent.parent)
    assert done.returncode == 0, done.stderr
