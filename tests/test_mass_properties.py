"""Property tests for region masses: bounds, additivity over a partition
of the study region, and circles bracketed by polygons.

Kernels range over SDs from 0.2 km to 400 km per axis and correlations
up to +-0.9.  Examples are derandomized so every run checks the same
cases.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quakeval import (Circle, ConvexPolygon, KernelDensity, ParametricDensity,
                      Rectangle)
from quakeval.regions import Gaussian

STUDY = Rectangle(0.0, 1000.0, 0.0, 1000.0)
CORNERS = np.array([[0.0, 0.0], [1000.0, 0.0], [1000.0, 1000.0], [0.0, 1000.0]])
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

coords = st.floats(0.0, 1000.0)


@st.composite
def covariances(draw):
    sx, sy = draw(st.floats(0.2, 400.0)), draw(st.floats(0.2, 400.0))
    rho = draw(st.floats(-0.9, 0.9))
    return np.array([[sx * sx, rho * sx * sy], [rho * sx * sy, sy * sy]])


@st.composite
def densities(draw):
    """A floor-plus-bump model or a KDE of up to five kernels, all
    centred inside the study region."""
    cov = draw(covariances())
    if draw(st.booleans()):
        centre = (draw(coords), draw(coords))
        return ParametricDensity.from_mixture(centre, np.linalg.inv(2.0 * cov),
                                              draw(st.floats(0.0, 1.0)), STUDY)
    points = draw(st.lists(st.tuples(coords, coords), min_size=1, max_size=5))
    return KernelDensity(points, cov, STUDY)


def _clip(vertices: np.ndarray, normal: np.ndarray, offset: float) -> np.ndarray:
    """The part of a convex polygon where normal . x >= offset."""
    out = []
    for a, b in zip(vertices, np.roll(vertices, -1, axis=0)):
        fa, fb = normal @ a - offset, normal @ b - offset
        if fa >= 0:
            out.append(a)
        if fa * fb < 0:
            out.append(a + (b - a) * fa / (fa - fb))
    return np.array(out)


def _area(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


@PROPERTY
@given(densities(), st.floats(100.0, 900.0), st.floats(100.0, 900.0),
       st.floats(0.0, 2.0 * math.pi))
def test_line_cut_masses_sum_to_one(density, px, py, angle):
    normal = np.array([math.cos(angle), math.sin(angle)])
    offset = float(normal @ [px, py])
    halves = [_clip(CORNERS, normal, offset), _clip(CORNERS, -normal, -offset)]
    assume(all(len(h) >= 3 and _area(h) > 1.0 for h in halves))
    masses = [density.integrate(ConvexPolygon(h)) for h in halves]
    assert all(0.0 <= m <= 1.0 for m in masses)
    assert abs(sum(masses) - 1.0) <= 1e-12


@PROPERTY
@given(covariances(), st.lists(st.tuples(coords, coords), min_size=1, max_size=4),
       coords, coords, st.floats(0.5, 500.0))
def test_circle_mass_bracketed_by_polygons(cov, means, cx, cy, radius):
    """A circle's mass lies between those of its inscribed and
    circumscribed regular 1024-gons, and every mass lies in [0, 1]."""
    means = np.array(means)
    circle = Circle(cx, cy, radius)
    phi = 2.0 * np.pi * np.arange(1024) / 1024
    ring = np.column_stack([np.cos(phi), np.sin(phi)])
    inner = ConvexPolygon([cx, cy] + radius * ring)
    outer = ConvexPolygon([cx, cy] + radius / math.cos(np.pi / 1024) * ring)
    masses = [Gaussian(cov).masses([shape], means)[0] for shape in (inner, circle, outer)]
    for m in masses:
        assert np.all((m >= 0.0) & (m <= 1.0))
    assert np.all(masses[0] <= masses[1] + 1e-12)
    assert np.all(masses[1] <= masses[2] + 1e-12)
