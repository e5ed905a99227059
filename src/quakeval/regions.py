"""Planar study and alarm regions.

Coordinates are kilometre offsets from a fixed reference origin, so all
geometry is Euclidean.  Three shapes cover everything the evaluation
needs: axis-aligned rectangles (study areas), circles (alarm zones) and
convex polygons (irregular alarm zones).  Every shape knows its area,
its bounding box, point membership, whether it fully contains another
shape, how to draw uniform samples from itself, and how to build a
quadrature grid over itself.

``integrate`` provides the shared adaptive tensor-product rule: the
grid order is raised until two successive estimates agree to the
requested absolute tolerance.  Rectangles use a Gauss-Legendre product
rule, circles a polar rule (trapezoid in angle, Gauss-Legendre in
radius), polygons a fan of triangles each mapped from the unit square.
All three converge rapidly for smooth integrands; very narrow kernels
(much smaller than ~1% of the region diameter) may exhaust the
refinement ladder, which raises ``QuadratureError`` rather than
returning a silently wrong value.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Union

import numpy as np

from .errors import QuadratureError, QuakevalError, ValidationError

_EDGE_TOL = 1e-9


def _leg(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle [x_min, x_max] x [y_min, y_max]."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (np.isfinite([self.x_min, self.x_max, self.y_min, self.y_max]).all()):
            raise ValidationError("rectangle bounds must be finite")
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValidationError("rectangle must have positive extent in both axes")

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)

    @property
    def bounding_box(self) -> tuple[float, float, float, float]:
        return (self.x_min, self.x_max, self.y_min, self.y_max)

    def contains(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        tol = _EDGE_TOL * max(self.x_max - self.x_min, self.y_max - self.y_min)
        return ((x >= self.x_min - tol) & (x <= self.x_max + tol)
                & (y >= self.y_min - tol) & (y <= self.y_max + tol))

    def sample_uniform(self, count: int, rng: np.random.Generator) -> np.ndarray:
        pts = rng.random((count, 2))
        pts[:, 0] = self.x_min + pts[:, 0] * (self.x_max - self.x_min)
        pts[:, 1] = self.y_min + pts[:, 1] * (self.y_max - self.y_min)
        return pts

    def grid(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        u, wu = _leg(order)
        xs = self.x_min + u * (self.x_max - self.x_min)
        ys = self.y_min + u * (self.y_max - self.y_min)
        px, py = np.meshgrid(xs, ys, indexing="ij")
        wx, wy = np.meshgrid(wu * (self.x_max - self.x_min),
                             wu * (self.y_max - self.y_min), indexing="ij")
        pts = np.column_stack([px.ravel(), py.ravel()])
        return pts, (wx * wy).ravel()

    def to_dict(self) -> dict:
        return {"type": "rectangle", "x_min": self.x_min, "x_max": self.x_max,
                "y_min": self.y_min, "y_max": self.y_max}


@dataclass(frozen=True)
class Circle:
    """Circular region with centre (cx, cy) and radius in km."""

    cx: float
    cy: float
    radius: float

    def __post_init__(self):
        if not np.isfinite([self.cx, self.cy, self.radius]).all():
            raise ValidationError("circle parameters must be finite")
        if self.radius <= 0:
            raise ValidationError("circle radius must be positive")

    @property
    def area(self) -> float:
        return np.pi * self.radius ** 2

    @property
    def bounding_box(self) -> tuple[float, float, float, float]:
        return (self.cx - self.radius, self.cx + self.radius,
                self.cy - self.radius, self.cy + self.radius)

    def contains(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        r_tol = self.radius * (1.0 + _EDGE_TOL)
        return (x - self.cx) ** 2 + (y - self.cy) ** 2 <= r_tol * r_tol

    def sample_uniform(self, count: int, rng: np.random.Generator) -> np.ndarray:
        rho = self.radius * np.sqrt(rng.random(count))
        theta = 2.0 * np.pi * rng.random(count)
        return np.column_stack([self.cx + rho * np.cos(theta),
                                self.cy + rho * np.sin(theta)])

    def grid(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        # polar rule: periodic trapezoid in angle, Gauss-Legendre in radius
        # (the extra radial factor rho is folded into the weights)
        m = 2 * order
        theta = 2.0 * np.pi * np.arange(m) / m
        u, wu = _leg(order)
        rho = self.radius * u
        wr = wu * self.radius * rho
        pr, pt = np.meshgrid(rho, theta, indexing="ij")
        pts = np.column_stack([(self.cx + pr * np.cos(pt)).ravel(),
                               (self.cy + pr * np.sin(pt)).ravel()])
        w = np.meshgrid(wr, np.full(m, 2.0 * np.pi / m), indexing="ij")
        return pts, (w[0] * w[1]).ravel()

    def to_dict(self) -> dict:
        return {"type": "circle", "cx": self.cx, "cy": self.cy, "radius": self.radius}


class ConvexPolygon:
    """Convex polygon given by its vertices, stored counterclockwise.

    Clockwise input is accepted and reversed.  Collinear or
    self-intersecting vertex lists are rejected.
    """

    def __init__(self, vertices):
        v = np.asarray(vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValidationError("polygon needs at least 3 (x, y) vertices")
        if not np.isfinite(v).all():
            raise ValidationError("polygon vertices must be finite")
        signed = _signed_area(v)
        if signed < 0:
            v = v[::-1]
            signed = -signed
        if signed <= 0:
            raise ValidationError("polygon vertices are collinear")
        edges = np.roll(v, -1, axis=0) - v
        cross = edges[:, 0] * np.roll(edges, -1, axis=0)[:, 1] \
            - edges[:, 1] * np.roll(edges, -1, axis=0)[:, 0]
        scale = float(np.abs(edges).max())
        if np.any(cross < -_EDGE_TOL * scale * scale):
            raise ValidationError("polygon is not convex")
        self._v = v
        self._v.flags.writeable = False
        self._area = signed

    @property
    def vertices(self) -> np.ndarray:
        return self._v

    @property
    def area(self) -> float:
        return self._area

    @property
    def bounding_box(self) -> tuple[float, float, float, float]:
        return (float(self._v[:, 0].min()), float(self._v[:, 0].max()),
                float(self._v[:, 1].min()), float(self._v[:, 1].max()))

    def contains(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        xmin, xmax, ymin, ymax = self.bounding_box
        tol = _EDGE_TOL * max(xmax - xmin, ymax - ymin, 1.0)
        inside = np.ones(np.broadcast(x, y).shape, dtype=bool)
        for a, b in zip(self._v, np.roll(self._v, -1, axis=0)):
            inside &= ((b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0])
                       >= -tol * max(abs(b[0] - a[0]), abs(b[1] - a[1]), 1.0))
        return inside

    def edge_distance(self, x: float, y: float) -> float:
        """Smallest distance from an interior point to the boundary lines."""
        dists = []
        for a, b in zip(self._v, np.roll(self._v, -1, axis=0)):
            e = b - a
            n = np.hypot(e[0], e[1])
            dists.append(((e[0] * (y - a[1]) - e[1] * (x - a[0])) / n))
        return float(min(dists))

    def sample_uniform(self, count: int, rng: np.random.Generator) -> np.ndarray:
        xmin, xmax, ymin, ymax = self.bounding_box

        def propose(remaining: int) -> np.ndarray:
            n = max(64, int(1.8 * remaining * (xmax - xmin) * (ymax - ymin) / self.area))
            return np.column_stack([xmin + rng.random(n) * (xmax - xmin),
                                    ymin + rng.random(n) * (ymax - ymin)])

        return sample_inside(self, count, propose)

    def grid(self, order: int) -> tuple[np.ndarray, np.ndarray]:
        # fan triangulation about the centroid; each triangle is the image
        # of the unit square under (u, v) -> v0 + u(v1 - v0) + uv(v2 - v1),
        # whose Jacobian is 2*area*u
        centroid = self._v.mean(axis=0)
        u, wu = _leg(order)
        uu, vv = np.meshgrid(u, u, indexing="ij")
        wuu, wvv = np.meshgrid(wu, wu, indexing="ij")
        pts_list, w_list = [], []
        for a, b in zip(self._v, np.roll(self._v, -1, axis=0)):
            v0, v1, v2 = centroid, a, b
            px = v0[0] + uu * (v1[0] - v0[0]) + uu * vv * (v2[0] - v1[0])
            py = v0[1] + uu * (v1[1] - v0[1]) + uu * vv * (v2[1] - v1[1])
            tri_area2 = abs((v1[0] - v0[0]) * (v2[1] - v0[1])
                            - (v1[1] - v0[1]) * (v2[0] - v0[0]))
            pts_list.append(np.column_stack([px.ravel(), py.ravel()]))
            w_list.append((wuu * wvv * uu * tri_area2).ravel())
        return np.vstack(pts_list), np.concatenate(w_list)

    def to_dict(self) -> dict:
        return {"type": "polygon", "vertices": self._v.tolist()}

    def __eq__(self, other):
        return (isinstance(other, ConvexPolygon)
                and self._v.shape == other._v.shape
                and bool(np.all(self._v == other._v)))

    def __hash__(self):
        return hash(self._v.tobytes())

    def __repr__(self):
        return f"ConvexPolygon({self._v.tolist()})"


Region = Union[Rectangle, Circle, ConvexPolygon]


def _signed_area(v: np.ndarray) -> float:
    x, y = v[:, 0], v[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def sample_inside(region: Region, count: int,
                  propose: Callable[[int], np.ndarray]) -> np.ndarray:
    """``count`` points inside ``region`` by rejection: batches of
    candidates from ``propose(remaining)``, shape (k, 2), are kept in
    draw order while they land inside, so seeded proposals give seeded
    samples.  Raises QuakevalError when the batches keep missing."""
    out = np.empty((count, 2))
    filled = 0
    for _ in range(100_000):
        if filled >= count:
            return out
        cand = propose(count - filled)
        keep = cand[np.asarray(region.contains(cand[:, 0], cand[:, 1]), bool)]
        take = min(len(keep), count - filled)
        out[filled:filled + take] = keep[:take]
        filled += take
    raise QuakevalError("rejection sampling stalled: the proposals almost "
                        "never land inside the region")


def region_from_dict(d: dict) -> Region:
    """Rebuild a region from its ``to_dict`` form."""
    try:
        kind = d["type"]
    except (TypeError, KeyError):
        raise ValidationError("region dict needs a 'type' key") from None
    if kind == "rectangle":
        return Rectangle(d["x_min"], d["x_max"], d["y_min"], d["y_max"])
    if kind == "circle":
        return Circle(d["cx"], d["cy"], d["radius"])
    if kind == "polygon":
        return ConvexPolygon(d["vertices"])
    raise ValidationError(f"unknown region type {kind!r}")


def contains_region(outer: Region, inner: Region) -> bool:
    """True if ``inner`` lies entirely within ``outer``.

    Exact for every shape pair here because all three shapes are convex:
    a convex shape is inside another convex shape iff its extreme points
    are.  A relative slack of ~1e-9 keeps region-in-itself checks stable.
    """
    if isinstance(inner, Rectangle):
        corners = np.array([(inner.x_min, inner.y_min), (inner.x_min, inner.y_max),
                            (inner.x_max, inner.y_min), (inner.x_max, inner.y_max)])
        return bool(np.all(outer.contains(corners[:, 0], corners[:, 1])))
    if isinstance(inner, ConvexPolygon):
        v = inner.vertices
        return bool(np.all(outer.contains(v[:, 0], v[:, 1])))
    # inner is a circle
    if isinstance(outer, Rectangle):
        slack = _EDGE_TOL * max(outer.x_max - outer.x_min, outer.y_max - outer.y_min)
        return (inner.cx - inner.radius >= outer.x_min - slack
                and inner.cx + inner.radius <= outer.x_max + slack
                and inner.cy - inner.radius >= outer.y_min - slack
                and inner.cy + inner.radius <= outer.y_max + slack)
    if isinstance(outer, Circle):
        d = np.hypot(inner.cx - outer.cx, inner.cy - outer.cy)
        return bool(d + inner.radius <= outer.radius * (1.0 + _EDGE_TOL))
    if isinstance(outer, ConvexPolygon):
        if not outer.contains(inner.cx, inner.cy):
            return False
        slack = _EDGE_TOL * max(1.0, inner.radius)
        return outer.edge_distance(inner.cx, inner.cy) >= inner.radius - slack
    raise TypeError(f"unsupported region type {type(outer).__name__}")


_ORDERS = (12, 17, 24, 34, 48, 68, 96, 136, 192, 272)


@lru_cache(maxsize=256)
def _cached_grid(region: Region, order: int) -> tuple[np.ndarray, np.ndarray]:
    pts, w = region.grid(order)
    pts.flags.writeable = False
    w.flags.writeable = False
    return pts, w


def integrate(region: Region, f: Callable[[np.ndarray], np.ndarray],
              epsabs: float = 1e-8) -> float:
    """Integrate a vectorized integrand ``f(points) -> values`` over a region.

    The tensor-product order is raised until two successive estimates
    differ by at most ``epsabs`` (with a small relative floor).  Raises
    QuadratureError when the ladder is exhausted without convergence.
    """
    prev = None
    for order in _ORDERS:
        pts, w = _cached_grid(region, order)
        cur = float(np.dot(w, np.asarray(f(pts), dtype=float)))
        if prev is not None and abs(cur - prev) <= max(epsabs, 4e-14 * abs(cur)):
            return cur
        prev = cur
    raise QuadratureError(
        f"integral did not converge to {epsabs:g} over {type(region).__name__}; "
        "the integrand is probably far narrower than the region")
