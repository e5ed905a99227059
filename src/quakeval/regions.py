"""Planar study and alarm regions.

Coordinates are kilometre offsets from a fixed reference origin, so all
geometry is Euclidean.  Three shapes cover everything the evaluation
needs: axis-aligned rectangles (study areas), circles (alarm zones) and
convex polygons (irregular alarm zones).  Every shape knows its area,
its bounding box, point membership and how to draw uniform samples from
itself; ``contains_region`` tells whether one shape fully contains
another.

``Gaussian(cov)`` is the bivariate Gaussian kernel N(mean, cov) with a
fixed covariance.  Its ``masses(regions, means)`` gives
P(N(mean_j, cov) in region i) for every region and every row of
``means`` in one call; both density families are built from it.  The
kernel keeps, read-only, what it computes of ``cov`` on first use: the
circle rule's principal frame, the Cholesky factor that draws use and
the polygon rule's whitening, taken from that factor.  Accuracy does
not depend on how narrow the kernel is against the shape:

* Rectangles and convex polygons are closed form (Owen's T function per
  edge, after whitening): absolute error about 1e-15 per edge.
* Circles use 64-node Gauss-Legendre rules in the angle on sub-intervals
  cut at the kernel's +-8 SD band, with the chord's mass exact in
  ``ndtr``: absolute error below 1e-12 for SDs from 0.2 km to 400 km,
  correlations to +-0.9 and kernels anywhere on or off the circle; the
  dropped tails hold under 3e-15.  Each (circle, mean) row is first
  classed from the circle's offset and radius alone: inside the band
  (integrated over the whole half-circle from tabled nodes), beyond it
  (mass exactly 0, once it clears the band by a slack of 1e-12 of its
  distance plus radius) or cut by it (the only rows that find their cut
  points).  The classes only skip work whose outcome is already known,
  so no mass moves by a bit.

Masses are clipped to [0, 1].  Tests check them against ``ndtr``
products, ``chndtr`` and ``dblquad`` on the whitened problem.  The
rules import ``scipy.special`` when first called, so that commands
which compute no mass never load it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .errors import QuakevalError, ValidationError

_EDGE_TOL = 1e-9
_EVAL_CHUNK = 4_000_000  # elements per temporary array in blocked kernel work
_SD_CUT = 8.0  # a Gaussian carries 1.2e-15 of its mass beyond 8 SD
_PM = np.array([-1.0, 1.0])
_HALF_TURN = np.array([-0.5 * np.pi, 0.5 * np.pi])  # the ends of the circle rule's angles
_GL_NODES = 64  # Gauss-Legendre nodes per sub-interval of the circle rule
# a circle is beyond the band only when it clears it by this much of its
# distance plus radius along the axis, far above their rounding
_BAND_SLACK = 1e-12
# the first half of the nodes, then the same in reverse
_MIRROR = np.concatenate([np.arange(_GL_NODES // 2), np.arange(_GL_NODES // 2)[::-1]])


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the ``_GL_NODES``-point rule on [-1, 1],
    read-only since every call shares them."""
    from scipy.special import roots_legendre
    nodes, weights = roots_legendre(_GL_NODES)
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


@functools.cache
def _half_circle_nodes() -> tuple[np.ndarray, np.ndarray]:
    """sin and cos of the circle rule's nodes on the whole half-circle
    [-pi/2, pi/2], read-only.  The angles are formed as the rule forms
    them for a row with centre 0.0 and half-width pi/2, and taken by the
    same ufuncs on a contiguous array, so each value has the rule's bits."""
    gl_x, _ = _gauss_legendre()
    theta = 0.0 + (0.5 * np.pi) * gl_x
    sin, cos = np.sin(theta), np.cos(theta)
    sin.flags.writeable = cos.flags.writeable = False
    return sin, cos


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle [x_min, x_max] x [y_min, y_max]."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (math.isfinite(self.x_min) and math.isfinite(self.x_max)
                and math.isfinite(self.y_min) and math.isfinite(self.y_max)):
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

    @property
    def vertices(self) -> np.ndarray:
        """The four corners, counterclockwise from (x_min, y_min)."""
        return np.array([(self.x_min, self.y_min), (self.x_max, self.y_min),
                         (self.x_max, self.y_max), (self.x_min, self.y_max)])

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
        if not (math.isfinite(self.cx) and math.isfinite(self.cy)
                and math.isfinite(self.radius)):
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

    def to_dict(self) -> dict:
        return {"type": "circle", "cx": self.cx, "cy": self.cy, "radius": self.radius}


class ConvexPolygon:
    """Convex polygon given by its vertices, stored counterclockwise.

    Clockwise input is accepted and reversed.  Collinear or
    self-intersecting vertex lists are rejected.
    """

    def __init__(self, vertices):
        v = np.array(vertices, dtype=float)  # a copy: the caller's array stays writeable
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
        edges = _next(v) - v
        following = _next(edges)
        cross = edges[:, 0] * following[:, 1] - edges[:, 1] * following[:, 0]
        scale = float(np.abs(edges).max())
        if np.any(cross < -_EDGE_TOL * scale * scale):
            raise ValidationError("polygon is not convex")
        self._v = v
        self._v.flags.writeable = False
        self._area = signed
        self._bbox = (float(v[:, 0].min()), float(v[:, 0].max()),
                      float(v[:, 1].min()), float(v[:, 1].max()))
        # one row per edge from vertex a: a's coordinates, the edge and the
        # signed-distance threshold of ``contains``, as columns that
        # broadcast against a row of points
        xmin, xmax, ymin, ymax = self._bbox
        tol = _EDGE_TOL * max(xmax - xmin, ymax - ymin, 1.0)
        self._ax, self._ay = v[:, :1], v[:, 1:]
        self._ex, self._ey = edges[:, :1], edges[:, 1:]
        self._edge_min = -tol * np.maximum(np.maximum(np.abs(self._ex), np.abs(self._ey)), 1.0)
        self._edge_len = np.hypot(self._ex, self._ey)

    @property
    def vertices(self) -> np.ndarray:
        return self._v

    @property
    def area(self) -> float:
        return self._area

    @property
    def bounding_box(self) -> tuple[float, float, float, float]:
        return self._bbox

    def contains(self, x, y):
        x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
        px, py = x.reshape(1, -1), y.reshape(1, -1)
        # (edges, points): inside when on the left of every edge, within tolerance
        left = self._ex * (py - self._ay) - self._ey * (px - self._ax) >= self._edge_min
        return left.all(axis=0).reshape(x.shape)

    def edge_distance(self, x: float, y: float) -> float:
        """Smallest distance from an interior point to the boundary lines
        of the edges of nonzero length (a repeated vertex makes an edge of
        length zero, which bounds nothing)."""
        e = np.flatnonzero(self._edge_len[:, 0])
        dists = (self._ex[e] * (y - self._ay[e]) - self._ey[e] * (x - self._ax[e])) \
            / self._edge_len[e]
        return float(min(dists[:, 0].tolist()))

    def sample_uniform(self, count: int, rng: np.random.Generator) -> np.ndarray:
        xmin, xmax, ymin, ymax = self.bounding_box

        def propose(remaining: int) -> np.ndarray:
            n = max(64, int(1.8 * remaining * (xmax - xmin) * (ymax - ymin) / self.area))
            return np.column_stack([xmin + rng.random(n) * (xmax - xmin),
                                    ymin + rng.random(n) * (ymax - ymin)])

        return sample_inside(self, count, propose)

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


def _next(rows: np.ndarray) -> np.ndarray:
    """Each row's successor, the last followed by the first: ``np.roll``
    by -1 on the first axis, for a fraction of its cost."""
    return np.concatenate([rows[1:], rows[:1]])


def _signed_area(v: np.ndarray) -> float:
    nxt = _next(v)
    return 0.5 * float(np.sum(v[:, 0] * nxt[:, 1] - nxt[:, 0] * v[:, 1]))


class Gaussian:
    """N(mean, cov) for a fixed 2x2 ``cov``, the mean left free.  What
    depends on ``cov`` alone is computed on first use and kept."""

    def __init__(self, cov):
        self.cov = np.array(cov, dtype=float)
        self.cov.flags.writeable = False

    @functools.cached_property
    def frame(self) -> tuple:
        """What the circle rule needs: the principal axes ``rot``, the SDs
        ``sx`` and ``sy`` along them, the band edges -+8 sx, 8 sx, 8 sy and
        -8 sy, and the x-kernel's normalizing constant sx sqrt(2 pi)."""
        lam, rot = np.linalg.eigh(self.cov)
        sx, sy = np.sqrt(lam)
        x_band = _PM * _SD_CUT * sx
        rot.flags.writeable = x_band.flags.writeable = False
        return (rot, sx, sy, x_band, _SD_CUT * sx, _SD_CUT * sy, -_SD_CUT * sy,
                sx * np.sqrt(2.0 * np.pi))

    @functools.cached_property
    def cholesky(self) -> np.ndarray:
        """The lower Cholesky factor L of ``cov``: draws are mean + z @ L.T."""
        low = np.linalg.cholesky(self.cov)
        low.flags.writeable = False
        return low

    @functools.cached_property
    def whitening(self) -> np.ndarray:
        """The inverse of the Cholesky factor, transposed, as the polygon
        rule applies it: ``offsets @ whitening`` whitens them."""
        low_inv_t = np.linalg.inv(self.cholesky).T
        low_inv_t.flags.writeable = False
        return low_inv_t

    def masses(self, regions: Sequence[Region], means) -> np.ndarray:
        """P(N(mean_j, cov) in regions[i]), shape (len(regions), len(means)).

        The circles go through the circle rule in one call, and the
        polygons (rectangles among them) through the polygon rule in one
        call per vertex count.  Each mass depends only on its region, its
        mean and ``cov``, not on what else is in the list.
        """
        m = np.asarray(means, dtype=float)
        if m.ndim != 2 or m.shape[1] != 2:
            raise ValidationError("means must have shape (n, 2)")
        # circles as (cx, cy, radius) under key 0, polygons by vertex count
        groups: dict[int, list[tuple]] = {}
        for i, region in enumerate(regions):
            if isinstance(region, Circle):
                groups.setdefault(0, []).append((i, (region.cx, region.cy, region.radius)))
            else:
                v = region.vertices
                groups.setdefault(len(v), []).append((i, v))
        if len(groups) == 1:  # one rule gives every row, in order
            ((size, members),) = groups.items()
            rule = _circle_masses if size == 0 else _polygon_masses
            return rule(np.array([shape for _, shape in members]), m, self)
        out = np.empty((len(regions), len(m)))
        for size, members in groups.items():
            idx, shapes = zip(*members)
            rule = _circle_masses if size == 0 else _polygon_masses
            out[list(idx)] = rule(np.array(shapes), m, self)
        return out


def _blocked(n_shapes: int, means: np.ndarray, step: int,
             block: Callable[[slice, np.ndarray], np.ndarray]) -> np.ndarray:
    """Masses of every (shape, mean) pair, shape (n_shapes, len(means)),
    clipped to [0, 1].  ``block(shapes, means)`` gets a slice of the
    shapes and a run of the means, at most ``step`` pairs between them,
    and returns their (shapes, means) table, so no array grows with the
    number of pairs but the result."""
    n = len(means)
    cols = max(1, min(n, step))
    rows = max(1, step // cols)
    if rows >= n_shapes and cols >= n:  # one block holds every pair
        return np.clip(block(slice(0, n_shapes), means), 0.0, 1.0)
    out = np.empty((n_shapes, n))
    for s in range(0, n_shapes, rows):
        for c in range(0, n, cols):
            out[s:s + rows, c:c + cols] = block(slice(s, s + rows), means[c:c + cols])
    return np.clip(out, 0.0, 1.0)


def _circle_rows(o: np.ndarray, r: np.ndarray, frame: tuple) -> tuple:
    """The circle rule's rows in three classes, from the cut table's inputs
    alone.  ``o`` holds each row's circle centre minus kernel mean in the
    principal frame, shape (rows, 2), and ``r`` its radius, shape
    (rows, 1).  Returns ``x_q`` = (x_band - ox) / r and ``y_cos`` =
    |y_lim -+ oy| / r, each (rows, 2), and the masks of the whole rows and
    of the rows beyond the band; every other row is cut by the band."""
    _, _, _, x_band, x_lim, y_lim, _, _ = frame
    ox, oy = o[:, :1], o[:, 1:]
    x_q = (x_band - ox) / r
    y_cos = np.abs(y_lim + _PM * oy) / r
    dist = np.abs(o)
    clear = dist - r  # how far the circle's nearest point lies along each axis
    # inside the x-band, no chord end crossing the y-band, and live at the
    # half-circle's midpoint 0.0: |ox| < x_lim, oy + r > -y_lim and
    # oy - r < y_lim, the last two being |oy| - r < y_lim
    whole = ((x_q[:, 0] <= -1.0) & (x_q[:, 1] >= 1.0) & (y_cos.min(axis=1) >= 1.0)
             & (dist[:, 0] < x_lim) & (clear[:, 1] < y_lim))
    beyond = (clear - _BAND_SLACK * (dist + r) > np.array([x_lim, y_lim])).any(axis=1)
    return x_q, y_cos, whole, beyond


def _circle_masses(circles: np.ndarray, means: np.ndarray, kernel: Gaussian) -> np.ndarray:
    """Gaussian masses of circles, given as rows of (cx, cy, radius), under
    the kernel N(mean, cov) for every row of ``means``.

    The rule works on rows of (circle centre minus kernel mean, radius).
    In the principal frame of ``cov`` the kernel factorizes and the
    circle stays a circle.  With x = cx + r sin(theta) the chord's
    y-mass is an exact ``ndtr`` difference, and theta is integrated by
    Gauss-Legendre on sub-intervals cut where the x-Gaussian or either
    chord end crosses the kernel's +-8 SD band; sub-intervals outside
    the band carry nothing and are dropped.

    What depends on ``cov`` alone (``eigh``'s principal frame, the band
    limits and the kernel's normalizing constant) comes from the kernel's
    ``frame``.

    ``_circle_rows`` sorts the rows into three classes from the cut
    table's inputs x_q = (x_band - ox) / r and y_cos = |y_lim -+ oy| / r,
    before any inverse sine or cosine:

    * Whole rows: x_q[0] <= -1, x_q[1] >= 1, neither y_cos below 1, and
      the half-circle live at its midpoint 0.0 by the cut table's test.
      Their one live sub-interval is the whole half-circle, centre
      exactly 0.0 and half-width exactly pi/2, so their angles are
      always 0.0 + (pi/2) x for the nodes x.  They take sin and cos from
      ``_half_circle_nodes``, computed once by the same ufuncs from the
      same angles, so the values carry the same bits.  The nodes are
      exactly antisymmetric and cos is exactly even, so node n - 1 - i
      has node i's chord, and the chord's y-mass is computed for the
      first half of the nodes and mirrored.
    * Rows beyond the band: the circle's nearest point clears it,
      |ox| - r > x_lim or |oy| - r > y_lim, by a slack of
      ``_BAND_SLACK`` (|ox| + r), or (|oy| + r) on y.  Each sub-interval
      midpoint of the cut table lies on the circle, and r sin and r cos
      round to at most r, so the table's test finds none live and the
      mass is exactly +0.0.  The slack keeps rows that clear the band by
      no more than a few roundings on the cut path; it scales with the
      circle's own size and distance, which set that rounding, and not
      only with the band, which a 10^6 km circle around a 0.2 km kernel
      dwarfs.
    * Every other row is cut by the band: it alone builds the cut table,
      sorts it and integrates each live sub-interval node by node.  A row
      that the table leaves whole in another way (a chord end exactly on
      the band, y_cos == 0) stays on this path, whose sin and cos have
      the tables' bits.

    Each row's sum is formed alike on either path, so no mass changes by
    a bit.
    """
    from scipy.special import ndtr
    gl_x, gl_w = _gauss_legendre()
    frame = kernel.frame
    rot, sx, sy, x_band, x_lim, y_lim, y_low, norm = frame
    # 8 cut points per row bound 7 sub-intervals of _GL_NODES nodes
    step = max(1, _EVAL_CHUNK // (7 * _GL_NODES))

    def integrand(ox, oy, r, sin, cos, mirrored: bool) -> np.ndarray:
        """The integrand at each row's nodes: the x-kernel times the
        chord's y-mass times the chord's half-length."""
        x = ox + r * sin
        chord = r * cos
        if mirrored:  # node n - 1 - i has node i's chord, so its y-mass too
            near = chord[:, :_GL_NODES // 2]
            y_mass = ndtr((oy + near) / sy) - ndtr((oy - near) / sy)
            y_mass = y_mass.take(_MIRROR, axis=1)
        else:
            y_mass = ndtr((oy + chord) / sy) - ndtr((oy - chord) / sy)
        return np.exp(-0.5 * (x / sx) ** 2) / norm * y_mass * chord

    def cut_masses(ox, oy, r, x_q, y_cos) -> np.ndarray:
        """The masses of rows cut by the band, through the cut table."""
        # the half-circle's ends, where x crosses the band edges, and where
        # a chord end does (cos(theta) above 1 has no crossing, and the
        # cut falls on the end).  The inverse sines and cosines go to fresh
        # arrays first: numpy may take another loop, with other rounding,
        # for a strided output.
        cuts = np.empty((len(ox), 8))
        cuts[:, :2] = _HALF_TURN
        cuts[:, 2:4] = np.arcsin(np.minimum(np.maximum(x_q, -1.0), 1.0))
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
        centre, half = mid[k, j, None], 0.5 * (hi - lo)[k, j, None]
        theta = centre + half * gl_x
        f = integrand(ox[k], oy[k], r[k], np.sin(theta), np.cos(theta), mirrored=False)
        # a sum per row, not a BLAS matrix product, whose rounding would
        # depend on how many rows share the call
        return np.bincount(k, weights=np.einsum("ij,j->i", f, gl_w) * half[:, 0],
                           minlength=len(ox))

    def block(shapes: slice, m: np.ndarray) -> np.ndarray:
        c = circles[shapes]
        # circle centre relative to each kernel mean, in the principal
        # frame, one row per (circle, mean) pair
        o = (c[:, None, :2] - m).reshape(-1, 2) @ rot
        r = c[:, 2:] if len(m) == 1 else np.repeat(c[:, 2:], len(m), axis=0)
        x_q, y_cos, whole, beyond = _circle_rows(o, r, frame)
        mass = np.zeros(len(o))  # rows beyond the band keep +0.0
        w = whole.nonzero()[0]
        if len(w):  # one sub-interval, the whole half-circle: half-width pi/2
            ow = o[w]
            f = integrand(ow[:, :1], ow[:, 1:], r[w], *_half_circle_nodes(), mirrored=True)
            mass[w] = np.einsum("ij,j->i", f, gl_w) * _HALF_TURN[1]
        cut = (~(whole | beyond)).nonzero()[0]
        if len(cut):
            oc = o[cut]
            mass[cut] = cut_masses(oc[:, :1], oc[:, 1:], r[cut], x_q[cut], y_cos[cut])
        return mass.reshape(len(c), len(m))

    return _blocked(len(circles), means, step, block)


def _polygon_masses(vertices: np.ndarray, means: np.ndarray, kernel: Gaussian) -> np.ndarray:
    """Closed-form Gaussian masses of convex polygons with the same vertex
    count (``vertices`` of shape (polygons, k, 2), counterclockwise) under
    the kernel N(mean, cov) for every row of ``means``.

    Whitening by the Cholesky factor of ``cov`` maps a polygon to a
    convex polygon of the same orientation under a standard normal.  Its
    mass is the sum over edges (a, b) of the signed mass of the triangle
    (0, a, b): with d the signed distance of the origin from the edge
    line and t the position along it, that is
    (atan(t_b/d) - atan(t_a/d)) / 2pi - (T(d, t_b/d) - T(d, t_a/d)),
    T being Owen's T function; the sign of d carries the triangle's
    orientation.  An edge whose line passes through the origin spans a
    degenerate triangle and adds nothing.  The whitening is the
    kernel's ``whitening``.
    """
    from scipy.special import owens_t
    low_inv_t = kernel.whitening
    # whitened edges are the same for every kernel
    e = (np.concatenate([vertices[:, 1:], vertices[:, :1]], axis=1) - vertices) @ low_inv_t
    length = np.hypot(e[..., 0], e[..., 1])
    # a repeated vertex makes an edge of length 0: u = 0, so d = 0 below
    u = e / np.maximum(length, 1e-300)[..., None]
    ux, uy = u[..., 0], u[..., 1]
    # the (polygons, means, k, 2) vertex offsets are the largest temporaries
    step = max(1, _EVAL_CHUNK // (2 * vertices.shape[1]))

    def block(shapes: slice, m: np.ndarray) -> np.ndarray:
        a = (vertices[shapes, None] - m[:, None, :]) @ low_inv_t
        vx, vy = ux[shapes, None], uy[shapes, None]
        d = a[..., 0] * vy - a[..., 1] * vx
        t_a = a[..., 0] * vx + a[..., 1] * vy
        # a triangle this close to degenerate carries less mass than 1e-200
        on_line = np.abs(d) < 1e-200
        d = np.where(on_line, 1.0, d)
        ra, rb = t_a / d, (t_a + length[shapes, None]) / d
        wedge = ((np.arctan(rb) - np.arctan(ra)) / (2.0 * np.pi)
                 - (owens_t(d, rb) - owens_t(d, ra)))
        return np.where(on_line, 0.0, wedge).sum(axis=-1)

    return _blocked(len(vertices), means, step, block)


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
        keep = np.compress(region.contains(cand[:, 0], cand[:, 1]), cand, axis=0)
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
    if isinstance(inner, (Rectangle, ConvexPolygon)):
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

