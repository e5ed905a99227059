"""Spatial densities over a study region.

Two normalized density families over a bounded region:

* ``ParametricDensity``: a uniform floor plus a single anisotropic
  Gaussian bump, ``p(x) = p0 + p1 * exp(-(x - x_c)' Q (x - x_c))`` with
  Q symmetric positive definite.  The floor is never a free parameter:
  ``p0 = (1 - p1 * I_Q) / A`` where ``I_Q`` is the bump mass inside the
  region and ``A`` the region area, so the density always integrates to
  one over the region.  Six quantities are free: the two centre
  coordinates, the three independent entries of Q, and the bump weight.

* ``KernelDensity``: a Gaussian product-kernel estimate with a fixed
  bandwidth matrix, renormalized over the region.

``fit_parametric`` maximizes the in-region log-likelihood with one
bounded L-BFGS-B search.  Q is parameterized through its Cholesky
factor L (log-diagonal), so positive definiteness needs no constraint
handling, and the bump weight ``w = p1 * I_Q`` through its logit, so
the floor never vanishes.  The gradient is analytic in the data term;
only log(I_Q) is differenced centrally.  ``fit_kde`` applies a per-axis
plug-in bandwidth ``h_k = sigma_k * n**(-1/6)``.

Model files are JSON; kernel models reference their sample points in a
sibling CSV (``points_ref``) rather than embedding them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence, Union

import numpy as np

from .catalog import _EventError, _read_floats, _read_table, _write_table
from .errors import FitError, QuakevalError, ValidationError
from .regions import (_EVAL_CHUNK, Gaussian, Region, contains_region, region_from_dict,
                      sample_inside)


def _as_points(points) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(1, 2)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValidationError("points must have shape (n, 2)")
    return pts


def _check_spd(mat: np.ndarray, name: str) -> np.ndarray:
    mat = np.asarray(mat, dtype=float)
    if mat.shape != (2, 2) or not np.isfinite(mat).all():
        raise ValidationError(f"{name} must be a finite 2x2 matrix")
    if abs(mat[0, 1] - mat[1, 0]) > 1e-9 * (1.0 + abs(mat[0, 1])):
        raise ValidationError(f"{name} must be symmetric")
    try:
        np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        raise ValidationError(f"{name} must be positive definite") from None
    return 0.5 * (mat + mat.T)


def _quad_form(pts: np.ndarray, x_c: np.ndarray, q: np.ndarray) -> np.ndarray:
    d = pts - x_c
    return (d[:, 0] ** 2 * q[0, 0] + 2.0 * d[:, 0] * d[:, 1] * q[0, 1]
            + d[:, 1] ** 2 * q[1, 1])


def _bump_frame(q: np.ndarray) -> tuple[Gaussian, float]:
    """exp(-(x - x_c)' Q (x - x_c)) is pi / sqrt(det Q) times the density of
    N(x_c, (2Q)^-1): that kernel and that factor."""
    return Gaussian(np.linalg.inv(2.0 * q)), math.pi / math.sqrt(np.linalg.det(q))


def _bump_masses(regions: Sequence[Region], x_c: np.ndarray, kernel: Gaussian,
                 factor: float) -> np.ndarray:
    """Mass of exp(-(x - x_c)' Q (x - x_c)) over each region, given the
    centre as a (1, 2) array and Q's ``_bump_frame``."""
    return factor * kernel.masses(regions, x_c)[:, 0]


class _Density:
    """What the density families share.  Each sets ``region`` and
    defines ``_values`` (the density at points inside the region),
    ``_masses`` (region masses, not yet clipped) and ``sample_rng``."""

    def evaluate(self, points) -> np.ndarray:
        """Density at one or more points; points must lie in the region."""
        pts = _as_points(points)
        inside = self.region.contains(pts[:, 0], pts[:, 1])
        if not np.all(inside):
            bad = pts[~np.asarray(inside, bool)][0]
            raise ValidationError(f"point ({bad[0]:g}, {bad[1]:g}) is outside the region")
        return self._values(pts)

    def masses(self, regions: Sequence[Region]) -> np.ndarray:
        """Probability mass of each region, in order, clipped to [0, 1];
        every region must lie inside the model's region.  A mass that
        comes out NaN or inf is an error."""
        if not all(contains_region(self.region, r) for r in regions):
            raise ValidationError("subregion escapes the model's region")
        mass = self._masses(regions)
        finite = np.isfinite(mass)
        if not finite.all():
            raise QuakevalError(f"region mass came out as {float(mass[~finite][0])!r}, "
                                "not a finite number")
        return np.minimum(np.maximum(mass, 0.0), 1.0)

    def integrate(self, subregion: Region) -> float:
        """Probability mass of a subregion (must lie inside the region)."""
        return float(self.masses([subregion])[0])

    def sample(self, count: int, seed: int) -> np.ndarray:
        """Draw ``count`` points; deterministic for a given seed."""
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        return self.sample_rng(count, rng)


class ParametricDensity(_Density):
    """Uniform floor plus one Gaussian bump, normalized over a region.

    Construct either directly from (x_c, Q, p1) or through
    ``from_mixture`` with the bump weight w in [0, 1] (the fraction of
    total probability carried by the bump).
    """

    def __init__(self, x_c, q_matrix, p1: float, region: Region):
        self._set_bump(x_c, q_matrix, region)
        self._set_amplitude(p1)

    def _set_bump(self, x_c, q_matrix, region: Region) -> None:
        """Check the centre and Q, and derive the bump's kernel once."""
        self.region = region
        self.x_c = np.asarray(x_c, dtype=float).reshape(2)
        if not np.isfinite(self.x_c).all():
            raise ValidationError("bump centre must be finite")
        self.q_matrix = _check_spd(q_matrix, "Q")
        self._bump, self._bump_scale = _bump_frame(self.q_matrix)
        self._bump_mean = self.x_c.reshape(1, 2)  # the centre as the kernel's masses take it

    def _region_bump_mass(self) -> float:
        return float(_bump_masses([self.region], self._bump_mean, self._bump,
                                  self._bump_scale)[0])

    def _set_amplitude(self, p1: float, bump_mass: float | None = None) -> None:
        """Set p1 and the floor that normalizes the density; ``bump_mass``
        is the bump's mass in the region when the caller has it."""
        if not np.isfinite(p1) or p1 < 0:
            raise ValidationError("bump amplitude p1 must be finite and >= 0")
        self.p1 = float(p1)
        if bump_mass is None:
            bump_mass = 0.0 if self.p1 == 0.0 else self._region_bump_mass()
        self.bump_mass = bump_mass
        weight = self.p1 * self.bump_mass
        if weight > 1.0 + 1e-9:
            raise ValidationError(
                f"bump carries probability {weight:.6f} > 1; reduce p1")
        self.p0 = max((1.0 - weight) / self.region.area, 0.0)
        for arr in (self.x_c, self._bump_mean, self.q_matrix):
            arr.flags.writeable = False

    @classmethod
    def from_mixture(cls, x_c, q_matrix, weight: float, region: Region) -> "ParametricDensity":
        if not 0.0 <= weight <= 1.0:
            raise ValidationError("bump weight must lie in [0, 1]")
        density = cls.__new__(cls)
        density._set_bump(x_c, q_matrix, region)
        if weight == 0.0:
            density._set_amplitude(0.0)
            return density
        mass = density._region_bump_mass()
        if not mass > 0.0:
            raise ValidationError("the bump has no mass inside the region to carry "
                                  f"weight {weight:g}")
        density._set_amplitude(weight / mass, mass)
        return density

    @classmethod
    def uniform(cls, region: Region) -> "ParametricDensity":
        xmin, xmax, ymin, ymax = region.bounding_box
        centre = (0.5 * (xmin + xmax), 0.5 * (ymin + ymax))
        return cls(centre, np.eye(2), 0.0, region)

    @property
    def weight(self) -> float:
        """Probability mass carried by the bump."""
        return self.p1 * self.bump_mass

    def _values(self, pts: np.ndarray) -> np.ndarray:
        return self.p0 + self.p1 * np.exp(-_quad_form(pts, self.x_c, self.q_matrix))

    def _masses(self, regions: Sequence[Region]) -> np.ndarray:
        """The bump's masses come from one call of its kernel's ``masses``."""
        mass = self.p0 * np.array([r.area for r in regions], dtype=float)
        if self.p1 > 0:
            mass += self.p1 * _bump_masses(regions, self._bump_mean, self._bump,
                                            self._bump_scale)
        return mass

    def log_likelihood(self, points) -> float:
        return float(np.sum(np.log(np.clip(self.evaluate(points), 1e-300, None))))

    def sample_rng(self, count: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``count`` points using an existing generator."""
        out = np.empty((count, 2))
        comp_bump = rng.random(count) < self.weight
        bump_idx = np.flatnonzero(comp_bump)
        n_bump = len(bump_idx)
        n_unif = count - n_bump
        if n_unif:
            out[np.flatnonzero(~comp_bump)] = self.region.sample_uniform(n_unif, rng)
        if n_bump:
            factor = self._bump.cholesky.T

            def propose(remaining: int) -> np.ndarray:
                z = rng.standard_normal((max(64, 2 * remaining), 2))
                return self.x_c + z @ factor

            out[bump_idx] = sample_inside(self.region, n_bump, propose)
        return out

    def to_dict(self) -> dict:
        return {
            "type": "parametric",
            "x_c": self.x_c.tolist(),
            "Q": self.q_matrix.ravel().tolist(),
            "p0": self.p0,
            "p1": self.p1,
            "region": self.region.to_dict(),
        }

    def __repr__(self):
        return (f"ParametricDensity(x_c={self.x_c.tolist()}, weight={self.weight:.3f}, "
                f"region={type(self.region).__name__})")


class KernelDensity(_Density):
    """Gaussian kernel density with a fixed bandwidth, renormalized over
    the region so it integrates to one there.

    Args:
        points: sample positions, shape (n, 2), all inside the region.
        bandwidth: symmetric positive-definite 2x2 matrix (km^2).
        region: normalization domain.
    """

    def __init__(self, points, bandwidth, region: Region):
        self.region = region
        self.points = _as_points(points).copy()
        if len(self.points) < 1:
            raise ValidationError("kernel density needs at least one point")
        outside = np.flatnonzero(~np.asarray(
            region.contains(self.points[:, 0], self.points[:, 1]), bool))
        if len(outside):
            k = int(outside[0])
            raise _EventError(k, f"kernel point ({self.points[k, 0]:g}, {self.points[k, 1]:g}) "
                                 "lies outside the model's region", "point")
        self._kernel = Gaussian(_check_spd(bandwidth, "bandwidth"))
        self.bandwidth = self._kernel.cov
        self._h_inv = np.linalg.inv(self.bandwidth)
        self._norm_kernel = 1.0 / (2.0 * np.pi * math.sqrt(np.linalg.det(self.bandwidth)))
        self.normalization = float(self._raw_masses([region])[0])
        if self.normalization <= 1e-12:
            raise ValidationError("kernel mass inside the region is numerically zero")
        self.points.flags.writeable = False

    def _values(self, pts: np.ndarray) -> np.ndarray:
        """Mixture mean of kernels over the normalization, in blocks."""
        n = len(self.points)
        out = np.empty(len(pts))
        step = max(1, _EVAL_CHUNK // n)
        a, b, c = self._h_inv[0, 0], self._h_inv[0, 1], self._h_inv[1, 1]
        for start in range(0, len(pts), step):
            blk = pts[start:start + step]
            dx = blk[:, None, 0] - self.points[None, :, 0]
            dy = blk[:, None, 1] - self.points[None, :, 1]
            q = a * dx * dx + 2.0 * b * dx * dy + c * dy * dy
            out[start:start + len(blk)] = np.exp(-0.5 * q).mean(axis=1)
        return self._norm_kernel * out / self.normalization

    def _raw_masses(self, regions: Sequence[Region]) -> np.ndarray:
        """Unnormalized kernel mass of each region: its mean kernel mass.
        Regions go to the kernel's ``masses`` in runs small enough that the
        (regions, kernels) table stays within ``_EVAL_CHUNK`` entries."""
        out = np.empty(len(regions))
        step = max(1, _EVAL_CHUNK // len(self.points))
        for start in range(0, len(regions), step):
            out[start:start + step] = self._kernel.masses(
                regions[start:start + step], self.points).mean(axis=1)
        return out

    def _masses(self, regions: Sequence[Region]) -> np.ndarray:
        return self._raw_masses(regions) / self.normalization

    def sample_rng(self, count: int, rng: np.random.Generator) -> np.ndarray:
        chol = self._kernel.cholesky

        def propose(remaining: int) -> np.ndarray:
            m = max(64, 2 * remaining)
            base = self.points[rng.integers(0, len(self.points), m)]
            return base + rng.standard_normal((m, 2)) @ chol.T

        return sample_inside(self.region, count, propose)

    def to_dict(self, points_ref: str = "") -> dict:
        return {
            "type": "kde",
            "bandwidth": self.bandwidth.ravel().tolist(),
            "points_ref": points_ref,
            "region": self.region.to_dict(),
        }

    def __repr__(self):
        return (f"KernelDensity({len(self.points)} points, "
                f"region={type(self.region).__name__})")


SpatialDensity = Union[ParametricDensity, KernelDensity]


@dataclass(frozen=True)
class FitResult:
    """Outcome of a parametric fit."""

    density: ParametricDensity
    loglik: float
    loglik_uniform: float
    converged: bool
    n_evaluations: int


# Bump SDs the search may reach, as multiples of the points' SD on each axis.
_SD_RANGE = (1e-4, 1e3)
_LOGIT_BOUND = 30.0  # |logit w| <= 30: w stays 1e-13 away from 0 and 1
# Trial covariances with trace(Q)^2 > _MAX_COND * det(Q) (about their condition
# number) are scored as degenerate: Cholesky and eigh of (2Q)^-1 lose all
# accuracy near 1e16.
_MAX_COND = 1e12
_STEP = 1e-5  # central-difference step of log(bump mass), on each parameter's scale
# Gaussian region masses are exact to about 1e-15 absolute, so one below this
# floor has lost its relative accuracy; the fit floors it here, which can only
# understate the likelihood.
_MASS_FLOOR = 1e-10
# L-BFGS-B stops when a step gains less than _FTOL relative, or when no
# scaled coordinate moves the mean log-likelihood by more than _GTOL per unit.
_FTOL = 1e-12
_GTOL = 1e-8


def _half_inverse(l00: float, l11: float, l21: float) -> np.ndarray:
    """(2Q)^-1 = L^-T L^-1 / 2 for Q = L L', L = [[l00, 0], [l21, l11]]."""
    p, s = 1.0 / l00, 1.0 / l11
    r = -l21 * p * s
    return 0.5 * np.array([[p * p + r * r, r * s], [r * s, s * s]])


def _fit_objective(pts: np.ndarray, region: Region):
    """Negative log-likelihood of the floor-plus-bump density and its
    gradient, as one function of theta = (cx, cy, log L00, log L11, L21,
    logit w), where Q = L L' with L lower triangular.

    The data term's gradient is analytic.  Of log(bump mass)
    = log(pi) - log L00 - log L11 + log G, with G the mass of
    N(x_c, (2Q)^-1) in the region, only log G is differenced centrally:
    the base mass and the four centre shifts share one kernel and one
    call of its ``masses``, then each shifted Cholesky entry gives a
    kernel of its own.  A degenerate covariance scores n (log A + 1),
    above the start's value (at most n log 2A at weight 1/2), so no
    search accepts it.
    """
    n = len(pts)
    x, y = pts[:, 0], pts[:, 1]
    log_area = math.log(region.area)
    penalty = n * (log_area + 1.0)

    def log_g(means, cov) -> np.ndarray:
        return np.log(np.maximum(Gaussian(cov).masses([region], means)[0], _MASS_FLOOR))

    def objective(theta) -> tuple[float, np.ndarray]:
        cx, cy, s1, s2, l21, u = (float(v) for v in theta)
        l00, l11 = math.exp(s1), math.exp(s2)
        if (l00 * l00 + l11 * l11 + l21 * l21) ** 2 > _MAX_COND * (l00 * l11) ** 2:
            return penalty, np.zeros(6)
        cov = _half_inverse(l00, l11, l21)
        hx, hy = _STEP * math.sqrt(cov[0, 0]), _STEP * math.sqrt(cov[1, 1])
        centre = np.array([[cx, cy]])
        shifted = centre + np.array([[0.0, 0.0], [hx, 0.0], [-hx, 0.0],
                                     [0.0, hy], [0.0, -hy]])
        g0, gx1, gx0, gy1, gy0 = log_g(shifted, cov)
        hl = _STEP * math.hypot(l21, l11)
        up, down = math.exp(_STEP), math.exp(-_STEP)
        pairs = [(_half_inverse(l00 * up, l11, l21), _half_inverse(l00 * down, l11, l21)),
                 (_half_inverse(l00, l11 * up, l21), _half_inverse(l00, l11 * down, l21)),
                 (_half_inverse(l00, l11, l21 + hl), _half_inverse(l00, l11, l21 - hl))]
        d_chol = [log_g(centre, plus)[0] - log_g(centre, minus)[0] for plus, minus in pairs]
        log_mass = math.log(math.pi) - s1 - s2 + g0
        grad_log_mass = np.array([(gx1 - gx0) / (2.0 * hx), (gy1 - gy0) / (2.0 * hy),
                                  d_chol[0] / (2.0 * _STEP) - 1.0,
                                  d_chol[1] / (2.0 * _STEP) - 1.0, d_chol[2] / (2.0 * hl)])

        # (x - x_c)' Q (x - x_c) = a^2 + b^2 with (a, b) = L' (x - x_c)
        dx, dy = x - cx, y - cy
        a = l00 * dx + l21 * dy
        b = l11 * dy
        log_w, log_floor = -np.logaddexp(0.0, -u), -np.logaddexp(0.0, u) - log_area
        log_bump = log_w - (a * a + b * b) - log_mass
        log_dens = np.logaddexp(log_floor, log_bump)
        resp = np.exp(log_bump - log_dens)  # each point's share from the bump
        ra = resp * a
        grad = np.empty(6)
        grad[0] = -2.0 * l00 * ra.sum()
        grad[1] = -2.0 * (l21 * ra.sum() + l11 * (resp @ b))
        grad[2] = 2.0 * l00 * (ra @ dx)
        grad[3] = 2.0 * (resp @ (b * b))
        grad[4] = 2.0 * (ra @ dy)
        grad[:5] += resp.sum() * grad_log_mass
        grad[5] = n * math.exp(log_w) - resp.sum()
        return -float(log_dens.sum()), grad

    return objective


def fit_parametric(points, region: Region, max_iterations: int = 10_000) -> FitResult:
    """Maximum-likelihood fit of the floor-plus-bump density.

    One bounded L-BFGS-B search over (cx, cy, log L00, log L11, L21,
    logit w), with the gradient of ``_fit_objective``.  It starts from
    the points' mean and covariance at weight 1/2.  The box keeps the
    centre within one region span of the region's bounding box and the
    bump SDs within ``_SD_RANGE`` of the points' own.

    Args:
        points: observed epicentres, shape (n, 2), n >= 10, inside region,
            not all on one line.
        region: normalization domain.
        max_iterations: L-BFGS-B iteration cap.

    Returns:
        FitResult; ``n_evaluations`` counts objective-and-gradient calls.
        The fitted log-likelihood is never below the uniform model's (the
        uniform model is in the family at weight 0 and is substituted if
        the search ends below it).

    Raises:
        ValidationError: fewer than 10 points, points outside region, or
            points on one line, where the likelihood has no maximum.
        FitError: no convergence within the iteration cap; the best
            iterate is attached as ``.best``.
    """
    from scipy.optimize import minimize
    pts = _as_points(points)
    if len(pts) < 10:
        raise ValidationError(
            f"parametric fit needs at least 10 points, got {len(pts)}; "
            "use the uniform model for very small catalogs")
    if not np.all(region.contains(pts[:, 0], pts[:, 1])):
        raise ValidationError("fit points must lie inside the region")
    cov = np.cov(pts.T)
    lam = np.linalg.eigvalsh(cov)
    if not lam[0] > 1e-12 * lam[1]:  # singular to rounding, or all zero
        raise ValidationError(
            "parametric fit: the points lie on one line or at one point, so their "
            "covariance is singular and the bump likelihood has no maximum; fit a "
            "kernel density (--kind kde) or use the uniform model")

    n = len(pts)
    ll_uniform = -n * math.log(region.area)
    xmin, xmax, ymin, ymax = region.bounding_box
    span_x, span_y = xmax - xmin, ymax - ymin
    sd = np.sqrt(np.diag(cov))
    low0 = np.linalg.cholesky(np.linalg.inv(2.0 * cov))
    theta = np.array([*pts.mean(axis=0), math.log(low0[0, 0]), math.log(low0[1, 1]),
                      low0[1, 0], 0.0])
    # L_kk = 1 / (sqrt 2 SD_k) for an axis-aligned bump
    s_lo = -np.log(math.sqrt(2.0) * _SD_RANGE[1] * sd)
    s_hi = -np.log(math.sqrt(2.0) * _SD_RANGE[0] * sd)
    l_max = float(np.exp(s_hi).max())
    lower = np.array([xmin - span_x, ymin - span_y, *s_lo, -l_max, -_LOGIT_BOUND])
    upper = np.array([xmax + span_x, ymax + span_y, *s_hi, l_max, _LOGIT_BOUND])
    # The search sees the mean over points, in units where each coordinate
    # moves it alike: L-BFGS-B's first step in a box is the raw gradient,
    # cut only where it leaves the box.
    scale = np.array([sd[0], sd[1], 1.0, 1.0, 1.0 / sd[1], 1.0])
    objective = _fit_objective(pts, region)

    def scaled(z):
        value, grad = objective(z * scale)
        return value / n, grad * scale / n

    res = minimize(scaled, theta / scale, jac=True, method="L-BFGS-B",
                   bounds=list(zip(lower / scale, upper / scale)),
                   options={"maxiter": max_iterations, "ftol": _FTOL, "gtol": _GTOL})
    cx, cy, s1, s2, l21, u = res.x * scale
    low = np.array([[math.exp(s1), 0.0], [l21, math.exp(s2)]])
    best = (ParametricDensity.from_mixture([cx, cy], low @ low.T, 1.0 / (1.0 + math.exp(-u)),
                                           region)
            if -res.fun * n > ll_uniform else ParametricDensity.uniform(region))
    if not res.success:
        raise FitError(f"L-BFGS-B did not converge within {max_iterations} "
                       f"iterations: {res.message}", best=best)
    ll_fit = best.log_likelihood(pts) if best.weight > 0.0 else ll_uniform
    if ll_fit < ll_uniform:
        best, ll_fit = ParametricDensity.uniform(region), ll_uniform
    return FitResult(best, ll_fit, ll_uniform, True, int(res.nfev))


def fit_kde(points, region: Region) -> KernelDensity:
    """Plug-in kernel density: per-axis bandwidth sigma_k * n**(-1/6)."""
    pts = _as_points(points)
    if len(pts) < 2:
        raise ValidationError("kernel fit needs at least 2 points")
    sx = float(np.std(pts[:, 0], ddof=1))
    sy = float(np.std(pts[:, 1], ddof=1))
    if sx <= 0 or sy <= 0:
        raise ValidationError("kernel fit needs spread along both axes")
    factor = len(pts) ** (-1.0 / 6.0)
    bw = np.diag([(sx * factor) ** 2, (sy * factor) ** 2])
    return KernelDensity(pts, bw, region)


class _ModelError(ValidationError):
    """A fault in a density model's own fields, not in its points file;
    ``load_density`` puts the model's path in front."""


def _field(data: dict, key: str, convert):
    """``convert(data[key])``; a value that cannot be converted raises a
    ``_ModelError`` naming the key, a missing key raises KeyError."""
    try:
        return convert(data[key])
    except (TypeError, ValueError) as exc:  # includes ValidationError
        raise _ModelError(f"field {key!r}: {exc}") from None


def _matrix(value) -> np.ndarray:
    return np.asarray(value, dtype=float).reshape(2, 2)


def density_from_dict(data: dict, base_dir: Path | None = None) -> SpatialDensity:
    """Rebuild a density from its JSON dict form.  A missing field raises
    KeyError; a bad field or points file, a ValidationError naming it."""
    if not isinstance(data, dict) or "type" not in data:
        raise _ModelError("density dict needs a 'type' key")
    kind = data["type"]
    region = _field(data, "region", region_from_dict)
    if kind == "parametric":
        q = _field(data, "Q", _matrix)
        x_c = _field(data, "x_c", lambda v: np.asarray(v, dtype=float).reshape(2))
        p1 = _field(data, "p1", float)
        try:
            model = ParametricDensity(x_c, q, p1, region)
        except ValidationError as exc:
            raise _ModelError(str(exc)) from None
        stored_p0 = _field(data, "p0", float) if "p0" in data else model.p0
        if abs(stored_p0 - model.p0) > 1e-6 * max(1.0, abs(model.p0)):
            raise _ModelError(
                f"stored p0 {stored_p0:g} is inconsistent with normalization "
                f"({model.p0:g}); the model file looks corrupted")
        return model
    if kind == "kde":
        ref = data.get("points_ref")
        if not ref or not isinstance(ref, str):
            raise _ModelError("kde model needs a points_ref")
        path = Path(ref)
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        rows, pts = _read_points_csv(path)
        bandwidth = _field(data, "bandwidth", _matrix)
        try:
            return KernelDensity(pts, bandwidth, region)
        except _EventError as exc:
            raise ValidationError(f"{path}: row {rows[exc.position]}: {exc.fault}") from None
        except ValidationError as exc:  # the bandwidth's or the normalization's
            raise _ModelError(str(exc)) from None
    raise _ModelError(f"unknown density type {kind!r}")


def load_density(path) -> SpatialDensity:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{path}: density model is not valid JSON: {exc}") from None
    try:
        return density_from_dict(data, base_dir=path.parent)
    except KeyError as exc:
        raise ValidationError(f"{path}: density model lacks the key {exc}") from None
    except _ModelError as exc:
        raise ValidationError(f"{path}: {exc}") from None


def save_density(density: SpatialDensity, path) -> None:
    """Write a density model to JSON (plus a points CSV for kernel models)."""
    path = Path(path)
    if isinstance(density, KernelDensity):
        ref = path.stem + ".points.csv"
        _write_table(["x", "y"], density.points.tolist(), path.parent / ref)
        payload = density.to_dict(points_ref=ref)
    else:
        payload = density.to_dict()
    path.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def _read_points_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """The 1-based row numbers and an (n, 2) array of the kernel points in
    a CSV; there must be one at least.  Errors name the file, and the row
    if one is at fault.  ``KernelDensity`` tests the points against the
    region."""
    with _read_table(path, ["x", "y"]) as table:
        rows, pts = _read_floats(table, ["x", "y"])
        if not len(pts):
            raise ValidationError("kernel density needs at least one point")
    return rows, pts
