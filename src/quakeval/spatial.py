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

``fit_parametric`` maximizes the in-region log-likelihood with a
derivative-free simplex search (restarted once), parameterizing Q
through its Cholesky factor so positive definiteness needs no
constraint handling, and the bump weight ``w = p1 * I_Q`` directly so
the feasible set is just 0 <= w <= 1.  ``fit_kde`` applies a per-axis
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
from scipy.optimize import minimize

from .catalog import _parse_float, _read_table, _write_table
from .errors import FitError, QuakevalError, ValidationError
from .regions import (_EVAL_CHUNK, Region, contains_region, region_from_dict,
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


def _bump_mass(region: Region, x_c: np.ndarray, q: np.ndarray) -> float:
    """Mass of exp(-(x - x_c)' Q (x - x_c)) over a region: pi / sqrt(det Q)
    times the mass of N(x_c, (2Q)^-1) there."""
    gauss = region.gaussian_mass(np.reshape(x_c, (1, 2)), np.linalg.inv(2.0 * q))
    return math.pi / math.sqrt(np.linalg.det(q)) * float(gauss[0])


def _probability(mass: float) -> float:
    """A computed region mass clipped to [0, 1]; NaN or inf is an error."""
    if not math.isfinite(mass):
        raise QuakevalError(f"region mass came out as {mass!r}, not a finite number")
    return min(max(mass, 0.0), 1.0)


class ParametricDensity:
    """Uniform floor plus one Gaussian bump, normalized over a region.

    Construct either directly from (x_c, Q, p1) or through
    ``from_mixture`` with the bump weight w in [0, 1] (the fraction of
    total probability carried by the bump).
    """

    def __init__(self, x_c, q_matrix, p1: float, region: Region):
        self.region = region
        self.x_c = np.asarray(x_c, dtype=float).reshape(2)
        if not np.isfinite(self.x_c).all():
            raise ValidationError("bump centre must be finite")
        self.q_matrix = _check_spd(q_matrix, "Q")
        if not np.isfinite(p1) or p1 < 0:
            raise ValidationError("bump amplitude p1 must be finite and >= 0")
        self.p1 = float(p1)
        self.bump_mass = 0.0 if self.p1 == 0.0 \
            else _bump_mass(region, self.x_c, self.q_matrix)
        weight = self.p1 * self.bump_mass
        if weight > 1.0 + 1e-9:
            raise ValidationError(
                f"bump carries probability {weight:.6f} > 1; reduce p1")
        self.p0 = max((1.0 - weight) / region.area, 0.0)
        self.x_c.flags.writeable = False
        self.q_matrix.flags.writeable = False

    @classmethod
    def from_mixture(cls, x_c, q_matrix, weight: float, region: Region) -> "ParametricDensity":
        if not 0.0 <= weight <= 1.0:
            raise ValidationError("bump weight must lie in [0, 1]")
        if weight == 0.0:
            return cls(x_c, q_matrix, 0.0, region)
        mass = _bump_mass(region, np.asarray(x_c, dtype=float),
                          _check_spd(q_matrix, "Q"))
        return cls(x_c, q_matrix, weight / mass, region)

    @classmethod
    def uniform(cls, region: Region) -> "ParametricDensity":
        xmin, xmax, ymin, ymax = region.bounding_box
        centre = (0.5 * (xmin + xmax), 0.5 * (ymin + ymax))
        return cls(centre, np.eye(2), 0.0, region)

    @property
    def weight(self) -> float:
        """Probability mass carried by the bump."""
        return self.p1 * self.bump_mass

    def _bump(self, pts: np.ndarray) -> np.ndarray:
        return np.exp(-_quad_form(pts, self.x_c, self.q_matrix))

    def _values(self, pts: np.ndarray) -> np.ndarray:
        return self.p0 + self.p1 * self._bump(pts)

    def evaluate(self, points) -> np.ndarray:
        """Density at one or more points; points must lie in the region."""
        pts = _as_points(points)
        inside = self.region.contains(pts[:, 0], pts[:, 1])
        if not np.all(inside):
            bad = pts[~np.asarray(inside, bool)][0]
            raise ValidationError(f"point ({bad[0]:g}, {bad[1]:g}) is outside the region")
        return self._values(pts)

    def integrate(self, subregion: Region) -> float:
        """Probability mass of a subregion (must lie inside the region)."""
        if not contains_region(self.region, subregion):
            raise ValidationError("subregion escapes the model's region")
        mass = self.p0 * subregion.area
        if self.p1 > 0:
            mass += self.p1 * _bump_mass(subregion, self.x_c, self.q_matrix)
        return _probability(mass)

    def log_likelihood(self, points) -> float:
        return float(np.sum(np.log(np.clip(self.evaluate(points), 1e-300, None))))

    def sample(self, count: int, seed: int) -> np.ndarray:
        """Draw ``count`` points; deterministic for a given seed."""
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        return self.sample_rng(count, rng)

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
            chol = np.linalg.cholesky(np.linalg.inv(2.0 * self.q_matrix))

            def propose(remaining: int) -> np.ndarray:
                z = rng.standard_normal((max(64, 2 * remaining), 2))
                return self.x_c + z @ chol.T

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


class KernelDensity:
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
        if not np.all(region.contains(self.points[:, 0], self.points[:, 1])):
            raise ValidationError("kernel points must lie inside the region")
        self.bandwidth = _check_spd(bandwidth, "bandwidth")
        self._h_inv = np.linalg.inv(self.bandwidth)
        self._norm_kernel = 1.0 / (2.0 * np.pi * math.sqrt(np.linalg.det(self.bandwidth)))
        self.normalization = self._raw_mass(region)
        if self.normalization <= 1e-12:
            raise ValidationError("kernel mass inside the region is numerically zero")
        self.points.flags.writeable = False
        self.bandwidth.flags.writeable = False

    def _raw(self, pts: np.ndarray) -> np.ndarray:
        """Unnormalized mixture mean of kernels, evaluated in blocks."""
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
        return self._norm_kernel * out

    def _raw_mass(self, region: Region) -> float:
        """Unnormalized kernel mass of a region: the mean kernel mass."""
        return float(np.mean(region.gaussian_mass(self.points, self.bandwidth)))

    def evaluate(self, points) -> np.ndarray:
        pts = _as_points(points)
        inside = self.region.contains(pts[:, 0], pts[:, 1])
        if not np.all(inside):
            bad = pts[~np.asarray(inside, bool)][0]
            raise ValidationError(f"point ({bad[0]:g}, {bad[1]:g}) is outside the region")
        return self._raw(pts) / self.normalization

    def integrate(self, subregion: Region) -> float:
        if not contains_region(self.region, subregion):
            raise ValidationError("subregion escapes the model's region")
        return _probability(self._raw_mass(subregion) / self.normalization)

    def sample(self, count: int, seed: int) -> np.ndarray:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        return self.sample_rng(count, rng)

    def sample_rng(self, count: int, rng: np.random.Generator) -> np.ndarray:
        chol = np.linalg.cholesky(self.bandwidth)

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


_SIMPLEX_FTOL = 1e-9  # relative function tolerance of the simplex stopping rule


def fit_parametric(points, region: Region, max_iterations: int = 10_000) -> FitResult:
    """Maximum-likelihood fit of the floor-plus-bump density.

    Args:
        points: observed epicentres, shape (n, 2), n >= 10, inside region.
        region: normalization domain.
        max_iterations: simplex iteration cap per pass (two passes run).

    Returns:
        FitResult.  The fitted log-likelihood is never below the uniform
        model's (the uniform model is in the family at weight 0 and is
        substituted if the search somehow ends above it).

    Raises:
        ValidationError: fewer than 10 points, or points outside region.
        FitError: no convergence within the iteration caps; the best
            iterate is attached as ``.best``.
    """
    pts = _as_points(points)
    if len(pts) < 10:
        raise ValidationError(
            f"parametric fit needs at least 10 points, got {len(pts)}; "
            "use the uniform model for very small catalogs")
    if not np.all(region.contains(pts[:, 0], pts[:, 1])):
        raise ValidationError("fit points must lie inside the region")

    area = region.area
    ll_uniform = -len(pts) * math.log(area)
    xmin, xmax, ymin, ymax = region.bounding_box
    span_x, span_y = xmax - xmin, ymax - ymin

    def unpack(theta):
        cx, cy, s1, s2, l21, w = theta
        low = np.array([[math.exp(s1), 0.0], [l21, math.exp(s2)]])
        return np.array([cx, cy]), low @ low.T, w

    def nll(theta) -> float:
        cx, cy, s1, s2, l21, w = theta
        if not (0.0 <= w <= 1.0):
            return np.inf
        if abs(s1) > 30 or abs(s2) > 30 or abs(l21) > 1e6:
            return np.inf
        if not (xmin - span_x <= cx <= xmax + span_x
                and ymin - span_y <= cy <= ymax + span_y):
            return np.inf
        centre, q, _ = unpack(theta)
        try:
            bump_mass = _bump_mass(region, centre, q)
        except np.linalg.LinAlgError:  # (2Q)^-1 numerically singular
            return np.inf
        if bump_mass <= 0 or not np.isfinite(bump_mass):
            return np.inf
        dens = (1.0 - w) / area + w * np.exp(-_quad_form(pts, centre, q)) / bump_mass
        return -float(np.sum(np.log(np.clip(dens, 1e-300, None))))

    mean = pts.mean(axis=0)
    cov = np.cov(pts.T)
    try:
        q0 = np.linalg.inv(2.0 * cov)
        low0 = np.linalg.cholesky(q0)
    except np.linalg.LinAlgError:
        low0 = np.eye(2) / max(span_x, span_y)
    theta = np.array([mean[0], mean[1], math.log(max(low0[0, 0], 1e-12)),
                      math.log(max(low0[1, 1], 1e-12)), low0[1, 0], 0.5])

    converged = False
    n_eval = 0
    for _ in range(2):
        fatol = _SIMPLEX_FTOL * max(1.0, abs(nll(theta)))
        res = minimize(nll, theta, method="Nelder-Mead",
                       options={"maxiter": max_iterations, "maxfev": 4 * max_iterations,
                                "fatol": fatol, "xatol": 1e-8})
        theta = res.x
        n_eval += res.nfev
        converged = converged or bool(res.success)

    centre, q, w = unpack(theta)
    best = ParametricDensity.from_mixture(centre, q, min(max(w, 0.0), 1.0), region)
    if not converged:
        raise FitError(f"simplex search did not converge within {max_iterations} "
                       "iterations per pass", best=best)
    ll_fit = best.log_likelihood(pts)
    if ll_fit < ll_uniform:
        best = ParametricDensity.from_mixture(centre, q, 0.0, region)
        ll_fit = ll_uniform
    return FitResult(best, ll_fit, ll_uniform, converged, n_eval)


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


def density_from_dict(data: dict, base_dir: Path | None = None) -> SpatialDensity:
    """Rebuild a density from its JSON dict form."""
    try:
        kind = data["type"]
    except (TypeError, KeyError):
        raise ValidationError("density dict needs a 'type' key") from None
    region = region_from_dict(data["region"])
    if kind == "parametric":
        q = np.asarray(data["Q"], dtype=float).reshape(2, 2)
        model = ParametricDensity(data["x_c"], q, float(data["p1"]), region)
        stored_p0 = float(data.get("p0", model.p0))
        if abs(stored_p0 - model.p0) > 1e-6 * max(1.0, abs(model.p0)):
            raise ValidationError(
                f"stored p0 {stored_p0:g} is inconsistent with normalization "
                f"({model.p0:g}); the model file looks corrupted")
        return model
    if kind == "kde":
        ref = data.get("points_ref", "")
        if not ref:
            raise ValidationError("kde model needs a points_ref")
        path = Path(ref)
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        pts = _read_points_csv(path, region)
        bw = np.asarray(data["bandwidth"], dtype=float).reshape(2, 2)
        return KernelDensity(pts, bw, region)
    raise ValidationError(f"unknown density type {kind!r}")


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


def _read_points_csv(path: Path, region: Region) -> np.ndarray:
    """Kernel points from a CSV; there must be one at least, and each must
    lie inside ``region``.  Errors name the file, and the row if one is
    at fault."""
    with _read_table(path, ["x", "y"]) as table:
        rows, values = [], []
        for i, (x, y) in table:
            rows.append(i)
            values.append((_parse_float(x, i, "x"), _parse_float(y, i, "y")))
        pts = np.asarray(values, dtype=float).reshape(-1, 2)
        if not len(pts):
            raise ValidationError("kernel density needs at least one point")
        outside = np.flatnonzero(~np.asarray(region.contains(pts[:, 0], pts[:, 1]), bool))
        if len(outside):
            k = int(outside[0])
            raise ValidationError(f"row {rows[k]}: kernel point ({pts[k, 0]:g}, "
                                  f"{pts[k, 1]:g}) lies outside the model's region")
    return pts
