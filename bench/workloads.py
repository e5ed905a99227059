"""Seeded inputs, command lines and output checks for each workload.

Every workload is a function of its seed only: ``generate`` draws all
inputs from ``numpy.random.default_rng(seed)`` and writes them as the
files a user would hand to ``quakeval``.  ``commands`` lists the CLI
invocations of one pass, and ``check`` compares that pass's reports
against oracles computed here, independently of the package (brute-force
hit counts, a fixed-order quadrature for region masses, statistical
bounds on simulated means).  The oracles do not depend on the package's
algorithms or random streams, so they stay valid when those change.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.special import ndtr

X0, X1, Y0, Y1 = 0.0, 1000.0, 0.0, 1000.0
RECORD_END = 3650.0
REGION_ARG = f"{X0:g},{X1:g},{Y0:g},{Y1:g}"
CATALOG_ARGS = ["--region", REGION_ARG, "--record-start", "0",
                "--record-end", f"{RECORD_END:g}"]

# The hotspot is fixed so that the seed moves only the draws, not the
# shape of the problem: fit and mass costs then vary little between seeds.
HOTSPOT_CENTRE = np.array([620.0, 380.0])
HOTSPOT_COV = np.array([[70.0 ** 2, 0.35 * 70.0 * 45.0],
                        [0.35 * 70.0 * 45.0, 45.0 ** 2]])
HOTSPOT_FRAC = 0.4
MIN_MAGNITUDES = (4.0, 4.5, 5.0)
MIN_MAGNITUDE_P = (0.5, 0.3, 0.2)
# Aftershock filter windows: wide enough to catch the injected followers.
TIME_WINDOW, DISTANCE_WINDOW = 10.0, 20.0

SIZES = {
    "score": {"events": 8_000, "aftershock_frac": 0.3, "alarms": 500},
    "calibrate": {"sim_events": 8_000, "sim_alarms": 2_000, "sim_zones": 20,
                  "sim_replicates": 300,
                  "delay_n": 100, "delay_m": 50, "delay_replicates": 3_000,
                  "supp_n": 20, "supp_m": 100, "supp_replicates": 1_000,
                  "supp_window": 200.0, "delay_span": 1000.0},
    "score-kde": {"events": 300, "aftershock_frac": 0.0, "alarms": 150},
}


# ---------------------------------------------------------------- inputs

def _inside(xy: np.ndarray) -> np.ndarray:
    return ((xy[:, 0] >= X0) & (xy[:, 0] <= X1)
            & (xy[:, 1] >= Y0) & (xy[:, 1] <= Y1))


def _hotspot_points(rng: np.random.Generator, n: int) -> np.ndarray:
    chol = np.linalg.cholesky(HOTSPOT_COV)
    out = np.empty((n, 2))
    filled = 0
    while filled < n:
        cand = HOTSPOT_CENTRE + rng.standard_normal((n - filled, 2)) @ chol.T
        cand = cand[_inside(cand)]
        out[filled:filled + len(cand)] = cand
        filled += len(cand)
    return out


def make_catalog(rng: np.random.Generator, n: int, aftershock_frac: float):
    """Background events (a share in the hotspot) plus dependent aftershocks.

    Background magnitudes follow Gutenberg-Richter with b = 1 above 4.0.
    Each aftershock follows a uniformly chosen background event by an
    exponential lag (3 days), a Gaussian offset (8 km) and a magnitude at
    least 0.2 below its parent, so the filter has real work to do.
    Returns (t, x, y, m) sorted by time.
    """
    n_after = int(round(aftershock_frac * n))
    n_main = n - n_after
    n_hot = int(round(HOTSPOT_FRAC * n_main))
    xy = np.empty((n_main, 2))
    xy[:n_hot] = _hotspot_points(rng, n_hot)
    xy[n_hot:] = rng.uniform((X0, Y0), (X1, Y1), (n_main - n_hot, 2))
    t = rng.uniform(0.0, RECORD_END, n_main)
    m = np.minimum(4.0 + rng.exponential(1.0 / math.log(10.0), n_main), 8.5)
    if n_after:
        parent = rng.integers(0, n_main, n_after)
        t_a = np.minimum(t[parent] + rng.exponential(3.0, n_after), RECORD_END)
        xy_a = xy[parent] + rng.normal(0.0, 8.0, (n_after, 2))
        xy_a[:, 0] = np.clip(xy_a[:, 0], X0 + 1e-3, X1 - 1e-3)
        xy_a[:, 1] = np.clip(xy_a[:, 1], Y0 + 1e-3, Y1 - 1e-3)
        m_a = np.maximum(m[parent] - 0.2 - rng.exponential(0.5, n_after), 2.5)
        t = np.concatenate([t, t_a])
        xy = np.concatenate([xy, xy_a])
        m = np.concatenate([m, m_a])
    order = np.argsort(t, kind="stable")
    return t[order], xy[order, 0], xy[order, 1], m[order]


def write_catalog(path: Path, t, x, y, m) -> None:
    lines = ["time,x,y,magnitude"]
    lines += [f"{a:.4f},{b:.3f},{c:.3f},{d:.2f}" for a, b, c, d in zip(t, x, y, m)]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _windows(rng: np.random.Generator, n: int, max_duration: float):
    start = rng.uniform(0.0, RECORD_END - max_duration, n)
    end = start + rng.uniform(5.0, max_duration, n)
    issue = np.maximum(start - rng.uniform(0.0, 10.0, n), 0.0)
    mmin = rng.choice(MIN_MAGNITUDES, n, p=MIN_MAGNITUDE_P)
    return issue, start, end, mmin


def _circle_centres(rng: np.random.Generator, radius: np.ndarray) -> np.ndarray:
    """Half near the hotspot, half anywhere; every circle inside the region."""
    n = len(radius)
    near = rng.random(n) < 0.5
    centre = np.where(near[:, None],
                      HOTSPOT_CENTRE + rng.normal(0.0, 120.0, (n, 2)),
                      rng.uniform((X0, Y0), (X1, Y1), (n, 2)))
    lo = radius + 1.0
    centre[:, 0] = np.clip(centre[:, 0], X0 + lo, X1 - lo)
    centre[:, 1] = np.clip(centre[:, 1], Y0 + lo, Y1 - lo)
    return centre


def _polygon(rng: np.random.Generator) -> list[list[float]]:
    """A convex polygon: points on a circle in angular order, then an affine
    stretch and rotation (affine maps keep convexity)."""
    k = int(rng.integers(4, 9))
    angles = 2.0 * np.pi * (np.arange(k) + rng.uniform(0.0, 0.6, k)) / k
    unit = np.column_stack([np.cos(angles), np.sin(angles)])
    radius = rng.uniform(15.0, 60.0)
    stretch = np.diag(rng.uniform(0.6, 1.0, 2))
    rot = rng.uniform(0.0, np.pi)
    turn = np.array([[math.cos(rot), -math.sin(rot)], [math.sin(rot), math.cos(rot)]])
    centre = _circle_centres(rng, np.array([radius]))[0]
    verts = centre + radius * unit @ stretch @ turn.T
    return [[round(float(a), 4), round(float(b), 4)] for a, b in verts]


def write_predictions(path: Path, issue, start, end, circles, mmin) -> None:
    """``circles[j]`` is (cx, cy, r), or None for a row whose polygon is in
    the sidecar."""
    lines = ["issue_time,window_start,window_end,cx,cy,radius,min_magnitude"]
    for j in range(len(issue)):
        circ = ",," if circles[j] is None else \
            "{:.3f},{:.3f},{:.3f}".format(*circles[j])
        lines.append(f"{issue[j]:.4f},{start[j]:.4f},{end[j]:.4f},{circ},{mmin[j]:.1f}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _catalog_and_alarms(rng, sizes, d: Path, polygons: bool) -> dict:
    t, x, y, m = make_catalog(rng, sizes["events"], sizes["aftershock_frac"])
    write_catalog(d / "events.csv", t, x, y, m)
    n = sizes["alarms"]
    issue, start, end, mmin = _windows(rng, n, 90.0)
    radius = rng.uniform(10.0, 60.0, n)
    centre = _circle_centres(rng, radius)
    circles = [(centre[j, 0], centre[j, 1], radius[j]) for j in range(n)]
    inputs = {"events": d / "events.csv", "predictions": d / "predictions.csv",
              "polygons": None}
    if polygons:
        sidecar = {}
        for j in range(1, n, 2):
            circles[j] = None
            sidecar[str(j)] = _polygon(rng)
        inputs["polygons"] = d / "predictions.regions.json"
        inputs["polygons"].write_text(json.dumps(sidecar), encoding="utf-8")
    write_predictions(d / "predictions.csv", issue, start, end, circles, mmin)
    return inputs


def _phi(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def _calibrate_inputs(rng, sizes, d: Path) -> dict:
    # Fixed null density: half the mass in a diagonal bump at (400, 600).
    # With a diagonal Q the bump's mass over the rectangle is a product of
    # two 1-D normal masses, so p0 is written exactly.
    sx, sy, weight, centre = 60.0, 90.0, 0.5, (400.0, 600.0)
    q = [1.0 / (2 * sx * sx), 0.0, 0.0, 1.0 / (2 * sy * sy)]
    mass = (2 * math.pi * sx * sy
            * (_phi((X1 - centre[0]) / sx) - _phi((X0 - centre[0]) / sx))
            * (_phi((Y1 - centre[1]) / sy) - _phi((Y0 - centre[1]) / sy)))
    p1 = weight / mass
    density = {"type": "parametric", "x_c": list(centre), "Q": q,
               "p0": (1.0 - weight) / ((X1 - X0) * (Y1 - Y0)), "p1": p1,
               "region": {"type": "rectangle", "x_min": X0, "x_max": X1,
                          "y_min": Y0, "y_max": Y1}}
    (d / "density.json").write_text(json.dumps(density, indent=2) + "\n",
                                    encoding="utf-8")
    zones = sizes["sim_zones"]
    z_radius = rng.uniform(30.0, 80.0, zones)
    z_centre = _circle_centres(rng, z_radius)
    z_mmin = rng.choice(MIN_MAGNITUDES, zones, p=MIN_MAGNITUDE_P)
    n = sizes["sim_alarms"]
    issue, start, end, _ = _windows(rng, n, 60.0)
    zone = np.arange(n) % zones
    mmin = z_mmin[zone]
    circles = [(z_centre[k, 0], z_centre[k, 1], z_radius[k]) for k in zone]
    write_predictions(d / "predictions.csv", issue, start, end, circles, mmin)
    seeds = [int(s) for s in rng.integers(0, 2 ** 31, 3)]
    return {"density": d / "density.json", "predictions": d / "predictions.csv",
            "seeds": seeds}


# -------------------------------------------------------------- commands

def _score_commands(inputs: dict, out: Path, sizes: dict) -> list:
    kept = str(out / "kept.csv")
    model = str(out / "model.json")
    preds = ["--predictions", str(inputs["predictions"])]
    return [
        ("filter-aftershocks",
         ["filter-aftershocks", "--earthquakes", str(inputs["events"]),
          *CATALOG_ARGS, "--time-window", f"{TIME_WINDOW:g}",
          "--distance-window", f"{DISTANCE_WINDOW:g}",
          "--filtered-out", kept, "--out", str(out / "filter.json")]),
        ("fit-density",
         ["fit-density", "--earthquakes", kept, *CATALOG_ARGS,
          "--kind", "parametric", "--model-out", model,
          "--out", str(out / "fit.json")]),
        ("significance",
         ["significance", "--earthquakes", kept, *CATALOG_ARGS, *preds,
          "--density", model, "--exact", "--out", str(out / "significance.json")]),
        ("enhancement",
         ["enhancement", "--earthquakes", kept, *CATALOG_ARGS, *preds,
          "--density", model, "--out", str(out / "enhancement.json")]),
        ("precursor",
         ["precursor", "--earthquakes", kept, *CATALOG_ARGS, *preds,
          "--out", str(out / "precursor.json")]),
    ]


def _calibrate_commands(inputs: dict, out: Path, sizes: dict) -> list:
    s = inputs["seeds"]
    return [
        ("simulate-significance",
         ["simulate", "--mode", "significance",
          "--replicates", str(sizes["sim_replicates"]), "--seed", str(s[0]),
          "--n-events", str(sizes["sim_events"]), "--span", f"{RECORD_END:g}",
          "--predictions", str(inputs["predictions"]),
          "--density", str(inputs["density"]),
          "--samples-out", str(out / "samples.csv"),
          "--out", str(out / "simulate-significance.json")]),
        ("simulate-delays",
         ["simulate", "--mode", "delays",
          "--replicates", str(sizes["delay_replicates"]), "--seed", str(s[1]),
          "--n-events", str(sizes["delay_n"]), "--span", f"{sizes['delay_span']:g}",
          "--m-signals", str(sizes["delay_m"]),
          "--out", str(out / "simulate-delays.json")]),
        ("simulate-delays-suppressed",
         ["simulate", "--mode", "delays",
          "--replicates", str(sizes["supp_replicates"]), "--seed", str(s[2]),
          "--n-events", str(sizes["supp_n"]), "--span", f"{sizes['delay_span']:g}",
          "--m-signals", str(sizes["supp_m"]),
          "--suppression-window", f"{sizes['supp_window']:g}",
          "--out", str(out / "simulate-delays-suppressed.json")]),
    ]


def _kde_commands(inputs: dict, out: Path, sizes: dict) -> list:
    model = str(out / "model.json")
    return [
        ("fit-density",
         ["fit-density", "--earthquakes", str(inputs["events"]), *CATALOG_ARGS,
          "--kind", "kde", "--model-out", model, "--out", str(out / "fit.json")]),
        ("significance",
         ["significance", "--earthquakes", str(inputs["events"]), *CATALOG_ARGS,
          "--predictions", str(inputs["predictions"]),
          "--polygons", str(inputs["polygons"]),
          "--density", model, "--exact", "--out", str(out / "significance.json")]),
    ]


# ---------------------------------------------------------------- oracles

def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def read_catalog(path: Path) -> np.ndarray:
    """Columns t, x, y, m of an earthquake CSV, sorted by time."""
    cat = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return cat[np.argsort(cat[:, 0], kind="stable")]


def read_alarms(path: Path, polygons: Path | None = None) -> list[dict]:
    sidecar = {} if polygons is None else _read_json(polygons)
    alarms = []
    with open(path, encoding="utf-8", newline="") as fh:
        for j, row in enumerate(csv.DictReader(fh)):
            alarm = {"start": float(row["window_start"]),
                     "end": float(row["window_end"]),
                     "min_mag": float(row["min_magnitude"])}
            if row["cx"]:
                alarm["circle"] = (float(row["cx"]), float(row["cy"]),
                                   float(row["radius"]))
            else:
                alarm["polygon"] = np.asarray(sidecar[str(j)], dtype=float)
            alarms.append(alarm)
    return alarms


def _inside_alarm(alarm: dict, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # Boundaries are inclusive with a 1e-9 relative slack, as documented
    # for the package's regions.  Generated polygons are counterclockwise.
    if "circle" in alarm:
        cx, cy, r = alarm["circle"]
        return (x - cx) ** 2 + (y - cy) ** 2 <= (r * (1 + 1e-9)) ** 2
    v = alarm["polygon"]
    ok = np.ones(len(x), dtype=bool)
    for a, b in zip(v, np.roll(v, -1, axis=0)):
        tol = 1e-9 * (X1 - X0) * float(np.hypot(*(b - a)))
        ok &= (b[0] - a[0]) * (y - a[1]) - (b[1] - a[1]) * (x - a[0]) >= -tol
    return ok


def brute_force_hits(catalog: np.ndarray, alarms: list[dict]) -> int:
    """Alarms with at least one qualifying event in window and region."""
    t, x, y, m = catalog.T
    hits = 0
    for a in alarms:
        lo = np.searchsorted(t, a["start"], side="left")
        hi = np.searchsorted(t, a["end"], side="right")
        sl = slice(lo, hi)
        q = m[sl] >= a["min_mag"]
        hits += bool(np.any(q & _inside_alarm(a, x[sl], y[sl])))
    return hits


def bump_mass_circles(circles: np.ndarray, x_c, q: np.ndarray) -> np.ndarray:
    """Mass of exp(-d'Qd) over each circle (cx, cy, r), by a fixed rule.

    With x = cx + r sin(phi) the circle's chord at x spans cy +- r cos(phi);
    the y-integral of the Gaussian over that chord is exact in ndtr, and a
    Gauss-Legendre rule in phi does the rest.  Independent of the package's
    adaptive polar grids.
    """
    u, w = np.polynomial.legendre.leggauss(96)
    phi, w_phi = 0.5 * np.pi * u, 0.5 * np.pi * w
    cx, cy, r = (circles[:, k:k + 1] for k in range(3))
    half = r * np.cos(phi)
    dx = cx + r * np.sin(phi) - x_c[0]
    a, b, c = q[0, 0], q[0, 1], q[1, 1]
    y_mid = x_c[1] - b * dx / c
    s = math.sqrt(2.0 * c)
    chord = math.sqrt(math.pi / c) * (ndtr(s * (cy + half - y_mid))
                                      - ndtr(s * (cy - half - y_mid)))
    return (np.exp(-(a - b * b / c) * dx * dx) * chord * half) @ w_phi


def independent_mu(model: dict, catalog: np.ndarray, alarms: list[dict]) -> float:
    """Expected chance successes under a parametric model, by the oracle."""
    circles = np.array([a["circle"] for a in alarms])
    q = np.asarray(model["Q"], dtype=float).reshape(2, 2)
    mass = (model["p0"] * np.pi * circles[:, 2] ** 2
            + model["p1"] * bump_mass_circles(circles, model["x_c"], q))
    mass = np.clip(mass, 0.0, 1.0)
    mags = np.sort(catalog[:, 3])
    n_bg = len(mags) - np.searchsorted(mags, [a["min_mag"] for a in alarms],
                                       side="left")
    dur = np.array([a["end"] - a["start"] for a in alarms]) / RECORD_END
    return float(np.sum(-np.expm1(n_bg * np.log1p(-mass * dur))))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _score_checks(inputs: dict, out: Path, sizes: dict) -> list:
    filt = _read_json(out / "filter.json")
    sig = _read_json(out / "significance.json")
    enh = _read_json(out / "enhancement.json")
    kept = read_catalog(out / "kept.csv")
    alarms = read_alarms(inputs["predictions"])
    model = _read_json(out / "model.json")
    return [
        ("filter_partition",
         filt["n_kept"] + filt["n_excluded"] == filt["n_input"] == sizes["events"]
         and filt["n_kept"] == len(kept)),
        ("n_observed_brute_force", sig["n_observed"] == brute_force_hits(kept, alarms)),
        ("mu_independent_quadrature",
         _close(sig["mu"], independent_mu(model, kept, alarms), 1e-7)),
        ("c_min_below_c_hat", sig["c_min"] is not None and sig["c_min"] < sig["c_hat"]),
        ("enhancement_agrees",
         _close(enh["mu"], sig["mu"], 1e-12) and _close(enh["c_hat"], sig["c_hat"], 1e-12)
         and enh["n_observed"] == sig["n_observed"]),
    ]


def _calibrate_checks(inputs: dict, out: Path, sizes: dict) -> list:
    sim = _read_json(out / "simulate-significance.json")
    counts = np.loadtxt(out / "samples.csv", delimiter=",", skiprows=1, ndmin=2)[:, 1]
    se_counts = counts.std(ddof=1) / math.sqrt(len(counts))
    delays = _read_json(out / "simulate-delays.json")
    supp = _read_json(out / "simulate-delays-suppressed.json")
    return [
        ("success_mean_near_mu",
         len(counts) == sim["n_replicates"]
         and bool(abs(counts.mean() - sim["mu"]) <= 5.0 * se_counts)),
        ("delay_z_calibrated",
         abs(delays["mean"]) <= 5.0 * delays["std_error"]
         and 0.9 <= delays["variance"] <= 1.1),
        ("suppressed_z_negative", supp["mean"] <= -2.5),
    ]


def _kde_checks(inputs: dict, out: Path, sizes: dict) -> list:
    sig = _read_json(out / "significance.json")
    catalog = read_catalog(inputs["events"])
    alarms = read_alarms(inputs["predictions"], inputs["polygons"])
    return [("n_observed_brute_force", sig["n_observed"] == brute_force_hits(catalog, alarms))]


# -------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    """One seeded input set, the commands of one pass, and their checks."""

    name: str
    sizes: dict
    generate: Callable[[np.random.Generator, dict, Path], dict]
    commands: Callable[[dict, Path, dict], list]
    check: Callable[[dict, Path, dict], list]

    def setup(self, seed: int, directory: Path) -> dict:
        directory.mkdir(parents=True, exist_ok=True)
        return self.generate(np.random.default_rng(seed), self.sizes, directory)


_STAGES = {
    "score": (partial(_catalog_and_alarms, polygons=False), _score_commands,
              _score_checks),
    "calibrate": (_calibrate_inputs, _calibrate_commands, _calibrate_checks),
    "score-kde": (partial(_catalog_and_alarms, polygons=True), _kde_commands,
                  _kde_checks),
}


def workload(name: str, sizes: dict | None = None) -> Workload:
    """The named workload at its benchmark sizes, or at ``sizes``."""
    return Workload(name, dict(SIZES[name] if sizes is None else sizes), *_STAGES[name])
