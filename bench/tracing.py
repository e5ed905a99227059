"""Spans and counts for the traced pass, and the per-layer metrics.

The traced pass replays each CLI command as the public library calls the
command makes, on the same files, with a span around each call.  A span
is (name, start, end, parent index); spans stay in memory and are written
out when the run ends.  The ``spatial.*`` spans come from ``TimedDensity``,
which the replay passes wherever the library takes a density, so no
module attribute of the package is touched.
"""

from __future__ import annotations

import json
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np

from quakeval import (AftershockPolicy, ConvexPolygon, NullModel, Rectangle,
                      chance_probabilities, count_successes,
                      empirical_significance, enhancement_estimate,
                      extract_delays, filter_aftershocks, fit_kde,
                      fit_parametric, load_density, min_consistent_c,
                      null_zscores, parse_earthquakes, parse_predictions,
                      precursor_test, save_density, serialize_earthquakes,
                      serialize_exclusions, significance_report)
from quakeval.cli import build_parser

LAYERS = ("cli", "catalog", "spatial", "nulltest", "precursor", "mc")
CLI_COMMANDS = ("filter-aftershocks", "fit-density", "significance",
                "enhancement", "precursor", "simulate-significance",
                "simulate-delays", "simulate-delays-suppressed")
SPAN_METRICS = (
    "catalog.parse_earthquakes", "catalog.parse_predictions",
    "catalog.filter_aftershocks",
    "spatial.fit_parametric", "spatial.fit_kde", "spatial.load_density",
    "spatial.integrate", "spatial.sample",
    "nulltest.significance_report", "nulltest.chance_probabilities",
    "nulltest.count_successes", "nulltest.min_consistent_c",
    "precursor.extract_delays", "precursor.precursor_test",
    "mc.empirical_significance", "mc.null_zscores", "mc.null_zscores_suppressed",
)
COUNT_METRICS = ("catalog.rows_parsed", "catalog.events_excluded",
                 "spatial.fit_nfev", "spatial.integrate_calls",
                 "spatial.sample_calls", "regions.unique_alarm_regions",
                 "regions.polygon_alarms")


PER_LAYER_UNITS = {
    **{f"cli.{c}_s": "s" for c in CLI_COMMANDS},
    **{f"{name}_s": "s" for name in SPAN_METRICS},
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{name: "count" for name in COUNT_METRICS},
    "spatial.mass_useful_ratio": "ratio",
    "trace.overhead_frac": "ratio",
    "sig_reps_per_s": "1/s",
    "delay_reps_per_s": "1/s",
}


class Tracer:
    """In-memory spans, counters and gauges of one traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, int] = {}
        self.integrated: set = set()
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        self.spans.append([name, perf_counter(), None, parent])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = perf_counter()

    def self_times(self) -> dict[str, float]:
        """Per layer: span time not covered by the span's own children."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        out = dict.fromkeys(LAYERS, 0.0)
        for (name, start, end, _), covered in zip(self.spans, child_time):
            out[name.split(".")[0]] += end - start - covered
        return out

    def metrics(self) -> dict[str, float]:
        totals: Counter = Counter()
        for name, start, end, _ in self.spans:
            totals[name] += end - start
        out = {f"cli.{c}_s": totals[f"cli.{c}"] for c in CLI_COMMANDS}
        out.update({f"{name}_s": totals[name] for name in SPAN_METRICS})
        out.update({f"{layer}.self_s": t for layer, t in self.self_times().items()})
        out.update({name: self.counts[name] for name in COUNT_METRICS})
        out.update(self.gauges)
        calls = self.counts["spatial.integrate_calls"]
        out["spatial.mass_useful_ratio"] = len(self.integrated) / calls if calls else 0.0
        return out

    def top_level_s(self) -> float:
        """Time inside spans that have no parent: the replayed commands."""
        return sum(end - start for _, start, end, parent in self.spans
                   if parent is None)

    def rows(self, origin: float) -> list[list]:
        """Spans as [name, start, end, parent index], times from ``origin``."""
        return [[n, s - origin, e - origin, p] for n, s, e, p in self.spans]


class TimedDensity:
    """Stands in for a density; times and counts the calls into it."""

    def __init__(self, density, tracer: Tracer):
        self._density = density
        self._tracer = tracer
        self.region = density.region

    def integrate(self, subregion, *args, **kwargs) -> float:
        self._tracer.counts["spatial.integrate_calls"] += 1
        self._tracer.integrated.add(subregion)
        with self._tracer.span("spatial.integrate"):
            return self._density.integrate(subregion, *args, **kwargs)

    def sample_rng(self, count: int, rng) -> np.ndarray:
        self._tracer.counts["spatial.sample_calls"] += 1
        with self._tracer.span("spatial.sample"):
            return self._density.sample_rng(count, rng)

    def __getattr__(self, name):
        # Calls the spans do not cover still reach the density, untimed, so
        # the replay keeps working if the package calls other methods.
        return getattr(self._density, name)


# ---------------------------------------------------------------- replay

def _region(spec: str) -> Rectangle:
    return Rectangle(*(float(v) for v in spec.split(",")))


def _catalog(t: Tracer, path: str, args):
    with t.span("catalog.parse_earthquakes"):
        cat = parse_earthquakes(path, region=_region(args.region),
                                record_start=args.record_start,
                                record_end=args.record_end)
    t.counts["catalog.rows_parsed"] += len(cat)
    return cat


def _predictions(t: Tracer, args):
    with t.span("catalog.parse_predictions"):
        preds = parse_predictions(args.predictions, polygons=args.polygons)
    regions = {p.region for p in preds}
    t.gauges["regions.unique_alarm_regions"] = len(regions)
    t.gauges["regions.polygon_alarms"] = sum(isinstance(r, ConvexPolygon) for r in regions)
    return preds


def _density(t: Tracer, path: str) -> TimedDensity:
    with t.span("spatial.load_density"):
        return TimedDensity(load_density(path), t)


def replay(argv: list[str], name: str, t: Tracer) -> None:
    """Run one CLI command as its library calls, and write to its ``--out``
    the report fields that the checks compare with the CLI's report."""
    args = build_parser().parse_args(argv)
    if args.subcommand == "filter-aftershocks":
        cat = _catalog(t, args.earthquakes, args)
        with t.span("catalog.filter_aftershocks"):
            res = filter_aftershocks(cat, AftershockPolicy(args.time_window,
                                                          args.distance_window))
        t.counts["catalog.events_excluded"] += len(res.excluded)
        serialize_earthquakes(res.kept, args.filtered_out)
        serialize_exclusions(res, str(Path(args.filtered_out).with_suffix(".exclusions.csv")))
        out = {"n_input": len(cat), "n_kept": len(res.kept),
               "n_excluded": len(res.excluded)}
    elif args.subcommand == "fit-density":
        cat = _catalog(t, args.earthquakes, args)
        points = np.column_stack([cat.xs, cat.ys])
        if args.kind == "parametric":
            with t.span("spatial.fit_parametric"):
                res = fit_parametric(points, cat.region)
            t.counts["spatial.fit_nfev"] += res.n_evaluations
            density = res.density
            out = {"loglik": res.loglik}
        else:
            with t.span("spatial.fit_kde"):
                density = fit_kde(points, cat.region)
            out = {"region_mass_raw": density.normalization}
        save_density(density, args.model_out)
    elif args.subcommand == "significance":
        cat = _catalog(t, args.earthquakes, args)
        preds = _predictions(t, args)
        density = _density(t, args.density)
        with t.span("nulltest.significance_report"):
            report = significance_report(cat, preds, density, alpha=args.alpha,
                                         exact=args.exact)
        out = report.to_dict()
    elif args.subcommand == "enhancement":
        cat = _catalog(t, args.earthquakes, args)
        preds = _predictions(t, args)
        density = _density(t, args.density)
        with t.span("nulltest.chance_probabilities"):
            cp = chance_probabilities(preds, density, cat)
        with t.span("nulltest.count_successes"):
            n_obs = count_successes(cat, preds)
        out = {"n_observed": n_obs, "mu": cp.mu,
               "c_hat": enhancement_estimate(cp, n_obs), "c_min": None}
        if n_obs >= 1:
            with t.span("nulltest.min_consistent_c"):
                out["c_min"] = min_consistent_c(cp, n_obs, args.alpha).value
    elif args.subcommand == "precursor":
        cat = _catalog(t, args.earthquakes, args)
        preds = _predictions(t, args)
        with t.span("precursor.extract_delays"):
            data = extract_delays(preds, cat)
        with t.span("precursor.precursor_test"):
            res = precursor_test(data.observations, data.n_events, data.span,
                                 threshold=args.threshold)
        out = res.to_dict()
    elif args.mode == "significance":
        preds = _predictions(t, args)
        density = _density(t, args.density)
        model = NullModel(args.n_events, args.span, density, seed=args.seed)
        with t.span("mc.empirical_significance"):
            sim = empirical_significance(model, preds, args.replicates)
        rows = ["replicate,n_successes,exact_significance"]
        rows += [f"{r},{int(c)},{float(v)!r}" for r, (c, v)
                 in enumerate(zip(sim.success_counts, sim.summary.samples))]
        Path(args.samples_out).write_text("\n".join(rows) + "\n", encoding="utf-8")
        out = {"mu": sim.mu, **sim.summary.to_dict()}
    else:
        span = "mc.null_zscores_suppressed" if args.suppression_window else "mc.null_zscores"
        with t.span(span):
            summary = null_zscores(args.m_signals, args.n_events, args.span,
                                   args.replicates, seed=args.seed,
                                   suppression_window=args.suppression_window,
                                   shared_catalog=args.shared_catalog)
        out = summary.to_dict()
    Path(args.out).write_text(json.dumps({"command": name, **out}, indent=2) + "\n",
                              encoding="utf-8")
