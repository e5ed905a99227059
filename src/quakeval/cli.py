"""Command-line interface.

Subcommands mirror the library: fit-density, significance, enhancement,
precursor, simulate, filter-aftershocks.  Every run prints one JSON
report (or writes it with --out).  Reports carry the subcommand name
and the resolved configuration, contain no timestamps, and serialize
floats by shortest round-trip, so a rerun with the same inputs and seed
produces byte-identical output.

Exit codes: 0 success, 2 invalid input (bad arguments, malformed or
inconsistent files), 1 any other failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .catalog import (AftershockPolicy, Catalog, _write_table, filter_aftershocks,
                      parse_earthquakes, parse_predictions,
                      serialize_earthquakes, serialize_exclusions)
from .errors import QuakevalError, ValidationError
from .mc import ClusteringParams, NullModel, empirical_significance, null_zscores
from .nulltest import significance_report
from .precursor import extract_delays, precursor_test
from .regions import Rectangle, Region
from .spatial import (ParametricDensity, SpatialDensity, fit_kde, fit_parametric,
                      load_density, save_density)


def _numpy_value(obj):
    """A numpy array or scalar as the Python value ``json`` can write."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


# The enhancement report is this projection of the significance report.
_ENHANCEMENT_KEYS = ("n_predictions", "n_observed", "mu", "c_hat", "c_min",
                     "c_min_capped", "c_min_residual", "alpha")


def _render(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=False, default=_numpy_value) + "\n"


def _parse_region_spec(text: str | None) -> Rectangle | None:
    """The rectangle a ``--region`` value gives; None when there is none."""
    if not text:
        return None
    parts = text.split(",")
    if len(parts) != 4:
        raise ValidationError(
            "--region expects xmin,xmax,ymin,ymax (km)")
    try:
        xmin, xmax, ymin, ymax = (float(p) for p in parts)
    except ValueError:
        raise ValidationError(f"--region value {text!r} is not numeric") from None
    return Rectangle(xmin, xmax, ymin, ymax)


def _load_catalog(args, region: Region | None = None) -> Catalog:
    """The catalog over the study region: ``region`` if given, else
    ``--region``, else the events' bounding box."""
    if region is None:
        region = _parse_region_spec(args.region)
    return parse_earthquakes(args.earthquakes, region=region,
                             record_start=args.record_start,
                             record_end=args.record_end)


def _load_model(args) -> SpatialDensity | None:
    """The density model file ``--density`` names; None for 'uniform' and
    'fit'.  The model's region is the study region, so an explicit
    ``--region`` must be that region."""
    if args.density in ("uniform", "fit"):
        return None
    model = load_density(args.density)
    region = _parse_region_spec(args.region)
    if region is not None and region != model.region:
        raise ValidationError(f"--region {args.region} is not the region of the density "
                              f"model {args.density}, {model.region!r}")
    return model


def _resolve_density(spec: str, region: Region | None, catalog: Catalog | None = None):
    """The density 'uniform' or 'fit' names: the uniform density over the
    study ``region``, or the parametric fit to ``catalog``'s events.
    Simulations have no catalog, so they cannot fit, and their uniform
    density needs an explicit ``--region``."""
    if spec == "fit":
        if catalog is None:
            raise ValidationError("simulate needs a concrete density: a model file or 'uniform'")
        return fit_parametric(np.column_stack([catalog.xs, catalog.ys]), region).density
    if region is None:
        raise ValidationError("simulate with a uniform density needs an explicit --region")
    return ParametricDensity.uniform(region)


def _add_catalog_args(sub):
    sub.add_argument("--earthquakes", required=True,
                     help="earthquake CSV (time,x,y,magnitude)")
    sub.add_argument("--region", default=None,
                     help="study rectangle as xmin,xmax,ymin,ymax; defaults to "
                          "the --density model file's region, else the events' "
                          "bounding box")
    sub.add_argument("--record-start", type=float, default=0.0,
                     help="record origin in days (default 0)")
    sub.add_argument("--record-end", type=float, default=None,
                     help="record end in days; defaults to the last event")


def _add_prediction_args(sub):
    sub.add_argument("--predictions", required=True,
                     help="prediction CSV "
                          "(issue_time,window_start,window_end,cx,cy,radius,min_magnitude)")
    sub.add_argument("--polygons", default=None,
                     help="JSON sidecar mapping row index to polygon vertices")


def _cmd_fit_density(args) -> dict:
    catalog = _load_catalog(args)
    points = np.column_stack([catalog.xs, catalog.ys])
    config = {"earthquakes": args.earthquakes, "kind": args.kind,
              "model_out": args.model_out}
    if args.kind == "parametric":
        res = fit_parametric(points, catalog.region)
        save_density(res.density, args.model_out)
        d = res.density
        body = {
            "n_points": len(points),
            "loglik": res.loglik,
            "loglik_uniform": res.loglik_uniform,
            "converged": res.converged,
            "n_evaluations": res.n_evaluations,
            "x_c": d.x_c.tolist(),
            "Q": d.q_matrix.ravel().tolist(),
            "p0": d.p0,
            "p1": d.p1,
            "bump_weight": d.weight,
        }
    elif args.kind == "kde":
        kde = fit_kde(points, catalog.region)
        save_density(kde, args.model_out)
        body = {
            "n_points": len(points),
            "bandwidth": kde.bandwidth.ravel().tolist(),
            "region_mass_raw": kde.normalization,
        }
    else:
        density = ParametricDensity.uniform(catalog.region)
        save_density(density, args.model_out)
        body = {"n_points": len(points), "area": catalog.region.area}
    return {"command": "fit-density", "config": config, **body}


def _scoring_inputs(args):
    """Catalog, predictions and density of a significance-style command."""
    model = _load_model(args)
    catalog = _load_catalog(args, None if model is None else model.region)
    predictions = parse_predictions(args.predictions, polygons=args.polygons)
    return catalog, predictions, model or _resolve_density(args.density, catalog.region,
                                                           catalog)


def _cmd_significance(args) -> dict:
    report = significance_report(*_scoring_inputs(args), alpha=args.alpha,
                                 exact=args.exact).to_dict()
    config = {"earthquakes": args.earthquakes, "predictions": args.predictions,
              "density": args.density, "alpha": args.alpha, "exact": args.exact}
    return {"command": "significance", "config": config, **report}


def _cmd_enhancement(args) -> dict:
    report = significance_report(*_scoring_inputs(args), alpha=args.alpha).to_dict()
    config = {"earthquakes": args.earthquakes, "predictions": args.predictions,
              "density": args.density, "alpha": args.alpha}
    return {"command": "enhancement", "config": config,
            **{key: report[key] for key in _ENHANCEMENT_KEYS}}


def _cmd_precursor(args) -> dict:
    catalog = _load_catalog(args)
    predictions = parse_predictions(args.predictions, polygons=args.polygons)
    data = extract_delays(predictions, catalog)
    result = precursor_test(data.observations, data.n_events, data.span,
                            threshold=args.threshold)
    config = {"earthquakes": args.earthquakes, "predictions": args.predictions,
              "threshold": args.threshold}
    return {"command": "precursor", "config": config, **result.to_dict(),
            "origin": data.origin, "n_censored": int(data.censored.sum())}


# The flags of one ``simulate`` mode, by argparse attribute, with the value
# each takes when not given.  They parse to None when not given, so that
# a flag of the other mode is refused only when given.
_SIMULATE_MODE_FLAGS = {
    "significance": {"predictions": None, "polygons": None, "density": "uniform",
                     "region": None, "clustering": 0.0, "cluster_decay": 10.0,
                     "cluster_spread": 5.0, "exclude_injected": False,
                     "samples_out": None},
    "delays": {"m_signals": None, "suppression_window": None, "shared_catalog": False},
}


def _cmd_simulate(args) -> dict:
    for mode, flags in _SIMULATE_MODE_FLAGS.items():
        for dest, default in flags.items():
            if getattr(args, dest) is None:
                setattr(args, dest, default)
            elif mode != args.mode:
                raise ValidationError(f"--{dest.replace('_', '-')} is a flag of simulate "
                                      f"--mode {mode}, not of --mode {args.mode}")
    config = {"mode": args.mode, "seed": args.seed, "replicates": args.replicates}
    if args.mode == "delays":
        if args.m_signals is None:
            raise ValidationError("simulate --mode delays needs --m-signals")
        summary = null_zscores(args.m_signals, args.n_events, args.span,
                               args.replicates, seed=args.seed,
                               suppression_window=args.suppression_window,
                               shared_catalog=args.shared_catalog)
        config.update({"m_signals": args.m_signals, "n_events": args.n_events,
                       "span": args.span,
                       "suppression_window": args.suppression_window,
                       "shared_catalog": args.shared_catalog})
        return {"command": "simulate", "config": config, **summary.to_dict()}

    if args.predictions is None:
        raise ValidationError("simulate --mode significance needs --predictions")
    predictions = parse_predictions(args.predictions, polygons=args.polygons)
    density = _load_model(args) or _resolve_density(args.density,
                                                    _parse_region_spec(args.region))
    clustering = None
    if args.clustering != 0:  # so that a negative or NaN fraction meets its check
        clustering = ClusteringParams(args.clustering, args.cluster_decay,
                                      args.cluster_spread)
    model = NullModel(args.n_events, args.span, density,
                      clustering=clustering, seed=args.seed)
    sim = empirical_significance(model, predictions, args.replicates,
                                 exclude_injected=args.exclude_injected)
    if args.samples_out:
        _write_table(["replicate", "n_successes", "exact_significance"],
                     zip(range(len(sim.success_counts)), sim.success_counts.tolist(),
                         sim.summary.samples.tolist()),
                     args.samples_out)
    config.update({"n_events": args.n_events, "span": args.span,
                   "density": args.density, "predictions": args.predictions,
                   "clustering": args.clustering,
                   "exclude_injected": args.exclude_injected})
    return {"command": "simulate", "config": config,
            "n_predictions": len(predictions), "mu": sim.mu,
            **sim.summary.to_dict()}


def _cmd_filter(args) -> dict:
    catalog = _load_catalog(args)
    policy = AftershockPolicy(args.time_window, args.distance_window)
    result = filter_aftershocks(catalog, policy)
    serialize_earthquakes(result.kept, args.filtered_out)
    audit_out = args.audit_out or str(Path(args.filtered_out).with_suffix(".exclusions.csv"))
    serialize_exclusions(result, audit_out)
    config = {"earthquakes": args.earthquakes, "time_window": args.time_window,
              "distance_window": args.distance_window,
              "filtered_out": args.filtered_out, "audit_out": audit_out}
    return {"command": "filter-aftershocks", "config": config,
            "n_input": len(catalog), "n_kept": len(result.kept),
            "n_excluded": len(result.excluded)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quakeval",
        description="Evaluate earthquake prediction sets against chance.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("fit-density",
                        help="fit a spatial density to a catalog")
    _add_catalog_args(p)
    p.add_argument("--kind", choices=["parametric", "kde", "uniform"],
                   default="parametric")
    p.add_argument("--model-out", required=True, help="where to write the model JSON")
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.set_defaults(func=_cmd_fit_density)

    p = subs.add_parser("significance",
                        help="score a prediction set against the chance null")
    _add_catalog_args(p)
    _add_prediction_args(p)
    p.add_argument("--density", default="uniform",
                   help="model JSON path, 'fit', or 'uniform' (default)")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--exact", action="store_true",
                   help="add the exact tail probability to the report")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_significance)

    p = subs.add_parser("enhancement",
                        help="estimate the probability enhancement factor")
    _add_catalog_args(p)
    _add_prediction_args(p)
    p.add_argument("--density", default="uniform")
    p.add_argument("--alpha", type=float, default=0.05)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_enhancement)

    p = subs.add_parser("precursor",
                        help="test signal-to-event delays against chance")
    _add_catalog_args(p)
    _add_prediction_args(p)
    p.add_argument("--threshold", type=float, default=2.5,
                   help="|z| level for the precursor/postcursor flags")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_precursor)

    p = subs.add_parser("simulate",
                        help="Monte Carlo studies under the chance null")
    p.add_argument("--mode", choices=["significance", "delays"],
                   default="significance")
    p.add_argument("--replicates", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-events", type=int, required=True)
    p.add_argument("--span", type=float, required=True,
                   help="record length in days")
    # Mode flags parse to None when not given; _cmd_simulate fills in the
    # defaults the help names and refuses the other mode's flags.
    p.add_argument("--predictions", help="significance mode: prediction CSV")
    p.add_argument("--polygons", help="significance mode: polygon JSON sidecar")
    p.add_argument("--density",
                   help="significance mode: model JSON path or 'uniform' (default)")
    p.add_argument("--region",
                   help="significance mode: study rectangle for the uniform density; "
                        "a --density model file brings its own")
    p.add_argument("--clustering", type=float,
                   help="significance mode: fraction of events converted to dependent "
                        "followers (default 0)")
    p.add_argument("--cluster-decay", type=float,
                   help="significance mode: follower lag scale, days (default 10)")
    p.add_argument("--cluster-spread", type=float,
                   help="significance mode: follower offset sigma, km (default 5)")
    p.add_argument("--exclude-injected", action="store_true", default=None,
                   help="significance mode: do not let followers count as successes")
    p.add_argument("--samples-out",
                   help="significance mode: per-replicate CSV")
    p.add_argument("--m-signals", type=int,
                   help="delays mode: signals per replicate")
    p.add_argument("--suppression-window", type=float,
                   help="delays mode: alarm deadtime after each event, days")
    p.add_argument("--shared-catalog", action="store_true", default=None,
                   help="delays mode: one shared record per replicate")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_simulate)

    p = subs.add_parser("filter-aftershocks",
                        help="drop events shadowed by a larger recent neighbour")
    _add_catalog_args(p)
    p.add_argument("--time-window", type=float, default=30.0,
                   help="days (placeholder default; tune per catalog)")
    p.add_argument("--distance-window", type=float, default=50.0,
                   help="km (placeholder default; tune per catalog)")
    p.add_argument("--filtered-out", required=True,
                   help="where to write the surviving events CSV")
    p.add_argument("--audit-out", default=None,
                   help="exclusion audit CSV (default: next to --filtered-out)")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_filter)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """``build_parser()``, built once per process.  Parsing leaves a
    parser as it was, and one built on every ``run`` left some 500
    objects in reference cycles that only the cyclic garbage collector
    frees, so memory held between collections grew with the runs."""
    return build_parser()


def run(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        payload = args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (QuakevalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    text = _render(payload)
    if getattr(args, "out", None):
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
