"""Statistical evaluation of earthquake prediction sets.

Given a catalog of events and a batch of alarm predictions, the
package answers three questions: how many predictions would succeed by
chance alone, how significant the observed success count is, and
whether the timing of signals relative to events shows genuine
precursor behaviour.  Supporting pieces: spatial density models over a
study region, synthetic-catalog Monte Carlo, and an aftershock filter.

Importing the package loads numpy but not scipy: each function that
computes with scipy imports the part it needs when it runs.
"""

from .catalog import (AftershockPolicy, Catalog, FilterResult, Prediction,
                      PredictionSet, filter_aftershocks, parse_earthquakes,
                      parse_predictions, serialize_earthquakes,
                      serialize_exclusions, serialize_predictions,
                      validate_predictions_against)
from .errors import FitError, QuakevalError, ValidationError
from .mc import (ClusteringParams, NullModel, SignificanceSimulation,
                 SimulationSummary, TauMoments, child_rng,
                 empirical_significance, empirical_tau_moments,
                 ks_uniform_distance, null_zscores, simulate_null_catalog)
from .nulltest import (ChanceProbabilities, CMin, SignificanceReport,
                       chance_probabilities, chance_probability,
                       clt_significance, count_successes,
                       enhancement_estimate, exact_poisson_binomial,
                       min_consistent_c, overlap_fraction,
                       poisson_binomial_pmf, significance_report)
from .precursor import (DelayData, PrecursorResult, extract_delays,
                        precursor_test, tau_mean, tau_tail, tau_var)
from .regions import (Circle, ConvexPolygon, Rectangle, Region,
                      contains_region, region_from_dict)
from .spatial import (FitResult, KernelDensity, ParametricDensity,
                      SpatialDensity, density_from_dict, fit_kde,
                      fit_parametric, load_density, save_density)

__version__ = "0.1.0"

__all__ = [
    "AftershockPolicy", "Catalog", "ChanceProbabilities", "Circle",
    "ClusteringParams", "CMin", "ConvexPolygon", "DelayData", "FilterResult",
    "FitError", "FitResult", "KernelDensity", "NullModel",
    "ParametricDensity", "PrecursorResult", "Prediction", "PredictionSet",
    "QuakevalError", "Rectangle", "Region", "SignificanceReport",
    "SignificanceSimulation", "SimulationSummary", "SpatialDensity",
    "TauMoments", "ValidationError", "chance_probabilities",
    "chance_probability", "child_rng", "clt_significance", "contains_region",
    "count_successes", "density_from_dict", "empirical_significance",
    "empirical_tau_moments", "enhancement_estimate", "exact_poisson_binomial",
    "extract_delays", "filter_aftershocks", "fit_kde", "fit_parametric",
    "ks_uniform_distance", "load_density", "min_consistent_c",
    "null_zscores", "overlap_fraction", "parse_earthquakes",
    "parse_predictions", "poisson_binomial_pmf", "precursor_test",
    "region_from_dict", "save_density", "serialize_earthquakes",
    "serialize_exclusions", "serialize_predictions", "significance_report",
    "simulate_null_catalog",
    "tau_mean", "tau_tail", "tau_var", "validate_predictions_against",
]
