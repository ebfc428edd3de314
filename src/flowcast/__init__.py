"""Tensor-based forecasting for station x day x time-of-day flow data.

The package decomposes a 3-way flow tensor with CP/ALS, forecasts the
temporal factor with a 2D-ARMA model over the day-of-week x week grid,
refreshes forecasts intraday from partially observed days, imputes missing
stretches with Bayesian low-rank tensor completion, and groups stations by
their latent loadings for per-cluster modelling.
"""

from .arma2d import (Arma2dModel, Field2D, arma2d_fit, arma2d_forecast,
                     field_to_vector, reshape_to_field, simulate_field)
from .clustering import (ClusterAssignment, StationEmbedding, agglomerate,
                         choose_cluster_count, embed_stations)
from .cp import AlsConfig, CpModel, cp_fit, cp_rank_select, cp_solve_mode
from .experiments import (ExperimentConfig, ExperimentReport, load_input,
                          longterm_report, shortterm_report, update_report,
                          write_report)
from .io import LoadReport, export, ingest
from .lrtc import (CompletionResult, LrtcHyperParams, LrtcPosterior, lrtc_fit,
                   lrtc_predict, short_term_predict)
from .pipeline import (DayPrediction, ForecastPlan, forecast_from_model,
                       lean_update, rolling_update_evaluation,
                       two_step_forecast, update_location_factor)
from .synthetic import SyntheticSpec, generate_synthetic, planted_labels
from .tensor_ops import (DegenerateSolveWarning, cp_reconstruct, fold,
                         khatri_rao, khatri_rao_all, relative_residual,
                         unfold)

__version__ = "0.1.0"

__all__ = [
    "AlsConfig",
    "Arma2dModel",
    "ClusterAssignment",
    "CompletionResult",
    "CpModel",
    "DayPrediction",
    "DegenerateSolveWarning",
    "ExperimentConfig",
    "ExperimentReport",
    "Field2D",
    "ForecastPlan",
    "LoadReport",
    "LrtcHyperParams",
    "LrtcPosterior",
    "StationEmbedding",
    "SyntheticSpec",
    "agglomerate",
    "arma2d_fit",
    "arma2d_forecast",
    "choose_cluster_count",
    "cp_fit",
    "cp_rank_select",
    "cp_reconstruct",
    "cp_solve_mode",
    "embed_stations",
    "export",
    "field_to_vector",
    "fold",
    "forecast_from_model",
    "generate_synthetic",
    "ingest",
    "khatri_rao",
    "khatri_rao_all",
    "lean_update",
    "load_input",
    "longterm_report",
    "lrtc_fit",
    "lrtc_predict",
    "planted_labels",
    "relative_residual",
    "reshape_to_field",
    "rolling_update_evaluation",
    "short_term_predict",
    "shortterm_report",
    "simulate_field",
    "two_step_forecast",
    "unfold",
    "update_location_factor",
    "update_report",
    "write_report",
]
