"""Derivative-based 1-D effect curves and importance measures for
black-box regression models on tabular data.

The estimators read a model only through predictions (and gradients when
the backend has them): sweep-average curves, conditional-mean curves,
integrated own- and cross-derivative curves, their total, and local
derivative profiles, plus variance- and derivative-based importance
summaries. Everything runs on plain NumPy arrays over quantile bins of
the variable of interest.
"""

from .data import (BinScheme, CurveKind, Dataset, EffectCurve, center,
                   load_csv, quantile_bins, save_csv)
from .dependence import (CorrelationMatrix, DependenceModel, corr_matrix,
                         fit_dependence)
from .effects import (DEFAULT_BINS, EffectMatrix, ace, ale, atdev,
                      atdev_terms, effect_matrix, le_curve, marginal, pdp)
from .errors import (AtdevError, DataError, ModelError, NoOracleError,
                     NumericalError, UsageError)
from .gradients import (GradientTable, check_gradient, gradient_table,
                        total_derivatives)
from .importance import (ImportanceReport, atdev_importance, build_report,
                         dgsm)
from .models import (AnalyticModel, CATALOG_IDS, ExternalModel, FitReport,
                     MlpModel, Predictor, catalog_model, custom_model,
                     fit_mlp, wrap_external)
from .simgen import (CASES, OracleCurve, OracleParams, SimSpec, generate,
                     oracle, params_from_data, signal_model, theoretical_r2)

__version__ = "0.1.0"

__all__ = [
    "AnalyticModel", "AtdevError", "BinScheme", "CASES", "CATALOG_IDS",
    "CorrelationMatrix",
    "CurveKind", "DEFAULT_BINS", "DataError", "Dataset", "DependenceModel",
    "EffectCurve", "EffectMatrix", "ExternalModel",
    "FitReport", "GradientTable", "ImportanceReport", "MlpModel",
    "ModelError", "NoOracleError", "NumericalError", "OracleCurve",
    "OracleParams", "Predictor", "SimSpec", "UsageError", "ace", "ale",
    "atdev", "atdev_importance", "atdev_terms", "build_report",
    "catalog_model", "center", "check_gradient", "corr_matrix",
    "custom_model", "dgsm", "effect_matrix", "fit_dependence", "fit_mlp",
    "generate", "gradient_table", "le_curve",
    "load_csv", "marginal", "oracle", "params_from_data",
    "pdp", "quantile_bins", "save_csv",
    "signal_model", "theoretical_r2", "total_derivatives", "wrap_external",
]
