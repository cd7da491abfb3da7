"""Derivative-based 1-D effect curves and importance measures for
black-box regression models on tabular data.

The estimators read a model only through predictions (and gradients when
the backend has them): sweep-average curves, conditional-mean curves,
integrated own- and cross-derivative curves, their total, and local
derivative profiles, plus variance- and derivative-based importance
summaries. Everything runs on plain NumPy arrays over quantile bins of
the variable of interest.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each public name under its module. ``import atdev`` loads no submodule
# and no numpy: a name is imported when first used (PEP 562).
_EXPORTS = {
    "data": ("BinScheme", "CurveKind", "Dataset", "EffectCurve", "center",
             "load_csv", "quantile_bins", "save_csv"),
    "dependence": ("corr_matrix", "fit_dependence"),
    "effects": ("DEFAULT_BINS", "EffectMatrix", "Estimation", "ace", "ale",
                "atdev", "atdev_terms", "effect_matrix", "le_curve",
                "marginal", "pdp"),
    "errors": ("AtdevError", "DataError", "ModelError", "NoOracleError",
               "NumericalError", "UsageError"),
    "gradients": ("GradientTable", "check_gradient", "gradient_table"),
    "importance": ("ImportanceReport", "build_report", "dgsm"),
    "models": ("AnalyticModel", "CATALOG_IDS", "ExternalModel", "FitReport",
               "MlpModel", "Predictor", "catalog_model", "custom_model",
               "fit_mlp", "wrap_external"),
    "simgen": ("CASES", "OracleCurve", "OracleParams", "SimSpec", "generate",
               "oracle", "params_from_data", "signal_model", "theoretical_r2"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
