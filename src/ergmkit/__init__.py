"""ERGM engine: network statistics, estimation, simulation, and imputation."""

from .graph import (
    AttributeTable,
    CategoricalColumn,
    ContinuousColumn,
    Graph,
    categorical,
    continuous,
    largest_connected_component,
)
from .model import (
    Edges,
    GwDegree,
    ModelSpec,
    NodeFactor,
    NodeMatch,
    NodeMix,
    dyad_endpoints,
    statistics,
)
from .netstats import network_summary
from .sampler import SamplerConfig, simulate
from .fit import FitResult, fit_mcmle, fit_mple, gof, screen_univariate
from .forest import ForestConfig
from .imputation import ImputationResult, impute_missforest, impute_psm

__version__ = "0.1.0"

__all__ = [
    "AttributeTable",
    "CategoricalColumn",
    "ContinuousColumn",
    "Edges",
    "FitResult",
    "ForestConfig",
    "Graph",
    "GwDegree",
    "ImputationResult",
    "ModelSpec",
    "NodeFactor",
    "NodeMatch",
    "NodeMix",
    "SamplerConfig",
    "categorical",
    "continuous",
    "dyad_endpoints",
    "fit_mcmle",
    "fit_mple",
    "gof",
    "impute_missforest",
    "impute_psm",
    "largest_connected_component",
    "network_summary",
    "screen_univariate",
    "simulate",
    "statistics",
]
