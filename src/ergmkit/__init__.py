"""ERGM engine: network statistics, estimation, simulation, and imputation."""

from .graph import (
    AttributeTable,
    CategoricalColumn,
    ComponentLabeling,
    ContinuousColumn,
    Graph,
    categorical,
    connected_components,
    continuous,
    largest_connected_component,
    load_graph,
)
from .model import (
    Edges,
    GwDegree,
    ModelSpec,
    NodeFactor,
    NodeMatch,
    NodeMix,
    change_statistics,
    statistics,
)
from .netstats import NetworkSummary, network_summary
from .sampler import SamplerConfig, sample
from .fit import FitResult, fit_mcmle, fit_mple, gof, or_table, screen_univariate
from .forest import ForestConfig
from .imputation import ImputationResult, MissingnessMask, impute_missforest, impute_psm

__version__ = "0.1.0"

__all__ = [
    "AttributeTable",
    "CategoricalColumn",
    "ComponentLabeling",
    "ContinuousColumn",
    "Edges",
    "FitResult",
    "ForestConfig",
    "Graph",
    "GwDegree",
    "ImputationResult",
    "MissingnessMask",
    "ModelSpec",
    "NetworkSummary",
    "NodeFactor",
    "NodeMatch",
    "NodeMix",
    "SamplerConfig",
    "categorical",
    "change_statistics",
    "connected_components",
    "continuous",
    "fit_mcmle",
    "fit_mple",
    "gof",
    "impute_missforest",
    "impute_psm",
    "largest_connected_component",
    "load_graph",
    "network_summary",
    "or_table",
    "sample",
    "screen_univariate",
    "statistics",
]
