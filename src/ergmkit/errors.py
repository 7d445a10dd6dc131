"""Exception hierarchy shared across the package.

Three branches map onto the CLI exit codes: configuration problems (2),
estimation failures (3), and data problems (4).
"""

from __future__ import annotations


class ErgmkitError(Exception):
    exit_code = 1


class ConfigError(ErgmkitError):
    """Invalid configuration or parameters."""

    exit_code = 2


class FitError(ErgmkitError):
    """Estimation could not produce a usable result."""

    exit_code = 3


class DataError(ErgmkitError):
    """Malformed or inconsistent input data."""

    exit_code = 4


# graph construction and selection

class UnknownNodeId(DataError):
    """An edge endpoint does not appear in the node id list."""


class SelfLoop(DataError):
    """Self-loops are forbidden in a simple graph."""


class EmptyGraph(DataError):
    """Operation requires at least one node."""


class TooFewNodes(DataError):
    """Operation requires more nodes than the graph has."""


class NoEdges(DataError):
    """Operation requires at least one edge."""


# model construction

class MissingAttribute(DataError):
    """A referenced attribute column has missing cells at fit time."""


class UnknownLevel(DataError):
    """A referenced level is not among the column's declared levels."""


class UnmappedLabel(DataError):
    """A raw label is neither in its column's recode map nor a declared level."""


# estimation

class RankDeficient(FitError):
    """Design matrix is not full column rank; names the collinear terms."""


class Separation(FitError):
    """A term perfectly predicts tie status; the MLE does not exist."""


class Degeneracy(FitError):
    """Sampled statistics collapsed far from the observed statistics."""


class SingularInformation(FitError):
    """Sampled statistics do not vary independently; names the statistics."""


class NonConvergence(FitError):
    """Iteration limit reached before the convergence criterion."""


class HullBoundary(FitError):
    """Observed statistic attains its extreme value; the MLE diverges."""


# oracle

class TooLarge(ConfigError):
    """Exact enumeration is capped at n = 6."""


# imputation

class AllMissing(DataError):
    """Target column has no observed cells to learn from."""


class CovariateMissing(DataError):
    """Imputation covariates must be complete."""


class PropensityDegenerate(FitError):
    """Missingness is perfectly separable from the covariates."""
